"""The workloads. Each takes a ``Bench`` and returns its end-to-end
metrics; every workload reports every end-to-end metric (README.md says
what each one means).

Corpus sizes are scaled to a one-CPU machine so that one run, set-up
included, takes under a minute."""

from __future__ import annotations

import os

from perfbench.harness import (
    Bench,
    Pace,
    Writer,
    bring_up,
    cfg,
    expected_topk,
    hot_queries,
    index_bytes_per_doc,
    median,
    query_metrics,
    reader_rss_mb,
    serve,
)

HOT_PAGES = 6144
UPDATE_PAGES = 1024
#: pages of the untimed warm-up build that precedes the timed set-ups: it
#: pays the session's one-time start-up (Ray Data executor, worker
#: imports: 1.5-3 s on one CPU)
WARMUP_PAGES = 512
#: timed set-up repetitions; setup_s is their median. The repetitions of
#: one run agree to a few percent; runs differ by more, with the host's load
SETUP_REPS = 3
#: upsert/delete batches the served index takes before serving; each is
#: one upsert_visible_s and write_amp sample
WRITE_BATCHES = 3
#: update_mix rounds (one upsert, one delete, one burst each), the same in
#: traced and untraced runs so that the index state does not depend on
#: speed; each is one upsert_visible_s sample, and successive upserts of a
#: run take up to 30% longer, so fewer rounds leave the median unsteady
ROUNDS = 5
#: nominal time of one pass of the hot set on the update_mix index (one
#: CPU): a burst is --seconds / ROUNDS of it in whole passes (3 at
#: --seconds 5), a count fixed by --seconds and not by how fast passes run
PASS_S = 0.33
#: fixed work of a traced run, so per-layer totals compare across commits
TRACED_HOT_PASSES = 4
TRACED_BURST_PASSES = 2


def _warmup_build(bench: Bench, corpus: str) -> None:
    """Untimed build of the corpus's first WARMUP_PAGES rows."""
    import pyarrow.parquet as pq

    from apache___solr_ray.build import build_index

    src = os.path.join(bench.work, "warmup")
    os.makedirs(src)
    first = sorted(f for f in os.listdir(corpus) if f.endswith(".parquet"))[0]
    pq.write_table(pq.read_table(os.path.join(corpus, first)).slice(0, WARMUP_PAGES),
                   os.path.join(src, "part-0.parquet"))
    build_index(src, os.path.join(bench.work, "warmup-index"), cfg())


def _setup(bench: Bench, n_pages: int, probe: str) -> tuple[str, str, dict]:
    """Ray up, corpus, a warm-up build, then SETUP_REPS cold bring-ups of
    the workload's index, each checked against the corpus analyzed
    directly. Returns (corpus, index_dir, set-up metrics). A traced run
    traces only the last bring-up; the one before it is the untraced
    reference for ``trace.build_overhead_ratio``."""
    import pyarrow.parquet as pq

    from apache___solr_ray.analyze import Analyzer

    bench.start_ray()
    bench.mark("ray started")
    corpus = bench.corpus(n_pages, "corpus")
    text = pq.read_table(corpus, columns=["text"]).column("text")
    want_postings = len(Analyzer().term_freqs(text)[1])
    bench.mark("corpus")
    _warmup_build(bench, corpus)
    bench.mark("warm-up build")
    index_dir = os.path.join(bench.work, "index")
    builds, totals = [], []
    for rep in range(SETUP_REPS):
        bench.traced(rep == SETUP_REPS - 1)
        man, t_build, total = bring_up(bench, corpus, index_dir, probe)
        builds.append(t_build)
        totals.append(total)
        m = man["metrics"]
        bench.check(m["n_docs"] == n_pages, "build: n_docs != corpus rows")
        bench.check(m["n_postings"] == want_postings, "build: n_postings != analyzed corpus")
        bench.check(
            sum(s["n_postings"] for s in man["segments"]) == want_postings,
            "build: segment postings != analyzed corpus",
        )
    bench.traced(False)
    bench.samples["setup_s"] = totals
    bench.samples["build_s"] = builds
    bench.extra["raw_setup_s"] = median(bench.samples["raw_setup_s"])
    bench.extra["raw_build_docs_per_s"] = n_pages / median(bench.samples["raw_build_s"])
    if bench.trace:
        bench.extra["trace.build_overhead_ratio"] = builds[-1] / builds[-2] - 1.0
    bench.mark("set-up builds")
    return corpus, index_dir, {
        "setup_s": median(totals),
        "build_docs_per_s": n_pages / median(builds),
        "index_bytes_per_doc": index_bytes_per_doc(man),
    }


def _write_metrics(bench: Bench) -> dict:
    bench.extra["raw_upsert_visible_s"] = median(bench.samples["raw_upsert_visible_s"])
    return {
        "upsert_visible_s": median(bench.samples["upsert_visible_s"]),
        "write_amp": median(bench.samples["write_amp"]),
    }


def _overhead(bench: Bench, serve_passes, passes: int) -> tuple[int, float]:
    """``serve_passes(passes, key)`` traced, then one pass untraced.
    ``trace.overhead_ratio`` compares the p50 of the untraced pass with
    that of the last traced one, which starts from the same cache state."""
    import numpy as np

    bench.traced(True)
    calls, busy = serve_passes(passes, "query_s")
    bench.traced(False)
    serve_passes(1, "untraced_query_s")
    n = len(hot_queries())
    p_on = np.median(bench.samples["query_s"][-n:])
    p_off = np.median(bench.samples["untraced_query_s"][-n:])
    bench.extra["trace.overhead_ratio"] = float(p_on / p_off - 1.0)
    return calls, busy


# -- serve_hot ------------------------------------------------------------------


def serve_hot(bench: Bench) -> dict:
    from apache___solr_ray.query import IndexReader

    queries = hot_queries()
    corpus, index_dir, out = _setup(bench, HOT_PAGES, queries[0])
    # the served index has taken upserts and deletes, so topk masks tombstones
    writer = Writer(bench, corpus, index_dir)
    bench.traced(True)
    for _ in range(WRITE_BATCHES):
        writer.upsert()
        writer.delete()
    bench.traced(False)
    writer.verify("serve_hot")
    bench.mark("upserts")
    # IndexReader needs no Ray daemons; stop them before timing
    bench.stop_ray()
    bench.mark("ray stopped")

    expected = expected_topk(index_dir, queries)
    bench.mark("oracle")
    reader = IndexReader(index_dir)
    serve(bench, reader, queries, expected, "serve_hot warm-up", passes=2, key="warmup_query_s")
    bench.mark("warm-up passes")
    if bench.trace:
        calls, busy = _overhead(
            bench,
            lambda passes, key: serve(bench, reader, queries, expected, "serve_hot", passes=passes, key=key),
            TRACED_HOT_PASSES,
        )
    else:
        calls, busy = serve(bench, reader, queries, expected, "serve_hot", seconds=bench.seconds)
    bench.mark("timed")
    reader.close()
    serve_rss = reader_rss_mb(bench, index_dir)
    bench.mark("rss probe")
    return {
        **out,
        **query_metrics(bench, "query_s", calls, busy),
        "serve_rss_mb": serve_rss,
        **_write_metrics(bench),
    }


# -- update_mix -----------------------------------------------------------------


def update_mix(bench: Bench) -> dict:
    from apache___solr_ray.merge import merge_segments
    from apache___solr_ray.query import IndexReader

    queries = hot_queries()
    corpus, index_dir, out = _setup(bench, UPDATE_PAGES, queries[0])
    writer = Writer(bench, corpus, index_dir)

    burst = max(1, round(bench.seconds / ROUNDS / PASS_S))
    calls = 0
    busy = 0.0
    for rnd in range(ROUNDS):
        bench.traced(True)
        writer.upsert()
        writer.delete()
        bench.traced(False)
        expected = expected_topk(index_dir, queries)
        what = f"update_mix round {rnd}"
        def cold_passes(passes: int, key: str) -> tuple[int, float]:
            """Each pass on a fresh IndexReader, whose term cache starts empty."""
            c = b = 0
            for _ in range(passes):
                reader = IndexReader(index_dir)
                c1, b1 = serve(bench, reader, queries, expected, what, passes=1, key=key)
                reader.close()
                c, b = c + c1, b + b1
            return c, b

        with bench.ray_aside():
            if bench.trace:
                c, b = _overhead(bench, cold_passes, TRACED_BURST_PASSES)
            else:
                c, b = cold_passes(burst, "query_s")
        calls += c
        busy += b
        writer.verify(what)
        bench.mark(f"round {rnd}")
    serve_rss = reader_rss_mb(bench, index_dir)
    bench.mark("rss probe")

    bench.traced(True)
    with Pace() as pace:
        t0 = bench.now()
        merge_segments(index_dir, purge_deletes=True)
        merge_s = bench.now() - t0
    bench.extra["purge_merge_s"] = merge_s * pace.factor
    bench.extra["raw_purge_merge_s"] = merge_s
    bench.traced(False)
    bench.mark("purge merge")
    writer.verify("update_mix after purge merge")
    expected = expected_topk(index_dir, queries)
    reader = IndexReader(index_dir)
    serve(bench, reader, queries, expected, "update_mix after purge merge", passes=1,
          key="merged_query_s")
    reader.close()
    bench.mark("checks after merge")
    bench.stop_ray()
    bench.mark("ray stopped")
    return {
        **out,
        **query_metrics(bench, "query_s", calls, busy),
        "serve_rss_mb": serve_rss,
        **_write_metrics(bench),
    }


WORKLOADS = {"serve_hot": serve_hot, "update_mix": update_mix}
