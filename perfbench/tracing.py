"""Span tracer for the benchmark's traced runs (``--trace 1``).

The engine has no spans of its own, so this module wraps the public
functions of each engine layer from the outside: every wrapped call
records a span ``[name, start, end, parent, attrs]`` in process memory.
The driver process and every Ray worker process install the same
wrappers; workers get them through ``harness.worker_setup``, which the
benchmark passes to ``ray.init`` as ``runtime_env["worker_process_setup_hook"]``.

Workers append their spans to ``<trace_dir>/spans-<pid>.jsonl`` each time
a root span (one without a parent) closes, i.e. once per Ray task body;
the driver keeps its spans until the run ends. Recording is switched on
and off by the driver (``Tracer.enable``); workers follow through a flag
file checked at the start of each root call, so untraced reference work
in a traced run leaves no spans anywhere.

Self time of a span is its duration minus the time its child spans
cover; calls are single-threaded per process, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: the single tracer of this process; the wrappers are module-global
#: monkeypatches, so they need one process-wide recorder to write to
_TRACER: Tracer | None = None


class Tracer:
    def __init__(self, trace_dir: str, driver: bool):
        self.dir = trace_dir
        self.flag = os.path.join(trace_dir, "on")
        self.driver = driver
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.on = False

    def enable(self, on: bool) -> None:
        """Driver only: switch recording here and, via the flag file, in
        every worker's next root call."""
        self.on = on
        if on:
            open(self.flag, "w").close()
        elif os.path.exists(self.flag):
            os.remove(self.flag)

    def flush(self) -> None:
        """Worker: append the finished root span tree to this process's
        span file and forget it."""
        path = os.path.join(self.dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps({"pid": os.getpid(), "spans": self.spans}) + "\n")
        self.spans = []


def _wrap(name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = _TRACER
        if not tr.stack and not tr.driver:
            tr.on = os.path.exists(tr.flag)
        if not tr.on:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1, None]
        tr.stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            tr.stack.pop()
        if attrs is not None:
            rec[4] = attrs(args, out)
        if not tr.stack and not tr.driver:
            tr.flush()
        return out

    return wrapper


def _targets():
    """(owner, attribute, span name, attrs fn) for every wrapped call."""
    from apache___solr_ray import (
        analyze,
        build,
        codec,
        deletes,
        extract,
        lucene,
        manifest,
        merge,
        query,
        segment,
        update,
    )

    def scorers_attrs(args, scorers):
        return {
            "terms": len(scorers),
            "blocks_total": sum(v.n_blocks for tp, _ in scorers for v in tp.views),
        }

    def build_attrs(args, man):
        m = man.get("metrics", {})
        return {
            "phase_a_s": m.get("phase_a_sec", 0.0),
            "phase_b_s": m.get("phase_b_sec", 0.0),
            "parts_resumed": m.get("parts_resumed", 0),
            "n_parts": man.get("stats", {}).get("n_doc_parts", 0),
        }

    def merge_attrs(args, meta):
        sources = args[2]
        dropped = sum(int(s["n_postings"]) for s in sources) - int(meta["n_postings"])
        return {"bytes": int(meta["bytes"]), "dropped": dropped}

    return [
        (extract, "extract_batch", "extract.batch", None),
        (analyze.Analyzer, "term_freqs", "analyze.term_freqs",
         lambda a, out: {"tokens": int(out[3].sum())}),
        (analyze.Analyzer, "analyze", "analyze.analyze", None),
        (build, "build_index", "build.build_index", build_attrs),
        (build, "_process_partition", "build.phase_a_part", None),
        (segment, "build_segment_from_group", "build.phase_b_segment", None),
        # encode_postings (one term, merge) calls encode_postings_group
        # (many terms, phase B): counts come from the inner call only
        (codec, "encode_postings_group", "codec.encode_group",
         lambda a, out: {"postings": len(a[0]), "bytes": sum(len(p) for p in out)}),
        (codec, "encode_postings", "codec.encode_postings", None),
        (codec.PostingsView, "decode_blocks", "codec.decode_blocks",
         lambda a, out: {"blocks": len(a[1])}),
        (codec.PostingsView, "decode_all", "codec.decode_all", None),
        (segment, "write_segment", "segment.write", None),
        (segment.SegmentReader, "postings", "segment.postings", None),
        (segment.SegmentReader, "term_stats", "segment.term_stats", None),
        (query.IndexReader, "term_postings", "query.term_postings", None),
        (query.IndexReader, "_scorers", "query.scorers", scorers_attrs),
        (query.IndexReader, "topk", "query.topk", None),
        (lucene.BM25Scorer, "score", "query.score", lambda a, out: {"postings": len(a[1])}),
        (deletes, "delete_by_url", "deletes.delete_by_url", None),
        (update, "upsert_pages", "update.upsert_pages", None),
        (manifest, "write_json_atomic", "manifest.write_json_atomic", None),
        (merge, "merge_segments", "merge.merge_segments", None),
        (merge, "_merge_group", "merge.group", merge_attrs),
    ]


def install(trace_dir: str, driver: bool) -> Tracer:
    """Wrap every target in this process. A function imported by name into
    other engine modules (``from ..segment import write_segment``) is
    replaced there too, with the same wrapper object, so cloudpickle keeps
    pickling it by reference and each process resolves its own copy."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    _TRACER = Tracer(trace_dir, driver)
    targets = _targets()  # imports the engine modules first
    engine_modules = [
        m for k, m in list(sys.modules.items())
        if k.startswith("apache___solr_ray") and m is not None
    ]
    for owner, attr, name, attrs in targets:
        orig = getattr(owner, attr)
        wrapped = _wrap(name, orig, attrs)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for mod in engine_modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
    return _TRACER


def load_spans(tracer: Tracer) -> list[list[list]]:
    """Span lists of every process: the driver's, then each worker root
    tree written to the trace directory."""
    trees = [tracer.spans]
    for fn in sorted(os.listdir(tracer.dir)):
        if fn.startswith("spans-"):
            with open(os.path.join(tracer.dir, fn)) as f:
                trees.extend(json.loads(line)["spans"] for line in f)
    return trees


#: per-layer metric of each span under ``IndexReader.topk``, by self time;
#: together they account for all of topk
TOPK_SELF = {
    "query.topk": "query.topk_self_s",
    "query.bounds": "query.topk_self_s",
    "query.score": "query.score_busy_s",
    "query.scorers": "query.scorers_self_s",
    "query.term_postings": "query.term_lookup_self_s",
    "analyze.analyze": "query.analyze_busy_s",
    "segment.postings": "segment.lookup_busy_s",
    "segment.term_stats": "segment.lookup_busy_s",
    "codec.decode_blocks": "codec.decode_busy_s",
    "codec.decode_all": "codec.decode_busy_s",
}


def layer_metrics(trees: list[list[list]]) -> dict:
    """Per-layer busy times, counts and ratios from the recorded spans.

    Query-path metrics (``query.*``, ``codec.decode_*``, ``codec.blocks_*``,
    ``segment.lookup*``) count only spans inside ``IndexReader.topk``, each
    by its self time (TOPK_SELF); write-path metrics count every span of
    their layer. Under ``topk``, the first ``BM25Scorer.score`` call per
    query term scores the block bounds (max tf, min norm of every block),
    not postings: it is renamed ``query.bounds`` and counts as topk's own
    time. ``_topk_unaccounted_s`` is the self time under topk of spans
    that no reported figure covers."""
    busy: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    topk_busy = 0.0
    tp_calls = tp_hits = 0
    for spans in trees:
        n = len(spans)
        under = [False] * n
        child = [0.0] * n
        seg_child = [False] * n
        bounds_left = [0] * n
        names = [sp[0] for sp in spans]
        # spans are listed in start order: a topk's scorers span precedes its score calls
        for i, (name, t0, t1, parent, at) in enumerate(spans):
            under[i] = name == "query.topk" or (parent >= 0 and under[parent])
            if parent >= 0:
                child[parent] += t1 - t0
                if name.startswith("segment.") and names[parent] == "query.term_postings":
                    seg_child[parent] = True
                if names[parent] == "query.topk":
                    if name == "query.scorers":
                        bounds_left[parent] = at["terms"]
                    elif name == "query.score" and bounds_left[parent]:
                        bounds_left[parent] -= 1
                        names[i] = "query.bounds"
        for i, (_, t0, t1, parent, at) in enumerate(spans):
            name = names[i]
            key = ("topk:" if under[i] else "") + name
            dur = t1 - t0
            busy[key] = busy.get(key, 0.0) + dur
            self_t[key] = self_t.get(key, 0.0) + dur - child[i]
            calls[key] = calls.get(key, 0) + 1
            for a, v in (at or {}).items():
                attrs[f"{key}.{a}"] = attrs.get(f"{key}.{a}", 0) + v
            if under[i]:
                if name == "query.topk" and (parent < 0 or not under[parent]):
                    topk_busy += dur
                if name == "query.term_postings":
                    tp_calls += 1
                    tp_hits += not seg_child[i]

    def b(k):
        return busy.get(k, 0.0)

    def s(k):
        return self_t.get(k, 0.0)

    def c(k):
        return calls.get(k, 0)

    def a(k):
        return attrs.get(k, 0)

    enc_post = a("codec.encode_group.postings")
    blocks = a("topk:codec.decode_blocks.blocks")
    out = {
        "extract.busy_s": b("extract.batch"),
        "analyze.busy_s": b("analyze.term_freqs"),
        "analyze.tokens": a("analyze.term_freqs.tokens"),
        "build.phase_a_s": a("build.build_index.phase_a_s"),
        "build.phase_b_s": a("build.build_index.phase_b_s"),
        "codec.encode_busy_s": s("codec.encode_group") + s("codec.encode_postings"),
        "codec.bytes_per_posting": a("codec.encode_group.bytes") / enc_post if enc_post else 0.0,
        "codec.blocks_decoded": blocks,
        "codec.blocks_decoded_ratio": (
            blocks / a("topk:query.scorers.blocks_total") if a("topk:query.scorers.blocks_total") else 0.0
        ),
        "segment.write_busy_s": b("segment.write"),
        "segment.lookups": c("topk:segment.postings") + c("topk:segment.term_stats"),
        "query.term_cache_hit_ratio": tp_hits / tp_calls if tp_calls else 0.0,
        "query.postings_scored": a("topk:query.score.postings"),
        "deletes.busy_s": b("deletes.delete_by_url"),
        "update.upsert_busy_s": b("update.upsert_pages"),
        "manifest.commits": c("manifest.write_json_atomic"),
        "manifest.busy_s": b("manifest.write_json_atomic"),
        "merge.busy_s": b("merge.group"),
        "merge.bytes_rewritten": a("merge.group.bytes"),
        "merge.postings_dropped": a("merge.group.dropped"),
        "_topk_busy_s": topk_busy,
        "_spans": sum(len(t) for t in trees),
    }
    for metric in set(TOPK_SELF.values()):
        out[metric] = 0.0
    unaccounted = 0.0
    for key, v in self_t.items():
        if key.startswith("topk:"):
            metric = TOPK_SELF.get(key[5:])
            if metric is None:
                unaccounted += v
            else:
                out[metric] += v
    out["_topk_unaccounted_s"] = unaccounted
    return out
