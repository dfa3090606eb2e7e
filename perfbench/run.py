#!/usr/bin/env python3
"""rayindex benchmark: one workload per invocation.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 5 --trace 0

Run from the root of a checkout of the repository; the engine package is
imported from there, and every file the run writes stays under
``.perfbench_run/`` in that directory. Workloads: serve_hot and
update_mix (see README.md).

Output: one ``name value unit`` line per metric, then, as the last line of
standard output, one compact JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run wraps the
engine's layer functions in spans and reports the per-layer ones. The full
record (every latency sample, every check failure, and the spans) goes to
``.perfbench_run/records/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _units() -> tuple[dict, dict]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "apache___solr_ray", "build.py")):
        print(f"error: no rayindex engine (apache___solr_ray/) under {root}", file=sys.stderr)
        return 2
    sys.path[:0] = [root]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _units()

    from perfbench.harness import Bench

    # a terminated run still stops the Ray processes it started (finally
    # below; ray.init installs a SIGTERM handler of the same kind)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    bench.mark("start")
    try:
        e2e = WORKLOADS[args.workload](bench)
        spans = None
        if bench.trace:
            from perfbench import tracing

            spans = tracing.load_spans(bench.tracer)
            layers = tracing.layer_metrics(spans)
            layers["build.parts_resumed_ratio"] = _mean(bench.samples["parts_resumed_ratio"])
            layers["build.segments_rewritten_ratio"] = _mean(bench.samples["segments_rewritten_ratio"])
            layers.update({k: v for k, v in bench.extra.items() if k in layer_units})
    finally:
        # a second SIGTERM must not cut the shutdown short
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        bench.close()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    bench.extra["steal_s"] = bench.stolen()

    if bench.trace:
        metrics = {k: layers[k] for k in layer_units}
        units = layer_units
    else:
        metrics = {k: e2e[k] for k in e2e_units}
        units = e2e_units
    for k, v in metrics.items():
        print(f"{args.workload} {k} {v:.6g} {units[k]}")
    for k, v in sorted(bench.extra.items()):
        if k not in metrics:
            print(f"{args.workload} {k} {v:.6g}")
    failed = len(bench.failures)
    print(f"{args.workload} failed_frac {failed / max(1, bench.attempted):.6g} ({failed}/{bench.attempted})")
    if bench.trace:
        covered = sum(layers[m] for m in set(tracing.TOPK_SELF.values()))
        topk = layers["_topk_busy_s"]
        print(
            f"{args.workload} trace: topk {topk:.6g} s; the query-path figures "
            f"({', '.join(sorted(set(tracing.TOPK_SELF.values())))}) sum to {covered:.6g} s "
            f"({covered / topk if topk else 0:.4f} of it); spans under topk that none covers: "
            f"{layers['_topk_unaccounted_s']:.6g} s; {layers['_spans']} spans"
        )
    for msg in bench.failures[:20]:
        print(f"{args.workload} FAILED {msg}")

    rec_dir = os.path.join(root, ".perfbench_run", "records")
    os.makedirs(rec_dir, exist_ok=True)
    record = {
        "args": vars(args),
        "metrics": metrics,
        "end_to_end": e2e,
        "extra": bench.extra,
        "attempted": bench.attempted,
        "failures": bench.failures,
        "phases": bench.phases,
        "samples": bench.samples,
        "spans": spans,
    }
    path = os.path.join(rec_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)

    summary = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(summary, separators=(",", ":")), flush=True)
    return 0


def _mean(xs) -> float:
    return sum(xs) / len(xs)


if __name__ == "__main__":
    sys.exit(main())
