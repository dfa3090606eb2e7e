#!/usr/bin/env python3
"""Run one workload as two sets of runs and report whether they agree.

    python3 perfbench/sets.py --workload serve_hot [--runs 10] [--first-seed 1]

Each of the two sets runs ``perfbench/run.py`` once per seed (``first-seed``
onward, the same seeds in both sets) for BENCHMARK.json's ``run_seconds``,
each run in its own process, from the current directory (the root of a
checkout). Per end-to-end metric it prints each set's median, first and
third quartiles and spread ((q3 - q1) / median), and whether the sets
agree within the metric's bound from BENCHMARK.json:

- every spread is within the bound, and
- the second set's median is not worse than the first set's by more than
  the bound, in the metric's ``better`` direction.

It also flags spreads above a third of the bound, the margin a steady
benchmark should keep. The last line of output is the verdict as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {p.returncode}\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]

    sets: list[dict[str, list[float]]] = []
    failed = 0
    for s in range(2):
        vals: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = _run(args.workload, seed, spec["run_seconds"])
            failed += out["failed"]
            for name in vals:
                vals[name].append(out["metrics"][name]["value"])
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{n}={out['metrics'][n]['value']:.4g}" for n in vals), flush=True)
        sets.append(vals)

    verdict = {"workload": args.workload, "failed": failed, "agree": failed == 0, "metrics": {}}
    print(f"\n{'metric':28} " + " ".join(f"{'set ' + str(i + 1) + ' median [q1, q3] spread':>44}" for i in range(2)) + "  bound  ok")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        st = [_stats(v[name]) for v in sets]
        ok = all(x["spread"] <= bound for x in st)
        notes = ["spread>bound/3"] if any(x["spread"] > bound / 3 for x in st) else []
        first, second = st[0]["median"], st[1]["median"]
        worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
        ok &= worse <= bound
        verdict["agree"] &= ok
        verdict["metrics"][name] = {"sets": st, "bound": bound, "ok": ok}
        cells = " ".join(
            f"{x['median']:>12.5g} [{x['q1']:.5g}, {x['q3']:.5g}] {x['spread']:6.3f}".rjust(44) for x in st
        )
        print(f"{name:28} {cells}  {bound:>5}  {'yes' if ok else 'NO'} {' '.join(notes)}")
    print(json.dumps(verdict, separators=(",", ":")))
    return 0 if verdict["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
