"""The last stdout line of ``bench.py`` is a summary a log tail can parse:
valid JSON under 1.5 kB however many catalog entries ran."""

import json
import os

import bench


def test_summary_of_full_catalog_is_small_json():
    timings = {f"catalog_entry_{i:03d}_{'x' * 24}": round(0.001 * i, 3) for i in range(294)}
    timings["catalog_entry_007_" + "x" * 24] = -1.0  # a failed entry
    out = {
        "metric": "index-build+BM25-query headline (sec); catalog per-query sec",
        "value": 123.456,
        "unit": "sec",
        "queries": timings,
        "sf": 0.1,
        "num_cpus": 32,
        "build": {"n_pages": 40000, "build_sec": 30.5, "docs_per_sec": 1311.5},
        "build_nopos": {"n_pages": 40000, "build_sec": 25.0},
        "query": {"n_queries": 1024, "query_sec": 2.1, "qps": 487.6},
    }
    path = os.path.join(bench.BENCH_DIR, bench.FULL_JSON)
    line = json.dumps(bench.summarize(out, path))
    assert len(line.encode()) < 1500
    got = json.loads(line)
    for key in ("metric", "value", "unit", "sf", "num_cpus", "build", "query"):
        assert got[key] == out[key]
    assert "queries" not in got
    cat = got["catalog"]
    assert cat["entries"] == 294 and cat["failed"] == 1
    assert cat["total_sec"] == round(sum(v for v in timings.values() if v > 0), 3)
    assert list(cat["slowest"].values()) == sorted(timings.values(), reverse=True)[:5]
    assert cat["full_json"] == path
