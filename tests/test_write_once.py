"""Phase B's encode batches and write-once segments: a batch of segments
writes the bytes each segment alone would, a rebuild re-encodes only what
is missing, and a reader keeps answering from its own commit point while
upserts and merges replace the segments it opened."""

import os

import numpy as np
import pyarrow as pa
import pytest

from apache___solr_ray import build
from apache___solr_ray.build import IndexConfig, build_index
from apache___solr_ray.corpus import pages_table, write_pages
from apache___solr_ray.deletes import delete_by_url
from apache___solr_ray.merge import merge_segments
from apache___solr_ray.query import IndexReader
from apache___solr_ray.update import upsert_pages


def _segment_bytes(idx: str) -> dict:
    root = os.path.join(idx, "segments")
    out = {}
    for seg in sorted(os.listdir(root)):
        for f in ("postings.bin", "terms.bin", "meta.json"):
            with open(os.path.join(root, seg, f), "rb") as fh:
                out[seg, f] = fh.read()
    return out


def _hot_queries(idx: str, n: int, seed: int) -> list[str]:
    """``n`` two-term queries over the index's most frequent terms, so
    that an upsert of a few pages changes their answers."""
    r = IndexReader(idx)
    td = r.term_dict().sort_by([("df", "descending")])
    r.close()
    head = np.array(td.column("term").to_pylist()[:200], dtype=object)
    rng = np.random.default_rng(seed)
    return [" ".join(rng.choice(head, size=2, replace=False)) for _ in range(n)]


def _answers(r: IndexReader, qs: list[str]) -> list[tuple[list, bytes]]:
    out = []
    for q in qs:
        d, s = r.topk(q, 10)
        out.append((d.tolist(), s.tobytes()))
    return out


def test_encode_batches_stay_under_the_cap():
    """Consecutive segments share a batch while their postings sum to at
    most the cap; only a segment over the cap on its own exceeds it."""
    sizes = [5, 3, 2, 9, 1, 1, 12, 4, 6, 10, 10]
    rows = [{"i": i, "expected": n} for i, n in enumerate(sizes)]
    batches = build._encode_batches(rows, 10)
    assert [r["i"] for b in batches for r in b] == list(range(len(sizes)))
    for b in batches:
        total = sum(r["expected"] for r in b)
        assert total <= 10 or len(b) == 1
    assert [[r["expected"] for r in b] for b in batches] == [
        [5, 3, 2], [9, 1], [1], [12], [4, 6], [10], [10]
    ]
    assert build._encode_batches([], 10) == []


@pytest.fixture(scope="module")
def mixed(ray_session, tmp_path_factory):
    """Six doc parts (five of 200 docs, one of 24) and 48 tkeys under a
    cap that splits some tkeys into salts: segments of 0.2-1x the cap, so
    a block's batches hold one segment or several."""
    d = str(tmp_path_factory.mktemp("pages_batches"))
    write_pages(d, 1024, seed=13, rows_per_file=200)
    cfg = IndexConfig(
        term_partitions=48,
        target_docs_per_part=128,
        max_postings_per_segment=3000,
        text_from_html=False,
    )
    return d, cfg


def test_batched_blocks_write_the_bytes_of_one_segment_blocks(
    mixed, tmp_path_factory, monkeypatch
):
    """At 1 CPU a block holds many segments and encodes them in several
    batches; at 64 CPUs every block, so every batch, is one segment. Both
    write the same directories, byte for byte."""
    d, cfg = mixed
    runs = {}
    for cpus in (1, 64):
        monkeypatch.setattr(build, "_cluster_cpus", lambda c=cpus: c)
        idx = str(tmp_path_factory.mktemp(f"index_batches{cpus}"))
        man = build_index(d, idx, cfg)
        runs[cpus] = man["metrics"], _segment_bytes(idx)
    m1, m64 = runs[1][0], runs[64][0]
    n_seg = m1["segments_built"]
    names = {seg for seg, f in runs[1][1] if f == "meta.json"}
    assert len(names) == n_seg > cfg.term_partitions  # salted
    # several batches per block, and batches of several segments
    assert m1["phase_b_tasks"] < m1["phase_b_batches"] < n_seg
    assert m64["phase_b_batches"] == n_seg
    assert runs[1][1] == runs[64][1]


def test_a_removed_segment_alone_is_rebuilt(mixed, tmp_path_factory, monkeypatch):
    """With the commit and one segment directory gone, a rebuild resumes
    every other segment of that segment's block and writes the missing one
    again, byte-identical."""
    import shutil

    d, cfg = mixed
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    idx = str(tmp_path_factory.mktemp("index_rebuild_one"))
    man = build_index(d, idx, cfg)
    want = _segment_bytes(idx)
    gone = man["segments"][len(man["segments"]) // 2]["name"]
    os.remove(os.path.join(idx, "index_manifest.json"))
    shutil.rmtree(os.path.join(idx, "segments", gone))
    m = build_index(d, idx, cfg)["metrics"]
    assert (m["segments_built"], m["phase_b_batches"]) == (1, 1)
    assert m["segments_resumed"] == len(man["segments"]) - 1
    assert m["phase_a_tasks"] == 0 and m["parts_resumed"] == len(man["input_fingerprints"])
    assert _segment_bytes(idx) == want


def test_readers_keep_their_commit_across_upsert_and_purge_merge(
    ray_session, tmp_path_factory
):
    """A reader that has served queries and one that has served none both
    answer from the commit they opened after an upsert rewrites every
    segment, and after a purge merge removes the segments they opened."""
    d = str(tmp_path_factory.mktemp("pages_snapshot"))
    write_pages(d, 512, seed=17, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_snapshot"))
    cfg = IndexConfig(term_partitions=8, target_docs_per_part=128, text_from_html=False)
    build_index(d, idx, cfg)
    qs = _hot_queries(idx, 64, seed=5)

    warm = IndexReader(idx)
    want = _answers(warm, qs)  # term dictionaries and postings opened
    cold = IndexReader(idx)  # nothing looked up yet

    # 32 pages rewritten with the hot terms: every tkey's segments change
    old = pages_table(32, seed=17, start=64)
    words = " ".join(qs)
    pages = pa.table(
        {
            "url": old.column("url"),
            "text": pa.array([f"{words} {t}" for t in old.column("text").to_pylist()]),
            "lang": old.column("lang"),
        }
    )
    man = upsert_pages(d, idx, pages, cfg)
    fresh = IndexReader(idx)
    new = _answers(fresh, qs)
    assert sum(a != b for a, b in zip(new, want)) > len(qs) // 2  # the upsert shows
    assert _answers(warm, qs) == want
    assert _answers(cold, qs) == want
    for r in (warm, cold):
        r.close()

    # a purge merge replaces (and removes) every segment ``fresh`` opened
    urls = fresh.urls_for(np.array([1, (1 << 32) + 2, (3 << 32) + 5], dtype=np.int64))
    assert delete_by_url(idx, urls) == 3
    merged = merge_segments(idx, purge_deletes=True)
    assert not {s["name"] for s in man["segments"]} & {s["name"] for s in merged["segments"]}
    assert _answers(fresh, qs) == new
    fresh.close()
