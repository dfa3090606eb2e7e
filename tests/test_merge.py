"""Tiered merge: layout changes, content (query results) bit-identical."""

import os

import numpy as np
import pytest

from apache___solr_ray.build import IndexConfig, build_index
from apache___solr_ray.corpus import write_pages
from apache___solr_ray.merge import merge_segments, plan_merges
from apache___solr_ray.query import IndexReader
from apache___solr_ray.segment import open_segments, pack_files, segments_dir

QUERIES = ["the fast data", "example.com", "DON'T Stop", "state of the art merge"]


def _record(i: int, nbytes: int, n_postings: int = 1) -> dict:
    """A fabricated phase-B segment record of tkey 0 covering part ``i``
    (no pack: planning never opens it)."""
    return {
        "tkey": 0, "salt": i, "name": f"seg-00000-{i:05d}", "bytes": nbytes, "n_terms": 1,
        "n_postings": n_postings, "lineage": f"l{i}", "part_lo": i, "part_hi": i + 1,
    }


def test_plan_merges_tiers():
    segs = [_record(i, 100 * (i + 1), n_postings=10) for i in range(12)]
    steps = plan_merges(segs, target_per_tkey=1, merge_factor=10)
    # 12 -> merge 10 smallest -> 3 -> merge 3 -> 1
    assert len(steps) == 2
    assert len(steps[0][1]) == 10
    assert len(steps[1][1]) == 3
    assert steps[0][2] != steps[1][2]
    steps2 = plan_merges(segs, target_per_tkey=4, merge_factor=10)
    assert len(steps2) == 1 and len(steps2[0][1]) == 9  # 12 -> 4


def test_plan_merges_noop():
    assert plan_merges([_record(0, 1)], 1, 10) == []


def _fabricated(sizes: list[int]) -> list[dict]:
    return [_record(i, b) for i, b in enumerate(sizes)]


def test_plan_merges_keeps_segments_inside_u32_offsets():
    """No planned fold sums to 2^32 bytes or more (a segment's payload
    offsets are u32): a smaller window folds instead, and planning stops
    when no two neighbours fit (fabricated sizes: nothing is allocated)."""
    gb = 2**30
    assert plan_merges(_fabricated([3 * gb, 3 * gb]), 1, 10) == []
    steps = plan_merges(_fabricated([3 * gb, gb, gb, 3 * gb]), 1, 10)
    assert [[s["salt"] for s in srcs] for _, srcs, _ in steps] == [[1, 2]]
    steps = plan_merges(_fabricated([gb] * 8), 1, 10)
    assert [len(srcs) for _, srcs, _ in steps] == [3, 3, 2]
    assert all(sum(s["bytes"] for s in srcs) < 2**32 for _, srcs, _ in steps)


def _pack_sizes(idx: str, man: dict) -> dict:
    sizes = {".tdict": 0, ".post": 0}
    for f in pack_files(man):
        sizes[os.path.splitext(f)[1]] += os.path.getsize(os.path.join(idx, f))
    return {"tdict_bytes": sizes[".tdict"], "post_bytes": sizes[".post"]}


def test_purge_rewrites_every_segment_when_none_can_fold(ray_session, tmp_path_factory, monkeypatch):
    """With a segment size limit no two segments fit under, a purge folds
    nothing yet still rewrites every segment without the deleted docs; the
    build and the purge both record their packs' dictionary and postings
    bytes as on disk."""
    from apache___solr_ray import merge
    from apache___solr_ray.deletes import delete_by_url

    d = str(tmp_path_factory.mktemp("pages_nofold"))
    write_pages(d, 300, seed=5, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_nofold"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128, max_postings_per_segment=3000)
    built = build_index(d, idx, cfg)
    assert {k: built["metrics"][k] for k in ("tdict_bytes", "post_bytes")} == _pack_sizes(idx, built)
    assert built["metrics"]["post_bytes"] == sum(s["bytes"] for s in built["segments"])
    assert len(built["segments"]) > cfg.term_partitions  # some tkey holds several segments

    r = IndexReader(idx)
    victims = r.topk("the fast data", 3)[0]
    delete_by_url(idx, r.urls_for(victims))
    r.close()
    monkeypatch.setattr(merge, "MAX_SEGMENT_BYTES", 1)
    man = merge_segments(idx, purge_deletes=True)
    assert len(man["segments"]) == len(built["segments"])
    assert not {s["name"] for s in man["segments"]} & {s["name"] for s in built["segments"]}
    assert {k: man["metrics"][k] for k in ("tdict_bytes", "post_bytes")} == _pack_sizes(idx, man)
    r = IndexReader(idx)
    for tp in filter(None, (r.term_postings(t) for t in ("the", "fast", "data"))):
        assert not np.isin(tp.decode_all()[0], victims).any()
    for q in QUERIES:
        a, b = r.topk(q, 10), r.topk_exhaustive(q, 10)
        assert a[0].tolist() == b[0].tolist() and a[1].tobytes() == b[1].tobytes(), q
    r.close()


@pytest.fixture(scope="module")
def merged_index(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages"))
    write_pages(d, 500, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index"))
    # small max_postings_per_segment -> many doc-range sub-segments to merge
    cfg = IndexConfig(
        term_partitions=3, target_docs_per_part=128, max_postings_per_segment=4000
    )
    build_index(d, idx, cfg)
    r = IndexReader(idx)
    before = {q: r.topk(q, 10) for q in QUERIES}
    before_terms = {}
    for q in ["the", "example.com"]:
        tp = r.term_postings(q)
        if tp:
            before_terms[q] = (tp.df, tp.ttf, tp.decode_all())
    r.close()
    n_before = len(r.manifest["segments"])
    man = merge_segments(idx, target_per_tkey=1, merge_factor=4)
    return idx, before, before_terms, n_before, man


def test_merge_reduces_segments(merged_index):
    idx, _, _, n_before, man = merged_index
    assert len(man["segments"]) < n_before
    per_tkey = {}
    for s in man["segments"]:
        per_tkey[s["tkey"]] = per_tkey.get(s["tkey"], 0) + 1
    assert all(v == 1 for v in per_tkey.values())
    # consumed segments' packs are gone; the committed ones exist
    on_disk = set(os.listdir(segments_dir(idx)))
    assert {os.path.basename(f) for f in pack_files(man)} == on_disk
    readers = open_segments(idx, man["segments"])
    assert set(readers) == {s["name"] for s in man["segments"]}
    for r in readers.values():
        r.close()


def test_merge_preserves_results(merged_index):
    idx, before, before_terms, _, _ = merged_index
    r = IndexReader(idx)
    for q, (d0, s0) in before.items():
        d1, s1 = r.topk(q, 10)
        assert d0.tolist() == d1.tolist(), q
        assert s0.tolist() == s1.tolist(), q
    for term, (df0, ttf0, (docs0, tfs0, norms0)) in before_terms.items():
        tp = r.term_postings(term)
        assert (tp.df, tp.ttf) == (df0, ttf0)
        docs1, tfs1, norms1 = tp.decode_all()
        assert np.array_equal(docs0, docs1)
        assert np.array_equal(tfs0, tfs1)
        assert np.array_equal(norms0, norms1)


def test_deletes_tombstone_and_purge(ray_session, tmp_path_factory):
    """DeleteStream semantics: tombstoned docs stop matching immediately
    with UNCHANGED stats/scores for the others (Lucene liveDocs); a merge
    with purge_deletes reclaims the postings and updates live stats, and
    the committed delete set stays."""
    import numpy as np

    from apache___solr_ray.deletes import delete_by_url
    from apache___solr_ray.merge import merge_segments

    d = str(tmp_path_factory.mktemp("pages_del"))
    write_pages(d, 400, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_del"))
    cfg = IndexConfig(term_partitions=3, target_docs_per_part=128, max_postings_per_segment=5000)
    build_index(d, idx, cfg)

    r0 = IndexReader(idx)
    q_ = "the fast data"
    d0, s0 = r0.topk(q_, 10)
    victims = r0.urls_for(d0[:3])
    n_new = delete_by_url(idx, victims)
    assert n_new == 3

    r1 = IndexReader(idx)
    d1, s1 = r1.topk(q_, 10)
    # deleted docs gone; surviving ranks = old ranking minus victims
    assert not set(d0[:3].tolist()) & set(d1.tolist())
    d0_all, s0_all = r0.topk_exhaustive(q_, 10**9)
    keep = ~np.isin(d0_all, d0[:3])
    assert d1.tolist() == d0_all[keep][:10].tolist()
    assert s1.tolist() == s0_all[keep][:10].tolist()  # stats/scores unchanged
    # topk == exhaustive under tombstones
    d1e, s1e = r1.topk_exhaustive(q_, 10)
    assert d1.tolist() == d1e.tolist() and s1.tolist() == s1e.tolist()
    # match_docs excludes
    assert not set(d0[:3].tolist()) & set(r1.match_docs(q_, "or").tolist())

    # purge
    man = merge_segments(idx, purge_deletes=True)
    assert man["stats"]["doc_count"] == 400 - 3
    r2 = IndexReader(idx)
    # the delete set persists, and the docs are physically absent from
    # every term's postings
    assert r2.tombstones.tolist() == sorted(d0[:3].tolist())
    for term in ("the", "fast", "data"):
        tp = r2.term_postings(term)
        if tp is not None:
            docs_t, _, _ = tp.decode_all()
            assert not set(d0[:3].tolist()) & set(docs_t.tolist()), term
    d2, s2 = r2.topk(q_, 10)
    assert not set(d0[:3].tolist()) & set(d2.tolist())
    # same doc order as tombstoned view (scores differ: live stats)
    assert d2.tolist() == d1.tolist()


def test_purge_survives_rebuild(ray_session, tmp_path_factory):
    """Durable deletes: after merge_segments(purge_deletes=True), the corpus
    and postings_raw still contain the reclaimed docs — a later append +
    build_index rebuilds segments from postings_raw and must NOT resurrect
    them. The purge keeps the committed delete set, and the rebuild
    carries it into its commit."""
    from apache___solr_ray.deletes import delete_by_url
    from apache___solr_ray.merge import merge_segments

    d = str(tmp_path_factory.mktemp("pages_pr"))
    write_pages(d, 256, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_pr"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128, max_postings_per_segment=5000)
    build_index(d, idx, cfg)

    r0 = IndexReader(idx)
    q_ = "the fast data"
    d0, _ = r0.topk(q_, 10)
    victims = r0.urls_for(d0[:2])
    assert delete_by_url(idx, victims) == 2
    merge_segments(idx, purge_deletes=True)

    # append new docs -> build_index rebuilds segments from postings_raw,
    # which still carries the purged docs
    write_pages(d, 384, seed=42, rows_per_file=128)
    build_index(d, idx, cfg)

    r1 = IndexReader(idx)
    hits = set(r1.match_docs(q_, "or").tolist())
    assert not set(d0[:2].tolist()) & hits, "purged docs resurrected by rebuild"
    dd, _ = r1.topk(q_, 20)
    assert not set(d0[:2].tolist()) & set(dd.tolist())
    # the carried delete set masks them
    assert set(r1.tombstones.tolist()) == set(d0[:2].tolist())

    # second purge reclaims them again
    merge_segments(idx, purge_deletes=True)
    r2 = IndexReader(idx)
    assert not set(d0[:2].tolist()) & set(r2.match_docs(q_, "or").tolist())


def test_upsert_overwrite_by_uniquekey(ray_session, tmp_path_factory):
    """updateDocument semantics: upserting an existing url replaces its
    content atomically — old version stops matching, new version serves,
    untouched partitions resume."""
    import pyarrow as pa

    from apache___solr_ray.corpus import pages_table
    from apache___solr_ray.update import upsert_pages

    d = str(tmp_path_factory.mktemp("pages_ups"))
    write_pages(d, 256, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_ups"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128, text_from_html=False)
    build_index(d, idx, cfg)

    r0 = IndexReader(idx)
    target = r0.urls_for(np.array([5], dtype=np.int64))[0]
    assert len(r0.match_docs("zzupdatedtoken", "or")) == 0

    new = pa.table(
        {
            "url": pa.array([target], pa.string()),
            "text": pa.array(["zzupdatedtoken fresh content body"], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    man = upsert_pages(d, idx, new, cfg)
    assert man["metrics"]["parts_resumed"] >= 2  # old partitions untouched

    r1 = IndexReader(idx)
    hits = r1.match_docs("zzupdatedtoken", "or")
    assert len(hits) == 1
    assert r1.urls_for(hits)[0] == target  # same uniqueKey, new content
    # the OLD doc id (5) no longer matches anything
    assert 5 not in r1.match_docs("the", "or").tolist()
    # and the new doc serves through BM25
    dd, ss = r1.topk("zzupdatedtoken", 5)
    assert dd.tolist() == hits.tolist()


def test_atomic_updates_set_inc_add_remove(ray_session, tmp_path_factory):
    """AtomicUpdateDocumentMerger semantics (reference AtomicUpdatesTest):
    set replaces, inc adds numerically, add/remove edit a multivalued list;
    the merged doc reindexes through the overwrite path, untouched
    partitions resume, and the stored merged values round-trip."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from apache___solr_ray.update import _fetch_stored, atomic_update

    d = str(tmp_path_factory.mktemp("pages_atomic"))
    # corpus with extra stored fields: numeric views + multivalued tags
    t = pa.table(
        {
            "url": pa.array([f"u://{i}" for i in range(64)], pa.string()),
            "text": pa.array([f"body token{i} shared" for i in range(64)], pa.string()),
            "lang": pa.array(["en"] * 64, pa.string()),
            "views": pa.array([10] * 64, pa.int64()),
            "tags": pa.array([["a", "b"]] * 64, pa.list_(pa.string())),
        }
    )
    pq_.write_table(t, f"{d}/pages-000000.parquet", row_group_size=32)
    idx = str(tmp_path_factory.mktemp("index_atomic"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=32, text_from_html=False)
    build_index(d, idx, cfg)

    man = atomic_update(
        d,
        idx,
        [
            {
                "url": "u://5",
                "text": {"set": "zzatomictoken replaced body"},
                "views": {"inc": 7},
                "tags": {"add": "c"},
            },
            {"url": "u://9", "views": {"inc": -3}, "tags": {"remove": "a"}},
        ],
        cfg,
    )
    assert man["metrics"]["parts_resumed"] >= 1  # old partitions untouched

    r = IndexReader(idx)
    hits = r.match_docs("zzatomictoken", "or")
    assert r.urls_for(hits) == ["u://5"]
    # u://9 text unchanged -> still matches its original token
    assert len(r.match_docs("token9", "or")) == 1

    stored = _fetch_stored(d, ["u://5", "u://9"])
    by = {row["url"]: row for row in stored.to_pylist()}
    assert by["u://5"]["views"] == 17 and by["u://5"]["tags"] == ["a", "b", "c"]
    assert by["u://5"]["text"].startswith("zzatomictoken")
    assert by["u://9"]["views"] == 7 and by["u://9"]["tags"] == ["b"]

    # strict form: unknown uniqueKey raises
    import pytest as _pytest

    with _pytest.raises(KeyError):
        atomic_update(d, idx, [{"url": "u://nope", "views": {"inc": 1}}], cfg)

    # optimistic concurrency (Solr _version_ / 409 semantics): u://5 was
    # updated once above -> version 2; a writer that read version 1 must
    # be rejected BEFORE any write, a correct version passes and bumps
    from apache___solr_ray.update import VersionConflict, doc_versions

    vs = doc_versions(d, ["u://5", "u://9", "u://3"])
    assert vs == {"u://5": 2, "u://9": 2, "u://3": 1}
    with _pytest.raises(VersionConflict):
        atomic_update(
            d, idx, [{"url": "u://5", "views": {"inc": 1}}], cfg,
            require_versions={"u://5": 1},
        )
    assert doc_versions(d, ["u://5"]) == {"u://5": 2}  # rejected batch wrote nothing
    atomic_update(
        d, idx, [{"url": "u://5", "views": {"inc": 1}}], cfg,
        require_versions={"u://5": 2},
    )
    assert doc_versions(d, ["u://5"]) == {"u://5": 3}
    stored2 = _fetch_stored(d, ["u://5"])
    assert stored2.to_pylist()[0]["views"] == 18


def test_index_fingerprint_peersync(ray_session, tmp_path_factory):
    """IndexFingerprint semantics (reference IndexFingerprint.java /
    PeerSync): same inputs+config fingerprint identically across separate
    builds; deletes and appends diverge it."""
    from apache___solr_ray.deletes import delete_by_url
    from apache___solr_ray.manifest import index_fingerprint

    d = str(tmp_path_factory.mktemp("pages_fp"))
    write_pages(d, 256, seed=42, rows_per_file=128)
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128, text_from_html=False)
    idx_a = str(tmp_path_factory.mktemp("index_fp_a"))
    idx_b = str(tmp_path_factory.mktemp("index_fp_b"))
    build_index(d, idx_a, cfg)
    build_index(d, idx_b, cfg)
    fp_a, fp_b = index_fingerprint(idx_a), index_fingerprint(idx_b)
    assert fp_a == fp_b  # replicas in sync

    r = IndexReader(idx_a)
    delete_by_url(idx_a, [r.urls_for(np.array([3], dtype=np.int64))[0]])
    assert index_fingerprint(idx_a) != fp_b  # delete diverges

    write_pages(d, 384, seed=42, rows_per_file=128)  # append a partition
    build_index(d, idx_b, cfg)
    assert index_fingerprint(idx_b) != fp_b  # append diverges


def test_merged_split_build_equals_unsplit_build(ray_session, tmp_path_factory):
    """Merging a doc-range-split build to one segment per tkey writes the
    same term dictionary and byte-identical postings as building each tkey
    as one segment (merge and phase B share one encoder). A merge whose
    postings are all tombstoned writes an empty segment."""
    import pyarrow.parquet as pq

    from apache___solr_ray.merge import _merge_group
    from apache___solr_ray.segment import write_segment

    d = str(tmp_path_factory.mktemp("pages_eq"))
    write_pages(d, 500, seed=42, rows_per_file=128)
    base = dict(term_partitions=3, target_docs_per_part=128)
    idx_whole = str(tmp_path_factory.mktemp("index_eq_whole"))
    idx_split = str(tmp_path_factory.mktemp("index_eq_split"))
    whole = build_index(d, idx_whole, IndexConfig(**base))
    split = build_index(d, idx_split, IndexConfig(**base, max_postings_per_segment=4000))
    assert len(split["segments"]) > len(whole["segments"])
    man = merge_segments(idx_split, target_per_tkey=1, merge_factor=4)
    merged = {s["tkey"]: s["name"] for s in man["segments"]}
    assert len(merged) == len(man["segments"])  # one segment per tkey
    whole_r, split_r = open_segments(idx_whole, whole["segments"]), open_segments(idx_split, man["segments"])
    for s in whole["segments"]:
        assert whole_r[s["name"]].raw() == split_r[merged[s["tkey"]]].raw()
    for r in split_r.values():
        r.close()

    # every doc tombstoned -> the merged tkey is an empty, readable segment
    src = [s for s in whole["segments"] if s["tkey"] == 0]
    docs_dir = os.path.join(idx_whole, "docs")
    tombs = np.sort(
        [
            (int(f[len("part-") : -len(".parquet")]) << 32) + row
            for f in os.listdir(docs_dir)
            for row in range(pq.ParquetFile(os.path.join(docs_dir, f)).metadata.num_rows)
        ]
    ).astype(np.int64)
    meta = _merge_group(whole_r, 0, src, "seg-00000-empty", tombs=tombs)
    assert (meta["n_terms"], meta["n_postings"], meta["bytes"]) == (0, 0, 0)
    empty = open_segments(idx_whole, write_segment(idx_whole, [meta]))["seg-00000-empty"]
    for r in whole_r.values():
        r.close()
    assert empty.n_terms == 0 and empty.postings("the") is None
    assert empty.terms_table().num_rows == 0
    empty.close()


def _phrase_sample(texts: list[str], n: int, seed: int) -> list[str]:
    """``n`` distinct two-word phrases that occur in ``texts``."""
    from apache___solr_ray.analyze import Analyzer

    an, rng, out = Analyzer(), np.random.default_rng(seed), set()
    while len(out) < n:
        toks = an.analyze(texts[int(rng.integers(len(texts)))])
        if len(toks) > 1:
            i = int(rng.integers(len(toks) - 1))
            out.add(f"{toks[i]} {toks[i + 1]}")
    return sorted(out)


def test_partial_merge_folds_only_doc_adjacent_segments(ray_session, tmp_path_factory):
    """A tkey whose middle doc-range segment is its largest: a partial merge
    must fold neighbours, not the two smallest (salts 0 and 2), or term
    views stop being doc-ascending and the phrase paths break. Merged
    entries carry their doc range, so doc-range readers skip them."""
    import pyarrow.parquet as pq

    from apache___solr_ray.corpus import pages_table

    d = str(tmp_path_factory.mktemp("pages_adj"))
    pages = pages_table(700, seed=42)
    with pq.ParquetWriter(os.path.join(d, "pages.parquet"), pages.schema) as w:
        start = 0
        for n in (100, 100, 300, 100, 100):  # one row group (= one part) each
            w.write_table(pages.slice(start, n), row_group_size=n)
            start += n
    idx = str(tmp_path_factory.mktemp("index_adj"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=100, max_postings_per_segment=10000)
    man = build_index(d, idx, cfg)
    tk0 = sorted((s for s in man["segments"] if s["tkey"] == 0), key=lambda s: s["salt"])
    sizes = [s["bytes"] for s in tk0]
    assert len(tk0) == 3 and sizes[1] > max(sizes[0], sizes[2])  # the layout under test

    phrases = _phrase_sample(pages.column("text").to_pylist(), 60, seed=3)

    def answers():
        r = IndexReader(idx)
        return {
            p: (
                r.phrase_freqs(p)[0].tolist(),
                r.span_near_docs(p, slop=1).tolist(),
                [a.tolist() for a in r.topk_phrase(p, 10)],
            )
            for p in phrases
        }

    before = answers()
    man = merge_segments(idx, target_per_tkey=2, merge_factor=2)
    assert answers() == before

    r = IndexReader(idx)
    for term in sorted({t for p in phrases for t in p.split()}):
        tp = r.term_postings(term)
        if tp is not None:
            assert np.all(np.diff(tp.decode_all()[0]) > 0), term
    merged = [s for s in man["segments"] if s["salt"] == -1]
    assert merged
    for s in merged:
        assert 0 <= s["part_lo"] < s["part_hi"] <= man["stats"]["n_doc_parts"]
    tk0 = sorted((s["part_lo"], s["part_hi"]) for s in man["segments"] if s["tkey"] == 0)
    assert tk0 == [(0, 3), (3, 5)]
    shard = IndexReader(idx, part_range=(4, 5))
    opened = {s["name"] for segs in shard._segments_by_tkey.values() for s in segs}
    assert opened == {
        s["name"] for s in man["segments"] if s["part_lo"] < 5 and s["part_hi"] > 4
    }


def test_segment_dirs_equal_committed_segments(ray_session, tmp_path_factory):
    """A purge merge followed by an upsert un-commits the merged segments;
    the upsert's build removes their packs, so after every step the
    files under ``segments/`` are exactly the manifest's packs, and they
    hold exactly its segments."""
    import pyarrow as pa

    from apache___solr_ray.deletes import delete_by_url
    from apache___solr_ray.update import upsert_pages

    d = str(tmp_path_factory.mktemp("pages_dirs"))
    write_pages(d, 256, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_dirs"))
    cfg = IndexConfig(
        term_partitions=2,
        target_docs_per_part=128,
        max_postings_per_segment=3000,
        text_from_html=False,
    )
    build_index(d, idx, cfg)

    def assert_dirs_committed(man):
        files = {os.path.basename(f) for f in pack_files(man)}
        assert set(os.listdir(segments_dir(idx))) == files
        assert set(open_segments(idx, man["segments"])) == {s["name"] for s in man["segments"]}

    r = IndexReader(idx)
    urls = r.urls_for(np.array([3, (1 << 32) + 7], dtype=np.int64))
    assert delete_by_url(idx, urls[:1]) == 1
    assert_dirs_committed(merge_segments(idx, purge_deletes=True))
    new = pa.table(
        {
            "url": pa.array([urls[1]], pa.string()),
            "text": pa.array(["zzdirstoken fresh content"], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    assert_dirs_committed(upsert_pages(d, idx, new, cfg))
    assert_dirs_committed(merge_segments(idx, target_per_tkey=1, merge_factor=4))
