"""The committed delete set: deletes live in ``index_manifest.json``, keyed
by doc-part input fingerprint and row; purges and rebuilds keep them."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from apache___solr_ray.build import FieldSpec, IndexConfig, build_index
from apache___solr_ray.corpus import pages_table, write_pages
from apache___solr_ray.deletes import delete_by_url
from apache___solr_ray.jsonquery import json_query_docs
from apache___solr_ray.merge import merge_segments
from apache___solr_ray.query import IndexReader

ALL_DOCS = {"range": {"f": "doc_len", "lower": 0}}


def _ids_of(r: IndexReader, url: str) -> list[int]:
    """Every committed doc id whose url is ``url``, deleted or not."""
    return [
        (p << 32) + row
        for p in range(r.n_doc_parts)
        for row, u in enumerate(r.doc_column(p, "url").to_pylist())
        if u == url
    ]


def test_delete_survives_earlier_sorting_file(ray_session, tmp_path_factory):
    """A corpus file that sorts before the existing ones shifts every part
    id. The delete follows its (fingerprint, row), so the deleted url stays
    dead and no other doc is masked."""
    d = str(tmp_path_factory.mktemp("pages_early"))
    write_pages(d, 256, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_early"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128)
    build_index(d, idx, cfg)
    url = IndexReader(idx).urls_for(np.array([(1 << 32) | 5], dtype=np.int64))[0]
    assert delete_by_url(idx, [url]) == 1

    pq.write_table(pages_table(128, seed=42, start=10_000), os.path.join(d, "a-000000.parquet"))
    man = build_index(d, idx, cfg)
    assert man["stats"]["n_doc_parts"] == 3
    r = IndexReader(idx)
    assert r.tombstones.tolist() == _ids_of(r, url) == [(2 << 32) | 5]
    assert r.urls_for(r.tombstones) == [url]
    live = json_query_docs(r, ALL_DOCS)
    assert len(live) == r.doc_count - 1 and (2 << 32) | 5 not in live.tolist()


def test_purge_keeps_deletes_masked(ray_session, tmp_path_factory):
    """After a purge the docs sidecar still holds the purged rows, so every
    path that enumerates it (mask-only and range queries, index-sorted
    top-k) must still mask them."""
    d = str(tmp_path_factory.mktemp("pages_mask"))
    pages = pages_table(400, seed=42)
    pages = pages.append_column(
        "rank", pa.array(np.random.default_rng(5).random(400), pa.float64())
    )
    pq.write_table(pages, os.path.join(d, "pages-000000.parquet"), row_group_size=128)
    base = dict(term_partitions=3, target_docs_per_part=128)
    idx = str(tmp_path_factory.mktemp("index_mask"))
    build_index(d, idx, IndexConfig(**base))

    en = {"field": {"f": "lang", "query": "en"}}
    r = IndexReader(idx)
    en_before = json_query_docs(r, en)
    victims = en_before[[0, 7, 130, 260, -1]]
    assert delete_by_url(idx, r.urls_for(victims)) == 5
    man = merge_segments(idx, purge_deletes=True)
    assert man["stats"]["doc_count"] == 395

    r = IndexReader(idx)
    en_after = json_query_docs(r, en)
    assert en_after.tolist() == sorted(set(en_before.tolist()) - set(victims.tolist()))
    live = json_query_docs(r, ALL_DOCS)
    assert len(live) == r.doc_count and not set(live.tolist()) & set(victims.tolist())
    assert r.tombstones.tolist() == sorted(victims.tolist())

    idx_sorted = str(tmp_path_factory.mktemp("index_mask_sorted"))
    build_index(d, idx_sorted, IndexConfig(**base, sort_field="rank"))
    top, _, _ = IndexReader(idx_sorted).sorted_topk(5)
    assert delete_by_url(idx_sorted, IndexReader(idx_sorted).urls_for(top[:2])) == 2
    merge_segments(idx_sorted, purge_deletes=True)
    after, _, _ = IndexReader(idx_sorted).sorted_topk(5)
    assert after[:3].tolist() == top[2:].tolist()
    assert not set(after.tolist()) & set(top[:2].tolist())


def test_deletes_survive_repartition(ray_session, tmp_path_factory):
    """A rebuild at another ``target_docs_per_part`` re-keys the delete set
    by url, so the doc stays dead, and a purge then counts it out."""
    d = str(tmp_path_factory.mktemp("pages_repart"))
    write_pages(d, 600, seed=42, rows_per_file=600, row_group_size=100)
    idx = str(tmp_path_factory.mktemp("index_repart"))
    man = build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=128))
    assert man["stats"]["n_doc_parts"] == 6
    r = IndexReader(idx)
    url = r.urls_for(np.array([(3 << 32) | 50], dtype=np.int64))[0]
    assert delete_by_url(idx, [url]) == 1

    man = build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=1024))
    assert man["stats"]["n_doc_parts"] == 1
    r = IndexReader(idx)
    assert r.tombstones.tolist() == _ids_of(r, url) == [350]
    assert 350 not in json_query_docs(r, ALL_DOCS).tolist()
    man = merge_segments(idx, purge_deletes=True)
    assert man["stats"]["doc_count"] == 599
    assert IndexReader(idx).tombstones.tolist() == [350]


def test_purge_after_kill_recommits_the_same(ray_session, tmp_path_factory, monkeypatch):
    """A purge killed after its one manifest write (here: the removal of
    the consumed segments' packs raises), then re-run, commits exactly what
    one purge commits; a further purge is a no-op."""
    import pytest

    from apache___solr_ray import merge
    from apache___solr_ray.manifest import read_json
    from apache___solr_ray.segment import open_segments

    d = str(tmp_path_factory.mktemp("pages_kill"))
    write_pages(d, 400, seed=42, rows_per_file=128)
    cfg = IndexConfig(term_partitions=3, target_docs_per_part=128, max_postings_per_segment=5000)
    once, killed = (str(tmp_path_factory.mktemp(f"index_{n}")) for n in ("once", "killed"))
    for idx in (once, killed):
        build_index(d, idx, cfg)
        urls = IndexReader(idx).urls_for(np.array([3, (1 << 32) | 9, (2 << 32) | 1]))
        assert delete_by_url(idx, urls) == 3
    want = merge_segments(once, purge_deletes=True)

    def killed_drop(*_a, **_k):
        raise RuntimeError("killed after commit")

    with monkeypatch.context() as m:
        m.setattr(merge, "drop_uncommitted", killed_drop)
        with pytest.raises(RuntimeError, match="killed after commit"):
            merge_segments(killed, purge_deletes=True)
    got = merge_segments(killed, purge_deletes=True)
    assert got["stats"] == want["stats"] and got["stats"]["doc_count"] == 397
    assert got["segments"] == want["segments"]
    a, b = (open_segments(i, read_json(os.path.join(i, "index_manifest.json"))["segments"]) for i in (once, killed))
    for s in want["segments"]:
        assert a[s["name"]].raw() == b[s["name"]].raw()
    for r in [*a.values(), *b.values()]:
        r.close()
    assert IndexReader(killed).tombstones.tolist() == IndexReader(once).tombstones.tolist()
    assert merge_segments(killed, purge_deletes=True) == got


def test_delete_then_upsert_same_url(ray_session, tmp_path_factory):
    """An upsert of a deleted url adds a live new version; the old version
    stays dead through the rebuild and a purge."""
    from apache___solr_ray.update import upsert_pages

    d = str(tmp_path_factory.mktemp("pages_delups"))
    write_pages(d, 256, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_delups"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128, text_from_html=False)
    build_index(d, idx, cfg)
    url = IndexReader(idx).urls_for(np.array([5], dtype=np.int64))[0]
    assert delete_by_url(idx, [url]) == 1
    new = pa.table(
        {
            "url": pa.array([url], pa.string()),
            "text": pa.array(["zzrevivedtoken second version"], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    upsert_pages(d, idx, new, cfg)
    for _ in range(2):
        r = IndexReader(idx)
        hits = r.match_docs("zzrevivedtoken", "or")
        assert r.urls_for(hits) == [url] and hits.tolist() == [2 << 32]
        assert r.tombstones.tolist() == [5]
        assert 5 not in json_query_docs(r, ALL_DOCS).tolist()
        merge_segments(idx, purge_deletes=True)


def test_purge_recomputes_field_stats(ray_session, tmp_path_factory):
    """After a purge, per-field docCount and sumTotalTermFreq (and the
    collection totals) equal those of a fresh build over the survivors."""
    d = str(tmp_path_factory.mktemp("pages_fstats"))
    write_pages(d, 400, seed=42, rows_per_file=128)
    cfg = IndexConfig(
        term_partitions=3,
        target_docs_per_part=128,
        text_from_html=False,
        fields=(FieldSpec("text", source="text"),),
    )
    idx = str(tmp_path_factory.mktemp("index_fstats"))
    built = build_index(d, idx, cfg)
    assert built["stats"]["fields"]["text"]["doc_count"] == 400
    r = IndexReader(idx)
    dead = np.array([(p << 32) + row for p in range(4) for row in range(0, 128, 4)][:100])
    urls = r.urls_for(dead)
    assert delete_by_url(idx, urls) == 100
    man = merge_segments(idx, purge_deletes=True)

    survivors = pages_table(400, seed=42)
    survivors = survivors.filter(
        pa.array([u not in set(urls) for u in survivors.column("url").to_pylist()])
    )
    d2 = str(tmp_path_factory.mktemp("pages_fstats_live"))
    pq.write_table(survivors, os.path.join(d2, "pages-000000.parquet"), row_group_size=128)
    fresh = build_index(d2, str(tmp_path_factory.mktemp("index_fstats_live")), cfg)
    for key in ("doc_count", "sum_total_tf", "fields"):
        assert man["stats"][key] == fresh["stats"][key], key
    assert man["stats"]["doc_count"] == 300
