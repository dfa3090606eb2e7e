"""The segment term dictionary (a pack member's ``.tdict`` section):
hash-indexed point lookups, collision safety, its layout and size, the
cost of opening a segment, unmapping on close, and the segment format in
the build lineage."""

import os
import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from apache___solr_ray import merge, query, segment
from apache___solr_ray.build import IndexConfig, build_index
from apache___solr_ray.corpus import write_pages
from apache___solr_ray.manifest import write_json_atomic
from apache___solr_ray.query import IndexReader
from apache___solr_ray.segment import (
    SegmentReader,
    build_segment_from_group,
    open_segments,
    pack_files,
    segments_dir,
    write_segment,
)

STORED = ["", "apple", "applesauce", "b", "strasse", "zebra", "日本語", "ω"]
ABSENT = ["appl", "apples", "applesaucex", "straße", "日本", "zebr", "c", "日本語x"]


def _group(terms: list[str], seed: int = 0) -> pa.Table:
    """A (term, doc_id, tf, norm) table with 1-3 postings per term."""
    rng = np.random.default_rng(seed)
    rows = {"term": [], "doc_id": [], "tf": [], "norm": []}
    for t in terms:
        docs = np.sort(rng.choice(1000, size=int(rng.integers(1, 4)), replace=False))
        for d in docs:
            rows["term"].append(t)
            rows["doc_id"].append(int(d))
            rows["tf"].append(int(rng.integers(1, 5)))
            rows["norm"].append(int(rng.integers(0, 256)))
    return pa.table(
        {
            "term": pa.array(rows["term"], pa.string()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "tf": pa.array(rows["tf"], pa.int64()),
            "norm": pa.array(rows["norm"], pa.uint8()),
        }
    )


def _vocab(n: int, seed: int = 0) -> list[str]:
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    out = {"".join(rng.choice(letters, size=int(rng.integers(2, 10)))) for _ in range(n * 2)}
    return sorted(out)[:n]


def _write(index_dir: str, group: pa.Table, name: str = "seg") -> dict:
    """Encode ``group`` as one segment and write it as a one-member pack;
    returns a manifest-shaped ``{"segments": [its record]}``."""
    return {"segments": write_segment(index_dir, [build_segment_from_group(group, name, 0, 0)])}


def _open(index_dir: str, man: dict, name: str = "seg") -> SegmentReader:
    return open_segments(index_dir, man["segments"])[name]


def _check_lookups(r: SegmentReader, group: pa.Table) -> None:
    """Every stored term looks up to its stored row, in (key, UTF-8 term)
    order, with its own postings and stats; absent terms to none."""
    tbl = r.terms_table()
    terms = tbl.column("term").to_pylist()
    assert sorted(terms, key=str.encode) == sorted(set(group.column("term").to_pylist()), key=str.encode)
    keys = segment.term_key(segment.term_hash(np.array(terms, dtype=object))).tolist()
    assert r._hash.tolist() == keys
    stored = [(k, t.encode()) for k, t in zip(keys, terms)]
    assert stored == sorted(stored)
    for row, t in enumerate(terms):
        assert r.lookup(t) == row, t
        h = segment.term_hash(np.array([t], dtype=object))[0]
        assert r.lookup(t, h) == row, t
        docs = group.filter(pc.equal(group.column("term"), t)).column("doc_id")
        view, df, ttf = r.postings(t, h)
        assert view.decode_all()[0].tolist() == sorted(docs.to_pylist())
        assert r.term_stats(t) == (df, ttf)
        assert (df, ttf) == (tbl.column("df")[row].as_py(), tbl.column("ttf")[row].as_py())
    for t in ABSENT:
        assert r.lookup(t) == -1, t
        assert r.postings(t) is None and r.term_stats(t) is None
    r.close()


def test_every_term_looks_up_to_its_stored_row(tmp_path, small_index):
    """A segment stores its terms in (key, term) order, not term order, and
    a lookup returns the stored row; ``IndexReader.term_dict`` is still in
    term order."""
    g = _group(STORED + _vocab(500))
    man = _write(str(tmp_path), g)
    r = _open(str(tmp_path), man)
    terms = r.terms_table().column("term").to_pylist()
    assert terms != sorted(terms, key=str.encode)
    _check_lookups(r, g)

    _d, idx, _cfg, _man = small_index
    ir = IndexReader(idx)
    vocab = {t for sr in ir._readers.values() for t in sr.terms_table().column("term").to_pylist()}
    assert ir.term_dict().column("term").to_pylist() == sorted(vocab, key=str.encode)
    ir.close()


def test_dictionary_costs_20_fixed_bytes_per_term():
    """A dictionary section is the 32-byte header, five 4-byte columns
    (key, df, ttf, offset, string offset; the last two hold n + 1
    entries), each padded to 8 bytes, then the padded UTF-8 bytes."""
    pad8 = lambda b: -(-b // 8) * 8  # noqa: E731
    for n in (0, 1, 7, 300):
        terms = (STORED + _vocab(400, seed=8))[:n]
        m = build_segment_from_group(_group(terms, seed=8), "seg", 0, 0)
        section = m["encoded"][0]
        n_str = sum(len(t.encode()) for t in terms)
        assert len(section) == 32 + 3 * pad8(4 * n) + 2 * pad8(4 * (n + 1)) + pad8(n_str)


def test_segment_postings_must_fit_u32_offsets():
    """A segment of 4 GB of postings is refused at encode, naming the
    remedies (checked on a fabricated offsets array: nothing that large is
    allocated)."""
    args = (np.array(["a"], dtype=object), np.zeros(1, np.uint32), np.ones(1), np.ones(1))
    segment._terms_section(*args, np.array([0, 2**32 - 1]))
    with pytest.raises(ValueError, match="salt.*merge"):
        segment._terms_section(*args, np.array([0, 2**32]))


def test_hash_collisions_never_return_another_term(tmp_path, monkeypatch):
    """A 2-bit hash gives every term the key 0 (the key is the hash's
    high half), so every key collides: lookups still find exactly their
    own row, and absent terms none."""
    orig = segment.term_hash
    monkeypatch.setattr(segment, "term_hash", lambda t: orig(t) % np.uint64(4))
    g = _group(STORED + _vocab(200), seed=1)
    man = _write(str(tmp_path), g)
    r = _open(str(tmp_path), man)
    assert r._hash.tolist() == [0] * r.n_terms
    r.close()
    _check_lookups(_open(str(tmp_path), man), g)


def test_empty_segment_and_u32_stats(tmp_path):
    r = _open(str(tmp_path), _write(str(tmp_path), _group([])))
    assert r.n_terms == 0 and r.lookup("") == -1 and r.postings("a") is None
    assert r.terms_table().num_rows == 0 and r.postings_views() == []
    r.close()
    big = pa.table(
        {
            "term": pa.array(["a"]),
            "doc_id": pa.array([0], pa.int64()),
            "tf": pa.array([2**32], pa.int64()),
            "norm": pa.array([1], pa.uint8()),
        }
    )
    with pytest.raises(ValueError, match="u32"):
        build_segment_from_group(big, "big", 0, 0)


def test_older_segment_format_asks_for_a_rebuild(tmp_path):
    """A segment written at an older format version (its payloads use
    another codec layout) is refused, not misread."""
    man = _write(str(tmp_path), _group(_vocab(50, seed=4), seed=4))
    (member,) = man["segments"]
    t_off = member["tdict_off"]
    tdict = [f for f in pack_files(man) if f.endswith(".tdict")][0]
    with open(os.path.join(str(tmp_path), tdict), "r+b") as f:
        f.seek(t_off + 8)  # the member header's u64 version, after the magic
        f.write((segment.FORMAT_VERSION - 1).to_bytes(8, "little"))
    want = rf"not segment format v{segment.FORMAT_VERSION}; rebuild"
    with pytest.raises(RuntimeError, match=want):
        _open(str(tmp_path), man)


def test_v6_pack_is_refused_with_rebuild(tmp_path):
    """A pack written at format v6 (its members' headers and its TOC say
    so) is neither read nor resumed by a build: opening it asks for a
    rebuild."""
    assert segment.FORMAT_VERSION == 7
    man = _write(str(tmp_path), _group(_vocab(50, seed=9), seed=9))
    (member,) = man["segments"]
    t_off = member["tdict_off"]
    tdict = os.path.join(str(tmp_path), [f for f in pack_files(man) if f.endswith(".tdict")][0])
    with open(tdict, "r+b") as f:
        data = bytearray(f.read())
        data[t_off + 8 : t_off + 16] = (6).to_bytes(8, "little")
        toc_at = data.rindex(b'"version": 7')
        data[toc_at : toc_at + 12] = b'"version": 6'
        f.seek(0)
        f.write(data)
    assert segment._read_toc(tdict[: -len(".tdict")]) is None
    with pytest.raises(RuntimeError, match="not segment format v7; rebuild"):
        _open(str(tmp_path), man)


def test_open_allocates_no_python_object_per_term(tmp_path):
    terms = _vocab(12_000, seed=2)
    assert len(terms) >= 10_000
    g = _group(terms, seed=2)
    man = _write(str(tmp_path), g)
    _open(str(tmp_path), man).close()  # warm imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        r = _open(str(tmp_path), man)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert r.n_terms == len(terms)
    assert peak < 64 * 1024, peak
    r.close()


def test_cached_views_share_the_segment_buffer(tmp_path):
    """A ``PostingsView`` owns no buffer of its own: every view of a
    pack decodes from one uint8 array over its ``.post`` file, so a cached
    view costs a few hundred bytes of heap (528 B each when every view
    held its own memoryview and array)."""
    terms = _vocab(3000, seed=6)
    g = _group(terms, seed=6)
    r = _open(str(tmp_path), _write(str(tmp_path), g))
    r.postings(terms[0])  # warm the lookup path
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        views = [r.postings(t)[0] for t in terms]
        per_view = (tracemalloc.get_traced_memory()[0] - before) / len(terms)
    finally:
        tracemalloc.stop()
    assert per_view < 256, per_view
    assert all(v.buf is views[0].buf for v in views)
    for t, v in zip(terms[:50], views):
        docs = g.filter(pc.equal(g.column("term"), t)).column("doc_id").to_pylist()
        assert v.decode_all()[0].tolist() == sorted(docs)
    del views
    r.close()


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages_dict"))
    write_pages(d, 300, seed=11, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_dict"))
    cfg = IndexConfig(term_partitions=4, target_docs_per_part=128)
    man = build_index(d, idx, cfg)
    return d, idx, cfg, man


def _queries(idx: str, n: int, seed: int) -> list[str]:
    r = IndexReader(idx)
    vocab = np.array(r.term_dict().column("term").to_pylist(), dtype=object)
    r.close()
    rng = np.random.default_rng(seed)
    return [" ".join(rng.choice(vocab, size=int(rng.integers(1, 4)))) for _ in range(n)]


def _segment_fds(idx: str) -> list[str]:
    root = segments_dir(idx)
    out = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", fd))
        except OSError:
            continue
        if target.startswith(root):
            out.append(target)
    return out


def test_term_postings_looks_up_once_per_segment(small_index, tmp_path_factory, monkeypatch):
    """``IndexReader.term_postings`` makes one ``SegmentReader.lookup`` in
    each segment of the term's tkey (the view, df and ttf come from that
    one row), and none for a cached term."""
    d, _idx, _cfg, _man = small_index
    idx = str(tmp_path_factory.mktemp("index_dict_split"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128, max_postings_per_segment=1500)
    build_index(d, idx, cfg)
    r = IndexReader(idx)
    td = r.term_dict()
    terms = td.column("term").to_pylist()[::7] + ["no_such_term_xyzzy"]
    calls = []
    orig = SegmentReader.lookup
    monkeypatch.setattr(
        SegmentReader, "lookup", lambda self, t, h=None: calls.append(self.name) or orig(self, t, h)
    )
    df_of = dict(zip(td.column("term").to_pylist(), td.column("df").to_pylist()))
    most = 0
    for t in terms:
        calls.clear()
        tp = r.term_postings(t)
        segs = r._term_readers(segment.term_hash(np.array([t], dtype=object))[0])
        assert sorted(calls) == sorted(s.name for s in segs), t
        most = max(most, len(segs))
        assert (tp.df if tp else 0) == df_of.get(t, 0), t
        calls.clear()
        assert r.term_postings(t) is tp and calls == []
    assert most >= 2  # some tkey is split into several segments
    r.close()


def test_close_unmaps_every_segment(small_index):
    _d, idx, _cfg, _man = small_index
    r = IndexReader(idx)
    for q in _queries(idx, 20, seed=3):
        r.topk(q, 10)
        r.term_stats_map(q)
    assert r.term_dict().num_rows > 0
    assert _segment_fds(idx)  # the maps hold their files open
    r.close()
    assert _segment_fds(idx) == []


def test_topk_with_colliding_hashes_equals_exhaustive(small_index, tmp_path_factory, monkeypatch):
    """Every segment re-encoded under a 2-bit ``term_hash`` (kept equal
    modulo the 4 term partitions, so tkey routing is unchanged, and every
    dictionary key collides) answers exactly as before, and ``topk``
    equals ``topk_exhaustive``."""
    d, _idx, cfg, _man = small_index
    idx = str(tmp_path_factory.mktemp("index_dict_2bit"))
    man = build_index(d, idx, cfg)
    qs = _queries(idx, 40, seed=4)
    r = IndexReader(idx)
    want = [r.topk(q, 10) for q in qs]
    r.close()

    orig = segment.term_hash
    two_bit = lambda t: orig(t) % np.uint64(4)  # noqa: E731
    monkeypatch.setattr(segment, "term_hash", two_bit)
    monkeypatch.setattr(query, "term_hash", two_bit)
    readers = open_segments(idx, man["segments"])
    members = [merge._merge_group(readers, s["tkey"], [s], s["name"]) for s in man["segments"]]
    for rd in readers.values():
        rd.close()
    # the re-encoded segments, committed in place of the old packs
    write_json_atomic(
        os.path.join(idx, "index_manifest.json"),
        dict(man, segments=write_segment(idx, members)),
    )
    r = IndexReader(idx)
    assert np.unique(r._readers[man["segments"][0]["name"]]._hash).tolist() == [0]
    for q, (wd, ws) in zip(qs, want):
        got_d, got_s = r.topk(q, 10)
        ex_d, ex_s = r.topk_exhaustive(q, 10)
        assert got_d.tolist() == ex_d.tolist() == wd.tolist(), q
        assert got_s.tobytes() == ex_s.tobytes() == ws.tobytes(), q
    r.close()


def test_segment_format_change_reencodes_segments_and_resumes_phase_a(
    small_index, tmp_path_factory, monkeypatch
):
    """An index committed under an older segment format (no ``seg=`` in its
    config, no pack in its segment records) is refused by readers and
    re-encoded segment by segment on the next build; the phase-A outputs
    are reused as they are."""
    d, _idx, cfg, _man = small_index
    idx = str(tmp_path_factory.mktemp("index_dict_v2"))
    with monkeypatch.context() as m:
        m.setattr(
            IndexConfig,
            "fingerprint_full",
            lambda self: f"{self.fingerprint()};maxpost={self.max_postings_per_segment}",
        )
        old = build_index(d, idx, cfg)
    place = ("pack", "tdict_off", "post_off")
    old["segments"] = [{k: v for k, v in s.items() if k not in place} for s in old["segments"]]
    write_json_atomic(os.path.join(idx, "index_manifest.json"), old)
    with pytest.raises(RuntimeError, match=rf"format v{segment.FORMAT_VERSION}.*rebuild"):
        IndexReader(idx)

    raw = os.path.join(idx, "postings_raw")
    stamps = {f: os.stat(os.path.join(raw, f)).st_mtime_ns for f in os.listdir(raw)}
    new = build_index(d, idx, cfg)
    m = new["metrics"]
    assert m["parts_resumed"] == new["stats"]["n_doc_parts"]
    assert m["segments_resumed"] == 0 and m["segments_built"] == len(new["segments"])
    assert {f: os.stat(os.path.join(raw, f)).st_mtime_ns for f in os.listdir(raw)} == stamps
    assert new["config"] == cfg.fingerprint_full()
    assert new["config"].endswith(f";seg={segment.FORMAT_VERSION}")
    r = IndexReader(idx)
    for q in _queries(idx, 10, seed=5):
        a, b = r.topk(q, 10), r.topk_exhaustive(q, 10)
        assert a[0].tolist() == b[0].tolist()
    r.close()
