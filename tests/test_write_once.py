"""Phase B's encode batches and write-once packs: a batch of segments
writes the bytes each segment alone would, as one pack; a rebuild resumes
every segment a whole pack holds and re-encodes only the rest; an upsert
extends each segment whose sources start with a stored segment's, to the
bytes a cold build writes; a reader holds two files per pack and keeps
answering from its own commit point while upserts and merges replace the
packs it opened."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from apache___solr_ray import build, segment
from apache___solr_ray.build import FieldSpec, IndexConfig, build_index
from apache___solr_ray.corpus import pages_table, write_pages
from apache___solr_ray.deletes import delete_by_url
from apache___solr_ray.manifest import read_json
from apache___solr_ray.merge import merge_segments
from apache___solr_ray.query import IndexReader
from apache___solr_ray.segment import open_segments, pack_files, segments_dir
from apache___solr_ray.update import upsert_pages


#: the keys of a segment record that say where its pack stores it
PLACE = ("pack", "tdict_off", "post_off")


def _segment_bytes(idx: str) -> dict:
    """Every committed segment's record, but for its place (``PLACE``),
    and its dictionary and postings bytes, by name."""
    man = read_json(os.path.join(idx, "index_manifest.json"))
    entries = {s["name"]: {k: v for k, v in s.items() if k not in PLACE} for s in man["segments"]}
    readers = open_segments(idx, man["segments"])
    out = {name: (entries[name], *r.raw()) for name, r in readers.items()}
    for r in readers.values():
        r.close()
    assert set(out) == set(entries)
    return out


def _packs(man: dict) -> dict[str, list[str]]:
    """Each committed pack's member names, from the manifest's records."""
    out: dict[str, list[str]] = {}
    for s in man["segments"]:
        out.setdefault(s["pack"], []).append(s["name"])
    return out


def _segment_fds(idx: str) -> int:
    """Open file descriptors of this process under ``segments/``."""
    root = segments_dir(idx)
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(os.path.join("/proc/self/fd", fd)).startswith(root)
        except OSError:
            pass
    return n


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
    write the same segments, byte for byte, one pack per batch."""
    d, cfg = mixed
    runs = {}
    for cpus in (1, 64):
        monkeypatch.setattr(build, "_cluster_cpus", lambda c=cpus: c)
        idx = str(tmp_path_factory.mktemp(f"index_batches{cpus}"))
        man = build_index(d, idx, cfg)
        assert len(_packs(man)) == man["metrics"]["phase_b_batches"]
        assert len(pack_files(man)) == len(os.listdir(segments_dir(idx)))
        runs[cpus] = man["metrics"], _segment_bytes(idx)
    m1, m64 = runs[1][0], runs[64][0]
    n_seg = m1["segments_built"]
    assert len(runs[1][1]) == n_seg > cfg.term_partitions  # salted
    # several batches per block, and batches of several segments
    assert m1["phase_b_tasks"] < m1["phase_b_batches"] < n_seg
    assert m64["phase_b_batches"] == n_seg
    assert runs[1][1] == runs[64][1]


def test_phase_b_stage_times_sum_within_batch_time(mixed, tmp_path_factory, monkeypatch):
    """Each encode batch times its read, encode and write steps; together
    they are the batch's wall time, so their sums stay within
    ``phase_b_batch_sec``'s (up to the 4-decimal rounding)."""
    d, cfg = mixed
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    m = build_index(d, str(tmp_path_factory.mktemp("index_stages")), cfg)["metrics"]
    stages = m["phase_b_stage_sec"]
    assert set(stages) == {"read", "encode", "write"}
    assert sum(st["sum"] for st in stages.values()) <= m["phase_b_batch_sec"]["sum"] + 2e-4
    for st in stages.values():
        assert 0 < st["p50"] <= st["max"] <= m["phase_b_batch_sec"]["max"] + 1e-4


def _packs_of_killed_build(d, cfg, idx, monkeypatch) -> None:
    """A build killed after its packs' renames and before the manifest
    swap: it leaves every pack and no commit."""

    write = build.write_json_atomic

    def killed(path, obj):
        if path.endswith("index_manifest.json"):
            raise RuntimeError("killed before the manifest swap")
        write(path, obj)

    with monkeypatch.context() as m:
        m.setattr(build, "write_json_atomic", killed)
        with pytest.raises(RuntimeError, match="killed before"):
            build_index(d, idx, cfg)
    assert not os.path.exists(os.path.join(idx, "index_manifest.json"))


def test_kill_after_pack_rename_resumes_from_the_toc(mixed, tmp_path_factory, monkeypatch):
    """A re-run after a kill between the pack renames and the manifest swap
    resumes every segment from the packs' tables of contents: nothing is
    re-encoded, the bytes equal a clean build's and so does ``topk``."""
    d, cfg = mixed
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    clean = str(tmp_path_factory.mktemp("index_clean"))
    want_man = build_index(d, clean, cfg)
    idx = str(tmp_path_factory.mktemp("index_killed"))
    _packs_of_killed_build(d, cfg, idx, monkeypatch)
    man = build_index(d, idx, cfg)
    m = man["metrics"]
    assert (m["segments_built"], m["phase_b_batches"], m["phase_b_tasks"]) == (0, 0, 0)
    assert m["segments_resumed"] == len(man["segments"])
    assert man["segments"] == want_man["segments"]  # records: packs and offsets too
    assert _segment_bytes(idx) == _segment_bytes(clean)
    qs = _hot_queries(clean, 16, seed=3)
    a, b = IndexReader(clean), IndexReader(idx)
    assert _answers(a, qs) == _answers(b, qs)
    a.close()
    b.close()


def test_a_truncated_trailer_or_missing_post_is_rebuilt(mixed, tmp_path_factory, monkeypatch):
    """A pack whose ``.tdict`` trailer is cut short, or whose ``.post`` is
    gone, is not resumed: its members are encoded again, byte-identical,
    and every other pack's members resume."""
    d, cfg = mixed
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    idx = str(tmp_path_factory.mktemp("index_torn"))
    man = build_index(d, idx, cfg)
    want = _segment_bytes(idx)
    members = _packs(man)
    packs = sorted(members, key=lambda p: -len(members[p]))[:2]
    torn = [len(members[p]) for p in packs]
    assert min(torn) >= 2
    os.remove(os.path.join(idx, "index_manifest.json"))
    tdict = os.path.join(segments_dir(idx), packs[0] + ".tdict")
    with open(tdict, "r+b") as f:
        f.truncate(os.path.getsize(tdict) - 3)
    os.remove(os.path.join(segments_dir(idx), packs[1] + ".post"))
    new = build_index(d, idx, cfg)
    m = new["metrics"]
    assert m["segments_built"] == sum(torn)
    assert m["segments_resumed"] == len(man["segments"]) - sum(torn)
    assert not set(packs) & set(_packs(new))
    assert _segment_bytes(idx) == want
    assert sorted(os.listdir(segments_dir(idx))) == sorted(
        os.path.basename(f) for f in pack_files(new)
    )


def test_a_removed_packs_members_alone_are_rebuilt(mixed, tmp_path_factory, monkeypatch):
    """With the commit and one pack gone, a rebuild resumes every segment
    of the other packs and writes the missing pack's members again,
    byte-identical."""
    d, cfg = mixed
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    idx = str(tmp_path_factory.mktemp("index_rebuild_one"))
    man = build_index(d, idx, cfg)
    want = _segment_bytes(idx)
    members = _packs(man)
    gone = sorted(members, key=lambda p: -len(members[p]))[0]
    n_gone = len(members[gone])
    os.remove(os.path.join(idx, "index_manifest.json"))
    for ext in (".tdict", ".post"):
        os.remove(os.path.join(segments_dir(idx), gone + ext))
    m = build_index(d, idx, cfg)["metrics"]
    assert m["segments_built"] == n_gone > 1
    assert m["segments_resumed"] == len(man["segments"]) - n_gone
    assert m["phase_a_tasks"] == 0 and m["parts_resumed"] == len(man["input_fingerprints"])
    assert _segment_bytes(idx) == want


def test_a_reader_holds_two_fds_per_pack(ray_session, tmp_path_factory, monkeypatch):
    """An ``IndexReader`` of a T=64 build holds at most two file
    descriptors per pack under ``segments/`` (one per mapped file), not
    two per segment, and so does one opened after a purge merge."""
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    d = str(tmp_path_factory.mktemp("pages_fds"))
    write_pages(d, 512, seed=19, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_fds"))
    cfg = IndexConfig(term_partitions=64, target_docs_per_part=128, text_from_html=False)
    man = build_index(d, idx, cfg)
    assert len(man["segments"]) == 64
    for step in ("build", "purge"):
        base = _segment_fds(idx)
        r = IndexReader(idx)
        r.topk(" ".join(_hot_queries(idx, 4, seed=2)), 10)
        held = _segment_fds(idx) - base
        assert 0 < held <= 2 * len(_packs(man)) < len(man["segments"]), step
        urls = r.urls_for(np.array([1, (1 << 32) + 2], dtype=np.int64))
        r.close()
        assert _segment_fds(idx) == base
        if step == "build":
            assert delete_by_url(idx, urls) == 2
            man = merge_segments(idx, purge_deletes=True)
            assert len(man["segments"]) == 64


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


def _assert_records_are_toc_members(idx: str, man: dict) -> None:
    """Each committed segment record equals its member in its pack's TOC,
    the manifest keeps no other copy of it (no ``packs`` map, no
    ``skey``), and every pack file under ``segments/`` is named by some
    record."""
    assert "packs" not in man and not any("skey" in s for s in man["segments"])
    toc = {}
    for f in pack_files(man):
        if f.endswith(".tdict"):
            toc.update({m["name"]: m for m in segment._read_toc(os.path.join(idx, f[: -len(".tdict")]))["members"]})
    for s in man["segments"]:
        assert s == toc[s["name"]], s["name"]
    assert sorted(os.listdir(segments_dir(idx))) == sorted(os.path.basename(f) for f in pack_files(man))


def test_manifest_records_are_the_packs_toc_members(ray_session, tmp_path_factory):
    """After a cold build, an upsert, a tiered merge and a purge, the
    manifest's segment records are the packs' TOC members. After each
    build (cold or upsert), a copy of the index with ``index_manifest.json``
    removed resumes every segment from the TOCs and commits the same
    records. (A merge's records are not a build's plan, so a build after
    a merge re-encodes its plan's segments.)"""
    d = str(tmp_path_factory.mktemp("pages_records"))
    write_pages(d, 512, seed=23, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_records"))
    cfg = IndexConfig(
        term_partitions=4, target_docs_per_part=128, max_postings_per_segment=6000, text_from_html=False
    )

    def assert_resumes(man, step):
        copy = str(tmp_path_factory.mktemp(f"index_records_{step}"))
        shutil.rmtree(copy)
        shutil.copytree(idx, copy)
        os.remove(os.path.join(copy, "index_manifest.json"))
        again = build_index(d, copy, cfg)
        assert again["metrics"]["segments_built"] == 0, step
        assert again["segments"] == man["segments"], step

    man = build_index(d, idx, cfg)
    assert len(man["segments"]) > cfg.term_partitions  # salted: merges fold
    _assert_records_are_toc_members(idx, man)
    assert_resumes(man, "build")

    man = upsert_pages(d, idx, pages_table(16, seed=23, start=40), cfg)
    assert man["metrics"]["segments_resumed"] > 0  # untouched salts keep their records
    _assert_records_are_toc_members(idx, man)
    assert_resumes(man, "upsert")

    man = merge_segments(idx, target_per_tkey=1, merge_factor=4)
    assert len(man["segments"]) == cfg.term_partitions
    _assert_records_are_toc_members(idx, man)

    man = merge_segments(idx, purge_deletes=True)
    assert all(s["salt"] == -1 for s in man["segments"])
    _assert_records_are_toc_members(idx, man)


def _records(man: dict) -> dict:
    """The manifest's segment records but for their place (``PLACE``)."""
    return {s["name"]: {k: v for k, v in s.items() if k not in PLACE} for s in man["segments"]}


def _assert_topk_is_exhaustive(idx: str, n: int, seed: int) -> None:
    r = IndexReader(idx)
    for q in _hot_queries(idx, n, seed):
        d1, s1 = r.topk(q, 10)
        d2, s2 = r.topk_exhaustive(q, 10)
        assert d1.tolist() == d2.tolist() and s1.tobytes() == s2.tobytes(), q
    r.close()


#: (config, pages of each of three upserts): the bench config; no
#: positions; a multi-field schema; and segments salted so small that the
#: second upsert starts a new salt chunk in every tkey while the others
#: extend the last one
EXTEND_CASES = {
    "bench": (IndexConfig(term_partitions=64, target_docs_per_part=4096, text_from_html=False), (64, 64, 64)),
    "no_positions": (
        IndexConfig(term_partitions=8, target_docs_per_part=128, store_positions=False, text_from_html=False),
        (64, 64, 64),
    ),
    "multi_field": (
        IndexConfig(
            term_partitions=8,
            target_docs_per_part=128,
            fields=(FieldSpec("url", source="url"), FieldSpec("body", source="text"), FieldSpec("all", copy_sources=("url", "body"))),
        ),
        (64, 64, 64),
    ),
    "salted": (
        IndexConfig(term_partitions=4, target_docs_per_part=128, max_postings_per_segment=9000, text_from_html=False),
        (64, 300, 64),
    ),
}


@pytest.mark.parametrize("case", sorted(EXTEND_CASES))
def test_upserts_extend_to_the_bytes_of_a_cold_build(case, ray_session, tmp_path_factory, monkeypatch):
    """After three upserts, each of which extends every segment it
    rebuilds, every committed segment's record (but for its place) and
    bytes equal a cold build's of the same corpus, and ``topk`` equals
    ``topk_exhaustive`` bit for bit. The extensions encoded the new
    postings and a few old ones, not the index."""
    cfg, sizes = EXTEND_CASES[case]
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    d = str(tmp_path_factory.mktemp(f"pages_extend_{case}"))
    write_pages(d, 512, seed=29, rows_per_file=256)
    idx = str(tmp_path_factory.mktemp(f"index_extend_{case}"))
    m = build_index(d, idx, cfg)["metrics"]
    assert (m["segments_extended"], m["postings_encoded"]) == (0, m["n_postings"])
    for u, n in enumerate(sizes):
        before = m["n_postings"]
        man = upsert_pages(d, idx, pages_table(n, seed=29, start=40 + 100 * u), cfg)
        m = man["metrics"]
        n_new = m["n_postings"] - before
        if case == "salted" and u == 1:  # a new chunk per tkey: nothing to extend
            assert m["segments_extended"] == 0 and m["segments_built"] == cfg.term_partitions
            assert m["postings_encoded"] == n_new
        else:
            assert m["segments_extended"] == m["segments_built"] == cfg.term_partitions
            assert n_new < m["postings_encoded"] < before
    cold = str(tmp_path_factory.mktemp(f"index_extend_{case}_cold"))
    want = build_index(d, cold, cfg)
    assert _records(man) == _records(want)
    assert _segment_bytes(idx) == _segment_bytes(cold)
    _assert_topk_is_exhaustive(idx, 24, seed=case == "bench")


def test_plan_rule_resumes_extends_or_encodes(ray_session, tmp_path_factory, monkeypatch):
    """One plan rule: a 64-page upsert extends 64 of 64 segments; a rebuild
    of unchanged inputs resumes all of them; after a purge merge (whose
    segments are no phase-B source prefix) an upsert extends none and
    encodes every posting."""
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    cfg = IndexConfig(term_partitions=64, target_docs_per_part=4096, text_from_html=False)
    d = str(tmp_path_factory.mktemp("pages_plan_rule"))
    write_pages(d, 512, seed=31, rows_per_file=256)
    idx = str(tmp_path_factory.mktemp("index_plan_rule"))
    build_index(d, idx, cfg)
    m = upsert_pages(d, idx, pages_table(64, seed=31, start=8), cfg)["metrics"]
    assert (m["segments_built"], m["segments_extended"], m["segments_resumed"]) == (64, 64, 0)
    os.remove(os.path.join(idx, "index_manifest.json"))
    m = build_index(d, idx, cfg)["metrics"]
    assert (m["segments_built"], m["segments_extended"], m["segments_resumed"]) == (0, 0, 64)
    assert m["postings_encoded"] == 0
    # (the removed manifest held the upsert's deletes)
    assert delete_by_url(idx, pages_table(8, seed=31, start=300).column("url").to_pylist()) == 8
    assert all(s["salt"] == -1 for s in merge_segments(idx, purge_deletes=True)["segments"])
    man = upsert_pages(d, idx, pages_table(64, seed=31, start=200), cfg)
    m = man["metrics"]
    assert (m["segments_built"], m["segments_extended"], m["segments_resumed"]) == (64, 0, 0)
    assert m["postings_encoded"] == m["n_postings"]


def test_a_truncated_base_is_not_extended(mixed, tmp_path_factory, monkeypatch):
    """A committed pack whose ``.post`` was cut short is no base: an
    upsert encodes its members' segments from ``postings_raw``, extends
    the others, and commits a cold build's segments."""
    d, cfg = mixed
    d2 = str(tmp_path_factory.mktemp("pages_torn_base"))
    shutil.rmtree(d2)
    shutil.copytree(d, d2)
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    idx = str(tmp_path_factory.mktemp("index_torn_base"))
    man = build_index(d2, idx, cfg)
    members = _packs(man)
    torn = sorted(members, key=lambda p: -len(members[p]))[0]
    post = os.path.join(segments_dir(idx), torn + ".post")
    with open(post, "r+b") as f:
        f.truncate(os.path.getsize(post) - 5)
    new = upsert_pages(d2, idx, pages_table(24, seed=13, start=7), cfg)
    m, part = new["metrics"], man["stats"]["n_doc_parts"]  # the upsert's part id
    # a segment that holds the new part and older ones grew from its salt's
    # previous record, which the torn pack may hold
    prev = {(s["tkey"], s["salt"]): s for s in man["segments"]}
    holds_new = [s for s in new["segments"] if s["part_hi"] == part + 1]
    grown = [prev[(s["tkey"], s["salt"])] for s in holds_new if s["part_lo"] < part]
    n_torn_bases = sum(b["pack"] == torn for b in grown)
    assert n_torn_bases >= 1 and len(grown) > n_torn_bases
    assert m["segments_extended"] == len(grown) - n_torn_bases
    assert m["segments_built"] == len(holds_new) + len(members[torn]) - n_torn_bases
    cold = str(tmp_path_factory.mktemp("index_torn_base_cold"))
    want = build_index(d2, cold, cfg)
    assert _records(read_json(os.path.join(idx, "index_manifest.json"))) == _records(want)
    assert _segment_bytes(idx) == _segment_bytes(cold)


def test_kill_after_an_extending_packs_rename_resumes_it(mixed, tmp_path_factory, monkeypatch):
    """An upsert killed after its extending batches' pack renames and
    before the manifest swap: the re-run resumes every written pack (it
    encodes nothing) and commits what an uninterrupted upsert commits."""
    d, cfg = mixed
    d2 = str(tmp_path_factory.mktemp("pages_kill_extend"))
    shutil.rmtree(d2)
    shutil.copytree(d, d2)
    monkeypatch.setattr(build, "_cluster_cpus", lambda: 1)
    idx = str(tmp_path_factory.mktemp("index_kill_extend"))
    build_index(d2, idx, cfg)
    clean = str(tmp_path_factory.mktemp("index_kill_extend_clean"))
    shutil.rmtree(clean)
    shutil.copytree(idx, clean)
    pages = pages_table(24, seed=13, start=11)

    with monkeypatch.context() as mp:
        write = build.write_json_atomic

        def killed(path, obj):
            if path.endswith("index_manifest.json"):
                raise RuntimeError("killed before the manifest swap")
            write(path, obj)

        mp.setattr(build, "write_json_atomic", killed)
        with pytest.raises(RuntimeError, match="killed before"):
            upsert_pages(d2, idx, pages, cfg)
    man = build_index(d2, idx, cfg)
    m = man["metrics"]
    assert (m["segments_built"], m["segments_extended"], m["postings_encoded"]) == (0, 0, 0)
    assert m["segments_resumed"] == len(man["segments"])

    delete_by_url(clean, pages.column("url").to_pylist())  # what upsert_pages did before the build
    want = build_index(d2, clean, cfg)
    assert want["metrics"]["segments_extended"] > cfg.term_partitions // 2
    assert man["segments"] == want["segments"]  # records: packs and offsets too
    assert _segment_bytes(idx) == _segment_bytes(clean)
