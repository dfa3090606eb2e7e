"""End-to-end index build + BM25 query conformance (FIXTURES.md invariants 3-6).

The oracle here is an independent single-partition brute-force scorer that
shares only the frozen math module (lucene.py) with the engine — the
"control" side of the reference's BaseDistributedSearchTestCase pattern.
"""

import json
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apache___solr_ray.analyze import Analyzer
from apache___solr_ray.build import IndexConfig, build_index, plan_partitions
from apache___solr_ray.corpus import pages_table, write_pages
from apache___solr_ray.lucene import BM25Scorer, int_to_byte4_array
from apache___solr_ray.manifest import read_json
from apache___solr_ray.query import IndexReader, QueryService, TopKQueryActor, merge_topk
from apache___solr_ray.segment import open_segments, pack_files, segments_dir

N_DOCS = 600
ROWS_PER_FILE = 256
QUERIES = [
    "the fast data",
    "zaku",                     # likely head-ish synthetic term
    "example.com",
    "DON'T Stop",               # case + apostrophe through the chain
    "no_such_term_xyzzy",
    "state of the art pipeline merge",
    "3.14 1,000",
    "http https utf-8",
]
#: a QUERIES entry whose terms match docs in every doc part
SERVE_Q = QUERIES[5]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages"))
    write_pages(d, N_DOCS, seed=42, rows_per_file=ROWS_PER_FILE)
    return d


@pytest.fixture(scope="module")
def built(ray_session, corpus_dir, tmp_path_factory):
    """Build with doc-range splitting forced (small
    max_postings_per_segment => salted sub-segments exist)."""
    idx = str(tmp_path_factory.mktemp("index"))
    cfg = IndexConfig(
        term_partitions=4,
        target_docs_per_part=ROWS_PER_FILE,
        max_postings_per_segment=6000,
    )
    man = build_index(corpus_dir, idx, cfg)
    return idx, cfg, man


@pytest.fixture(scope="module")
def oracle(corpus_dir):
    """Brute-force scorer over the raw corpus with engine-identical doc ids."""
    pages = pages_table(N_DOCS, seed=42)
    parts = plan_partitions(
        sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)), ROWS_PER_FILE
    )
    doc_ids = np.concatenate(
        [(p["part_id"] << 32) + np.arange(p["n_rows"], dtype=np.int64) for p in parts]
    )
    analyzer = Analyzer()
    toks = [analyzer.analyze(t) for t in pages.column("text").to_pylist()]
    doc_len = np.array([len(t) for t in toks], dtype=np.int64)
    norms = int_to_byte4_array(doc_len)
    doc_count = len(toks)
    sum_tf = int(doc_len.sum())
    tf_maps = [Counter(t) for t in toks]
    df = Counter()
    for m in tf_maps:
        df.update(m.keys())

    def topk(query, k=10):
        q = Counter(analyzer.analyze(query))
        acc: dict[int, float] = {}
        for term, boost in q.items():
            if df[term] == 0:
                continue
            sc = BM25Scorer(df[term], doc_count, sum_tf, boost=float(boost))
            for i, m in enumerate(tf_maps):
                tf = m.get(term)
                if tf:
                    s = float(
                        sc.score(np.array([tf]), np.array([norms[i]], dtype=np.uint8))[0]
                    )
                    acc[i] = acc.get(i, 0.0) + s  # float64 accumulate
        items = [(int(doc_ids[i]), np.float32(v)) for i, v in acc.items()]
        items.sort(key=lambda x: (-x[1], x[0]))
        items = items[:k]
        return (
            np.array([d for d, _ in items], dtype=np.int64),
            np.array([s for _, s in items], dtype=np.float32),
        )

    return topk


def test_build_commits(built):
    idx, cfg, man = built
    assert os.path.exists(os.path.join(idx, "index_manifest.json"))
    assert man["stats"]["doc_count"] == N_DOCS
    assert man["metrics"]["n_docs"] == N_DOCS
    assert len(man["segments"]) >= 1
    assert any(s["salt"] > 0 for s in man["segments"])  # doc-range splitting exercised


def test_rank_and_score_parity_vs_oracle(built, oracle):
    idx, _, _ = built
    r = IndexReader(idx)
    for q in QUERIES:
        want_d, want_s = oracle(q, 10)
        got_d, got_s = r.topk_exhaustive(q, 10)
        assert got_d.tolist() == want_d.tolist(), f"doc ids differ for {q!r}"
        assert got_s.tolist() == want_s.tolist(), f"scores differ for {q!r} (must be bit-identical)"


def test_topk_equals_exhaustive(built):
    idx, _, _ = built
    r = IndexReader(idx)
    for q in QUERIES:
        d1, s1 = r.topk_exhaustive(q, 10)
        d2, s2 = r.topk(q, 10)
        assert d1.tolist() == d2.tolist(), q
        assert s1.tolist() == s2.tolist(), q


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_query_service_equals_single(built, n_shards):
    """QueryService (doc-range shard actors, broadcast global df, mergeIds)
    is rank- and score-identical to the single evaluator, per query and
    striped across replica groups."""
    idx, _, _ = built
    r = IndexReader(idx)
    want = [r.topk(q, 10) for q in QUERIES]
    svc = QueryService(idx, n_shards=n_shards)
    try:
        svc.warmup()
        for q, (d1, s1) in zip(QUERIES, want):
            d2, s2, partial, n = svc.topk(q, 10)
            assert not partial and n == n_shards, q
            assert d1.tolist() == d2.tolist(), q
            assert s1.tolist() == s2.tolist(), q
        many = svc.topk_many(QUERIES + QUERIES[::-1], 10)
        for (d1, s1), (d2, s2) in zip(want + want[::-1], many, strict=True):
            assert d1.tolist() == d2.tolist()
            assert s1.tolist() == s2.tolist()
    finally:
        svc.shutdown()


def test_query_service_one_shard_skips_df_broadcast(built):
    """With one shard, local df is global df: the coordinator broadcasts an
    empty df map and never reads term dictionaries, and the answers still
    equal IndexReader.topk."""
    idx, _, _ = built
    r = IndexReader(idx)
    want = [r.topk(q, 10) for q in QUERIES]
    svc = QueryService(idx, n_shards=1)

    def no_df(query):
        raise AssertionError(f"df map computed for {query!r} with one shard")

    svc._stats.term_stats_map = no_df
    try:
        got = [svc.topk(q, 10)[:2] for q in QUERIES] + svc.topk_many(QUERIES, 10)
        for (d1, s1), (d2, s2) in zip(want + want, got, strict=True):
            assert d1.tolist() == d2.tolist()
            assert s1.tolist() == s2.tolist()
    finally:
        svc.shutdown()


def test_local_df_diverges_and_broadcast_df_matches(built):
    """LocalStatsCache vs ExactStatsCache: a doc-range shard scoring with
    its own df ranks differently from the single index, while the same
    shards scoring with the coordinator's broadcast df merge to exactly
    IndexReader.topk."""
    idx, _, man = built
    assert any(s["salt"] > 0 for s in man["segments"])
    full = IndexReader(idx)
    n_parts = full.n_doc_parts
    assert n_parts == 3
    shards = [IndexReader(idx, part_range=(p, p + 1)) for p in range(n_parts)]
    diverged = 0
    for q in QUERIES:
        want_d, want_s = full.topk(q, 10)
        stats = full.term_stats_map(q)
        local = [sh.topk(q, 10) for sh in shards]
        exact = [sh.topk(q, 10, df_override=stats) for sh in shards]
        d, s = merge_topk(exact, 10)
        assert d.tolist() == want_d.tolist(), q
        assert s.tolist() == want_s.tolist(), q
        diverged += merge_topk(local, 10)[1].tolist() != want_s.tolist()
    assert diverged >= 1


def test_query_service_more_shards_than_cpus(ray_session, tmp_path):
    """More shards than the session's 4 CPUs: every actor reserves a CPU
    share, so the service warms up and answers within its deadline."""
    import threading

    corpus = str(tmp_path / "pages")
    write_pages(corpus, 384, seed=42, rows_per_file=64)
    idx = str(tmp_path / "index")
    build_index(corpus, idx, IndexConfig(term_partitions=2, target_docs_per_part=64))
    r = IndexReader(idx)
    n_parts = r.n_doc_parts
    assert n_parts > 4
    svc = QueryService(idx, n_shards=n_parts)
    try:
        th = threading.Thread(target=svc.warmup, daemon=True)
        th.start()
        th.join(timeout=60)
        assert not th.is_alive(), "shard actors were never scheduled"
        for q in QUERIES[:3]:
            d, s, partial, n = svc.topk(q, 10, deadline_s=60)
            assert not partial and n == n_parts, q
            want_d, want_s = r.topk(q, 10)
            assert d.tolist() == want_d.tolist() and s.tolist() == want_s.tolist(), q
    finally:
        svc.shutdown()


def test_control_vs_distributed_partitioning(ray_session, corpus_dir, built, tmp_path_factory):
    """1-partition control build == N-partition build (identical results)."""
    idx_n, _, _ = built
    idx_1 = str(tmp_path_factory.mktemp("index1"))
    cfg1 = IndexConfig(term_partitions=1, target_docs_per_part=10**6)
    build_index(corpus_dir, idx_1, cfg1)
    rn, r1 = IndexReader(idx_n), IndexReader(idx_1)
    for q in QUERIES:
        dn, sn = rn.topk(q, 10)
        d1, s1 = r1.topk(q, 10)
        # doc ids differ across partitionings; urls and scores must not
        assert sn.tolist() == s1.tolist(), q
        # compare url sets per score level (tie order may legally differ)
        un, u1 = rn.urls_for(dn), r1.urls_for(d1)
        by_score_n, by_score_1 = {}, {}
        for s, u in zip(sn.tolist(), un):
            by_score_n.setdefault(s, set()).add(u)
        for s, u in zip(s1.tolist(), u1):
            by_score_1.setdefault(s, set()).add(u)
        assert by_score_n == by_score_1, q


def test_resume_skips_completed_partitions(ray_session, corpus_dir, built, tmp_path_factory):
    idx, cfg, man0 = built
    # full skip: identical config + input -> committed manifest returned
    man1 = build_index(corpus_dir, idx, cfg)
    assert man1["segments"] == man0["segments"]
    # partial resume: remove the commit point and one pack, rebuild
    os.remove(os.path.join(idx, "index_manifest.json"))
    for rel in pack_files(man0)[:2]:  # the first pack's .tdict and .post
        os.remove(os.path.join(idx, rel))
    man2 = build_index(corpus_dir, idx, cfg)
    assert man2["metrics"]["parts_resumed"] == man2["stats"]["n_doc_parts"]  # no re-tokenize
    assert man2["segments"] == man0["segments"]
    r = IndexReader(idx)
    d, s = r.topk(QUERIES[0], 10)
    assert len(d) > 0


def test_determinism_two_builds(ray_session, corpus_dir, built, tmp_path_factory):
    idx_a, cfg, man_a = built
    idx_b = str(tmp_path_factory.mktemp("indexb"))
    man_b = build_index(corpus_dir, idx_b, cfg)
    assert man_a["segments"] == man_b["segments"]
    assert man_a["stats"] == man_b["stats"]
    assert man_a["input_fingerprints"] == man_b["input_fingerprints"]


def test_query_actor_batch(ray_session, built):
    import ray.data as rd

    idx, _, _ = built
    qds = rd.from_items(
        [{"qid": i, "query": q, "k": 5} for i, q in enumerate(QUERIES)]
    )
    out = qds.map_batches(
        TopKQueryActor,
        fn_constructor_kwargs={"index_dir": idx},
        batch_format="pyarrow",
        concurrency=2,
        batch_size=4,
    ).take_all()
    by_qid = {}
    for row in out:
        by_qid.setdefault(row["qid"], []).append(row)
    r = IndexReader(idx)
    for qid, rows in by_qid.items():
        rows.sort(key=lambda x: x["rank"])
        d, s = r.topk(QUERIES[qid], 5)
        assert [row["doc_id"] for row in rows] == d.tolist()
        assert [np.float32(row["score"]) for row in rows] == s.tolist()


def test_merge_topk_tiebreak():
    a = (np.array([5, 1]), np.array([2.0, 1.0], dtype=np.float32))
    b = (np.array([3]), np.array([2.0], dtype=np.float32))
    d, s = merge_topk([a, b], 3)
    assert d.tolist() == [3, 5, 1]  # score desc, doc asc on the tie


def test_incremental_append_build(ray_session, tmp_path_factory):
    """Appending new Parquet partitions and re-running the build must (a)
    not re-tokenize old partitions (phase-A manifests), (b) reuse every
    segment whose (tkey, salt) doc-range chunk is unchanged — the storage
    shuffle's chunking is prefix-stable because new parts only append to
    the end of each bucket's part sequence (the TieredMergePolicy-style
    incremental path, SURVEY §2.9 / §7.1 step 9)."""
    import json

    d = str(tmp_path_factory.mktemp("pages_inc"))
    write_pages(d, 384, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_inc"))
    cfg = IndexConfig(
        term_partitions=4, target_docs_per_part=128, max_postings_per_segment=6000
    )
    man1 = build_index(d, idx, cfg)
    segs1 = {s["name"]: s for s in man1["segments"]}

    # append one more file of new docs (ids 384..511)
    write_pages(d, 512, seed=42, rows_per_file=128)
    man2 = build_index(d, idx, cfg)

    assert man2["metrics"]["parts_resumed"] == 3  # the 3 old parts
    assert man2["stats"]["doc_count"] == 512
    # the strictly-full old chunks survive byte-identical; only each
    # bucket's tail chunk (+ new chunks) rebuilt
    segs2 = {s["name"]: s for s in man2["segments"]}
    reused = [n for n in segs1 if n in segs2 and segs1[n] == segs2[n]]
    assert len(reused) >= 1, "no segment reused on append"

    # correctness after append == fresh build of the full corpus
    idx_fresh = str(tmp_path_factory.mktemp("index_fresh"))
    build_index(d, idx_fresh, cfg)
    r_inc, r_fresh = IndexReader(idx), IndexReader(idx_fresh)
    for q_ in QUERIES:
        d1, s1 = r_inc.topk(q_, 10)
        d2, s2 = r_fresh.topk(q_, 10)
        assert d1.tolist() == d2.tolist(), q_
        assert s1.tolist() == s2.tolist(), q_


def test_boolean_and_and_filtered_topk(built, corpus_dir):
    """AND-match set and filtered (fq) top-k vs brute force over the raw
    corpus — the q+fq and required-clause request shapes."""
    idx, _, _ = built
    r = IndexReader(idx)
    pages = pages_table(N_DOCS, seed=42)
    analyzer = Analyzer()
    toks = [set(analyzer.analyze(t)) for t in pages.column("text").to_pylist()]
    langs = pages.column("lang").to_pylist()
    parts = plan_partitions(
        sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)), ROWS_PER_FILE
    )
    doc_ids = np.concatenate(
        [(p["part_id"] << 32) + np.arange(p["n_rows"], dtype=np.int64) for p in parts]
    )

    # AND semantics
    q_and = "the data"
    terms = set(analyzer.analyze(q_and))
    want = sorted(int(doc_ids[i]) for i, tk in enumerate(toks) if terms <= tk)
    got = sorted(int(x) for x in r.match_docs(q_and, mode="and"))
    assert got == want

    # OR semantics
    want_or = sorted(int(doc_ids[i]) for i, tk in enumerate(toks) if terms & tk)
    got_or = sorted(int(x) for x in r.match_docs(q_and, mode="or"))
    assert got_or == want_or

    # filtered top-k: rank only lang == 'en'; equals unfiltered rank
    # computed over the en-subset by exhaustive scoring
    allowed = r.doc_filter_mask("lang", "en")
    for q_ in QUERIES[:4]:
        d_f, s_f = r.topk(q_, 10, allowed=allowed)
        # every hit is en
        for d in d_f:
            part, row = int(d) >> 32, int(d) & 0xFFFFFFFF
            # recompute lang from the corpus row order
            gidx = int(np.flatnonzero(doc_ids == d)[0])
            assert langs[gidx] == "en", q_
        # and no non-filtered doc with a better score was skipped wrongly:
        d_all, s_all = r.topk_exhaustive(q_, 10**9)
        mask = allowed(d_all)
        d_e, s_e = d_all[mask][:10], s_all[mask][:10]
        assert d_f.tolist() == d_e.tolist(), q_
        assert s_f.tolist() == s_e.tolist(), q_


def test_match_docs_min_should_match_equals_brute_count(built, corpus_dir, tmp_path):
    """``match_docs(min_should_match=m)`` keeps the docs holding at least m
    distinct query terms (a brute-force per-doc count over the raw corpus)
    for m = 1, 2 and all terms; "or" and "and" are m = 1 and m = all. A
    deleted doc that matches 2 of 3 terms drops out."""
    from apache___solr_ray.deletes import delete_by_url

    idx, _, _ = built
    pages = pages_table(N_DOCS, seed=42)
    analyzer = Analyzer()
    toks = [set(analyzer.analyze(t)) for t in pages.column("text").to_pylist()]
    parts = plan_partitions(
        sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)), ROWS_PER_FILE
    )
    doc_ids = np.concatenate(
        [(p["part_id"] << 32) + np.arange(p["n_rows"], dtype=np.int64) for p in parts]
    )
    q_ = "vesube goso mudsaruzit goso"
    terms = set(analyzer.analyze(q_))
    assert len(terms) == 3
    count = np.array([len(terms & tk) for tk in toks])
    assert (np.bincount(count, minlength=4) > 0).all()  # every count 0-3 occurs
    r = IndexReader(idx)
    for m in (1, 2, 3):
        want = np.sort(doc_ids[count >= m]).tolist()
        assert r.match_docs(q_, min_should_match=m).tolist() == want, m
    assert r.match_docs(q_, mode="or").tolist() == np.sort(doc_ids[count >= 1]).tolist()
    assert r.match_docs(q_, mode="and").tolist() == np.sort(doc_ids[count >= 3]).tolist()

    copy = str(tmp_path / "index")
    shutil.copytree(idx, copy)
    victim = int(doc_ids[np.flatnonzero(count == 2)[0]])
    assert delete_by_url(copy, IndexReader(copy).urls_for(np.array([victim]))) == 1
    got = IndexReader(copy).match_docs(q_, min_should_match=2).tolist()
    assert got == [d for d in np.sort(doc_ids[count >= 2]).tolist() if d != victim]


def test_grouped_topk(built, corpus_dir):
    """Result grouping: per-lang top-3 equals brute-force per-lang ranking."""
    idx, _, _ = built
    r = IndexReader(idx)
    pages = pages_table(N_DOCS, seed=42)
    langs = pages.column("lang").to_pylist()
    parts = plan_partitions(
        sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)), ROWS_PER_FILE
    )
    doc_ids = np.concatenate(
        [(p["part_id"] << 32) + np.arange(p["n_rows"], dtype=np.int64) for p in parts]
    )
    lang_of = {int(d): langs[i] for i, d in enumerate(doc_ids)}
    q_ = "the fast data"
    groups = r.grouped_topk(q_, "lang", k_per_group=3)
    d_all, s_all = r.topk_exhaustive(q_, 10**9)
    for g, (dg, sg) in groups.items():
        mask = np.array([lang_of[int(d)] == g for d in d_all])
        want_d = d_all[mask][:3]
        want_s = s_all[mask][:3]
        assert dg.tolist() == want_d.tolist(), g
        assert sg.tolist() == want_s.tolist(), g
    assert set(groups) == {lang_of[int(d)] for d in d_all}


def test_topic_poll_incremental(ray_session, tmp_path_factory):
    """TopicStream semantics: poll, append new docs, re-poll from the
    checkpoint -> exactly the new matches, no replays."""
    d = str(tmp_path_factory.mktemp("pages_topic"))
    write_pages(d, 256, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_topic"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=128)
    build_index(d, idx, cfg)
    r1 = IndexReader(idx)
    q_ = "the"
    first, ckpt = r1.topic_poll(q_, checkpoint=-1, limit=10**6)
    assert len(first) > 0
    # append and rebuild (incremental: old parts resume)
    write_pages(d, 384, seed=42, rows_per_file=128)
    build_index(d, idx, cfg)
    r2 = IndexReader(idx)
    fresh, ckpt2 = r2.topic_poll(q_, checkpoint=ckpt, limit=10**6)
    allm = r2.match_docs(q_, "or")
    assert set(fresh.tolist()) == set(allm.tolist()) - set(first.tolist())
    assert all(x > ckpt for x in fresh.tolist())
    # third poll with nothing new
    again, ckpt3 = r2.topic_poll(q_, checkpoint=ckpt2, limit=10**6)
    assert len(again) == 0 and ckpt3 == ckpt2


def test_fetch_fields_and_boosted_topk(built):
    """Stored-field retrieval for winners + function-query boosting."""
    idx, _, _ = built
    r = IndexReader(idx)
    d, s = r.topk("the fast data", 5)
    t = r.fetch_fields(d, ["url", "doc_len", "lang"])
    assert t.num_rows == len(d)
    assert t.column("url").to_pylist() == r.urls_for(d)

    # boost = 1/(1+doc_len/100): shorter docs win ties; verify vs brute
    def boost(doc_ids):
        lens = r.fetch_fields(doc_ids, ["doc_len"]).column("doc_len").to_numpy()
        return 1.0 / (1.0 + lens / 100.0)

    # the boosted top-k: merge_topk over the rescaled scores of every match
    d_m, s_m = r.topk("the fast data", len(r.match_docs("the fast data")))
    db, sb = merge_topk([(d_m, (s_m.astype(np.float64) * boost(d_m)).astype(np.float32))], 10)
    d_all, s_all = r.topk_exhaustive("the fast data", 10**9)
    want = (s_all.astype(np.float64) * boost(d_all)).astype(np.float32)
    order = np.lexsort((d_all, -want.astype(np.float64)))[:10]
    assert db.tolist() == d_all[order].tolist()
    assert sb.tolist() == want[order].tolist()


@pytest.fixture(scope="module")
def doc_rows(built):
    """Every committed doc's sidecar row by doc id, read straight from the
    part files: the per-id oracle of ``doc_values``. A doc's id is
    ``(part << 32) + row``."""
    out = {}
    docs_dir = os.path.join(built[0], "docs")
    for f in sorted(os.listdir(docs_dir)):
        part = int(f[len("part-") : -len(".parquet")])
        rows = pq.read_table(os.path.join(docs_dir, f)).to_pylist()
        out.update({(part << 32) + i: row for i, row in enumerate(rows)})
    return out


@settings(max_examples=30, deadline=None)
@given(
    picks=st.lists(st.integers(0, N_DOCS - 1), max_size=60),
    col=st.sampled_from(["url", "doc_len", "lang"]),
)
def test_doc_values_equal_per_id_lookup(built, doc_rows, picks, col):
    """Unsorted, duplicated ids from several parts (or none) come back in
    the caller's order, each equal to a per-id lookup."""
    r = IndexReader(built[0])
    ids = np.array(sorted(doc_rows), dtype=np.int64)[picks]
    got = r.doc_values(ids, col)
    assert got.type == r.doc_column(0, col).type
    assert got.to_pylist() == [doc_rows[int(d)][col] for d in ids]
    t = r.fetch_fields(ids, ["url", col])
    assert t.column("url").to_pylist() == [doc_rows[int(d)]["url"] for d in ids]
    assert t.column(col).to_pylist() == got.to_pylist()


def test_doc_column_reads_only_committed_parts(built, doc_rows):
    r = IndexReader(built[0])
    assert r.n_doc_parts > 1
    ids = np.array(sorted(doc_rows, reverse=True) * 2, dtype=np.int64)
    assert r.urls_for(ids) == [doc_rows[int(d)]["url"] for d in ids]
    assert len(r.doc_column(r.n_doc_parts - 1, "url")) > 0
    for part in (-1, r.n_doc_parts):
        with pytest.raises(IndexError):
            r.doc_column(part, "url")
    with pytest.raises(IndexError):
        r.doc_values(np.array([r.n_doc_parts << 32], dtype=np.int64), "url")


def test_stale_doc_parts_are_invisible(ray_session, tmp_path_factory):
    """A rebuild with bigger doc parts removes the old layout's extra part
    files from ``docs/``; a stray one copied back in stays invisible. Only
    the committed parts count: a delete by url tombstones one doc, a
    mask-only JSON query enumerates at most ``doc_count`` docs, and the
    purge merge subtracts one doc."""
    from apache___solr_ray.deletes import delete_by_url
    from apache___solr_ray.jsonquery import json_query_docs
    from apache___solr_ray.merge import merge_segments

    d = str(tmp_path_factory.mktemp("pages_stale"))
    write_pages(d, 600, seed=42, rows_per_file=600, row_group_size=100)
    idx = str(tmp_path_factory.mktemp("index_stale"))
    build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=128))
    man = build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=1024))
    assert man["stats"]["n_doc_parts"] == 1
    docs = os.path.join(idx, "docs")
    assert os.listdir(docs) == ["part-000000.parquet"]  # stale parts removed
    shutil.copy(os.path.join(docs, "part-000000.parquet"), os.path.join(docs, "part-000001.parquet"))

    url = IndexReader(idx).urls_for(np.array([350], dtype=np.int64))[0]
    assert delete_by_url(idx, [url]) == 1
    r = IndexReader(idx)
    assert r.tombstones.tolist() == [350]
    ids = json_query_docs(r, {"range": {"f": "doc_len", "lower": 0}})
    assert len(ids) <= r.doc_count and 350 not in ids.tolist()
    man = merge_segments(idx, purge_deletes=True)
    assert man["stats"]["doc_count"] == 599


def test_a_reader_refuses_doc_parts_a_later_layout_rewrote(ray_session, tmp_path_factory):
    """A reader opened before a rebuild at another ``target_docs_per_part``
    does not read the new layout's docs files as its own: a part the
    rebuild rewrote (its input-fingerprint stamp is not the reader's
    commit's) or removed raises "reopen the reader", where the file would
    have given another doc's url. A reopened reader, and a docs file
    without a stamp (written before the stamp), read as before."""
    d = str(tmp_path_factory.mktemp("pages_relayout"))
    write_pages(d, 600, seed=42, rows_per_file=300, row_group_size=100)
    idx = str(tmp_path_factory.mktemp("index_relayout"))
    build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=128))
    old = IndexReader(idx)
    assert old.n_doc_parts == 6
    doc = np.array([(1 << 32) + 5], dtype=np.int64)  # part 1: rows 100-199 of the first file
    want = pages_table(600, seed=42).column("url")[105].as_py()
    man = build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=200))
    assert man["stats"]["n_doc_parts"] == 4  # part 1 now holds rows 200-299
    for ids in (doc, np.array([(5 << 32) + 1], dtype=np.int64)):  # rewritten, removed
        with pytest.raises(RuntimeError, match="reopen the reader"):
            old.urls_for(ids)
    old.close()
    new = IndexReader(idx)
    assert new.urls_for(np.array([105], dtype=np.int64)) == [want]
    new.close()
    path = os.path.join(idx, "docs", "part-000001.parquet")
    t = pq.read_table(path)
    assert t.schema.metadata[b"input_fingerprint"].decode() == man["input_fingerprints"][1]
    pq.write_table(t.replace_schema_metadata(None), path)
    unstamped = IndexReader(idx)
    assert unstamped.urls_for(doc) == [t.column("url")[5].as_py()]
    unstamped.close()


def test_a_reader_refuses_doc_parts_another_sort_rewrote(ray_session, tmp_path_factory):
    """A rebuild that keeps the layout but sorts each part's rows by
    another column rewrites every docs file under the same input
    fingerprints. A reader opened before it raises "reopen the reader"
    (each docs file is stamped with its phase-A config too) where the new
    rows would give it other docs' urls."""
    d = str(tmp_path_factory.mktemp("pages_resort"))
    rng = np.random.default_rng(5)
    pages = pages_table(300, seed=5)
    for col in ("a", "b"):
        pages = pages.append_column(col, pa.array(rng.random(300), pa.float64()))
    pq.write_table(pages, os.path.join(d, "pages-000000.parquet"), row_group_size=100)
    idx = str(tmp_path_factory.mktemp("index_resort"))
    base = dict(term_partitions=2, target_docs_per_part=128)
    build_index(d, idx, IndexConfig(**base, sort_field="a"))
    old = IndexReader(idx)
    top, _ = old.topk("the fast data", 5)
    assert len(top)
    want = old.urls_for(top)
    man = build_index(d, idx, IndexConfig(**base, sort_field="b"))
    assert man["input_fingerprints"] == old.manifest["input_fingerprints"]
    old._docs_cache.clear()
    with pytest.raises(RuntimeError, match="reopen the reader"):
        old.urls_for(top)
    old.close()
    new = IndexReader(idx)
    assert new.urls_for(top) != want  # the same ids name other docs now
    new.close()


def test_backup_holds_only_committed_parts(ray_session, tmp_path_factory):
    """After a rebuild with bigger doc parts, the old layout's extra part
    files are gone from disk, and a backup lists only the committed parts'
    files (``part-NNNNNN`` < ``n_doc_parts`` in docs/, postings_raw/ and
    manifests/) even beside a stray part file copied in, and its restore
    has the same fingerprint and answers."""
    from apache___solr_ray import backup as bk
    from apache___solr_ray.manifest import index_fingerprint

    d = str(tmp_path_factory.mktemp("pages_backup_parts"))
    write_pages(d, 600, seed=42, rows_per_file=600, row_group_size=100)
    idx = str(tmp_path_factory.mktemp("index_backup_parts"))
    build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=128))
    man = build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=1024))
    n_parts = man["stats"]["n_doc_parts"]
    for sub in ("docs", "postings_raw", "manifests"):
        assert len(os.listdir(os.path.join(idx, sub))) == n_parts  # stale parts removed
    docs = os.path.join(idx, "docs")
    shutil.copy(os.path.join(docs, "part-000000.parquet"), os.path.join(docs, f"part-{n_parts:06d}.parquet"))

    bdir = str(tmp_path_factory.mktemp("backups_parts"))
    files = bk.create_backup(idx, bdir, "b")["files"]
    parts = [rel for rel in files if os.path.basename(rel).startswith("part-")]
    assert len(parts) == 3 * n_parts
    assert all(int(os.path.basename(rel)[len("part-") :].split(".")[0]) < n_parts for rel in parts)

    dest = str(tmp_path_factory.mktemp("restored_parts"))
    os.rmdir(dest)
    assert bk.restore_backup(bdir, "b", dest) == index_fingerprint(idx)
    r_got, r_want = IndexReader(dest), IndexReader(idx)
    for q in QUERIES:
        d_got, s_got = r_got.topk(q, 10)
        d_want, s_want = r_want.topk(q, 10)
        assert d_got.tolist() == d_want.tolist() and s_got.tobytes() == s_want.tobytes(), q
    r_got.close()
    r_want.close()


def test_cursor_pages_equal_topk_prefix(built):
    """CursorMark pages concatenate to exactly the topk prefix — no skips,
    no repeats, ties broken identically (CursorMarkTest semantics)."""
    idx, _cfg, _man = built
    r = IndexReader(idx)
    for query in ["the fast data", "state of the art pipeline merge"]:
        want_d, want_s = r.topk_exhaustive(query, 21)
        got_d, got_s = [], []
        cursor = None
        for _ in range(3):
            d, s, cursor = r.cursor_page(query, 7, cursor)
            got_d.extend(d.tolist())
            got_s.extend(s.tolist())
            if cursor is None:
                break
        assert got_d == want_d[: len(got_d)].tolist()
        assert got_s == want_s[: len(got_s)].tolist()


def test_rerank_parity_vs_brute(ray_session):
    """index_rerank_topk (two-stage f64 rescore over the index) must equal
    a from-scratch brute re-rank computed directly on the raw tokenized
    corpus — an implementation-independent mirror of ReRank semantics."""
    import math
    import re

    import pyarrow.parquet as pq

    from apache___solr_ray.lucene import LENGTH_TABLE
    from apache___solr_ray.pipelines.indexq import (
        _RERANK_DOCS,
        _RERANK_MAIN,
        _RERANK_SECOND,
        _RERANK_WEIGHT,
        QUERIES,
    )

    sf = "/root/testdata/sf0.001"
    got = QUERIES["index_rerank_topk"](sf).to_pandas()

    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): re.findall(r"[a-z0-9]+", (x or "").lower())
        for d, x in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist())
    }
    n = len(toks)
    avgdl = sum(len(v) for v in toks.values()) / n
    lut = sorted({int(x) for x in LENGTH_TABLE})

    def qdl(dl):
        return max(v for v in lut if v <= dl)

    def score(term, doc):
        tf = toks[doc].count(term)
        if tf == 0:
            return 0.0
        df = sum(1 for v in toks.values() if term in v)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        return idf * tf / (tf + 1.2 * (0.25 + 0.75 * qdl(len(toks[doc])) / avgdl))

    s1 = {d: sum(score(t_, d) for t_ in _RERANK_MAIN) for d in toks}
    cands = sorted((d for d in toks if s1[d] > 0), key=lambda d: (-s1[d], d))[:_RERANK_DOCS]
    blended = {d: s1[d] + _RERANK_WEIGHT * sum(score(t_, d) for t_ in _RERANK_SECOND) for d in cands}
    want = sorted(cands, key=lambda d: (-blended[d], d))[:10]
    assert got["doc_id"].tolist() == want
    for d, s in zip(got["doc_id"], got["score"]):
        assert abs(s - blended[int(d)]) < 1e-4 + 1e-9


def test_term_vectors_match_reanalysis(ray_session):
    """index_term_vectors (term-dict sweep + block-skip position decode)
    must equal re-analyzing the stored text of the requested docs with the
    same chain — tf, position sets, and per-doc tf sum == doc_len."""
    import pyarrow.parquet as pq

    from apache___solr_ray.analyze import Analyzer
    from apache___solr_ray.pipelines.indexq import _TV_DOCS
    from apache___solr_ray.pipelines.indexq import QUERIES as IQ

    sf = "/root/testdata/sf0.001"
    got = IQ["index_term_vectors"](sf).to_pandas()
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    txt = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    an = Analyzer()
    for d in _TV_DOCS:
        toks = an.analyze(txt[d])
        want: dict[str, list[int]] = {}
        for i, tok in enumerate(toks):
            want.setdefault(tok, []).append(i)
        sub = got[got.doc_id == d]
        assert set(sub.term) == set(want)
        for _, row in sub.iterrows():
            assert row.tf == len(want[row.term])
            assert row.positions == ",".join(map(str, want[row.term]))
        assert sub.tf.sum() == len(toks)


def test_elevation_pins_excludes_and_keeps_organic_order(ray_session):
    """Elevated ids come first in elevate-file order (even a doc with no
    query match), excluded ids never appear, and the organic tail is
    sorted by score desc / doc_id asc (QueryElevationComponent semantics)."""
    from apache___solr_ray.pipelines.indexq import (
        _ELEV_EXCLUDE,
        _ELEV_IDS,
        QUERIES as IQ,
    )

    sf = "/root/testdata/sf0.001"
    got = IQ["index_elevated_topk"](sf).to_pandas()
    assert list(got.doc_id[: len(_ELEV_IDS)]) == _ELEV_IDS
    assert got.elevated[: len(_ELEV_IDS)].all()
    assert not got.elevated[len(_ELEV_IDS):].any()
    assert not set(_ELEV_EXCLUDE) & set(got.doc_id)
    tail = got[len(_ELEV_IDS):]
    pairs = list(zip((-tail.score).tolist(), tail.doc_id.tolist()))
    assert pairs == sorted(pairs)


def test_ltr_linear_rerank_parity_vs_brute(ray_session):
    """ltr_linear_rerank_topk must equal a from-scratch brute computation
    over the raw tokenized corpus: first-pass BM25 window, then
    0.6*originalScore + 1.5*score('hash join') - 0.01*doc_len."""
    import math
    import re

    import pyarrow.parquet as pq

    from apache___solr_ray.lucene import LENGTH_TABLE
    from apache___solr_ray.pipelines.indexq import (
        _LTR_FEATURE_Q,
        _LTR_FIRST,
        _LTR_W,
        _LTR_WINDOW,
        QUERIES as IQ,
    )

    sf = "/root/testdata/sf0.001"
    got = IQ["ltr_linear_rerank_topk"](sf).to_pandas()

    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): re.findall(r"[a-z0-9]+", (x or "").lower())
        for d, x in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist())
    }
    n = len(toks)
    avgdl = sum(len(v) for v in toks.values()) / n
    lut = sorted({int(x) for x in LENGTH_TABLE})

    def qdl(dl):
        return max(v for v in lut if v <= dl)

    def score(term, doc):
        tf = toks[doc].count(term)
        if tf == 0:
            return 0.0
        df = sum(1 for v in toks.values() if term in v)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        return idf * tf / (tf + 1.2 * (0.25 + 0.75 * qdl(len(toks[doc])) / avgdl))

    s1 = {d: sum(score(x, d) for x in _LTR_FIRST) for d in toks}
    cands = sorted((d for d in toks if s1[d] > 0), key=lambda d: (-s1[d], d))[:_LTR_WINDOW]
    w0, w1, w2 = _LTR_W
    m = {
        d: w0 * s1[d] + w1 * sum(score(x, d) for x in _LTR_FEATURE_Q) + w2 * len(toks[d])
        for d in cands
    }
    want = sorted(cands, key=lambda d: (-m[d], d))[:10]
    assert got["doc_id"].tolist() == want
    for d, s in zip(got["doc_id"], got["score"]):
        assert abs(s - m[int(d)]) < 1e-4 + 1e-9


def test_sorted_index_early_termination(ray_session):
    """Index-time sort: sorted_topk equals a full scan of the sort column,
    and visits strictly fewer parts than the total (early termination)."""
    import pyarrow.parquet as pq

    from apache___solr_ray.pipelines.indexq import _ext_ids, ensure_doc_index_sorted
    from apache___solr_ray.query import IndexReader

    sf = "/root/testdata/sf0.001"
    index_dir = ensure_doc_index_sorted(sf)
    r = IndexReader(index_dir)
    d, v, m = r.sorted_topk(10)
    assert m["parts_visited"] < m["parts_total"], m
    assert m["rows_scanned"] <= m["parts_visited"] * 10

    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "n_chars"])
    rows = sorted(
        zip(t["n_chars"].to_pylist(), t["doc_id"].to_pylist()),
        key=lambda x: (-x[0], x[1]),
    )[:10]
    assert _ext_ids(r, d).tolist() == [doc for _, doc in rows]
    assert v.tolist() == [float(nc) for nc, _ in rows]


def test_ext_ids_equal_per_row_url_parse(ray_session):
    """``_ext_ids`` over an index of several doc parts whose rows are not
    in documents.doc_id order: unsorted, duplicated engine ids come back
    in the caller's order, each equal to its own row's url parse."""
    from apache___solr_ray.pipelines.indexq import _ext_ids, ensure_doc_index_sorted

    r = IndexReader(ensure_doc_index_sorted("/root/testdata/sf0.001"))
    assert r.n_doc_parts >= 2
    per_row = {
        (p << 32) + row: int(url[len("doc://") :])
        for p in range(r.n_doc_parts)
        for row, url in enumerate(r.doc_column(p, "url").to_pylist())
    }
    engine = np.array(sorted(per_row), dtype=np.int64)
    assert np.diff([per_row[int(d)] for d in engine]).min() < 0  # engine order != doc_id order
    ids = np.random.default_rng(0).choice(engine, size=3 * len(engine))
    got = _ext_ids(r, ids)
    assert got.dtype == np.int64
    assert got.tolist() == [per_row[int(d)] for d in ids]
    assert _ext_ids(r, ids[:0]).tolist() == []


def test_sorted_cursor_pages_equal_topk_prefix(ray_session):
    """searchAfter pages over the sorted index must equal consecutive
    slices of one big sorted_topk, and later pages must still early-out
    (parts_visited < parts_total)."""
    from apache___solr_ray.pipelines.indexq import ensure_doc_index_sorted
    from apache___solr_ray.query import IndexReader

    sf = "/root/testdata/sf0.001"
    r = IndexReader(ensure_doc_index_sorted(sf))
    d_all, v_all, _ = r.sorted_topk(21)
    got_d, got_v, cursor = [], [], None
    for pg in range(3):
        d, v, m = r.sorted_topk(7, after=cursor)
        if pg == 0:  # deep cursors may legitimately need more parts to fill
            assert m["parts_visited"] < m["parts_total"]
        assert m["rows_scanned"] <= 7 * m["parts_visited"]
        got_d.extend(d.tolist())
        got_v.extend(v.tolist())
        cursor = (float(v[-1]), int(d[-1]))
    assert got_d == d_all.tolist()
    assert got_v == v_all.tolist()


def test_ltr_trees_model_traversal_vectorized_vs_scalar(ray_session):
    """MultipleAdditiveTreesModel's vectorized mask traversal must equal a
    scalar per-row walk of the same trees, and the catalog entry must rank
    by the ensemble sum."""
    import numpy as np

    from apache___solr_ray.ltr import NODE_SPLIT_SLACK, MultipleAdditiveTreesModel
    from apache___solr_ray.pipelines.indexq import _LTR_TREES

    rng = np.random.default_rng(7)
    cols = {
        "originalScore": rng.uniform(0, 20, 500),
        "solrFeature": rng.uniform(0, 3, 500),
        "fieldValue": rng.integers(1, 120, 500).astype(np.float64),
    }
    # thresholds sit exactly on some values too: force boundary hits, and
    # values inside the split slack (t, t + 1e-6] that must branch left
    cols["originalScore"][:5] = 8.0
    cols["fieldValue"][:5] = 60.0
    cols["originalScore"][5:10] = 8.0 + 5e-7
    cols["fieldValue"][5:10] = 60.0 + 5e-7

    def walk(node, i):
        while "value" not in node:
            f = cols[node["feature"]][i]
            node = node["left"] if f <= node["threshold"] + NODE_SPLIT_SLACK else node["right"]
        return node["value"]

    class _Fake:
        def __init__(self, name):
            self.name = name

        def extract(self, reader, ids, fp):
            return cols[self.name]

    model = MultipleAdditiveTreesModel(
        features=[_Fake("originalScore"), _Fake("solrFeature"), _Fake("fieldValue")],
        trees=_LTR_TREES,
    )
    got = model.rescore(None, np.arange(500), np.zeros(500))
    want = np.array(
        [sum(walk(t, i) for t in _LTR_TREES) for i in range(500)]
    )
    assert np.array_equal(got, want)
    # a value in (t, t + 1e-6] takes the left branch of a split at t
    stump = {"feature": "originalScore", "threshold": 8.0,
             "left": {"value": 1.0}, "right": {"value": 2.0}}
    one = MultipleAdditiveTreesModel(features=[_Fake("originalScore")], trees=[stump])
    assert one.rescore(None, np.arange(500), np.zeros(500))[5:10].tolist() == [1.0] * 5


def test_ltr_trees_entry_matches_linear_window(ray_session):
    """The trees entry reranks the SAME first-pass window as the linear
    entry (both use _LTR_FIRST / _LTR_WINDOW), so its top-10 doc set must
    be a subset of that window and scores must be ensemble sums."""
    from apache___solr_ray.pipelines.indexq import QUERIES as IQ

    sf = "/root/testdata/sf0.001"
    got = IQ["ltr_trees_rerank_topk"](sf).to_pandas()
    assert len(got) == 10
    assert got["rank"].tolist() == list(range(1, 11))
    # ensemble leaves are sums of at most 3 leaf values from the tree set
    leaves1 = {-0.5, 1.0, 2.0}
    leaves2 = {0.8, -0.3}
    leaves3 = {0.2, 0.05, 1.2}
    valid = {round(a + b + c, 4) for a in leaves1 for b in leaves2 for c in leaves3}
    assert set(round(float(s), 4) for s in got["score"]) <= valid
    # descending by score, ties by doc_id
    pairs = list(zip(got["score"].tolist(), got["doc_id"].tolist()))
    assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))


def test_facet_pivot_tree_consistency(ray_session):
    """facet.pivot invariants: level-1 counts equal the sum of ALL their
    level-2 children pre-limit (i.e. equal the table's per-status counts),
    every level-3 row's parent survived the level-2 limit, per-parent
    child counts respect the limits, and counts are sorted desc per
    parent."""
    import pyarrow.parquet as pq

    from apache___solr_ray.pipelines.relational import QUERIES as RQ

    sf = "/root/testdata/sf0.001"
    got = RQ["facet_pivot_status_priority_year"](sf).to_pandas()
    orders = pq.read_table(
        f"{sf}/orders.parquet", columns=["o_orderstatus"]
    ).to_pandas()

    l1 = got[got["level"] == 1]
    truth = orders.groupby("o_orderstatus").size()
    assert dict(zip(l1["o_orderstatus"], l1["n"])) == truth.to_dict()

    l2 = got[got["level"] == 2]
    l3 = got[got["level"] == 3]
    for s, grp in l2.groupby("o_orderstatus"):
        assert len(grp) <= 3
        ns = grp["n"].tolist()
        assert ns == sorted(ns, reverse=True)
    surviving = set(zip(l2["o_orderstatus"], l2["o_orderpriority"]))
    for (s, p), grp in l3.groupby(["o_orderstatus", "o_orderpriority"]):
        assert (s, p) in surviving
        assert len(grp) <= 2
        assert grp["n"].tolist() == sorted(grp["n"].tolist(), reverse=True)


def test_backup_restore_roundtrip_and_incremental(built, tmp_path):
    """SnapShooter/IncrementalShardBackup analog: restore preserves the
    index fingerprint AND every queryable term; a second backup of the
    unchanged index writes ZERO new pool bodies; corruption is caught."""
    import pytest as _pytest

    from apache___solr_ray import backup as bk
    from apache___solr_ray.manifest import index_fingerprint
    from apache___solr_ray.pipelines.indexq import _term_df_table

    idx, _cfg, _man = built
    bdir = str(tmp_path / "backups")

    # strays the manifest does not name: neither may be backed up
    stray_file = os.path.join(idx, "external_boost.txt")
    stray_pack = os.path.join(segments_dir(idx), "pack-x")
    with open(stray_file, "w") as f:
        f.write("doc://000000000001=2.0\n")
    for ext in (".tdict", ".post"):
        with open(stray_pack + ext, "w") as f:
            f.write("{}")
    try:
        m1 = bk.create_backup(idx, bdir, "b1")
    finally:
        os.remove(stray_file)
        for ext in (".tdict", ".post"):
            os.remove(stray_pack + ext)
    assert "external_boost.txt" not in m1["files"]
    assert not [rel for rel in m1["files"] if "pack-x" in rel]
    assert m1["new_pool_files"] == len(m1["files"])  # first backup: all new

    # incremental: unchanged index -> zero new bodies, same file table
    m2 = bk.create_backup(idx, bdir, "b2")
    assert m2["new_pool_files"] == 0
    assert m2["files"] == m1["files"]
    assert bk.list_backups(bdir) == ["b1", "b2"]

    dest = str(tmp_path / "restored")
    fp = bk.restore_backup(bdir, "b1", dest)
    assert fp == index_fingerprint(idx) == m1["index_fingerprint"]
    got = _term_df_table(dest)
    want = _term_df_table(idx)
    assert got.equals(want)
    r_got, r_want = IndexReader(dest), IndexReader(idx)
    for q in QUERIES:
        d_got, s_got = r_got.topk(q, 10)
        d_want, s_want = r_want.topk(q, 10)
        assert d_got.tolist() == d_want.tolist() and s_got.tolist() == s_want.tolist(), q
    r_got.close()
    r_want.close()

    # restore refuses to clobber
    with _pytest.raises(bk.BackupError):
        bk.restore_backup(bdir, "b1", dest)

    # tamper with a pool body -> verify and restore both fail
    sha = next(iter(m1["files"].values()))["sha1"]
    body = os.path.join(bdir, "pool", sha)
    with open(body, "r+b") as f:
        f.seek(0)
        f.write(b"\xff")
    with _pytest.raises(bk.BackupError):
        bk.verify_backup(bdir, "b1")
    with _pytest.raises(bk.BackupError):
        bk.restore_backup(bdir, "b1", str(tmp_path / "restored2"))

    # the delete set is part of the commit: a restored index masks the
    # same docs as its source
    from apache___solr_ray.deletes import clear_tombstones, delete_by_url

    urls = IndexReader(idx).urls_for(np.array([2, (1 << 32) + 4], dtype=np.int64))
    try:
        assert delete_by_url(idx, urls) == 2
        bdir3 = str(tmp_path / "backups3")  # b1's pool body was tampered above
        bk.create_backup(idx, bdir3, "b3")
        dest3 = str(tmp_path / "restored3")
        assert bk.restore_backup(bdir3, "b3", dest3) == index_fingerprint(idx)
        assert IndexReader(dest3).tombstones.tolist() == [2, (1 << 32) + 4]
        assert IndexReader(dest3).tombstones.tolist() == IndexReader(idx).tombstones.tolist()
    finally:
        clear_tombstones(idx)


def test_json_query_dsl_algebra(built):
    """JSON Query DSL over the small fixture: bool algebra must equal
    hand-computed set operations on match_docs results; nested bools,
    phrase leaves, pure-should union, and error paths."""
    import numpy as np
    import pytest as _pytest

    from apache___solr_ray.jsonquery import JsonQueryError, json_query_docs
    from apache___solr_ray.query import IndexReader

    idx, _cfg, _man = built
    r = IndexReader(idx)

    def s(q, mode="or"):
        return np.sort(r.match_docs(q, mode=mode))

    # must AND + must_not
    got = json_query_docs(
        r,
        {"bool": {"must": [{"lucene": {"query": "merge join", "q.op": "AND"}}],
                  "must_not": [{"field": {"f": "text", "query": "slow"}}]}},
    )
    want = np.setdiff1d(s("merge join", "and"), s("slow"), assume_unique=True)
    assert np.array_equal(got, want)

    # bare string == lucene OR
    assert np.array_equal(json_query_docs(r, "merge join"), s("merge join"))

    # nested bool inside must_not
    got = json_query_docs(
        r,
        {"bool": {"must": ["merge"],
                  "must_not": [{"bool": {"should": ["slow", "fast"]}}]}},
    )
    want = np.setdiff1d(
        s("merge"), np.union1d(s("slow"), s("fast")), assume_unique=True
    )
    assert np.array_equal(got, want)

    # pure should union (no mm) and mm=2
    got = json_query_docs(r, {"bool": {"should": ["merge", "fast"]}})
    assert np.array_equal(got, np.union1d(s("merge"), s("fast")))
    got = json_query_docs(
        r, {"bool": {"should": ["merge", "fast", "slow"],
                     "minimum_should_match": 2}}
    )
    m1, m2, m3 = s("merge"), s("fast"), s("slow")
    base = np.union1d(np.union1d(m1, m2), m3)
    hits = (
        np.isin(base, m1).astype(int)
        + np.isin(base, m2).astype(int)
        + np.isin(base, m3).astype(int)
    )
    assert np.array_equal(got, base[hits >= 2])

    # pure-negative bool: all docs minus the negatives at the top level
    # (Solr's rewrite), nothing when nested (Lucene BooleanQuery)
    all_live = np.sort(r.match_docs("the fast data merge join slow"))
    top = json_query_docs(r, {"bool": {"must_not": ["merge"]}})
    assert len(top) > 0 and not np.isin(top, s("merge")).any()
    assert np.isin(np.setdiff1d(all_live, s("merge")), top).all()
    nested = {"bool": {"must_not": ["slow"]}}
    assert len(json_query_docs(r, {"bool": {"must": [nested]}})) == 0
    got = json_query_docs(r, {"bool": {"should": ["merge", nested]}})
    assert np.array_equal(got, s("merge"))
    got = json_query_docs(r, {"bool": {"must": ["merge"], "must_not": [nested]}})
    assert np.array_equal(got, s("merge"))

    # phrase leaf
    got = json_query_docs(r, {"phrase": {"query": "merge join"}})
    assert np.array_equal(got, np.sort(r.match_docs_phrase("merge join")))

    # unknown parser / malformed node raise
    with _pytest.raises(JsonQueryError):
        json_query_docs(r, {"nope": {}})
    with _pytest.raises(JsonQueryError):
        json_query_docs(r, {"bool": {}, "extra": {}})


def test_termdf_dataset_returns_global_df(built):
    """Doc-range-split segments each hold a PARTIAL df for their slice of a
    term (regression: consumers that read the rows raw double-count at any
    scale with >1 doc part). termdf_dataset must return one row per term
    whose df equals the segment-summed global term dictionary."""
    from apache___solr_ray.pipelines.indexq import _term_df_table, termdf_dataset

    idx, _cfg, _man = built
    got = termdf_dataset(idx).to_pandas().sort_values("term").reset_index(drop=True)
    assert got["term"].is_unique
    want = _term_df_table(idx).to_pandas()
    merged = got.merge(want[["term", "df"]], on="term", suffixes=("", "_want"))
    assert len(merged) == len(want)
    assert (merged["df"] == merged["df_want"]).all()


def test_termdf_dataset_tracks_purge_merge(ray_session, tmp_path_factory):
    """A purge merge rewrites the term dictionaries; every vocabulary reader
    must follow it. termdf_dataset (the distributed vocabulary behind Luke,
    phonetic and spellcheck entries) equals ``IndexReader.term_dict`` row
    for row, and Luke's num_terms (``termdf_dataset(...).count()``) equals
    its row count — no term whose every posting was purged survives."""
    import pyarrow.parquet as pq

    from apache___solr_ray.deletes import delete_by_url
    from apache___solr_ray.merge import merge_segments
    from apache___solr_ray.pipelines.indexq import termdf_dataset

    d = str(tmp_path_factory.mktemp("pages_purge_vocab"))
    write_pages(d, 400, seed=5, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_purge_vocab"))
    build_index(d, idx, IndexConfig(term_partitions=3, target_docs_per_part=128))
    before = IndexReader(idx).term_dict()
    urls = pq.read_table(os.path.join(idx, "docs"), columns=["url"]).column("url").to_pylist()
    victims = sorted(np.random.default_rng(5).choice(urls, size=len(urls) // 4, replace=False))
    assert delete_by_url(idx, victims) == len(victims)
    merge_segments(idx, purge_deletes=True)

    want = IndexReader(idx).term_dict()
    assert want.num_rows < before.num_rows  # the purge dropped whole terms
    got = termdf_dataset(idx).to_pandas().sort_values("term").reset_index(drop=True)
    assert got["term"].tolist() == want["term"].to_pylist()
    assert got["df"].tolist() == want["df"].to_pylist()
    assert termdf_dataset(idx).count() == want.num_rows


def test_time_allowed_partial_results(built):
    """timeAllowed semantics: no budget -> full result identical to the
    single evaluator with partial=False; zero budget -> every returned doc
    a real match, and a page not flagged partial only when every shard
    beat the budget."""
    idx, _cfg, _man = built
    r = IndexReader(idx)
    full_d, full_s = r.topk(SERVE_Q, 10)
    svc = QueryService(idx, n_shards=3)
    try:
        svc.warmup()
        d, s, partial, n = svc.topk(SERVE_Q, 10)
        assert not partial and n == 3
        assert np.array_equal(d, full_d) and np.array_equal(s, full_s)

        d2, s2, partial2, n2 = svc.topk(SERVE_Q, 10, deadline_s=0.0)
        # a zero budget may expire before any shard finishes: an empty page
        # flagged partial (the budget bounds every wait)
        assert partial2 or n2 == 3
        assert len(d2) == len(s2)
        assert set(map(int, d2)) <= set(map(int, r.match_docs(SERVE_Q)))
        if not partial2:  # every shard beat the (zero) budget: full equality
            assert np.array_equal(d2, full_d)
    finally:
        svc.shutdown()


def test_time_allowed_bounds_hung_shards(built, tmp_path):
    """The deadline bounds the whole call: every shard of a clone whose
    postings files are FIFOs blocks in open(), and each call returns on
    time with an empty page flagged partial — also the calls that land on
    actors still stuck in an earlier call. The coordinator's df lookups
    read term dictionaries only, so they never touch the FIFOs."""
    import threading
    import time

    idx, _cfg, _man = built
    clone = str(tmp_path / "clone")
    shutil.copytree(idx, clone)
    fifos = []
    for rel in pack_files(read_json(os.path.join(clone, "index_manifest.json"))):
        if not rel.endswith(".post"):
            continue
        path = os.path.join(clone, rel)
        os.remove(path)
        os.mkfifo(path)
        fifos.append(path)
    svc = QueryService(clone, n_shards=2)
    out = {"res": []}

    def call():
        out["df"] = IndexReader(clone).term_stats_map(SERVE_Q)
        svc.warmup()
        for _ in range(3):  # both replica groups, then a busy one again
            t0 = time.monotonic()
            res = svc.topk(SERVE_Q, 10, deadline_s=0.5)
            out["res"].append((res, time.monotonic() - t0))

    th = threading.Thread(target=call, daemon=True)
    th.start()
    th.join(timeout=90)
    try:
        assert not th.is_alive(), "QueryService.topk waited past its deadline"
        assert out["df"] == IndexReader(idx).term_stats_map(SERVE_Q) != {}
        assert len(out["res"]) == 3
        for (d, s, partial, n), elapsed in out["res"]:
            assert partial and n == 0 and len(d) == 0 and len(s) == 0
            assert elapsed < 10
    finally:
        svc.shutdown()
        for path in fifos:  # release any reader still blocked in open()
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass


def test_mm_spec_calculator_reference_vectors(ray_session):
    """calculate_min_should_match must reproduce the reference's own
    SolrPluginUtilsTest table (integers, negatives, percentages,
    conditional chains)."""
    import pytest as _pytest

    from apache___solr_ray.query import calculate_min_should_match as f

    cases = [
        (3, "3", 3), (4, "-2", 2), (4, "50%", 2), (5, "50%", 2),
        (4, "-25%", 3), (3, "2<-25%", 3), (4, "2<-25%", 3),
        (5, "2<-25%", 4), (1, "2<-25%", 1),
        (10, "3<-1 5<-2 7<50%", 5), (4, "3<-1 5<-2 7<50%", 3),
        (6, "3<-1 5<-2 7<50%", 4), (2, "3<-1 5<-2 7<50%", 2),
        (8, "3<-1 5<-2 7<50%", 4),
        (5, "100%", 5), (5, "-100%", 0), (3, "0", 0), (3, "5", 3),
        (3, " 3 < -25% ", 3),  # the spec language tolerates spaces around <
    ]
    for n, spec, want in cases:
        assert f(n, spec) == want, (n, spec)
    with _pytest.raises(ValueError):
        f(3, "<2")


def test_shards_tolerant_skips_failed_shard(built, tmp_path):
    """shards.tolerant=true (ShardParams.SHARDS_TOLERANT): REAL failures —
    a killed shard actor, and a clone (via backup/restore) whose postings
    are corrupt so every shard call raises. The intolerant call raises;
    the tolerant call returns the healthy shards' results flagged
    partial."""
    import ray

    from apache___solr_ray import backup as bk

    idx, _cfg, _man = built
    bdir = str(tmp_path / "b")
    bk.create_backup(idx, bdir, "t")
    clone = str(tmp_path / "clone")
    bk.restore_backup(bdir, "t", clone)
    r = IndexReader(clone)
    assert r.n_doc_parts >= 2
    half = r.n_doc_parts // 2  # the shard bounds of n_shards=2

    svc = QueryService(clone, n_shards=2)
    try:
        d0, s0, p0, n0 = svc.topk(SERVE_Q, 10)
        assert not p0 and n0 == 2
        assert d0.tolist() == r.topk(SERVE_Q, 10)[0].tolist()
        for group in svc.groups:  # the first shard dies in every replica group
            ray.kill(group[0])
        with pytest.raises(ray.exceptions.RayActorError):
            svc.topk(SERVE_Q, 10)
        d1, s1, partial, n1 = svc.topk(SERVE_Q, 10, tolerant=True)
        assert partial and n1 == 1 and len(d1) > 0
        assert ((d1 >> 32) >= half).all()  # only the surviving shard's docs
    finally:
        svc.shutdown()

    # corrupt every segment's postings: shard calls raise on decode, the
    # coordinator (term dictionaries only) still serves df
    man = read_json(os.path.join(clone, "index_manifest.json"))
    victims = [os.path.join(clone, f) for f in pack_files(man) if f.endswith(".post")]
    assert victims
    for v in victims:
        with open(v, "wb") as f:
            f.write(b"corrupt")
    svc = QueryService(clone, n_shards=2)
    try:
        with pytest.raises(Exception):
            svc.topk(SERVE_Q, 10)
        d2, s2, partial, n2 = svc.topk(SERVE_Q, 10, tolerant=True)
        # every shard failed: tolerant returns the empty partial page instead
        # of propagating (Solr returns partialResults=true with what's left)
        assert partial and n2 == 0 and len(d2) == 0 and len(s2) == 0
    finally:
        svc.shutdown()


def test_run_stage_runs_each_row_once_in_cpu_sized_blocks(ray_session):
    """The build/merge stage helper processes every row exactly once and
    dispatches min(rows, BLOCKS_PER_CPU * CPUs) blocks."""
    import uuid

    from apache___solr_ray import build

    def tag(rows):
        block = uuid.uuid4().hex
        return [dict(r, block=block) for r in rows]

    cpus = build._cluster_cpus()
    assert cpus == 4  # the test session's Ray
    for n in (1, 5, 200):
        out, n_blocks = build._run_stage([{"i": i} for i in range(n)], tag)
        assert sorted(r["i"] for r in out) == list(range(n))
        assert n_blocks == len({r["block"] for r in out}) == min(n, 4 * cpus)


def test_build_telemetry_tasks_and_segments(ray_session, built, tmp_path_factory):
    """index_manifest.metrics counts the blocks each phase dispatched, the
    segments built, resumed or extended, the postings encoded and phase
    B's encode batches; an upsert dispatches and re-tokenizes only the new
    part and extends every segment, encoding the new postings and, of
    each term the part shares with the segment, the old postings past its
    last complete block."""
    import pyarrow as pa

    from apache___solr_ray import build
    from apache___solr_ray.codec import BLOCK
    from apache___solr_ray.segment import term_hash
    from apache___solr_ray.update import upsert_pages

    _idx, _cfg, man = built
    m, n_seg = man["metrics"], man["stats"]["n_segments"]
    assert m["phase_a_tasks"] <= min(man["stats"]["n_doc_parts"], 4 * build._cluster_cpus())
    assert m["phase_b_tasks"] <= min(n_seg, 4 * build._cluster_cpus())
    assert m["segments_built"] + m["segments_resumed"] == n_seg
    assert m["phase_b_tasks"] <= m["phase_b_batches"] <= m["segments_built"]
    sec = m["phase_b_batch_sec"]
    assert 0 < sec["p50"] <= sec["max"] <= sec["sum"]
    assert sec["skew"] == pytest.approx(sec["max"] / sec["p50"], rel=0.01)

    d = str(tmp_path_factory.mktemp("pages_tele"))
    write_pages(d, 256, seed=7, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_tele"))
    cfg = IndexConfig(term_partitions=4, target_docs_per_part=128, text_from_html=False)
    man0 = build_index(d, idx, cfg)
    m0 = man0["metrics"]
    assert (m0["segments_built"], m0["segments_resumed"]) == (4, 0)
    assert (m0["segments_extended"], m0["postings_encoded"]) == (0, m0["n_postings"])
    r0 = IndexReader(idx)
    shared = r0.term_dict().sort_by([("df", "descending")]).column("term").to_pylist()[:40]
    # enough distinct terms to reach every term partition, and old ones
    words = [f"w{i}" for i in range(64)] + shared
    # each shared term's old postings past its last complete block (one
    # segment per tkey)
    tkeys = term_hash(np.array(shared, dtype=object)) % np.uint64(cfg.term_partitions)
    by_tkey = {s["tkey"]: s["name"] for s in man0["segments"]}
    tails = sum(r0._readers[by_tkey[int(t)]].term_stats(w)[0] % BLOCK for w, t in zip(shared, tkeys))
    r0.close()
    page = pa.table(
        {
            "url": pa.array(["doc://tele-new"], pa.string()),
            "text": pa.array([" ".join(words)], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    man1 = upsert_pages(d, idx, page, cfg)
    m1, n_parts = man1["metrics"], man1["stats"]["n_doc_parts"]
    assert m1["segments_resumed"] == 0
    assert m1["segments_built"] == m1["segments_extended"] == man1["stats"]["n_segments"]
    assert m1["parts_resumed"] == n_parts - 1
    assert m1["phase_a_tasks"] == 1
    assert m1["n_postings"] - m0["n_postings"] == len(words)
    assert tails > 0
    assert m1["postings_encoded"] == len(words) + tails


def test_segments_identical_for_any_block_count(
    ray_session, corpus_dir, tmp_path_factory, monkeypatch
):
    """A build and a purge merge write byte-identical segments whether the
    stages run as 4 blocks (1 CPU) or one block per segment (64 CPUs)."""
    from apache___solr_ray import build
    from apache___solr_ray.deletes import delete_by_url
    from apache___solr_ray.merge import merge_segments

    cfg = IndexConfig(
        term_partitions=8, target_docs_per_part=ROWS_PER_FILE, max_postings_per_segment=6000
    )

    def segment_bytes(idx):
        """Each committed segment's record but for its place in a pack (a
        block's segments share one), dictionary and postings."""
        man = read_json(os.path.join(idx, "index_manifest.json"))
        place = ("pack", "tdict_off", "post_off")
        entries = {s["name"]: {k: v for k, v in s.items() if k not in place} for s in man["segments"]}
        readers = open_segments(idx, man["segments"])
        out = {name: (entries[name], *r.raw()) for name, r in readers.items()}
        for r in readers.values():
            r.close()
        return out

    runs = {}
    for cpus in (1, 64):
        monkeypatch.setattr(build, "_cluster_cpus", lambda c=cpus: c)
        idx = str(tmp_path_factory.mktemp(f"index_cpus{cpus}"))
        man = build_index(corpus_dir, idx, cfg)
        assert man["metrics"]["phase_b_tasks"] == min(man["stats"]["n_segments"], 4 * cpus)
        built_segs = segment_bytes(idx)
        r = IndexReader(idx)
        urls = r.urls_for(np.array([0, 1, (1 << 32) + 3, (2 << 32) + 5], dtype=np.int64))
        r.close()
        assert delete_by_url(idx, urls) == 4
        merge_segments(idx, purge_deletes=True)
        runs[cpus] = built_segs, segment_bytes(idx)
    assert len(runs[1][0]) > 8  # salted: more segments than tkeys
    assert runs[1][0] == runs[64][0]
    assert runs[1][1] == runs[64][1]
