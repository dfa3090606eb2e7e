"""Property tests: the batched ``IndexReader.topk`` equals the per-term
``topk_exhaustive`` scorer — same ranks, bit-identical float32 scores —
over the posting-list shapes the batched pass decodes differently: terms
split over several segment views, views in doc partitions >= 1 (first
delta >= 2^32), delta/tf streams of only one-byte values, tombstones
(including a term whose every posting is deleted), duplicate query terms
(boost n), ``field=`` queries on a multi-field schema, k at or above the
match count, and unknown terms.

Every other BM25 entry point scores through the same kernel
(``query._score_all``); each is checked against the answer derived from
``topk_exhaustive``, and ``topk_dismax`` against a per-field oracle. The
kernel's per-doc sum is checked bit for bit against sequential
``np.add.at`` on inputs where a pairwise sum rounds differently.

A reader scoped to parts [1, 3) of an index whose every segment holds
docs of every part answers only for its own docs: each doc-returning
entry point returns docs of parts 1-2 only, unscored answers equal the
full reader's restricted to the range, and ``topk`` with the global df
ranks as the full reader does restricted to the range, bit for bit (the
per-shard leg of ``QueryService``, Solr's per-shard searcher before
``mergeIds``)."""

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apache___solr_ray.build import FieldSpec, IndexConfig, build_index
from apache___solr_ray.corpus import write_pages
from apache___solr_ray.lucene import BM25Scorer
from apache___solr_ray.query import IndexReader, _sum_by_doc, merge_topk

UNKNOWN = ["no_such_term_xyzzy", "qqqzzz"]
K_CHOICES = [1, 3, 10, 100, 10**6]


def _assert_same(r: IndexReader, terms: list[str], k: int, field: str | None = None):
    q = " ".join(terms)
    d1, s1 = r.topk(q, k, field=field)
    d2, s2 = r.topk_exhaustive(q, k, field=field)
    assert d1.tolist() == d2.tolist(), (q, k, field)
    assert s1.dtype == s2.dtype == np.float32
    assert s1.view(np.uint32).tolist() == s2.view(np.uint32).tolist(), (q, k, field)
    return d1


def _assert_ranked(got, want, what):
    """Same docs in the same order, bit-identical float32 scores."""
    (d1, s1), (d2, s2) = got, want
    assert d1.tolist() == d2.tolist(), what
    assert s1.dtype == s2.dtype == np.float32, what
    assert s1.view(np.uint32).tolist() == s2.view(np.uint32).tolist(), what


def _max_terms_matched(r: IndexReader, terms: list[str]) -> int:
    docs = np.concatenate([r.term_postings(t).decode_all()[0] for t in terms])
    return int(np.unique(docs, return_counts=True)[1].max())


def _tombstone(r: IndexReader, terms: list[str], frac: float, seed: int) -> None:
    docs = np.unique(np.concatenate([r.term_postings(t).decode_all()[0] for t in terms]))
    r.tombstones = np.sort(docs[np.random.default_rng(seed).random(len(docs)) < frac])


def _one_byte_streams(v) -> bool:
    return v.t_base - v.d_base == v.doc_freq and v.n_base - v.t_base == v.doc_freq


def _vocab(r: IndexReader, prefix: str = "") -> dict[str, list[str]]:
    """Indexed terms grouped by the posting-list shape they exercise."""
    shapes: dict[str, list[str]] = {"split": [], "late_part": [], "one_byte": [], "head": []}
    terms = [t for t in r.expand_prefix(prefix) if t.isalnum() or prefix]
    for t in terms:
        tp = r.term_postings(t)
        if len(tp.views) > 1:
            shapes["split"].append(t)
        if any(int(v.decode_blocks(np.array([0]))[0][0]) >> 32 >= 1 for v in tp.views):
            shapes["late_part"].append(t)
        if any(_one_byte_streams(v) for v in tp.views):
            shapes["one_byte"].append(t)
    shapes["head"] = sorted(terms, key=lambda t: -r.term_postings(t).df)[:20]
    return {k: v[:40] for k, v in shapes.items()}


@pytest.fixture(scope="module")
def text_index(ray_session, tmp_path_factory):
    """Five doc partitions and a small postings-per-segment cap, so head
    terms split into several views and most views start in part >= 1."""
    d = str(tmp_path_factory.mktemp("prop_pages"))
    write_pages(d, 640, seed=7, rows_per_file=128, row_group_size=128)
    idx = str(tmp_path_factory.mktemp("prop_index"))
    build_index(
        d,
        idx,
        IndexConfig(term_partitions=4, target_docs_per_part=128, max_postings_per_segment=4000),
    )
    r = IndexReader(idx)
    shapes = _vocab(r)
    for name, terms in shapes.items():
        assert terms, f"fixture has no {name} terms"
    rare = [t for t in r.expand_prefix("") if t.isalnum() and r.term_postings(t).df <= 3]
    return r, shapes, rare[:40]


@pytest.fixture(scope="module")
def field_index(ray_session, tmp_path_factory):
    """Multi-field schema (title, body, copy-field all) over a 40-word
    vocabulary in one doc partition: dense terms give all-one-byte delta
    and tf streams."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    n = 400
    titles = [" ".join(rng.choice(vocab, size=rng.integers(1, 5))) for _ in range(n)]
    bodies = [" ".join(rng.choice(vocab, size=rng.integers(5, 50))) for _ in range(n)]
    d = str(tmp_path_factory.mktemp("prop_mf_pages"))
    pq.write_table(
        pa.table(
            {
                "url": pa.array([f"doc://{i}" for i in range(n)]),
                "lang": pa.array(["en"] * n),
                "title": pa.array(titles),
                "body": pa.array(bodies),
            }
        ),
        os.path.join(d, "p0.parquet"),
        row_group_size=100,
    )
    idx = str(tmp_path_factory.mktemp("prop_mf_index"))
    build_index(
        d,
        idx,
        IndexConfig(
            term_partitions=4,
            target_docs_per_part=1000,
            text_from_html=False,
            fields=(
                FieldSpec("title", source="title"),
                FieldSpec("body", source="body"),
                FieldSpec("all", copy_sources=("title", "body")),
            ),
        ),
    )
    r = IndexReader(idx)
    assert _vocab(r, "body:")["one_byte"], "fixture has no one-byte body terms"
    return r, vocab


def test_topk_equals_exhaustive_per_shape(text_index):
    r, shapes, rare = text_index
    for name, terms in shapes.items():
        for t in terms[:10]:
            for k in (1, 10, 10**6):
                _assert_same(r, [t], k)
        _assert_same(r, terms[:4], 10)
    # duplicate terms (boost n) and unknown terms mixed with known ones
    head = shapes["head"]
    _assert_same(r, [head[0], head[0], head[1]], 10)
    _assert_same(r, [rare[0], rare[0], rare[0]], 10)
    _assert_same(r, [UNKNOWN[0], head[2]], 10)
    assert len(r.topk(" ".join(UNKNOWN), 10)[0]) == 0
    # k above the number of matches returns every match
    got = _assert_same(r, [rare[0], rare[1]], 10**6)
    assert len(got) == len(r.match_docs(f"{rare[0]} {rare[1]}"))


def test_topk_equals_exhaustive_with_fully_deleted_term(text_index):
    r, shapes, rare = text_index
    doomed = rare[0]
    saved = r.tombstones
    try:
        r.tombstones = np.unique(
            np.concatenate([r.term_postings(doomed).decode_all()[0], saved])
        )
        assert len(_assert_same(r, [doomed], 10)) == 0
        _assert_same(r, [doomed, shapes["head"][0]], 10)
        _assert_same(r, [doomed, shapes["split"][0], doomed], 10**6)
    finally:
        r.tombstones = saved


@given(
    picks=st.lists(
        st.tuples(
            st.sampled_from(["split", "late_part", "one_byte", "head", "rare", "unknown"]),
            st.integers(min_value=0, max_value=39),
        ),
        min_size=1,
        max_size=5,
    ),
    k=st.sampled_from(K_CHOICES),
    deleted_frac=st.sampled_from([0.0, 0.02, 0.3, 0.9]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_topk_equals_exhaustive_property(text_index, picks, k, deleted_frac, seed):
    r, shapes, rare = text_index
    pools = dict(shapes, rare=rare, unknown=UNKNOWN)
    terms = [pools[name][i % len(pools[name])] for name, i in picks]
    saved = r.tombstones
    try:
        if deleted_frac:
            docs = np.unique(np.concatenate([r.term_postings(t).decode_all()[0] for t in shapes["head"]]))
            rng = np.random.default_rng(seed)
            r.tombstones = np.sort(docs[rng.random(len(docs)) < deleted_frac])
        _assert_same(r, terms, k)
    finally:
        r.tombstones = saved


@given(
    words=st.lists(st.integers(min_value=0, max_value=44), min_size=1, max_size=5),
    field=st.sampled_from(["title", "body", "all"]),
    k=st.sampled_from(K_CHOICES),
)
@settings(max_examples=40, deadline=None)
def test_topk_equals_exhaustive_field_property(field_index, words, field, k):
    r, vocab = field_index
    # indices past the vocabulary are unknown terms
    terms = [vocab[i] if i < len(vocab) else f"x{i}" for i in words]
    _assert_same(r, terms, k, field=field)


@pytest.mark.parametrize("deleted_frac", [0.0, 0.3])
def test_entry_points_equal_exhaustive(text_index, deleted_frac):
    """``topk``, ``topk(allowed=)``, ``topk(df_override=)`` (global df on a
    reader scoped to a part range), the conjunctive top-k (``allowed=`` over
    ``match_docs(mode="and")``), the boosted top-k (``merge_topk`` over the
    rescaled scores of every match), ``grouped_topk`` and three
    ``cursor_page`` pages equal what ``topk_exhaustive(q, 10**9)`` implies,
    rank for rank and bit for bit, with and without tombstones; a k = 0
    cursor page is empty and has no next cursor. The first
    query has twelve head terms and some doc matches at least nine of
    them, so docs sum nine or more addends."""
    r, shapes, rare = text_index
    head = shapes["head"]
    wide = head[:12]
    assert _max_terms_matched(r, wide) >= 9
    queries = [
        " ".join(wide),
        " ".join(shapes["split"][:3] + rare[:2]),
        f"{head[0]} {head[0]} {rare[3]} {UNKNOWN[0]}",
        f"{shapes['late_part'][0]} {shapes['one_byte'][0]}",
    ]
    shard = IndexReader(r.dir, part_range=(1, 3))
    lo, hi = 1 << 32, 3 << 32

    def allowed(d):
        return (d & 3) != 1

    def boost(d):
        return 1.0 / (1.0 + (d & 0xFF) / 64.0)

    saved = r.tombstones
    try:
        if deleted_frac:
            _tombstone(r, head, deleted_frac, seed=1)
        shard.tombstones = r.tombstones
        for q in queries:
            d_all, s_all = r.topk_exhaustive(q, 10**9)
            and_docs = r.match_docs(q, mode="and")
            must = np.isin(d_all, and_docs)
            in_range = (d_all >= lo) & (d_all < hi)
            boosted = (s_all.astype(np.float64) * boost(d_all)).astype(np.float32)
            by_boost = np.lexsort((d_all, -boosted.astype(np.float64)))
            d_m, s_m = r.topk(q, len(r.match_docs(q)))
            for k in (1, 10, 10**6):
                _assert_ranked(r.topk(q, k), (d_all[:k], s_all[:k]), ("topk", q, k))
                m = allowed(d_all)
                _assert_ranked(
                    r.topk(q, k, allowed=allowed), (d_all[m][:k], s_all[m][:k]), ("filtered", q, k)
                )
                _assert_ranked(
                    r.topk(q, k, allowed=lambda d: np.isin(d, and_docs)),
                    (d_all[must][:k], s_all[must][:k]),
                    ("and", q, k),
                )
                _assert_ranked(
                    shard.topk(q, k, df_override=r.term_stats_map(q)),
                    (d_all[in_range][:k], s_all[in_range][:k]),
                    ("range", q, k),
                )
                _assert_ranked(
                    merge_topk([(d_m, (s_m.astype(np.float64) * boost(d_m)).astype(np.float32))], k),
                    (d_all[by_boost][:k], boosted[by_boost][:k]),
                    ("boosted", q, k),
                )
            langs = np.asarray(r.fetch_fields(d_all, ["lang"]).column("lang").to_pylist(), object)
            groups = r.grouped_topk(q, "lang", k_per_group=3)
            assert sorted(groups) == sorted(set(langs.tolist())), q
            for g, got in groups.items():
                m = langs == g
                _assert_ranked(got, (d_all[m][:3], s_all[m][:3]), ("grouped", q, g))
            pages, cursor = [], None
            for _ in range(3):
                d, s, cursor = r.cursor_page(q, 7, cursor)
                pages.append((d, s))
                if cursor is None:
                    break
            got = (np.concatenate([d for d, _ in pages]), np.concatenate([s for _, s in pages]))
            _assert_ranked(got, (d_all[:21], s_all[:21]), ("cursor", q))
            d, s, cursor = r.cursor_page(q, 0)
            assert len(d) == len(s) == 0 and cursor is None, ("cursor k=0", q)
    finally:
        r.tombstones = saved


# -- a reader scoped to a part range answers only for its own docs ----------

#: the scoped reader's parts [LO, HI)
LO, HI = 1, 3


def _in_range(docs: np.ndarray) -> np.ndarray:
    parts = np.asarray(docs, dtype=np.int64) >> 32
    return (parts >= LO) & (parts < HI)


@pytest.fixture(scope="module")
def scoped_index(ray_session, tmp_path_factory):
    """Four doc parts, one segment per tkey: every segment spans every
    part, so a scoped reader opens all of them."""
    d = str(tmp_path_factory.mktemp("scoped_pages"))
    write_pages(d, 400, seed=5, rows_per_file=100, row_group_size=100)
    idx = str(tmp_path_factory.mktemp("scoped_index"))
    man = build_index(d, idx, IndexConfig(term_partitions=4, target_docs_per_part=100))
    assert man["stats"]["n_doc_parts"] == 4
    assert {(s["part_lo"], s["part_hi"]) for s in man["segments"]} == {(0, 4)}
    full, shard = IndexReader(idx), IndexReader(idx, part_range=(LO, HI))
    assert shard._readers.keys() == full._readers.keys()
    heads = full.term_dict().sort_by([("df", "descending")]).column("term").to_pylist()[:40]
    yield full, shard, heads
    full.close()
    shard.close()


def _split(docs: np.ndarray) -> bool:
    """The range holds some of ``docs`` and not all of them."""
    m = _in_range(docs)
    return bool(m.any() and not m.all())


def test_scoped_reader_boolean_and_ranked_answers(scoped_index):
    full, shard, heads = scoped_index
    queries = [f"{heads[0]} {heads[7]}", f"{heads[3]} {heads[12]} {heads[30]}", f"{heads[25]} {heads[39]}"]
    for q in queries:
        d_all, s_all = full.topk_exhaustive(q, 10**9)
        m = _in_range(d_all)
        assert _split(d_all), q
        for kw in ({"mode": "or"}, {"mode": "and"}, {"min_should_match": 2}):
            want = full.match_docs(q, **kw)
            got = shard.match_docs(q, **kw)
            assert got.tolist() == want[_in_range(want)].tolist(), (q, kw)
        want = full.topic_poll(q, -1, 10**6)[0]
        got, ckpt = shard.topic_poll(q, -1, 10**6)
        assert got.tolist() == want[_in_range(want)].tolist() and ckpt == int(got[-1]), q
        for k in (1, 10, 10**6):
            got = shard.topk(q, k, df_override=full.term_stats_map(q))
            _assert_ranked(got, (d_all[m][:k], s_all[m][:k]), ("df_override", q, k))
            _assert_ranked(shard.topk(q, k), shard.topk_exhaustive(q, k), ("exhaustive", q, k))

        def allowed(d):
            return (d & 1) == 0

        answers = {
            "topk": shard.topk(q, 10**6)[0],
            "allowed": shard.topk(q, 10**6, allowed=allowed)[0],
            "exhaustive": shard.topk_exhaustive(q, 10**6)[0],
            "cursor": shard.cursor_page(q, 10**6)[0],
            "grouped": np.concatenate([d for d, _ in shard.grouped_topk(q, "lang", 10**6).values()]),
        }
        for name, docs in answers.items():
            assert len(docs) and _in_range(docs).all(), (name, q)
        assert sorted(answers["grouped"].tolist()) == sorted(answers["topk"].tolist()), q
        assert set(answers["allowed"].tolist()) == {d for d in answers["topk"].tolist() if d % 2 == 0}, q


def test_scoped_reader_positional_answers(scoped_index):
    full, shard, heads = scoped_index
    phrases = [
        p
        for a in heads[:8]
        for b in heads[:8]
        if a != b and _split(full.phrase_freqs(p := f"{a} {b}")[0])
    ][:3]
    assert phrases
    for phrase in phrases:
        want = full.phrase_freqs(phrase)
        m = _in_range(want[0])
        for got, w in zip(shard.phrase_freqs(phrase), want):
            assert got.tolist() == w[m].tolist(), phrase
        want = full.span_near_docs(phrase, slop=2)
        assert shard.span_near_docs(phrase, slop=2).tolist() == want[_in_range(want)].tolist(), phrase
        docs, _ = shard.topk_phrase(phrase, 10**6)
        assert len(docs) and _in_range(docs).all(), phrase
        assert sorted(docs.tolist()) == shard.phrase_freqs(phrase)[0].tolist(), phrase
    for term in heads[:3]:
        want = full.payload_scores(term)
        assert _split(want[0]), term
        m = _in_range(want[0])
        for got, w in zip(shard.payload_scores(term), want):
            assert got.tolist() == w[m].tolist(), term


def _dismax_oracle(r: IndexReader, query: str, qf: dict[str, float], tie: float):
    """Per-field decode and score, as in ``test_multifield``'s dismax test,
    with the engine's rounding: per term ``max + tie * (sum - max)`` over
    the fields in ``qf`` order in float64, rounded to float32, then terms
    summed in float64 in query order. Ranked by (score desc, doc asc)."""
    acc: dict[int, float] = {}
    for tok, n in Counter(r.analyzer.analyze(query)).items():
        per_doc: dict[int, list[float]] = {}
        for fname, boost in qf.items():
            tp = r.term_postings(f"{fname}:{tok}")
            if tp is None:
                continue
            fs = r.field_stats[fname]
            sc = BM25Scorer(tp.df, fs["doc_count"], fs["sum_total_tf"], boost=n * boost)
            d, tf, nm = tp.decode_all()
            live = ~np.isin(d, r.tombstones)
            for di, s in zip(d[live], sc.score(tf[live], nm[live])):
                per_doc.setdefault(int(di), []).append(float(s))
        for di, ss in per_doc.items():
            comb = np.float32(max(ss) + tie * (sum(ss) - max(ss)))
            acc[di] = acc.get(di, 0.0) + float(comb)
    ranked = sorted(acc.items(), key=lambda kv: (-np.float32(kv[1]), kv[0]))
    return (
        np.array([d for d, _ in ranked], dtype=np.int64),
        np.array([v for _, v in ranked], dtype=np.float64).astype(np.float32),
    )


@pytest.mark.parametrize("deleted_frac", [0.0, 0.3])
def test_dismax_equals_per_field_oracle(field_index, deleted_frac):
    r, vocab = field_index
    saved = r.tombstones
    try:
        if deleted_frac:
            _tombstone(r, [f"all:{w}" for w in vocab], deleted_frac, seed=2)
        for query in ["w1 w7", "w3 w3 w12 w30 x99", " ".join(vocab[:10])]:
            for qf in ({"title": 2.0, "body": 1.0}, {"body": 1.0, "all": 0.5, "title": 3.0}):
                for tie in (0.0, 0.3):
                    d_all, s_all = _dismax_oracle(r, query, qf, tie)
                    for k in (10, 10**6):
                        _assert_ranked(
                            r.topk_dismax(query, qf=qf, k=k, tie=tie),
                            (d_all[:k], s_all[:k]),
                            (query, qf, tie, k),
                        )
    finally:
        r.tombstones = saved


def test_sum_by_doc_adds_in_input_order():
    """``_score_all``'s per-doc sum equals sequential ``np.add.at`` bit for
    bit. Addends are float32 from 2^-45 to 2^11, nine to forty per doc,
    laid out like concatenated posting lists (one addend of every doc,
    then the next). Half the docs are built so that a pairwise sum (what
    ``np.add.reduceat`` does for runs longer than 8) rounds differently:
    ``big + half_ulp`` sits on a float32 rounding tie that sixteen 2^-44
    addends cross only when they are first added to each other."""
    rng = np.random.default_rng(0)
    n_docs = 4000
    rows = []
    for i in range(n_docs):
        if i % 2:
            n = int(rng.integers(9, 41))
            rows.append(np.exp2(rng.uniform(-45, 11, n)).astype(np.float32))
        else:
            # an even float32 mantissa: the tie rounds down, the crossed tie up
            big = np.float32(1024 + 2 * rng.integers(0, 2**22) * 2.0**-13)
            half_ulp = np.float32(2.0**-14)
            rows.append(np.array([big, half_ulp] + [2.0**-44] * 16, dtype=np.float32))
    width = max(len(v) for v in rows)
    grid = np.full((width, n_docs), np.nan, dtype=np.float32)
    for j, v in enumerate(rows):
        grid[: len(v), j] = v
    doc_ids = (np.arange(n_docs, dtype=np.int64) * 5 + 7) | (np.int64(2) << 32)
    docs = np.broadcast_to(doc_ids, grid.shape).ravel()
    scores = grid.ravel()
    present = ~np.isnan(scores)
    docs, scores = docs[present], scores[present]

    uniq, inv = np.unique(docs, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(acc, inv, scores.astype(np.float64))
    want = acc.astype(np.float32)

    got_d, got_s = _sum_by_doc(docs, scores)
    assert got_d.tolist() == uniq.tolist()
    assert got_s.view(np.uint32).tolist() == want.view(np.uint32).tolist()

    # the inputs tell the orders apart: a pairwise reduce misses on them
    order = np.argsort(docs, kind="stable")
    starts = np.flatnonzero(np.diff(docs[order], prepend=-1))
    pairwise = np.add.reduceat(scores[order].astype(np.float64), starts).astype(np.float32)
    assert (pairwise.view(np.uint32) != want.view(np.uint32)).sum() >= n_docs // 4
