"""Property tests: the batched ``IndexReader.topk`` equals the per-term
``topk_exhaustive`` scorer — same ranks, bit-identical float32 scores —
over the posting-list shapes the batched pass decodes differently: terms
split over several segment views, views in doc partitions >= 1 (first
delta >= 2^32), delta/tf streams of only one-byte values, tombstones
(including a term whose every posting is deleted), duplicate query terms
(boost n), ``field=`` queries on a multi-field schema, k at or above the
match count, and unknown terms."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apache___solr_ray.build import FieldSpec, IndexConfig, build_index
from apache___solr_ray.corpus import write_pages
from apache___solr_ray.query import IndexReader

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
