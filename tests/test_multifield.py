"""Multi-field schema (IndexSchema / copyField / per-field BM25 / edismax qf).

Reference semantics: per-field terms + per-field CollectionStatistics
(solr/core/src/java/org/apache/solr/schema/IndexSchema.java), copyField
fan-in (DocumentBuilder.java:183-230), edismax qf/tie
(solr/core/src/java/org/apache/solr/search/ExtendedDismaxQParser.java).
"""

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from apache___solr_ray.analyze import Analyzer
from apache___solr_ray.build import FieldSpec, IndexConfig, build_index
from apache___solr_ray.query import IndexReader

N = 300


@pytest.fixture(scope="module")
def mf_corpus(tmp_path_factory):
    """Tiny two-text-column corpus: title (short) + body (longer)."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    titles, bodies = [], []
    for i in range(N):
        titles.append(" ".join(rng.choice(vocab, size=rng.integers(2, 5))))
        bodies.append(" ".join(rng.choice(vocab, size=rng.integers(10, 60))))
    t = pa.table(
        {
            "url": pa.array([f"doc://{i}" for i in range(N)]),
            "lang": pa.array(["en"] * N),
            "title": pa.array(titles),
            "body": pa.array(bodies),
        }
    )
    d = str(tmp_path_factory.mktemp("mf_pages"))
    pq.write_table(t, os.path.join(d, "p0.parquet"), row_group_size=64)
    return d, titles, bodies


@pytest.fixture(scope="module")
def mf_built(ray_session, mf_corpus, tmp_path_factory):
    d, titles, bodies = mf_corpus
    idx = str(tmp_path_factory.mktemp("mf_index"))
    cfg = IndexConfig(
        term_partitions=4,
        target_docs_per_part=128,
        text_from_html=False,
        fields=(
            FieldSpec("title", source="title"),
            FieldSpec("body", source="body"),
            FieldSpec("all", copy_sources=("title", "body")),
        ),
    )
    man = build_index(d, idx, cfg)
    return idx, man


def _field_df(titles_or_bodies):
    an = Analyzer()
    df: Counter = Counter()
    ttf: Counter = Counter()
    for txt in titles_or_bodies:
        toks = an.analyze(txt)
        ttf.update(toks)
        df.update(set(toks))
    return df, ttf


def test_field_stats_and_df(mf_built, mf_corpus):
    idx, man = mf_built
    _, titles, bodies = mf_corpus
    an = Analyzer()
    fs = man["stats"]["fields"]
    assert fs["title"]["sum_total_tf"] == sum(len(an.analyze(t)) for t in titles)
    assert fs["body"]["sum_total_tf"] == sum(len(an.analyze(b)) for b in bodies)
    assert fs["all"]["sum_total_tf"] == fs["title"]["sum_total_tf"] + fs["body"]["sum_total_tf"]
    assert fs["title"]["doc_count"] == sum(1 for t in titles if an.analyze(t))

    r = IndexReader(idx)
    df_t, ttf_t = _field_df(titles)
    for term in list(df_t)[:10]:
        tp = r.term_postings(f"title:{term}")
        assert tp is not None and tp.df == df_t[term] and tp.ttf == ttf_t[term]
    # copyField fan-in: all's ttf = title + body
    df_b, ttf_b = _field_df(bodies)
    for term in list(df_t)[:5]:
        tp = r.term_postings(f"all:{term}")
        assert tp.ttf == ttf_t[term] + ttf_b.get(term, 0)
    # unprefixed term space is empty in a multi-field schema
    assert r.term_postings(list(df_t)[0]) is None


def test_per_field_bm25_equals_single_field_index(
    mf_built, mf_corpus, ray_session, tmp_path_factory
):
    """Scoring field=body on the multi-field index must byte-match a
    dedicated single-field index over the same text (same stats, same df,
    same norms)."""
    idx_mf, _ = mf_built
    d, titles, bodies = mf_corpus
    sd = str(tmp_path_factory.mktemp("single_pages"))
    pq.write_table(
        pa.table(
            {
                "url": pa.array([f"doc://{i}" for i in range(N)]),
                "lang": pa.array(["en"] * N),
                "text": pa.array(bodies),
            }
        ),
        os.path.join(sd, "p0.parquet"),
        row_group_size=64,
    )
    idx_s = str(tmp_path_factory.mktemp("single_index"))
    build_index(
        sd,
        idx_s,
        IndexConfig(term_partitions=4, target_docs_per_part=128, text_from_html=False),
    )
    r_mf, r_s = IndexReader(idx_mf), IndexReader(idx_s)
    # every doc has a non-empty body -> field docCount == collection docCount
    for q in ["w1 w2 w3", "w10", "w5 w5 w39"]:
        d_mf, s_mf = r_mf.topk(q, 10, field="body")
        d_s, s_s = r_s.topk(q, 10)
        assert d_mf.tolist() == d_s.tolist()
        assert s_mf.tolist() == s_s.tolist()
        # topk == exhaustive on the field path too
        d_ex, s_ex = r_mf.topk_exhaustive(q, 10, field="body")
        assert d_mf.tolist() == d_ex.tolist() and s_mf.tolist() == s_ex.tolist()


def test_dismax_semantics(mf_built):
    """topk_dismax == hand-rolled max+tie*(sum-max) over per-field decodes."""
    idx, _ = mf_built
    r = IndexReader(idx)
    qf = {"title": 2.0, "body": 1.0}
    tie = 0.3
    query = "w1 w7"
    docs, scores = r.topk_dismax(query, qf=qf, k=15, tie=tie)

    # oracle: accumulate per (term, doc) per-field scores
    per_term: dict[str, dict[int, list[float]]] = {}
    for tok in ["w1", "w7"]:
        m: dict[int, list[float]] = {}
        for fname, boost in qf.items():
            tp = r.term_postings(f"{fname}:{tok}")
            if tp is None:
                continue
            from apache___solr_ray.lucene import BM25Scorer

            dc = r.field_stats[fname]["doc_count"]
            stf = r.field_stats[fname]["sum_total_tf"]
            sc = BM25Scorer(tp.df, dc, stf, boost=boost)
            dd, tf, nm = tp.decode_all()
            for di, s in zip(dd, sc.score(tf, nm)):
                m.setdefault(int(di), []).append(float(s))
        per_term[tok] = m
    acc: dict[int, float] = {}
    for tok, m in per_term.items():
        for di, ss in m.items():
            acc[di] = acc.get(di, 0.0) + (max(ss) + tie * (sum(ss) - max(ss)))
    order = sorted(acc.items(), key=lambda kv: (-np.float32(kv[1]), kv[0]))[:15]
    assert [d for d, _ in order] == docs.tolist()
    np.testing.assert_allclose(
        [s for _, s in order], scores.astype(np.float64), rtol=1e-5
    )


def test_default_schema_unchanged(ray_session, tmp_path_factory):
    """fields=() keeps the implicit single unprefixed field (no stats.fields)."""
    from apache___solr_ray.corpus import write_pages

    d = str(tmp_path_factory.mktemp("plain_pages"))
    write_pages(d, 128, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("plain_index"))
    man = build_index(d, idx, IndexConfig(term_partitions=2, target_docs_per_part=64))
    assert "fields" not in man["stats"]
    r = IndexReader(idx)
    assert r.topk("the", 5)[0].size > 0
