"""Phrase queries (positions): engine results vs brute-force recomputation.

Reference semantics: Lucene ExactPhraseMatcher (slop=0) + BM25 with summed
idf (PhraseWeight); Solr surface TestComplexPhraseQParserPlugin.java.
"""

import numpy as np
import pytest

from apache___solr_ray.analyze import Analyzer
from apache___solr_ray.build import IndexConfig, build_index
from apache___solr_ray.corpus import write_pages
from apache___solr_ray.extract import extract_batch
from apache___solr_ray.query import IndexReader

PHRASES = [
    # bigrams present in the seed-42 synthetic corpus (incl. a repeated-token
    # phrase, which exercises overlapping-start counting)
    "fubkeh fubkeh",
    "fubkeh cojfejuq",
    "reficijhe reraqahi",
    "guwo fubkeh",
    "state of the art",
    "nonexistent phrase here",
    "the",  # single-term phrase == term query
    "fubkeh fubkeh fubkeh",
    "cojfejuq cojfejuq",
]

#: ordered span-near queries (2 and 3 clauses), checked at slops 0-3
SPANS = [
    "fast data",
    "fubkeh cojfejuq",
    "guwo reraqahi",
    "cojfejuq fubkeh reficijhe",
    "fubkeh guwo fubkeh",
]

#: complex phrases with one wildcard clause
COMPLEX = ["fub* cojfejuq", "fubkeh g*", "fubkeh ?uwo", "re* fubkeh"]


def brute_phrase(analyzer, texts, phrase):
    """(doc_row -> phrase_freq) recomputed from analyzed token streams."""
    toks = analyzer.analyze(phrase)
    out = {}
    for row, text in enumerate(texts):
        doc_toks = analyzer.analyze(text)
        n = 0
        for i in range(len(doc_toks) - len(toks) + 1):
            if doc_toks[i : i + len(toks)] == toks:
                n += 1
        if n:
            out[row] = n
    return out


def row_of(doc) -> int:
    """Corpus row of an engine doc id, ``(part << 32) + row`` with 128-doc parts."""
    return (int(doc) >> 32) * 128 + (int(doc) & 0xFFFFFFFF)


def doc_of(row: int) -> int:
    return ((row // 128) << 32) + row % 128


def brute_span(doc_toks, clauses, slop):
    """Rows holding positions p_0 < ... < p_{n-1}, p_i matching the
    fnmatch pattern ``clauses[i]``, with p_{n-1} - p_0 - (n-1) <= slop."""
    from fnmatch import fnmatchcase

    def chain(pos, i, lo, hi):
        return i == len(pos) or any(chain(pos, i + 1, p + 1, hi) for p in pos[i] if lo <= p <= hi)

    out = set()
    for row, toks in enumerate(doc_toks):
        pos = [[p for p, t in enumerate(toks) if fnmatchcase(t, c)] for c in clauses]
        if any(chain(pos, 1, p + 1, p + len(clauses) - 1 + slop) for p in pos[0]):
            out.add(row)
    return out


def check_positional_oracle(r, texts, dead=frozenset()):
    """phrase_freqs, span_near_docs (slops 0-3) and complex_phrase_docs
    equal the brute-force oracles over the texts of the live docs."""
    a = Analyzer()
    doc_toks = [a.analyze(t) for t in texts]

    def rows(docs):
        return {row_of(d) for d in docs}

    for ph in PHRASES:
        docs, freq, _ = r.phrase_freqs(ph)
        got = {row_of(d): int(f) for d, f in zip(docs, freq)}
        want = {k: v for k, v in brute_phrase(a, texts, ph).items() if k not in dead}
        assert got == want, ph
    n_hits = 0
    for q in SPANS:
        for slop in range(4):
            want = brute_span(doc_toks, a.analyze(q), slop) - dead
            assert rows(r.span_near_docs(q, slop=slop)) == want, (q, slop)
            n_hits += len(want)
    for q in COMPLEX:
        for slop in (0, 2):
            pats = [c if "*" in c or "?" in c else a.analyze(c)[0] for c in q.split()]
            want = brute_span(doc_toks, pats, slop) - dead
            assert rows(r.complex_phrase_docs(q, slop=slop)) == want, (q, slop)
            n_hits += len(want)
    assert n_hits > 0


@pytest.fixture(scope="module")
def phrase_index(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    d = str(tmp_path_factory.mktemp("pages_ph"))
    write_pages(d, 400, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_ph"))
    cfg = IndexConfig(term_partitions=3, target_docs_per_part=128, max_postings_per_segment=4000)
    build_index(d, idx, cfg)
    # the texts the build analyzed (html -> text), in doc-id order
    import os

    texts = []
    for f in sorted(os.listdir(d)):
        t = pq.read_table(os.path.join(d, f), columns=["html"])
        texts.extend(extract_batch(t.column("html")).to_pylist())
    return idx, texts


def test_phrase_matches_brute(phrase_index):
    idx, texts = phrase_index
    check_positional_oracle(IndexReader(idx), texts)


def test_phrase_survives_merge(phrase_index):
    from apache___solr_ray.merge import merge_segments

    idx, texts = phrase_index
    r0 = IndexReader(idx)
    before = {ph: r0.phrase_freqs(ph) for ph in PHRASES}
    merge_segments(idx, target_per_tkey=1, merge_factor=4)
    r1 = IndexReader(idx)
    for ph in PHRASES:
        d0, f0, n0 = before[ph]
        d1, f1, n1 = r1.phrase_freqs(ph)
        assert np.array_equal(d0, d1), ph
        assert np.array_equal(f0, f1), ph
        assert np.array_equal(n0, n1), ph


def test_phrase_topk_scoring(phrase_index):
    """topk_phrase == brute BM25 over phrase freqs with summed idf."""
    from apache___solr_ray.lucene import BM25Scorer

    idx, _ = phrase_index
    r = IndexReader(idx)
    for ph in ["fubkeh fubkeh", "fubkeh cojfejuq", "state of the art"]:
        docs, freq, norms = r.phrase_freqs(ph)
        if len(docs) == 0:
            continue
        toks = r.analyzer.analyze(ph)
        dfs = [r.term_postings(t).df for t in toks]
        sc = BM25Scorer(dfs, r.doc_count, r.sum_total_tf)
        scores = sc.score(freq, norms)
        order = np.lexsort((docs, -scores.astype(np.float64)))[:10]
        d_ref = docs[order]
        s_ref = scores[order]
        d_got, s_got = r.topk_phrase(ph, 10)
        assert d_got.tolist() == d_ref.tolist()
        assert s_got.tolist() == s_ref.tolist()


def test_phrase_with_deletes(phrase_index):
    """Tombstoned docs drop out of phrase results immediately; with every
    ninth doc deleted too, the positional answers equal the brute-force
    oracles over the live texts."""
    from apache___solr_ray.deletes import delete_by_url

    idx, texts = phrase_index
    r0 = IndexReader(idx)
    docs, _, _ = r0.phrase_freqs("fubkeh cojfejuq")
    assert len(docs) > 0, "fixture phrase must match"
    victims = r0.urls_for(docs[:1])
    delete_by_url(idx, victims)
    try:
        r1 = IndexReader(idx)
        d1, _, _ = r1.phrase_freqs("fubkeh cojfejuq")
        assert int(docs[0]) not in d1.tolist()
        assert set(d1.tolist()) == set(docs[1:].tolist())
        dead = {row_of(docs[0])} | set(range(0, len(texts), 9))
        delete_by_url(idx, r1.urls_for(np.array([doc_of(row) for row in sorted(dead)])))
        r2 = IndexReader(idx)
        assert len(r2.tombstones) == len(dead)
        check_positional_oracle(r2, texts, dead)
    finally:
        from apache___solr_ray.deletes import clear_tombstones

        clear_tombstones(idx)


def test_positions_identical_across_layouts(ray_session, tmp_path_factory):
    """phrase_freqs is identical whether positions come from one segment per
    tkey, from doc-range-split sub-segments, or from those sub-segments
    merged back into one (merges carry position payloads as raw bytes)."""
    from apache___solr_ray.merge import merge_segments

    d = str(tmp_path_factory.mktemp("pages_ph_layout"))
    write_pages(d, 256, seed=42, rows_per_file=64)
    base = dict(term_partitions=2, target_docs_per_part=64)
    idxs = [str(tmp_path_factory.mktemp(f"index_ph_{n}")) for n in ("whole", "split", "merged")]
    build_index(d, idxs[0], IndexConfig(**base))
    for idx in idxs[1:]:
        man = build_index(d, idx, IndexConfig(**base, max_postings_per_segment=2000))
        assert any(s["salt"] > 0 for s in man["segments"])  # doc-range split
    merge_segments(idxs[2], target_per_tkey=1, merge_factor=3)
    readers = [IndexReader(i) for i in idxs]
    n_hits = 0
    for ph in PHRASES:
        want = readers[0].phrase_freqs(ph)
        n_hits += len(want[0])
        for r in readers[1:]:
            got = r.phrase_freqs(ph)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), ph
    assert n_hits > 0


def test_config_change_rebuilds_segments(ray_session, tmp_path_factory):
    """A config change (positions on) over an existing index_dir must
    rebuild every segment — the lineage includes the build config, so
    stale no-position segments can't be resumed (same inputs, same
    posting counts)."""
    d = str(tmp_path_factory.mktemp("pages_cc"))
    write_pages(d, 200, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_cc"))
    base = dict(term_partitions=2, target_docs_per_part=128)
    build_index(d, idx, IndexConfig(**base, store_positions=False))
    build_index(d, idx, IndexConfig(**base, store_positions=True))
    r = IndexReader(idx)
    tp = r.term_postings("the")
    assert all(v.has_positions for v in tp.views)
    r.phrase_freqs("state of the art")  # must not raise


def test_no_positions_config(ray_session, tmp_path_factory):
    """store_positions=False: slimmer postings, phrase raises cleanly."""
    d = str(tmp_path_factory.mktemp("pages_nopos"))
    write_pages(d, 100, seed=3, rows_per_file=64)
    idx = str(tmp_path_factory.mktemp("index_nopos"))
    cfg = IndexConfig(term_partitions=2, target_docs_per_part=64, store_positions=False)
    build_index(d, idx, cfg)
    r = IndexReader(idx)
    d_, s_ = r.topk("the fast data", 10)  # BM25 unaffected
    assert len(d_) > 0
    tp = r.term_postings("the")
    assert tp is not None and not tp.views[0].has_positions
    with pytest.raises(ValueError):
        tp.views[0].decode_blocks_positions(np.array([0]), np.array([1]))
    # a one-token phrase or span answers from tf and reads no positions
    docs, tfs, norms = tp.decode_all()
    for got, want in zip(r.phrase_freqs("the"), (docs, tfs, norms)):
        assert got.tolist() == want.tolist()
    assert r.span_near_docs("the", slop=2).tolist() == docs.tolist()
    with pytest.raises(ValueError):
        r.phrase_freqs("the the")


def test_span_near_slop0_equals_phrase(phrase_index):
    """span_near_docs(slop=0) == exact-phrase doc set; growing slop only
    adds docs (monotone); brute positions check against the raw texts."""
    idx, texts = phrase_index
    r = IndexReader(idx)
    for q in ["the fast data", "state of the art", *SPANS]:
        phrase_docs = set(r.phrase_freqs(q)[0].tolist())
        span0 = set(r.span_near_docs(q, slop=0).tolist())
        assert span0 == phrase_docs
        prev = span0
        for slop in (1, 3, 8):
            cur = set(r.span_near_docs(q, slop=slop).tolist())
            assert prev <= cur
            prev = cur

    # brute-force oracle on the raw analyzed texts at the widest slop (the
    # slops 0-3 are checked by test_phrase_matches_brute)
    an = Analyzer()
    doc_toks = [an.analyze(t) for t in texts]
    for q in SPANS:
        got = {row_of(d) for d in r.span_near_docs(q, slop=8)}
        assert got == brute_span(doc_toks, an.analyze(q), 8), q
