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
]


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
    r = IndexReader(idx)
    a = Analyzer()
    for ph in PHRASES:
        docs, freq, _ = r.phrase_freqs(ph)
        got = {int(d): int(f) for d, f in zip(docs, freq)}
        # engine doc_id = (part << 32) + row with 128-doc parts
        got_rows = {(d >> 32) * 128 + (d & 0xFFFFFFFF): f for d, f in got.items()}
        expect = brute_phrase(a, texts, ph)
        assert got_rows == expect, ph


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
    """Tombstoned docs drop out of phrase results immediately."""
    from apache___solr_ray.deletes import delete_by_url

    idx, _ = phrase_index
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


def test_span_near_slop0_equals_phrase(phrase_index):
    """span_near_docs(slop=0) == exact-phrase doc set; growing slop only
    adds docs (monotone); brute positions check against the raw texts."""
    idx, texts = phrase_index
    r = IndexReader(idx)
    for q in ["the fast data", "state of the art"]:
        phrase_docs = set(r.phrase_freqs(q)[0].tolist())
        span0 = set(r.span_near_docs(q, slop=0).tolist())
        assert span0 == phrase_docs
        prev = span0
        for slop in (1, 3, 8):
            cur = set(r.span_near_docs(q, slop=slop).tolist())
            assert prev <= cur
            prev = cur

    # brute-force oracle on the raw analyzed texts: 2-term span, slop=2
    from apache___solr_ray.analyze import Analyzer

    an = Analyzer()
    want = set()
    for i, txt in enumerate(texts):
        toks = an.analyze(txt)
        pos_a = [p for p, t in enumerate(toks) if t == "fast"]
        pos_b = [p for p, t in enumerate(toks) if t == "data"]
        if any(0 < b - a <= 3 for a in pos_a for b in pos_b):
            part, row = divmod(i, 128)
            want.add((part << 32) + row)
    got = set(r.span_near_docs("fast data", slop=2).tolist())
    assert got == want
