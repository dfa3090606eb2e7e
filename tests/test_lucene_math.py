"""Golden tests for the Lucene-exact math (SmallFloat, BM25, murmur3)."""

import math

import numpy as np
import pytest

from apache___solr_ray import lucene


def test_smallfloat_constants():
    # Values derived from the published Lucene SmallFloat algorithm
    assert lucene.MAX_INT4 == 231
    assert lucene.NUM_FREE_VALUES == 24


def test_smallfloat_small_values_exact():
    for i in range(24):
        assert lucene.int_to_byte4(i) == i
        assert lucene.byte4_to_int(i) == i


def test_smallfloat_monotonic_roundtrip():
    prev = -1
    for i in range(0, 100_000, 7):
        b = lucene.int_to_byte4(i)
        assert 0 <= b <= 255
        assert b >= prev
        prev = b
        dec = lucene.byte4_to_int(b)
        assert dec <= i
        if b < 255:
            assert lucene.byte4_to_int(b + 1) > i


def test_smallfloat_vectorized_matches_scalar():
    lens = np.arange(0, 50_000, dtype=np.int64)
    vec = lucene.int_to_byte4_array(lens)
    for i in range(0, 50_000, 997):
        assert vec[i] == lucene.int_to_byte4(int(lens[i]))
    assert vec[0] == 0 and vec[23] == 23


def test_length_table():
    assert lucene.LENGTH_TABLE[0] == 0.0
    assert lucene.LENGTH_TABLE[23] == 23.0
    assert np.all(np.diff(lucene.LENGTH_TABLE) >= 0)


def test_idf_values():
    # docCount=100, docFreq=10 -> ln(1 + 90.5/10.5)
    assert lucene.idf(10, 100) == pytest.approx(math.log(1 + 90.5 / 10.5), rel=0, abs=0)


def test_bm25_hand_computed():
    # one term: df=1, docCount=2, sumTotalTermFreq=30 -> avgdl=15
    sc = lucene.BM25Scorer(doc_freq=1, doc_count=2, sum_total_tf=30)
    # doc with tf=2, len=10 (norm byte 10 -> decoded 10)
    norm = np.array([lucene.int_to_byte4(10)], dtype=np.uint8)
    tf = np.array([2], dtype=np.int64)
    got = float(sc.score(tf, norm)[0])
    idf = math.log(1 + (2 - 1 + 0.5) / (1 + 0.5))
    w = np.float32(np.float32(1.0) * np.float32(idf) * np.float32(2.2))
    cache = np.float32(1.0) / (
        np.float32(1.2) * ((np.float32(1.0) - np.float32(0.75)) + np.float32(0.75) * np.float32(10.0) / np.float32(15.0))
    )
    expect = np.float32(w - w / (np.float32(1.0) + np.float32(2.0) * cache))
    assert got == float(expect)


def test_bm25_score_monotonicity():
    sc = lucene.BM25Scorer(doc_freq=5, doc_count=1000, sum_total_tf=100_000)
    tfs = np.array([1, 2, 4, 8, 100], dtype=np.int64)
    norms = np.full(5, lucene.int_to_byte4(100), dtype=np.uint8)
    s = sc.score(tfs, norms)
    assert np.all(np.diff(s) > 0)  # increasing in tf
    # longer doc scores lower at same tf
    s_short = sc.score(np.array([2]), np.array([lucene.int_to_byte4(10)], dtype=np.uint8))
    s_long = sc.score(np.array([2]), np.array([lucene.int_to_byte4(1000)], dtype=np.uint8))
    assert s_short[0] > s_long[0]


def test_sum_term_scores_float64_accumulate():
    a = np.array([0.1], dtype=np.float32)
    b = np.array([0.2], dtype=np.float32)
    got = lucene.sum_term_scores([a, b])
    assert got.dtype == np.float32
    assert got[0] == np.float32(np.float64(a[0]) + np.float64(b[0]))


def test_murmur3_known_vectors():
    # Public murmur3_x86_32 test vectors (seed 0)
    assert lucene.murmurhash3_x86_32(b"") == 0
    assert lucene.murmurhash3_x86_32(b"hello") == 0x248BFA47 - (1 << 32) * 0  # 613153351
    assert lucene.murmurhash3_x86_32(b"hello") == 613153351
    assert lucene.murmurhash3_x86_32(b"hello, world", 0) == 345750399
    assert lucene.murmurhash3_x86_32(b"The quick brown fox jumps over the lazy dog", 0) == 776992547
