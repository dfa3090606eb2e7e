"""Postings codec round-trip + skip-data properties."""

import numpy as np
import pytest

from apache___solr_ray import codec


def test_varint_roundtrip():
    rng = np.random.default_rng(1)
    vals = np.concatenate(
        [
            np.array([0, 1, 127, 128, 16383, 16384, 2**31, 2**45], dtype=np.uint64),
            rng.integers(0, 2**40, 500).astype(np.uint64),
        ]
    )
    buf = codec.varint_encode(vals)
    got, used = codec.varint_decode(buf, len(vals))
    assert used == len(buf)
    assert np.array_equal(got, vals)


def test_varint_sizes():
    assert len(codec.varint_encode(np.array([0], np.uint64))) == 1
    assert len(codec.varint_encode(np.array([127], np.uint64))) == 1
    assert len(codec.varint_encode(np.array([128], np.uint64))) == 2
    assert len(codec.varint_encode(np.array([16384], np.uint64))) == 3


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1000])
def test_postings_roundtrip(n):
    rng = np.random.default_rng(n)
    docs = np.sort(rng.choice(np.arange(0, 10 * n, dtype=np.int64), size=n, replace=False))
    tfs = rng.integers(1, 50, n).astype(np.int64)
    norms = rng.integers(0, 256, n).astype(np.uint8)
    payload = codec.encode_postings(docs, tfs, norms)
    view = codec.PostingsView(payload)
    assert view.doc_freq == n
    assert view.n_blocks == (n + codec.BLOCK - 1) // codec.BLOCK
    d, t, m = view.decode_all()
    assert np.array_equal(d, docs)
    assert np.array_equal(t, tfs)
    assert np.array_equal(m, norms)


def test_postings_sparse_doc_space():
    # doc ids with partition-style high bits (part << 32 | idx)
    docs = np.array([(0 << 32) + 5, (0 << 32) + 9, (3 << 32) + 1, (7 << 32) + 2**20], dtype=np.int64)
    tfs = np.array([1, 2, 3, 4], dtype=np.int64)
    norms = np.array([10, 20, 30, 40], dtype=np.uint8)
    view = codec.PostingsView(codec.encode_postings(docs, tfs, norms))
    d, t, m = view.decode_all()
    assert np.array_equal(d, docs)


def test_block_headers_are_skip_data():
    n = 1000
    docs = np.arange(0, 2 * n, 2, dtype=np.int64)
    tfs = np.tile(np.arange(1, 11, dtype=np.int64), n // 10)
    norms = np.full(n, 30, dtype=np.uint8)
    view = codec.PostingsView(codec.encode_postings(docs, tfs, norms))
    h = view.headers
    # last_doc strictly increasing -> binary-search skipping works
    assert np.all(np.diff(h["last_doc"].astype(np.int64)) > 0)
    assert int(h["n_docs"].sum()) == n
    # block-max metadata sound: decode each block, check bounds
    for bi in range(view.n_blocks):
        d, t, m = view.decode_blocks(np.array([bi]))
        assert int(h[bi]["max_tf"]) == int(t.max())
        assert int(h[bi]["min_norm"]) == int(m.min())
        assert int(h[bi]["last_doc"]) == int(d[-1])


def test_single_block_decode_without_others():
    n = 700
    docs = np.cumsum(np.random.default_rng(3).integers(1, 9, n)).astype(np.int64)
    tfs = np.ones(n, dtype=np.int64)
    norms = np.zeros(n, dtype=np.uint8)
    view = codec.PostingsView(codec.encode_postings(docs, tfs, norms))
    d, _, _ = view.decode_blocks(np.array([3]))  # decode middle block directly (skip path)
    lo, hi = 3 * codec.BLOCK, min(n, 4 * codec.BLOCK)
    assert np.array_equal(d, docs[lo:hi])
