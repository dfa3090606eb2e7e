"""Property tests (hypothesis): the postings codec round-trips ANY valid
posting list — huge doc-id gaps (cross-partition: part_id << 32), tf up to
int32, many blocks, single-posting lists — the group encoder equals the
single-term encoder payload-for-payload, and the whole-stream decode of
many views equals their concatenated per-block decodes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from apache___solr_ray.codec import (
    BLOCK,
    PostingsView,
    decode_postings_concat,
    encode_postings,
    encode_postings_group,
    varint_decode,
    varint_encode,
)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=0, max_size=300)
)
@settings(max_examples=60, deadline=None)
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    enc = varint_encode(arr)
    dec, used = varint_decode(enc, len(arr))
    assert used == len(enc)
    assert dec.tolist() == arr.tolist()


posting_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 45)),  # doc id incl. part bits
        st.integers(min_value=1, max_value=2_000_000),  # tf
        st.integers(min_value=0, max_value=255),  # norm byte
    ),
    min_size=1,
    max_size=5 * BLOCK + 7,
)


@given(posting_lists)
@settings(max_examples=40, deadline=None)
def test_postings_roundtrip_property(rows):
    # unique ascending doc ids
    seen = {}
    for d, tf, nm in rows:
        seen[d] = (tf, nm)
    docs = np.array(sorted(seen), dtype=np.int64)
    tfs = np.array([seen[d][0] for d in docs], dtype=np.int64)
    norms = np.array([seen[d][1] for d in docs], dtype=np.uint8)
    payload = encode_postings(docs, tfs, norms)
    v = PostingsView(payload)
    dd, tt, nn = v.decode_all()
    assert dd.tolist() == docs.tolist()
    assert tt.tolist() == tfs.tolist()
    assert nn.tolist() == norms.tolist()
    assert v.doc_freq == len(docs)
    # block headers carry exact maxima/minima (the block-max contract)
    for bi in range(v.n_blocks):
        d_b, t_b, n_b = v.decode_blocks(np.array([bi]))
        h = v.headers[bi]
        assert int(h["last_doc"]) == int(d_b[-1])
        assert int(h["max_tf"]) == int(t_b.max())
        assert int(h["min_norm"]) == int(n_b.min())
    # random block subset through the batch decoder
    if v.n_blocks > 1:
        sub = np.arange(0, v.n_blocks, 2, dtype=np.int64)
        d_s, t_s, n_s = v.decode_blocks(sub)
        want = np.concatenate([v.decode_blocks(np.array([b]))[0] for b in sub])
        assert d_s.tolist() == want.tolist()


@given(st.lists(posting_lists, min_size=1, max_size=5))
@settings(max_examples=20, deadline=None)
def test_group_encoder_equals_single_encoder(term_lists):
    docs_all, tfs_all, norms_all, starts, ends = [], [], [], [], []
    pos = 0
    singles = []
    for rows in term_lists:
        seen = {}
        for d, tf, nm in rows:
            seen[d] = (tf, nm)
        docs = np.array(sorted(seen), dtype=np.int64)
        tfs = np.array([seen[d][0] for d in docs], dtype=np.int64)
        norms = np.array([seen[d][1] for d in docs], dtype=np.uint8)
        singles.append(encode_postings(docs, tfs, norms))
        docs_all.append(docs)
        tfs_all.append(tfs)
        norms_all.append(norms)
        starts.append(pos)
        pos += len(docs)
        ends.append(pos)
    grouped = encode_postings_group(
        np.concatenate(docs_all),
        np.concatenate(tfs_all),
        np.concatenate(norms_all),
        np.array(starts, dtype=np.int64),
        np.array(ends, dtype=np.int64),
    )
    assert grouped == singles  # byte-identical payloads


@given(st.lists(posting_lists, min_size=1, max_size=5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_decode_concat_equals_decode_blocks(term_lists, small):
    views = []
    for rows in term_lists:
        seen = {}
        for d, tf, nm in rows:
            # small: every delta and tf-1 is one VInt byte (the no-loop path)
            seen[d % 100 if small else d] = (tf % 100 + 1 if small else tf, nm)
        docs = np.array(sorted(seen), dtype=np.int64)
        tfs = np.array([seen[d][0] for d in docs], dtype=np.int64)
        norms = np.array([seen[d][1] for d in docs], dtype=np.uint8)
        views.append(PostingsView(encode_postings(docs, tfs, norms)))
    got = decode_postings_concat(views)
    parts = [v.decode_blocks(np.arange(v.n_blocks, dtype=np.int64)) for v in views]
    for g, want, dtype in zip(got, zip(*parts), (np.int64, np.int64, np.uint8)):
        assert g.dtype == dtype
        assert g.tolist() == np.concatenate(want).tolist()
