"""Property tests (hypothesis): the postings codec round-trips posting
lists of one to five full blocks plus a tail — doc-id gaps of every VInt
width (cross-partition: up to 2^40), tf up to 2^21, or only one-byte
deltas and tfs — with exact block headers, the group encoder equals the
single-term encoder payload-for-payload, and the whole-stream decode of
many views equals their concatenated per-block decodes. Single-block
payloads (no stored header) round-trip with and without positions, their
derived header equals the one the payload used to store, and the phrase
path decodes them once. Any sorted subset of a view's blocks decodes to
the encoder's input rows and positions of those blocks. Continuing a stored payload's complete blocks with
later postings gives the bytes of encoding the whole list."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apache___solr_ray.codec import (
    _HEADER_DTYPE,
    BLOCK,
    HEADER_BYTES,
    PostingsView,
    block_prefixes,
    decode_postings_concat,
    decode_tails,
    encode_position_gaps,
    encode_postings,
    encode_postings_group,
    varint_decode,
    varint_encode,
)
from apache___solr_ray.query import IndexReader, TermPostings
from apache___solr_ray.segment import open_segments


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


#: (full 128-doc blocks, tail postings, seed) of one posting list
posting_lists = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=BLOCK - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _postings(n_full: int, tail: int, seed: int, small: bool = False):
    """``n_full * BLOCK + tail`` postings: ascending doc ids, tfs and norm
    bytes. Gaps and tfs take every VInt width; ``small``: every delta and
    ``tf - 1`` is one VInt byte (the no-loop path)."""
    rng = np.random.default_rng(seed)
    n = n_full * BLOCK + tail
    if small:
        gaps, tfs = rng.integers(1, 128, n), rng.integers(1, 129, n)
    else:
        gaps = rng.integers(1, 2 ** rng.integers(1, 41, n))
        tfs = rng.integers(1, 2 ** rng.integers(1, 22, n))
    return np.cumsum(gaps).astype(np.int64) - 1, tfs.astype(np.int64), rng.integers(0, 256, n).astype(np.uint8)


@given(posting_lists)
@settings(max_examples=40, deadline=None)
def test_postings_roundtrip_property(drawn):
    docs, tfs, norms = _postings(*drawn)
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
    for drawn in term_lists:
        docs, tfs, norms = _postings(*drawn)
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
    views = [PostingsView(encode_postings(*_postings(*drawn, small=small))) for drawn in term_lists]
    got = decode_postings_concat(views)
    parts = [v.decode_blocks(np.arange(v.n_blocks, dtype=np.int64)) for v in views]
    for g, want, dtype in zip(got, zip(*parts), (np.int64, np.int64, np.uint8)):
        assert g.dtype == dtype
        assert g.tolist() == np.concatenate(want).tolist()


# -- single-block payloads (no stored header) ---------------------------------

DFS = (1, 2, 127, 128, 129, 256, 257)


def _term_data(df: int, seed: int):
    """Ascending doc ids with part bits, tfs, norms and each posting's
    ascending positions (``tf`` of them)."""
    rng = np.random.default_rng(seed)
    docs = np.cumsum(rng.integers(1, 400, df)).astype(np.int64) + (np.int64(3) << 32)
    tfs = rng.integers(1, 6, df).astype(np.int64)
    tfs[rng.integers(df)] = 300  # one tf past a one-byte VInt
    norms = rng.integers(0, 256, df).astype(np.uint8)
    pos = [np.sort(rng.choice(5000, size=int(t), replace=False)) for t in tfs]
    return docs, tfs, norms, pos


def _encode(docs, tfs, norms, pos, with_pos: bool) -> bytes:
    if not with_pos:
        return encode_postings(docs, tfs, norms)
    streams = [encode_position_gaps(p, np.zeros(1, dtype=np.int64)) for p in pos]
    pos_off = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in streams], out=pos_off[1:])
    return encode_postings(docs, tfs, norms, pos_data=np.concatenate(streams), pos_off=pos_off)


def _old_headers(docs, tfs, norms, pos) -> np.ndarray:
    """The block headers every payload stored before single-block payloads
    dropped theirs, rebuilt from the raw postings."""
    def vint_len(v) -> int:
        return len(varint_encode(np.array([v], dtype=np.uint64)))

    d_len = np.array([vint_len(d) for d in np.diff(docs, prepend=np.int64(0))])
    t_len = np.array([vint_len(t - 1) for t in tfs])
    p_len = np.array([len(encode_position_gaps(p, np.zeros(1, dtype=np.int64))) for p in pos])
    rows = []
    for s in range(0, len(docs), BLOCK):
        e = min(s + BLOCK, len(docs))
        offs = d_len[:s].sum(), t_len[:s].sum()
        rows.append((docs[e - 1], *offs, e - s, tfs[s:e].max(), norms[s:e].min(), p_len[:s].sum()))
    return np.array(rows, dtype=_HEADER_DTYPE)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=BLOCK - 1),
    st.booleans(),
    st.lists(st.booleans(), min_size=6, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(1, 0, True, [False] * 6, 0)  # the single-block view, no block
@example(1, 0, True, [True] * 6, 1)  # the single-block view, its block
@settings(max_examples=40, deadline=None)
def test_block_subsets_decode_to_the_encoders_input(n_full, tail, with_pos, pick, seed):
    """``decode_blocks(bis)`` of a sorted block subset (none, some, all;
    of a single-block view too) returns the encoder's input rows
    ``[b*BLOCK, (b+1)*BLOCK)`` of those blocks, and
    ``decode_blocks_positions`` their positions."""
    df = n_full * BLOCK + tail
    docs, tfs, norms, pos = _term_data(df, seed)
    v = PostingsView(_encode(docs, tfs, norms, pos, with_pos))
    bis = np.flatnonzero(pick[: v.n_blocks]).astype(np.int64)
    rows = np.concatenate([np.zeros(0, np.int64)] + [np.arange(b * BLOCK, min(b * BLOCK + BLOCK, df)) for b in bis])
    got = v.decode_blocks(bis)
    for g, want, dtype in zip(got, (docs, tfs, norms), (np.int64, np.int64, np.uint8)):
        assert g.dtype == dtype
        assert g.tolist() == want[rows].tolist()
    if with_pos:
        want_pos = np.concatenate([np.zeros(0, np.int64)] + [pos[i] for i in rows])
        assert v.decode_blocks_positions(bis, got[1]).tolist() == want_pos.tolist()


@pytest.mark.parametrize("with_pos", [False, True])
@pytest.mark.parametrize("df", DFS)
def test_single_and_multi_block_roundtrip(df, with_pos):
    docs, tfs, norms, pos = _term_data(df, seed=df)
    payload = _encode(docs, tfs, norms, pos, with_pos)
    v = PostingsView(payload)
    n_blocks = -(-df // BLOCK)
    assert v.n_blocks == n_blocks and v.doc_freq == df and v.has_positions == with_pos
    # the streams follow the VInt prelude, and the headers only when there
    # is more than one block
    prelude = varint_encode(
        np.array([n_blocks, v.t_base - v.d_base, v.n_base - v.t_base, v.p_len], dtype=np.uint64)
    )
    n_headers = n_blocks if n_blocks > 1 else 0
    assert payload[: len(prelude)] == prelude.tobytes()
    assert v.d_base == len(prelude) + n_headers * HEADER_BYTES
    for got, want in zip(v.decode_all(), (docs, tfs, norms)):
        assert got.tolist() == want.tolist()
    for got, want in zip(decode_postings_concat([v, v]), (docs, tfs, norms)):
        assert got.tolist() == np.concatenate([want, want]).tolist()
    want_h = _old_headers(docs, tfs, norms, pos)
    if not with_pos:
        want_h["p_off"] = 0
    assert v.headers.tolist() == want_h.tolist()
    if with_pos:
        tp = TermPostings("t", [v], df, int(tfs.sum()))
        pick = np.sort(np.random.default_rng(df).choice(docs, size=max(1, df // 3), replace=False))
        doc_rep, got_pos = tp.positions_for_docs(pick)
        sel = np.isin(docs, pick)
        assert doc_rep.tolist() == np.repeat(docs[sel], tfs[sel]).tolist()
        assert got_pos.tolist() == np.concatenate([p for p, s in zip(pos, sel) if s]).tolist()


def _gap_streams(pos) -> tuple[np.ndarray, np.ndarray]:
    """The postings' position payloads concatenated, and their offsets."""
    streams = [encode_position_gaps(p, np.zeros(1, dtype=np.int64)) for p in pos]
    off = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in streams], out=off[1:])
    return np.concatenate(streams) if streams else np.zeros(0, dtype=np.uint8), off


OLD_DFS = (1, 127, 128, 129, 255, 256, 300)


@pytest.mark.parametrize("with_pos", [False, True])
@pytest.mark.parametrize("old_df", OLD_DFS)
@given(
    st.integers(min_value=1, max_value=300),
    st.lists(
        st.tuples(st.sampled_from(OLD_DFS), st.integers(min_value=1, max_value=300)), max_size=3
    ),
    st.integers(min_value=0, max_value=2**16),
)
@example(new_df=200, more=[], seed=0)  # an old single block grows past one block
@settings(max_examples=6, deadline=None)
def test_continuing_a_block_prefix_equals_encoding_the_whole_list(
    old_df, with_pos, new_df, more, seed
):
    """Posting lists cut into an old part and a new part: the old parts'
    payloads, back to back in one buffer, are cut after their complete
    blocks (``block_prefixes``), every trailing partial block is decoded
    at once (``decode_tails``), and one ``encode_postings_group`` call
    continues each kept prefix with its tail and new postings: each
    payload equals the one encoding of the whole list."""
    cuts = [(old_df, new_df)] + more
    runs, olds, want = [], [], []
    for i, (old, new) in enumerate(cuts):
        docs, tfs, norms, pos = _term_data(old + new, seed=seed + i)
        want.append(_encode(docs, tfs, norms, pos, with_pos))
        olds.append(_encode(docs[:old], tfs[:old], norms[:old], pos[:old], with_pos))
        kept = old // BLOCK * BLOCK
        runs.append((docs[kept:], tfs[kept:], norms[kept:], pos[kept:], old - kept))
    ends = np.cumsum([len(p) for p in olds])
    pf = block_prefixes(np.frombuffer(b"".join(olds), np.uint8), ends - [len(p) for p in olds], ends)
    assert pf.n_blocks.tolist() == [old // BLOCK for old, _ in cuts]
    assert pf.n_tail.tolist() == [r[4] for r in runs]
    t_docs, t_tfs, t_norms, t_pos = decode_tails(pf)
    at = np.cumsum([0] + [n_tail for *_, n_tail in runs])
    for (docs, tfs, norms, pos, n_tail), a in zip(runs, at):
        assert t_docs[a : a + n_tail].tolist() == docs[:n_tail].tolist()
        assert t_tfs[a : a + n_tail].tolist() == tfs[:n_tail].tolist()
        assert t_norms[a : a + n_tail].tolist() == norms[:n_tail].tolist()
    if with_pos:
        assert t_pos.tobytes() == b"".join(_gap_streams(r[3][: r[4]])[0].tobytes() for r in runs)
    lens = [len(r[0]) for r in runs]
    pos_data, pos_off = _gap_streams([p for r in runs for p in r[3]]) if with_pos else (None, None)
    got = encode_postings_group(
        np.concatenate([r[0] for r in runs]),
        np.concatenate([r[1] for r in runs]),
        np.concatenate([r[2] for r in runs]),
        np.cumsum([0] + lens[:-1]),
        np.cumsum(lens),
        pos_data=pos_data,
        pos_off=pos_off,
        prefixes=(np.arange(len(runs)), pf),
    )
    assert got == want
    assert PostingsView(got[0]).n_blocks == -(-(old_df + new_df) // BLOCK)


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    """A small index with salted doc-range segments (several views per
    term) and terms of more than one block."""
    from apache___solr_ray.build import IndexConfig, build_index
    from apache___solr_ray.corpus import write_pages

    d = str(tmp_path_factory.mktemp("pages_codec"))
    write_pages(d, 400, seed=13, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_codec"))
    cfg = IndexConfig(term_partitions=3, target_docs_per_part=128, max_postings_per_segment=8000)
    man = build_index(d, idx, cfg)
    return idx, man


def test_view_doc_freq_equals_dictionary_df(built_index):
    idx, man = built_index
    n_multi = 0
    for r in open_segments(idx, man["segments"]).values():
        views = r.postings_views()
        assert [v.doc_freq for v in views] == r.terms_table().column("df").to_pylist()
        n_multi += sum(v.n_blocks > 1 for v in views)
        r.close()
    assert n_multi > 0


def test_phrase_path_decodes_a_single_block_view_once(built_index, monkeypatch):
    """Reading a single-block view's positions decodes it once: the phrase
    path reads no header of it (deriving one is a decode of its own)."""
    idx, _ = built_index
    calls: dict[int, int] = {}
    orig = PostingsView.decode_blocks

    def counting(self, bis):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return orig(self, bis)

    r = IndexReader(idx)
    terms = r.term_dict().sort_by([("df", "descending")]).column("term").to_pylist()
    for a, b in zip(terms[:6], terms[6:12]):
        docs, freqs, _ = r.phrase_freqs(f"{a} {b}")
        assert len(docs) == len(freqs)
    monkeypatch.setattr(PostingsView, "decode_blocks", counting)
    views = []
    for t in terms[:12]:
        tp = r.term_postings(t)
        cand = tp.decode_all()[0][::3]
        calls.clear()
        tp.positions_for_docs(cand)
        views += tp.views
        assert all(calls[id(v)] == 1 for v in tp.views if v.n_blocks == 1)
    assert any(v.n_blocks == 1 for v in views) and any(v.n_blocks > 1 for v in views)
    assert all(v._headers is None for v in views if v.n_blocks == 1)
    r.close()


def test_positional_queries_decode_each_view_once(built_index, monkeypatch):
    """One call of phrase_freqs, span_near_docs, complex_phrase_docs or
    payload_scores decodes every view of its clauses at most once: the
    candidates' positions reuse the postings decoded to find them
    (multi-block and salted views included)."""
    idx, _ = built_index
    calls: dict[int, int] = {}
    orig = PostingsView.decode_blocks

    def counting(self, bis):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return orig(self, bis)

    r = IndexReader(idx)
    a, b, c = r.term_dict().sort_by([("df", "descending")]).column("term").to_pylist()[:3]
    views = [v for t in (a, b, c) for v in r.term_postings(t).views]
    assert any(len(r.term_postings(t).views) > 1 for t in (a, b, c))
    assert any(v.n_blocks > 1 for v in views) and any(v.n_blocks == 1 for v in views)
    monkeypatch.setattr(PostingsView, "decode_blocks", counting)
    for query in (
        lambda: r.phrase_freqs(f"{a} {b} {a}"),
        lambda: r.span_near_docs(f"{a} {c}", slop=2),
        lambda: r.complex_phrase_docs(f"{a} {b[:2]}* {c}", slop=3),
        lambda: r.payload_scores(a),
    ):
        calls.clear()
        query()
        assert calls and max(calls.values()) == 1
    r.close()
