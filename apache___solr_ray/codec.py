"""Posting-list codec: delta + VInt compression with per-block skip metadata.

Rebuilds the role of Lucene's postings format (doc-delta VInt within 128-doc
blocks, per-block skip/impact ("block-max") data — [Lucene 10.4 library]
semantics, configured by the reference at
``solr/core/src/java/org/apache/solr/update/SolrIndexConfig.java:242-289``)
as a numpy-codable layout.

Per-term payload::

    VInt n_blocks        (ceil(df / BLOCK))
    VInt d_len           (delta VInt stream length in bytes)
    VInt t_len           (tf VInt stream length in bytes)
    VInt p_len           (position VInt stream length in bytes; 0 = field
                          indexed without positions — omitTermFreqAndPositions)
    n_blocks × block header, ONLY when n_blocks > 1 (fixed 27 bytes → this
    IS the skip data):
        u64  last_doc_id  (inclusive; enables binary-search skipping)
        u32  d_off        (block's byte offset within the delta stream)
        u32  t_off        (block's byte offset within the tf stream)
        u16  n_docs       (<= BLOCK)
        u32  max_tf       (block-max impact bound input)
        u8   min_norm     (block-max impact bound input)
        u32  p_off        (block's byte offset within the position stream)
    delta stream  (VInt doc gaps; a term's first delta is the absolute doc id,
                   every later delta is doc[i] - doc[i-1], across block
                   boundaries too — so the whole stream is encodable in ONE
                   vectorized pass over a sorted group)
    tf stream     (VInt tf - 1)
    norm bytes    (raw u8, one per posting)
    position stream (VInt position gaps, tf values per posting; each
                   posting's first value is its absolute first position —
                   self-contained per posting, so segment merges concatenate
                   raw bytes without re-encoding. Laid out LAST so BM25
                   evaluation never touches it; only phrase queries pay.)

A term of at most ``BLOCK`` postings (nearly every term of a segment) is one
block and stores no header: there is nothing to skip within it, as Lucene
writes no skip or impact data for a term with fewer than ``BLOCK_SIZE``
docs. Its df is the norm section's length, ``len(payload) - n_base -
p_len``, and ``PostingsView.headers`` derives its one header from a decode
when a caller asks for it.

Scoring needs (tf, norm) per posting; storing the norm byte inline (as
Lucene's impact lists pair (freq, norm)) means query evaluation never
touches a doc-side norms table — essential at 10^12 docs where a global
norms array cannot be broadcast.

Both encode and decode are numpy-vectorized (no per-posting Python); the
group encoder ``encode_postings_group`` VInt-codes an entire shuffle group
(hundreds of thousands of postings), preludes included, in one pass and
only slices per term. ``_decode_runs`` is the one decoder of delta and tf
streams: whole views (``decode_postings_concat``), selected blocks
(``PostingsView.decode_blocks``) and trailing partial blocks
(``decode_tails``) are runs of it, each stream gathered into one buffer;
``decode_position_stream`` is the one position decoder.

A term's complete blocks never change when postings of later docs are
appended (every block but a term's last holds ``BLOCK`` postings, and the
deltas continue across blocks), so the encoder can *continue* a stored
payload: ``block_prefixes`` cuts many payloads after their last complete
block, ``decode_tails`` decodes their trailing partial blocks, and
``encode_postings_group`` keeps the complete blocks' bytes and encodes
only the rest — byte-identical to encoding every posting (Lucene likewise
never re-encodes what it already flushed).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BLOCK = 128
_HEADER_DTYPE = np.dtype(
    [
        ("last_doc", "<u8"),
        ("d_off", "<u4"),
        ("t_off", "<u4"),
        ("n_docs", "<u2"),
        ("max_tf", "<u4"),
        ("min_norm", "u1"),
        ("p_off", "<u4"),
    ]
)
HEADER_BYTES = _HEADER_DTYPE.itemsize  # 27


def _varint_lengths(v: np.ndarray) -> np.ndarray:
    """ceil(bit_length/7) per value, min 1 — in ONE pass via the float64
    exponent (frexp is exact for integers < 2^53; phase B's encode is
    memory-bandwidth-bound on this box, and the old 9-compare loop made 9
    full passes over the array). Values ≥ 2^49 take a rare exact fixup."""
    f = v.astype(np.float64)
    bl = np.frexp(f)[1]  # == bit_length for exact conversions; 0 for v == 0
    nbytes = np.maximum(np.int64(1), (bl + 6) // 7).astype(np.int64)
    big = v >= np.uint64(1) << np.uint64(49)
    if big.any():
        vb = v[big]
        nb = np.ones(len(vb), dtype=np.int64)
        for k in range(1, 10):
            nb += (vb >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
        nbytes[big] = nb
    return nbytes


def _varint_fill(v: np.ndarray, nbytes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Write each value's LEB128 bytes at offsets[i]..offsets[i]+nbytes[i].

    Contiguous formulation: build an (n, max_bytes) matrix with plain
    full-array shifts (no masked scatters — those gather/scatter passes
    were the phase-B hotspot and collapse under memory-bus contention),
    clear the continuation bit on each value's terminal byte, then one
    row-major boolean select emits the stream in order."""
    n = len(v)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    B = int(nbytes.max())
    mat = np.empty((B, n), dtype=np.uint8)  # level-major: each fill is contiguous
    cur = v.copy()
    for b in range(B):
        mat[b] = (cur.astype(np.uint8) & 0x7F) | 0x80
        cur >>= np.uint64(7)
    mat[nbytes - 1, np.arange(n)] &= 0x7F
    valid = np.arange(B, dtype=np.int64)[:, None] < nbytes[None, :]
    return mat.T[valid.T]


def varint_encode(vals: np.ndarray) -> np.ndarray:
    """LEB128-style VInt encode of a uint64 array -> uint8 array."""
    v = vals.astype(np.uint64, copy=False)
    nbytes = _varint_lengths(v)
    offsets = np.zeros(len(v) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    return _varint_fill(v, nbytes, offsets)


def varint_decode(buf: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Decode `count` VInts from a uint8 array; returns (values, bytes_used).

    No loop over byte lengths: each byte's 7 payload bits shift left by 7 ×
    its index within its value, and one ``add.reduceat`` sums each value's
    bytes (their bit ranges are disjoint, so the sum is the OR)."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64), 0
    ends = np.flatnonzero(buf < 0x80)
    if len(ends) < count:
        raise ValueError("varint stream truncated")
    ends = ends[:count]
    used = int(ends[-1]) + 1
    if used == count:  # every value is one byte
        return buf[:count].astype(np.uint64), used
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    shift = np.arange(used, dtype=np.int64) - np.repeat(starts, ends - starts + 1)
    vals = (buf[:used] & 0x7F).astype(np.uint64) << (shift * 7).astype(np.uint64)
    return np.add.reduceat(vals, starts), used


def encode_postings_group(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    norms: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    pos_data: np.ndarray | None = None,
    pos_off: np.ndarray | None = None,
    prefixes: tuple[np.ndarray, BlockPrefixes] | None = None,
) -> list[bytes]:
    """Encode many terms' postings in ONE vectorized pass.

    ``doc_ids``/``tfs``/``norms`` are the whole group's columns sorted by
    (term, doc_id); ``starts``/``ends`` delimit each term's run. The VInt
    math, the preludes' included, runs once over the full arrays; the
    per-term Python work is six buffer slices and their concatenation.

    ``pos_data``/``pos_off``: optional per-posting position payloads —
    ``pos_data`` is a uint8 array of already-VInt-gap-encoded positions in
    the SAME posting order (posting i's bytes are
    ``pos_data[pos_off[i]:pos_off[i+1]]``, ``len(pos_off) == n+1``).
    Because each posting's stream is self-contained, the encoder only
    slices — no re-encoding.

    ``prefixes``: optional ``(runs, BlockPrefixes)``: the runs that
    continue a stored payload of their term whose postings all precede
    theirs, and those payloads cut after their complete blocks
    (``block_prefixes``). Such a run holds the postings after the kept
    blocks, and its payload keeps their bytes: the run's first delta is
    taken against the last kept doc, its block offsets start after the
    kept bytes and its prelude counts them.
    """
    n = len(doc_ids)
    n_terms = len(starts)
    if n == 0:
        return []
    doc_ids = doc_ids.astype(np.int64, copy=False)
    tfs = tfs.astype(np.int64, copy=False)
    norms = norms.astype(np.uint8, copy=False)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)

    # kept blocks per run, the last kept doc and the kept delta, tf, norm
    # and position bytes (all 0 for a run that starts its term)
    kept = np.zeros(n_terms, dtype=np.int64)
    last_kept = np.zeros(n_terms, dtype=np.int64)
    k_len = np.zeros((n_terms, 4), dtype=np.int64)
    if prefixes is not None:
        runs, pf = prefixes
        kept[runs], last_kept[runs], k_len[runs] = pf.n_blocks, pf.last_doc, pf.cut - pf.lo

    # global delta stream with a reset at each term start: the absolute doc
    # id, or the gap from the last kept doc
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    deltas[1:] = (doc_ids[1:] - doc_ids[:-1]).astype(np.uint64)
    deltas[starts] = (doc_ids[starts] - last_kept).astype(np.uint64)

    d_len = _varint_lengths(deltas)
    d_pos = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(d_len, out=d_pos[1:])
    d_stream = _varint_fill(deltas, d_len, d_pos)

    tvals = (tfs - 1).astype(np.uint64)
    t_len = _varint_lengths(tvals)
    t_pos = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(t_len, out=t_pos[1:])
    t_stream = _varint_fill(tvals, t_len, t_pos)

    # per-term block layout of the run's own blocks, all vectorized
    dfs = ends - starts
    nb = (dfs + BLOCK - 1) // BLOCK
    total_blocks = int(nb.sum())
    term_of_block = np.repeat(np.arange(n_terms, dtype=np.int64), nb)
    first_block = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(nb, out=first_block[1:])
    block_in_term = np.arange(total_blocks, dtype=np.int64) - first_block[:-1][term_of_block]
    bs = starts[term_of_block] + block_in_term * BLOCK  # block start posting
    be = np.minimum(bs + BLOCK, ends[term_of_block])  # block end posting

    headers = np.zeros(total_blocks, dtype=_HEADER_DTYPE)
    headers["last_doc"] = doc_ids[be - 1].astype(np.uint64)
    headers["d_off"] = (d_pos[bs] - d_pos[starts[term_of_block]] + k_len[term_of_block, 0]).astype(np.uint32)
    headers["t_off"] = (t_pos[bs] - t_pos[starts[term_of_block]] + k_len[term_of_block, 1]).astype(np.uint32)
    headers["n_docs"] = (be - bs).astype(np.uint16)
    # reduceat over global block starts (bs is ascending and covers [0, n))
    headers["max_tf"] = np.maximum.reduceat(tfs, bs).astype(np.uint32)
    headers["min_norm"] = np.minimum.reduceat(norms, bs)
    if pos_data is not None:
        pos_off = np.asarray(pos_off, dtype=np.int64)
        p_start = pos_off[starts[term_of_block]] - k_len[term_of_block, 3]
        headers["p_off"] = (pos_off[bs] - p_start).astype(np.uint32)
        p_bytes = pos_data.tobytes() if isinstance(pos_data, np.ndarray) else bytes(pos_data)
    # only multi-block terms keep their headers
    multi = kept + nb > 1
    hdr_bytes = headers[multi[term_of_block]].tobytes()
    h_pos = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(np.where(multi, nb, 0) * HEADER_BYTES, out=h_pos[1:])

    # every term's four prelude VInts in one pass
    prelude = np.zeros((n_terms, 4), dtype=np.int64)
    prelude[:, 0] = kept + nb
    prelude[:, 1] = d_pos[ends] - d_pos[starts] + k_len[:, 0]
    prelude[:, 2] = t_pos[ends] - t_pos[starts] + k_len[:, 1]
    if pos_data is not None:
        prelude[:, 3] = pos_off[ends] - pos_off[starts] + k_len[:, 3]
    if prelude[:, 1:].max() >= 2**32:
        raise ValueError("term posting list too long for one segment (use salting)")
    pre = prelude.ravel().astype(np.uint64)
    pre_len = _varint_lengths(pre)
    pre_pos = np.zeros(len(pre) + 1, dtype=np.int64)
    np.cumsum(pre_len, out=pre_pos[1:])
    pre_bytes = _varint_fill(pre, pre_len, pre_pos).tobytes()

    d_bytes = d_stream.tobytes()
    t_bytes = t_stream.tobytes()
    n_bytes = norms.tobytes()

    pp, hp = pre_pos[::4].tolist(), h_pos.tolist()
    ds, de = d_pos[starts].tolist(), d_pos[ends].tolist()
    ts, te = t_pos[starts].tolist(), t_pos[ends].tolist()
    ns, ne = starts.tolist(), ends.tolist()
    if pos_data is None:
        p_bytes, ps, pe = b"", [0] * n_terms, [0] * n_terms
    else:
        ps, pe = pos_off[starts].tolist(), pos_off[ends].tolist()
    out = [
        pre_bytes[pp[i] : pp[i + 1]]
        + hdr_bytes[hp[i] : hp[i + 1]]
        + d_bytes[ds[i] : de[i]]
        + t_bytes[ts[i] : te[i]]
        + n_bytes[ns[i] : ne[i]]
        + p_bytes[ps[i] : pe[i]]
        for i in range(n_terms)
    ]
    if prefixes is not None:  # each stream's kept bytes go before the run's
        mv = memoryview(pf.buf)
        lo, cut = pf.lo.tolist(), pf.cut.tolist()
        for j, i in enumerate(runs.tolist()):
            if not kept[i]:
                continue
            (d0, t0, n0, p0), (d1, t1, n1, p1) = lo[j], cut[j]
            out[i] = b"".join(
                (
                    pre_bytes[pp[i] : pp[i + 1]],
                    pf.headers[j],
                    hdr_bytes[hp[i] : hp[i + 1]],
                    mv[d0:d1],
                    d_bytes[ds[i] : de[i]],
                    mv[t0:t1],
                    t_bytes[ts[i] : te[i]],
                    mv[n0:n1],
                    n_bytes[ns[i] : ne[i]],
                    mv[p0:p1],
                    p_bytes[ps[i] : pe[i]],
                )
            )
    return out


def encode_postings(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    norms: np.ndarray,
    pos_data: np.ndarray | None = None,
    pos_off: np.ndarray | None = None,
) -> bytes:
    """Encode one term's postings (doc-id ascending) into the block layout."""
    n = len(doc_ids)
    assert n > 0
    return encode_postings_group(
        np.asarray(doc_ids),
        np.asarray(tfs),
        np.asarray(norms),
        np.array([0], dtype=np.int64),
        np.array([n], dtype=np.int64),
        pos_data=pos_data,
        pos_off=pos_off,
    )[0]


def encode_position_gaps(positions: np.ndarray, run_starts: np.ndarray) -> np.ndarray:
    """Gap+VInt encode a flat positions array with per-posting resets.

    ``positions`` is the concatenation of every posting's ascending position
    list; ``run_starts`` marks each posting's first slot. Returns the uint8
    stream; ``position_offsets`` finds each posting's bytes in it."""
    p = positions.astype(np.int64, copy=False)
    gaps = np.empty(len(p), dtype=np.uint64)
    if len(p):
        gaps[0] = p[0]
        gaps[1:] = (p[1:] - p[:-1]).astype(np.uint64)
        gaps[run_starts] = p[run_starts].astype(np.uint64)
    return varint_encode(gaps)


def position_offsets(stream: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Byte offsets (``len(tfs) + 1``, int64) of each posting's payload in
    a position stream of ``tfs[i]`` values per posting: posting i's payload
    ends at the stop bit of its cumulative tf-th value."""
    off = np.zeros(len(tfs) + 1, dtype=np.int64)
    off[1:] = np.flatnonzero(stream < 0x80)[np.cumsum(tfs) - 1] + 1
    return off


def decode_position_stream(buf: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Inverse of ``encode_position_gaps``: decode ``sum(tfs)`` VInt gaps
    and rebuild absolute positions with a reset at each posting's first
    value. Vectorized (cumsum + per-run adjustment)."""
    total = int(tfs.sum())
    gaps, _ = varint_decode(buf, total)
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    run_starts = np.zeros(len(tfs), dtype=np.int64)
    np.cumsum(tfs[:-1], out=run_starts[1:])
    C = np.cumsum(gaps.astype(np.int64))
    Cext = np.concatenate([[0], C])
    # subtract, for every slot, the cumulative sum at its run's start so
    # each posting's positions restart from its absolute first value
    adj = np.repeat(Cext[run_starts], tfs.astype(np.int64))
    return C - adj


def _decode_exact(buf: np.ndarray, count: int) -> np.ndarray:
    """Decode a buffer that holds exactly ``count`` VInts (uint64). A
    stream whose byte length equals its value count is all one-byte
    values: its bytes are the values, with no terminator scan."""
    if len(buf) == count:
        return buf.astype(np.uint64)
    return varint_decode(buf, count)[0]


def _decode_runs(dbuf, tbuf, norms, counts: np.ndarray, first_base=None):
    """Decode runs of ``counts`` postings whose delta and tf streams are
    concatenated in ``dbuf``/``tbuf`` (``norms`` their norm bytes): one
    VInt call per stream and one cumsum. A run's first delta is taken
    against ``first_base`` (per run; absolute when None), so subtracting
    the running sum in front of it re-bases the run; the uint64 sums wrap
    modulo 2^64, which leaves every re-based id exact. Returns (docs
    int64, tfs int64, norms uint8)."""
    total = int(counts.sum())
    deltas = _decode_exact(dbuf, total)
    tfs = _decode_exact(tbuf, total)
    csum = np.cumsum(deltas)
    live = counts > 0
    starts = (np.cumsum(counts) - counts)[live]
    rebase = csum[starts] - deltas[starts]
    if first_base is not None:
        rebase -= np.asarray(first_base, dtype=np.int64)[live].astype(np.uint64)
    docs = csum - np.repeat(rebase, counts[live])
    return docs.view(np.int64), tfs.astype(np.int64) + 1, norms


def decode_postings_concat(views) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode every posting of many non-empty ``PostingsView``s at once.

    Returns (docs int64, tfs int64, norms uint8), the views' postings
    concatenated in the given order — equal to concatenating each view's
    ``decode_all()``. Each view's whole delta stream, tf stream and norm
    bytes are taken as one contiguous slice (no per-block slicing: deltas
    run across block boundaries) and decoded by ``_decode_runs``; each
    view's first delta is its absolute first doc id."""
    counts = np.fromiter((v.doc_freq for v in views), dtype=np.int64, count=len(views))
    return _decode_runs(
        np.concatenate([v.buf[v.d_base : v.t_base] for v in views]),
        np.concatenate([v.buf[v.t_base : v.n_base] for v in views]),
        np.concatenate([v.buf[v.n_base : v.p_base] for v in views]),
        counts,
    )


class BlockPrefixes(NamedTuple):
    """Stored payloads cut after their last complete block
    (``block_prefixes``): the part ``encode_postings_group`` keeps and
    continues, and the trailing partial block it encodes again. Byte
    offsets are into ``buf``; a stream's kept bytes are ``buf[lo:cut]``
    and its tail's ``buf[cut:hi]``, per payload and stream (delta, tf,
    norm, position)."""

    buf: np.ndarray
    #: complete blocks kept (``doc_freq // BLOCK``)
    n_blocks: np.ndarray
    #: the last kept doc (0 when no block is kept)
    last_doc: np.ndarray
    #: the kept blocks' header bytes (derived for a lone full block)
    headers: list
    lo: np.ndarray
    cut: np.ndarray
    hi: np.ndarray

    @property
    def n_tail(self) -> np.ndarray:
        """Postings in each trailing partial block (one norm byte each)."""
        return self.hi[:, 2] - self.cut[:, 2]


def _read_preludes(buf: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The four prelude VInts of the payloads at ``starts`` ((n, 4) int64)
    and the byte offset after each prelude: one vectorized pass per VInt
    byte."""
    pos = np.asarray(starts, dtype=np.int64).copy()
    out = np.zeros((len(pos), 4), dtype=np.int64)
    for k in range(4):
        live, shift = np.arange(len(pos)), 0
        while len(live):
            b = buf[pos[live]].astype(np.int64)
            out[live, k] |= (b & 0x7F) << shift
            pos[live] += 1
            live, shift = live[b >= 0x80], shift + 7
    return out, pos


def _u4_at(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The little-endian u32 at each byte offset ``at`` (int64)."""
    return buf[at[:, None] + np.arange(4)].copy().view("<u4")[:, 0].astype(np.int64)


def block_prefixes(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> BlockPrefixes:
    """The payloads ``buf[starts[i]:ends[i]]`` cut after their last complete
    ``BLOCK``-doc block, all at once. A payload keeps ``doc_freq //
    BLOCK`` blocks: none when it has no complete block (its tail is all of
    it), all when its df is a multiple of ``BLOCK`` (its tail is empty).
    A kept block's header is its stored one, or, for a lone full block,
    which stores none, the one ``PostingsView.headers`` derives."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    pre, h_lo = _read_preludes(buf, starts)
    nb, multi = pre[:, 0], pre[:, 0] > 1
    d_lo = h_lo + np.where(multi, nb * HEADER_BYTES, 0)
    lo = np.stack([d_lo, d_lo + pre[:, 1], d_lo + pre[:, 1] + pre[:, 2], ends - pre[:, 3]], axis=1)
    hi = np.concatenate([lo[:, 1:], ends[:, None]], axis=1)
    kept = (lo[:, 3] - lo[:, 2]) // BLOCK  # one norm byte per posting
    cut = np.where((kept > 0)[:, None], hi, lo)
    # a multi-block payload with a partial last block: cut at that block's
    # offsets, read from its header
    part = np.flatnonzero(multi & (kept < nb))
    nxt = h_lo[part] + kept[part] * HEADER_BYTES
    off = {name: _HEADER_DTYPE.fields[name][1] for name in ("d_off", "t_off", "p_off")}
    cut[part] = lo[part] + np.stack(
        [_u4_at(buf, nxt + off["d_off"]), _u4_at(buf, nxt + off["t_off"]), kept[part] * BLOCK, _u4_at(buf, nxt + off["p_off"])],
        axis=1,
    )
    last_doc = np.zeros(len(starts), dtype=np.int64)
    keep = np.flatnonzero(multi & (kept > 0))
    last_at = h_lo[keep] + (kept[keep] - 1) * HEADER_BYTES
    last_doc[keep] = buf[last_at[:, None] + np.arange(8)].copy().view("<u8")[:, 0].astype(np.int64)
    h_kept = h_lo + kept * HEADER_BYTES
    mv = memoryview(buf)
    headers = [mv[a:b] for a, b in zip(h_lo.tolist(), np.where(multi, h_kept, h_lo).tolist())]
    for i in np.flatnonzero(~multi & (kept > 0)).tolist():  # a lone full block
        h = PostingsView(mv, int(starts[i]), int(ends[i]), buf).headers
        headers[i], last_doc[i] = h.tobytes(), int(h["last_doc"][0])
    return BlockPrefixes(buf, kept, last_doc, headers, lo, cut, hi)


def _gather(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``buf[lo[i]:hi[i]]`` concatenated over i, in one gather."""
    n = hi - lo
    return buf[np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))]


def decode_tails(p: BlockPrefixes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode every payload's trailing partial block at once (one VInt
    call per stream). Returns (docs int64, tfs int64, norms uint8,
    position bytes), the tails (``p.n_tail`` postings each) concatenated
    in order."""
    docs, tfs, norms = _decode_runs(
        *(_gather(p.buf, p.cut[:, k], p.hi[:, k]) for k in range(3)), p.n_tail, p.last_doc
    )
    return docs, tfs, norms, _gather(p.buf, p.cut[:, 3], p.hi[:, 3])


def _read_prelude(payload, i: int = 0) -> tuple[int, int, int, int, int]:
    """The four prelude VInts (n_blocks, d_len, t_len, p_len) of the
    payload at byte ``i`` of ``payload`` and the byte offset after them.
    Four small values: plain Python is faster here than any numpy call."""
    out = []
    for _ in range(4):
        b = payload[i]
        i += 1
        v, shift = b & 0x7F, 7
        while b & 0x80:
            b = payload[i]
            i += 1
            v |= (b & 0x7F) << shift
            shift += 7
        out.append(v)
    return out[0], out[1], out[2], out[3], i


class PostingsView:
    """Lazy decoded view over one term's encoded payload.

    Exposes the skip data (block headers) without decoding posting data;
    blocks decode on demand — phrase evaluation reads headers to skip
    blocks outside the docs it needs. A single-block payload stores no
    header: ``headers`` derives it from one decode on first use, and
    ``doc_freq``, ``decode_blocks`` and ``decode_postings_concat`` never
    need it.

    The payload is ``payload[start:end]`` (all of ``payload`` by default).
    ``buf`` is a uint8 array over the same bytes; a ``SegmentReader``
    passes one array and one memoryview for all its views, so a view owns
    no buffer object of its own, only absolute offsets into ``buf``.
    """

    __slots__ = ("buf", "n_blocks", "d_base", "t_base", "n_base", "p_base", "p_len", "_headers")

    def __init__(self, payload, start: int = 0, end: int | None = None, buf=None):
        n_blocks, d_len, t_len, p_len, pos = _read_prelude(payload, start)
        if buf is None:
            buf = np.frombuffer(payload, dtype=np.uint8)
        self._headers = None
        if n_blocks > 1:
            h_end = pos + n_blocks * HEADER_BYTES
            self._headers = buf[pos:h_end].view(_HEADER_DTYPE)
            pos = h_end
        self.n_blocks = n_blocks
        self.d_base = pos
        self.t_base = pos + d_len
        self.n_base = self.t_base + t_len
        self.p_base = (len(buf) if end is None else end) - p_len
        self.p_len = p_len
        self.buf = buf

    @property
    def headers(self) -> np.ndarray:
        """Per-block skip data (``_HEADER_DTYPE``, one row per block)."""
        if self._headers is None:  # a single block: derive its header
            docs, tfs, norms = self.decode_all()
            h = np.zeros(1, dtype=_HEADER_DTYPE)
            h["last_doc"] = docs[-1]
            h["n_docs"] = len(docs)
            h["max_tf"] = tfs.max()
            h["min_norm"] = norms.min()
            self._headers = h
        return self._headers

    @property
    def has_positions(self) -> bool:
        return self.p_len > 0

    @property
    def doc_freq(self) -> int:
        return self.p_base - self.n_base  # one norm byte per posting

    def _block_ranges(self, bis: np.ndarray, key: str, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Byte ranges ``[lo, hi)`` in ``buf`` of the blocks ``bis`` of the
        stream ``buf[lo:hi]``, from the headers' ``key`` offsets (a single
        block is the whole stream)."""
        rel = self._headers[key].astype(np.int64) if self.n_blocks > 1 else np.zeros(1, np.int64)
        off = np.append(lo + rel, hi)
        return off[bis], off[bis + 1]

    def decode_blocks(self, bis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode the blocks ``bis`` (sorted ascending, unique) as runs of
        ``_decode_runs``, one VInt call per stream for the whole selection.
        Returns (docs int64, tfs int64, norms uint8) concatenated in block
        order. A block's first delta is taken against the previous block's
        ``last_doc`` (0 for block 0)."""
        bis = np.asarray(bis, dtype=np.int64)
        n_lo = self.n_base + bis * BLOCK
        counts = np.minimum(self.p_base - n_lo, BLOCK)  # every block but the last holds BLOCK
        # a single block's first delta is absolute
        first_base = None if self.n_blocks == 1 else np.append(0, self._headers["last_doc"].astype(np.int64))[bis]
        return _decode_runs(
            _gather(self.buf, *self._block_ranges(bis, "d_off", self.d_base, self.t_base)),
            _gather(self.buf, *self._block_ranges(bis, "t_off", self.t_base, self.n_base)),
            _gather(self.buf, n_lo, n_lo + counts),
            counts,
            first_base,
        )

    def decode_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.decode_blocks(np.arange(self.n_blocks, dtype=np.int64))

    # -- positions ----------------------------------------------------------

    def decode_blocks_positions(self, bis: np.ndarray, tfs: np.ndarray) -> np.ndarray:
        """Flat absolute positions for the selected blocks.

        ``bis`` sorted unique; ``tfs`` must be the tf array returned by
        ``decode_blocks(bis)`` (per-posting value counts). The result aligns
        with ``np.repeat(docs, tfs)``. Only phrase/span evaluation pays this
        cost — the position stream is never touched by BM25 scoring."""
        if not self.has_positions:
            raise ValueError("segment was built without positions")
        pbuf = _gather(self.buf, *self._block_ranges(bis, "p_off", self.p_base, self.p_base + self.p_len))
        return decode_position_stream(pbuf, tfs.astype(np.int64))
