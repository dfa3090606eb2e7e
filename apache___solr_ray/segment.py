"""Segment files: hash-indexed term dictionaries + block-compressed postings,
stored in write-once packs.

The Ray-native analog of a Lucene segment ([Lucene 10.4 library] semantics;
reference call sites ``SolrIndexWriter.java`` / ``SolrIndexConfig.java:
242-289``). Each segment has two sections:

- a **term dictionary** (plays the FST's role): little-endian, 8-byte
  aligned parts: a header (magic, version, n_terms, n_string_bytes), then
  five 4-byte columns, 20 bytes per term: each term's key (u32, the high
  half of its ``term_hash``: the low bits pick the tkey, so they are
  nearly constant within a segment), df, ttf (u32), the offsets of each
  term's payload in the segment's postings (u32, n+1; the encoder refuses
  a segment of 4 GB of postings), and the terms as an Arrow string column
  (i32 offsets, n+1, then UTF-8 bytes). Terms, and their payloads, are
  stored in (key, UTF-8 term) order, so the key column is the hash index
  and a lookup's row is its position in it
- its **postings**: concatenated per-term payloads (codec.py layout: a
  VInt prelude, then VInt deltas + tfs + inline norms in 128-doc blocks;
  only a term of more than one block carries fixed-size block-max skip
  headers)

Segments are stored as **packs** (Lucene's compound ``.cfs``/``.cfe``
file plays the same role): each phase-B encode batch and each merge block
writes its segments as one pack of two files under ``segments/``:

- ``pack-<sha1 of member names>[:16].tdict`` — every member's dictionary
  section back to back, each 8-byte aligned, then a table of contents
  (TOC, JSON: each member's record and the ``.post`` size) and a fixed
  24-byte trailer (TOC offset, TOC length, magic)
- ``pack-….post`` — the members' postings back to back

A segment has one **record**, the dict ``write_segment`` returns and the
TOC stores: its name, tkey, salt (the doc-range chunk index within the
tkey when phase B splits a bucket past ``max_postings_per_segment``, -1
for a merged segment), counts, lineage, covered doc partitions
(``part_lo``, ``part_hi``) and place (``pack``, ``tdict_off``,
``post_off``). ``index_manifest.json``'s ``segments`` is the list of a
commit's records in ``doc_order`` (Lucene's ``segments_N`` likewise keeps
one entry per segment). A pack is written as two tmp files and two
renames (``.post`` first) and never rewritten. After a commit moves, the
files under ``segments/`` it does not name are removed
(``drop_uncommitted``).

Phase B and merges encode through one encoder, ``build_segments_from_group``
(a merge's output is ``build_segment_from_group``, its one-segment call),
and write through one pack writer, ``write_segment``. A segment's bytes do
not depend on the batch it was encoded in.

Readers go through one helper, ``open_segments``: given segment records,
it maps each pack's two files once, and each member's ``SegmentReader``
is a set of numpy views of its dictionary section, so opening a segment
builds no Python object per
term (Lucene likewise keeps only a small terms index in memory), and a
reader keeps reading the files it opened after a later commit removes
them. A point lookup (``lookup``, ``postings``, ``term_stats``) is one
binary search on the keys plus a bytes comparison at the matched row,
and only the blocks the query visits decode. A reader has one
enumeration, ``terms_table``, in stored order; vocabulary-wide readers
(prefix, wildcard and fuzzy rewrites, TermsComponent, suggesters, Luke) go
through ``IndexReader.term_dict``, which sums these tables over segments
and sorts them by term.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
import stat
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray import codec

# v2: optional per-posting position stream in the codec
# v3: the term dictionary is terms.bin (hash-indexed, memory-mapped)
# v4: VInt payload prelude; a single-block term stores no block header
# v5: segments are stored in packs (.tdict + .post) named by the manifest
# v6: a 20-byte-per-term dictionary (u32 key, df, ttf, offset; i32 string
#     offset) with terms and payloads in (key, term) order; no row column
# v7: a manifest's segment entries are their packs' TOC records (no packs map)
FORMAT_VERSION = 7

HASH_KEY = "0123456789abcdef"  # fixed key for pd.util.hash_array (determinism)

#: the schema of ``SegmentReader.terms_table`` (and of ``IndexReader.term_dict``)
TERMS_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()), ("ttf", pa.int64())])

_MAGIC = int.from_bytes(b"RAYTERMS", "little")
_PACK_MAGIC = int.from_bytes(b"RAYPACK1", "little")
_HEADER_BYTES = 32
_TRAILER_BYTES = 24
#: dictionary sections after the header: (name, dtype, entries beyond n_terms)
_SECTIONS = (
    ("hash", "<u4", 0),
    ("df", "<u4", 0),
    ("ttf", "<u4", 0),
    ("offset", "<u4", 1),
    ("soff", "<i4", 1),
)
#: a segment's postings must stay below this many bytes (u32 offsets)
MAX_SEGMENT_BYTES = 2**32


def term_hash(terms: np.ndarray) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of term strings.

    pandas' hash_array with a fixed key — vectorized, stable across runs and
    processes. It routes a term to its tkey (``hash % term_partitions``) and
    keys each segment's hash index. (The reference's router murmur3 is
    provided in lucene.py for parity; the choice of hash affects only
    placement, never scores.)
    """
    return pd.util.hash_array(np.asarray(terms, dtype=object), hash_key=HASH_KEY, categorize=False)


def term_key(h) -> np.ndarray:
    """The dictionary key of ``term_hash`` values: their high 32 bits."""
    return (np.asarray(h, np.uint64) >> np.uint64(32)).astype(np.uint32)


def _layout(n: int) -> tuple[list[tuple[str, str, int, int]], int]:
    """Dictionary section offsets for ``n`` terms: ``[(name, dtype, count,
    byte offset)]`` and the offset of the string bytes."""
    out, pos = [], _HEADER_BYTES
    for name, dt, extra in _SECTIONS:
        out.append((name, dt, n + extra, pos))
        pos += -(-np.dtype(dt).itemsize * (n + extra) // 8) * 8
    return out, pos


def _pad8(n: int) -> bytes:
    return b"\0" * (-n % 8)


def _map(path: str) -> mmap.mmap | bytes:
    """A read-only map of the file (``b""`` when it is empty: an empty
    file cannot be mapped)."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def segments_dir(index_dir: str) -> str:
    """The directory that holds an index's packs."""
    return os.path.join(index_dir, "segments")


def doc_order(entry: dict) -> tuple:
    """The order of a commit's segment records: by tkey, then by covered
    doc partitions (a tkey's segments hold disjoint part ranges: phase-B
    salts chunk them and merges fold only neighbours), so each tkey's
    segments come in doc order. Builds and merges commit in this order;
    readers and ``merge.plan_merges`` rely on it."""
    return (entry["tkey"], entry["part_lo"], entry["name"])


def pack_files(man: dict) -> list[str]:
    """Paths, relative to the index directory, of the two files of every
    pack ``man``'s segments name."""
    packs = sorted({s["pack"] for s in man["segments"]})
    return [os.path.join("segments", pack + ext) for pack in packs for ext in (".tdict", ".post")]


def pack_bytes(index_dir: str, man: dict) -> dict[str, int]:
    """``tdict_bytes`` and ``post_bytes``: the summed sizes of the two files
    of every pack ``man`` names, as on disk."""
    out = {"tdict_bytes": 0, "post_bytes": 0}
    for f in pack_files(man):
        key = "tdict_bytes" if f.endswith(".tdict") else "post_bytes"
        out[key] += os.path.getsize(os.path.join(index_dir, f))
    return out


def _terms_section(terms, keys, dfs, ttfs, offsets: np.ndarray) -> bytes:
    """A dictionary section (layout in the module docstring), padded to 8
    bytes, for ``terms`` (strings, or a string array whose first offset is
    0) in (key, term) order with their keys, stats and payload
    offsets."""
    n = len(terms)
    if n and max(int(np.max(dfs)), int(np.max(ttfs))) >= 2**32:
        raise ValueError("a term's df or ttf does not fit the dictionary's u32")
    if int(offsets[-1]) >= MAX_SEGMENT_BYTES:
        raise ValueError(
            f"a segment's postings ({int(offsets[-1])} bytes) pass the dictionary's u32 "
            "offsets: salt the tkey into smaller segments (a lower max_postings_per_segment) "
            "or merge fewer segments into one"
        )
    arr = terms if isinstance(terms, pa.Array) else pa.array(terms, pa.string())
    soff = np.frombuffer(arr.buffers()[1], np.int32, n + 1)
    n_str = int(soff[-1])
    cols = {"hash": keys, "df": dfs, "ttf": ttfs, "offset": offsets, "soff": soff}
    out = [np.array([_MAGIC, FORMAT_VERSION, n, n_str], "<u8").tobytes()]
    for name, dt, _count, _pos in _layout(n)[0]:
        b = np.asarray(cols[name], dtype=dt).tobytes()
        out += [b, _pad8(len(b))]
    out += [memoryview(arr.buffers()[2])[:n_str], _pad8(n_str)]
    return b"".join(out)


def _binary_array(typ: pa.DataType, data: np.ndarray, off: np.ndarray) -> pa.Array:
    """A binary or large-binary array (``typ``) of the byte strings
    ``data[off[i]:off[i + 1]]``."""
    off_t = np.int64 if pa.types.is_large_binary(typ) else np.int32
    return pa.Array.from_buffers(
        typ, len(off) - 1, [None, pa.py_buffer(off.astype(off_t)), pa.py_buffer(data)]
    )


class _Extension(NamedTuple):
    """Where the group's terms are in the bases (``_extend``)."""

    #: distinct (segment, term rank) pairs of the rows of segments with a
    #: base, as ``segment * n_ranks + rank``, ascending
    pairs: np.ndarray
    #: each pair's row in its segment's base, -1 when the base lacks it
    rows: np.ndarray
    #: each pair's place among its base's stored terms (how many precede it)
    ins: np.ndarray
    #: the payloads of the pairs the base holds, in pair order, cut after
    #: their complete blocks (``codec.BlockPrefixes``), or None
    prefixes: codec.BlockPrefixes | None
    #: those pairs' kept blocks' df and ttf
    kept_df: np.ndarray
    kept_ttf: np.ndarray
    #: their tails' rows: segment, rank, doc, tf, norm and position bytes
    tail: tuple


def _extend(bases, seg, r, terms_by_rank: pa.Array, keys_by_rank: np.ndarray) -> _Extension:
    """Look the terms of the rows whose segment has a base up in it
    (``SegmentReader.locate``, one call per base), then cut the payloads
    of the terms the bases hold after their complete blocks
    (``codec.block_prefixes``) and decode every trailing partial block
    (``codec.decode_tails``), each once for the whole batch, over one
    copy of those payloads."""
    n_ranks = len(keys_by_rank)
    has = np.array([b is not None for b in bases])
    sel = has[seg]
    pairs = np.unique(seg[sel] * n_ranks + r[sel])
    p_seg, p_rank = pairs // n_ranks, pairs % n_ranks
    rows = np.empty(len(pairs), dtype=np.int64)
    ins = np.empty(len(pairs), dtype=np.int64)
    payloads, base_ttf = [], [np.zeros(0, np.int64)]
    cut = np.searchsorted(p_seg, np.arange(len(bases) + 1)).tolist()
    for j, base in enumerate(bases):
        a, b = cut[j], cut[j + 1]
        if a == b:
            continue
        ranks = p_rank[a:b]
        rows[a:b], ins[a:b] = base.locate(terms_by_rank.take(pa.array(ranks)), keys_by_rank[ranks])
        hit = rows[a:b][rows[a:b] >= 0]
        base_ttf.append(base._ttf[hit].astype(np.int64))
        pmv, _ = base._pack.postings()
        lo, hi = (base._offset[hit] + base._p_off).tolist(), (base._offset[hit + 1] + base._p_off).tolist()
        payloads += [pmv[x:y] for x, y in zip(lo, hi)]
    if not payloads:
        return _Extension(pairs, rows, ins, None, None, None, None)
    lens = np.array([len(p) for p in payloads], dtype=np.int64)
    ends = np.cumsum(lens)
    pf = codec.block_prefixes(np.frombuffer(b"".join(payloads), np.uint8), ends - lens, ends)
    docs, tfs, norms, pos = codec.decode_tails(pf)
    n_tail = pf.n_tail
    t_cs = np.concatenate([[0], np.cumsum(tfs)])
    t_end = np.cumsum(n_tail)
    touched = pairs[rows >= 0]
    return _Extension(
        pairs,
        rows,
        ins,
        pf,
        pf.n_blocks * codec.BLOCK,
        np.concatenate(base_ttf) - (t_cs[t_end] - t_cs[t_end - n_tail]),
        (np.repeat(touched // n_ranks, n_tail), np.repeat(touched % n_ranks, n_tail), docs, tfs, norms, pos),
    )


def _splice(base: SegmentReader, run_row, run_ins, run_terms, run_keys, dfs, ttfs, payloads):
    """A segment that extends ``base``: the union of the base's terms and
    the runs' terms in (key, term) order — a run's term is the base's row
    ``run_row`` or new at place ``run_ins`` (``_extend``) — with each
    run's stats and encoded payload, and the base's other terms' payloads
    copied as contiguous slices of its postings. Returns (terms, keys,
    dfs, ttfs, payload pieces, payload offsets)."""
    n_b = base.n_terms
    new = run_row < 0
    ins = run_ins[new]
    n_new = len(ins)
    n_tot = n_b + n_new
    at_base = np.arange(n_b) + np.searchsorted(ins, np.arange(n_b), "right")
    at_new = ins + np.arange(n_new)
    at_run = np.empty(len(run_row), dtype=np.int64)  # ascending: runs come in (key, term) order
    at_run[new] = at_new
    at_run[~new] = at_base[run_row[~new]]
    keys = np.empty(n_tot, dtype=np.uint32)
    keys[at_base], keys[at_new] = base._hash, run_keys[new]
    dfs_m, ttfs_m, lens = (np.empty(n_tot, dtype=np.int64) for _ in range(3))
    dfs_m[at_base], dfs_m[at_run] = base._df, dfs
    ttfs_m[at_base], ttfs_m[at_run] = base._ttf, ttfs
    lens[at_base] = np.diff(base._offset.astype(np.int64))
    lens[at_run] = [len(p) for p in payloads]
    offsets = np.zeros(n_tot + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    # between two runs' entries lie only base rows: the stretch before run g
    # starts after run g - 1's entry, at base row (merged place - new runs
    # before it)
    edge = np.concatenate([[-1], at_run, [n_tot]])
    n_new_before = np.concatenate([[0], np.cumsum(new)])
    off = base._offset.astype(np.int64)
    lo = (off[edge[:-1] + 1 - n_new_before] + base._p_off).tolist()
    hi = (off[edge[1:] - n_new_before] + base._p_off).tolist()
    pmv, _ = base._pack.postings()
    pieces = []
    for g in range(len(run_row) + 1):
        if hi[g] > lo[g]:
            pieces.append(pmv[lo[g] : hi[g]])
        if g < len(run_row):
            pieces.append(payloads[g])
    terms = base._terms()
    if n_new:
        src = np.empty(n_tot, dtype=np.int64)
        src[at_base], src[at_new] = np.arange(n_b), n_b + np.arange(n_new)
        terms = pa.concat_arrays([terms, pa.array(run_terms[new], pa.string())]).take(pa.array(src))
    return terms, keys, dfs_m, ttfs_m, pieces, offsets


def build_segments_from_group(group: pa.Table, seg: np.ndarray, specs: list[tuple]) -> list[dict]:
    """Encode a (term, doc_id, tf, norm[, pos]) group table into segments.

    ``seg[i]`` is the index into ``specs`` of the segment row ``i`` belongs
    to; ``specs[j]`` is segment j's ``(name, tkey, salt, extra_meta,
    base)``. One sort orders the rows by (segment, key, term, doc_id), the
    key being the dictionary's (``term_key``) — phase B's rows arrive in
    (part, row group) order and a merge's in source-segment order — one
    ``codec.encode_postings_group`` call encodes every term run of
    every segment, and the payloads are split at segment boundaries. A
    term's payload depends on its own postings only, so each segment's
    bytes equal a build of that segment alone. An optional ``pos`` binary
    or large-binary column (per-posting VInt position payloads from the
    analyzer) is carried through by slicing, never re-encoded.

    A ``base`` (a ``SegmentReader``, or None) is a stored segment of the
    same tkey whose postings all precede the group's rows of segment j:
    segment j is then the base extended by them, byte-identical to
    encoding both. Only the rows' terms are hashed and looked up in the
    base (``SegmentReader.locate``); a term the base holds keeps its
    complete blocks (``codec.block_prefixes``), and its trailing partial
    block is decoded (``codec.decode_tails``, every tail of the batch at
    once) into rows that join the one sort and continue the kept
    blocks in the one encoder call; every other base term's payload is
    copied as raw bytes, contiguous runs of them as one slice.

    Returns the encoded segments, aligned with ``specs``: each its
    metadata (name, tkey, salt, counts, ``extra_meta``) plus ``encoded``:
    the dictionary section and payload pieces that ``write_segment``
    stores, and how many postings went through the encoder.
    """
    # sort by (key, term, doc_id) WITHOUT a string sort over every posting:
    # the group's distinct-term dictionary is tiny (vocab/term_partitions),
    # so rank it once by (key, term) — one term_hash call, one Arrow sort
    # that compares terms (UTF-8 bytes) only on equal keys — remap codes to
    # those ranks, and lexsort the integer triple (segment, rank, doc_id)
    term_col = group.column("term").combine_chunks()
    denc = term_col if pa.types.is_dictionary(term_col.type) else pc.dictionary_encode(term_col)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = denc.dictionary.to_numpy(zero_copy_only=False)
    keys = term_key(term_hash(vocab))
    order_v = pc.sort_indices(
        pa.table({"key": keys, "term": denc.dictionary}),
        sort_keys=[("key", "ascending"), ("term", "ascending")],
    ).to_numpy()
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[order_v] = np.arange(len(vocab))
    r = rank[codes]
    doc_raw = group.column("doc_id").combine_chunks().to_numpy()
    tf_raw = group.column("tf").combine_chunks().to_numpy().astype(np.int64)
    norm_raw = group.column("norm").combine_chunks().to_numpy().astype(np.uint8)
    seg = np.asarray(seg, dtype=np.int64)
    pos_col = group.column("pos").combine_chunks() if "pos" in group.column_names else None
    keys_by_rank = keys[order_v]

    bases = [spec[4] for spec in specs]
    ext = None
    if any(b is not None for b in bases):
        ext = _extend(bases, seg, r, denc.dictionary.take(pa.array(order_v)), keys_by_rank)
        if ext.tail is not None:  # the base terms' trailing partial blocks join the rows
            t_seg, t_r, t_doc, t_tf, t_norm, t_pos = ext.tail
            seg, r = np.concatenate([seg, t_seg]), np.concatenate([r, t_r])
            doc_raw, tf_raw = np.concatenate([doc_raw, t_doc]), np.concatenate([tf_raw, t_tf])
            norm_raw = np.concatenate([norm_raw, t_norm])
            if pos_col is not None:
                tail_pos = _binary_array(pos_col.type, t_pos, codec.position_offsets(t_pos, t_tf))
                pos_col = pa.concat_arrays([pos_col, tail_pos])
    idx = np.lexsort((doc_raw, r, seg))

    doc_arr, tf_arr, norm_arr = doc_raw[idx], tf_raw[idx], norm_raw[idx]
    rs, ss = r[idx], seg[idx]
    change = np.flatnonzero((np.diff(rs) != 0) | (np.diff(ss) != 0)) + 1
    starts = np.concatenate([[0], change]) if len(rs) else np.zeros(0, np.int64)
    ends = np.concatenate([change, [len(rs)]]) if len(rs) else np.zeros(0, np.int64)
    run_rank = rs[starts]
    run_terms, run_keys = vocab[order_v][run_rank], keys_by_rank[run_rank]
    pos_data = pos_off = None
    if pos_col is not None and len(idx):
        taken = pc.take(pos_col, pa.array(idx))
        if isinstance(taken, pa.ChunkedArray):
            taken = taken.combine_chunks()
        # pc.take emits a packed array (offset 0, values in row order), so
        # the data buffer IS the reordered concatenated stream
        off_t = np.int64 if pa.types.is_large_binary(taken.type) else np.int32
        off = np.frombuffer(taken.buffers()[1], dtype=off_t)[
            taken.offset : taken.offset + len(taken) + 1
        ].astype(np.int64)
        data = np.frombuffer(taken.buffers()[2], dtype=np.uint8)
        pos_data = data[off[0] : off[-1]]
        pos_off = off - off[0]
    dfs = (ends - starts).astype(np.int64)
    ttfs = np.add.reduceat(tf_arr, starts) if len(starts) else np.zeros(0, np.int64)
    run_prefixes = run_row = run_ins = None
    if ext is not None:
        # the runs of segments with a base are the pairs, in the same order
        based = np.array([b is not None for b in bases])[ss[starts]]
        run_row = np.full(len(starts), -1, dtype=np.int64)
        run_ins = np.zeros(len(starts), dtype=np.int64)
        run_row[based], run_ins[based] = ext.rows, ext.ins
        if ext.prefixes is not None:
            at = np.flatnonzero(run_row >= 0)
            run_prefixes = (at, ext.prefixes)
            dfs[at] += ext.kept_df
            ttfs[at] += ext.kept_ttf
    payloads = codec.encode_postings_group(
        doc_arr, tf_arr, norm_arr, starts, ends, pos_data=pos_data, pos_off=pos_off, prefixes=run_prefixes
    )
    # segment j's term runs are [cut[j], cut[j + 1])
    cut = np.searchsorted(ss[starts], np.arange(len(specs) + 1)).tolist()
    out = []
    for (name, tkey, salt, extra_meta, base), a, b in zip(specs, cut[:-1], cut[1:]):
        if base is None:
            terms, t_keys, t_dfs, t_ttfs, pieces = run_terms[a:b], run_keys[a:b], dfs[a:b], ttfs[a:b], payloads[a:b]
            offsets = np.zeros(b - a + 1, dtype=np.int64)
            np.cumsum([len(p) for p in pieces], out=offsets[1:])
        else:
            terms, t_keys, t_dfs, t_ttfs, pieces, offsets = _splice(
                base, run_row[a:b], run_ins[a:b], run_terms[a:b], run_keys[a:b],
                dfs[a:b], ttfs[a:b], payloads[a:b],
            )
        meta = {
            "name": name,
            "tkey": int(tkey),
            "salt": int(salt),
            "n_terms": len(terms),
            "n_postings": int(t_dfs.sum()),
            "bytes": int(offsets[-1]),
            **(extra_meta or {}),
        }
        section = _terms_section(terms, t_keys, t_dfs, t_ttfs, offsets)
        meta["encoded"] = (section, pieces, int(ends[b - 1] - starts[a]) if b > a else 0)
        out.append(meta)
    return out


def build_segment_from_group(
    group: pa.Table, name: str, tkey: int, salt: int, extra_meta: dict | None = None
) -> dict:
    """Encode a group table into one segment (``build_segments_from_group``
    with every row in it): a merge's output."""
    seg = np.zeros(group.num_rows, dtype=np.int64)
    return build_segments_from_group(group, seg, [(name, tkey, salt, extra_meta, None)])[0]


def write_segment(index_dir: str, members: list[dict]) -> list[dict]:
    """Write encoded segments (``build_segments_from_group``) as one pack
    under ``segments_dir(index_dir)``: ``.post`` and ``.tdict`` each
    written to a tmp file and renamed, ``.post`` first, so a ``.tdict``
    with a whole trailer means a whole pack. A pack of the same name on
    disk is one that no commit names (left by an interrupted build, with
    the same members), and is replaced. Returns each member's record (the
    module docstring): its metadata plus ``pack``, ``tdict_off`` and
    ``post_off``, as the TOC stores it."""
    root = segments_dir(index_dir)
    os.makedirs(root, exist_ok=True)
    pack = "pack-" + hashlib.sha1("\n".join(m["name"] for m in members).encode()).hexdigest()[:16]
    base = os.path.join(root, pack)
    entries, t_pos, p_pos = [], 0, 0
    with open(base + ".post.tmp", "wb") as fp, open(base + ".tdict.tmp", "wb") as ft:
        for m in members:
            section, payloads, _ = m["encoded"]
            ft.write(section)
            fp.writelines(payloads)
            entry = {k: v for k, v in m.items() if k != "encoded"}
            entries.append(dict(entry, pack=pack, tdict_off=t_pos, post_off=p_pos))
            t_pos += len(section)
            p_pos += entry["bytes"]
        toc = json.dumps({"version": FORMAT_VERSION, "post_bytes": p_pos, "members": entries}).encode()
        ft.write(toc)
        ft.write(np.array([t_pos, len(toc), _PACK_MAGIC], "<u8").tobytes())
    os.replace(base + ".post.tmp", base + ".post")
    os.replace(base + ".tdict.tmp", base + ".tdict")
    return entries


def _read_toc(base: str) -> dict | None:
    """The TOC of the pack at ``base``, or None unless the pack is whole: a
    ``.tdict`` whose trailer checks out at the current format and a
    ``.post`` of the size the TOC records."""
    try:
        with open(base + ".tdict", "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size < _TRAILER_BYTES:
                return None
            f.seek(size - _TRAILER_BYTES)
            toc_off, toc_len, magic = np.frombuffer(f.read(_TRAILER_BYTES), "<u8").tolist()
            if magic != _PACK_MAGIC or toc_off + toc_len + _TRAILER_BYTES != size:
                return None
            f.seek(toc_off)
            toc = json.loads(f.read(toc_len))
        if toc.get("version") != FORMAT_VERSION:
            return None
        if os.stat(base + ".post").st_size != toc["post_bytes"]:
            return None
    except (OSError, ValueError):
        return None
    return toc


def stored_segments(index_dir: str) -> dict[str, dict]:
    """Every segment on disk that a build may resume or extend, by name:
    its record, read from the TOC of its pack if the pack is whole
    (``_read_toc``: a committed record is its pack's TOC member, so a
    committed pack whose ``.post`` was cut short offers nothing)."""
    root = segments_dir(index_dir)
    out: dict[str, dict] = {}
    for fn in sorted(os.listdir(root)) if os.path.isdir(root) else ():
        if fn.endswith(".tdict"):
            toc = _read_toc(os.path.join(root, fn[: -len(".tdict")]))
            for e in toc["members"] if toc else ():
                out.setdefault(e["name"], e)
    return out


def drop_uncommitted(index_dir: str, man: dict) -> None:
    """Remove every file under ``segments/`` that ``man`` does not name:
    the packs of the previous commit (open readers keep what they mapped)
    and whatever an interrupted build or merge left. Runs only after the
    commit point moves; a crash before it leaves garbage the next commit
    removes."""
    root = segments_dir(index_dir)
    live = {os.path.basename(f) for f in pack_files(man)}
    for name in set(os.listdir(root) if os.path.isdir(root) else ()) - live:
        path = os.path.join(root, name)
        if os.path.isdir(path):  # a segment directory of an older format
            shutil.rmtree(path, ignore_errors=True)
        else:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass


class _Pack:
    """A pack's two files, each mapped once and shared by every member's
    reader (or, for an encoded segment not yet written, its bytes)."""

    def __init__(self, tm, post_path: str | None = None, post=None):
        self.tm, self.post_path = tm, post_path
        self.pm = self.pmv = self.pbuf = None
        # .post is mapped on open too, so a reader keeps reading the files
        # it opened even after a later commit removes them. Only a regular
        # file can be mapped ahead of use: anything else (a pipe, say) is
        # opened on the first postings lookup, so opening never blocks on it.
        if post is not None:
            self._set_post(post)
        elif stat.S_ISREG(os.stat(post_path).st_mode):
            self._set_post(_map(post_path))

    def _set_post(self, pm) -> None:
        self.pm, self.pmv, self.pbuf = pm, memoryview(pm), np.frombuffer(pm, np.uint8)

    def postings(self) -> tuple[memoryview, np.ndarray]:
        if self.pbuf is None:
            self._set_post(_map(self.post_path))
        return self.pmv, self.pbuf

    def close(self) -> None:
        """Unmap both files. A map that a caller still holds a view of (a
        ``PostingsView``, a ``terms_table``, another member's reader)
        unmaps when that view is freed."""
        self.pmv = self.pbuf = None
        for m in (self.tm, self.pm):
            if isinstance(m, mmap.mmap):
                try:
                    m.close()
                except BufferError:
                    pass


def open_segments(index_dir: str, entries) -> dict[str, SegmentReader]:
    """Readers of the segments whose records are ``entries`` (a manifest's
    ``segments``, or some of them), by name: the one way to open committed
    segments. Each pack's two files are mapped once and shared by its
    members' readers, so closing one reader closes its pack: close them
    together. A record without a pack predates segment format v7 and
    raises."""
    by_pack: dict[str, list[dict]] = {}
    for e in entries:
        if "pack" not in e:
            raise RuntimeError(
                f"the index at {index_dir} predates segment format v{FORMAT_VERSION}; "
                "rebuild the index (build_index re-encodes every segment)"
            )
        by_pack.setdefault(e["pack"], []).append(e)
    out: dict[str, SegmentReader] = {}
    try:
        for pack, members in by_pack.items():
            base = os.path.join(segments_dir(index_dir), pack)
            p = _Pack(_map(base + ".tdict"), base + ".post")
            for e in members:
                out[e["name"]] = SegmentReader(p, e["tdict_off"], e["post_off"], e["name"])
    except BaseException:
        for r in out.values():
            r.close()
        raise
    return out


def encoded_reader(member: dict) -> SegmentReader:
    """A reader of an encoded segment (``build_segments_from_group``) that
    is not written yet: a merge chain reads its intermediate outputs so."""
    section, payloads, _ = member["encoded"]
    return SegmentReader(_Pack(section, post=b"".join(payloads)), 0, 0, member["name"])


class SegmentReader:
    """One segment of a pack: numpy views of its dictionary section and
    the pack's one postings array, blocks decoded lazily. Opened through
    ``open_segments``.

    Serving reads the dictionary by point lookup only; ``terms_table`` is
    the one way to enumerate it. Every lookup takes an optional
    precomputed ``term_hash`` of the term (an ``np.uint64``), so a caller
    hashes a whole query's terms in one call."""

    def __init__(self, pack: _Pack, t_off: int, p_off: int, name: str):
        self.name = name
        self._pack, self._t_off, self._p_off = pack, t_off, p_off
        tm = pack.tm
        magic, version, n, n_str = np.frombuffer(tm, "<u8", 4, t_off).tolist()
        if magic != _MAGIC or version != FORMAT_VERSION:
            raise RuntimeError(
                f"segment {name} is not segment format v{FORMAT_VERSION}; rebuild the index"
            )
        sections, str_pos = _layout(n)
        for sec, dt, count, pos in sections:
            setattr(self, "_" + sec, np.frombuffer(tm, dt, count, t_off + pos))
        self._strings = memoryview(tm)[t_off + str_pos : t_off + str_pos + n_str]

    @property
    def n_terms(self) -> int:
        return len(self._df)

    def lookup(self, term: str, h: np.uint64 | None = None) -> int:
        """Stored row of ``term`` (its position in the hash index), or -1
        if absent: a binary search on the sorted keys, then a bytes
        comparison at each row whose key matches, so a key collision never
        returns another term."""
        if h is None:
            h = term_hash(np.array([term], dtype=object))[0]
        keys = self._hash
        k = np.uint32(int(h) >> 32)  # term_key(h), on a scalar
        i = int(keys.searchsorted(k))
        key = term.encode()
        while i < len(keys) and keys[i] == k:
            if self._strings[int(self._soff[i]) : int(self._soff[i + 1])] == key:
                return i
            i += 1
        return -1

    def postings(
        self, term: str, h: np.uint64 | None = None
    ) -> tuple[codec.PostingsView, int, int] | None:
        """-> (view, df, ttf) of this segment's slice of the term: one lookup."""
        i = self.lookup(term, h)
        if i < 0:
            return None
        view = self._view(int(self._offset[i]), int(self._offset[i + 1]))
        return view, int(self._df[i]), int(self._ttf[i])

    def _view(self, start: int, end: int) -> codec.PostingsView:
        """The view of this segment's postings ``[start, end)``. Every view
        of a pack shares the ``.post`` file's one memoryview (a view parses
        its prelude from it) and one uint8 array (a view decodes from it),
        at absolute offsets."""
        pmv, pbuf = self._pack.postings()
        return codec.PostingsView(pmv, self._p_off + start, self._p_off + end, pbuf)

    def term_stats(self, term: str, h: np.uint64 | None = None) -> tuple[int, int] | None:
        """-> (df, ttf) for this segment's slice of the term."""
        i = self.lookup(term, h)
        if i < 0:
            return None
        return int(self._df[i]), int(self._ttf[i])

    def locate(self, terms: pa.Array, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Many lookups at once: for each of ``terms`` (a string array) and
        its ``term_key``, its stored row (-1 if absent) and how many
        stored terms come before it in (key, term) order. Two binary
        searches on the keys, then one comparison of each term with every
        stored term of its key."""
        lo = self._hash.searchsorted(keys, "left")
        n_key = self._hash.searchsorted(keys, "right") - lo
        q = np.repeat(np.arange(len(keys)), n_key)
        cand = lo[q] + np.arange(len(q)) - np.repeat(np.cumsum(n_key) - n_key, n_key)
        stored, mine = self._terms().take(pa.array(cand)), terms.take(pa.array(q))
        eq = pc.equal(stored, mine).to_numpy(zero_copy_only=False)
        before = pc.less(stored, mine).to_numpy(zero_copy_only=False)
        rows = np.full(len(keys), -1, dtype=np.int64)
        rows[q[eq]] = cand[eq]
        return rows, lo + np.bincount(q[before], minlength=len(keys))

    def _terms(self) -> pa.StringArray:
        """The stored terms, a view of the mapped file."""
        return pa.StringArray.from_buffers(self.n_terms, pa.py_buffer(self._soff), pa.py_buffer(self._strings))

    def terms_table(self) -> pa.Table:
        """This segment's slice of the vocabulary as (term, df, ttf), in
        stored (key, term) order, not term order — the one enumeration
        ``IndexReader.term_dict`` sums and sorts. The term column is a view
        of the mapped file, not a copy."""
        return pa.table(
            [self._terms(), pa.array(self._df, pa.int64()), pa.array(self._ttf, pa.int64())],
            schema=TERMS_SCHEMA,
        )

    def postings_views(self) -> list[codec.PostingsView]:
        """Every term's postings, in stored (key, term) order, aligned with
        ``terms_table`` (a merge's input)."""
        off = self._offset.tolist()
        return [self._view(a, b) for a, b in zip(off[:-1], off[1:])]

    def raw(self) -> tuple[bytes, bytes]:
        """This segment's dictionary section (header to string bytes) and
        postings bytes: what a byte-identity check compares."""
        end = self._t_off + _layout(self.n_terms)[1] + len(self._strings)
        pmv, _ = self._pack.postings()
        p_end = self._p_off + int(self._offset[-1])
        return bytes(memoryview(self._pack.tm)[self._t_off : end]), bytes(pmv[self._p_off : p_end])

    def close(self):
        """Drop this reader's views and close its pack (see ``_Pack.close``)."""
        for sec, _dt, _extra in _SECTIONS:
            setattr(self, "_" + sec, None)
        self._strings = None
        if self._pack is not None:
            self._pack.close()
        self._pack = None
