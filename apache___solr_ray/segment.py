"""Segment files: hash-indexed term dictionary + block-compressed postings.

The Ray-native analog of a Lucene segment ([Lucene 10.4 library] semantics;
reference call sites ``SolrIndexWriter.java`` / ``SolrIndexConfig.java:
242-289``): a write-once directory holding

- ``terms.bin``     — the term dictionary (plays the FST's role), one raw
  little-endian file of 8-byte aligned sections: a header (magic, version,
  n_terms, n_string_bytes); the ascending 64-bit ``term_hash`` of every
  term with its lexical row (the hash index); then in lexical order df,
  ttf (u32), the ``postings.bin`` offsets (u64, n+1) and the terms as an
  Arrow string column (i32 offsets, n+1, then UTF-8 bytes)
- ``postings.bin``  — concatenated per-term payloads (codec.py layout:
  a VInt prelude, then VInt deltas + tfs + inline norms in 128-doc
  blocks; only a term of more than one block carries fixed-size
  block-max skip headers)
- ``meta.json``     — segment identity: tkey (term-hash partition), salt
  (the doc-range chunk index within the tkey when phase B splits a bucket
  past ``max_postings_per_segment``; -1 for a merged segment), counts,
  format version.

Phase B and merges write segments through one encoder,
``build_segments_from_group``: a phase-B encode batch passes several
segments' rows at once, and ``build_segment_from_group`` (a merge's
output) is its one-segment call. A segment's bytes do not depend on the
batch it was encoded in. Once a manifest names a directory, nothing
rewrites it: phase B names its directories by their input lineage, and a
merge writes names that the committed manifest does not hold.

Readers memory-map ``terms.bin`` and ``postings.bin`` on open and take
numpy views of the dictionary's sections, so opening a segment builds no
Python object per term (Lucene likewise keeps only a small terms index in
memory), and a reader keeps reading the files it opened after a later
commit removes their directory. A point lookup (``lookup``, ``postings``,
``term_stats``) is one binary search on the hashes plus a bytes
comparison at the matched row, and only the blocks the query visits
decode. A reader has one enumeration, ``terms_table``; vocabulary-wide
readers (prefix, wildcard and fuzzy rewrites, TermsComponent, suggesters,
Luke) go through ``IndexReader.term_dict``, which sums these tables over
segments.
"""

from __future__ import annotations

import mmap
import os
import shutil
import stat

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray import codec
from apache___solr_ray.manifest import write_json_atomic

# v2: optional per-posting position stream in the codec
# v3: the term dictionary is terms.bin (hash-indexed, memory-mapped)
# v4: VInt payload prelude; a single-block term stores no block header
FORMAT_VERSION = 4

HASH_KEY = "0123456789abcdef"  # fixed key for pd.util.hash_array (determinism)

#: the schema of ``SegmentReader.terms_table`` (and of ``IndexReader.term_dict``)
TERMS_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()), ("ttf", pa.int64())])

_MAGIC = int.from_bytes(b"RAYTERMS", "little")
_HEADER_BYTES = 32
#: terms.bin sections after the header: (name, dtype, entries beyond n_terms)
_SECTIONS = (
    ("hash", "<u8", 0),
    ("row", "<i4", 0),
    ("df", "<u4", 0),
    ("ttf", "<u4", 0),
    ("offset", "<u8", 1),
    ("soff", "<i4", 1),
)


def term_hash(terms: np.ndarray) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of term strings.

    pandas' hash_array with a fixed key — vectorized, stable across runs and
    processes. It routes a term to its tkey (``hash % term_partitions``) and
    keys each segment's hash index. (The reference's router murmur3 is
    provided in lucene.py for parity; the choice of hash affects only
    placement, never scores.)
    """
    return pd.util.hash_array(np.asarray(terms, dtype=object), hash_key=HASH_KEY, categorize=False)


def _layout(n: int) -> tuple[list[tuple[str, str, int, int]], int]:
    """terms.bin section offsets for ``n`` terms: ``[(name, dtype, count,
    byte offset)]`` and the offset of the string bytes."""
    out, pos = [], _HEADER_BYTES
    for name, dt, extra in _SECTIONS:
        out.append((name, dt, n + extra, pos))
        pos += -(-np.dtype(dt).itemsize * (n + extra) // 8) * 8
    return out, pos


def _map(path: str) -> mmap.mmap | bytes:
    """A read-only map of the file (``b""`` when it is empty: an empty
    file cannot be mapped)."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def segment_name(entry: dict) -> str:
    """Directory name under ``segments/`` of one index-manifest entry
    (entries without a ``name`` are phase-B segments: tkey and salt)."""
    return entry.get("name") or f"seg-{entry['tkey']:05d}-{entry['salt']:05d}"


def _write_terms(path: str, terms, dfs, ttfs, offsets: np.ndarray) -> None:
    """Write ``terms.bin`` (layout in the module docstring) for lexically
    sorted ``terms`` with their stats and ``postings.bin`` offsets."""
    n = len(terms)
    if n and max(int(np.max(dfs)), int(np.max(ttfs))) >= 2**32:
        raise ValueError("a term's df or ttf does not fit terms.bin's u32")
    arr = pa.array(terms, pa.string())  # freshly built: buffer offsets start at 0
    soff = np.frombuffer(arr.buffers()[1], np.int32, n + 1)
    n_str = int(soff[-1])
    h = term_hash(terms)
    row = np.argsort(h, kind="stable")
    cols = {
        "hash": h[row],
        "row": row,
        "df": dfs,
        "ttf": ttfs,
        "offset": offsets,
        "soff": soff,
    }
    sections, str_pos = _layout(n)
    with open(path, "wb") as f:
        f.write(np.array([_MAGIC, FORMAT_VERSION, n, n_str], "<u8").tobytes())
        for name, dt, _count, pos in sections:
            f.write(b"\0" * (pos - f.tell()))
            f.write(np.asarray(cols[name], dtype=dt).tobytes())
        f.write(b"\0" * (str_pos - f.tell()))
        f.write(memoryview(arr.buffers()[2])[:n_str])


def write_segment(
    seg_dir: str,
    tkey: int,
    salt: int,
    terms: list[str],
    payloads: list[bytes],
    dfs: list[int],
    ttfs: list[int],
    extra_meta: dict | None = None,
) -> dict:
    """Write one immutable segment directory atomically (tmp dir + rename).
    ``terms`` are in lexical (UTF-8 byte) order, ``payloads`` aligned. A
    directory already at ``seg_dir`` is one that no commit names (left by
    an interrupted build), and is replaced."""
    tmp = seg_dir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    offsets = np.zeros(len(payloads) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in payloads], out=offsets[1:])
    with open(os.path.join(tmp, "postings.bin"), "wb") as f:
        for p in payloads:
            f.write(p)
    _write_terms(os.path.join(tmp, "terms.bin"), terms, dfs, ttfs, offsets)
    meta = {
        "version": FORMAT_VERSION,
        "tkey": int(tkey),
        "salt": int(salt),
        "n_terms": len(terms),
        "n_postings": int(sum(dfs)),
        "bytes": int(offsets[-1]),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json_atomic(os.path.join(tmp, "meta.json"), meta)
    if os.path.exists(seg_dir):
        shutil.rmtree(seg_dir)
    os.replace(tmp, seg_dir)
    return meta


def build_segments_from_group(group: pa.Table, seg: np.ndarray, specs: list[tuple]) -> list[dict]:
    """Encode a (term, doc_id, tf, norm[, pos]) group table into segments.

    ``seg[i]`` is the index into ``specs`` of the segment row ``i`` belongs
    to; ``specs[j]`` is segment j's ``(seg_dir, tkey, salt, extra_meta)``.
    One sort orders the rows by (segment, term, doc_id) — phase B's rows
    arrive in (part, row group) order and a merge's in source-segment order
    — one ``codec.encode_postings_group`` call encodes every term run of
    every segment, and the payloads are split at segment boundaries. A
    term's payload depends on its own postings only, so each segment's
    bytes equal a build of that segment alone. An optional ``pos`` binary
    or large-binary column (per-posting VInt position payloads from the
    analyzer) is carried through by slicing, never re-encoded. Returns the
    segments' metas, aligned with ``specs``.
    """
    # sort by (term, doc_id) WITHOUT a string sort over every posting: the
    # group's distinct-term dictionary is tiny (vocab/term_partitions), so
    # sort the dictionary once, remap codes to lexicographic ranks, and
    # lexsort the integer triple (segment, rank, doc_id). UTF-8 byte order
    # == code point order, so Python str sorting matches Arrow's "ascending".
    term_col = group.column("term").combine_chunks()
    denc = term_col if pa.types.is_dictionary(term_col.type) else pc.dictionary_encode(term_col)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = np.asarray(denc.dictionary.to_pylist(), dtype=object)
    order_v = np.argsort(vocab)
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[order_v] = np.arange(len(vocab))
    r = rank[codes]
    doc_raw = group.column("doc_id").combine_chunks().to_numpy()
    seg = np.asarray(seg, dtype=np.int64)
    idx = np.lexsort((doc_raw, r, seg))

    doc_arr = doc_raw[idx]
    tf_arr = group.column("tf").combine_chunks().to_numpy().astype(np.int64)[idx]
    norm_arr = group.column("norm").combine_chunks().to_numpy().astype(np.uint8)[idx]
    rs, ss = r[idx], seg[idx]
    change = np.flatnonzero((np.diff(rs) != 0) | (np.diff(ss) != 0)) + 1
    starts = np.concatenate([[0], change]) if len(rs) else np.zeros(0, np.int64)
    ends = np.concatenate([change, [len(rs)]]) if len(rs) else np.zeros(0, np.int64)
    sorted_vocab = vocab[order_v]
    terms_list = [sorted_vocab[rs[s]] for s in starts]
    pos_data = pos_off = None
    if "pos" in group.column_names and group.num_rows:
        taken = pc.take(group.column("pos").combine_chunks(), pa.array(idx))
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
    payloads = codec.encode_postings_group(
        doc_arr, tf_arr, norm_arr, starts, ends, pos_data=pos_data, pos_off=pos_off
    )
    dfs = (ends - starts).astype(np.int64)
    ttfs = np.add.reduceat(tf_arr, starts) if len(starts) else np.zeros(0, np.int64)
    # segment j's term runs are [cut[j], cut[j + 1])
    cut = np.searchsorted(ss[starts], np.arange(len(specs) + 1)).tolist()
    return [
        write_segment(
            seg_dir, tkey, salt, terms_list[a:b], payloads[a:b], dfs[a:b], ttfs[a:b],
            extra_meta=extra_meta,
        )
        for (seg_dir, tkey, salt, extra_meta), a, b in zip(specs, cut[:-1], cut[1:])
    ]


def build_segment_from_group(
    group: pa.Table, seg_dir: str, tkey: int, salt: int, extra_meta: dict | None = None
) -> dict:
    """Encode a group table into one segment (``build_segments_from_group``
    with every row in it): a merge's output."""
    seg = np.zeros(group.num_rows, dtype=np.int64)
    return build_segments_from_group(group, seg, [(seg_dir, tkey, salt, extra_meta)])[0]


class SegmentReader:
    """Open one segment: ``terms.bin`` and ``postings.bin`` memory-mapped
    on open, blocks decoded lazily.

    Serving reads the dictionary by point lookup only; ``terms_table`` is
    the one way to enumerate it. Every lookup takes an optional
    precomputed ``term_hash`` of the term (an ``np.uint64``), so a caller
    hashes a whole query's terms in one call."""

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        try:
            self._tm = _map(os.path.join(seg_dir, "terms.bin"))
        except FileNotFoundError:
            if not os.path.isdir(seg_dir):
                raise  # the directory is gone, not an older format
            raise RuntimeError(
                f"segment {seg_dir} has no terms.bin: it predates segment format "
                f"v{FORMAT_VERSION}; rebuild the index (build_index re-encodes every segment)"
            ) from None
        magic, version, n, n_str = np.frombuffer(self._tm, "<u8", 4).tolist()
        if magic != _MAGIC or version != FORMAT_VERSION:
            raise RuntimeError(
                f"{seg_dir}/terms.bin is not segment format v{FORMAT_VERSION}; rebuild the index"
            )
        sections, str_pos = _layout(n)
        for name, dt, count, pos in sections:
            setattr(self, "_" + name, np.frombuffer(self._tm, dt, count, pos))
        self._strings = memoryview(self._tm)[str_pos : str_pos + n_str]
        # postings.bin is mapped on open too, so a reader keeps reading the
        # files it opened even after a later commit removes the directory.
        # Only a regular file can be mapped ahead of use: anything else (a
        # pipe, say) is opened on the first postings lookup, so opening a
        # segment never blocks on it.
        self._pm = self._pmv = self._pbuf = None
        if stat.S_ISREG(os.stat(os.path.join(seg_dir, "postings.bin")).st_mode):
            self._map_postings()

    @property
    def n_terms(self) -> int:
        return len(self._df)

    def lookup(self, term: str, h: np.uint64 | None = None) -> int:
        """Lexical row of ``term``, or -1 if absent: a binary search on the
        sorted hashes, then a bytes comparison at each row whose hash
        matches, so a hash collision never returns another term."""
        if h is None:
            h = term_hash(np.array([term], dtype=object))[0]
        hashes = self._hash
        i = int(hashes.searchsorted(h))
        key = term.encode()
        while i < len(hashes) and hashes[i] == h:
            r = int(self._row[i])
            if self._strings[int(self._soff[r]) : int(self._soff[r + 1])] == key:
                return r
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

    def _map_postings(self) -> None:
        self._pm = _map(os.path.join(self.dir, "postings.bin"))
        self._pmv = memoryview(self._pm)
        self._pbuf = np.frombuffer(self._pm, np.uint8)

    def _view(self, start: int, end: int) -> codec.PostingsView:
        """The view of ``postings.bin[start:end]``. Every view of the
        segment shares the file's one memoryview (a view parses its prelude
        from it) and one uint8 array (a view decodes from it)."""
        if self._pbuf is None:
            self._map_postings()
        return codec.PostingsView(self._pmv, start, end, self._pbuf)

    def term_stats(self, term: str, h: np.uint64 | None = None) -> tuple[int, int] | None:
        """-> (df, ttf) for this segment's slice of the term."""
        i = self.lookup(term, h)
        if i < 0:
            return None
        return int(self._df[i]), int(self._ttf[i])

    def terms_table(self) -> pa.Table:
        """This segment's slice of the vocabulary as (term, df, ttf), in
        term order — the one enumeration ``IndexReader.term_dict`` sums.
        The term column is a view of the mapped file, not a copy."""
        term = pa.StringArray.from_buffers(
            self.n_terms, pa.py_buffer(self._soff), pa.py_buffer(self._strings)
        )
        return pa.table(
            [term, pa.array(self._df, pa.int64()), pa.array(self._ttf, pa.int64())],
            schema=TERMS_SCHEMA,
        )

    def postings_views(self) -> list[codec.PostingsView]:
        """Every term's postings, in term order (a merge's input)."""
        off = self._offset.tolist()
        return [self._view(a, b) for a, b in zip(off[:-1], off[1:])]

    def close(self):
        """Unmap both files. A map that a caller still holds a view of (a
        ``PostingsView``, a ``terms_table``) unmaps when that view is freed."""
        for name, _dt, _extra in _SECTIONS:
            setattr(self, "_" + name, None)
        self._strings = self._pmv = self._pbuf = None
        for m in (self._tm, self._pm):
            if isinstance(m, mmap.mmap):
                try:
                    m.close()
                except BufferError:
                    pass
        self._tm = self._pm = None
