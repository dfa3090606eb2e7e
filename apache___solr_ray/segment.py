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
    bytes, for ``terms`` in (key, term) order with their keys, stats and
    payload offsets."""
    n = len(terms)
    if n and max(int(np.max(dfs)), int(np.max(ttfs))) >= 2**32:
        raise ValueError("a term's df or ttf does not fit the dictionary's u32")
    if int(offsets[-1]) >= MAX_SEGMENT_BYTES:
        raise ValueError(
            f"a segment's postings ({int(offsets[-1])} bytes) pass the dictionary's u32 "
            "offsets: salt the tkey into smaller segments (a lower max_postings_per_segment) "
            "or merge fewer segments into one"
        )
    arr = pa.array(terms, pa.string())  # freshly built: buffer offsets start at 0
    soff = np.frombuffer(arr.buffers()[1], np.int32, n + 1)
    n_str = int(soff[-1])
    cols = {"hash": keys, "df": dfs, "ttf": ttfs, "offset": offsets, "soff": soff}
    out = [np.array([_MAGIC, FORMAT_VERSION, n, n_str], "<u8").tobytes()]
    for name, dt, _count, _pos in _layout(n)[0]:
        b = np.asarray(cols[name], dtype=dt).tobytes()
        out += [b, _pad8(len(b))]
    out += [memoryview(arr.buffers()[2])[:n_str], _pad8(n_str)]
    return b"".join(out)


def build_segments_from_group(group: pa.Table, seg: np.ndarray, specs: list[tuple]) -> list[dict]:
    """Encode a (term, doc_id, tf, norm[, pos]) group table into segments.

    ``seg[i]`` is the index into ``specs`` of the segment row ``i`` belongs
    to; ``specs[j]`` is segment j's ``(name, tkey, salt, extra_meta)``.
    One sort orders the rows by (segment, key, term, doc_id), the key
    being the dictionary's (``term_key``) — phase B's rows arrive in (part,
    row group) order and a merge's in source-segment order — one
    ``codec.encode_postings_group`` call encodes every term run of
    every segment, and the payloads are split at segment boundaries. A
    term's payload depends on its own postings only, so each segment's
    bytes equal a build of that segment alone. An optional ``pos`` binary
    or large-binary column (per-posting VInt position payloads from the
    analyzer) is carried through by slicing, never re-encoded. Returns the
    encoded segments, aligned with ``specs``: each its metadata (name,
    tkey, salt, counts, ``extra_meta``) plus ``encoded``, the dictionary
    section and payloads that ``write_segment`` stores.
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
    seg = np.asarray(seg, dtype=np.int64)
    idx = np.lexsort((doc_raw, r, seg))

    doc_arr = doc_raw[idx]
    tf_arr = group.column("tf").combine_chunks().to_numpy().astype(np.int64)[idx]
    norm_arr = group.column("norm").combine_chunks().to_numpy().astype(np.uint8)[idx]
    rs, ss = r[idx], seg[idx]
    change = np.flatnonzero((np.diff(rs) != 0) | (np.diff(ss) != 0)) + 1
    starts = np.concatenate([[0], change]) if len(rs) else np.zeros(0, np.int64)
    ends = np.concatenate([change, [len(rs)]]) if len(rs) else np.zeros(0, np.int64)
    run_rank = rs[starts]
    run_terms, run_keys = vocab[order_v][run_rank], keys[order_v][run_rank]
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
    out = []
    for (name, tkey, salt, extra_meta), a, b in zip(specs, cut[:-1], cut[1:]):
        offsets = np.zeros(b - a + 1, dtype=np.int64)
        np.cumsum([len(p) for p in payloads[a:b]], out=offsets[1:])
        meta = {
            "name": name,
            "tkey": int(tkey),
            "salt": int(salt),
            "n_terms": b - a,
            "n_postings": int(dfs[a:b].sum()),
            "bytes": int(offsets[-1]),
            **(extra_meta or {}),
        }
        section = _terms_section(run_terms[a:b], run_keys[a:b], dfs[a:b], ttfs[a:b], offsets)
        meta["encoded"] = (section, payloads[a:b])
        out.append(meta)
    return out


def build_segment_from_group(
    group: pa.Table, name: str, tkey: int, salt: int, extra_meta: dict | None = None
) -> dict:
    """Encode a group table into one segment (``build_segments_from_group``
    with every row in it): a merge's output."""
    seg = np.zeros(group.num_rows, dtype=np.int64)
    return build_segments_from_group(group, seg, [(name, tkey, salt, extra_meta)])[0]


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
            section, payloads = m["encoded"]
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


def stored_segments(index_dir: str, committed: dict | None) -> dict[str, dict]:
    """Every segment on disk that a build may resume, by name: its record.
    The records of ``committed`` whose pack has both files on disk come
    from that manifest; members of any other pack from its TOC, once per
    pack, if the pack is whole (``_read_toc``)."""
    root = segments_dir(index_dir)
    on_disk = set(os.listdir(root)) if os.path.isdir(root) else set()
    out = {
        s["name"]: s
        for s in (committed or {}).get("segments", ())
        if "pack" in s and {s["pack"] + ".tdict", s["pack"] + ".post"} <= on_disk
    }
    seen = {s["pack"] for s in out.values()}
    for fn in sorted(on_disk):
        pack = fn[: -len(".tdict")]
        if not fn.endswith(".tdict") or pack in seen:
            continue
        toc = _read_toc(os.path.join(root, pack))
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
    section, payloads = member["encoded"]
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

    def terms_table(self) -> pa.Table:
        """This segment's slice of the vocabulary as (term, df, ttf), in
        stored (key, term) order, not term order — the one enumeration
        ``IndexReader.term_dict`` sums and sorts. The term column is a view
        of the mapped file, not a copy."""
        term = pa.StringArray.from_buffers(
            self.n_terms, pa.py_buffer(self._soff), pa.py_buffer(self._strings)
        )
        return pa.table(
            [term, pa.array(self._df, pa.int64()), pa.array(self._ttf, pa.int64())],
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
