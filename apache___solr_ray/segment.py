"""Segment files: sorted term dictionary + block-compressed postings.

The Ray-native analog of a Lucene segment ([Lucene 10.4 library] semantics;
reference call sites ``SolrIndexWriter.java`` / ``SolrIndexConfig.java:
242-289``): an immutable directory written by one shuffle task holding

- ``terms.parquet`` — the sorted term dictionary (binary-searchable; plays
  the FST's role): term, df, ttf, max_tf, offset, nbytes
- ``postings.bin``  — concatenated per-term payloads (codec.py layout:
  VInt deltas + tfs + inline norms in 128-doc blocks with fixed-size
  block-max skip headers)
- ``meta.json``     — segment identity: tkey (term-hash partition), salt
  (the doc-range chunk index within the tkey when phase B splits a bucket
  past ``max_postings_per_segment``; -1 for a merged segment), counts,
  format version.

Phase B and merges write segments through one encoder,
``build_segment_from_group``.

Readers load the term dictionary on open, mmap ``postings.bin`` on the
first postings lookup, and decode only the blocks the query visits.
"""

from __future__ import annotations

import mmap
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from apache___solr_ray import codec
from apache___solr_ray.manifest import write_json_atomic

FORMAT_VERSION = 2  # v2: optional per-posting position stream in the codec

TERMS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("ttf", pa.int64()),
        ("max_tf", pa.int32()),
        ("offset", pa.int64()),
        ("nbytes", pa.int64()),
    ]
)


def write_segment(
    seg_dir: str,
    tkey: int,
    salt: int,
    terms: list[str],
    payloads: list[bytes],
    dfs: list[int],
    ttfs: list[int],
    max_tfs: list[int],
    extra_meta: dict | None = None,
) -> dict:
    """Write one immutable segment directory atomically (tmp dir + rename)."""
    tmp = seg_dir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    offsets = np.zeros(len(payloads) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in payloads], out=offsets[1:])
    with open(os.path.join(tmp, "postings.bin"), "wb") as f:
        for p in payloads:
            f.write(p)
    tbl = pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "df": pa.array(dfs, pa.int64()),
            "ttf": pa.array(ttfs, pa.int64()),
            "max_tf": pa.array(max_tfs, pa.int32()),
            "offset": pa.array(offsets[:-1]),
            "nbytes": pa.array(np.diff(offsets)),
        },
        schema=TERMS_SCHEMA,
    )
    pq.write_table(tbl, os.path.join(tmp, "terms.parquet"))
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
        import shutil

        shutil.rmtree(seg_dir)
    os.replace(tmp, seg_dir)
    return meta


def build_segment_from_group(
    group: pa.Table, seg_dir: str, tkey: int, salt: int, extra_meta: dict | None = None
) -> dict:
    """Encode a (term, doc_id, tf, norm[, pos]) group table into a segment.

    Sorts by (term, doc_id) — phase B's rows arrive in (part, batch) order
    and a merge's in source-segment order — then encodes each term run. An
    optional ``pos`` binary or large-binary column (per-posting VInt
    position payloads from the analyzer) is carried through by slicing,
    never re-encoded.
    """
    # sort by (term, doc_id) WITHOUT a string sort over every posting: the
    # group's distinct-term dictionary is tiny (vocab/term_partitions), so
    # sort the dictionary once, remap codes to lexicographic ranks, and
    # lexsort the integer pair (rank, doc_id). UTF-8 byte order == code
    # point order, so Python str sorting matches Arrow's "ascending".
    term_col = group.column("term").combine_chunks()
    denc = term_col if pa.types.is_dictionary(term_col.type) else pc.dictionary_encode(term_col)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = np.asarray(denc.dictionary.to_pylist(), dtype=object)
    order_v = np.argsort(vocab)
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[order_v] = np.arange(len(vocab))
    r = rank[codes]
    doc_raw = group.column("doc_id").combine_chunks().to_numpy()
    idx = np.lexsort((doc_raw, r))

    doc_arr = doc_raw[idx]
    tf_arr = group.column("tf").combine_chunks().to_numpy().astype(np.int64)[idx]
    norm_arr = group.column("norm").combine_chunks().to_numpy().astype(np.uint8)[idx]
    rs = r[idx]
    change = np.flatnonzero(np.diff(rs) != 0) + 1
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
    max_tfs = np.maximum.reduceat(tf_arr, starts) if len(starts) else np.zeros(0, np.int64)
    return write_segment(
        seg_dir, tkey, salt, terms_list, payloads, dfs, ttfs, max_tfs, extra_meta=extra_meta
    )


class SegmentReader:
    """Open one segment: term dict in memory, postings mmap'd, lazy blocks."""

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        t = pq.read_table(os.path.join(seg_dir, "terms.parquet"))
        self._terms = np.asarray(t.column("term").to_pylist(), dtype=object)
        self._df = t.column("df").to_numpy()
        self._ttf = t.column("ttf").to_numpy()
        self._offset = t.column("offset").to_numpy()
        self._nbytes = t.column("nbytes").to_numpy()
        # postings.bin opens on the first postings() call: df lookups
        # (term_stats) read the term dictionary only
        self._f = self._mm = None

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def lookup(self, term: str) -> int:
        """Binary search the sorted term dict; -1 if absent."""
        i = int(np.searchsorted(self._terms, term))
        if i < len(self._terms) and self._terms[i] == term:
            return i
        return -1

    def postings(self, term: str) -> codec.PostingsView | None:
        i = self.lookup(term)
        if i < 0:
            return None
        if self._mm is None:
            path = os.path.join(self.dir, "postings.bin")
            self._f = open(path, "rb")
            self._mm = (
                mmap.mmap(self._f.fileno(), 0, access=mmap.ACCESS_READ)
                if os.path.getsize(path)
                else b""
            )
        off, nb = int(self._offset[i]), int(self._nbytes[i])
        return codec.PostingsView(memoryview(self._mm)[off : off + nb])

    def term_stats(self, term: str) -> tuple[int, int] | None:
        """-> (df, ttf) for this segment's slice of the term."""
        i = self.lookup(term)
        if i < 0:
            return None
        return int(self._df[i]), int(self._ttf[i])

    def iter_terms(self):
        for i in range(len(self._terms)):
            yield self._terms[i], int(self._df[i]), int(self._ttf[i])

    # -- vectorized term-dict expansion (MultiTermQuery rewrites) ----------

    def terms_with_prefix(self, prefix: str) -> np.ndarray:
        """Sorted-dict range scan: two binary searches, no per-term Python
        (Lucene PrefixQuery seeks the TermsEnum to the prefix the same way)."""
        lo = int(np.searchsorted(self._terms, prefix, side="left"))
        succ = _prefix_successor(prefix)
        hi = (
            int(np.searchsorted(self._terms, succ, side="left"))
            if succ is not None
            else len(self._terms)
        )
        return self._terms[lo:hi]

    def terms_with_prefix_stats(self, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        """(terms, dfs) in the prefix range — the TermsComponent payload."""
        lo = int(np.searchsorted(self._terms, prefix, side="left"))
        succ = _prefix_successor(prefix)
        hi = (
            int(np.searchsorted(self._terms, succ, side="left"))
            if succ is not None
            else len(self._terms)
        )
        return self._terms[lo:hi], self._df[lo:hi]

    def _terms_arrow(self) -> pa.Array:
        a = getattr(self, "_terms_pa", None)
        if a is None:
            a = self._terms_pa = pa.array(self._terms, pa.string())
        return a

    def terms_matching_like(self, like: str) -> np.ndarray:
        """Wildcard expansion via the C-level SQL-LIKE kernel (``%``/``_``)."""
        mask = pc.match_like(self._terms_arrow(), like).to_numpy(zero_copy_only=False)
        return self._terms[mask]

    def terms_matching_like_stats(
        self, like: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(terms, dfs, ttfs) matching a LIKE pattern — the infix-suggester
        payload (AnalyzingInfixSuggester matches inside the term; weight
        comes from the stored stats, no postings decoded)."""
        mask = pc.match_like(self._terms_arrow(), like).to_numpy(zero_copy_only=False)
        return self._terms[mask], self._df[mask], self._ttf[mask]

    def terms_within_edit1(self, target: str, dist_fn) -> np.ndarray:
        """Fuzzy expansion: vectorized length-window prefilter (edit distance
        ≥ |len difference|), then ``dist_fn`` only on survivors."""
        lens = pc.utf8_length(self._terms_arrow()).to_numpy(zero_copy_only=False)
        cand = self._terms[np.abs(lens - len(target)) <= 1]
        return cand[[bool(dist_fn(t, target)) for t in cand]]

    def close(self):
        try:
            if self._mm:
                self._mm.close()
            if self._f is not None:
                self._f.close()
        except Exception:
            pass


def _prefix_successor(prefix: str) -> str | None:
    """Smallest string greater than every string with this prefix (exact
    upper bound for the dict range scan); None = prefix is all U+10FFFF."""
    for i in range(len(prefix) - 1, -1, -1):
        c = ord(prefix[i])
        if c < 0x10FFFF:
            return prefix[:i] + chr(c + 1)
    return None
