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
first postings lookup, and decode only the blocks the query visits. A
reader answers point lookups (``lookup``, ``postings``, ``term_stats``) and
has one enumeration, ``terms_table``; vocabulary-wide readers (prefix,
wildcard and fuzzy rewrites, TermsComponent, suggesters, Luke) go through
``IndexReader.term_dict``, which sums these tables over segments.
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


def segment_name(entry: dict) -> str:
    """Directory name under ``segments/`` of one index-manifest entry
    (entries without a ``name`` are phase-B segments: tkey and salt)."""
    return entry.get("name") or f"seg-{entry['tkey']:05d}-{entry['salt']:05d}"


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
    """Open one segment: term dict in memory, postings mmap'd, lazy blocks.

    Serving reads the dictionary by point lookup only; ``terms_table`` is
    the one way to enumerate it."""

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        t = pq.read_table(os.path.join(seg_dir, "terms.parquet"))
        self._terms = t.column("term").to_numpy(zero_copy_only=False)
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

    def terms_table(self) -> pa.Table:
        """This segment's slice of the vocabulary as (term, df, ttf), in
        term order — the one enumeration ``IndexReader.term_dict`` sums."""
        return pa.table(
            {"term": pa.array(self._terms, pa.string()), "df": self._df, "ttf": self._ttf}
        )

    def close(self):
        try:
            if self._mm:
                self._mm.close()
            if self._f is not None:
                self._f.close()
        except Exception:
            pass
