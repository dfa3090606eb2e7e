"""Lucene-exact scoring math: SmallFloat length norms, BM25, murmur3 routing.

Reimplements (from the published Apache Lucene 10.x sources / docs — public
knowledge) the handful of numeric routines that must match bit-for-bit for the
engine's scores to be rank- and score-identical to the Solr/Lucene reference:

- ``SmallFloat.intToByte4`` / ``byte4ToInt``: the 1-byte encoding of document
  length used for the ``norm`` (reference call site: norms written per doc at
  index time; decoded through ``BM25Similarity``'s ``LENGTH_TABLE``).
- ``BM25Similarity`` (k1=1.2, b=0.75, discountOverlaps=true — reference
  defaults at ``solr/core/src/java/org/apache/solr/search/similarities/
  BM25SimilarityFactory.java:47-50``): idf in float64, a 256-entry float32
  ``normInverse`` cache, per-(term,doc) score
  ``weight - weight / (1 + freq * normInverse)`` in float32, and float64
  summation across query terms (Lucene ``DisjunctionSumScorer``) cast back to
  float32.
- ``murmurhash3_x86_32``: Solr's document router hash (reference
  ``solr/solrj/src/java/org/apache/solr/common/cloud/HashBasedRouter.java:
  28-62``, ``Hash.murmurhash3_x86_32``).

All vectorized paths use numpy float32/float64 ops, which are IEEE-754
round-to-nearest like the JVM's — identical results for identical operation
order. The operation order implemented here is documented inline and frozen by
golden tests.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# ---------------------------------------------------------------------------
# SmallFloat: 4-bit-mantissa byte encoding of small positive ints
# (Lucene org.apache.lucene.util.SmallFloat — public source)
# ---------------------------------------------------------------------------


def long_to_int4(i: int) -> int:
    """Encode a non-negative int into Lucene's int4 format (monotonic)."""
    if i < 0:
        raise ValueError("only non-negative values accepted")
    num_bits = i.bit_length()
    if num_bits < 4:
        return i  # subnormal
    shift = num_bits - 4
    encoded = (i >> shift) & 0x07  # drop implicit leading bit
    encoded |= (shift + 1) << 3
    return encoded


def int4_to_long(i: int) -> int:
    bits = i & 0x07
    shift = (i >> 3) - 1
    if shift == -1:
        return bits  # subnormal
    return (bits | 0x08) << shift


MAX_INT4 = long_to_int4(2**31 - 1)
NUM_FREE_VALUES = 255 - MAX_INT4  # == 24 in Lucene 10


def int_to_byte4(i: int) -> int:
    """Lucene SmallFloat.intToByte4: doc length -> unsigned norm byte 0..255.

    Values < 24 are exact; larger values are quantized (monotonically).
    """
    if i < 0:
        raise ValueError("only non-negative values accepted")
    if i < NUM_FREE_VALUES:
        return i
    return NUM_FREE_VALUES + long_to_int4(i - NUM_FREE_VALUES)


def byte4_to_int(b: int) -> int:
    """Lucene SmallFloat.byte4ToInt: unsigned norm byte 0..255 -> doc length."""
    if b < NUM_FREE_VALUES:
        return b
    return NUM_FREE_VALUES + int4_to_long(b - NUM_FREE_VALUES)


#: LENGTH_TABLE[b] == float(byte4ToInt(b)) — BM25Similarity's decode table.
LENGTH_TABLE = np.array([byte4_to_int(i) for i in range(256)], dtype=np.float32)

#: Vectorized intToByte4 via searchsorted on the (monotonic) decode table.
_DECODE_INTS = np.array([byte4_to_int(i) for i in range(256)], dtype=np.int64)


def int_to_byte4_array(lengths: np.ndarray) -> np.ndarray:
    """Vectorized SmallFloat.intToByte4 over an int array -> uint8 norms.

    intToByte4 maps i to the largest byte b with byte4ToInt(b) <= i (the
    encoding truncates mantissa bits), so a right-sided searchsorted on the
    decode table minus one is exact. Frozen against the scalar version by
    tests.
    """
    idx = np.searchsorted(_DECODE_INTS, lengths, side="right") - 1
    return idx.astype(np.uint8)


# ---------------------------------------------------------------------------
# BM25 (Lucene BM25Similarity semantics)
# ---------------------------------------------------------------------------

K1 = np.float32(1.2)
B = np.float32(0.75)


def idf(doc_freq: int, doc_count: int) -> float:
    """Lucene idf: ln(1 + (docCount - docFreq + 0.5) / (docFreq + 0.5)).

    Computed in float64 (Java double), as in BM25Similarity.idfExplain.
    """
    return math.log(1.0 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5))


@functools.lru_cache(maxsize=64)
def _norm_inverse(avgdl: float, k1: float, b: float) -> np.ndarray:
    """BM25Similarity's 256-entry normInverse cache, shared (read-only) by
    every scorer of one (avgdl, k1, b): all terms of a query get the same
    table object, so a query scores every posting with one gather."""
    one = np.float32(1.0)
    k1, b, avgdl = np.float32(k1), np.float32(b), np.float32(avgdl)
    # float32 elementwise, same op order as the Java expression
    cache = (one / (k1 * ((one - b) + b * LENGTH_TABLE / avgdl))).astype(np.float32)
    cache.flags.writeable = False
    return cache


class BM25Scorer:
    """Per-term scorer replicating Lucene BM25Similarity.BM25Scorer.

    Construction mirrors BM25Similarity.scorer():
      avgdl   = (float)(sumTotalTermFreq / (double) docCount)
      cache[b]= 1f / (k1 * ((1 - b) + b * LENGTH_TABLE[b] / avgdl))   (float32)
      weight  = boost * (float) idf * (k1 + 1)                        (float32)
    Scoring mirrors BM25Scorer.score(freq, norm):
      normInverse = cache[norm & 0xFF]
      score       = weight - weight / (1 + freq * normInverse)        (float32)
    """

    __slots__ = ("weight", "cache", "idf")

    def __init__(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_tf: int,
        k1: np.float32 = K1,
        b: np.float32 = B,
        boost: float = 1.0,
    ):
        # a sequence of dfs = multi-term weight (Lucene PhraseQuery /
        # SynonymQuery path: BM25Similarity.idfExplain sums the per-term
        # double idfs before the float32 weight is formed)
        if isinstance(doc_freq, (list, tuple, np.ndarray)):
            self.idf = float(sum(idf(int(d), doc_count) for d in doc_freq))
        else:
            self.idf = idf(doc_freq, doc_count)
        avgdl = np.float32(sum_total_tf / float(doc_count))
        one = np.float32(1.0)
        self.cache = _norm_inverse(float(avgdl), float(k1), float(b))
        self.weight = np.float32(
            np.float32(boost) * np.float32(self.idf) * (one + k1)
        )

    def score(self, tf: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """Vectorized float32 scores for (tf, norm) posting arrays."""
        norm_inv = self.cache[norm_bytes.astype(np.uint8)]
        freq = tf.astype(np.float32)
        one = np.float32(1.0)
        return self.weight - self.weight / (one + freq * norm_inv)


def sum_term_scores(per_term_scores: list[np.ndarray]) -> np.ndarray:
    """Sum float32 per-term scores in float64, cast to float32.

    Mirrors Lucene DisjunctionSumScorer.score(): double accumulation of float
    sub-scores, final (float) cast.
    """
    acc = np.zeros(len(per_term_scores[0]), dtype=np.float64)
    for s in per_term_scores:
        acc += s.astype(np.float64)
    return acc.astype(np.float32)


# ---------------------------------------------------------------------------
# murmurhash3_x86_32 — Solr's doc router hash (HashBasedRouter.java:28-62)
# ---------------------------------------------------------------------------

_U32 = 0xFFFFFFFF


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _U32


def murmurhash3_x86_32(data: bytes, seed: int = 0) -> int:
    """Pure-Python murmur3 x86 32-bit; returns a signed int32 like Java.

    Solr routes a document to a shard by murmurhash3_x86_32(id bytes) mapped
    into the shard's hash range (reference HashBasedRouter.sliceHash /
    CompositeIdRouter). We expose the identical hash for parity; bulk
    partitioning paths may use any deterministic vectorized hash since
    placement affects only doc-id assignment, never scores.
    """
    c1, c2 = 0xCC9E2D51, 0x1B873593
    h1 = seed & _U32
    nblocks = len(data) // 4
    for i in range(nblocks):
        k1 = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k1 = (k1 * c1) & _U32
        k1 = _rotl32(k1, 15)
        k1 = (k1 * c2) & _U32
        h1 ^= k1
        h1 = _rotl32(h1, 13)
        h1 = (h1 * 5 + 0xE6546B64) & _U32
    tail = data[nblocks * 4 :]
    k1 = 0
    if len(tail) >= 3:
        k1 ^= tail[2] << 16
    if len(tail) >= 2:
        k1 ^= tail[1] << 8
    if len(tail) >= 1:
        k1 ^= tail[0]
        k1 = (k1 * c1) & _U32
        k1 = _rotl32(k1, 15)
        k1 = (k1 * c2) & _U32
        h1 ^= k1
    h1 ^= len(data)
    h1 ^= h1 >> 16
    h1 = (h1 * 0x85EBCA6B) & _U32
    h1 ^= h1 >> 13
    h1 = (h1 * 0xC2B2AE35) & _U32
    h1 ^= h1 >> 16
    return h1 - (1 << 32) if h1 >= (1 << 31) else h1


def bm25_f64_scores(
    tfs: np.ndarray, norms: np.ndarray, df: int, doc_count: int, avgdl: float
) -> np.ndarray:
    """The f64 RESCORING variant of BM25 (quantized SmallFloat doc lengths
    but DOUBLE arithmetic, k1=1.2 b=0.75), called only by
    ``bm25_f64_columns``; DuckDB mirrors these exact IEEE ops. The float32
    Lucene serving path stays in BM25Scorer."""
    import math

    qdl = LENGTH_TABLE[norms.astype(np.uint8)].astype(np.float64)
    idf_ = math.log(1 + (doc_count - df + 0.5) / (df + 0.5))
    tff = tfs.astype(np.float64)
    return idf_ * tff / (tff + 1.2 * (0.25 + 0.75 * qdl / avgdl))


def bm25_f64_columns(reader, terms) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-term f64 BM25 over a reader's live docs — the one builder behind
    every oracle-mirrorable rescoring path (the catalog's f64 top-k
    entries, LTR ``SolrFeature``). Returns ``(ids, cols)``: the engine doc
    ids holding any of ``terms``, ascending, and one float64 column per
    distinct term aligned to ``ids`` (0.0 where the term is absent).
    Callers sum columns in term order, as the SQL mirrors do."""
    avgdl = reader.sum_total_tf / reader.doc_count
    per_term: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for t in dict.fromkeys(terms):
        tp = reader.term_postings(t)
        if tp is None:
            per_term[t] = (np.zeros(0, np.int64), np.zeros(0, np.float64))
            continue
        docs, tfs, norms = tp.decode_all()
        alive = reader._alive(docs)
        if alive is not None:
            docs, tfs, norms = docs[alive], tfs[alive], norms[alive]
        per_term[t] = (docs, bm25_f64_scores(tfs, norms, tp.df, reader.doc_count, avgdl))
    ids = np.unique(np.concatenate([np.zeros(0, np.int64), *(d for d, _ in per_term.values())]))
    cols = {}
    for t, (docs, s) in per_term.items():
        cols[t] = np.zeros(len(ids), dtype=np.float64)
        cols[t][np.searchsorted(ids, docs)] = s
    return ids, cols
