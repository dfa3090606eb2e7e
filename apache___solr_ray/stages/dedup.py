"""Deduplication stages: exact, fuzzy-signature, MinHash-LSH, SimHash,
n-gram Jaccard, embedding near-dup.

Reference parity:
- exact content signatures <- ``SignatureUpdateProcessorFactory.java:43-67``
  with ``MD5Signature`` / ``Lookup3Signature`` (we use md5 hex; the
  signature field is the overwrite/dedup key, reference overwrite path
  ``DirectUpdateHandler2.java:453-530``);
- fuzzy signature <- ``TextProfileSignature.java:25-50`` (Nutch-style
  quantized term-frequency profile, algorithm from its javadoc);
- MinHash/LSH <- ``MinHashQParser.java`` + Lucene ``MinHashFilter``
  semantics, restated as the standard shingle→minhash→band→bucket-groupby
  pipeline (the training-data-scale dedup path);
- SimHash / n-gram Jaccard / embedding cosine near-dup: standard
  web-corpus dedup operators (public algorithms), included as first-class
  training-data-pipeline stages.

Scale notes: every stage is a ``map_batches`` transform; LSH candidate
generation shuffles (band_id, band_hash) — the only wide step — and
verification touches candidate pairs only. The brute-force pair helpers
are for oracle-checked small inputs and say so.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray.analyze import simple_tokenize

_HASH_KEY = "fedcba9876543210"
MERSENNE61 = (1 << 61) - 1


def _hash_strings(vals: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(np.asarray(vals, dtype=object), hash_key=_HASH_KEY, categorize=False)


# -- exact signatures --------------------------------------------------------


def content_signature(texts: list[str]) -> list[str]:
    """MD5 hex of the raw field bytes (MD5Signature semantics)."""
    return [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]


def add_signature(col: str, out: str = "signature"):
    def run(t: pa.Table) -> pa.Table:
        return t.append_column(out, pa.array(content_signature(t.column(col).to_pylist()), pa.string()))

    return run


def exact_dedup(ds, col: str, key_col: str):
    """Keep the row with the smallest key per identical `col` value —
    hash-partition by signature + per-group first (the reference's
    overwriteDupes behavior made deterministic for batch: min-key wins
    instead of last-write-wins, which has no meaning for immutable files)."""
    import pandas as pd  # noqa: F811

    from apache___solr_ray.pipelines.common import grouped_map

    ds = ds.map_batches(add_signature(col), batch_format="pyarrow")

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        # all groups of this hash partition in one vectorized pass
        return g.sort_values(key_col).groupby("signature", sort=False).head(1)

    return grouped_map(ds, "signature", keep_first)


# -- TextProfileSignature (fuzzy) -------------------------------------------


def text_profile_signature(text: str, min_token_len: int = 2, quant_rate: float = 0.01) -> str:
    """Nutch TextProfileSignature (algorithm per the reference javadoc,
    ``TextProfileSignature.java:25-50``): lowercase alphanumeric tokens,
    drop tokens shorter than min_token_len, count frequencies, quantize by
    ``quant = round(max_freq * quant_rate)`` (min 2 if max_freq > 1 else 1),
    drop tokens whose quantized count rounds to 0, sort by (count desc,
    token asc), md5 of the "token count token count ..." profile string."""
    toks = [t for t in simple_tokenize(text or "") if len(t) >= min_token_len]
    if not toks:
        return hashlib.md5(b"").hexdigest()
    freqs = Counter(toks)
    max_freq = max(freqs.values())
    quant = round(max_freq * quant_rate)
    if quant < 2:
        quant = 2 if max_freq > 1 else 1
    profile = []
    for tok, c in freqs.items():
        q = (c // quant) * quant
        if q > 0:
            profile.append((tok, q))
    profile.sort(key=lambda x: (-x[1], x[0]))
    s = " ".join(f"{t} {c}" for t, c in profile)
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def add_text_profile_signature(col: str, out: str = "profile_sig"):
    def run(t: pa.Table) -> pa.Table:
        vals = [text_profile_signature(x) for x in t.column(col).to_pylist()]
        return t.append_column(out, pa.array(vals, pa.string()))

    return run


# -- MinHash + LSH -----------------------------------------------------------


def _mulmod61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a * x) mod (2^61-1), fully vectorized in uint64.

    Uses 2^61 ≡ 1 (mod p): split both factors into 32-bit halves, reduce the
    cross terms with shifts. Inputs must already be < p.
    """
    p = np.uint64(MERSENNE61)
    a1, a0 = a >> np.uint64(32), a & np.uint64(0xFFFFFFFF)
    x1, x0 = x >> np.uint64(32), x & np.uint64(0xFFFFFFFF)
    # full product = a1x1*2^64 + (a1x0 + a0x1)*2^32 + a0x0
    m = a1 * x0 + a0 * x1                      # < 2^62, fits
    lo = a0 * x0                               # < 2^64, needs its own fold
    v = (
        (a1 * x1) * np.uint64(8)               # 2^64 ≡ 8 (mod p)
        + (m >> np.uint64(29))                 # m*2^32 = (m>>29)*2^61 + (m&..)*2^32
        + ((m & np.uint64((1 << 29) - 1)) << np.uint64(32))
        + (lo >> np.uint64(61))
        + (lo & p)
    )
    v = (v >> np.uint64(61)) + (v & p)
    v = np.where(v >= p, v - p, v)
    return v


class MinHasher:
    """k-permutation MinHash over word shingles. Stateful (the permutation
    parameters are built once) — use as an actor-pool ``map_batches`` class
    or embed in a closure. All modular arithmetic is vectorized uint64
    (Mersenne-61 fold), no Python bigints."""

    def __init__(self, num_hashes: int = 64, shingle: int = 3, seed: int = 1234567):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.k = num_hashes
        self.shingle = shingle
        self.a = rng.integers(1, MERSENNE61, num_hashes, dtype=np.uint64)
        self.b = rng.integers(0, MERSENNE61, num_hashes, dtype=np.uint64)

    def shingles(self, text: str) -> np.ndarray:
        toks = simple_tokenize(text or "")
        n = self.shingle
        if len(toks) < n:
            grams = [" ".join(toks)] if toks else [""]
        else:
            grams = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
        return np.unique(_hash_strings(np.asarray(grams, dtype=object)))

    def signatures_batch(self, texts: list[str]) -> np.ndarray:
        """-> (n_docs, k) uint64 signature matrix, one reduceat pass."""
        return self.signatures_from_sets([self.shingles(t) for t in texts])

    def signatures_from_sets(self, shingle_sets: list[np.ndarray]) -> np.ndarray:
        """Signatures from precomputed shingle-hash sets (the single-pass
        fused path: tokenize once, reuse the sets for exact verify)."""
        counts = np.fromiter((len(s) for s in shingle_sets), np.int64, len(shingle_sets))
        if counts.sum() == 0:
            return np.zeros((len(shingle_sets), self.k), dtype=np.uint64)
        flat = np.concatenate(shingle_sets) % np.uint64(MERSENNE61)
        # (n_shingles, k): a*x + b mod p
        hx = _mulmod61(self.a[None, :], flat[:, None]) + self.b[None, :]
        p = np.uint64(MERSENNE61)
        hx = np.where(hx >= p, hx - p, hx)
        starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        # empty docs would break reduceat; counts>=1 by shingles() contract
        return np.minimum.reduceat(hx, starts, axis=0)

    def signature(self, text: str) -> np.ndarray:
        return self.signatures_batch([text])[0]


def _fold_bands(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, k) signature matrix -> (n, bands) bucket keys: fold each band's
    rows with a multiplicative hash (vectorized; the key only needs to be a
    deterministic bucket id, not cryptographic)."""
    n, k = sigs.shape
    rows_per_band = k // bands
    folded = np.full((n, bands), 0x9E3779B97F4A7C15, dtype=np.uint64)
    for r in range(rows_per_band):
        folded = (folded * np.uint64(0x100000001B3)) ^ sigs[:, r::rows_per_band][:, :bands]
    return folded


def add_minhash_bands(col: str, id_col: str, num_hashes: int = 64, bands: int = 16, shingle: int = 3, seed: int = 1234567):
    """map_batches stage: one output row per (doc, band):
    (id, band, band_hash). Downstream: groupby(["band","band_hash"])."""

    class Stage:
        def __init__(self):
            self.mh = MinHasher(num_hashes, shingle, seed)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t.column(id_col).combine_chunks()
            sigs = self.mh.signatures_batch(t.column(col).to_pylist())  # (n, k)
            n = len(ids)
            folded = _fold_bands(sigs, bands)
            band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
            doc_idx = np.repeat(np.arange(n, dtype=np.int64), bands)
            return pa.table(
                {
                    id_col: ids.take(pa.array(doc_idx)),
                    "band": pa.array(band_ids),
                    "band_hash": pa.array(folded.reshape(-1)),
                }
            )

    return Stage


def minhash_token_bands_ds(
    ds,
    col: str,
    id_col: str,
    num_hashes: int = 64,
    bands: int = 16,
    shingle: int = 3,
    seed: int = 1234567,
):
    """SINGLE tokenization pass for the whole near-dup pipeline: one row per
    doc with BOTH the exact-verify payload and the LSH keys —
    ``(id, th: binary, bands: fixed_size_list<uint64>[bands])`` where ``th``
    is the sorted distinct shingle-hash set (uint64 LE bytes) and ``bands``
    the per-band bucket hashes folded from the MinHash signature of the SAME
    set. Materialized as an object-store checkpoint (spillable, never
    driver-side; ~8 B per distinct shingle + 8*bands B per doc — smaller
    than the raw text) so candidate generation and both verify joins read it
    zero-copy instead of re-tokenizing the corpus (this was 3 tokenize
    passes before).

    Similarity definition matches ``MinHasher.shingles``: a doc shorter than
    ``shingle`` tokens contributes its single joined gram (empty text ->
    the hash of ""), identical to ``shingle_hash_set`` for shingle>=2."""

    class Stage:
        def __init__(self):
            self.mh = MinHasher(num_hashes, shingle, seed)

        def __call__(self, t: pa.Table) -> pa.Table:
            sets = [self.mh.shingles(x) for x in t.column(col).to_pylist()]
            th = pa.array([s.tobytes() for s in sets], pa.binary())
            folded = _fold_bands(self.mh.signatures_from_sets(sets), bands)
            bl = pa.FixedSizeListArray.from_arrays(
                pa.array(folded.reshape(-1)), bands
            )
            return pa.table({id_col: t.column(id_col), "th": th, "bands": bl})

    return ds.map_batches(Stage, batch_format="pyarrow", concurrency=(1, 8)).materialize()


def explode_bands(combined_ds, id_col: str, bands: int):
    """(id, bands) -> one row per (doc, band): (id, band, band_hash) —
    zero-copy reshape of the fixed-size-list column, no re-tokenize."""

    def stage(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).combine_chunks()
        bl = t.column("bands").combine_chunks()
        flat = bl.flatten()
        n = len(ids)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), bands)
        band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
        return pa.table(
            {
                id_col: ids.take(pa.array(doc_idx)),
                "band": pa.array(band_ids),
                "band_hash": flat,
            }
        )

    return combined_ds.select_columns([id_col, "bands"]).map_batches(
        stage, batch_format="pyarrow"
    )


def banded_pairs_raw(banded, id_col: str, max_bucket: int = 1024):
    """Candidate pairs (a < b, MAY repeat across bands) from a
    (id, band, band_hash) dataset — one shuffle. The bucket walk is
    PARTITION-vectorized: rows hash-partition by ``band_hash``
    (``grouped_map``), each partition is scanned once with numpy
    boundary detection, and only buckets with >=2 members — a
    tiny fraction at web scale — reach Python; singleton buckets (the
    overwhelming majority) never trigger a per-group call. A pathological
    hot bucket (boilerplate pages) above ``max_bucket`` members emits a
    star to its min id (O(k) edges instead of O(k^2)); members of a hot
    bucket collide on a full band, so for dedup/connected-components the
    star preserves the cluster w.h.p."""
    import pandas as pd  # noqa: F811

    from apache___solr_ray.pipelines.common import grouped_map

    def emit_part(df: pd.DataFrame) -> pd.DataFrame:
        sub = df.drop_duplicates(["band", "band_hash", id_col]).sort_values(
            ["band", "band_hash", id_col], kind="mergesort"
        )
        empty = pd.DataFrame(
            {"a": np.array([], np.int64), "b": np.array([], np.int64)}
        )
        if len(sub) < 2:
            return empty
        bh = sub["band_hash"].to_numpy()
        bd = sub["band"].to_numpy()
        ids = sub[id_col].to_numpy()
        new = np.empty(len(sub), bool)
        new[0] = True
        new[1:] = (bh[1:] != bh[:-1]) | (bd[1:] != bd[:-1])
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(sub))
        sizes = ends - starts
        big = sizes >= 2
        out_a, out_b = [], []
        for s, e in zip(starts[big], ends[big]):
            grp = ids[s:e]
            if len(grp) > max_bucket:
                out_a.append(np.full(len(grp) - 1, grp[0]))
                out_b.append(grp[1:])
            else:
                iu, ju = np.triu_indices(len(grp), k=1)
                out_a.append(grp[iu])
                out_b.append(grp[ju])
        if not out_a:
            return empty
        return pd.DataFrame(
            {
                "a": np.concatenate(out_a).astype(np.int64),
                "b": np.concatenate(out_b).astype(np.int64),
            }
        )

    return grouped_map(banded, "band_hash", emit_part, num_parts=_default_join_partitions() * 4)


def banded_candidate_pairs(banded, id_col: str, max_bucket: int = 1024):
    """``banded_pairs_raw`` + distinct: keyed groupby with a C-level Count
    aggregate dedups pairs that collide in several bands — a
    boilerplate-heavy corpus can emit millions of duplicate candidates."""
    from ray.data.aggregate import Count

    return (
        banded_pairs_raw(banded, id_col, max_bucket)
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_nbands"))
        .select_columns(["a", "b"])
    )


def minhash_lsh_candidates(
    ds,
    col: str,
    id_col: str,
    num_hashes: int = 64,
    bands: int = 16,
    shingle: int = 3,
    max_bucket: int = 1024,
):
    """Full LSH pipeline: signatures -> band buckets -> candidate pairs
    (a < b), deduplicated. The groupby partitioned on band_hash is the only
    shuffle; see ``banded_candidate_pairs`` for the hot-bucket star cap and
    the partition-vectorized bucket walk."""
    Stage = add_minhash_bands(col, id_col, num_hashes, bands, shingle)
    banded = ds.map_batches(Stage, batch_format="pyarrow", concurrency=(1, 8))
    return banded_candidate_pairs(banded, id_col, max_bucket)


def _default_join_partitions() -> int:
    """Hash-join partition count sized to the cluster: each partition is
    one aggregator actor, and a pool much wider than the CPU count can
    deadlock a small local cluster (two 8-way joins = 16 actors on 4
    CPUs). ~CPUs/4, floor 2 — at real cluster sizes this grows with the
    machine."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(2, cpus // 4)


def shingle_hash_set(text: str, shingle: int = 1) -> np.ndarray:
    """Distinct shingle hashes of a doc (sorted uint64). ``shingle=1`` =
    the distinct-token set (empty text -> empty set); ``shingle>1`` uses
    exactly MinHasher.shingles' gram construction (a doc shorter than n
    tokens contributes its single joined gram), so MinHash estimates the
    same Jaccard this function computes exactly."""
    toks = simple_tokenize(text or "")
    if shingle <= 1:
        if not toks:
            return np.zeros(0, np.uint64)
        grams = toks
    elif len(toks) < shingle:
        grams = [" ".join(toks)] if toks else [""]
    else:
        grams = [" ".join(toks[i : i + shingle]) for i in range(len(toks) - shingle + 1)]
    return np.unique(_hash_strings(np.asarray(grams, dtype=object)))


def token_hash_ds(ds, col: str, id_col: str, shingle: int = 1):
    """Per-doc distinct shingle-hash set as a bytes payload (uint64 LE) —
    stays a Dataset (never materialized driver-side), joinable by id.
    Bytes because Acero's hash join can't carry list columns."""

    def stage(t: pa.Table) -> pa.Table:
        out = [
            shingle_hash_set(x, shingle).tobytes()
            for x in t.column(col).to_pylist()
        ]
        return pa.table({id_col: t.column(id_col), "th": pa.array(out, pa.binary())})

    return ds.map_batches(stage, batch_format="pyarrow")


def lsh_verified_pairs(
    ds,
    tok_ds=None,
    col: str = "text",
    id_col: str = "doc_id",
    threshold_num: int = 9,
    threshold_den: int = 10,
    num_hashes: int = 64,
    bands: int = 16,
    shingle: int = 1,
    max_bucket: int = 1024,
    num_partitions: int | None = None,
):
    """Scale path for exact-threshold near-dup pairs: MinHash/LSH candidate
    generation (band groupby), then EXACT token-set Jaccard verification of
    candidates only — two hash joins ship each candidate its two token
    sets, the check is integer-exact (``den*|A∩B| >= num*|A∪B|``), and no
    stage materializes the corpus driver-side. ``shingle`` controls the
    similarity definition for BOTH the MinHash estimate and the exact
    verify — n=1 = distinct-token sets, n≥2 = word shingles, matching
    ``jaccard_pairs_exact(shingle=n)``; recall at J≥0.9 with 16×4 banding
    is 1 - (1-J^4)^16 ≈ 1 - 4e-8.

    With ``tok_ds=None`` (the default, preferred path) the corpus is
    tokenized ONCE: ``minhash_token_bands_ds`` emits both the band keys and
    the token-hash payload from a single pass, and candidate generation +
    verification read that materialized checkpoint. When the raw candidate
    set is small (<= ``2M`` pairs AND the gathered payloads <= ~2 GB — the
    usual case: candidates are a sliver of the corpus), verification skips
    the two hash joins entirely: pairs dedup driver-side (bounded bytes,
    pairs only, never the corpus), the candidate ids' token payloads gather
    into ONE broadcast object (``ray.put`` once), and a single
    ``map_batches`` verifies — the small-side-broadcast pattern instead of
    an all-to-all exchange. Bigger candidate sets take the join path
    unchanged. Passing an explicit ``tok_ds`` (built with the same
    ``shingle``) keeps the legacy two-pass shape; note at shingle=1 the
    fused path hashes empty text to the {""} singleton (MinHash semantics)
    while ``token_hash_ds(shingle=1)`` yields the empty set."""
    import ray

    if tok_ds is None:
        combined = minhash_token_bands_ds(
            ds, col, id_col, num_hashes, bands, shingle
        )
        tok_ds = combined.select_columns([id_col, "th"])
        raw = banded_pairs_raw(
            explode_bands(combined, id_col, bands), id_col, max_bucket
        ).materialize()
        if raw.count() <= 2_000_000:
            blocks = [
                t
                for t in (ray.get(r) for r in raw.to_arrow_refs())
                if t.num_rows  # empty shuffle partitions carry no schema
            ]
            tbl = (
                pa.concat_tables(blocks).combine_chunks()
                if blocks
                else pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
            )
            if tbl.num_rows:
                ab = np.unique(
                    np.stack(
                        [tbl.column("a").to_numpy(), tbl.column("b").to_numpy()], 1
                    ),
                    axis=0,
                )
            else:
                ab = np.zeros((0, 2), np.int64)
            need = np.unique(ab)
            need_ref = ray.put(need)

            def gather(t: pa.Table) -> pa.Table:
                mask = np.isin(t.column(id_col).to_numpy(), ray.get(need_ref))
                return t.filter(pa.array(mask))

            small = tok_ds.map_batches(gather, batch_format="pyarrow").materialize()
            if small.size_bytes() <= 2_000_000_000:
                th_map: dict[int, bytes] = {}
                for b in small.iter_batches(batch_format="pyarrow"):
                    for i, v in zip(
                        b.column(id_col).to_pylist(), b.column("th").to_pylist()
                    ):
                        th_map[int(i)] = v
                th_ref = ray.put(th_map)
                import ray.data as rd

                pairs_ds = rd.from_arrow(
                    pa.table(
                        {
                            "a": pa.array(ab[:, 0], pa.int64()),
                            "b": pa.array(ab[:, 1], pa.int64()),
                        }
                    )
                )

                def verify_bcast(t: pa.Table) -> pa.Table:
                    m = ray.get(th_ref)
                    av = t.column("a").to_pylist()
                    bv = t.column("b").to_pylist()
                    return _verify_table(
                        av,
                        bv,
                        [m[int(x)] for x in av],
                        [m[int(x)] for x in bv],
                        threshold_num,
                        threshold_den,
                    )

                return pairs_ds.map_batches(verify_bcast, batch_format="pyarrow")
        # big candidate set: distinct via groupby, then the join path
        from ray.data.aggregate import Count

        cand = (
            raw.groupby(["a", "b"])
            .aggregate(Count(alias_name="_nbands"))
            .select_columns(["a", "b"])
        )
    else:
        cand = minhash_lsh_candidates(
            ds, col, id_col, num_hashes, bands, shingle, max_bucket
        )
    if num_partitions is None:
        num_partitions = _default_join_partitions()

    def _rename_th(suffix):
        def run(t: pa.Table) -> pa.Table:
            i = t.column_names.index("th")
            return t.set_column(i, f"th{suffix}", t.column("th"))

        return run

    from apache___solr_ray.pipelines.common import native_join

    j = native_join(
        cand, tok_ds, "inner", num_partitions, on=("a",), right_on=(id_col,)
    ).map_batches(_rename_th("_a"), batch_format="pyarrow")
    j = native_join(j, tok_ds, "inner", num_partitions, on=("b",), right_on=(id_col,))

    def verify(t: pa.Table) -> pa.Table:
        return _verify_table(
            t.column("a").to_pylist(),
            t.column("b").to_pylist(),
            t.column("th_a").to_pylist(),
            t.column("th").to_pylist(),
            threshold_num,
            threshold_den,
        )

    return j.map_batches(verify, batch_format="pyarrow")


def _verify_table(av, bv, th_a, th_b, threshold_num: int, threshold_den: int) -> pa.Table:
    """Integer-exact Jaccard check of candidate pairs given their
    shingle-hash payloads (uint64 LE bytes): keep where
    ``den*|A∩B| >= num*|A∪B|``."""
    a_out, b_out, inter_out, union_out = [], [], [], []
    for ai, bi, ra, rb in zip(av, bv, th_a, th_b):
        ha = np.frombuffer(ra, dtype=np.uint64)
        hb = np.frombuffer(rb, dtype=np.uint64)
        inter = len(np.intersect1d(ha, hb, assume_unique=True))
        union = len(ha) + len(hb) - inter
        if union > 0 and threshold_den * inter >= threshold_num * union:
            a_out.append(ai)
            b_out.append(bi)
            inter_out.append(inter)
            union_out.append(union)
    return pa.table(
        {
            "a": pa.array(a_out, pa.int64()),
            "b": pa.array(b_out, pa.int64()),
            "n_inter": pa.array(inter_out, pa.int64()),
            "n_union": pa.array(union_out, pa.int64()),
        }
    )


# -- SimHash -----------------------------------------------------------------


def simhash64(text: str) -> int:
    """64-bit SimHash: tf-weighted bit votes of token hashes."""
    toks = simple_tokenize(text or "")
    if not toks:
        return 0
    freqs = Counter(toks)
    terms = np.asarray(list(freqs.keys()), dtype=object)
    w = np.asarray(list(freqs.values()), dtype=np.int64)
    h = _hash_strings(terms)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
    votes = (w[:, None] * (2 * bits - 1)).sum(axis=0)
    out = np.uint64(0)
    for i in np.flatnonzero(votes > 0):
        out |= np.uint64(1) << np.uint64(i)
    return int(out)


def add_simhash(col: str, out: str = "simhash"):
    def run(t: pa.Table) -> pa.Table:
        vals = [simhash64(x) for x in t.column(col).to_pylist()]
        return t.append_column(out, pa.array(np.array(vals, dtype=np.uint64)))

    return run


# -- exact n-gram Jaccard (integer-exact, oracle-checkable) ------------------


def token_set_table(ds, col: str, id_col: str) -> pa.Table:
    """Distinct-token table per doc (id, tokens sorted list) — small result."""
    def stage(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        toks = [sorted(set(simple_tokenize(x))) for x in t.column(col).to_pylist()]
        return pa.table({id_col: pa.array(ids), "tokens": pa.array(toks, pa.list_(pa.string()))})

    import pyarrow as pa2

    tables = ds.map_batches(stage, batch_format="pyarrow").to_arrow_refs()
    import ray

    return pa2.concat_tables([ray.get(r) for r in tables])


#: row guards for the declared-brute baselines (mirrors streamexpr's
#: HASHED_SIDE_MAX contract guard): above these, refuse instead of
#: silently running a quadratic plan
JACCARD_EXACT_MAX = 50_000
EMBED_ALLPAIRS_MAX = 200_000


def jaccard_pairs_exact(
    ds,
    col: str,
    id_col: str,
    threshold_num: int = 4,
    threshold_den: int = 5,
    shingle: int = 1,
):
    """All pairs with shingle-set Jaccard >= num/den, compared in integers
    (``den * |A∩B| >= num * |A∪B|``) so the oracle SQL matches bit-exactly.
    ``shingle=1`` = distinct-token sets; larger n = word shingles (the
    metric MinHash dedup actually uses).

    Brute-force O(n^2) over a broadcast shingle-set table — the
    oracle-checked small-scale variant; at corpus scale
    ``lsh_verified_pairs`` prefilters and verifies candidates only.
    Guarded: raises above ``JACCARD_EXACT_MAX`` rows (the whole text
    column would land on the driver and the pair loop is quadratic).
    """
    import ray

    src = ds.select_columns([id_col, col]).materialize()
    n = src.count()
    if n > JACCARD_EXACT_MAX:
        raise ValueError(
            f"jaccard_pairs_exact: {n} rows > JACCARD_EXACT_MAX "
            f"({JACCARD_EXACT_MAX}) — this is the O(n^2) oracle baseline; "
            "use lsh_verified_pairs (MinHash banding + candidate-only "
            "verification) for corpus-scale near-dup"
        )
    rows = src.take_all()
    rows.sort(key=lambda r: r[id_col])
    ids = [r[id_col] for r in rows]
    hashed = [shingle_hash_set(r[col], shingle) for r in rows]
    ref = ray.put((ids, hashed))

    import ray.data as rd

    idx_ds = rd.from_items([{"i": i} for i in range(len(ids))])

    def pair_stage(t: pa.Table) -> pa.Table:
        ids_, hashed_ = ray.get(ref)
        a_out, b_out, inter_out, union_out = [], [], [], []
        for i in t.column("i").to_pylist():
            hi = hashed_[i]
            for j in range(i + 1, len(ids_)):
                hj = hashed_[j]
                inter = len(np.intersect1d(hi, hj, assume_unique=True))
                union = len(hi) + len(hj) - inter
                if union > 0 and threshold_den * inter >= threshold_num * union:
                    a_out.append(ids_[i])
                    b_out.append(ids_[j])
                    inter_out.append(inter)
                    union_out.append(union)
        return pa.table(
            {
                "a": pa.array(a_out, pa.int64()),
                "b": pa.array(b_out, pa.int64()),
                "n_inter": pa.array(inter_out, pa.int64()),
                "n_union": pa.array(union_out, pa.int64()),
            }
        )

    return idx_ds.map_batches(pair_stage, batch_format="pyarrow")


# -- embedding near-dup ------------------------------------------------------


def _normalized_embeddings(ds, emb_col: str, id_col: str):
    """(id, _e) with unit-norm float64 vectors, materialized into the
    object store (spillable; never the driver heap)."""

    def normalize(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy().astype(np.int64)
        E = np.array(t.column(emb_col).to_pylist(), dtype=np.float64)
        if len(E):
            E = E / np.maximum(1e-12, np.linalg.norm(E, axis=1, keepdims=True))
        return pa.table(
            {
                id_col: pa.array(ids),
                "_e": pa.array(list(E), pa.list_(pa.float64())),
            }
        )

    return (
        ds.select_columns([id_col, emb_col])
        .map_batches(normalize, batch_format="pyarrow")
        .materialize()
    )


def embedding_near_dup_pairs(
    ds,
    emb_col: str,
    id_col: str,
    threshold: float = 0.4,
    mode: str = "auto",
    n_centroids: int | None = None,
    seed: int = 271828,
):
    """Pairs (a < b) with cosine >= threshold. EXACT under every mode.

    ``mode``:
    - ``"auto"`` (default): plan-time choice. A cheap pass fits k coarse
      centroids, measures each bucket's radius, and ESTIMATES the
      candidate-pair count of the exact ball-cover bucketing below. If
      bucketing prunes (estimate < half of brute), run it; otherwise —
      which happens when the threshold radius exceeds the data's cluster
      geometry, e.g. cosine 0.4 over quasi-random vectors, where NO
      metric pruning can work — fall back to the block-pair plan.
    - ``"bucketed"``: force the ball-cover IVF plan (exact: a pair within
      distance r is always co-located in the home bucket of one side,
      because d(p, c(q)) <= d(p,q) + d(q, c(q)) <= r + R(c(q))).
    - ``"allpairs"``: force the block-pair plan; refuses above
      ``EMBED_ALLPAIRS_MAX`` rows (O(n^2) compute is the scale-killer —
      use a higher threshold, where bucketing prunes, or the LSH/IVF
      top-k paths in pipelines/similarity.py).

    Partitioning assumption (bucketed plan): bucket ids are the shuffle
    key; one bucket's home x candidate matmul must fit a worker — at
    corpus scale grow ``n_centroids`` with n so bucket membership stays
    bounded (the same segment-count-grows-with-corpus rule the HNSW/IVF
    indexes use)."""
    norm = _normalized_embeddings(ds, emb_col, id_col)
    n = norm.count()
    if mode not in ("auto", "bucketed", "allpairs"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "bucketed":
        return _embedding_pairs_bucketed(norm, id_col, threshold, n, n_centroids, seed)
    if mode == "auto" and n >= 64:
        plan = _ball_cover_plan(norm, id_col, threshold, n, n_centroids, seed)
        if plan is not None:
            return _bucketed_pairs_from_plan(norm, id_col, threshold, *plan)
    return _embedding_pairs_allpairs(norm, id_col, threshold, n)


def _embedding_pairs_allpairs(norm, id_col: str, threshold: float, n: int):
    """Distributed block-pair all-pairs: one task per ordered block pair
    (i <= j) fetches exactly its two object-store blocks and emits its
    threshold-crossing pairs vectorized (one matmul per task). Exact by
    construction; compute is inherently O(n^2), hence the row guard."""
    import ray
    import ray.data as rd

    if n > EMBED_ALLPAIRS_MAX:
        raise ValueError(
            f"embedding all-pairs: {n} rows > EMBED_ALLPAIRS_MAX "
            f"({EMBED_ALLPAIRS_MAX}) — O(n^2) compute; raise the threshold "
            "so the bucketed plan prunes, or use the LSH/IVF paths in "
            "pipelines/similarity.py"
        )
    blocks = norm.to_arrow_refs()
    n_blocks = len(blocks)
    refs_ref = ray.put(blocks)

    pair_tasks = rd.from_items(
        [{"i": i, "j": j} for i in range(n_blocks) for j in range(i, n_blocks)]
    )

    def compare(t: pa.Table, _refs=refs_ref, _id=id_col, _th=threshold) -> pa.Table:
        refs = ray.get(_refs)
        a_out, b_out, sims = [], [], []
        for bi in range(t.num_rows):
            i = int(t.column("i")[bi].as_py())
            j = int(t.column("j")[bi].as_py())
            ti, tj = ray.get(refs[i]), ray.get(refs[j])
            ids_i = ti.column(_id).to_numpy()
            ids_j = tj.column(_id).to_numpy()
            Ei = np.array(ti.column("_e").to_pylist(), dtype=np.float64)
            Ej = np.array(tj.column("_e").to_pylist(), dtype=np.float64)
            if len(Ei) == 0 or len(Ej) == 0:
                continue
            S = Ei @ Ej.T
            r_idx, c_idx = np.nonzero(S >= _th)
            ia, ib = ids_i[r_idx], ids_j[c_idx]
            vals = S[r_idx, c_idx]
            keep = ia < ib  # canonical a<b; also drops self-pairs
            a_out.append(ia[keep])
            b_out.append(ib[keep])
            sims.append(vals[keep])
            if i != j:
                # ids are not globally sorted across blocks: pairs whose
                # larger id sits in block i surface here too
                keep2 = ib < ia
                a_out.append(ib[keep2])
                b_out.append(ia[keep2])
                sims.append(vals[keep2])
        if not a_out:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "a": pa.array(np.concatenate(a_out), pa.int64()),
                "b": pa.array(np.concatenate(b_out), pa.int64()),
                "cosine": pa.array(
                    np.round(np.concatenate(sims).astype(np.float64), 6)
                ),
            }
        )

    return pair_tasks.map_batches(compare, batch_format="pyarrow", batch_size=4)


def _kmeans_centroids(X: np.ndarray, k: int, seed: int, iters: int = 8) -> np.ndarray:
    """Small deterministic Lloyd's k-means over a driver-side SAMPLE (the
    coarse quantizer; same role as the IVF trainer in ann.py). Unit-norm
    input and output, so nearest-by-cosine == nearest-by-distance."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = min(k, len(X))
    C = X[rng.choice(len(X), k, replace=False)].copy()
    for _ in range(iters):
        a = np.argmax(X @ C.T, axis=1)
        for j in range(k):
            m = a == j
            if m.any():
                c = X[m].mean(axis=0)
                C[j] = c / max(1e-12, np.linalg.norm(c))
    return C


def _ball_cover_plan(norm, id_col, threshold, n, n_centroids, seed):
    """Plan-time ball-cover statistics. Returns (centroids_ref, radii) if
    the bucketed plan's ESTIMATED candidate-pair count beats half of
    brute, else None (no metric pruning possible at this threshold on
    this data — the planner falls back to block-pair).

    Cost: one k-means over a bounded sample + two linear passes emitting
    k-sized partials (k = O(sqrt n) centroids) — no shuffle."""
    import ray

    k = n_centroids or max(4, min(4096, int(np.sqrt(n))))
    r = float(np.sqrt(max(0.0, 2.0 - 2.0 * threshold)))
    samp = norm.limit(max(2048, 8 * k)).to_pandas()
    X = np.stack(samp["_e"].to_numpy())
    C = _kmeans_centroids(X, k, seed)
    k = len(C)
    cref = ray.put(C)

    # pass 1: per-centroid home counts + home radius R(c) (k-sized partials)
    def radius_partial(t: pa.Table, _c=cref) -> pa.Table:
        Cl = ray.get(_c)
        E = np.array(t.column("_e").to_pylist(), dtype=np.float64)
        if not len(E):
            z = np.zeros(len(Cl))
            return pa.table({"c": pa.array(np.arange(len(Cl))), "rmax": pa.array(z), "nh": pa.array(np.zeros(len(Cl), np.int64))})
        D = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * (E @ Cl.T)))
        home = np.argmin(D, axis=1)
        hd = D[np.arange(len(E)), home]
        rmax = np.zeros(len(Cl))
        nh = np.zeros(len(Cl), np.int64)
        np.maximum.at(rmax, home, hd)
        np.add.at(nh, home, 1)
        return pa.table({"c": pa.array(np.arange(len(Cl))), "rmax": pa.array(rmax), "nh": pa.array(nh)})

    p1 = norm.map_batches(radius_partial, batch_format="pyarrow").to_pandas()
    g = p1.groupby("c").agg(rmax=("rmax", "max"), nh=("nh", "sum"))
    R = g["rmax"].to_numpy()
    home_n = g["nh"].to_numpy()

    # pass 2: per-centroid candidate counts under the exact cover rule
    # d(p, c) <= r + R(c)
    rr = ray.put(R)

    def cand_partial(t: pa.Table, _c=cref, _r=rr) -> pa.Table:
        Cl, Rl = ray.get(_c), ray.get(_r)
        E = np.array(t.column("_e").to_pylist(), dtype=np.float64)
        if not len(E):
            nc = np.zeros(len(Cl), np.int64)
        else:
            D = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * (E @ Cl.T)))
            nc = (D <= (r + Rl[None, :])).sum(axis=0).astype(np.int64)
        return pa.table({"c": pa.array(np.arange(len(Cl))), "nc": pa.array(nc)})

    p2 = norm.map_batches(cand_partial, batch_format="pyarrow").to_pandas()
    cand_n = p2.groupby("c")["nc"].sum().to_numpy()

    est_pairs = float((home_n * cand_n).sum())
    brute_pairs = n * (n - 1) / 2.0
    if est_pairs >= 0.5 * brute_pairs:
        return None
    return cref, rr, r


def _bucketed_pairs_from_plan(norm, id_col, threshold, cref, rref, r):
    """Execute the exact ball-cover plan: explode each point into its home
    bucket (flagged) plus every bucket whose ball it could pair into;
    hash-partition by bucket id; one home x all matmul per bucket; global
    (a, b) dedup groupby (a pair can surface in both sides' home buckets)."""
    import ray

    from apache___solr_ray.pipelines.common import grouped_map

    def explode(t: pa.Table, _c=cref, _r=rref) -> pa.Table:
        Cl, Rl = ray.get(_c), ray.get(_r)
        ids = t.column(id_col).to_numpy()
        E = np.array(t.column("_e").to_pylist(), dtype=np.float64)
        if not len(E):
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "_h": pa.array([], pa.bool_()),
                    id_col: pa.array([], pa.int64()),
                    "_e": pa.array([], pa.list_(pa.float64())),
                }
            )
        D = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * (E @ Cl.T)))
        home = np.argmin(D, axis=1)
        cand = D <= (r + Rl[None, :])
        rows_i, buckets = np.nonzero(cand)
        is_home = home[rows_i] == buckets
        return pa.table(
            {
                "bucket": pa.array(buckets.astype(np.int64)),
                "_h": pa.array(is_home),
                id_col: pa.array(ids[rows_i].astype(np.int64)),
                "_e": pa.array([E[i].tolist() for i in rows_i], pa.list_(pa.float64())),
            }
        )

    exploded = norm.map_batches(explode, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, gdf in df.groupby("bucket", sort=False):
            hm = gdf["_h"].to_numpy(dtype=bool)
            if not hm.any():
                continue
            ids = gdf[id_col].to_numpy()
            E = np.stack(gdf["_e"].to_numpy())
            S = E[hm] @ E.T
            ri, ci = np.nonzero(S >= threshold)
            ia, ib = ids[hm][ri], ids[ci]
            keep = ia != ib
            a = np.minimum(ia[keep], ib[keep])
            b = np.maximum(ia[keep], ib[keep])
            outs.append(
                pd.DataFrame(
                    {"a": a, "b": b, "cosine": np.round(S[ri, ci][keep], 6)}
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype="int64"),
                    "b": pd.Series([], dtype="int64"),
                    "cosine": pd.Series([], dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    pairs = grouped_map(exploded, "bucket", bucket_pairs)
    from ray.data.aggregate import Max

    out = pairs.groupby(["a", "b"]).aggregate(Max("cosine", alias_name="cosine"))
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )

    def fin(t: pa.Table, _e=empty) -> pa.Table:
        # empty groupby output loses its schema (Ray 2.49) — re-type it
        return _e if t.num_rows == 0 else t.select(["a", "b", "cosine"])

    import ray

    # the union guarantees the output schema even when zero blocks flow
    return out.map_batches(fin, batch_format="pyarrow").union(
        ray.data.from_arrow(empty)
    )


def _embedding_pairs_bucketed(norm, id_col, threshold, n, n_centroids, seed):
    plan = _ball_cover_plan(norm, id_col, threshold, n, n_centroids, seed)
    if plan is None:
        # caller forced the bucketed plan; run it even though the planner
        # estimates no pruning (still exact, used by the parity tests)
        import ray

        k = n_centroids or max(4, min(4096, int(np.sqrt(n))))
        r = float(np.sqrt(max(0.0, 2.0 - 2.0 * threshold)))
        samp = norm.limit(max(2048, 8 * k)).to_pandas()
        C = _kmeans_centroids(np.stack(samp["_e"].to_numpy()), k, seed)
        cref = ray.put(C)
        p1 = norm.map_batches(
            _radius_partial_fn(cref), batch_format="pyarrow"
        ).to_pandas()
        R = p1.groupby("c")["rmax"].max().to_numpy()
        plan = (cref, ray.put(R), r)
    return _bucketed_pairs_from_plan(norm, id_col, threshold, *plan)


def _radius_partial_fn(cref):
    import ray

    def radius_partial(t: pa.Table) -> pa.Table:
        Cl = ray.get(cref)
        E = np.array(t.column("_e").to_pylist(), dtype=np.float64)
        if not len(E):
            return pa.table(
                {"c": pa.array(np.arange(len(Cl))), "rmax": pa.array(np.zeros(len(Cl)))}
            )
        D = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * (E @ Cl.T)))
        home = np.argmin(D, axis=1)
        hd = D[np.arange(len(E)), home]
        rmax = np.zeros(len(Cl))
        np.maximum.at(rmax, home, hd)
        return pa.table({"c": pa.array(np.arange(len(Cl))), "rmax": pa.array(rmax)})

    return radius_partial


# -- exact-substring (k-token span) duplication ------------------------------
#
# The "exact substring dedup" operator from web-scale training pipelines
# (Lee et al. 2022, "Deduplicating Training Data Makes Language Models
# Better": any >= k-token span appearing more than once in the corpus is a
# duplicate span). Reference analog: the MinHashFilter/shingle machinery
# (solr/modules/analysis-extras MinHashFilterFactory; ShingleFilter) applied
# corpus-wide. Distributed shape: every k-token window becomes a 64-bit
# rolling hash, windows pre-aggregate per (gram, doc) inside each batch,
# global window counts attach via ONE gram-hash shuffle (grouped_map — the
# doc_unigram_logprob cogroup shape, no vocabulary broadcast), and per-doc
# results reduce with (sum, sum) partials. Shuffle rows shrink by the
# within-doc repetition factor and each gram ships as 8 bytes, never the
# k-token string.


def kgram_window_counts(col: str, id_col: str, k: int = 8):
    """map_batches stage: (gh, doc_id, c) — c = occurrences of the k-token
    window with rolling hash ``gh`` inside the doc. Fully vectorized: the
    batch's tokens are flattened into one array, hashed once, and the
    k-window polynomial hash is k numpy shifts over the flat array (window
    start positions are generated per doc, so no window crosses a doc
    boundary)."""

    def stage(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        tok_lists = [simple_tokenize(x or "") for x in t.column(col).to_pylist()]
        lens = np.fromiter(
            (len(x) for x in tok_lists), dtype=np.int64, count=len(tok_lists)
        )
        m = np.maximum(lens - k + 1, 0)  # windows per doc
        W = int(m.sum())
        empty = pa.table(
            {
                "gh": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
            }
        )
        if W == 0:
            return empty
        flat = np.concatenate(
            [np.asarray(x, dtype=object) for x in tok_lists if x]
        )
        th = _hash_strings(flat)  # uint64, vectorized
        n = th.size
        acc = th[: n - k + 1].copy()
        B = np.uint64(1099511628211)  # FNV prime; wraps mod 2^64
        for j in range(1, k):
            acc = acc * B + th[j : n - k + 1 + j]
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        doc_idx = np.repeat(np.arange(len(lens)), m)
        within = np.arange(W) - np.repeat(np.cumsum(m) - m, m)
        gh = acc[offsets[doc_idx] + within].view(np.int64)
        df = pd.DataFrame({"gh": gh, id_col: ids[doc_idx]})
        g = df.groupby(["gh", id_col], sort=False).size().reset_index(name="c")
        return pa.table(
            {
                "gh": pa.array(g["gh"].to_numpy()),
                id_col: pa.array(g[id_col].to_numpy(), pa.int64()),
                "c": pa.array(g["c"].to_numpy(), pa.int64()),
            }
        )

    return stage


def exact_substring_dup_stats(ds, col: str, id_col: str, k: int = 8):
    """Per-doc exact-substring duplication stats: ``n_windows`` (k-token
    windows in the doc) and ``n_dup_windows`` (windows whose exact token
    span occurs >= 2 times corpus-wide, counting all positions — the Lee
    et al. duplicate-span criterion, which includes within-doc repeats).

    One gram-hash shuffle total: the global count of a gram and the rows
    that need it land in the same hash partition, so the attach is a
    pandas ``transform('sum')`` inside ``grouped_map`` — no join, no
    broadcast, no driver materialization. 64-bit gram hashes stand in for
    gram strings (collision odds ~W^2/2^65 — negligible below ~10^8
    windows per verification scope; at larger scale add the gram length
    to the key)."""
    from ray.data.aggregate import Sum

    from apache___solr_ray.pipelines.common import combine_partials, grouped_map

    wc = ds.map_batches(kgram_window_counts(col, id_col, k), batch_format="pyarrow")

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("gh")["c"].transform("sum").to_numpy()
        c = df["c"].to_numpy()
        g = df.assign(dup=np.where(tot >= 2, c, 0)).groupby(id_col, sort=False)
        return pd.DataFrame(
            {"n_windows": g["c"].sum(), "n_dup_windows": g["dup"].sum()}
        ).reset_index()

    parts = grouped_map(wc, "gh", attach)
    return combine_partials(
        parts,
        [id_col],
        [
            Sum("n_windows", alias_name="n_windows"),
            Sum("n_dup_windows", alias_name="n_dup_windows"),
        ],
        sum_cols=["n_windows", "n_dup_windows"],
    )
