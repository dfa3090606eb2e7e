"""Text-analysis + dedup pipelines over ``documents`` — the URP / signature
/ terms-component surface (SURVEY §2.2, §2.7) plus the training-data dedup
operators.

SQL-checked entries use the simple ``[a-z0-9]+`` tokenizer whose semantics
DuckDB can express exactly (``analyze.simple_tokenize``); the UAX#29 chain
is conformance-tested against goldens in pytest instead.
"""

from __future__ import annotations

import os
import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray.analyze import simple_tokenize
from apache___solr_ray.sources import load
from apache___solr_ray.stages.dedup import (
    add_signature,
    add_simhash,
    add_text_profile_signature,
    jaccard_pairs_exact,
    minhash_lsh_candidates,
)
from apache___solr_ray.stages.multimodal import FakeImageDecoder
from apache___solr_ray.stages.textstats import LangIdStage, fingerprint_md5, quality_features

QUERIES: dict = {}
ORACLE: dict = {}

#: DuckDB fragment for the shared tokenizer
_TOKS = "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')"


def q(name: str, sql: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLE[name] = sql
        return fn

    return deco


def _term_tuples(t: pa.Table) -> pa.Table:
    """Explode (doc_id, term, tf) with the simple tokenizer — the
    CartesianProductStream-style unnest feeding term aggregates. Same
    dictionary-encode + combined-key unique aggregation as the production
    analyzer batch path (analyze.Analyzer.term_freqs): per-doc C-regex
    findall, then no Python loops over tokens."""
    from apache___solr_ray.analyze import SIMPLE_TOKEN_RE

    ids = t.column("doc_id").to_numpy()
    flat: list[str] = []
    counts = np.empty(t.num_rows, dtype=np.int64)
    findall = SIMPLE_TOKEN_RE.findall
    for i, text in enumerate(t.column("text").to_pylist()):
        toks = findall((text or "").lower())
        counts[i] = len(toks)
        flat += toks
    if not flat:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
            }
        )
    denc = pc.dictionary_encode(pa.array(flat, pa.string()))
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nvocab = len(denc.dictionary)
    doc_of_token = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    key = doc_of_token * nvocab + codes
    uniq, tf = np.unique(key, return_counts=True)
    return pa.table(
        {
            "doc_id": pa.array(ids[uniq // nvocab], pa.int64()),
            "term": pc.take(denc.dictionary, pa.array(uniq % nvocab)),
            "tf": pa.array(tf.astype(np.int64)),
        }
    )


@q(
    "term_df",
    f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
    SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
    FROM toks GROUP BY term HAVING count(DISTINCT doc_id) >= 5
    """,
)
def term_df(sf_dir: str):
    """Term dictionary stats (TermsComponent / df-ttf aggregate): explode to
    (doc, term, tf) then one groupby — the same shuffle shape as the index
    build's phase B."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    # (doc,term) pairs are unique within a batch and docs never split
    # across batches, so the per-batch row count per term sums to df
    out = partial_sum_count(
        ds.map_batches(_term_tuples, batch_format="pyarrow"),
        "term",
        [("tf", "ttf")],
        count_alias="df",
    )
    return out.map_batches(lambda t: t.filter(pc.greater_equal(t.column("df"), 5)), batch_format="pyarrow")


#: GPT-2-style pre-tokenizer, ASCII-simplified so Arrow's RE2 and
#: DuckDB's RE2 compile the IDENTICAL pattern: contractions, space-glued
#: letter runs, digit runs, punctuation runs, whitespace
_BPE_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"


@q(
    "token_count_bpe",
    f"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '{_BPE_RE.replace("'", "''")}')) AS BIGINT) AS n_bpe,
           CAST(len({_TOKS}) AS BIGINT) AS n_ws
    FROM documents
    """,
)
def token_count_bpe(sf_dir: str):
    """LLM-pipeline token counting (task brief: "whitespace + a BPE-ish
    regex"): per-doc token counts under a GPT-2-style pre-tokenizer regex
    plus the whitespace tokenization, both fully vectorized —
    ``pc.count_substring_regex`` runs RE2 in C over the whole batch, the
    same engine DuckDB's ``regexp_extract_all`` uses, so counts agree
    exactly. The BPE-merge step itself is vocabulary-dependent (ships
    with a model, not an engine); the pre-tokenizer count is the
    corpus-statistics number training pipelines budget with."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def stage(t: pa.Table) -> pa.Table:
        txt = t.column("text").combine_chunks()
        n_bpe = pc.count_substring_regex(txt, _BPE_RE)
        n_ws = pa.array(
            [len(simple_tokenize(x or "")) for x in txt.to_pylist()], pa.int64()
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_bpe": pc.cast(n_bpe, pa.int64()),
                "n_ws": n_ws,
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


@q(
    "token_stats_per_doc",
    f"""
    SELECT doc_id, len({_TOKS}) AS n_tokens, len(list_distinct({_TOKS})) AS n_unique
    FROM documents
    """,
)
def token_stats_per_doc(sf_dir: str):
    """Token counting (FieldLength/CountFieldValues URP analog)."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def stage(t: pa.Table) -> pa.Table:
        n_tok, n_uni = [], []
        for text in t.column("text").to_pylist():
            toks = simple_tokenize(text or "")
            n_tok.append(len(toks))
            n_uni.append(len(set(toks)))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_unique": pa.array(n_uni, pa.int64()),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


@q(
    "doc_quality",
    f"""
    WITH t AS (
      SELECT doc_id, length(text) AS n_chars_q, len({_TOKS}) AS n_tokens,
             length(regexp_replace(lower(text), '[^a-z0-9]', '', 'g')) AS alnum,
             length(regexp_replace(text, '[^0-9]', '', 'g')) AS digits
      FROM documents)
    SELECT doc_id, n_chars_q, n_tokens,
           floor((alnum * 1.0 / greatest(n_tokens, 1)) * 10000 + 0.5) / 10000.0 AS mean_token_len,
           floor((digits * 1.0 / greatest(n_chars_q, 1)) * 10000 + 0.5) / 10000.0 AS digit_ratio
    FROM t
    """,
)
def doc_quality(sf_dir: str):
    """Quality scoring stage output (subset with exact SQL mirror)."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(quality_features("text"), batch_format="pyarrow")

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars_q": t.column("n_chars_q"),
                "n_tokens": t.column("n_tokens"),
                "mean_token_len": t.column("mean_token_len"),
                "digit_ratio": t.column("digit_ratio"),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


@q("lang_distribution", "SELECT lang, count(*) AS n FROM documents GROUP BY lang")
def lang_distribution(sf_dir: str):
    from ray.data.aggregate import Count

    return load(sf_dir, "documents", columns=["lang"]).groupby("lang").aggregate(Count(alias_name="n"))


@q(
    "exact_dedup_signatures",
    "SELECT md5(text) AS signature, count(*) AS n_docs, min(doc_id) AS min_doc_id FROM documents GROUP BY md5(text)",
)
def exact_dedup_signatures(sf_dir: str):
    """SignatureUpdateProcessor (MD5Signature) dedup groups."""
    from ray.data.aggregate import Count, Min

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(add_signature("text"), batch_format="pyarrow")
    return ds.groupby("signature").aggregate(
        Count(alias_name="n_docs"), Min("doc_id", alias_name="min_doc_id")
    )


@q("dedup_keep_first", "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text")
def dedup_keep_first(sf_dir: str):
    """Exact dedup keeping the smallest key per content group (the batch
    form of overwriteDupes, reference DirectUpdateHandler2.java:453-530)."""
    from apache___solr_ray.stages.dedup import exact_dedup

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = exact_dedup(ds, "text", "doc_id")
    return out.select_columns(["doc_id"])


@q(
    "fingerprint_docs",
    f"SELECT doc_id, md5(array_to_string({_TOKS}, ' ')) AS fingerprint FROM documents",
)
def fingerprint_docs(sf_dir: str):
    """Document fingerprinting over the normalized token stream."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(fingerprint_md5("text"), batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint"])


@q(
    "jaccard_near_dup_pairs",
    f"""
    WITH t AS (SELECT doc_id, list_distinct({_TOKS}) AS toks FROM documents)
    SELECT a.doc_id AS a, b.doc_id AS b,
           len(list_intersect(a.toks, b.toks)) AS n_inter,
           len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)) AS n_union
    FROM t a JOIN t b ON a.doc_id < b.doc_id
    WHERE 10 * len(list_intersect(a.toks, b.toks))
          >= 9 * (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)))
    """,
)
def jaccard_near_dup_pairs(sf_dir: str):
    """n-gram(1) Jaccard near-dup pairs, integer-exact threshold 9/10
    (oracle-checkable brute force; LSH prefilters at scale)."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return jaccard_pairs_exact(ds, "text", "doc_id", threshold_num=9, threshold_den=10)


@q(
    "training_corpus_prep",
    f"""
    WITH t AS (
      SELECT doc_id, lang, {_TOKS} AS toks,
             regexp_replace(text, '[0-9]+', '#', 'g') AS red
      FROM documents),
    f AS (
      SELECT * FROM t
      WHERE len(toks) >= 10 AND 10 * len(list_distinct(toks)) >= 5 * len(toks)),
    d AS (SELECT min(doc_id) AS doc_id FROM f GROUP BY red)
    SELECT f.doc_id, f.lang,
           CAST(len(f.toks) AS BIGINT) AS n_tokens,
           CAST(length(f.red) AS BIGINT) AS n_chars_red
    FROM f JOIN d USING (doc_id)
    """,
)
def training_corpus_prep(sf_dir: str):
    """The composed END-TO-END training-data prep pipeline (the flagship
    shape a user runs over 100 TB; CLI face: ``jobs/corpus_prep_job.py``):
    quality gate (min length + Gopher duplicate-word rule, integer-exact)
    → PII-style redaction (vectorized regex) → exact dedup on the REDACTED
    text (hash-partition keep-min) → token/char accounting. ONE streaming
    pass: the filter+redact stage fuses into a single map_batches, the only
    shuffle is the dedup signature groupby, and rows never reach the
    driver. Reference analog: the URP chain composed exactly like
    solrconfig chains RegexReplace + Signature + LangDetect processors
    ahead of the index sink."""
    from apache___solr_ray.stages.dedup import exact_dedup

    ds = load(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def gate_redact(t: pa.Table) -> pa.Table:
        toks = [simple_tokenize(x or "") for x in t.column("text").to_pylist()]
        n = np.fromiter((len(x) for x in toks), np.int64, count=len(toks))
        nd = np.fromiter((len(set(x)) for x in toks), np.int64, count=len(toks))
        keep = (n >= 10) & (10 * nd >= 5 * n)
        t2 = t.filter(pa.array(keep))
        red = pc.replace_substring_regex(
            t2.column("text"), pattern="[0-9]+", replacement="#"
        )
        return pa.table(
            {
                "doc_id": t2.column("doc_id"),
                "lang": t2.column("lang"),
                "n_tokens": pa.array(n[keep]),
                "n_chars_red": pc.utf8_length(red).cast(pa.int64()),
                "red": red,
            }
        )

    kept = exact_dedup(
        ds.map_batches(gate_redact, batch_format="pyarrow"), "red", "doc_id"
    )
    return kept.select_columns(["doc_id", "lang", "n_tokens", "n_chars_red"])


@q(
    "exact_substring_dup_stats",
    f"""
    WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    w AS (
      SELECT doc_id, array_to_string(toks[i:i+7], ' ') AS gram
      FROM t, LATERAL unnest(generate_series(1, len(toks) - 7)) AS u(i)
    ),
    gc AS (SELECT gram, count(*) AS n FROM w GROUP BY gram)
    SELECT w.doc_id, count(*) AS n_windows,
           CAST(sum(CASE WHEN gc.n >= 2 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_dup_windows
    FROM w JOIN gc USING (gram)
    GROUP BY w.doc_id
    """,
)
def exact_substring_dup_stats_q(sf_dir: str):
    """Exact-substring duplicate-span stats (Lee et al. 2022's dedup
    criterion: any 8-token span occurring >= 2 times corpus-wide is a
    duplicate span): per doc, total k-token windows and duplicated
    windows. One gram-hash shuffle, 8-byte rolling hashes instead of gram
    strings — see stages/dedup.exact_substring_dup_stats."""
    from apache___solr_ray.stages.dedup import exact_substring_dup_stats

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_substring_dup_stats(ds, "text", "doc_id", k=8)


# -- rows-only entries (no SQL equivalent; driver records row-count check) ---


@q("text_profile_dedup_groups")
def text_profile_dedup_groups(sf_dir: str):
    """TextProfileSignature fuzzy dedup groups (TextProfileSignature.java
    algorithm) — not SQL-expressible (quantized profile)."""
    from ray.data.aggregate import Count, Min

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(add_text_profile_signature("text"), batch_format="pyarrow")
    return ds.groupby("profile_sig").aggregate(
        Count(alias_name="n_docs"), Min("doc_id", alias_name="min_doc_id")
    )


@q("minhash_lsh_candidate_pairs")
def minhash_lsh_candidate_pairs(sf_dir: str):
    """MinHash+LSH candidate pairs (shingle→minhash→band→bucket groupby —
    MinHashQParser / MinHashFilter analog, the scale path for near-dup)."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_lsh_candidates(ds, "text", "doc_id", num_hashes=32, bands=8, shingle=3)


@q("simhash_docs")
def simhash_docs(sf_dir: str):
    """64-bit SimHash per document."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(add_simhash("text"), batch_format="pyarrow")

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "simhash": pc.cast(t.column("simhash"), pa.int64(), safe=False),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


@q("langid_predictions")
def langid_predictions(sf_dir: str):
    """Heuristic language-id stage (langid module analog) — model-free
    prediction, rows-only check."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(LangIdStage, batch_format="pyarrow", concurrency=(1, 4))
    return out.select_columns(["doc_id", "lang_pred"])


_HEXB = "CAST(concat('0x', substr(md5(text), {i}, 2)) AS INT)"


@q(
    "multimodal_decode_stub",
    f"""
    SELECT doc_id,
           CAST(64 + {_HEXB.format(i=1)} % 192 AS INT) AS width,
           CAST(64 + {_HEXB.format(i=3)} % 192 AS INT) AS height,
           CAST(strlen(text) AS BIGINT) AS n_bytes
    FROM documents
    """,
)
def multimodal_decode_stub(sf_dir: str):
    """Multimodal plumbing: documents' bytes as opaque binary payloads
    through the (stubbed) image-decoder actor pool — exercises the real
    schema/batch/actor shape; decode itself is a deterministic fake."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        payload = pa.array([x.encode() for x in t.column("text").to_pylist()], pa.binary())
        return pa.table({"doc_id": t.column("doc_id"), "payload": payload})

    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    return ds.map_batches(
        FakeImageDecoder, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    ).drop_columns(["feat"])


@q(
    "multimodal_resize_plan",
    f"""
    WITH dec AS (
      SELECT doc_id,
             CAST(64 + {_HEXB.format(i=1)} % 192 AS BIGINT) AS width,
             CAST(64 + {_HEXB.format(i=3)} % 192 AS BIGINT) AS height
      FROM documents)
    SELECT doc_id, CAST(width AS INT) AS width, CAST(height AS INT) AS height,
           CAST((width * 448 + greatest(width, height)) // (2 * greatest(width, height)) AS INT) AS rwidth,
           CAST((height * 448 + greatest(width, height)) // (2 * greatest(width, height)) AS INT) AS rheight
    FROM dec
    """,
)
def multimodal_resize_plan(sf_dir: str):
    """Decode-stub dims -> aspect-preserving resize plan into a 224 box
    (integer-exact round-half-up geometry; the pixel resample is the only
    stubbed part). Actor-pool chain: decoder -> planner."""
    from apache___solr_ray.stages.multimodal import ImageResizePlanner

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        payload = pa.array([x.encode() for x in t.column("text").to_pylist()], pa.binary())
        return pa.table({"doc_id": t.column("doc_id"), "payload": payload})

    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    ds = ds.map_batches(
        FakeImageDecoder, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    ).drop_columns(["feat", "n_bytes"])
    return ds.map_batches(ImageResizePlanner, batch_format="pyarrow", concurrency=(1, 4))


@q(
    "multimodal_frame_sample",
    f"""
    WITH dec AS (
      SELECT doc_id, 8 + {_HEXB.format(i=5)} % 120 AS n_frames FROM documents)
    SELECT doc_id, CAST(unnest(range(0, n_frames, 5)) AS BIGINT) AS frame_idx,
           CAST(unnest(range(0, n_frames, 5)) * 40 AS BIGINT) AS ts_ms
    FROM dec
    """,
)
def multimodal_frame_sample(sf_dir: str):
    """Video frame sampling: one row per sampled frame (the explode shape
    of a real video pipeline; frame count deterministic from payload,
    timestamps at 25 fps)."""
    from apache___solr_ray.stages.multimodal import FakeVideoFrameSampler

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        payload = pa.array([x.encode() for x in t.column("text").to_pylist()], pa.binary())
        return pa.table({"doc_id": t.column("doc_id"), "payload": payload})

    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    return ds.map_batches(
        FakeVideoFrameSampler, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    )


# -- REAL image decode: BMP/PPM/PNG pixels from actual bytes ------------------

_IMG_CORPUS = "/tmp/apache___solr_ray_cache/imgcorpus_v1/images.parquet"
_IMG_N = 240


def ensure_image_corpus() -> str:
    """Deterministic mixed-format image corpus (fixed path so the static
    oracle SQL can read the same file): 240 seeded random images cycling
    BMP / PPM / PNG(filter 0/1/2) with PNG color types gray/RGB/RGBA/
    gray+alpha. Truth columns (width/height/channels/mean, the mean
    rounded with the repo's floor(x*1e4+0.5)/1e4 convention) are computed
    from the PRE-encode pixels; the engine must recover them from the
    encoded bytes alone — a genuine end-to-end decode check."""
    import os

    import numpy as np2
    import pyarrow.parquet as pq

    from apache___solr_ray.stages.imagecodec import encode_bmp, encode_png, encode_ppm

    if os.path.exists(_IMG_CORPUS):
        return _IMG_CORPUS
    os.makedirs(os.path.dirname(_IMG_CORPUS), exist_ok=True)
    rng = np2.random.Generator(np2.random.PCG64(20260818))
    rows = {k: [] for k in ("img_id", "fmt", "payload", "width_true", "height_true", "channels_true", "mean_true")}
    png_ctypes = [1, 3, 4, 2]  # gray, RGB, RGBA, gray+alpha channel counts
    for i in range(_IMG_N):
        w = int(rng.integers(8, 49))
        h = int(rng.integers(8, 49))
        kind = i % 5
        if kind == 0:
            c = 3
            img = rng.integers(0, 256, size=(h, w, c), dtype=np2.uint8)
            payload, fmt = encode_bmp(img), "bmp"
        elif kind == 1:
            c = 3
            img = rng.integers(0, 256, size=(h, w, c), dtype=np2.uint8)
            payload, fmt = encode_ppm(img), "ppm"
        else:
            c = png_ctypes[i % 4]
            img = rng.integers(0, 256, size=(h, w, c), dtype=np2.uint8)
            payload, fmt = encode_png(img, filter_type=kind - 2), f"png{kind - 2}"
        rows["img_id"].append(i)
        rows["fmt"].append(fmt)
        rows["payload"].append(payload)
        rows["width_true"].append(w)
        rows["height_true"].append(h)
        rows["channels_true"].append(c)
        rows["mean_true"].append(float(np2.floor(img.mean() * 10000 + 0.5) / 10000))
    tbl = pa.table(
        {
            "img_id": pa.array(rows["img_id"], pa.int64()),
            "fmt": pa.array(rows["fmt"], pa.string()),
            "payload": pa.array(rows["payload"], pa.binary()),
            "width_true": pa.array(rows["width_true"], pa.int32()),
            "height_true": pa.array(rows["height_true"], pa.int32()),
            "channels_true": pa.array(rows["channels_true"], pa.int32()),
            "mean_true": pa.array(rows["mean_true"], pa.float64()),
        }
    )
    tmp = _IMG_CORPUS + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, _IMG_CORPUS)
    return _IMG_CORPUS


@q(
    "multimodal_decode_real",
    f"""
    SELECT img_id, width_true AS width, height_true AS height,
           channels_true AS channels, mean_true AS mean_px
    FROM read_parquet('{_IMG_CORPUS}')
    """,
)
def multimodal_decode_real(sf_dir: str):
    """REAL multimodal decode (no fake): BMP/PPM/PNG payload bytes through
    the RealImageDecoder actor pool (stages/imagecodec.py — pure-stdlib
    codecs incl. zlib PNG with all five scanline filters); the oracle is
    the corpus's pre-encode ground truth, so a single wrong pixel mean,
    dimension or channel count fails the hash. Reference role:
    SolrContentHandler's media->fields extraction."""
    import ray.data as rd

    from apache___solr_ray.stages.multimodal import RealImageDecoder

    path = ensure_image_corpus()
    ds = rd.read_parquet(path, columns=["img_id", "payload"])
    return ds.map_batches(
        RealImageDecoder, batch_format="pyarrow", batch_size=32, concurrency=(1, 4)
    )


# -- REAL audio decode: PCM WAV samples from actual bytes ---------------------

_AUDIO_CORPUS = "/tmp/apache___solr_ray_cache/audiocorpus_v1/clips.parquet"
_AUDIO_N = 160


def ensure_audio_corpus() -> str:
    """Deterministic PCM-WAV corpus (fixed path for the static oracle):
    160 seeded clips — sine + noise mixes, mono/stereo, 8/16 kHz, varied
    duration — with ground-truth columns computed from the PRE-encode
    samples (encode is lossless int16, so the engine must recover them
    from the bytes alone)."""
    import os

    import numpy as np2
    import pyarrow.parquet as pq

    from apache___solr_ray.stages.audiocodec import encode_wav, wav_features

    if os.path.exists(_AUDIO_CORPUS):
        return _AUDIO_CORPUS
    os.makedirs(os.path.dirname(_AUDIO_CORPUS), exist_ok=True)
    rng = np2.random.Generator(np2.random.PCG64(20260819))
    rows = {k: [] for k in ("clip_id", "payload", "duration_true", "rms_true", "channels_true", "rate_true")}
    for i in range(_AUDIO_N):
        rate = 8000 if i % 2 == 0 else 16000
        nch = 1 if i % 3 else 2
        n = int(rng.integers(rate // 10, rate))  # 0.1–1.0 s
        t = np2.arange(n) / rate
        f = float(rng.uniform(100, 2000))
        x = 0.5 * np2.sin(2 * np2.pi * f * t) + 0.1 * rng.normal(size=n)
        x = np2.clip(x, -1, 1)
        samples = (x * 32000).astype(np2.int16)
        if nch == 2:
            samples = np2.stack([samples, (samples * 0.5).astype(np2.int16)], axis=1)
        payload = encode_wav(samples, rate)
        truth = wav_features(payload)
        rows["clip_id"].append(i)
        rows["payload"].append(payload)
        rows["duration_true"].append(truth["duration_sec"])
        rows["rms_true"].append(truth["rms"])
        rows["channels_true"].append(truth["channels"])
        rows["rate_true"].append(truth["rate"])
    tbl = pa.table(
        {
            "clip_id": pa.array(rows["clip_id"], pa.int64()),
            "payload": pa.array(rows["payload"], pa.binary()),
            "duration_true": pa.array(rows["duration_true"], pa.float64()),
            "rms_true": pa.array(rows["rms_true"], pa.float64()),
            "channels_true": pa.array(rows["channels_true"], pa.int32()),
            "rate_true": pa.array(rows["rate_true"], pa.int32()),
        }
    )
    tmp = _AUDIO_CORPUS + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, _AUDIO_CORPUS)
    return _AUDIO_CORPUS


@q(
    "multimodal_audio_real",
    f"""
    SELECT clip_id, duration_true AS duration_sec, rms_true AS rms,
           channels_true AS channels, rate_true AS rate
    FROM read_parquet('{_AUDIO_CORPUS}')
    """,
)
def multimodal_audio_real(sf_dir: str):
    """REAL audio decode (no fake): PCM-WAV payload bytes through the
    RealAudioFeaturizer actor pool (stages/audiocodec.py, stdlib wave);
    duration/RMS/channels/rate must match the corpus's pre-encode ground
    truth — a single wrong sample fails the RMS hash."""
    import ray.data as rd

    from apache___solr_ray.stages.multimodal import RealAudioFeaturizer

    path = ensure_audio_corpus()
    ds = rd.read_parquet(path, columns=["clip_id", "payload"])
    return ds.map_batches(
        RealAudioFeaturizer, batch_format="pyarrow", batch_size=32, concurrency=(1, 4)
    ).select_columns(["clip_id", "duration_sec", "rms", "channels", "rate"])


# -- REAL video decode: uncompressed-AVI frames from actual bytes ------------

_VIDEO_CORPUS = "/tmp/apache___solr_ray_cache/videocorpus_v1/clips.parquet"
_VIDEO_N = 96


def ensure_video_corpus() -> str:
    """Deterministic uncompressed-AVI corpus (fixed path for the static
    oracle): 96 seeded clips — gradient + noise frames, varied geometry
    (5–28 px), 6–40 frames, fps in {10, 20, 25} — with per-frame mean
    ground truth computed from the PRE-encode pixels (raw-DIB encode is
    lossless, so the engine must recover the exact pixels from the RIFF
    bytes alone)."""
    import os

    import numpy as np2
    import pyarrow.parquet as pq

    from apache___solr_ray.stages.videocodec import encode_avi

    if os.path.exists(_VIDEO_CORPUS):
        return _VIDEO_CORPUS
    os.makedirs(os.path.dirname(_VIDEO_CORPUS), exist_ok=True)
    rng = np2.random.Generator(np2.random.PCG64(20260820))
    rows = {k: [] for k in ("vid_id", "payload", "n_frames_true", "fps_true", "frame_means_true")}
    for i in range(_VIDEO_N):
        h = int(rng.integers(5, 29))
        w = int(rng.integers(5, 29))
        n = int(rng.integers(6, 41))
        fps = (10, 20, 25)[i % 3]
        base = rng.integers(0, 256, size=(h, w, 3), dtype=np2.uint8).astype(np2.int64)
        drift = rng.integers(-4, 5, size=(n, 1, 1, 1))
        frames = np2.clip(base[None] + drift * np2.arange(1, n + 1)[:, None, None, None] % 7, 0, 255).astype(np2.uint8)
        means = np2.floor(frames.astype(np2.float64).mean(axis=(1, 2, 3)) * 10000 + 0.5) / 10000
        rows["vid_id"].append(i)
        rows["payload"].append(encode_avi(frames, fps))
        rows["n_frames_true"].append(n)
        rows["fps_true"].append(fps)
        rows["frame_means_true"].append([float(m) for m in means])
    tbl = pa.table(
        {
            "vid_id": pa.array(rows["vid_id"], pa.int64()),
            "payload": pa.array(rows["payload"], pa.binary()),
            "n_frames_true": pa.array(rows["n_frames_true"], pa.int32()),
            "fps_true": pa.array(rows["fps_true"], pa.int32()),
            "frame_means_true": pa.array(rows["frame_means_true"], pa.list_(pa.float64())),
        }
    )
    tmp = _VIDEO_CORPUS + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, _VIDEO_CORPUS)
    return _VIDEO_CORPUS


@q(
    "multimodal_video_real",
    f"""
    SELECT vid_id, idx - 1 AS frame_idx,
           CAST((idx - 1) * (1000 // fps_true) AS BIGINT) AS ts_ms,
           m AS mean_px
    FROM (
      SELECT vid_id, fps_true, unnest(frame_means_true) AS m,
             generate_subscripts(frame_means_true, 1) AS idx
      FROM read_parquet('{_VIDEO_CORPUS}')
    )
    WHERE (idx - 1) % 5 = 0
    """,
)
def multimodal_video_real(sf_dir: str):
    """REAL video frame sampling (no fake): uncompressed-AVI payload bytes
    through the RealVideoFrameSampler actor pool (stages/videocodec.py —
    RIFF container parse, raw-DIB frame decode), every 5th frame exploded
    to a row with its genuinely decoded mean pixel value; the oracle is
    the corpus's pre-encode per-frame ground truth, so one wrong pixel in
    one frame fails the hash. Reference role: SolrContentHandler's
    media->fields extraction applied to video."""
    import ray.data as rd

    from apache___solr_ray.stages.multimodal import RealVideoFrameSampler

    path = ensure_video_corpus()
    ds = rd.read_parquet(path, columns=["vid_id", "payload"])
    return ds.map_batches(
        RealVideoFrameSampler, batch_format="pyarrow", batch_size=16, concurrency=(1, 4)
    )


# -- second wave: unnest / significant terms / more-like-this ----------------


@q(
    "unnest_tokens_docs",
    f"""
    SELECT doc_id, unnest({_TOKS}) AS token
    FROM documents WHERE doc_id < 40
    """,
)
def unnest_tokens_docs(sf_dir: str):
    """CartesianProductStream analog (reference
    solr/solrj-streaming/.../stream/CartesianProductStream.java): explode a
    multivalued derivation into one row per value, preserving duplicates
    and order within each doc."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t.column("doc_id"), pa.scalar(40)))
        ids = t.column("doc_id").to_pylist()
        out_id, out_tok = [], []
        for i, txt in enumerate(t.column("text").to_pylist()):
            toks = simple_tokenize(txt or "")
            out_id.extend([ids[i]] * len(toks))
            out_tok += toks
        return pa.table(
            {"doc_id": pa.array(out_id, pa.int64()), "token": pa.array(out_tok, pa.string())}
        )

    return ds.map_batches(explode, batch_format="pyarrow")


@q(
    "significant_terms_en",
    f"""
    WITH toks AS (
      SELECT doc_id, lang, unnest(list_distinct({_TOKS})) AS term FROM documents
    ),
    fg AS (SELECT term, count(*) AS df_fg FROM toks WHERE lang = 'en' GROUP BY term),
    bg AS (SELECT term, count(*) AS df_bg FROM toks GROUP BY term)
    SELECT fg.term AS term, df_fg, df_bg,
           round(df_fg * 1.0 / df_bg, 4) AS score
    FROM fg JOIN bg ON fg.term = bg.term
    WHERE df_fg >= 5 AND df_fg * 1.0 / df_bg > 0.25
    """,
)
def significant_terms_en(sf_dir: str):
    """SignificantTermsStream analog (reference
    solr/solrj-streaming/.../stream/SignificantTermsStream.java:438 —
    per-shard foreground/background df partials merged at the coordinator):
    one pass computes both df's per term (partial aggregation inside
    map_batches), a single groupby merges."""
    from ray.data.aggregate import Sum

    ds = load(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def partials(t: pa.Table) -> pa.Table:
        langs = t.column("lang").to_pylist()
        fg: Counter = Counter()
        bg: Counter = Counter()
        for i, txt in enumerate(t.column("text").to_pylist()):
            toks = set(simple_tokenize(txt or ""))
            bg.update(toks)
            if langs[i] == "en":
                fg.update(toks)
        terms = sorted(bg)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df_fg_p": pa.array([fg.get(x, 0) for x in terms], pa.int64()),
                "df_bg_p": pa.array([bg[x] for x in terms], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df_fg_p", alias_name="df_fg"), Sum("df_bg_p", alias_name="df_bg"))
    )

    def score(t: pa.Table) -> pa.Table:
        ratio = pc.divide(
            pc.cast(t.column("df_fg"), pa.float64()), pc.cast(t.column("df_bg"), pa.float64())
        )
        t = t.append_column("score", pc.round(ratio, 4))
        keep = pc.and_(
            pc.greater_equal(t.column("df_fg"), pa.scalar(5)),
            pc.greater(
                pc.divide(
                    pc.cast(t.column("df_fg"), pa.float64()),
                    pc.cast(t.column("df_bg"), pa.float64()),
                ),
                pa.scalar(0.25),
            ),
        )
        return t.filter(keep).select(["term", "df_fg", "df_bg", "score"])

    return agg.map_batches(score, batch_format="pyarrow")


@q(
    "mlt_similar_docs",
    f"""
    WITH toks AS (
      SELECT doc_id, unnest(list_distinct({_TOKS})) AS term FROM documents
    ),
    src AS (SELECT term FROM toks WHERE doc_id = 7),
    overlap AS (
      SELECT t.doc_id, count(*) AS shared
      FROM toks t JOIN src s ON t.term = s.term
      WHERE t.doc_id <> 7
      GROUP BY t.doc_id
    )
    SELECT doc_id, shared FROM overlap
    ORDER BY shared DESC, doc_id ASC LIMIT 10
    """,
)
def mlt_similar_docs(sf_dir: str):
    """MoreLikeThis analog (reference MoreLikeThisHandler.java javadoc:
    docs sharing the most 'interesting' terms with a source doc): the
    source doc's term set is broadcast; overlap counts are a partial sum
    inside map_batches + one tiny groupby + top-10."""
    from ray.data.aggregate import Sum

    src_tbl = load(sf_dir, "documents", columns=["doc_id", "text"])

    def src_terms(t: pa.Table):
        t = t.filter(pc.equal(t.column("doc_id"), pa.scalar(7)))
        out = set()
        for txt in t.column("text").to_pylist():
            out |= set(simple_tokenize(txt or ""))
        return out

    import ray

    terms7 = set()
    for b in src_tbl.iter_batches(batch_format="pyarrow"):
        terms7 |= src_terms(b)
    ref = ray.put(frozenset(terms7))

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def overlap(t: pa.Table) -> pa.Table:
        import ray as _ray

        terms = _ray.get(ref)
        t = t.filter(pc.not_equal(t.column("doc_id"), pa.scalar(7)))
        ids, shared = [], []
        for i, txt in enumerate(t.column("text").to_pylist()):
            n = len(terms & set(simple_tokenize(txt or "")))
            if n:
                ids.append(t.column("doc_id")[i].as_py())
                shared.append(n)
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "shared": pa.array(shared, pa.int64())}
        )

    out = (
        ds.map_batches(overlap, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("shared", alias_name="shared"))
    )
    # distributed top-k: never pull the (potentially |corpus|-row) overlap
    # aggregate to the driver — sort+limit streams per-block top-10s
    return out.sort(["shared", "doc_id"], descending=[True, False]).limit(10)


_BIG = (1 << 62)


def connected_components_ds(
    pairs_ds,
    nodes_ds,
    num_partitions: int | None = None,
    max_rounds: int = 64,
    small_edges: int = 2_000_000,
):
    """Distributed min-label propagation over an edge Dataset — every round
    is Ray Data shuffles (edge⋈label join + groupby-min); the driver holds
    only the changed-label count. Labels are materialized per round
    (iterative-algorithm checkpoint: without it the lazy lineage would
    re-run all prior rounds each iteration). Converges in O(diameter)
    rounds; labels only decrease, fixpoint = zero changes.

    Adaptive small-edge path: the verified near-dup edge set is usually
    tiny relative to the corpus (that is the point of dedup), and each
    propagation round costs a full join+groupby round-trip. When the edge
    count is <= ``small_edges`` (default 2M ≈ 32 MB — edges only, NEVER
    the corpus), union-find runs driver-side and the label map is
    broadcast (``ray.put`` once) into a single ``map_batches`` over the
    node ids. Above the threshold the distributed rounds run unchanged.

    Cost controls for 10^12 nodes (distributed path): propagation runs
    only over edge-INCIDENT nodes (isolated nodes trivially label
    themselves and are joined back at the end — with a ~2% duplicate rate
    that is a 25× smaller per-round working set), and the changed-count
    rides the same groupby as the min (own messages carry the old label; a
    row changed iff new < old), so a round is exactly one join + one
    groupby."""
    from ray.data.aggregate import Count, Min

    from apache___solr_ray.stages.dedup import _default_join_partitions

    if num_partitions is None:
        num_partitions = _default_join_partitions()

    pairs_ds = pairs_ds.materialize()
    n_edges = pairs_ds.count()
    if n_edges <= small_edges:
        import ray

        parent: dict[int, int] = {}

        def find(x: int) -> int:
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != r:
                parent[x], x = r, parent[x]
            return r

        for blk in pairs_ds.select_columns(["a", "b"]).iter_batches(
            batch_format="pyarrow", batch_size=65536
        ):
            for a, b in zip(blk.column("a").to_pylist(), blk.column("b").to_pylist()):
                ra, rb = find(a), find(b)
                if ra != rb:
                    if rb < ra:
                        ra, rb = rb, ra
                    parent[rb] = ra
        labels_map = {x: find(x) for x in list(parent)}
        map_ref = ray.put(labels_map)

        def apply_labels(t: pa.Table) -> pa.Table:
            m = ray.get(map_ref)
            ids = t.column(t.column_names[0]).to_numpy()
            lab = np.fromiter((m.get(int(i), int(i)) for i in ids), np.int64, len(ids))
            return pa.table(
                {"node": pa.array(ids, pa.int64()), "label": pa.array(lab)}
            )

        return nodes_ds.map_batches(apply_labels, batch_format="pyarrow")

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy()
        b = t.column("b").to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    edges = pairs_ds.select_columns(["a", "b"]).map_batches(
        symmetrize, batch_format="pyarrow"
    ).materialize()

    # seed labels: distinct edge endpoints, label = self
    labels = (
        edges.groupby("src")
        .aggregate(Count(alias_name="_c"))
        .map_batches(
            lambda t: pa.table(
                {"node": t.column("src"), "label": t.column("src")}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    for _ in range(max_rounds):
        # neighbor messages: old=BIG sentinel; own messages: old=label —
        # after groupby-min, changed == (label < old) with no extra join
        from apache___solr_ray.pipelines.common import native_join

        neigh = native_join(
            edges, labels, "inner", num_partitions, on=("src",), right_on=("node",)
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("dst"),
                    "cand": t.column("label"),
                    "old": pa.array(np.full(t.num_rows, _BIG), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        own = labels.map_batches(
            lambda t: pa.table(
                {"node": t.column("node"), "cand": t.column("label"), "old": t.column("label")}
            ),
            batch_format="pyarrow",
        )
        agg = (
            neigh.union(own)
            .groupby("node")
            .aggregate(Min("cand", alias_name="label"), Min("old", alias_name="old"))
            .materialize()
        )
        changed = agg.filter(expr="label < old").count()
        labels = agg.select_columns(["node", "label"])
        if changed == 0:
            break

    # join isolated nodes back: full left-outer against the propagated set
    def init_labels(t: pa.Table) -> pa.Table:
        ids = t.column(t.column_names[0]).to_numpy()
        return pa.table({"node": pa.array(ids, pa.int64())})

    full = nodes_ds.map_batches(init_labels, batch_format="pyarrow").join(
        labels, "left_outer", num_partitions, on=("node",), right_on=("node",)
    )
    return full.map_batches(
        lambda t: pa.table(
            {
                "node": t.column("node"),
                "label": pc.coalesce(t.column("label"), t.column("node")),
            }
        ),
        batch_format="pyarrow",
    )


_NEAR_DUP_LABELS_CACHE: dict[str, object] = {}


def _near_dup_labels(sf_dir: str):
    """(node, label) component labels for the documents corpus — computed
    once per process per corpus (materialized in the object store, shared
    by near_dup_components and dedup_corpus_keep_canonical) via the
    single-tokenize LSH→verify→propagate pipeline."""
    hit = _NEAR_DUP_LABELS_CACHE.get(sf_dir)
    if hit is not None:
        return hit
    from apache___solr_ray.stages.dedup import lsh_verified_pairs

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = lsh_verified_pairs(
        ds, None, "text", "doc_id", threshold_num=9, threshold_den=10, shingle=3
    )
    nodes = load(sf_dir, "documents", columns=["doc_id"])
    labels = connected_components_ds(pairs, nodes).materialize()
    _NEAR_DUP_LABELS_CACHE[sf_dir] = labels
    return labels


@q(
    "near_dup_components",
    f"""
    WITH RECURSIVE t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    sh AS (
      SELECT doc_id, list_distinct(
        CASE WHEN len(toks) >= 3
             THEN list_transform(range(1, len(toks) - 1),
                                 i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
             ELSE [array_to_string(toks, ' ')] END) AS grams
      FROM t),
    edges AS (
      SELECT a.doc_id AS a, b.doc_id AS b
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE 10 * len(list_intersect(a.grams, b.grams))
            >= 9 * (len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams)))
    ),
    sym AS (SELECT a, b FROM edges UNION ALL SELECT b, a FROM edges),
    reach(node, reach) AS (
      SELECT doc_id, doc_id FROM t
      UNION
      SELECT s.a, r.reach FROM sym s JOIN reach r ON s.b = r.node
    )
    SELECT node AS doc_id, min(reach) AS component
    FROM reach GROUP BY node
    """,
)
def near_dup_components(sf_dir: str):
    """Near-duplicate clustering at the 100-TB shape: ONE tokenization pass
    (``minhash_token_bands_ds`` — a materialized (id, token-hash payload,
    band keys) checkpoint) feeds MinHash/LSH candidate generation (band
    groupby) AND exact 3-gram-shingle Jaccard verification of the
    candidates only (hash joins ship the precomputed shingle sets;
    stages/dedup.py ``lsh_verified_pairs``) -> distributed min-label
    propagation (``connected_components_ds``). No stage materializes the
    corpus or the edge set driver-side. Similarity is word-SHINGLE Jaccard
    (n=3) — the metric MinHash dedup actually targets; unigram token-set
    Jaccard (kept as ``jaccard_near_dup_pairs``) degenerates on boilerplate
    corpora where every long page shares the whole vocabulary. The
    brute-force O(n²) stage remains as the pytest cross-check
    (tests/test_dedup_scale.py); the DuckDB recursive-CTE oracle checks
    this LSH path directly (recall at J≥0.9 is 1-4e-8 per pair with 16×4
    banding)."""
    labels = _near_dup_labels(sf_dir)

    # Return the labels DATASET (contract accepts it) — one row per document
    # must never be materialized on the driver at 10^12 docs; downstream
    # consumers write via sinks.write_partitioned or keep streaming.
    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("node").cast(pa.int64()),
                "component": t.column("label").cast(pa.int64()),
            }
        )

    return labels.map_batches(rename, batch_format="pyarrow")


@q(
    "highlight_snippets",
    """
    SELECT doc_id,
           substr(text, GREATEST(1, strpos(lower(text), 'merge') - 20), 45) AS snippet
    FROM documents WHERE strpos(lower(text), 'merge') > 0
    """,
)
def highlight_snippets(sf_dir: str):
    """Highlighter analog (reference solr/core/.../highlight/ — snippet of
    the stored field around the first match): vectorized pandas str.find +
    slice inside map_batches; byte-identical to the SQL substr window."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def snip(df: pd.DataFrame) -> pd.DataFrame:
        pos = df["text"].str.lower().str.find("merge")
        hit = df[pos >= 0].copy()
        p = pos[pos >= 0]
        start = (p - 20).clip(lower=0)
        hit["snippet"] = [
            t[s : s + 45] for t, s in zip(hit["text"], start)
        ]
        return hit[["doc_id", "snippet"]]

    return ds.map_batches(snip, batch_format="pandas")


@q(
    "doc_repetition_stats",
    f"""
    WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    bg AS (
      SELECT doc_id, unnest(list_transform(range(1, len(toks)),
                            i -> toks[i] || ' ' || toks[i+1])) AS g
      FROM t WHERE len(toks) >= 2
    ),
    bc AS (
      SELECT doc_id, max(c) AS maxc, sum(c) AS total FROM (
        SELECT doc_id, g, count(*) AS c FROM bg GROUP BY doc_id, g
      ) GROUP BY doc_id
    )
    SELECT t.doc_id,
           floor((1 - CAST(len(list_distinct(toks)) AS DOUBLE) / len(toks))
                 * 10000 + 0.5) / 10000 AS dup_word_frac,
           COALESCE(floor(CAST(bc.maxc AS DOUBLE) / bc.total * 10000 + 0.5) / 10000,
                    0.0) AS top_bigram_frac
    FROM t LEFT JOIN bc USING (doc_id)
    WHERE len(toks) > 0
    """,
)
def doc_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality filters (Rae et al. 2021 §A1.1 —
    'fraction of duplicate words/n-grams' rules used by web-scale training
    pipelines to drop boilerplate): per doc, the duplicate-word fraction
    (1 - distinct/total) and the top-bigram fraction (most frequent bigram
    / total bigrams). Pure per-doc map — embarrassingly parallel, no
    shuffle; a filter stage thresholds these downstream."""
    from collections import Counter as _C

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        ids, dup, topb = [], [], []
        for did, txt in zip(
            t.column("doc_id").to_pylist(), t.column("text").to_pylist()
        ):
            toks = simple_tokenize(txt or "")
            if not toks:
                continue
            ids.append(did)
            dup.append(np.floor((1 - len(set(toks)) / len(toks)) * 10000 + 0.5) / 10000)
            if len(toks) >= 2:
                bc = _C(zip(toks, toks[1:]))
                topb.append(
                    np.floor(max(bc.values()) / (len(toks) - 1) * 10000 + 0.5) / 10000
                )
            else:
                topb.append(0.0)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "dup_word_frac": pa.array(dup, pa.float64()),
                "top_bigram_frac": pa.array(topb, pa.float64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


@q(
    "doc_unigram_logprob",
    f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM toks),
    tf AS (SELECT term, count(*) AS c FROM toks GROUP BY term)
    SELECT t.doc_id, floor(avg(ln(tf.c / tot.n)) * 10000 + 0.5) / 10000 AS logprob
    FROM toks t JOIN tf USING (term) CROSS JOIN tot
    GROUP BY t.doc_id
    """,
)
def doc_unigram_logprob(sf_dir: str):
    """Unigram language-model document score (the CCNet/KenLM quality-
    filter shape, Wenzek et al. 2020: docs scored by per-token LM logprob,
    thresholded to drop gibberish): mean ln(p(term)) per doc under the
    corpus unigram model. Fully distributed — NO vocabulary broadcast (a
    web-scale vocab is 10^9 terms): term counts come from one
    partial-aggregated groupby, the per-token logprob attaches via a
    term-hash cogroup (grouped_map over the tagged union), and the per-doc
    mean is a (sum, n) partial + one doc groupby. Only the scalar total
    token count crosses the driver. Shuffle-volume controls: tokens are
    PRE-AGGREGATED per (doc, term) inside each batch (rows shrink by the
    within-doc tf) and the term itself ships as a 64-bit hash, not a
    string — identical math (ln p weighted by the per-doc count), ~5×
    fewer shuffle bytes."""
    from ray.data.aggregate import Sum

    from apache___solr_ray.pipelines.common import grouped_map
    from apache___solr_ray.stages.dedup import _hash_strings

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def doc_term_counts(t: pa.Table) -> pa.Table:
        from collections import Counter as _C

        out_d, out_h, out_k = [], [], []
        for did, txt in zip(
            t.column("doc_id").to_pylist(), t.column("text").to_pylist()
        ):
            cnt = _C(simple_tokenize(txt or ""))
            if not cnt:
                continue
            # signed view of the 64-bit hash: same bits, but pandas/Arrow
            # round-trips stay int64 (uint64 > 2^63 becomes a Python int
            # that overflows the pandas->Arrow conversion)
            hs = _hash_strings(np.asarray(list(cnt.keys()), dtype=object)).view(np.int64)
            out_d.extend([did] * len(cnt))
            out_h.extend(hs.tolist())
            out_k.extend(cnt.values())
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "th": pa.array(np.array(out_h, dtype=np.int64)),
                "k": pa.array(out_k, pa.int64()),
            }
        )

    dtc = ds.map_batches(doc_term_counts, batch_format="pyarrow").materialize()
    n_total = float(dtc.sum("k"))

    from apache___solr_ray.pipelines.common import combine_partials

    def tf_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("th").aggregate([("k", "sum")])
        return pa.table({"th": g.column("th"), "c": g.column("k_sum")})

    tf = combine_partials(
        dtc.map_batches(tf_partial, batch_format="pyarrow"),
        ["th"],
        [Sum("c", alias_name="c")],
        sum_cols=["c"],
    )

    def tag_tf(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "th": t.column("th"),
                "doc_id": pa.nulls(t.num_rows, pa.int64()),
                "k": pa.nulls(t.num_rows, pa.int64()),
                "c": t.column("c").cast(pa.int64()),
            }
        )

    def tag_tok(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "th": t.column("th"),
                "doc_id": t.column("doc_id"),
                "k": t.column("k"),
                "c": pa.nulls(t.num_rows, pa.int64()),
            }
        )

    both = tf.map_batches(tag_tf, batch_format="pyarrow").union(
        dtc.map_batches(tag_tok, batch_format="pyarrow")
    )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        cmap = df.loc[df["doc_id"].isna(), ["th", "c"]]
        rows = df[df["doc_id"].notna()][["doc_id", "th", "k"]]
        m = rows.merge(cmap, on="th", how="left")
        kk = m["k"].to_numpy(dtype=np.float64)
        m["lp"] = kk * np.log(m["c"].to_numpy(dtype=np.float64) / n_total)
        g = m.groupby("doc_id", sort=False)
        out = pd.DataFrame({"s": g["lp"].sum(), "k": g["k"].sum()}).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = grouped_map(both, "th", attach)
    agg = combine_partials(
        parts,
        ["doc_id"],
        [Sum("s", alias_name="s"), Sum("k", alias_name="k")],
        sum_cols=["s", "k"],
    )

    def finish(t: pa.Table) -> pa.Table:
        lp = t.column("s").to_numpy() / t.column("k").to_numpy()
        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "logprob": pa.array(np.floor(lp * 10000 + 0.5) / 10000, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@q(
    "dedup_corpus_keep_canonical",
    f"""
    WITH RECURSIVE t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    sh AS (
      SELECT doc_id, list_distinct(
        CASE WHEN len(toks) >= 3
             THEN list_transform(range(1, len(toks) - 1),
                                 i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
             ELSE [array_to_string(toks, ' ')] END) AS grams
      FROM t),
    edges AS (
      SELECT a.doc_id AS a, b.doc_id AS b
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE 10 * len(list_intersect(a.grams, b.grams))
            >= 9 * (len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams)))
    ),
    sym AS (SELECT a, b FROM edges UNION ALL SELECT b, a FROM edges),
    reach(node, reach) AS (
      SELECT doc_id, doc_id FROM t
      UNION
      SELECT s.a, r.reach FROM sym s JOIN reach r ON s.b = r.node
    ),
    comp AS (SELECT node AS doc_id, min(reach) AS component FROM reach GROUP BY node)
    SELECT d.doc_id, d.n_chars
    FROM documents d JOIN comp USING (doc_id)
    WHERE comp.component = d.doc_id
    """,
)
def dedup_corpus_keep_canonical(sf_dir: str):
    """The END-TO-END dedup a training pipeline actually runs: keep ONE
    canonical doc per near-dup component (the min-id member) and drop the
    rest. Min-label propagation makes this a pure filter — a doc is
    canonical iff its label equals its own id — so the dedup is
    label-join + filter + corpus semi-join, all streaming; the surviving
    corpus is returned with payload columns intact (here doc_id, n_chars;
    at 100 TB write via sinks.write_partitioned instead)."""
    labels = _near_dup_labels(sf_dir)

    def canon_ids(t: pa.Table) -> pa.Table:
        keep = pc.equal(t.column("node"), t.column("label"))
        return pa.table({"doc_id": t.filter(keep).column("node").cast(pa.int64())})

    canonical = labels.map_batches(canon_ids, batch_format="pyarrow")
    # distributed semi-join back onto the corpus: ONE doc_id hash
    # co-location of (canonical ids ∪ corpus rows), then a vectorized
    # per-partition filter — the id set never lands on the driver
    from apache___solr_ray.pipelines.common import grouped_map

    def tag_canon(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": pa.nulls(t.num_rows, pa.int64()),
                "is_id": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    def tag_corpus(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": t.column("n_chars").cast(pa.int64()),
                "is_id": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    corpus = load(sf_dir, "documents", columns=["doc_id", "n_chars"])
    both = canonical.map_batches(tag_canon, batch_format="pyarrow").union(
        corpus.map_batches(tag_corpus, batch_format="pyarrow")
    )

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        keep = set(df.loc[df["is_id"] == 1, "doc_id"])
        rows = df[(df["is_id"] == 0) & df["doc_id"].isin(keep)]
        return rows[["doc_id", "n_chars"]]

    return grouped_map(both, "doc_id", pick)


_MINHASH_SIDE_CACHE: dict[str, str] = {}
_MHQ_DOC = 8  # has J>=0.9 neighbors in the test corpora


def ensure_minhash_sidecar(sf_dir: str) -> str:
    """Build (once per corpus, resumable) the persisted MinHash sidecar
    over ``documents`` (minhash_index.py)."""
    import hashlib

    from apache___solr_ray.minhash_index import build_minhash_sidecar

    hit = _MINHASH_SIDE_CACHE.get(sf_dir)
    if hit is not None:
        return hit
    src = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.md5(f"{src}:{os.path.getsize(src)}:mh1".encode()).hexdigest()[:16]
    index_dir = f"/tmp/apache___solr_ray_cache/{key}/minhash"
    build_minhash_sidecar(src, index_dir, text_col="text", id_col="doc_id")
    _MINHASH_SIDE_CACHE[sf_dir] = index_dir
    return index_dir


@q(
    "minhash_similar_to_doc",
    f"""
    WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    sh AS (
      SELECT doc_id, list_distinct(
        CASE WHEN len(toks) >= 3
             THEN list_transform(range(1, len(toks) - 1),
                                 i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
             ELSE [array_to_string(toks, ' ')] END) AS grams
      FROM t),
    x AS (SELECT grams FROM sh WHERE doc_id = {_MHQ_DOC})
    SELECT s.doc_id,
           CAST(len(list_intersect(s.grams, x.grams)) AS BIGINT) AS inter,
           CAST(len(s.grams) + len(x.grams)
                - len(list_intersect(s.grams, x.grams)) AS BIGINT) AS uni
    FROM sh s, x
    WHERE s.doc_id <> {_MHQ_DOC}
      AND 10 * len(list_intersect(s.grams, x.grams))
          >= 9 * (len(s.grams) + len(x.grams) - len(list_intersect(s.grams, x.grams)))
    """,
)
def minhash_similar_to_doc(sf_dir: str):
    """MinHashQParser analog (reference MinHashQParser.java: 'find docs
    similar to this one' answered FROM the index): the persisted MinHash
    sidecar (minhash_index.py — band-partitioned LSH postings + gram-set
    payload, written in one tokenize pass at build time) is probed with
    doc {_MHQ_DOC}'s band keys, candidates verified with EXACT integer
    Jaccard (3-gram shingles, J>=9/10). Query reads only the probed band
    partitions and the candidates' gram partitions — never the corpus.
    Oracle: the same integer Jaccard unrolled in SQL (LSH miss probability
    at J>=0.9 is 4e-8 per pair with 16x4 banding)."""
    from apache___solr_ray.minhash_index import minhash_similar

    index_dir = ensure_minhash_sidecar(sf_dir)
    return minhash_similar(index_dir, _MHQ_DOC, threshold_num=9, threshold_den=10)


_HL_TERMS = ("merge", "fast", "index")
_HL_WINDOW = 20


def _unified_hl_sql() -> str:
    terms = ", ".join(repr(t) for t in _HL_TERMS)
    w = _HL_WINDOW
    return f"""
    WITH toks AS (
      SELECT doc_id, unnest({_TOKS}) AS term,
             unnest(range(len({_TOKS}))) AS pos
      FROM documents
    ),
    stats AS (SELECT count(*) AS n FROM documents),
    df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
           WHERE term IN ({terms}) GROUP BY term),
    uniq AS (
      SELECT DISTINCT t.doc_id, CAST(floor(t.pos / {w}) AS BIGINT) AS w, t.term,
             ln(1 + (s.n - d.df + 0.5)/(d.df + 0.5)) AS idf
      FROM toks t JOIN df d USING (term) CROSS JOIN stats s
    ),
    scored AS (
      SELECT doc_id, w, floor(sum(idf) * 10000 + 0.5)/10000 AS score
      FROM uniq GROUP BY doc_id, w
    ),
    best AS (
      SELECT doc_id, w, score FROM (
        SELECT doc_id, w, score,
               row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, w ASC) AS rn
        FROM scored) WHERE rn = 1
    )
    SELECT b.doc_id, b.w AS window, b.score,
           array_to_string(list_slice({_TOKS}, b.w * {w} + 1, b.w * {w} + {w}), ' ') AS snippet
    FROM best b JOIN documents USING (doc_id)
    """


def best_passage_rows(
    texts: list, doc_ids: list, idf: dict[str, float], window: int = _HL_WINDOW
):
    """Unified-highlighter passage selection (pure fn for unit tests):
    passages are fixed ``window``-token buckets; passage score = sum of
    idf over the UNIQUE query terms present (UnifiedHighlighter counts a
    term once per passage); scores are rounded to 4 decimals BEFORE the
    comparison so the (score desc, window asc) tie-break is identical to
    the SQL mirror's row_number ordering. Returns rows (doc_id, window,
    score, snippet) for docs with a scoring passage."""
    out_id, out_w, out_s, out_snip = [], [], [], []
    qset = set(idf)
    for did, txt in zip(doc_ids, texts):
        toks = simple_tokenize(txt or "")
        best_s, best_w = 0.0, -1
        for w in range(0, (len(toks) + window - 1) // window):
            seen = qset.intersection(toks[w * window : (w + 1) * window])
            if not seen:
                continue
            s = 0.0
            for t in sorted(seen):  # fixed order: deterministic f64 sum
                s += idf[t]
            s = np.floor(s * 10000 + 0.5) / 10000
            if s > best_s:  # strict > keeps the SMALLEST window on ties
                best_s, best_w = s, w
        if best_w >= 0:
            out_id.append(did)
            out_w.append(best_w)
            out_s.append(best_s)
            out_snip.append(" ".join(toks[best_w * window : (best_w + 1) * window]))
    return out_id, out_w, out_s, out_snip


@q("highlight_unified", _unified_hl_sql())
def highlight_unified(sf_dir: str):
    """UnifiedHighlighter analog (reference solr/core/.../highlight/
    UnifiedSolrHighlighter.java: candidate passages are SCORED — idf-
    weighted unique query-term hits per passage — and the best passage is
    returned, not the first match). Passages here are fixed 20-token
    buckets so the scoring is deterministic and SQL-mirrorable; df/idf of
    the query terms comes from one tiny streaming aggregate (3 rows
    broadcast into the scoring pass). ``highlight_snippets`` remains the
    fast first-match mode (Solr ships both)."""
    import math

    import pyarrow.parquet as _pq
    from ray.data.aggregate import Sum

    n_docs = _pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def pdf(t: pa.Table) -> pa.Table:
        counts = dict.fromkeys(_HL_TERMS, 0)
        for txt in t.column("text").to_pylist():
            present = set(simple_tokenize(txt or "")) & set(_HL_TERMS)
            for term in present:
                counts[term] += 1
        items = sorted(counts.items())
        return pa.table(
            {
                "term": pa.array([k for k, _ in items], pa.string()),
                "pdf": pa.array([v for _, v in items], pa.int64()),
            }
        )

    dfs = {
        r["term"]: r["df"]
        for r in ds.map_batches(pdf, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("pdf", alias_name="df"))
        .take_all()  # <= |query terms| rows — tiny by construction
    }
    idf = {
        t: math.log(1 + (n_docs - dfs.get(t, 0) + 0.5) / (dfs.get(t, 0) + 0.5))
        for t in _HL_TERMS
        if dfs.get(t, 0) > 0
    }

    def score_batch(t: pa.Table) -> pa.Table:
        ids, ws, ss, snips = best_passage_rows(
            t.column("text").to_pylist(), t.column("doc_id").to_pylist(), idf
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "window": pa.array(ws, pa.int64()),
                "score": pa.array(ss, pa.float64()),
                "snippet": pa.array(snips, pa.string()),
            }
        )

    return ds.map_batches(score_batch, batch_format="pyarrow")


def _levenshtein1(a: str, b: str) -> bool:
    """edit distance <= 1 (insert/delete/substitute)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # one insertion into a
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


@q(
    "spell_suggest",
    f"""
    WITH toks AS (SELECT unnest({_TOKS}) AS term FROM documents),
    agg AS (SELECT term, count(*) AS ttf FROM toks GROUP BY term)
    SELECT term, ttf FROM agg
    WHERE levenshtein(term, 'mergr') <= 1
    ORDER BY ttf DESC, term LIMIT 5
    """,
)
def spell_suggest(sf_dir: str):
    """Spellcheck/suggest analog (reference SpellCheckComponent.java /
    SuggestComponent.java): candidate terms within edit distance 1 of the
    misspelling, ranked by collection frequency. The vocabulary STAYS a
    Dataset (a web-scale vocab is 10^8 terms — never collected to the
    driver): each batch applies vectorized prefilters (|len(t)-len(q)| ≤ 1
    and first-or-last-char agreement — a single edit can disturb at most
    one end of the string), then the exact edit-distance check runs only
    on the tiny per-batch survivor set; a distributed sort+limit merges
    the final five."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "documents", columns=["text"])

    def toks(t: pa.Table) -> pa.Table:
        out = []
        for txt in t.column("text").to_pylist():
            out += simple_tokenize(txt or "")
        return pa.table({"term": pa.array(out, pa.string())})

    agg = partial_sum_count(
        ds.map_batches(toks, batch_format="pyarrow"), "term", [], count_alias="ttf"
    )
    query = "mergr"

    def cand_filter(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["term"].str.len() - len(query)).abs() <= 1
        m &= (df["term"].str[0] == query[0]) | (df["term"].str[-1] == query[-1])
        sub = df[m]
        if len(sub) == 0:
            return sub
        return sub[[_levenshtein1(t, query) for t in sub["term"]]]

    cands = agg.map_batches(cand_filter, batch_format="pandas")
    return cands.sort(["ttf", "term"], descending=[True, False]).limit(5)


def _soundex(term: str) -> str:
    """American Soundex with h/w transparency (reference
    solr/core analysis PhoneticFilterFactory.java with the
    commons-codec Soundex encoder — encoder table documented there):
    first letter kept, h/w transparent, vowels separate, adjacent equal
    codes collapse (including across the first letter), pad to 4."""
    first = term[0]
    rest = term[1:].replace("h", "").replace("w", "")
    tbl = str.maketrans("bfpvcgjkqsxzdtlmnraeiouyhw", "11112222222233455600000000")
    coded = (first + rest).translate(tbl)
    coded = re.sub(r"(.)\1+", r"\1", coded)  # collapse adjacent duplicates
    digits = coded[1:].replace("0", "")[:3]
    return (first.upper() + digits).ljust(4, "0")


def _soundex_vocab(terms) -> list[str]:
    """The terms Soundex encodes: ASCII lowercase letters only, the oracle's
    ``^[a-z]+$`` (the encoder's translate table is ASCII-only)."""
    return [t for t in terms if re.fullmatch("[a-z]+", t)]


@q(
    "phonetic_soundex_codes",
    f"""
    WITH toks AS (SELECT unnest({_TOKS}) AS term FROM documents),
    td AS (SELECT DISTINCT term FROM toks WHERE regexp_matches(term, '^[a-z]+$')),
    enc AS (SELECT term,
      upper(substr(term, 1, 1)) ||
      rpad(substr(replace(substr(
        regexp_replace(regexp_replace(regexp_replace(regexp_replace(
        regexp_replace(regexp_replace(
          translate(substr(term, 1, 1) || translate(substr(term, 2), 'hw', ''),
                    'bfpvcgjkqsxzdtlmnraeiouyhw',
                    '11112222222233455600000000'),
          '1{{2,}}', '1', 'g'), '2{{2,}}', '2', 'g'), '3{{2,}}', '3', 'g'),
          '4{{2,}}', '4', 'g'), '5{{2,}}', '5', 'g'), '6{{2,}}', '6', 'g'),
        2), '0', ''), 1, 3), 3, '0') AS code
      FROM td)
    SELECT code, count(*) AS n_terms FROM enc GROUP BY code
    """,
)
def phonetic_soundex_codes(sf_dir: str):
    """Phonetic analysis (reference PhoneticFilterFactory.java — Soundex/
    Metaphone token encoding so 'smith' and 'smyth' co-match). Encodes the
    DISTINCT alphabetic vocabulary (``termdf_dataset``: the committed term
    dictionaries stay a Dataset — per batch the encoder is pure string
    table lookups) and reports every code with its distinct-term count —
    terms sharing a code are the classes a phonetic field conflates at
    query time, and hashing ALL codes oracle-checks the encoder on the
    whole vocabulary. Oracle mirrors the encoder with the same
    translate/collapse/pad pipeline in SQL."""
    from ray.data.aggregate import Sum

    from apache___solr_ray.pipelines.indexq import ensure_doc_index, termdf_dataset

    index_dir = ensure_doc_index(sf_dir)
    td = termdf_dataset(index_dir)  # global (term, df): one row per term

    def enc(df: pd.DataFrame) -> pd.DataFrame:
        terms = _soundex_vocab(df["term"])
        codes = pd.Series([_soundex(t) for t in terms], dtype=object)
        g = codes.groupby(codes, sort=False).size().reset_index()
        g.columns = ["code", "n_terms"]
        g["n_terms"] = g["n_terms"].astype(np.int64)
        return g

    agg = (
        td.map_batches(enc, batch_format="pandas")
        .groupby("code")
        .aggregate(Sum("n_terms", alias_name="n_terms"))
    )

    def trim(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("n_terms"),
            "n_terms",
            t.column("n_terms").cast(pa.int64()),
        )

    return agg.map_batches(trim, batch_format="pyarrow")


_COLLATE_MISSPELLED = ["mergr", "joim", "tabl"]


@q(
    "spellcheck_collate",
    f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    agg AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
    c0 AS (SELECT term FROM agg WHERE levenshtein(term, 'mergr') <= 1
           ORDER BY df DESC, term LIMIT 1),
    c1 AS (SELECT term FROM agg WHERE levenshtein(term, 'joim') <= 1
           ORDER BY df DESC, term LIMIT 1),
    c2 AS (SELECT term FROM agg WHERE levenshtein(term, 'tabl') <= 1
           ORDER BY df DESC, term LIMIT 1),
    t AS (SELECT doc_id, list_distinct({_TOKS}) AS toks FROM documents),
    sel AS (SELECT (SELECT term FROM c0) AS t0, (SELECT term FROM c1) AS t1,
                   (SELECT term FROM c2) AS t2)
    SELECT sel.t0 || ' ' || sel.t1 || ' ' || sel.t2 AS collation, h.hits
    FROM sel CROSS JOIN (
      SELECT count(*) AS hits FROM t CROSS JOIN sel s2
      WHERE list_contains(toks, s2.t0) AND list_contains(toks, s2.t1)
        AND list_contains(toks, s2.t2)) h
    """,
)
def spellcheck_collate(sf_dir: str):
    """Spellcheck collation (reference
    solr/core/src/java/org/apache/solr/spelling/SpellCheckCollator.java:
    ``spellcheck.collate`` replaces every misspelled query term with its
    best correction, then RE-QUERIES the index to report the collation's
    verified hit count — a suggestion is only useful if the corrected
    query actually matches). Query: 'mergr joim tabl'. One
    ``IndexReader`` serves it all: per misspelled term, ``expand_fuzzy1``
    takes the edit-distance-1 candidates from the committed term
    dictionary and the best by (df desc, term) comes from ``term_dict``;
    the collation's hits come from a conjunctive ``match_docs`` (AND) —
    exactly the collator's internal re-query."""
    from apache___solr_ray.pipelines.indexq import ensure_doc_index
    from apache___solr_ray.query import IndexReader

    r = IndexReader(ensure_doc_index(sf_dir))
    td = r.term_dict()
    corrections: list[str] = []
    for miss in _COLLATE_MISSPELLED:
        cands = pa.array(r.expand_fuzzy1(miss, _levenshtein1), pa.string())
        best = td.filter(pc.is_in(td["term"], value_set=cands)).sort_by(
            [("df", "descending"), ("term", "ascending")]
        )
        corrections.append(best["term"][0].as_py() if best.num_rows else miss)

    collation = " ".join(corrections)
    hits = len(r.match_docs(collation, mode="and"))
    return pa.table(
        {
            "collation": pa.array([collation], pa.string()),
            "hits": pa.array([hits], pa.int64()),
        }
    )


@q(
    "csv_loader_roundtrip",
    "SELECT event_type, count(*) AS n FROM events GROUP BY event_type",
)
def csv_loader_roundtrip(sf_dir: str):
    """CSVLoader analog (reference CSVLoaderBase.java): export events to CSV,
    re-read with ray.data.read_csv, aggregate. The oracle aggregates the
    PARQUET source — matching it proves the CSV write→parse round-trip
    loses nothing; per-cell equality is additionally pytest-asserted in
    tests/test_sources.py."""
    import duckdb

    from ray.data.aggregate import Count

    from apache___solr_ray.sources import read_csv

    import hashlib

    path = f"/tmp/apache___solr_ray_cache/events_{hashlib.md5(sf_dir.encode()).hexdigest()[:10]}.csv"
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        duckdb.sql(
            f"COPY (SELECT event_id, event_type FROM read_parquet('{sf_dir}/events.parquet') ORDER BY event_id) TO '{path}' (HEADER)"
        )
    ds = read_csv(path)
    return ds.groupby("event_type").aggregate(Count(alias_name="n"))


@q(
    "json_loader_roundtrip",
    "SELECT event_type, count(*) AS n FROM events GROUP BY event_type",
)
def json_loader_roundtrip(sf_dir: str):
    """JsonLoader analog (reference JsonLoader.java, NDJSON update stream):
    export events to NDJSON, re-read with ray.data.read_json, aggregate —
    the parquet-derived oracle proves the NDJSON round-trip exact."""
    import duckdb

    from ray.data.aggregate import Count

    from apache___solr_ray.sources import read_json

    import hashlib

    path = f"/tmp/apache___solr_ray_cache/events_{hashlib.md5(sf_dir.encode()).hexdigest()[:10]}.jsonl"
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        duckdb.sql(
            f"COPY (SELECT event_id, user_id, event_type FROM read_parquet('{sf_dir}/events.parquet') ORDER BY event_id) TO '{path}' (FORMAT JSON)"
        )
    ds = read_json(path)
    return ds.groupby("event_type").aggregate(Count(alias_name="n"))


# -- analysis-chain factory queries (ShingleFilter / Synonym / Stemmer) ------


@q(
    "shingle_bigram_top",
    f"""
    WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    b AS (
      SELECT unnest(list_transform(generate_series(1, len(toks)-1),
                    i -> toks[i] || ' ' || toks[i+1])) AS bigram
      FROM t WHERE len(toks) >= 2
    )
    SELECT bigram, count(*) AS n FROM b GROUP BY bigram
    ORDER BY n DESC, bigram LIMIT 20
    """,
)
def shingle_bigram_top(sf_dir: str):
    """ShingleFilter analog: word-bigram counts — the shingle stage feeds
    phrase-ish statistics (and MinHash shingling reuses the same op)."""
    from collections import Counter as _C

    from ray.data.aggregate import Sum

    from apache___solr_ray.analyze import shingle_filter

    ds = load(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        agg: _C = _C()
        for txt in t.column("text").to_pylist():
            agg.update(shingle_filter(simple_tokenize(txt or ""), 2))
        items = sorted(agg.items())
        return pa.table(
            {
                "bigram": pa.array([k for k, _ in items], pa.string()),
                "pn": pa.array([v for _, v in items], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("pn", alias_name="n"))
    )
    # distributed top-20 over the full bigram vocabulary (10^9+ at web
    # scale): sort+limit, never to_pandas on the unbounded aggregate
    return out.sort(["n", "bigram"], descending=[True, False]).limit(20)


@q(
    "stemmed_term_counts",
    f"""
    WITH toks AS (SELECT unnest({_TOKS}) AS t FROM documents),
    s AS (
      SELECT CASE WHEN len(t) < 4 OR t NOT LIKE '%s' THEN t
                  WHEN t LIKE '%ss' OR t LIKE '%us' THEN t
                  ELSE substr(t, 1, len(t)-1) END AS stem
      FROM toks
    )
    SELECT stem, count(*) AS n FROM s GROUP BY stem
    """,
)
def stemmed_term_counts(sf_dir: str):
    """Minimal plural stemmer (EnglishMinimalStemFilter-style, frozen spec
    in analyze.minimal_plural_stem) over the corpus — the SQL CASE mirrors
    the spec exactly."""
    from collections import Counter as _C

    from ray.data.aggregate import Sum

    from apache___solr_ray.analyze import stem_filter

    ds = load(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        agg: _C = _C()
        for txt in t.column("text").to_pylist():
            agg.update(stem_filter(simple_tokenize(txt or "")))
        items = sorted(agg.items())
        return pa.table(
            {
                "stem": pa.array([k for k, _ in items], pa.string()),
                "pn": pa.array([v for _, v in items], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("stem")
        .aggregate(Sum("pn", alias_name="n"))
    )


_SYNONYMS = {"fast": "quick", "big": "large", "spark": "ray"}


@q(
    "synonym_normalized_counts",
    f"""
    WITH toks AS (SELECT unnest({_TOKS}) AS t FROM documents),
    s AS (
      SELECT CASE t WHEN 'fast' THEN 'quick' WHEN 'big' THEN 'large'
                    WHEN 'spark' THEN 'ray' ELSE t END AS term
      FROM toks
    )
    SELECT term, count(*) AS n FROM s GROUP BY term HAVING count(*) >= 20
    """,
)
def synonym_normalized_counts(sf_dir: str):
    """SynonymGraphFilter (replace-mode) analog: counts after applying a
    literal synonym map; the SQL CASE is the same mapping."""
    from collections import Counter as _C

    from ray.data.aggregate import Sum

    from apache___solr_ray.analyze import synonym_filter

    ds = load(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        agg: _C = _C()
        for txt in t.column("text").to_pylist():
            agg.update(synonym_filter(simple_tokenize(txt or ""), _SYNONYMS))
        items = sorted(agg.items())
        return pa.table(
            {
                "term": pa.array([k for k, _ in items], pa.string()),
                "pn": pa.array([v for _, v in items], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("pn", alias_name="n"))
    )
    return out.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"), 20)), batch_format="pyarrow"
    )


@q(
    "url_classify_docs",
    """
    WITH u AS (
      SELECT doc_id,
             'https://site' || CAST((doc_id * 7919) % 997 AS VARCHAR)
             || '.example/p/' || CAST(doc_id AS VARCHAR)
             || CASE WHEN doc_id % 5 = 0 THEN '/' ELSE '' END AS url
      FROM documents)
    SELECT doc_id,
           regexp_extract(url, '^[a-z][a-z0-9+.-]*://([^/?#]+)', 1) AS url_domain,
           CAST(length(url) AS BIGINT) AS url_length,
           CAST(length(regexp_extract(url, '^[a-z][a-z0-9+.-]*://[^/?#]+(/[^?#]*)?', 1))
                - length(replace(regexp_extract(url, '^[a-z][a-z0-9+.-]*://[^/?#]+(/[^?#]*)?', 1), '/', ''))
                - CASE WHEN regexp_extract(url, '^[a-z][a-z0-9+.-]*://[^/?#]+(/[^?#]*)?', 1) LIKE '%/' THEN 1 ELSE 0 END
                AS BIGINT) AS url_levels,
           CAST(CASE WHEN regexp_extract(url, '^[a-z][a-z0-9+.-]*://[^/?#]+(/[^?#]*)?', 1) IN ('', '/')
                     OR regexp_extract(url, '^[a-z][a-z0-9+.-]*://[^/?#]+(/[^?#]*)?', 1) LIKE '/index.%'
                THEN 1 ELSE 0 END AS BIGINT) AS url_landingpage
    FROM u
    """,
)
def url_classify_docs(sf_dir: str):
    """URLClassifyProcessor URP (reference URLClassifyProcessor.java:
    url_domain / url_length / url_levels / url_landingpage) over a
    deterministic synthesized url per doc (the corpus url pattern);
    all derivations are vectorized Arrow string/regex kernels."""
    from apache___solr_ray.stages.urp import url_classify

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        urls = [
            f"https://site{(i * 7919) % 997}.example/p/{i}" + ("/" if i % 5 == 0 else "")
            for i in ids
        ]
        return pa.table({"doc_id": t.column("doc_id"), "url": pa.array(urls, pa.string())})

    out = ds.map_batches(synth, batch_format="pyarrow").map_batches(
        url_classify("url"), batch_format="pyarrow"
    )
    return out.select_columns(
        ["doc_id", "url_domain", "url_length", "url_levels", "url_landingpage"]
    )


@q(
    "multimodal_audio_features",
    f"""
    SELECT doc_id,
           CAST(1 + {_HEXB.format(i=5)} % 600 AS BIGINT) AS duration_ds,
           {_HEXB.format(i=1)} / 255.0 AS f0,
           {_HEXB.format(i=3)} / 255.0 AS f1,
           {_HEXB.format(i=5)} / 255.0 AS f2,
           {_HEXB.format(i=7)} / 255.0 AS f3
    FROM documents
    """,
)
def multimodal_audio_features(sf_dir: str):
    """Audio featurize plumbing (task brief: audio decode/feature-extract
    as actor-pool map_batches): binary payloads through the
    FakeAudioFeaturizer actor pool — schema, batching and actor shape are
    real; the featurizer is the documented deterministic stub (no audio
    libs in this container). Duration is emitted in integer deciseconds so
    the oracle comparison is exact."""
    from apache___solr_ray.stages.multimodal import FakeAudioFeaturizer

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        payload = pa.array([x.encode() for x in t.column("text").to_pylist()], pa.binary())
        return pa.table({"doc_id": t.column("doc_id"), "payload": payload})

    out = ds.map_batches(to_payload, batch_format="pyarrow").map_batches(
        FakeAudioFeaturizer, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    )

    def proj(t: pa.Table) -> pa.Table:
        frames = t.column("frames").combine_chunks()
        F = np.array(frames.to_pylist(), dtype=np.float64)
        dur = np.round(
            t.column("duration_sec").to_numpy(zero_copy_only=False) * 10.0
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "duration_ds": pa.array(dur),
                "f0": pa.array(F[:, 0]),
                "f1": pa.array(F[:, 1]),
                "f2": pa.array(F[:, 2]),
                "f3": pa.array(F[:, 3]),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


@q(
    "xml_loader_roundtrip",
    "SELECT event_type, count(*) AS n, CAST(sum(user_id) AS BIGINT) AS sum_user FROM events GROUP BY event_type",
)
def xml_loader_roundtrip(sf_dir: str):
    """XMLLoader analog (reference XMLLoader.java <add><doc> payloads):
    export events to Solr add-XML shards, re-read with read_xml_adds
    (parallel per-file parse, all-string fields), type-cast with the urp
    Parse* stages, aggregate — oracle-checked against the parquet
    source."""
    import hashlib

    from ray.data.aggregate import Count, Sum

    from apache___solr_ray.sources import load_arrow, read_xml_adds, write_xml_add

    # Cache key covers the source file's size+mtime (as ensure_doc_index
    # does) so a regenerated corpus at the same path doesn't reuse stale XML.
    src = os.path.join(sf_dir, "events.parquet")
    st = os.stat(src)
    fp = f"{sf_dir}:{st.st_size}:{st.st_mtime_ns}"
    base = f"/tmp/apache___solr_ray_cache/events_xml_{hashlib.md5(fp.encode()).hexdigest()[:10]}"
    if not os.path.exists(os.path.join(base, "shard-1.xml")):
        os.makedirs(base, exist_ok=True)
        t = load_arrow(sf_dir, "events", columns=["event_id", "user_id", "event_type"])
        half = t.num_rows // 2
        # write shard-1 LAST and atomically: its existence is the commit marker
        for name, tbl in (("shard-0.xml", t.slice(0, half)), ("shard-1.xml", t.slice(half))):
            tmp = os.path.join(base, name + ".tmp")
            write_xml_add(tbl, tmp)
            os.replace(tmp, os.path.join(base, name))
    ds = read_xml_adds([os.path.join(base, "shard-0.xml"), os.path.join(base, "shard-1.xml")])

    def typed(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "user_id": pc.cast(t.column("user_id"), pa.int64()),
            }
        )

    return (
        ds.map_batches(typed, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("user_id", alias_name="sum_user"))
    )


# -- dictionary text tagger (SolrTextTagger module) ---------------------------


def _tagger_oracle_sql() -> str:
    from apache___solr_ray.stages.tagger import TAGGER_DICT

    parts = []
    for terms in TAGGER_DICT:
        tag = " ".join(terms)
        joins = "".join(
            f" JOIN toks t{i} ON t{i}.doc_id = t0.doc_id AND t{i}.pos = t0.pos + {i}"
            for i in range(1, len(terms))
        )
        conds = " AND ".join(f"t{i}.term = '{t}'" for i, t in enumerate(terms))
        parts.append(
            f"SELECT '{tag}' AS tag, t0.doc_id, t0.pos AS start_pos,"
            f" t0.pos + {len(terms)} AS end_pos FROM toks t0{joins} WHERE {conds}"
        )
    body = "\n    UNION ALL\n    ".join(parts)
    return f"""
    WITH toks AS (
      SELECT doc_id, unnest({_TOKS}) AS term,
             unnest(range(len({_TOKS}))) AS pos
      FROM documents
    )
    {body}
    """


@q("tagger_dict_matches", _tagger_oracle_sql())
def tagger_dict_matches(sf_dir: str):
    """SolrTextTagger analog, overlaps=ALL (reference tagger module /
    TaggerRequestHandler: stream text past a dictionary, emit every
    dictionary-phrase occurrence with token offsets). Distributed as one
    ``map_batches`` over ``documents`` with the dictionary compiled once
    per actor (``DictionaryTagger.__init__``); matching is numpy windowed
    equality over dictionary-encoded token codes — no Python token loop."""
    from apache___solr_ray.stages.tagger import DictionaryTagger

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(DictionaryTagger, batch_format="pyarrow", concurrency=(1, 8))


@q("tagger_ldr_matches")  # greedy overlap resolution isn't SQL-expressible
def tagger_ldr_matches(sf_dir: str):
    """Tagger with LONGEST_DOMINANT_RIGHT overlap resolution (the
    reference's default mode) — ALL matches then per-doc suppression;
    exact semantics pytest-asserted vs a brute reference
    (tests/test_tagger.py)."""
    from apache___solr_ray.stages.tagger import DictionaryTaggerLDR

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(DictionaryTaggerLDR, batch_format="pyarrow", concurrency=(1, 8))


@q(
    "urp_regex_redact",
    """
    SELECT doc_id, regexp_replace(text, '[0-9]+', '#', 'g') AS redacted
    FROM documents WHERE doc_id < 100
    """,
)
def urp_regex_redact(sf_dir: str):
    """RegexReplaceProcessorFactory analog (reference
    solr/core/src/java/org/apache/solr/update/processor/RegexReplaceProcessorFactory.java:
    pattern/replacement rewrite of a field at ingest) — the redaction /
    PII-scrub shape of a training-data pipeline: one vectorized
    ``replace_substring_regex`` per batch, no Python per row."""
    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def redact(t: pa.Table) -> pa.Table:
        keep = pc.less(t.column("doc_id"), 100)
        t = t.filter(keep)
        red = pc.replace_substring_regex(t.column("text"), pattern="[0-9]+", replacement="#")
        return pa.table({"doc_id": t.column("doc_id"), "redacted": red})

    return ds.map_batches(redact, batch_format="pyarrow")


@q(
    "quality_model_scores",
    f"""
    WITH f AS (
      SELECT doc_id,
             CAST(len({_TOKS}) AS DOUBLE) AS n_tokens,
             CAST(len(list_distinct({_TOKS})) AS DOUBLE) AS n_unique,
             floor((length(regexp_replace(text, '[^0-9]', '', 'g')) * 1.0
                    / greatest(length(text), 1)) * 10000 + 0.5) / 10000.0 AS digit_r
      FROM documents),
    z AS (
      SELECT doc_id,
             -1.5 + 0.55*ln(1 + n_tokens) + (-8.0)*digit_r
                  + 2.0*(n_unique / greatest(n_tokens, 1.0)) AS z
      FROM f)
    SELECT doc_id, floor((1.0/(1.0 + exp(-z))) * 10000 + 0.5) / 10000.0 AS quality_score
    FROM z
    """,
)
def quality_model_scores(sf_dir: str):
    """Batched model inference over the corpus (the training-data-pipeline
    quality-classifier stage; engine analog: ClassificationUpdateProcessor
    scoring at ingest, reference ClassificationUpdateProcessorFactory.java).
    Deterministic logistic model in an ACTOR POOL (`QualityModelScorer`:
    weights load once per actor in __init__, vectorized scoring per batch);
    the DuckDB oracle recomputes the same DOUBLE formula."""
    from apache___solr_ray.stages.textstats import QualityModelScorer

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(QualityModelScorer, batch_format="pyarrow", concurrency=(1, 8))


@q(
    "mlt_interesting_terms",
    f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    src AS (SELECT term, count(*) AS tf FROM toks WHERE doc_id = 7 GROUP BY term),
    df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
    n AS (SELECT count(*) AS n FROM documents)
    SELECT s.term, CAST(s.tf AS BIGINT) AS tf, CAST(df.df AS BIGINT) AS df,
           floor(s.tf * ln(n.n * 1.0 / df.df) * 10000 + 0.5) / 10000.0 AS score
    FROM src s JOIN df USING (term) CROSS JOIN n
    ORDER BY score DESC, s.term LIMIT 10
    """,
)
def mlt_interesting_terms(sf_dir: str):
    """MoreLikeThis ``mlt.interestingTerms=details`` analog (reference
    MoreLikeThisComponent.java / Lucene MoreLikeThis#retrieveInterestingTerms:
    the source doc's terms ranked by tf·idf, the terms the MLT query is
    built from). tf comes from the source doc alone; df from one
    distributed term-df aggregate semi-joined (broadcast) to the source's
    tiny term set; score = tf·ln(N/df) floor-rounded 4dp."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Count

    from apache___solr_ray.pipelines.common import semi_join_filter

    src_path = os.path.join(sf_dir, "documents.parquet")
    pf = pq.ParquetFile(src_path)
    n_docs = pf.metadata.num_rows
    t7 = pq.read_table(src_path, columns=["doc_id", "text"], filters=[("doc_id", "=", 7)])
    tf = dict(Counter(simple_tokenize(t7.column("text")[0].as_py() or "")))

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    dfds = (
        ds.map_batches(_term_tuples, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Count(alias_name="df"))
    )
    rows = semi_join_filter(dfds, "term", list(tf)).take_all()
    out = []
    for r in rows:
        t, df_ = r["term"], int(r["df"])
        score = np.floor(tf[t] * np.log(n_docs * 1.0 / df_) * 1e4 + 0.5) / 1e4
        out.append((t, int(tf[t]), df_, float(score)))
    out.sort(key=lambda x: (-x[3], x[0]))
    out = out[:10]
    return pa.table(
        {
            "term": pa.array([x[0] for x in out], pa.string()),
            "tf": pa.array([x[1] for x in out], pa.int64()),
            "df": pa.array([x[2] for x in out], pa.int64()),
            "score": pa.array([x[3] for x in out], pa.float64()),
        }
    )


# the image corpus must exist before the DRIVER's oracle SQL (which reads
# the fixed parquet path) regardless of query/oracle execution order —
# building it is idempotent, atomic and sub-second
try:
    ensure_image_corpus()
    ensure_audio_corpus()
    ensure_video_corpus()
except OSError:  # read-only /tmp etc. — the entry itself will retry
    pass


@q(
    "training_mix_quota_sample",
    f"""
    WITH d AS (
      SELECT doc_id, source, len({_TOKS})::BIGINT AS n_tokens,
             ('0x' || substr(md5(cast(doc_id AS VARCHAR)), 1, 8))::UBIGINT AS h
      FROM documents
    ), w AS (
      SELECT doc_id, source, n_tokens,
             SUM(n_tokens) OVER (
               PARTITION BY source ORDER BY h, doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prior
      FROM d
    )
    SELECT doc_id, source, n_tokens
    FROM w WHERE COALESCE(prior, 0) < 600
    ORDER BY doc_id
    """,
)
def training_mix_quota_sample(sf_dir: str):
    """Training-mix construction: sample documents per source up to a
    per-source TOKEN quota (the mixing step of LLM corpus prep — fix a
    token budget per domain, then take a deterministic uniform sample of
    each domain until its budget fills; e.g. Dolma/RedPajama-style mix
    tables, public). Deterministic 'random' order = md5(doc_id) — seeded,
    resumable, and reproducible in SQL. One map_batches computes token
    counts + hash keys (the corpus text never shuffles); ONE hash
    shuffle on source partitions the budget scan; inside a partition the
    per-source cumulative sum is pandas C kernels over whole groups. A
    doc is kept while the budget is not yet exhausted BEFORE it (so the
    quota may overshoot by at most one doc — the reference-free contract
    stated by the oracle's window)."""
    import hashlib

    from apache___solr_ray.analyze import simple_tokenize
    from apache___solr_ray.pipelines.common import grouped_map

    QUOTA = 600
    ds = load(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def prep(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        toks = [len(simple_tokenize(s)) for s in t.column("text").to_pylist()]
        hs = [int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) for i in ids]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "source": t.column("source"),
                "n_tokens": pa.array(toks, pa.int64()),
                "h": pa.array(hs, pa.uint64()),
            }
        )

    def budget_scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "h", "doc_id"], kind="mergesort")
        prior = (
            df.groupby("source", sort=False)["n_tokens"].cumsum() - df["n_tokens"]
        )
        keep = df[prior < QUOTA]
        return keep[["doc_id", "source", "n_tokens"]]

    return grouped_map(ds.map_batches(prep, batch_format="pyarrow"), "source", budget_scan)


_CONTAM_GRAM = 3  # shingle width; production decontamination uses 8-13
# (3 here so the synthetic corpus, whose text is short random phrases,
#  actually exhibits overlap — the plan is width-independent)


@q(
    "benchmark_contamination_stats",
    f"""
    WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    sh AS (
      SELECT doc_id, CASE WHEN len(toks) >= {_CONTAM_GRAM}
               THEN list_transform(range(1, len(toks) - {_CONTAM_GRAM} + 2),
                    i -> array_to_string(toks[i:i+{_CONTAM_GRAM}-1], ' '))
               ELSE [] END AS grams
      FROM t),
    bench AS (
      SELECT DISTINCT unnest(grams) AS gram FROM sh WHERE doc_id % 199 = 0),
    corpus AS (
      SELECT doc_id, unnest(grams) AS gram FROM sh WHERE doc_id % 199 <> 0),
    hits AS (
      SELECT c.doc_id,
             count(*) AS n_grams,
             count(*) FILTER (c.gram IN (SELECT gram FROM bench)) AS n_hit
      FROM corpus c GROUP BY c.doc_id)
    SELECT doc_id, n_grams, n_hit,
           floor(n_hit * 10000.0 / n_grams + 0.5) / 10000.0 AS contamination
    FROM hits WHERE n_hit > 0
    """,
)
def benchmark_contamination_stats(sf_dir: str):
    """Benchmark decontamination (the training-data-pipeline op behind
    GPT-3/Llama data prep: drop or flag training docs sharing long
    n-grams with an evaluation set; same shape as the reference's
    cross-collection JoinQParser semi-join, JoinQParserPlugin.java).
    'Benchmark' = every doc with doc_id % 199 == 0 (deterministic
    held-out slice); for every OTHER doc, count its {n}-token shingles
    that appear in the benchmark shingle set and report the contaminated
    docs with their overlap fraction.

    Scale shape: the benchmark gram set is the SMALL side — built with
    one pruned pass + local dedup, broadcast ONCE via ray.put as an
    Arrow string array; each corpus batch shingles its docs, probes the
    broadcast set with the C-level ``pc.is_in`` kernel over the
    flattened gram column, and segment-sums hits per doc (np.add.reduceat
    — no per-gram Python). One streaming pass over the corpus, no
    shuffle at all.""".replace("{n}", str(_CONTAM_GRAM))
    import ray

    from apache___solr_ray.analyze import simple_tokenize

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def doc_grams(toks: list[str]) -> list[str]:
        if len(toks) < _CONTAM_GRAM:
            return []
        return [
            " ".join(toks[i : i + _CONTAM_GRAM])
            for i in range(len(toks) - _CONTAM_GRAM + 1)
        ]

    # small side: benchmark grams (pruned read + per-batch dedup, tiny)
    def bench_grams(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        sel = ids % 199 == 0
        grams: set[str] = set()
        for txt in t.filter(pa.array(sel)).column("text").to_pylist():
            grams.update(doc_grams(simple_tokenize(txt or "")))
        return pa.table({"gram": pa.array(sorted(grams), pa.string())})

    bench = set()
    for b in ds.map_batches(bench_grams, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        bench.update(b.column("gram").to_pylist())
    bench_ref = ray.put(pa.array(sorted(bench), pa.string()))

    class Prober:
        def __init__(self):
            self.bench = ray.get(bench_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy()
            keep = ids % 199 != 0
            ids = ids[keep]
            texts = t.filter(pa.array(keep)).column("text").to_pylist()
            per_doc = [doc_grams(simple_tokenize(x or "")) for x in texts]
            counts = np.array([len(g) for g in per_doc], dtype=np.int64)
            flat = pa.array(
                [g for gs in per_doc for g in gs], pa.string()
            )
            hit = pc.is_in(flat, value_set=self.bench).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            offs = np.zeros(len(per_doc) + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            nz = counts > 0
            hits = np.zeros(len(per_doc), dtype=np.int64)
            if nz.any() and len(hit):
                hits[nz] = np.add.reduceat(hit, offs[:-1][nz])
            m = hits > 0
            contam = np.floor(hits[m] * 10000.0 / counts[m] + 0.5) / 10000.0
            return pa.table(
                {
                    "doc_id": pa.array(ids[m], pa.int64()),
                    "n_grams": pa.array(counts[m], pa.int64()),
                    "n_hit": pa.array(hits[m], pa.int64()),
                    "contamination": pa.array(contam, pa.float64()),
                }
            )

    return ds.map_batches(Prober, batch_format="pyarrow", concurrency=(1, 8))


@q(
    "suggest_freetext_next",
    f"""
    WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
    b AS (
      SELECT unnest(list_transform(generate_series(1, len(toks)-1),
                    i -> toks[i] || ' ' || toks[i+1])) AS bigram
      FROM t WHERE len(toks) >= 2
    ),
    agg AS (SELECT bigram, count(*) AS n FROM b GROUP BY bigram)
    SELECT substr(bigram, 6) AS suggestion, n FROM agg
    WHERE bigram LIKE 'fast %'
    ORDER BY n DESC, suggestion LIMIT 5
    """,
)
def suggest_freetext_next(sf_dir: str):
    """FreeText suggester (reference
    solr/core/src/java/org/apache/solr/spelling/suggest/fst/FreeTextLookupFactory.java
    — Lucene FreeTextSuggester: an n-gram language model over the corpus
    proposes the next token for a typed context). Context 'fast': top-5
    next tokens by bigram frequency (ties lexicographic). The bigram LM
    is the ShingleFilter partial+combine pipeline; the context filter
    prunes INSIDE the partial pass so only 'fast *' rows ever reach the
    shuffle."""
    from collections import Counter as _C

    from ray.data.aggregate import Sum

    from apache___solr_ray.analyze import simple_tokenize

    ds = load(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        c: _C = _C()
        for txt in t.column("text").to_pylist():
            toks = simple_tokenize(txt or "")
            for a, b in zip(toks, toks[1:]):
                if a == "fast":
                    c[b] += 1
        items = sorted(c.items())
        return pa.table(
            {
                "suggestion": pa.array([k for k, _ in items], pa.string()),
                "pn": pa.array([v for _, v in items], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("suggestion")
        .aggregate(Sum("pn", alias_name="n"))
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("n"), "n", t.column("n").cast(pa.int64())
            ),
            batch_format="pyarrow",
        )
    )
    return out.sort(["n", "suggestion"], descending=[True, False]).limit(5)


@q(
    "training_corpus_prep_decontaminated",
    f"""
    WITH t AS (
      SELECT doc_id, lang, {_TOKS} AS toks,
             regexp_replace(text, '[0-9]+', '#', 'g') AS red
      FROM documents),
    f AS (
      SELECT * FROM t
      WHERE len(toks) >= 10 AND 10 * len(list_distinct(toks)) >= 5 * len(toks)),
    d AS (SELECT min(doc_id) AS doc_id FROM f GROUP BY red),
    sh AS (
      SELECT doc_id, CASE WHEN len(toks) >= {_CONTAM_GRAM}
               THEN list_transform(range(1, len(toks) - {_CONTAM_GRAM} + 2),
                    i -> array_to_string(toks[i:i+{_CONTAM_GRAM}-1], ' '))
               ELSE [] END AS grams
      FROM t),
    bench AS (
      SELECT DISTINCT unnest(grams) AS gram FROM sh WHERE doc_id % 199 = 0),
    contaminated AS (
      SELECT DISTINCT doc_id FROM (
        SELECT doc_id, unnest(grams) AS gram FROM sh WHERE doc_id % 199 <> 0)
      WHERE gram IN (SELECT gram FROM bench))
    SELECT f.doc_id, f.lang,
           CAST(len(f.toks) AS BIGINT) AS n_tokens,
           CAST(length(f.red) AS BIGINT) AS n_chars_red
    FROM f JOIN d USING (doc_id)
    WHERE f.doc_id % 199 <> 0
      AND f.doc_id NOT IN (SELECT doc_id FROM contaminated)
    """,
)
def training_corpus_prep_decontaminated(sf_dir: str):
    """The composed LLM-corpus pipeline WITH decontamination: quality
    gate → digit-redact → exact-dedup (``training_corpus_prep``) then
    drop (a) the benchmark slice itself and (b) every doc the n-gram
    overlap pass flags (``benchmark_contamination_stats``) — the standard
    GPT-3/Llama data-prep ordering. The contaminated id set is small by
    construction (docs sharing long n-grams with a benchmark); it and
    the benchmark filter apply as one vectorized anti-join mask per
    batch. At 100 TB the id set would flow through the same
    hash-partition anti-join used by ``anti_join_customers_without_orders``
    instead of a broadcast — the composition is unchanged."""
    import pyarrow.compute as _pc

    prep = training_corpus_prep(sf_dir)
    contaminated = benchmark_contamination_stats(sf_dir).select_columns(["doc_id"])
    bad = set(
        int(r["doc_id"]) for b in contaminated.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    )
    import ray

    bad_ref = ray.put(pa.array(sorted(bad), pa.int64()))

    def drop(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id")
        idv = ids.to_numpy(zero_copy_only=False)
        keep = (
            ~_pc.is_in(ids, value_set=ray.get(bad_ref)).to_numpy(
                zero_copy_only=False
            )
        ) & (idv % 199 != 0)
        return t.filter(pa.array(keep))

    return prep.map_batches(drop, batch_format="pyarrow")


@q(
    "perplexity_bucket_stats",
    f"""
    WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
    tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM toks),
    tf AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
    lp AS (SELECT t.doc_id,
             floor(avg(ln(tf.c / tot.n)) * 10000 + 0.5) / 10000 AS lp
           FROM toks t JOIN tf USING (term) CROSS JOIN tot GROUP BY t.doc_id),
    j AS (SELECT d.lang, lp.doc_id, lp.lp
          FROM lp JOIN documents d USING (doc_id)),
    b AS (SELECT lang, doc_id, lp,
                 ntile(3) OVER (PARTITION BY lang ORDER BY lp, doc_id) AS bucket
          FROM j)
    SELECT lang, CAST(bucket AS BIGINT) AS bucket, count(*) AS n_docs,
           CAST(sum(CAST(round(lp * 10000) AS BIGINT)) AS BIGINT) AS lp_sum_e4
    FROM b GROUP BY lang, bucket
    """,
)
def perplexity_bucket_stats(sf_dir: str):
    """CCNet head/middle/tail split (Wenzek et al. 2020 — the reference
    LLM-corpus recipe: per-language, rank documents by LM score and cut
    the corpus into perplexity terciles; 'head' trains, 'tail' is
    filtered). LM score = the oracle-checked unigram logprob
    (``doc_unigram_logprob``); ranking is per-lang (score, doc_id) and
    the tercile is SQL's NTILE(3) reproduced exactly (first n%%3 buckets
    take the extra doc). Emits per (lang, bucket) the doc count AND the
    order-sensitive integer checksum of member scores — equal counts
    with wrong membership cannot pass.

    Distributed shape: logprob rows cogroup with (doc_id, lang) via ONE
    doc-hash grouped_map (tagged-union merge — the lang column is
    corpus-sized, so it is NEVER broadcast), then a lang-hash grouped_map
    ranks each language's docs with vectorized numpy and emits bucket
    partials. Two hash exchanges total, both key-pruned columns only."""
    from apache___solr_ray.pipelines.common import grouped_map

    lp_ds = doc_unigram_logprob(sf_dir)

    def tag_lp(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lp": t.column("logprob"),
                "lang": pa.array([None] * t.num_rows, pa.string()),
            }
        )

    lang_ds = load(sf_dir, "documents", columns=["doc_id", "lang"])

    def tag_lang(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lp": pa.array([None] * t.num_rows, pa.float64()),
                "lang": t.column("lang"),
            }
        )

    union = lp_ds.map_batches(tag_lp, batch_format="pyarrow").union(
        lang_ds.map_batches(tag_lang, batch_format="pyarrow")
    )

    def merge_doc(df: pd.DataFrame) -> pd.DataFrame:
        # groupby.first skips nulls: each doc has one lp row + one lang row
        g = df.groupby("doc_id", sort=False).agg(
            lp=("lp", "first"), lang=("lang", "first")
        )
        g = g.dropna().reset_index()
        return g

    joined = grouped_map(union, "doc_id", merge_doc)

    def buckets(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, g in df.groupby("lang", sort=False):
            g = g.sort_values(["lp", "doc_id"], kind="mergesort")
            n = len(g)
            q, r = divmod(n, 3)
            pos = np.arange(n)
            if q == 0:
                bucket = pos + 1
            else:
                first = r * (q + 1)
                bucket = np.where(
                    pos < first, pos // (q + 1) + 1, r + (pos - first) // q + 1
                )
            e4 = np.round(g["lp"].to_numpy() * 10000).astype(np.int64)
            sub = pd.DataFrame({"bucket": bucket.astype(np.int64), "e4": e4})
            agg = sub.groupby("bucket", as_index=False).agg(
                n_docs=("e4", "size"), lp_sum_e4=("e4", "sum")
            )
            agg.insert(0, "lang", lang)
            rows.append(agg)
        out = pd.concat(rows, ignore_index=True)
        out["n_docs"] = out["n_docs"].astype(np.int64)
        out["lp_sum_e4"] = out["lp_sum_e4"].astype(np.int64)
        return out

    return grouped_map(joined, "lang", buckets)
