"""The distributed index build — a Ray Data pipeline.

Ray-native restatement of the reference indexing path (SURVEY §3.1:
``/update`` → URP chain → analysis → IndexWriter RAM buffer → flushed
segments → merge), re-planned for batch Parquet input:

Phase A  (per doc-partition; the partition descriptors run as a few
CPU-sized Ray Data blocks, see ``_run_stage``):
    stream the partition's row groups → HTML→text extract → analyze
    (tokenize/lower, positions encoded by the codec) → assign dense doc
    ids → write ``docs/part-*.parquet`` (url, doc_len, lang,
    ``len_f_<field>`` per named field, and ``sortv`` with a sort field)
    and ``postings_raw/part-*.parquet`` (term, row, tf[, pos]: what phase
    B reads), plus a lineage manifest. Term statistics are not written
    here: the committed
    segments' term dictionaries are the one vocabulary
    (``IndexReader.term_dict``), so a merge can never leave them stale.
    A partition whose manifest matches its input fingerprint is not
    dispatched on resume — the "no re-tokenizing completed partitions"
    checkpoint; the persisted postings_raw is the Lucene flushed-segment
    analog.

Phase B  (the term-hash shuffle, through shared storage): phase A already
    wrote each part's postings SORTED by tkey with Parquet row-group
    boundaries aligned to tkey runs, and recorded the (row-group, n_rows)
    map per tkey in its lineage manifest, whose contents are also the
    part's summary row that phase B plans from. Phase B is then an
    embarrassingly parallel stage over the (tkey, salt) segment plan: each
    segment takes exactly its bucket's row groups from every part file
    (column pruning + row-group pruning — no object-store all-to-all at
    all). Segments run as a few CPU-sized blocks, not one task per
    segment, and a block encodes its segments in *encode batches* (Lucene
    likewise flushes a whole RAM buffer's postings in one pass):
    consecutive segments whose summed postings stay within
    ``max_postings_per_segment`` are read with one ``read_row_groups`` per
    part file, sorted once and encoded with one
    ``segment.build_segments_from_group`` call, which splits the payloads
    into segments, and written as one pack (``segment.write_segment``: a
    ``.tdict`` of every member's dictionary plus a table of contents, and
    a ``.post`` of their postings); merges write through the same encoder
    and writer. Skew
    handling is uniform *doc-range splitting*: a bucket whose total
    postings exceed ``max_postings_per_segment`` is split into contiguous
    part-range chunks (salt = chunk index) — sub-segments stay
    doc-ordered, so query-side views concatenate for free — so that cap
    bounds a batch's memory too. A segment is named by its input lineage
    and a pack is never rewritten once committed. One plan rule
    (``_plan_phase_b``) reuses what whole packs on disk hold (their tables
    of contents, committed or not): a planned segment whose sources are
    all a stored segment's resumes and is not dispatched; one whose
    sources *start with* a stored segment's (an upsert's part joins a
    tkey's last salt chunk) is dispatched with that segment as its *base*
    and reads only the newer parts' row groups, and the encode batch
    extends the base — its bytes kept, each term's complete blocks
    included, only the new postings and the partial blocks they continue
    encoded — to the bytes encoding every source would give; any other
    segment encodes every source. Stage rows travel as JSON dicts
    (``_run_stage``), so a segment's record goes from the encoder to the
    commit unchanged.
    Shuffle bytes ride
    the shared filesystem that already holds phase A's outputs and the
    segments, not RAM.

Commit: one atomic ``index_manifest.json`` swap (the segments_N
pointer-swap analog) listing each segment's record, the one its pack's
table of contents stores (``segment.write_segment``), in
``segment.doc_order``, the collection stats (the
ExactStatsCache global stats, reference ``CollectionStats.java:24-27``),
which count deleted docs until a purge merge as Lucene's do, and the
delete set, carried over from the previous commit (``_carry_deletes``).
Only after the swap are the files under ``segments/`` that the commit does
not name removed; readers of the previous commit keep the files they mapped.
The phase-A files of a part id past the commit's ``n_doc_parts`` (an
earlier layout's) and tmp files an interrupted part left go then too
(``_drop_stale_parts``).

Doc-id assignment: ``doc_id = part_id << 32 | row_in_partition`` where
partitions are deterministic (sorted file paths × row-group ranges). Unlike
the reference's murmur3 HTTP routing (``HashBasedRouter.java:28-62``), a
batch build reads immutable files, so arrival order IS a stable identity —
no doc shuffle is needed at all, which removes the largest all-to-all
exchange from the job. Scores never depend on placement, only tie-break
order does, and that is fixed by the deterministic partition plan.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import pyarrow.compute as pc
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from apache___solr_ray.analyze import Analyzer
from apache___solr_ray.extract import extract_batch
from apache___solr_ray.lucene import int_to_byte4_array
from apache___solr_ray.manifest import (
    collection_stats,
    docs_stamp,
    input_fingerprint,
    is_valid,
    read_json,
    write_json_atomic,
)
from apache___solr_ray.segment import (
    FORMAT_VERSION,
    build_segments_from_group,
    doc_order,
    drop_uncommitted,
    open_segments,
    pack_bytes,
    stored_segments,
    term_hash,
    write_segment,
)


def _limit_threads() -> None:
    """Pin Arrow's internal pools to the task's 1-CPU allocation.

    Arrow defaults its compute/IO pools to the MACHINE core count, so every
    Ray task would silently oversubscribe (and the 8-CPU scaling level would
    borrow all 32 cores) — parallelism must come from Ray's scheduler only.
    """
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)


#: blocks per cluster CPU for every build and merge stage: enough to keep
#: each CPU busy past an uneven block, few enough that Ray Data's per-task
#: cost stays small beside the work (the bounded merge-thread pool of
#: Lucene's ConcurrentMergeScheduler, not a task per segment)
BLOCKS_PER_CPU = 4


def _cluster_cpus() -> int:
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _run_stage(rows: list[dict], fn) -> tuple[list[dict], int]:
    """Run one build or merge stage: ``rows`` (JSON-able dicts) split into
    ``min(len(rows), BLOCKS_PER_CPU * cluster CPUs)`` Ray Data blocks, each
    block's rows handed whole to ``fn`` (a list of dicts → list of dicts
    function). Rows travel as JSON text, so a stage has no schema to keep.
    Returns (output rows, blocks dispatched)."""
    import ray.data as rd

    if not rows:
        return [], 0

    def run(batch: pa.Table) -> pa.Table:
        out = fn([json.loads(r) for r in batch.column("row").to_pylist()])
        return pa.table({"row": pa.array([json.dumps(r) for r in out], pa.string())})

    n_blocks = min(len(rows), BLOCKS_PER_CPU * _cluster_cpus())
    ds = rd.from_items([{"row": json.dumps(r)} for r in rows], override_num_blocks=n_blocks)
    out = ds.map_batches(run, batch_format="pyarrow", batch_size=None).take_all()
    return [json.loads(r["row"]) for r in out], n_blocks


@dataclass(frozen=True)
class FieldSpec:
    """One indexed field of the schema (reference: IndexSchema.java field
    declarations + FieldProperties). ``source`` is the corpus column the
    field's text comes from; ``copy_sources`` (copyField analog,
    DocumentBuilder.java:183-230) makes this field index the concatenation
    of OTHER fields' source text instead — token positions continue across
    the copied sources (posIncrementGap=0, documented divergence from
    Solr's default 100 for multivalued fields)."""

    name: str
    source: str = ""                      # corpus column; "" -> copy-only field
    copy_sources: tuple[str, ...] = ()    # field NAMES whose text fans in

    def key(self) -> str:
        return f"{self.name}<{self.source}|{','.join(self.copy_sources)}"


@dataclass(frozen=True)
class IndexConfig:
    """Build configuration (the solrconfig.xml/schema analog)."""

    term_partitions: int = 32          # T: term-hash shuffle width
    target_docs_per_part: int = 65_536  # phase-A doc-partition size
    text_from_html: bool = True        # extract text from html (the real path)
    max_postings_per_segment: int = 16_000_000  # doc-range split threshold
    #: index token positions (Lucene text-field default; enables phrase
    #: queries). Off = omitTermFreqAndPositions-style slimmer postings.
    store_positions: bool = True
    #: multi-field schema (IndexSchema analog). Empty = the single implicit
    #: ``text`` field (from html or the text column per text_from_html).
    #: Non-empty: each field's terms are keyed ``<field>:<term>`` in the
    #: shared term space (the term dict sorts by (field, term), as Lucene's
    #: per-field terms do) with per-field collection stats for BM25.
    fields: tuple[FieldSpec, ...] = ()
    #: index-time sort (Lucene IndexSorter / <indexSort> analog): rows of
    #: each doc partition are sorted by this numeric corpus column before
    #: doc-id assignment, per-part (min,max) ranges land in the manifest,
    #: and sorted top-k queries early-terminate at part granularity
    #: (IndexReader.sorted_topk). Requires materializing one partition per
    #: task (the Lucene flush-time sort) — size target_docs_per_part to the
    #: worker heap when rows are wide.
    sort_field: str | None = None
    sort_desc: bool = True

    def fingerprint(self) -> str:
        return (
            f"T={self.term_partitions};"
            f"part={self.target_docs_per_part};stop=[];"
            f"html={self.text_from_html};pos={int(self.store_positions)};"
            f"flds=[{';'.join(f.key() for f in self.fields)}];fmt=9"
            + (f";sort={self.sort_field}:{int(self.sort_desc)}" if self.sort_field else "")
        )

    def fingerprint_full(self) -> str:
        """Adds phase-B-only knobs and the segment format — used by the
        committed index manifest (segment layout), while per-part manifests
        use ``fingerprint()`` so phase-A outputs survive a phase-B
        reconfiguration or a segment format change."""
        return (
            f"{self.fingerprint()};maxpost={self.max_postings_per_segment};"
            f"seg={FORMAT_VERSION}"
        )


def _schema_columns(cfg: IndexConfig) -> list[str]:
    """Corpus columns phase A must read for the configured schema."""
    extra = [cfg.sort_field] if cfg.sort_field else []
    if not cfg.fields:
        base = ["url", "lang", "html"] if cfg.text_from_html else ["url", "lang", "text"]
        return base + extra
    cols = {"url", "lang"}
    cols.update(fs.source for fs in cfg.fields if fs.source)
    cols.update(extra)
    return sorted(cols)


def _field_texts(tbl: pa.Table, cfg: IndexConfig) -> list[tuple[str, pa.Array]]:
    """Resolve each schema field's text for one batch — the DocumentBuilder
    copyField fan-in (reference DocumentBuilder.java:183-230). Returns
    ``[(field_name, string_array)]``; the default schema is one unnamed
    field (terms stay unprefixed, byte-compatible with single-field
    indexes). A source column named ``html`` goes through the HTML→text
    extractor; any other source is read as a string column."""
    if not cfg.fields:
        if cfg.text_from_html:
            return [("", extract_batch(tbl.column("html")))]
        return [("", tbl.column("text").combine_chunks())]
    resolved: dict[str, pa.Array] = {}
    for fs in cfg.fields:
        if not fs.source:
            continue
        col = tbl.column(fs.source)
        if fs.source == "html":
            resolved[fs.name] = extract_batch(col)
        else:
            resolved[fs.name] = pc.cast(col.combine_chunks(), pa.string())
    out: list[tuple[str, pa.Array]] = []
    for fs in cfg.fields:
        txt = resolved.get(fs.name)
        if fs.copy_sources:
            pieces = ([txt] if txt is not None else []) + [
                resolved[s] for s in fs.copy_sources
            ]
            txt = (
                pc.binary_join_element_wise(*pieces, " ")
                if len(pieces) > 1
                else pieces[0]
            )
        if txt is None:
            raise ValueError(f"field {fs.name!r} has no source and no copy_sources")
        out.append((fs.name, txt))
    return out


def plan_partitions(paths: list[str], target_docs: int) -> list[dict]:
    """Deterministic partition plan: sorted files × row-group ranges."""
    parts = []
    pid = 0
    for path in sorted(paths):
        md = pq.ParquetFile(path).metadata
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        start = 0
        while start < len(rg_rows):
            end, rows = start, 0
            while end < len(rg_rows) and (rows == 0 or rows + rg_rows[end] <= target_docs):
                rows += rg_rows[end]
                end += 1
            parts.append(
                {
                    "part_id": pid,
                    "path": path,
                    "rg_start": start,
                    "rg_end": end,
                    "n_rows": rows,
                    "fingerprint": input_fingerprint(path, start, end, rows),
                }
            )
            pid += 1
            start = end
    if len(parts) >= 1 << 20:
        raise ValueError("too many partitions for 32-bit local doc ids")
    return parts


def _paths_of(input_path: str | list[str]) -> list[str]:
    if isinstance(input_path, (list, tuple)):
        return sorted(input_path)
    if os.path.isdir(input_path):
        return sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(".parquet")
        )
    return [input_path]


# ---------------------------------------------------------------------------
# Phase A
# ---------------------------------------------------------------------------


#: phase A's directories, one file per doc part in each, and its suffix
PART_DIRS = {"docs": ".parquet", "postings_raw": ".parquet", "manifests": ".json"}


def _part_path(index_dir: str, sub: str, part_id: int) -> str:
    return os.path.join(index_dir, sub, f"part-{part_id:06d}{PART_DIRS[sub]}")


def _part_fingerprint(desc: dict, cfg: IndexConfig) -> str:
    """A part's lineage: its input slice AND the build config, so a config
    change (e.g. term_partitions, which sets postings_raw's tkey row
    groups) invalidates it."""
    return f"{desc['fingerprint']}|{cfg.fingerprint()}"


#: rows per streamed read batch (html rows are wide)
READ_BATCH_ROWS = 2_048


def _partition_batches(desc: dict, cfg: IndexConfig):
    """The partition's rows as tables of at most ``READ_BATCH_ROWS`` rows,
    streamed from its row groups; an empty partition is one empty batch.
    With ``sort_field`` (Lucene's flush-time IndexSorter) the partition is
    materialized and ordered by (sort_field, url), so doc ids ascend in sort
    order within the part and ties keep a deterministic url order."""
    pf = pq.ParquetFile(desc["path"])
    rgs = range(desc["rg_start"], desc["rg_end"])
    columns = _schema_columns(cfg)
    if not desc["n_rows"]:
        yield pf.schema_arrow.empty_table().select(columns)
    elif cfg.sort_field:
        whole = pf.read_row_groups(rgs, columns=columns)
        direction = "descending" if cfg.sort_desc else "ascending"
        whole = whole.take(pc.sort_indices(whole, sort_keys=[(cfg.sort_field, direction), ("url", "ascending")]))
        for s in range(0, whole.num_rows, READ_BATCH_ROWS):
            yield whole.slice(s, READ_BATCH_ROWS)
    else:
        for b in pf.iter_batches(batch_size=READ_BATCH_ROWS, row_groups=rgs, columns=columns):
            yield pa.Table.from_batches([b])


def _process_partition(desc: dict, index_dir: str, cfg: IndexConfig) -> dict:
    """Phase A for one doc partition: one table of postings and one of doc
    columns per read batch, then the part's two files and its manifest."""
    _limit_threads()
    part_id = int(desc["part_id"])
    t0 = time.time()
    analyzer = Analyzer()
    # Narrow shuffle payload (phase B is memory/disk-bandwidth-bound, so
    # shuffle bytes ARE reduce-side wall time): postings_raw holds only
    # what phase B reads.
    # - a doc is its 4-byte local row (doc_id = part_id << 32 | row, the
    #   part id taken from the file name); the tkey is the row group's;
    # - terms stay dictionary-coded strings: measured against both a
    #   part-local int-code + vocab-sidecar layout (1.14 B codes + 0.53 B
    #   vocab) and a (term, row)-sorted delta layout (0.18 B codes but row
    #   gaps inflate to 1.23 B), Parquet's per-row-group dictionary pages
    #   + RLE indices are the SMALLEST encoding of the (term, doc)
    #   identity (1.41 B/posting ≈ its entropy on this corpus);
    # - ``norm`` is NOT shipped (0.77 B/posting saved): phase B quantizes
    #   the docs sidecar's per-(field, doc) lengths (n_docs ≪ n_postings);
    # - ``pos`` is each posting's codec position payload, opaque bytes
    #   from here to the segment encoder.
    posts: list[pa.Table] = []
    tkeys: list[np.ndarray] = []
    docs: list[pa.Table] = []
    row_base = 0
    for tbl in _partition_batches(desc, cfg):
        doc_len = np.zeros(tbl.num_rows, dtype=np.int64)
        field_lens = {}
        for fname, ftext in _field_texts(tbl, cfg):
            terms, doc_idx, tf, f_len, *pos = analyzer.term_freqs(ftext, positions=cfg.store_positions)
            if fname:
                # per-field term space: "<field>:<term>" (the term dict
                # sorts by (field, term), as Lucene per-field terms do)
                terms = pc.binary_join_element_wise(pa.scalar(fname + ":"), terms, "")
                field_lens[f"len_f_{fname}"] = pa.array(f_len, pa.int32())
            doc_len += f_len
            # hash each *distinct* term once (dictionary), fan out via codes
            denc = pc.dictionary_encode(terms)
            vocab = denc.dictionary.to_numpy(zero_copy_only=False)
            tkey_vocab = (term_hash(vocab) % np.uint64(cfg.term_partitions)).astype(np.int32)
            tkeys.append(tkey_vocab[denc.indices.to_numpy(zero_copy_only=False)])
            row = pa.array((row_base + doc_idx).astype(np.int32))
            post = {"term": terms, "row": row, "tf": pa.array(tf.astype(np.int32))}
            posts.append(pa.table(dict(post, pos=pos[0]) if pos else post))
        # the docs sidecar row: each named field's exact length rides it
        # (phase B quantizes it into the posting's norm, a purge subtracts
        # it from the field stats), and so does the sort docvalue, in
        # (sorted) row order — sorted top-k scans it prefix-first
        cols = {"url": tbl.column("url"), "doc_len": pa.array(doc_len), "lang": tbl.column("lang"), **field_lens}
        if cfg.sort_field:
            cols["sortv"] = pa.array(tbl.column(cfg.sort_field).to_numpy().astype(np.float64))
        docs.append(pa.table(cols))
        row_base += tbl.num_rows

    # write the part's postings SORTED by tkey, one Parquet row group per
    # tkey run, and record the (row_group, n_rows) map — this is the map
    # side of the storage shuffle: phase B reads only its bucket's row
    # groups from each part file
    tkey = np.concatenate(tkeys)
    order = np.argsort(tkey, kind="stable")
    post = pa.concat_tables(posts).take(pa.array(order))
    tkey = tkey[order]
    run_starts = np.flatnonzero(np.diff(tkey, prepend=-1))
    run_ends = np.append(run_starts[1:], len(tkey))
    post_path = _part_path(index_dir, "postings_raw", part_id)
    os.makedirs(os.path.dirname(post_path), exist_ok=True)
    # zstd: the shuffle intermediates are read back by phase B — trading
    # cheap decompression CPU (scales with cores) for disk bandwidth (does
    # not) keeps the reduce side compute-bound. Byte diet: `row` ascends in
    # runs (batch-major within each tkey run), so DELTA_BINARY_PACKED cuts
    # it ~5×. Dictionary stays ON only where it wins (terms/tf); the binary
    # pos stream dict-encodes badly and zstd-plain is smaller (zstd-7 on pos
    # was measured: ~0.15 B/posting saved for a 20% phase-A CPU hit —
    # VInt gap streams are near-incompressible, keep level 1).
    writer = pq.ParquetWriter(
        post_path + ".tmp",
        post.schema,
        compression="zstd",
        compression_level=1,
        use_dictionary=["term", "tf"],
        column_encoding={"row": "DELTA_BINARY_PACKED"},
    )
    tkey_rgs: dict[str, list[int]] = {}  # tkey -> [row_group_index, n_rows]
    for rg_i, (s, e) in enumerate(zip(run_starts, run_ends)):
        writer.write_table(post.slice(int(s), int(e - s)), row_group_size=int(e - s))
        tkey_rgs[str(int(tkey[s]))] = [rg_i, int(e - s)]
    writer.close()
    os.replace(post_path + ".tmp", post_path)

    doc_tbl = pa.concat_tables(docs)
    docs_path = _part_path(index_dir, "docs", part_id)
    os.makedirs(os.path.dirname(docs_path), exist_ok=True)
    # stamped with the part's lineage: a reader of a commit that names
    # another layout's or config's part here refuses the file (doc_column)
    stamp = docs_stamp(desc["fingerprint"], cfg.fingerprint())
    pq.write_table(doc_tbl.replace_schema_metadata(stamp), docs_path + ".tmp")
    os.replace(docs_path + ".tmp", docs_path)

    # per-field collection stats (Lucene CollectionStatistics per field:
    # docCount = docs with ≥1 token in the field, sumTotalTermFreq)
    field_stats = {}
    for fs in cfg.fields:
        f_len = doc_tbl.column(f"len_f_{fs.name}").to_numpy()
        field_stats[fs.name] = {"doc_count": int((f_len > 0).sum()), "sum_total_tf": int(f_len.sum())}
    sortv = doc_tbl.column("sortv").to_numpy() if cfg.sort_field and doc_tbl.num_rows else None
    summary = {
        "part_id": part_id,
        "input_fingerprint": _part_fingerprint(desc, cfg),
        "n_docs": doc_tbl.num_rows,
        "sum_doc_len": int(doc_tbl.column("doc_len").to_numpy().sum()),
        "n_postings": post.num_rows,
        "tkey_rgs": tkey_rgs,
        "postings_raw_bytes": os.path.getsize(post_path),
        "sort_min": float(sortv.min()) if sortv is not None else None,
        "sort_max": float(sortv.max()) if sortv is not None else None,
        "field_stats": field_stats,
        "wall_sec": round(time.time() - t0, 3),
        "resumed": False,
    }
    write_json_atomic(_part_path(index_dir, "manifests", part_id), summary)
    return summary


# ---------------------------------------------------------------------------
# Phase B
# ---------------------------------------------------------------------------


def _plan_storage_segments(
    index_dir: str, cfg: IndexConfig, parts: list[dict], summaries: list[dict]
) -> list[dict]:
    """Reduce-side plan of the storage shuffle: one segment per (tkey, salt).

    Phase A's part summaries carry each part's tkey → (row_group, n_rows)
    map; every tkey bucket is chunked into contiguous part ranges of ≤
    max_postings_per_segment postings. Chunk index = salt; doc ids ascend
    with part id, so salted sub-segments are disjoint ascending doc ranges
    — the query side concatenates views. Each row names its segment and
    carries the record fields the encoder stores beside the counts
    (lineage and the covered part range), and ``prefixes``: the lineage
    and postings of each prefix of its sources, which ``_plan_phase_b``
    matches against the stored segments.
    """
    fp_by_part = {int(p["part_id"]): str(p["fingerprint"]) for p in parts}
    per_part = sorted(summaries, key=lambda s: int(s["part_id"]))

    def lineages_of(srcs: list[tuple[int, int, int]]) -> list[str]:
        # identity of the exact inputs that feed this segment: the build
        # config (codec/analysis knobs) plus which parts, which row groups,
        # how many postings, and each part's INPUT fingerprint — so a stale
        # segment from a different corpus OR config can never be resumed
        # just because posting counts coincide. The digest after each
        # source is the lineage of the segment of the sources so far.
        h = hashlib.sha1()
        h.update(cfg.fingerprint_full().encode())
        out = []
        for part_id, rg, n in srcs:
            h.update(f"{part_id}:{rg}:{n}:{fp_by_part.get(part_id, '')};".encode())
            out.append(h.hexdigest())
        return out

    tasks: list[dict] = []
    for t in range(cfg.term_partitions):
        chunks: list[list[tuple[int, int, int]]] = []  # salt -> [(part, rg, n)]
        acc = 0
        for summary in per_part:
            ent = summary["tkey_rgs"].get(str(t))
            if not ent:
                continue
            n = int(ent[1])
            if not chunks or acc + n > cfg.max_postings_per_segment:
                chunks.append([])
                acc = 0
            chunks[-1].append((int(summary["part_id"]), int(ent[0]), n))
            acc += n
        for salt, srcs in enumerate(chunks):
            lineages = lineages_of(srcs)
            lineage = lineages[-1]
            tasks.append(
                {
                    "name": _segment_name(t, salt, lineage),
                    "tkey": t,
                    "salt": salt,
                    "paths": [
                        _part_path(index_dir, "postings_raw", p) for p, _, _ in srcs
                    ],
                    "rgs": [rg for _, rg, _ in srcs],
                    "expected": sum(n for _, _, n in srcs),
                    "lineage": lineage,
                    # covered doc-partition range: lets doc-range-sharded
                    # readers open only overlapping segments
                    "part_lo": srcs[0][0],
                    "part_hi": srcs[-1][0] + 1,
                    "prefixes": list(zip(lineages, np.cumsum([n for _, _, n in srcs]).tolist())),
                }
            )
    return tasks


def _field_ids_of_dictionary(vocab, field_names: tuple[str, ...]) -> np.ndarray:
    """Field-id per dictionary entry: 0 = default field, i+1 =
    field_names[i] (terms are '<field>:<term>'-prefixed). Runs over the
    DISTINCT terms of a row group only, never per posting."""
    fid = np.zeros(len(vocab), dtype=np.int8)
    for i, fname in enumerate(field_names):
        m = pc.starts_with(vocab, fname + ":").to_numpy(zero_copy_only=False)
        fid[m] = i + 1
    return fid


def _load_part_norms(index_dir: str, part_id: int, field_names: tuple[str, ...]):
    """(1 + n_fields, n_docs) uint8 norm matrix: the docs sidecar's
    ``doc_len`` and each ``len_f_<field>``, quantized by one rule
    (``int_to_byte4_array``)."""
    cols = ["doc_len"] + [f"len_f_{f}" for f in field_names]
    dt = pq.read_table(_part_path(index_dir, "docs", part_id), columns=cols)
    return np.stack([int_to_byte4_array(dt.column(c).to_numpy()) for c in cols])


def _segment_name(tkey: int, salt: int, lineage: str) -> str:
    """A phase-B segment's name: named by its input lineage too, so a
    rebuild of the same (tkey, salt) from other inputs writes a new
    segment and never rewrites one a commit names."""
    return f"seg-{tkey:05d}-{salt:05d}-{lineage[:12]}"


def _encode_batches(rows: list[dict], cap: int) -> list[list[dict]]:
    """Consecutive runs of segment rows whose summed ``expected`` postings
    stay <= ``cap`` (the most one segment may hold); a segment over the cap
    on its own is a batch of one."""
    batches: list[list[dict]] = []
    acc = 0
    for row in rows:
        n = int(row["expected"])
        if not batches or acc + n > cap:
            batches.append([])
            acc = 0
        batches[-1].append(row)
        acc += n
    return batches


def _part_id_of(path: str) -> int:
    return int(os.path.basename(path)[len("part-") : -len(".parquet")])


def _make_storage_segment_fn(index_dir: str, cfg: IndexConfig):
    field_names = tuple(f.name for f in cfg.fields)
    read_cols = ["term", "row", "tf"] + (["pos"] if cfg.store_positions else [])
    # each part's norm matrix is read from its docs sidecar once per block:
    # map_batches re-deserializes the fn per task, so every batch of a
    # block shares this cache
    norm_cache: dict[int, np.ndarray] = {}

    def _norms(part_id: int):
        if part_id not in norm_cache:
            if len(norm_cache) > 512:
                norm_cache.clear()
            norm_cache[part_id] = _load_part_norms(index_dir, part_id, field_names)
        return norm_cache[part_id]

    # each postings_raw part file is opened once per block (a block's
    # segments read row groups of the same parts) and closed when it ends
    part_files: dict[str, pq.ParquetFile] = {}

    def _part_file(path: str) -> pq.ParquetFile:
        f = part_files.get(path)
        if f is None:
            # read_dictionary keeps terms dictionary-encoded end to end
            # (segment encode sorts the dictionary, not the postings
            # strings): materializing dense strings here measured 2.3×
            # slower at 32-way — phase B is memory-bandwidth-bound, so
            # decompressed width is wall time
            f = part_files[path] = pq.ParquetFile(path, read_dictionary=["term"])
        return f

    def build_one(rows: list[dict]) -> list[dict]:
        try:
            return _build_block(rows)
        finally:
            for f in part_files.values():
                f.close()
            part_files.clear()

    def _read(rows: list[dict]) -> tuple[pa.Table, np.ndarray]:
        """One encode batch's postings: one ``read_row_groups`` and one
        norm gather per part file. Returns the group table and each row's
        index into ``rows``."""
        by_path: dict[str, list[tuple[int, int]]] = {}  # path -> [(row group, segment)]
        for j, row in enumerate(rows):
            for p, rg in zip(row["paths"], row["rgs"]):
                by_path.setdefault(p, []).append((int(rg), j))
        pieces, segs = [], []
        for p, pairs in by_path.items():
            pairs.sort()
            f = _part_file(p)
            t = f.read_row_groups([rg for rg, _ in pairs], columns=read_cols)
            n_rows = [f.metadata.row_group(rg).num_rows for rg, _ in pairs]
            segs.append(np.repeat(np.array([j for _, j in pairs], np.int64), n_rows))
            part_id = _part_id_of(p)
            rows_np = t.column("row").to_numpy()
            # norm is derived, not shipped: per-(field, doc) value from the
            # docs sidecar, field resolved on the DICTIONARY (distinct
            # terms), fanned out by code
            norms2d = _norms(part_id)
            term = t.column("term")
            if field_names:
                term = term.combine_chunks()
                fid = _field_ids_of_dictionary(term.dictionary, field_names)
                norm = norms2d[fid[term.indices.to_numpy(zero_copy_only=False)], rows_np]
            else:
                norm = norms2d[0, rows_np]
            cols = {
                "term": term,
                "doc_id": pa.array((part_id << 32) + rows_np.astype(np.int64)),
                "tf": t.column("tf"),
                "norm": pa.array(norm),
            }
            if cfg.store_positions:
                cols["pos"] = t.column("pos")
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces, promote_options="permissive"), np.concatenate(segs)

    def _build_block(block: list[dict]) -> list[dict]:
        """Build a block's segments, one encode batch at a time: read (the
        rows' sources, and their bases through ``open_segments``), one sort
        and encode (``build_segments_from_group``), then one pack
        (``write_segment``). Returns one row per batch: its segments'
        records, how many extended a base, the postings it encoded, its
        wall time and its three stage times."""
        _limit_threads()
        out = []
        for rows in _encode_batches(block, cfg.max_postings_per_segment):
            t0 = time.perf_counter()
            group, seg = _read(rows)
            bases = open_segments(index_dir, [r["base"] for r in rows if "base" in r])
            try:
                t1 = time.perf_counter()
                specs = [
                    (
                        r["name"],
                        r["tkey"],
                        r["salt"],
                        {k: r[k] for k in ("lineage", "part_lo", "part_hi")},
                        bases[r["base"]["name"]] if "base" in r else None,
                    )
                    for r in rows
                ]
                members = build_segments_from_group(group, seg, specs)
                encoded = sum(m["encoded"][2] for m in members)
                t2 = time.perf_counter()
                segments = write_segment(index_dir, members)
                t3 = time.perf_counter()
                del members  # it holds slices of the bases' postings
            finally:
                for r in bases.values():
                    r.close()
            out.append(
                {
                    "segments": segments,
                    "extended": len(bases),
                    "postings_encoded": encoded,
                    "batch": t3 - t0,
                    "read": t1 - t0,
                    "encode": t2 - t1,
                    "write": t3 - t2,
                }
            )
        return out

    return build_one


def _plan_phase_b(
    index_dir: str, cfg: IndexConfig, parts: list[dict], summaries: list[dict]
) -> tuple[list[dict], list[dict]]:
    """Phase B's segment plan split into (records of the segments that
    resume, rows to build), by one rule: the longest prefix of a planned
    segment's sources that a stored segment (``segment.stored_segments``:
    the members of every whole pack on disk) was built from — same tkey,
    salt and ``part_lo``, and the prefix's lineage and postings. All of
    its sources: the segment resumes. Some: the row carries that record as
    its ``base`` and reads only the sources after the prefix (the encode
    extends the base). None: the row encodes every source."""
    stored = stored_segments(index_dir)
    resumed, todo = [], []
    for row in _plan_storage_segments(index_dir, cfg, parts, summaries):
        prefixes = row.pop("prefixes")
        for k in range(len(prefixes), 0, -1):
            lineage, n_postings = prefixes[k - 1]
            e = stored.get(_segment_name(row["tkey"], row["salt"], lineage))
            if (
                e is not None
                and e["lineage"] == lineage
                and e["n_postings"] == n_postings
                and all(e[key] == row[key] for key in ("tkey", "salt", "part_lo"))
            ):
                break
        else:
            e = None
        if e is None:
            todo.append(row)
        elif k == len(prefixes):
            resumed.append(e)
        else:
            todo.append(dict(row, base=e, paths=row["paths"][k:], rgs=row["rgs"][k:]))
    return resumed, todo


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _spread(secs: list[float]) -> dict:
    """{sum, p50, max, skew = max/p50} of per-batch seconds (all 0 if none)."""
    if not secs:
        return {"sum": 0.0, "p50": 0.0, "max": 0.0, "skew": 0.0}
    p50, mx = float(np.median(secs)), max(secs)
    return {
        "sum": round(sum(secs), 4),
        "p50": round(p50, 4),
        "max": round(mx, 4),
        "skew": round(mx / p50, 3) if p50 > 0 else 0.0,
    }


def _carry_deletes(index_dir: str, deletes: dict, parts: list[dict]) -> dict:
    """The previous commit's delete set in the layout of ``parts``: an
    entry whose part left the layout (a re-partition, a changed file) is
    re-keyed by url over the new parts cut from the same corpus file; one
    whose file is gone drops."""
    from apache___solr_ray.deletes import add_deletes

    fps = {p["fingerprint"] for p in parts}
    out = {fp: d for fp, d in deletes.items() if fp in fps}
    lost: dict[str, set[str]] = {}
    for fp, d in deletes.items():
        if fp not in fps:
            # keyed by the corpus file's basename (manifest.input_fingerprint)
            lost.setdefault(fp.rsplit(":", 3)[0], set()).update(d["urls"])
    for p in parts:
        urls = lost.get(os.path.basename(p["path"]))
        if urls:
            path = _part_path(index_dir, "docs", int(p["part_id"]))
            col = pq.read_table(path, columns=["url"]).column("url").combine_chunks()
            add_deletes(out, p["fingerprint"], col, pa.array(sorted(urls), pa.string()))
    return out


def _drop_stale_parts(index_dir: str, n_doc_parts: int) -> None:
    """Remove the phase-A files a commit of ``n_doc_parts`` parts does not
    use: a part id >= ``n_doc_parts`` (an earlier layout's) and tmp files."""
    for sub in PART_DIRS:
        d = os.path.join(index_dir, sub)
        for fn in os.listdir(d) if os.path.isdir(d) else ():
            if ".tmp" in fn or int(fn[len("part-") :].split(".")[0]) >= n_doc_parts:
                os.remove(os.path.join(d, fn))


def build_index(
    input_path: str | list[str],
    index_dir: str,
    cfg: IndexConfig = IndexConfig(),
) -> dict:
    """Run the full build; resumable; returns the committed manifest."""
    t_start = time.time()
    paths = _paths_of(input_path)
    parts = plan_partitions(paths, cfg.target_docs_per_part)
    fingerprints = [p["fingerprint"] for p in parts]

    committed = read_json(os.path.join(index_dir, "index_manifest.json"))
    if (
        committed is not None
        and committed.get("input_fingerprints") == fingerprints
        and committed.get("config") == cfg.fingerprint_full()
    ):
        # fully built & committed — nothing to do; flag it so callers can
        # tell archived metrics from a fresh measurement
        return dict(committed, resumed_commit=True)

    os.makedirs(index_dir, exist_ok=True)

    # ---- Phase A: the deterministic doc partitions, in CPU-sized blocks ----
    def run_part(descs: list[dict]) -> list[dict]:
        return [_process_partition(desc, index_dir, cfg) for desc in descs]

    # a part whose lineage manifest validates is not dispatched at all
    summaries, todo = [], []
    for p in parts:
        existing = is_valid(_part_path(index_dir, "manifests", int(p["part_id"])), _part_fingerprint(p, cfg))
        if existing is None:
            todo.append(p)
        else:
            summaries.append(dict(existing, resumed=True))
    built, phase_a_tasks = _run_stage(todo, run_part)
    summaries += built
    n_docs = sum(s["n_docs"] for s in summaries)
    phase_a_sec = time.time() - t_start

    # ---- Phase B: skew is handled uniformly by doc-range bucket splitting
    # in the plan, so no head-term detection is needed ----
    n_doc_parts = len(parts)
    resumed, todo_segs = _plan_phase_b(index_dir, cfg, parts, summaries)
    batches, phase_b_tasks = _run_stage(todo_segs, _make_storage_segment_fn(index_dir, cfg))
    built_segs = [s for b in batches for s in b["segments"]]
    segments = sorted(resumed + built_segs, key=doc_order)
    phase_b_sec = time.time() - t_start - phase_a_sec

    stats = {
        "field": "text",
        **collection_stats(summaries),
        "n_doc_parts": n_doc_parts,
        "term_partitions": cfg.term_partitions,
        "n_segments": len(segments),
    }
    if cfg.sort_field:
        stats["sort_field"] = cfg.sort_field
        stats["sort_desc"] = cfg.sort_desc
        # per-part sort ranges: the early-termination skip table (the
        # Lucene per-segment sort metadata analog)
        stats["doc_parts"] = sorted(
            (
                {
                    "part_id": int(s["part_id"]),
                    "sort_min": s.get("sort_min"),
                    "sort_max": s.get("sort_max"),
                    "n_docs": int(s["n_docs"]),
                }
                for s in summaries
            ),
            key=lambda r: r["part_id"],
        )

    man = {
        "config": cfg.fingerprint_full(),
        "phase_a_config": cfg.fingerprint(),
        "input_fingerprints": fingerprints,
        "stats": stats,
        "deletes": _carry_deletes(index_dir, (committed or {}).get("deletes") or {}, parts),
        "segments": segments,
        "metrics": {
            "n_docs": int(n_docs),
            "n_postings": int(sum(s["n_postings"] for s in summaries)),
            "postings_raw_bytes": int(
                sum(s.get("postings_raw_bytes", 0) for s in summaries)
            ),
            "postings_raw_bytes_per_posting": round(
                sum(s.get("postings_raw_bytes", 0) for s in summaries)
                / max(1, sum(s["n_postings"] for s in summaries)),
                3,
            ),
            "phase_a_sec": round(phase_a_sec, 3),
            "phase_b_sec": round(phase_b_sec, 3),
            "total_sec": round(time.time() - t_start, 3),
            "docs_per_sec": round(n_docs / max(1e-9, time.time() - t_start), 1),
            "parts_resumed": int(sum(1 for s in summaries if s["resumed"])),
            "phase_a_tasks": phase_a_tasks,
            "phase_b_tasks": phase_b_tasks,
            "segments_built": len(built_segs),
            "segments_resumed": len(resumed),
            # built segments that extended a stored one, and the postings
            # that went through the encoder (new ones and the extended
            # terms' re-encoded partial blocks)
            "segments_extended": sum(b["extended"] for b in batches),
            "postings_encoded": sum(b["postings_encoded"] for b in batches),
            # wall time of each encode batch (the segments it built, read,
            # sorted, encoded and written together); skew = max/p50 shows
            # a straggler batch
            "phase_b_batches": len(batches),
            "phase_b_batch_sec": _spread([b["batch"] for b in batches]),
            # the batches' read, encode and write steps (each batch's three
            # sum to its phase_b_batch_sec)
            "phase_b_stage_sec": {
                k: _spread([b[k] for b in batches]) for k in ("read", "encode", "write")
            },
        },
    }
    # the dictionaries' bytes beside the postings': the segments' "bytes"
    # count postings only
    man["metrics"].update(pack_bytes(index_dir, man))
    write_json_atomic(os.path.join(index_dir, "index_manifest.json"), man)
    # only after the commit point moves: drop every pack this commit does
    # not name (the previous commit's, which its open readers keep mapped;
    # those an interrupted build left) and the stale phase-A files
    drop_uncommitted(index_dir, man)
    _drop_stale_parts(index_dir, n_doc_parts)
    return man
