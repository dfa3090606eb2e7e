"""Tiered segment merging — the TieredMergePolicy analog.

The reference merges flushed segments tier-by-tier in background threads
([Lucene 10.4 library] TieredMergePolicy, wired at
``solr/core/src/java/org/apache/solr/index/DefaultMergePolicyFactory.java:42``,
``SolrIndexConfig.java:262-265``). Here the same role is played by a Ray
Data stage over term partitions: within each tkey, while a tkey holds more
than ``target_per_tkey`` segments, the run of ``merge_factor`` doc-adjacent
segments with the fewest bytes is merged into a new immutable segment
(Lucene ``LogMergePolicy``'s adjacency rule: a tkey's segments hold
disjoint doc ranges, and folding only neighbours keeps every term's views
in doc order, which the phrase paths binary-search). A merged segment
covers the union of its sources' doc partitions (``part_lo``, ``part_hi``),
so doc-range shards still open only overlapping segments. Every source
segment is decoded whole into one (term, doc_id, tf, norm[, pos]) table —
position payloads carry over as raw bytes — and the table is written by
``segment.build_segment_from_group``, the encoder phase B uses (Lucene's
SegmentMerger likewise writes through the flush codec); a merge block
writes its outputs as one pack (``segment.write_segment``), and a chain of
steps within a tkey reads its intermediate outputs from memory. An
output's record gets its lineage and doc range at encode time
(``_merged_meta``), so the records the pack writer returns are the ones
the manifest commits, beside the unmerged ones, in ``segment.doc_order``.
The index manifest is atomically re-committed and only then are the packs
it no longer names removed — a crash between commit and delete leaves
harmless garbage, never a broken index.

A purge (``purge_deletes``) rewrites every segment without the deleted
docs' postings and commits the live stats (``deletes.live_stats``) in its
one manifest write. It keeps the delete set: the corpus and
``postings_raw`` still hold those docs. The live stats are a function of
the corpus and the delete set, so a re-run after a kill commits the same.

Query results are bit-identical before and after merging (asserted by
tests): merging changes layout, not content.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray import codec
from apache___solr_ray.manifest import read_json, write_json_atomic
from apache___solr_ray.segment import (
    MAX_SEGMENT_BYTES,
    build_segment_from_group,
    doc_order,
    drop_uncommitted,
    encoded_reader,
    open_segments,
    pack_bytes,
    write_segment,
)


def _merge_group(readers: dict, tkey: int, sources: list[dict], out_name: str, tombs=None) -> dict:
    """Merge source segments (``readers`` by name, ``sources`` their
    records in doc order) into one encoded segment through the phase-B
    segment encoder, its record carrying ``_merged_meta(sources)``; the
    merge block writes it."""
    terms, dfs, views = [], [], []
    for s in sources:
        r = readers[s["name"]]
        t = r.terms_table()
        terms.append(t.column("term").combine_chunks())
        dfs.append(t.column("df").to_numpy())
        views += r.postings_views()
    # one dictionary over every source's terms, one code per posting
    vocab = pc.dictionary_encode(pa.concat_arrays(terms))
    dfs_all = np.concatenate(dfs)
    codes = np.repeat(vocab.indices.to_numpy(zero_copy_only=False), dfs_all)
    if views:
        docs, tfs, norms = codec.decode_postings_concat(views)
    else:  # every source is an empty segment
        docs, tfs, norms = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.uint8)
    cols = {
        "term": pa.DictionaryArray.from_arrays(pa.array(codes, pa.int32()), vocab.dictionary),
        "doc_id": docs,
        "tf": tfs,
        "norm": norms,
    }
    if views and all(v.has_positions for v in views):
        # per-posting position payloads are self-contained VInt streams, so
        # they carry over as raw bytes
        pos = np.concatenate([v.buf[v.p_base : v.p_base + v.p_len] for v in views])
        off = codec.position_offsets(pos, tfs)
        cols["pos"] = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(tfs), [None, pa.py_buffer(off), pa.py_buffer(pos)]
        )
    group = pa.table(cols)
    if tombs is not None and len(tombs):
        # purge: drop tombstoned postings (Lucene merge reclaiming deletes);
        # a term whose postings all vanish leaves the dict
        group = group.filter(pa.array(~np.isin(docs, tombs)))
    return build_segment_from_group(group, out_name, tkey, -1, _merged_meta(sources))


def _merged_meta(sources: list[dict]) -> dict:
    """A merge output's lineage, a digest of its sources' lineages (so
    ``index_fingerprint`` keeps digesting content identity across
    merges), and the doc partitions it covers, the union of its
    sources'."""
    combined = "+".join(s["lineage"] for s in sources)
    return {
        "lineage": "m:" + hashlib.sha1(combined.encode()).hexdigest(),
        "part_lo": min(s["part_lo"] for s in sources),
        "part_hi": max(s["part_hi"] for s in sources),
    }


def _merged_name(tkey: int, gen: int, names: set[str]) -> tuple[str, int]:
    """The first merge output name ``seg-TTTTT-mGGGG`` from generation
    ``gen`` on that is not in ``names``, and its generation."""
    while f"seg-{tkey:05d}-m{gen:04d}" in names:
        gen += 1
    return f"seg-{tkey:05d}-m{gen:04d}", gen


def plan_merges(
    segments: list[dict], target_per_tkey: int, merge_factor: int
) -> list[tuple[int, list[dict], str]]:
    """Pure planning (deterministic, unit-testable): per tkey, over
    ``segments`` in commit order (``segment.doc_order``), repeatedly fold
    the window of merge_factor adjacent segments with the smallest byte
    sum until <= target remain.
    A window whose bytes reach ``MAX_SEGMENT_BYTES`` (the dictionary's u32
    offsets) does not fold; when no window of merge_factor does, a smaller
    one is tried, and a tkey where no two neighbours fit stops folding.

    Returns the merge steps in order, each ``(tkey, sources, out_name)``;
    a source is a record, or an earlier step's output as planned (its
    name, bytes, postings and ``_merged_meta``).
    """
    steps = []
    by_tkey: dict[int, list[dict]] = {}
    for s in segments:
        by_tkey.setdefault(s["tkey"], []).append(dict(s))
    for tkey, segs in sorted(by_tkey.items()):
        gen = 0
        while len(segs) > target_per_tkey:
            csum = np.cumsum([0] + [s["bytes"] for s in segs])
            for n in range(min(merge_factor, len(segs) - target_per_tkey + 1), 1, -1):
                sums = csum[n:] - csum[:-n]
                if sums.min() < MAX_SEGMENT_BYTES:
                    break
            else:
                break  # no two neighbours fit one segment
            i = int(np.argmin(sums))
            sources = segs[i : i + n]
            out_name, gen = _merged_name(tkey, gen, {s["name"] for s in segs})
            placeholder = {
                "tkey": tkey,
                "salt": -1,
                "name": out_name,
                "bytes": int(sums[i]),
                "n_postings": sum(s["n_postings"] for s in sources),
                **_merged_meta(sources),
            }
            steps.append((tkey, sources, out_name))
            segs = segs[:i] + [placeholder] + segs[i + n :]
            gen += 1
    return steps


def merge_segments(
    index_dir: str,
    target_per_tkey: int = 1,
    merge_factor: int = 10,
    purge_deletes: bool = False,
) -> dict:
    """Run the tiered merge as a Ray Data stage; returns the new manifest.

    With ``purge_deletes`` the merge physically drops the deleted docs'
    postings and commits the live collection stats (docCount,
    sumTotalTermFreq, per field) — Lucene's delete reclamation; the delete
    set stays committed. Scores change accordingly (stats now reflect live
    docs only), as in Lucene. A purge with nothing left to reclaim runs as
    a plain tiered merge."""
    from apache___solr_ray.build import _run_stage
    from apache___solr_ray.deletes import live_stats

    man = read_json(os.path.join(index_dir, "index_manifest.json"))
    if man is None:
        raise FileNotFoundError(f"no committed index at {index_dir}")
    segments = man["segments"]
    tombs = None
    if purge_deletes:
        live, tombs = live_stats(index_dir)
        if all(man["stats"].get(k) == v for k, v in live.items()):
            purge_deletes, tombs = False, None  # no deletes, or already purged
    if purge_deletes:
        # purging must touch EVERY segment: fold each tkey as far as
        # plan_merges can, then rewrite each segment no fold consumes on its
        # own (a tkey that holds one segment, or one whose segments are too
        # large to fold)
        steps = plan_merges(segments, 1, max(merge_factor, len(segments) + 1))
        folded = {s["name"] for st in steps for s in st[1]}
        names = {s["name"] for s in segments} | {st[2] for st in steps}
        for s in segments:
            if s["name"] not in folded:
                out_name, _ = _merged_name(s["tkey"], 0, names)
                names.add(out_name)
                steps.append((s["tkey"], [s], out_name))
    else:
        steps = plan_merges(segments, target_per_tkey, merge_factor)
    if not steps:
        return man

    # steps within a tkey chain (later steps may consume earlier outputs),
    # so each tkey's chain runs in order inside one stage row; the tkeys
    # run as a few CPU-sized blocks in parallel (build._run_stage)
    by_tkey: dict[int, list] = {}
    for st in steps:
        by_tkey.setdefault(st[0], []).append(st)

    committed = {s["name"] for s in segments}

    def run_tkey(rows: list[dict]) -> list[dict]:
        """Run a block's merge chains and write their outputs as one pack;
        a chain step reads an earlier step's output from memory. Returns
        the written segments' records."""
        steps = [st for row in rows for st in row["steps"]]
        sources = [s for _, srcs, _ in steps for s in srcs]
        readers = open_segments(index_dir, [s for s in sources if s["name"] in committed])
        try:
            out = []
            for tkey, srcs, out_name in steps:
                m = _merge_group(readers, tkey, srcs, out_name, tombs=tombs)
                readers[out_name] = encoded_reader(m)
                out.append(m)
            consumed = {s["name"] for s in sources}
            return write_segment(index_dir, [m for m in out if m["name"] not in consumed])
        finally:
            for r in readers.values():
                r.close()

    merged, _ = _run_stage([{"steps": chain} for chain in by_tkey.values()], run_tkey)
    consumed = {s["name"] for st in steps for s in st[1]}
    man = dict(man)
    man["segments"] = sorted([s for s in segments if s["name"] not in consumed] + merged, key=doc_order)
    man["stats"] = dict(man["stats"], n_segments=len(man["segments"]))
    if purge_deletes:
        man["stats"].update(live)
    man["metrics"] = dict(man.get("metrics") or {}, **pack_bytes(index_dir, man))
    write_json_atomic(os.path.join(index_dir, "index_manifest.json"), man)
    # only after the commit point moves are the consumed segments' packs
    # (and anything else no commit names) removed
    drop_uncommitted(index_dir, man)
    return man
