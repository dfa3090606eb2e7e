"""Deletes — the DeleteStream / deleteById analog (reference
``solr/solrj-streaming/.../stream/DeleteStream.java`` javadoc: sink deleting
docs by uniqueKey; Lucene semantics: a delete is a TOMBSTONE — the doc stops
matching immediately, but collection statistics (docCount,
sumTotalTermFreq, df) are unchanged until a merge reclaims the postings,
exactly like Lucene liveDocs + merge).

Tombstones live in ``tombstones.json`` (sorted doc ids, written atomically);
readers load them at open and mask candidates before scores accumulate.
``merge.merge_segments(purge_deletes=True)`` physically drops tombstoned
postings, recomputes live stats and clears the tombstone file.

Doc columns (url, doc_len) are read through ``IndexReader.doc_column`` /
``doc_values``, so only the doc parts of the committed manifest count: a
stale part file a re-partitioning rebuild left in ``docs/`` can neither
gain a tombstone nor shift the purge stats.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray.manifest import read_json, write_json_atomic

TOMBSTONE_FILE = "tombstones.json"
PURGED_FILE = "purged.json"


def load_tombstones(index_dir: str) -> np.ndarray:
    d = read_json(os.path.join(index_dir, TOMBSTONE_FILE))
    if not d or not d.get("doc_ids"):
        return np.zeros(0, dtype=np.int64)
    return np.array(sorted(set(d["doc_ids"])), dtype=np.int64)


def delete_by_url(index_dir: str, urls: list[str]) -> int:
    """Tombstone the docs with these urls (uniqueKey deletes). Returns the
    number of newly tombstoned docs. Unknown urls are ignored (Solr's
    deleteById of a missing id is a no-op)."""
    from apache___solr_ray.query import IndexReader

    reader = IndexReader(index_dir)
    want = pa.array(sorted(set(urls)), pa.string())
    found: list[int] = []
    for p in range(reader.n_doc_parts):
        rows = pc.indices_nonzero(pc.is_in(reader.doc_column(p, "url"), value_set=want))
        found.extend((p << 32) + r for r in rows.to_pylist())
    existing = load_tombstones(index_dir)
    merged = sorted(set(existing.tolist()) | set(found))
    write_json_atomic(
        os.path.join(index_dir, TOMBSTONE_FILE), {"doc_ids": merged}
    )
    return len(merged) - len(existing)


def clear_tombstones(index_dir: str) -> None:
    write_json_atomic(os.path.join(index_dir, TOMBSTONE_FILE), {"doc_ids": []})


_UNKNOWN_FP = "__unknown_partition__"


def record_purged(index_dir: str, doc_ids, input_fingerprints: list[str]) -> None:
    """Durable purge ledger: remember which docs a purge-merge physically
    reclaimed, keyed by the *input fingerprint* of the doc partition each
    id belongs to plus the row WITHIN that partition (never the positional
    part id — a later corpus file that sorts before existing ones shifts
    part ids, but (fingerprint, row) still names the same source row). A
    later ``build_index`` (append / upsert) rebuilds segments from
    ``postings_raw`` — which still contains the purged docs — so the
    ledger lets it re-apply the deletes as tombstones instead of silently
    resurrecting them. Ids whose partition cannot be fingerprinted are
    kept under a sentinel key and surfaced with a warning rather than
    silently dropped."""
    import warnings

    ledger = read_json(os.path.join(index_dir, PURGED_FILE)) or {}
    by_fp: dict[str, list[int]] = {k: list(v) for k, v in ledger.get("by_fp", {}).items()}
    for d in doc_ids:
        part, row = int(d) >> 32, int(d) & 0xFFFFFFFF
        if part < len(input_fingerprints):
            by_fp.setdefault(input_fingerprints[part], []).append(row)
        else:
            warnings.warn(
                f"record_purged: doc {int(d)} falls outside the {len(input_fingerprints)}"
                " known input partitions; kept under the unknown-partition sentinel"
            )
            by_fp.setdefault(_UNKNOWN_FP, []).append(int(d))
    by_fp = {k: sorted(set(v)) for k, v in by_fp.items()}
    write_json_atomic(os.path.join(index_dir, PURGED_FILE), {"by_fp": by_fp})


def reapply_purged(index_dir: str, current_fingerprints: list[str]) -> tuple[int, int]:
    """Re-assert purged deletes after a rebuild: every ledger partition
    whose input-fingerprint appears in the current build has its rows
    mapped to that partition's CURRENT positional id and merged back into
    ``tombstones.json`` (the docs exist again in the rebuilt segments and
    must stay dead). Entries whose fingerprint is absent from the current
    build are KEPT in the ledger (the partition may reappear in a later
    layout) and reported with a warning — never silently pruned. Returns
    ``(n_reapplied, n_unapplied)``; a non-zero second element means purged
    docs that could NOT be re-asserted in this layout (unknown-partition
    sentinel or stale fingerprints) — callers must surface it in build
    stats / fail loudly rather than rely on the warning."""
    import warnings

    ledger = read_json(os.path.join(index_dir, PURGED_FILE))
    if not ledger:
        return 0, 0
    by_fp = ledger.get("by_fp")
    if by_fp is None and ledger.get("entries"):
        # migrate a pre-v3 positional ledger: its doc ids were only valid
        # for the layout it was written under; treat as unknown-partition
        by_fp = {_UNKNOWN_FP: sorted(int(k) for k in ledger["entries"])}
    if not by_fp:
        return 0, 0
    pos_of = {fp: i for i, fp in enumerate(current_fingerprints)}
    reapply: list[int] = []
    stale: list[str] = []
    n_unapplied = 0
    for fp, rows in by_fp.items():
        if fp == _UNKNOWN_FP:
            stale.append(fp)
            n_unapplied += len(rows)
            continue
        pos = pos_of.get(fp)
        if pos is None:
            stale.append(fp)
            n_unapplied += len(rows)
            continue
        reapply.extend((pos << 32) + int(r) for r in rows)
    if stale:
        warnings.warn(
            "reapply_purged: purge-ledger partitions not in the current build "
            f"(kept, not re-applied): {stale[:4]}{'...' if len(stale) > 4 else ''}"
        )
    if reapply:
        existing = load_tombstones(index_dir)
        merged = sorted(set(existing.tolist()) | set(reapply))
        write_json_atomic(os.path.join(index_dir, TOMBSTONE_FILE), {"doc_ids": merged})
    write_json_atomic(os.path.join(index_dir, PURGED_FILE), {"by_fp": by_fp})
    return len(reapply), n_unapplied


def tombstoned_doc_lens(index_dir: str, tombs: np.ndarray) -> tuple[int, int]:
    """(n_docs, sum_doc_len) of the tombstoned docs inside the committed doc
    parts — what a purge subtracts from the live collection stats. A
    tombstone outside them names no indexed doc, so it counts for
    nothing."""
    from apache___solr_ray.query import IndexReader

    reader = IndexReader(index_dir)
    tombs = tombs[tombs < np.int64(reader.n_doc_parts) << np.int64(32)]
    if len(tombs) == 0:
        return 0, 0
    return len(tombs), int(pc.sum(reader.doc_values(tombs, "doc_len")).as_py())
