"""Per-partition lineage manifests + atomic commit.

Rebuilds the role of the reference's transaction log + segments_N commit
point (``solr/core/src/java/org/apache/solr/update/UpdateLog.java``,
``DirectUpdateHandler2.commit`` at ``DirectUpdateHandler2.java:809-876``) in
batch-build form:

- every completed unit of work (doc partition tokenized, segment written)
  writes a small JSON manifest recording its input fingerprint, row counts
  and wall time — the lineage + metrics record the north_rule requires;
- a resumed build skips any unit whose manifest exists and whose input
  fingerprint still matches (no re-tokenizing completed partitions);
- the index becomes visible only when ``index_manifest.json`` is atomically
  renamed into place (the segments_N pointer-swap analog).

All writes are write-to-temp + ``os.replace`` so a killed build never leaves
a half-written manifest behind.
"""

from __future__ import annotations

import json
import os
from typing import Any


def docs_stamp(input_fp: str, config_fp: str | None) -> dict[bytes, bytes]:
    """The Parquet key-value metadata phase A stamps on a docs file: its
    part's lineage (``build._part_fingerprint``), the input fingerprint
    (``input_fingerprint``) and the phase-A config fingerprint
    (``IndexConfig.fingerprint``, a commit's ``phase_a_config``). A
    commit made before that key has ``config_fp`` None: no docs file
    carries its stamp, so one a later build stamped is refused."""
    return {b"input_fingerprint": input_fp.encode(), b"phase_a_config": str(config_fp).encode()}


def write_json_atomic(path: str, obj: dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
    os.replace(tmp, path)


def read_json(path: str) -> dict[str, Any] | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def input_fingerprint(path: str, row_group_start: int, row_group_end: int, n_rows: int) -> str:
    """Deterministic fingerprint of one input slice.

    Uses basename + row-group range + row count + file size: a changed input
    partition invalidates only its own derived parts (SURVEY §7.4).
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        size = -1
    return f"{os.path.basename(path)}:{row_group_start}-{row_group_end}:{n_rows}:{size}"


def collection_stats(summaries: list[dict], deleted_lens=None) -> dict:
    """Collection statistics of phase-A part summaries (the parts' lineage
    manifests): docCount and sumTotalTermFreq, plus ``fields`` — per named
    field, docCount (docs with a token in it) and sumTotalTermFreq (Lucene
    CollectionStatistics). ``deleted_lens(column)``, when given, returns
    the deleted docs' values of a docs-sidecar length column (``doc_len``,
    ``len_f_<field>``), and their contribution is subtracted: the live
    stats a purge merge commits."""
    stats = {"doc_count": 0, "sum_total_tf": 0}
    fields: dict[str, dict[str, int]] = {}
    for s in summaries:
        stats["doc_count"] += int(s["n_docs"])
        stats["sum_total_tf"] += int(s["sum_doc_len"])
        for fname, fs in (s.get("field_stats") or {}).items():
            agg = fields.setdefault(fname, {"doc_count": 0, "sum_total_tf": 0})
            agg["doc_count"] += int(fs["doc_count"])
            agg["sum_total_tf"] += int(fs["sum_total_tf"])
    if deleted_lens is not None:
        lens = deleted_lens("doc_len")
        stats["doc_count"] -= len(lens)
        stats["sum_total_tf"] -= int(lens.sum())
        for fname, agg in fields.items():
            lens = deleted_lens(f"len_f_{fname}")
            agg["doc_count"] -= int((lens > 0).sum())
            agg["sum_total_tf"] -= int(lens.sum())
    if fields:
        stats["fields"] = {k: fields[k] for k in sorted(fields)}
    return stats


def is_valid(manifest_path: str, fingerprint: str) -> dict[str, Any] | None:
    """Return the manifest dict iff it exists and matches the fingerprint."""
    m = read_json(manifest_path)
    if m is not None and m.get("input_fingerprint") == fingerprint:
        return m
    return None


def index_fingerprint(index_dir: str) -> str:
    """Deterministic fingerprint of a committed index's logical content —
    the PeerSync / IndexFingerprint analog (reference
    solr/core/src/java/org/apache/solr/update/IndexFingerprint.java:
    replicas compare a cheap digest before deciding to sync). Computed
    from the committed manifest only (segment identities + posting counts +
    lineage/checksums + the delete set resolved to positional ids), never
    by re-reading postings — O(#segments) at any corpus size. Two indexes
    built from the same inputs with the same config fingerprint
    identically; any append, delete, purge or config change diverges."""
    import hashlib

    from apache___solr_ray.deletes import deleted_ids

    man = read_json(os.path.join(index_dir, "index_manifest.json"))
    if man is None:
        raise FileNotFoundError(f"no committed index at {index_dir}")
    h = hashlib.sha1()
    h.update(str(man.get("config", "")).encode())
    for s in man.get("segments", []):  # in commit (doc) order
        h.update(
            f"{s.get('name')}:{s.get('n_terms')}:{s.get('n_postings')}:"
            f"{s.get('bytes')}:{s.get('lineage', s.get('checksum', ''))};".encode()
        )
    stats = man.get("stats", {})
    h.update(f"{stats.get('doc_count')}:{stats.get('sum_total_tf')};".encode())
    h.update(",".join(str(int(t)) for t in deleted_ids(man)).encode())
    return h.hexdigest()
