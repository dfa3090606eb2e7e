"""Deletes — the DeleteStream / deleteById analog (reference
``solr/solrj-streaming/.../stream/DeleteStream.java`` javadoc: sink deleting
docs by uniqueKey; Lucene semantics: a delete is a TOMBSTONE — the doc stops
matching immediately, but collection statistics (docCount,
sumTotalTermFreq, df) are unchanged until a merge reclaims the postings,
exactly like Lucene liveDocs + merge).

The delete set is part of the commit point, as Lucene's liveDocs
generations are named by ``segments_N``: ``index_manifest.json`` holds
``"deletes": {fp: {"rows": [...], "urls": [...]}}``, keyed by the input
fingerprint of each doc part (an entry of the manifest's
``input_fingerprints``) and the row within it, so a corpus file that sorts
before the existing ones cannot shift a delete onto another doc. ``urls``
is aligned with ``rows``; ``build.build_index`` uses it to re-key a part
whose fingerprint leaves the layout (a re-partition, a changed file).
Readers resolve the set to positional ids (``deleted_ids``) from the
manifest they already parse, and mask candidates before scores accumulate.

``merge.merge_segments(purge_deletes=True)`` drops the deleted docs'
postings and commits the live stats (``live_stats``), but keeps the set:
the corpus and ``postings_raw`` still hold the docs, so a later rebuild
masks them without re-applying anything.

Doc columns (url) are read through ``IndexReader.doc_column``, so only the
doc parts of the committed manifest count: a stale part file a
re-partitioning rebuild left in ``docs/`` cannot gain a delete.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray.manifest import collection_stats, read_json, write_json_atomic


def deleted_ids(man: dict) -> np.ndarray:
    """Sorted positional doc ids of the manifest's delete set:
    ``(i << 32) + row`` for each fingerprint at position ``i`` of
    ``input_fingerprints``. An entry whose fingerprint is not in the
    layout names no indexed doc. Each entry's rows are sorted and unique
    (``add_deletes``) and entries are taken in layout order, so the ids
    need no sort."""
    deletes = man.get("deletes") or {}
    return np.array(
        [
            (i << 32) + row
            for i, fp in enumerate(man.get("input_fingerprints") or [])
            for row in deletes.get(fp, {}).get("rows", ())
        ],
        np.int64,
    )


def add_deletes(deletes: dict, fp: str, urls: pa.Array, want: pa.Array) -> int:
    """Add the rows of one doc part whose url (``urls``, the part's url
    column) is in ``want`` to ``deletes[fp]``, keeping rows sorted and
    ``urls`` aligned. Returns the number of newly deleted rows."""
    rows = pc.indices_nonzero(pc.is_in(urls, value_set=want))
    if len(rows) == 0:
        return 0
    old = deletes.get(fp) or {"rows": [], "urls": []}
    by_row = dict(zip(old["rows"], old["urls"]))
    n_old = len(by_row)
    by_row.update(zip(rows.to_pylist(), pc.take(urls, rows).to_pylist()))
    ordered = sorted(by_row)
    deletes[fp] = {"rows": ordered, "urls": [by_row[r] for r in ordered]}
    return len(by_row) - n_old


def delete_by_url(index_dir: str, urls: list[str]) -> int:
    """Delete the docs with these urls (uniqueKey deletes) in one manifest
    swap. Returns the number of newly deleted docs. Unknown urls are
    ignored (Solr's deleteById of a missing id is a no-op)."""
    from apache___solr_ray.query import IndexReader

    reader = IndexReader(index_dir)
    man = dict(reader.manifest)
    deletes = dict(man.get("deletes") or {})
    want = pa.array(sorted(set(urls)), pa.string())
    n_new = sum(
        add_deletes(deletes, fp, reader.doc_column(p, "url"), want)
        for p, fp in enumerate(man["input_fingerprints"])
    )
    reader.close()
    if n_new:
        man["deletes"] = deletes
        write_json_atomic(os.path.join(index_dir, "index_manifest.json"), man)
    return n_new


def clear_tombstones(index_dir: str) -> None:
    """Empty the committed delete set (undo every delete)."""
    path = os.path.join(index_dir, "index_manifest.json")
    man = read_json(path)
    if man is None:
        raise FileNotFoundError(f"no committed index at {index_dir}")
    man["deletes"] = {}
    write_json_atomic(path, man)


def live_stats(index_dir: str) -> tuple[dict, np.ndarray]:
    """(live collection stats, deleted doc ids) of the committed index: the
    stats of the committed parts' lineage manifests minus the deleted
    docs' lengths from the docs sidecar."""
    from apache___solr_ray.query import IndexReader

    reader = IndexReader(index_dir)
    parts = [
        read_json(os.path.join(index_dir, "manifests", f"part-{p:06d}.json"))
        for p in range(reader.n_doc_parts)
    ]
    tombs = reader.tombstones

    def lens(col: str) -> np.ndarray:
        return reader.doc_values(tombs, col).to_numpy(zero_copy_only=False)

    live = collection_stats(parts, lens if len(tombs) else None)
    reader.close()
    return live, tombs
