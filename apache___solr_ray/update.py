"""Overwrite-by-uniqueKey (upsert) — the reference's
``IndexWriter.updateDocument(Term(uniqueKey), doc)`` path
(``solr/core/src/java/org/apache/solr/update/DirectUpdateHandler2.java:453-530``:
``overwrite`` → updateDocument = atomic delete-old + add-new).

Batch restatement: delete the existing docs for the incoming urls (one
manifest swap, ``deletes.delete_by_url``), append the new rows as a NEW
corpus partition file, and run the build again — which resumes every
untouched partition (lineage manifests), only tokenizes the appended one,
and carries the delete set into its commit. Appended files sort after the
original ``pages-*`` files, so existing part ids — and therefore doc ids —
are stable, and the new part's doc ids follow every old one: phase B
extends each segment the part lands in from the stored segment (its
sources are a prefix of the new segment's), keeping the stored bytes and
encoding only the new postings and the partial blocks they continue, and
resumes the rest. Old versions stop matching instantly; a later
``merge_segments(purge_deletes=True)`` reclaims their postings and they
stay deleted (merged segments are no phase-B prefix, so the next upsert
encodes its segments from scratch).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from apache___solr_ray.build import IndexConfig, build_index
from apache___solr_ray.deletes import delete_by_url


def upsert_pages(
    corpus_dir: str, index_dir: str, pages: pa.Table, cfg: IndexConfig
) -> dict:
    """Overwrite (or insert) the given pages by url; returns the new
    committed manifest. ``pages`` must carry the corpus schema columns the
    build reads (url, lang, and html or text per cfg.text_from_html)."""
    urls = pages.column("url").to_pylist()
    delete_by_url(index_dir, urls)

    seq = sum(1 for f in os.listdir(corpus_dir) if f.startswith("upsert-"))
    path = os.path.join(corpus_dir, f"upsert-{seq:06d}.parquet")
    tmp = path + ".tmp"
    pq.write_table(pages, tmp, row_group_size=2048)
    os.replace(tmp, path)

    return build_index(corpus_dir, index_dir, cfg)


def _url_rows(corpus_dir: str, urls: list[str], columns: list[str] | None = None) -> pa.Table:
    """Every corpus row of ``urls``, in file order: one url-filtered scan of
    the corpus files (Parquet predicate pushdown prunes row groups)."""
    import pyarrow.dataset as pads

    files = sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir) if f.endswith(".parquet"))
    hit = pads.field("url").isin(pa.array(urls, pa.string()))
    return pads.dataset(files, format="parquet").to_table(columns=columns, filter=hit)


def _fetch_stored(corpus_dir: str, urls: list[str]) -> pa.Table:
    """Latest stored row per url (``_url_rows``; upsert files sort after
    the originals, so 'latest version wins' = keep the LAST occurrence in
    file order, mirroring the tombstone semantics of upsert_pages)."""
    t = _url_rows(corpus_dir, urls)
    # keep last occurrence per url (files scanned in sorted order)
    seen: dict[str, int] = {}
    for i, u in enumerate(t.column("url").to_pylist()):
        seen[u] = i
    return t.take(pa.array(sorted(seen.values()))) if seen else t


class VersionConflict(Exception):
    """Optimistic-concurrency failure — the stored doc's version does not
    match the one the caller required (Solr's 409 on a stale ``_version_``,
    DistributedUpdateProcessor.versionAdd)."""


def doc_versions(corpus_dir: str, urls: list[str]) -> dict[str, int]:
    """Current update-version per uniqueKey: the overwrite path APPENDS a
    new row per update (old rows are tombstoned, not rewritten), so a
    doc's version == its occurrence count across the corpus files
    (1 = original, +1 per upsert/atomic update) — monotonic per key,
    derived from the same storage the rebuild reads (no extra sidecar).

    SINGLE-WRITER ASSUMPTION: the scan (``_url_rows``) is O(corpus files)
    per call and check-then-write is not atomic across processes — two
    concurrent version-checked updates could both read the same version
    and double-apply. Solr serializes this per-core via the update log's
    version bucket lock (DistributedUpdateProcessor.versionAdd); here the
    contract is one writer per corpus_dir (the same contract the build's
    commit manifest already requires). At scale, restrict the scan with a
    url->file sidecar and route writes through a single committer actor."""
    counts = dict.fromkeys(urls, 0)
    for u in _url_rows(corpus_dir, urls, ["url"]).column("url").to_pylist():
        counts[u] += 1
    return counts


def atomic_update(
    corpus_dir: str,
    index_dir: str,
    updates: list[dict],
    cfg: IndexConfig,
    require_versions: dict[str, int] | None = None,
) -> dict:
    """Atomic/partial updates — the AtomicUpdateDocumentMerger analog
    (reference ``solr/core/src/java/org/apache/solr/update/processor/
    AtomicUpdateDocumentMerger.java``; test surface AtomicUpdatesTest.java).

    Each update is ``{"url": <uniqueKey>, <field>: {"set"|"inc"|"add"|
    "remove": value}, ...}``. The stored doc is fetched, ops are merged
    field-wise (set = replace, inc = numeric add, add/remove = multivalued
    list append/delete), and the merged doc goes through the normal
    overwrite-by-uniqueKey path — old segments stay untouched (tombstone +
    append + resumable rebuild), exactly Solr's update-reindexes-the-
    whole-merged-doc semantics. Raises KeyError for an unknown url (Solr
    rejects atomic ops against a missing doc unless every field is
    createable — we keep the strict form).

    ``require_versions``: optimistic concurrency (Solr ``_version_`` > 0,
    DistributedUpdateProcessor.versionAdd): per url, the version the
    caller last read (``doc_versions``); a mismatch raises
    ``VersionConflict`` BEFORE any write — the whole batch is rejected,
    matching Solr's per-request 409."""
    urls = [u["url"] for u in updates]
    if require_versions:
        cur = doc_versions(corpus_dir, list(require_versions))
        stale = {u: (v, cur.get(u, 0)) for u, v in require_versions.items() if cur.get(u, 0) != v}
        if stale:
            raise VersionConflict(
                f"version conflict (required != stored): {dict(sorted(stale.items()))}"
            )
    stored = _fetch_stored(corpus_dir, urls)
    by_url = {
        u: {c: stored.column(c)[i].as_py() for c in stored.column_names}
        for i, u in enumerate(stored.column("url").to_pylist())
    }
    merged_rows = []
    for upd in updates:
        url = upd["url"]
        if url not in by_url:
            raise KeyError(f"atomic update against missing uniqueKey {url!r}")
        doc = dict(by_url[url])
        for field, op in upd.items():
            if field == "url":
                continue
            if not isinstance(op, dict) or len(op) != 1:
                raise ValueError(f"field {field!r}: op must be {{set|inc|add|remove: value}}")
            (verb, val), = op.items()
            if verb == "set":
                doc[field] = val
            elif verb == "inc":
                doc[field] = (doc.get(field) or 0) + val
            elif verb == "add":
                cur = doc.get(field)
                if cur is None:
                    cur = []
                elif not isinstance(cur, list):
                    raise ValueError(f"field {field!r} is not multivalued; use set")
                doc[field] = cur + (val if isinstance(val, list) else [val])
            elif verb == "remove":
                cur = doc.get(field) or []
                if not isinstance(cur, list):
                    raise ValueError(f"field {field!r} is not multivalued; use set")
                rm = set(val if isinstance(val, list) else [val])
                doc[field] = [x for x in cur if x not in rm]
            else:
                raise ValueError(f"unknown atomic verb {verb!r}")
        merged_rows.append(doc)
    merged = pa.Table.from_pylist(merged_rows, schema=stored.schema)
    return upsert_pages(corpus_dir, index_dir, merged, cfg)
