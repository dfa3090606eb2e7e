"""Index backup / restore — the reference's backup surface rebuilt for a
shared-filesystem Ray deployment (reference:
solr/core/src/java/org/apache/solr/handler/SnapShooter.java — snapshot of
the current commit point's files; incremental sharing of unchanged files
across backups per
solr/core/src/java/org/apache/solr/handler/IncrementalShardBackup.java and
the BackupRepository file-listing contract in
solr/core/src/java/org/apache/solr/core/backup/BackupManager.java).

Design (idiomatic for immutable segment files, which never change after
commit — the same property Lucene's incremental backups exploit):

- ``backup_dir/pool/<sha1>`` — content-addressed store; each distinct file
  body is written ONCE, no matter how many backups reference it. A second
  backup of an unchanged index adds zero pool bytes (the incremental
  property, asserted by pytest).
- ``backup_dir/<name>/backup_manifest.json`` — atomic commit point: the
  backed-up ``index_manifest.json`` content, the index fingerprint
  (manifest-metadata digest, see ``manifest.index_fingerprint``), and the
  relpath → (sha1, size) table for every committed file.
- Restore copies pool bodies to a ``.tmp`` staging dir and atomically
  renames — a killed restore never leaves a half-index behind, mirroring
  the build's segment-commit discipline.

Only COMMITTED state is captured: the file set is enumerated from
``index_manifest.json`` — the segment packs it names — plus the
build's known sidecars of its ``n_doc_parts`` doc partitions
(SnapShooter snapshots the commit point's files, never in-flight ones).
Segments no manifest names, the part files a re-partitioning rebuild
left past ``n_doc_parts`` and foreign files in the index directory are
not backed up."""

from __future__ import annotations

import hashlib
import os
import shutil

from apache___solr_ray.manifest import index_fingerprint, read_json, write_json_atomic
from apache___solr_ray.segment import pack_files


class BackupError(RuntimeError):
    pass


def _sha1_file(path: str) -> tuple[str, int]:
    h = hashlib.sha1()
    n = 0
    with open(path, "rb") as f:
        while True:
            b = f.read(1 << 20)
            if not b:
                break
            h.update(b)
            n += len(b)
    return h.hexdigest(), n


#: index-directory entries beside the segments that a committed index
#: reads, one ``part-NNNNNN`` file per doc partition: phase-A outputs and
#: lineage (collection stats and the delete set ride in
#: ``index_manifest.json``)
SIDECARS = (("docs", ".parquet"), ("postings_raw", ".parquet"), ("manifests", ".json"))


def _committed_files(man: dict) -> list[str]:
    """Relative paths of the commit point's files: the known sidecars of
    its ``n_doc_parts`` parts and the packs ``man`` names, then the
    manifest last, so a restored dir is never visible with a manifest but
    missing bodies."""
    n_parts = man["stats"]["n_doc_parts"]
    out = [os.path.join(d, f"part-{i:06d}{ext}") for d, ext in SIDECARS for i in range(n_parts)]
    out += pack_files(man)
    out.append("index_manifest.json")
    return out


def create_backup(index_dir: str, backup_dir: str, name: str) -> dict:
    """Snapshot the committed index into ``backup_dir/name``. Returns the
    backup manifest. Unchanged file bodies already in the pool are NOT
    rewritten (incremental backups share immutable segment files)."""
    man = read_json(os.path.join(index_dir, "index_manifest.json"))
    if man is None:
        raise BackupError(f"no committed index at {index_dir}")
    pool = os.path.join(backup_dir, "pool")
    os.makedirs(pool, exist_ok=True)
    files: dict[str, dict] = {}
    new_bodies = 0
    for rel in _committed_files(man):
        src = os.path.join(index_dir, rel)
        sha, size = _sha1_file(src)
        body = os.path.join(pool, sha)
        if not os.path.exists(body):
            tmp = body + f".tmp.{os.getpid()}"
            shutil.copyfile(src, tmp)
            os.replace(tmp, body)
            new_bodies += 1
        files[rel] = {"sha1": sha, "size": size}
    bman = {
        "name": name,
        "index_fingerprint": index_fingerprint(index_dir),
        "index_manifest": man,
        "files": files,
        "new_pool_files": new_bodies,
    }
    write_json_atomic(os.path.join(backup_dir, name, "backup_manifest.json"), bman)
    return bman


def verify_backup(backup_dir: str, name: str) -> None:
    """Re-hash every referenced pool body; raise on corruption or a
    missing body (the reference's checksum-on-restore contract)."""
    bman = read_json(os.path.join(backup_dir, name, "backup_manifest.json"))
    if bman is None:
        raise BackupError(f"no backup {name!r} in {backup_dir}")
    for rel, meta in bman["files"].items():
        body = os.path.join(backup_dir, "pool", meta["sha1"])
        if not os.path.exists(body):
            raise BackupError(f"missing pool body for {rel}")
        sha, size = _sha1_file(body)
        if sha != meta["sha1"] or size != meta["size"]:
            raise BackupError(f"corrupt pool body for {rel}")


def restore_backup(backup_dir: str, name: str, dest_index_dir: str) -> str:
    """Materialize the backup into ``dest_index_dir`` (must not exist).
    Staged in ``dest.tmp`` + atomic rename; returns the restored index's
    fingerprint, which must equal the manifest's recorded one."""
    bman = read_json(os.path.join(backup_dir, name, "backup_manifest.json"))
    if bman is None:
        raise BackupError(f"no backup {name!r} in {backup_dir}")
    if os.path.exists(dest_index_dir):
        raise BackupError(f"restore target exists: {dest_index_dir}")
    verify_backup(backup_dir, name)
    stage = dest_index_dir.rstrip("/") + f".tmp.{os.getpid()}"
    if os.path.exists(stage):
        shutil.rmtree(stage)
    for rel, meta in bman["files"].items():
        dst = os.path.join(stage, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(backup_dir, "pool", meta["sha1"]), dst)
    os.replace(stage, dest_index_dir)
    fp = index_fingerprint(dest_index_dir)
    if fp != bman["index_fingerprint"]:
        raise BackupError(
            f"restored fingerprint {fp} != recorded {bman['index_fingerprint']}"
        )
    return fp


def list_backups(backup_dir: str) -> list[str]:
    if not os.path.isdir(backup_dir):
        return []
    return sorted(
        d
        for d in os.listdir(backup_dir)
        if d != "pool"
        and os.path.exists(os.path.join(backup_dir, d, "backup_manifest.json"))
    )
