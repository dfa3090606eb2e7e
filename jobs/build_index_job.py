#!/usr/bin/env python
"""`ray job submit`-able index build + query entrypoint.

On a real cluster:

    ray job submit --working-dir . -- \
        python jobs/build_index_job.py \
            --input /data/pages --index-dir /shared/index \
            --term-partitions 4096 --target-docs-per-part 65536

In this sandbox the same script runs standalone (auto `ray.init` local).
The build is resumable: re-submitting after an interruption skips completed
phase-A partitions (lineage manifests) and finished segments, then
re-commits atomically. `--query` serves a quick smoke query set afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="directory of pages parquet files")
    ap.add_argument("--index-dir", required=True)
    ap.add_argument("--term-partitions", type=int, default=64)
    ap.add_argument("--target-docs-per-part", type=int, default=65536)
    ap.add_argument("--max-postings-per-segment", type=int, default=16_000_000)
    ap.add_argument("--no-html", action="store_true", help="index the text column directly")
    ap.add_argument("--merge-target", type=int, default=0, help="if >0, tier-merge to N segs/tkey")
    ap.add_argument("--delete-url", nargs="*", default=[], help="tombstone these uniqueKeys after build")
    ap.add_argument("--purge-deletes", action="store_true", help="merge with delete reclamation")
    ap.add_argument("--query", nargs="*", default=[], help="smoke queries to serve after build")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)

    from apache___solr_ray.build import IndexConfig, build_index
    from apache___solr_ray.merge import merge_segments
    from apache___solr_ray.query import IndexReader

    cfg = IndexConfig(
        term_partitions=args.term_partitions,
        target_docs_per_part=args.target_docs_per_part,
        max_postings_per_segment=args.max_postings_per_segment,
        text_from_html=not args.no_html,
    )
    man = build_index(args.input, args.index_dir, cfg)
    print(
        json.dumps(
            {
                "build": man["metrics"],
                "stats": man["stats"],
                "resumed_commit": man.get("resumed_commit", False),
            }
        )
    )

    if args.delete_url:
        from apache___solr_ray.deletes import delete_by_url

        n = delete_by_url(args.index_dir, args.delete_url)
        print(json.dumps({"tombstoned": n}))

    if args.merge_target or args.purge_deletes:
        man = merge_segments(
            args.index_dir,
            target_per_tkey=args.merge_target or 1,
            purge_deletes=args.purge_deletes,
        )
        print(
            json.dumps(
                {
                    "merged_segments": len(man["segments"]),
                    "live_doc_count": man["stats"]["doc_count"],
                }
            )
        )

    if args.query:
        r = IndexReader(args.index_dir)
        for q in args.query:
            d, s = r.topk(q, 10)
            print(json.dumps({"query": q, "doc_ids": d.tolist(), "scores": [float(x) for x in s]}))

    ray.shutdown()


if __name__ == "__main__":
    main()
