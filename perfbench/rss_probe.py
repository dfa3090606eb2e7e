"""Memory of a serving reader, measured in a process of its own.

    python3 -m perfbench.rss_probe <index_dir> <passes>

Run from the root of a checkout. Imports the engine, reads VmRSS, opens an
``IndexReader`` on the index, answers the hot query set ``passes`` times
and prints the growth of VmRSS in MB. A fresh process has no memory freed
by earlier readers to reuse, so the growth is the reader's own: its term
dictionaries, term cache and the mapped postings pages it touched.
"""

from __future__ import annotations

import sys

# term_postings imports build (and with it pandas) on its first call:
# module code, not reader memory, so it is imported before the first reading
import apache___solr_ray.build  # noqa: F401
from apache___solr_ray.query import IndexReader
from perfbench.harness import hot_queries, rss_mb


def main() -> None:
    index_dir, passes = sys.argv[1], int(sys.argv[2])
    queries = hot_queries()
    rss0 = rss_mb()
    reader = IndexReader(index_dir)
    for _ in range(passes):
        for q in queries:
            reader.topk(q, 10)
    print(rss_mb() - rss0)
    reader.close()


if __name__ == "__main__":
    main()
