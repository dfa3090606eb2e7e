"""apache___solr_ray — a Ray-Data-native inverted-index build + BM25 query engine.

A from-scratch rebuild of the indexing and query core of Apache Solr/Lucene
(reference: solrbot/apache-_-solr at /root/reference) expressed as idiomatic
Ray Data pipelines:

- ``ray.data.read_parquet`` over Common-Crawl-style web pages
  ``(url, warc_ts, html, text, lang)``,
- stateless ``map_batches`` HTML→text extraction (HTMLStripCharFilter
  semantics, reference ``HTMLStripFieldUpdateProcessorFactory.java:64``),
- vectorized StandardTokenizer-equivalent analysis (UAX#29 approximation,
  lowercase + stop filter; reference default chain
  ``_default/conf/managed-schema.xml:299-315``),
- a term-hash groupby shuffle with skew-aware salting building segment-style
  posting lists (delta+VInt compression, 128-doc blocks with block-max skip
  metadata, sorted term dictionaries),
- Lucene-exact BM25 scoring (k1=1.2, b=0.75, SmallFloat 1-byte length norms;
  reference ``BM25SimilarityFactory.java:47-50``) with batched exhaustive top-k,
- tiered merging, per-partition lineage manifests and resumable builds.

Nothing here is a port: the reference tells us WHAT to compute, Ray Data
dictates HOW.
"""

__version__ = "0.1.0"

from apache___solr_ray import lucene  # noqa: F401
