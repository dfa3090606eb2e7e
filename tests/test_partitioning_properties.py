"""Property test: query results are invariant to the physical layout —
ANY (target_docs_per_part, term_partitions, max_postings_per_segment)
must yield identical BM25 scores and URL sets (the reference's
shard-count-sweep idea, BaseDistributedSearchTestCase, driven by hypothesis
instead of a fixed list)."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apache___solr_ray.build import IndexConfig, build_index
from apache___solr_ray.corpus import write_pages
from apache___solr_ray.query import IndexReader

N_DOCS = 384
QUERIES = ["the fast data", "example.com", "state of the art merge", "3.14"]

_ctx = {}


@pytest.fixture(scope="module")
def control(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages_prop"))
    write_pages(d, N_DOCS, seed=42, rows_per_file=128)
    idx = str(tmp_path_factory.mktemp("index_prop_control"))
    build_index(d, idx, IndexConfig(term_partitions=1, target_docs_per_part=10**6))
    r = IndexReader(idx)
    expect = {}
    for q in QUERIES:
        dd, ss = r.topk(q, 10)
        expect[q] = (r.urls_for(dd), ss.tolist())
    _ctx["corpus"] = d
    _ctx["root"] = str(tmp_path_factory.mktemp("index_prop_variants"))
    return expect


@given(
    part=st.sampled_from([128, 256, 384]),
    tparts=st.integers(min_value=2, max_value=6),
    maxpost=st.sampled_from([3000, 8000, 10**9]),
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_partitioning_matches_control(control, part, tparts, maxpost):
    idx = os.path.join(_ctx["root"], f"v_{part}_{tparts}_{maxpost}")
    cfg = IndexConfig(
        term_partitions=tparts,
        target_docs_per_part=part,
        max_postings_per_segment=maxpost,
    )
    build_index(_ctx["corpus"], idx, cfg)
    r = IndexReader(idx)
    for q, (want_urls, want_scores) in control.items():
        dd, ss = r.topk(q, 10)
        assert ss.tolist() == want_scores, (q, cfg)
        # same docs per score level (tie order may differ across doc-id spaces)
        got = {}
        want = {}
        for s, u in zip(ss.tolist(), r.urls_for(dd)):
            got.setdefault(s, set()).add(u)
        for s, u in zip(want_scores, want_urls):
            want.setdefault(s, set()).add(u)
        assert got == want, (q, cfg)
