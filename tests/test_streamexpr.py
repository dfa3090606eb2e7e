"""Streaming-expression front-end: parser shapes, compile errors, and a
cross-check that hashJoin (build-side form) equals innerJoin."""

import pytest

from apache___solr_ray.streamexpr import (
    Node,
    StreamExprError,
    parse_stream_expr,
    stream_expr,
)

SF = "/root/testdata/sf0.001"


def test_parser_shapes():
    n = parse_stream_expr(
        'rollup(search(events, q="*:*", fl="a,b"), over="a", sum(b), count(*))'
    )
    assert n.name == "rollup" and n.params["over"] == "a"
    assert isinstance(n.args[0], Node) and n.args[0].name == "search"
    assert n.args[0].params["q"] == "*:*"
    assert [a.name for a in n.args[1:]] == ["sum", "count"]
    assert n.args[2].args == ["*"]
    # escaped quotes in string params
    n2 = parse_stream_expr('search(t, q="a:\\"x\\"", fl="a")')
    assert n2.params["q"] == 'a:"x"'


def test_parse_errors():
    with pytest.raises(StreamExprError):
        parse_stream_expr("rollup(")
    with pytest.raises(StreamExprError):
        parse_stream_expr("rollup(a b)")
    with pytest.raises(StreamExprError):
        stream_expr(SF, 'frobnicate(search(events, q="*:*", fl="event_id"))')


def test_compile_errors(ray_session):
    # search without fl
    with pytest.raises(StreamExprError):
        stream_expr(SF, 'search(events, q="*:*")')
    # unique without a declared sort on the inner stream
    with pytest.raises(StreamExprError):
        stream_expr(
            SF, 'unique(search(events, q="*:*", fl="user_id"), over="user_id")'
        )
    # top without sort
    with pytest.raises(StreamExprError):
        stream_expr(SF, 'top(search(events, q="*:*", fl="event_id"), n=3)')
    # unsupported q syntax
    with pytest.raises(StreamExprError):
        stream_expr(SF, 'search(events, q="a:b AND c:d", fl="event_id")')


def test_hashjoin_equals_innerjoin(ray_session):
    inner = stream_expr(
        SF,
        'innerJoin(search(customer, q="*:*", fl="c_custkey,c_name"), '
        'search(orders, q="*:*", fl="o_orderkey,o_custkey"), on="c_custkey=o_custkey")',
    ).to_pandas()
    hashed = stream_expr(
        SF,
        'hashJoin(search(customer, q="*:*", fl="c_custkey,c_name"), '
        'hashed=search(orders, q="*:*", fl="o_orderkey,o_custkey"), on="c_custkey=o_custkey")',
    ).to_pandas()
    import pandas as pd

    key = ["c_custkey", "o_orderkey"]
    pd.testing.assert_frame_equal(
        inner.sort_values(key).reset_index(drop=True),
        hashed[inner.columns].sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )
    assert len(inner) > 0


def test_range_query_filter(ray_session):
    df = stream_expr(
        SF, 'search(events, q="value:[10 TO 20]", fl="event_id,value")'
    ).to_pandas()
    assert len(df) > 0
    assert df["value"].between(10, 20).all()


def test_hashed_side_guard_before_collect(ray_session, monkeypatch):
    """An over-limit hashed side must raise from the metadata-count check
    BEFORE any to_pandas() driver collection (ADVICE r4: the old order
    could OOM the driver before the guard fired)."""
    import apache___solr_ray.streamexpr as se

    monkeypatch.setattr(se, "HASHED_SIDE_MAX", 3)
    with pytest.raises(StreamExprError, match="HASHED_SIDE_MAX|rows"):
        stream_expr(
            SF,
            'hashJoin(search(events, q="*:*", fl="user_id,event_id"), '
            'hashed=search(customer, q="*:*", fl="c_custkey,c_name"), '
            'on="user_id=c_custkey")',
        )


def test_set_op_guard_before_collect(ray_session, monkeypatch):
    """intersect()/complement() size-check the distinct-key table via
    count() before collecting it."""
    import apache___solr_ray.streamexpr as se

    monkeypatch.setattr(se, "HASHED_SIDE_MAX", 2)
    with pytest.raises(StreamExprError, match="distinct keys"):
        stream_expr(
            SF,
            'intersect(search(events, q="*:*", fl="user_id,event_id"), '
            'search(customer, q="*:*", fl="c_custkey"), on="user_id=c_custkey")',
        )


# -- math expressions (let / evaluators), cartesianProduct, parallel ---------


def test_mathexpr_evaluator_invariants():
    """Pure-numpy evaluator identities (no Ray needed)."""
    import numpy as np

    from apache___solr_ray.mathexpr import EVALS

    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    assert EVALS["corr"](a, b) == pytest.approx(1.0)
    model = EVALS["regress"](a, b)
    assert model["slope"] == pytest.approx(2.0)
    assert model["intercept"] == pytest.approx(0.0)
    assert model["rsquared"] == pytest.approx(1.0)
    assert EVALS["predict"](model, 7.0) == pytest.approx(14.0)
    assert list(EVALS["movingAvg"](a, 2)) == [1.5, 2.5, 3.5, 4.5]
    assert list(EVALS["diff"](a)) == [1.0, 1.0, 1.0, 1.0]
    assert list(EVALS["cumulativeSum"](a)) == [1.0, 3.0, 6.0, 10.0, 15.0]
    assert EVALS["dotProduct"](a, b) == pytest.approx(float(a @ b))
    assert EVALS["cosineSimilarity"](a, b) == pytest.approx(1.0)
    assert EVALS["percentile"](a, 50) == pytest.approx(3.0)
    z = EVALS["zscores"](a)
    assert z.mean() == pytest.approx(0.0)
    assert z.std(ddof=1) == pytest.approx(1.0)
    bins = EVALS["hist"](a, 2)
    assert [r["n"] for r in bins] == [2.0, 3.0]
    # precision uses the oracle's floor(x*K+0.5)/K half-up convention
    assert EVALS["precision"](0.00005, 4) == 0.0001
    assert EVALS["precision"](-0.00005, 4) == pytest.approx(0.0)


def test_let_unbound_variable(ray_session):
    with pytest.raises(StreamExprError, match="unbound"):
        stream_expr(SF, 'let(a=col(search(events, q="*:*", fl="value"), "value"), corr(a, zz))')


def test_let_vector_guard(ray_session, monkeypatch):
    import apache___solr_ray.streamexpr as se

    monkeypatch.setattr(se, "LET_VECTOR_MAX", 3)
    with pytest.raises(StreamExprError, match="LET_VECTOR_MAX"):
        stream_expr(SF, 'let(a=col(search(events, q="*:*", fl="value"), "value"), mean(a))')


def test_termvectors_entry_guard_before_collect(ray_session, monkeypatch):
    import apache___solr_ray.streamexpr as se
    from apache___solr_ray.pipelines.streamq import QUERIES

    monkeypatch.setattr(se, "LET_VECTOR_MAX", 3)
    with pytest.raises(StreamExprError, match="LET_VECTOR_MAX"):
        QUERIES["stream_termvectors_tfidf"](SF)


def test_cartesian_requires_list_column(ray_session):
    with pytest.raises(Exception, match="not multivalued"):
        stream_expr(
            SF,
            'cartesianProduct(search(events, q="*:*", fl="event_id,value"), "value")',
        ).to_pandas()


def test_cartesian_explodes_lists(ray_session):
    import pyarrow.parquet as pq

    res = stream_expr(
        SF,
        'cartesianProduct(search(embeddings, q="*:*", fl="vec_id,embedding"), "embedding as v")',
    ).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    total = sum(len(x) for x in t.column("embedding").to_pylist())
    assert len(res) == total
    assert list(res.columns) == ["vec_id", "v"]


def test_parallel_repartitions_and_sorts(ray_session):
    ds = stream_expr(
        SF,
        'parallel(search(events, q="*:*", fl="event_id,value"), workers=3, sort="event_id asc")',
    )
    df = ds.to_pandas()
    assert list(df["event_id"]) == sorted(df["event_id"])


def test_cat_stream_reads_files(ray_session, tmp_path):
    (tmp_path / "a.txt").write_text("one\ntwo\n")
    (tmp_path / "b.txt").write_text("three\n")
    df = stream_expr(
        "/root/testdata/sf0.001",
        f'cat("a.txt,b.txt", chroot="{tmp_path}")',
    ).to_pandas()
    assert sorted(df["line"]) == ["one", "three", "two"]
    assert set(df["file"]) == {"a.txt", "b.txt"}
    df2 = stream_expr(
        "/root/testdata/sf0.001", f'cat("a.txt", chroot="{tmp_path}", maxLines=1)'
    ).to_pandas()
    assert len(df2) == 1
    with pytest.raises(StreamExprError, match="escapes|no such"):
        stream_expr("/root/testdata/sf0.001", f'cat("../etc/passwd", chroot="{tmp_path}")')


def test_daemon_wraps_inner(ray_session):
    ds = stream_expr(
        SF,
        'daemon(search(events, q="event_type:click", fl="event_id"), id="d1", runInterval=1000)',
    )
    assert ds.count() > 0
    with pytest.raises(StreamExprError, match="id="):
        stream_expr(SF, 'daemon(search(events, q="*:*", fl="event_id"))')


def test_list_null_echo_tuple(ray_session):
    df = stream_expr(
        SF,
        'list(search(events, q="event_type:click", fl="event_id"),'
        ' search(events, q="event_type:error", fl="event_id"))',
    ).to_pandas()
    a = stream_expr(SF, 'search(events, q="event_type:click", fl="event_id")').count()
    b = stream_expr(SF, 'search(events, q="event_type:error", fl="event_id")').count()
    assert len(df) == a + b
    nc = stream_expr(SF, 'null(search(events, q="event_type:click", fl="event_id"))').to_pandas()
    assert nc["nullCount"].iloc[0] == a
    e = stream_expr(SF, 'echo("hi there")').to_pandas()
    assert e["echo"].iloc[0] == "hi there"
    t = stream_expr(SF, "tuple(x=3, y=4.5)").to_pandas()
    assert t["x"].iloc[0] == 3 and t["y"].iloc[0] == 4.5
    with pytest.raises(StreamExprError):
        stream_expr(SF, "tuple()")


def test_random_deterministic_and_sized(ray_session):
    expr = 'random(events, q="*:*", fl="event_id,value", rows=17, key="event_id")'
    d1 = stream_expr(SF, expr).to_pandas().sort_values("event_id")
    d2 = stream_expr(SF, expr).to_pandas().sort_values("event_id")
    assert len(d1) == 17
    assert d1["event_id"].tolist() == d2["event_id"].tolist()


def test_update_commit_writes_and_manifests(ray_session):
    import json
    import os

    import pyarrow.dataset as pads

    df = stream_expr(
        SF,
        'commit(tdest1, update(tdest1, search(orders, q="o_orderstatus:F",'
        ' fl="o_orderkey,o_totalprice")))',
    ).to_pandas()
    n = int(df["batchIndexed"].iloc[0])
    outdir = "/tmp/apache___solr_ray_cache/stream_updates/tdest1"
    assert pads.dataset(outdir, format="parquet").count_rows() == n
    man = json.load(open(outdir + ".commit_manifest.json"))
    assert man["committed"] and man["docs"] == n
    with pytest.raises(StreamExprError, match="wraps an update"):
        stream_expr(SF, 'commit(tdest1, search(orders, q="*:*", fl="o_orderkey"))')
    with pytest.raises(StreamExprError, match="destination"):
        stream_expr(SF, 'update("../evil", search(orders, q="*:*", fl="o_orderkey"))')


def test_nodes_hop_matches_join(ray_session):
    df = stream_expr(
        SF,
        'nodes(orders, search(customer, q="c_custkey:[1 TO 30]", fl="c_custkey"),'
        ' walk="c_custkey->o_custkey", gather="o_orderkey")',
    ).to_pandas()
    import duckdb

    exp = duckdb.sql(
        f"""SELECT DISTINCT o_orderkey FROM '{SF}/orders.parquet'
            JOIN '{SF}/customer.parquet' ON o_custkey = c_custkey
            WHERE c_custkey BETWEEN 1 AND 30"""
    ).df()
    assert sorted(df["node"]) == sorted(exp["o_orderkey"])
    with pytest.raises(StreamExprError, match="walk="):
        stream_expr(SF, 'nodes(orders, search(customer, q="*:*", fl="c_custkey"), gather="o_orderkey")')


def test_knn_search_self_top1(ray_session):
    df = stream_expr(SF, "knnSearch(embeddings, id=3, k=4)").to_pandas()
    assert df["vec_id"].iloc[0] == 3
    assert df["score"].iloc[0] == pytest.approx(1.0)
    assert len(df) == 4
    assert (df["score"].values[:-1] >= df["score"].values[1:]).all()


def test_sql_stream_decorator(ray_session):
    df = stream_expr(
        SF,
        'sql(events, stmt="SELECT event_type, CAST(count(*) AS BIGINT) AS n '
        "FROM events GROUP BY event_type ORDER BY event_type\")",
    ).to_pandas()
    assert list(df.columns) == ["event_type", "n"]
    assert df.n.sum() == 1000
    with pytest.raises(StreamExprError, match="stmt="):
        stream_expr(SF, "sql(events)")


def test_full_outer_join_keeps_both_sides(ray_session):
    df = stream_expr(
        SF,
        'fullOuterJoin(search(customer, q="*:*", fl="c_custkey,c_name"),'
        ' search(orders, q="o_totalprice:[400000 TO *]",'
        ' fl="o_orderkey,o_custkey,o_totalprice"), on="c_custkey=o_custkey")',
    ).to_pandas()
    # the coalesced key is never null; unmatched customers carry null
    # order fields and every high-price order survives
    assert df.c_custkey.notna().all()
    assert df.o_orderkey.isna().any()
    n_orders = stream_expr(
        SF, 'search(orders, q="o_totalprice:[400000 TO *]", fl="o_orderkey")'
    ).count()
    assert int(df.o_orderkey.notna().sum()) == n_orders


def test_outer_hash_join_is_left_outer(ray_session):
    df = stream_expr(
        SF,
        'outerHashJoin(search(orders, q="o_orderstatus:F", fl="o_orderkey,o_custkey"),'
        ' hashed=search(customer, q="c_acctbal:[9000 TO *]", fl="c_custkey,c_name"),'
        ' on="o_custkey=c_custkey")',
    ).to_pandas()
    n_left = stream_expr(
        SF, 'search(orders, q="o_orderstatus:F", fl="o_orderkey")'
    ).count()
    assert len(df) == n_left  # every left tuple survives exactly once
    # misses are real nulls, not float NaN masquerading as 'nan' strings
    assert not (df.c_name.astype(str) == "nan").any()


def test_csv_tsv_streams(ray_session, tmp_path):
    (tmp_path / "d.csv").write_text("k,name\n1,a\n2,b\n")
    (tmp_path / "d.tsv").write_text("k\tname\n3\tc\n")
    df = stream_expr(SF, f'csv(cat("d.csv", chroot="{tmp_path}"))').to_pandas()
    assert df.to_dict("list") == {"k": [1, 2], "name": ["a", "b"]}
    df = stream_expr(SF, f'tsv(cat("d.tsv", chroot="{tmp_path}"))').to_pandas()
    assert df.to_dict("list") == {"k": [3], "name": ["c"]}
    with pytest.raises(StreamExprError, match="cat"):
        stream_expr(SF, 'csv(search(events, q="*:*", fl="event_id"))')


def test_drill_equals_rollup_over_search(ray_session):
    a = stream_expr(
        SF,
        'drill(events, q="event_type:click", fl="user_id,value",'
        ' rollup(input(), over="user_id", count(*), sum(value)))',
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    b = stream_expr(
        SF,
        'rollup(search(events, q="event_type:click", fl="user_id,value"),'
        ' over="user_id", count(*), sum(value))',
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_facet2d_dimension_cuts(ray_session):
    df = stream_expr(
        SF,
        'facet2D(events, q="*:*", x="event_type", y="user_id",'
        ' dimensions="2,3", count(*))',
    ).to_pandas()
    assert df.event_type.nunique() == 2
    assert (df.groupby("event_type").size() <= 3).all()


def test_let_stream_binding_and_get(ray_session):
    df = stream_expr(
        SF,
        'let(a=search(events, q="event_type:click", fl="event_id,user_id"),'
        ' rollup(get(a), over="user_id", count(*)))',
    ).to_pandas()
    n_click = stream_expr(
        SF, 'search(events, q="event_type:click", fl="event_id")'
    ).count()
    assert df["count(*)"].sum() == n_click
    with pytest.raises(StreamExprError, match="no let"):
        stream_expr(SF, 'rollup(get(zzz), over="x", count(*))')


def test_reduce_group_head(ray_session):
    df = stream_expr(
        SF,
        'reduce(search(events, q="*:*", fl="user_id,event_id,value"),'
        ' by="user_id", group(sort="value desc, event_id asc", n=3))',
    ).to_pandas()
    # one head tuple per user, carrying that user's max value
    assert df.user_id.is_unique
    full = stream_expr(SF, 'search(events, q="*:*", fl="user_id,value")').to_pandas()
    mx = full.groupby("user_id").value.max()
    got = df.set_index("user_id").value
    assert (got == mx.reindex(got.index)).all()
    assert df.groupSize.max() == 3


def test_score_nodes_idf(ray_session):
    import numpy as np

    df = stream_expr(
        SF,
        'scoreNodes(nodes(lineitem,'
        ' search(orders, q="o_totalprice:[400000 TO *]", fl="o_orderkey"),'
        ' walk="o_orderkey->l_orderkey", gather="l_orderkey"),'
        " collection=lineitem, field=l_orderkey)",
    ).to_pandas()
    # BM25 idf of the per-node docFreq against the collection size
    expect = np.log(1 + (df.numDocs - df.docFreq + 0.5) / (df.docFreq + 0.5))
    assert np.allclose(df.nodeScore, expect)
    assert (df.docFreq >= 1).all()  # gathered nodes exist in the collection


def test_topic_checkpointed_poll(ray_session, tmp_path):
    import shutil

    shutil.rmtree("/tmp/apache___solr_ray_cache/topics", ignore_errors=True)
    expr = 'topic(ck, documents, q="text:data", id=pytopic, rows=100)'
    a = stream_expr(SF, expr).to_pandas()
    b = stream_expr(SF, expr).to_pandas()
    assert len(a) == 100 and list(a.columns) == ["doc_id", "url"]
    # the second tick resumes from the committed checkpoint: only NEW docs
    if len(b):
        assert set(a.doc_id).isdisjoint(set(b.doc_id))
        assert b.doc_id.min() > a.doc_id.max()
    # drain fully, then the topic is quiet
    for _ in range(20):
        if len(stream_expr(SF, expr).to_pandas()) == 0:
            break
    assert len(stream_expr(SF, expr).to_pandas()) == 0
    with pytest.raises(StreamExprError, match="id="):
        stream_expr(SF, 'topic(ck, documents, q="text:data")')


def test_shortest_path_and_eval_noop(ray_session):
    import duckdb

    # one-hop path: order->part edge, a part of order 2
    tgt = duckdb.sql(
        f"SELECT min(l_partkey) FROM read_parquet('{SF}/lineitem.parquet')"
        " WHERE l_orderkey = 2"
    ).fetchone()[0]
    df = stream_expr(
        SF,
        f'shortestPath(lineitem, from=2, to={tgt},'
        ' edge="l_orderkey=l_partkey", maxDepth=3)',
    ).to_pandas()
    assert df.path.tolist() == [f"2->{tgt}"]
    # unreachable target -> empty typed result
    df = stream_expr(
        SF,
        'shortestPath(lineitem, from=2, to=999999,'
        ' edge="l_orderkey=l_partkey", maxDepth=2)',
    ).to_pandas()
    assert len(df) == 0
    # eval() compiles the expression stored in the first tuple's expr_s
    df = stream_expr(
        SF, 'eval(tuple(expr_s="search(nation, q=\\"*:*\\", fl=\\"n_name\\")"))'
    ).to_pandas()
    assert len(df) == 25
    # noop() is transparent; the reference-name aliases resolve
    assert stream_expr(SF, 'noop(search(region, q="*:*", fl="r_name"))').count() == 5
    assert (
        stream_expr(
            SF,
            "features(documents, field=text, outcome=lang,"
            " positiveLabel=en, numTerms=3)",
        ).count()
        == 3
    )


def test_select_replace_operation(ray_session):
    # value-match replacement
    df = stream_expr(
        SF,
        'select(search(events, q="*:*", fl="event_id,event_type"),'
        ' "event_id", "event_type",'
        ' replace(event_type, "click", withValue="CLICK"))',
    ).to_pandas()
    assert (df.event_type == "CLICK").sum() > 0
    assert (df.event_type == "click").sum() == 0
    # withField copies another column into matches
    df = stream_expr(
        SF,
        'select(search(events, q="*:*", fl="event_id,value,user_id"),'
        ' "event_id", "value", replace(value, null, withField=user_id))',
    ).to_pandas()
    assert df.value.notna().all()
    with pytest.raises(StreamExprError, match="withValue"):
        stream_expr(SF, 'select(search(events, q="*:*", fl="event_id"), "event_id", replace(event_id, null))')


def test_delete_stream_tombstones(ray_session):
    import shutil

    from apache___solr_ray.deletes import clear_tombstones
    from apache___solr_ray.pipelines.indexq import ensure_doc_index
    from apache___solr_ray.query import IndexReader

    idx = ensure_doc_index(SF)
    clear_tombstones(idx)
    before = IndexReader(idx).topk("data", k=5)[0]
    assert len(before) == 5
    # delete the top hit by url via a tuple() stream carrying the uniqueKey
    url = f"doc://{int(before[0]):012d}"
    out = stream_expr(SF, f'delete(documents, tuple(url="{url}"))').to_pandas()
    assert out.totalDeleted[0] == 1.0
    assert int(before[0]) in set(IndexReader(idx).tombstones.tolist())
    # a FRESH reader no longer returns the tombstoned doc
    after = IndexReader(idx).topk("data", k=5)[0]
    assert int(before[0]) not in set(int(x) for x in after)
    # deleting a missing key is a no-op
    out = stream_expr(SF, 'delete(documents, tuple(url="doc://nope"))').to_pandas()
    assert out.totalDeleted[0] == 0.0
    clear_tombstones(idx)


def test_priority_reads_high_topic_first(ray_session):
    import shutil

    shutil.rmtree("/tmp/apache___solr_ray_cache/topics", ignore_errors=True)
    hi = 'topic(ck, documents, q="text:data", id=prio_hi, rows=50)'
    lo = 'topic(ck, documents, q="text:merge", id=prio_lo, rows=50)'
    expr = f"priority({hi}, {lo})"
    first = stream_expr(SF, expr).to_pandas()
    assert len(first) == 50  # the high-priority tick fed the output
    # unopened low topic never advanced its checkpoint
    import os

    assert not os.path.exists(
        "/tmp/apache___solr_ray_cache/topics/ck__prio_lo.json"
    )
    # drain the high topic, then the low one takes over
    for _ in range(50):
        if len(stream_expr(SF, hi).to_pandas()) == 0:
            break
    nxt = stream_expr(SF, expr).to_pandas()
    assert len(nxt) == 50
    lo_alone = stream_expr(SF, lo).to_pandas()
    if len(lo_alone):
        assert nxt.doc_id.max() < lo_alone.doc_id.min()
    with pytest.raises(StreamExprError, match="topic"):
        stream_expr(SF, "priority(echo(a), echo(b))")


def test_executor_runs_stored_expressions(ray_session):
    df = stream_expr(
        SF,
        'executor(list(tuple(id=t1, expr_s="echo(hello)"),'
        ' tuple(id=t2, expr_s="search(documents, q=\\"*:*\\",'
        ' fl=\\"doc_id\\", sort=\\"doc_id asc\\", rows=7)")))',
    ).to_pandas()
    assert list(df["id"]) == ["t1", "t2"]
    assert list(df["tupleCount"]) == [1.0, 7.0]
    with pytest.raises(StreamExprError, match="expr_s"):
        stream_expr(SF, "executor(echo(nope))")


def test_select_concat_operation_nulls(ray_session):
    import pyarrow as pa
    import ray

    from apache___solr_ray.streamexpr import _compile, parse_stream_expr

    # nulls concatenate as "" (documented divergence-free: the reference
    # stringifies tuple values; absent values contribute nothing)
    t = pa.table({"a": ["x", None], "b": ["1", "2"]})
    ds = ray.data.from_arrow(t)
    node = parse_stream_expr(
        'select(echo(z), "a", "b", "j", concat(fields="a,b", as="j", delim="_"))'
    )
    # swap the echo() placeholder for our in-memory dataset
    import apache___solr_ray.streamexpr as se

    orig = se._OPS["echo"]
    se._OPS["echo"] = lambda n, s: (ds, None)
    try:
        out = se._compile(node, "/root/testdata/sf0.001")[0].to_pandas()
    finally:
        se._OPS["echo"] = orig
    assert list(out["j"]) == ["x_1", "_2"]


# -- Lang.java closing wave (round 5): calc/plot/zplot/model/stream,
#    recNum/val/pivot/latlonVectors/termVectors/memset, distinct() --------


def test_lang_name_registry_complete():
    """Every Lang.java withFunctionName registration has an engine-side
    binding (the rollup metrics and select()/reduce() operations are
    grammar positions, not top-level ops)."""
    from apache___solr_ray import mathexpr
    from apache___solr_ray import streamexpr as se

    newly = {"calc", "plot", "zplot", "model", "stream"}
    assert newly <= set(se._OPS)
    assert {"val", "pivot", "latlonVectors", "termVectors"} <= set(mathexpr.EVALS)


def test_calc_single_tuple_select(ray_session):
    df = stream_expr(SF, 'select(calc(), "add(2, 3) as s")').to_pandas()
    assert len(df) == 1 and float(df["s"][0]) == 5.0


def test_recnum_global_order_across_blocks(ray_session):
    df = stream_expr(
        SF,
        'select(search(events, q="*:*", fl="event_id,value", sort="event_id asc"),'
        ' "recNum() as rec", "event_id")',
    ).to_pandas()
    df = df.sort_values("event_id").reset_index(drop=True)
    assert list(df["rec"]) == list(range(len(df)))
    with pytest.raises(StreamExprError, match="sort"):
        stream_expr(
            SF, 'select(search(events, q="*:*", fl="event_id"), "recNum() as r")'
        )


def test_reduce_distinct_equals_group_head(ray_session):
    a = stream_expr(
        SF,
        'reduce(search(events, q="*:*", fl="user_id,event_id",'
        ' sort="user_id asc, event_id asc"), by="user_id", distinct())',
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    b = stream_expr(
        SF,
        'reduce(search(events, q="*:*", fl="user_id,event_id",'
        ' sort="user_id asc"), by="user_id", group(sort="event_id asc", n=1))',
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    assert a[["user_id", "event_id"]].equals(b[["user_id", "event_id"]])
    assert (a["groupSize"] == 1).all()


def test_memset_binds_vars_and_size(ray_session):
    df = stream_expr(
        SF,
        'let(m=memset(search(events, q="*:*", fl="event_id,value",'
        ' sort="event_id asc"), cols="value", vars="a", size=5),'
        ' sumf(a))',
    ).to_pandas()
    import duckdb

    want = duckdb.sql(
        f"SELECT sum(value) FROM (SELECT value FROM read_parquet('{SF}/events.parquet')"
        " ORDER BY event_id LIMIT 5)"
    ).fetchone()[0]
    assert abs(float(df["result"][0]) - want) < 1e-9


def test_zplot_vectors_and_errors(ray_session):
    df = stream_expr(
        SF,
        'let(a=col(search(events, q="event_type:error", fl="event_id,value",'
        ' sort="event_id asc"), "value"),'
        ' zplot(x=sequence(length(a), 0, 1), y=cumulativeSum(a)))',
    ).to_pandas()
    assert list(df.columns) == ["x", "y"]
    assert df["x"].iloc[0] == 0.0 and len(df) > 1
    with pytest.raises(StreamExprError, match="Zeppelin|vector"):
        stream_expr(SF, "zplot(dist=normalDistribution(0, 1))")


def test_plot_pairs_and_default_x(ray_session):
    df = stream_expr(
        SF, "let(a=array(5, 7, 9), plot(type=line, y=a))"
    ).to_pandas()
    assert df["plot"][0] == "line"
    assert [list(p) for p in df["data"][0]] == [[1.0, 5.0], [2.0, 7.0], [3.0, 9.0]]


def test_stream_alias_reemits_let_binding(ray_session):
    df = stream_expr(
        SF,
        'let(s=search(events, q="event_type:error", fl="event_id",'
        ' sort="event_id asc"), stream(s))',
    ).to_pandas()
    assert len(df) > 0 and "event_id" in df.columns


def test_model_fetches_latest_iteration(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    import apache___solr_ray.streamexpr as se

    t = pa.table(
        {
            "term": ["a", "b", "a", "b"],
            "weight": [0.1, 0.2, 0.3, 0.4],
            "iteration": [1, 1, 2, 2],
        }
    )
    ds = ray.data.from_arrow(t)
    orig = se._OPS["echo"]
    se._OPS["echo"] = lambda n, s: (ds, None)
    try:
        out = stream_expr(SF, "update(tmodels, echo(z))").to_pandas()
        assert out["batchIndexed"][0] == 4.0
    finally:
        se._OPS["echo"] = orig
    got = stream_expr(SF, "model(tmodels)").to_pandas()
    assert sorted(got["term"]) == ["a", "b"]
    assert (got["iteration"] == 2).all()
    assert sorted(np.round(got["weight"], 6)) == [0.3, 0.4]
