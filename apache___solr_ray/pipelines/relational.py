"""Relational pipelines over the test tables — the streaming-expression /
JSON-facet operator surface (SURVEY §2.4-2.6) as Ray Data pipelines.

Every entry has a DuckDB oracle with identical output column names.
Reference analogs cited per query. Floats are rounded identically on both
sides (half away from zero, DuckDB's ROUND semantics).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray.pipelines.common import (
    broadcast_join,
    round_cols,
    semi_join_filter,
)
from apache___solr_ray.sources import load, load_arrow

QUERIES: dict = {}
ORACLE: dict = {}


def q(name: str, sql: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLE[name] = sql
        return fn

    return deco


# -- grouped aggregation (RollupStream / StatsStream / JSON facet) ----------


@q(
    "q1_pricing_summary",
    """
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
           CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
           floor((sum(CAST(l_quantity AS BIGINT)) * 1.0 / count(*)) * 10000 + 0.5) / 10000.0 AS avg_qty,
           count(*) AS count_order
    FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
)
def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: the RollupStream / JSON-facet sum/avg/count analog
    (reference SumAgg.java, AvgAgg.java, CountAgg.java) with the disc-price
    expression computed vectorized before the (only) shuffle. Money is
    summed as exact integer cents (see pipelines.common.cents)."""
    from apache___solr_ray.pipelines.common import cents, floor_round, partial_sum_count

    ds = load(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            t.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), t.column("l_discount"))
        )
        return (
            t.append_column("qty_i", pc.cast(t.column("l_quantity"), pa.int64()))
            .append_column("base_cents", cents(t.column("l_extendedprice")))
            .append_column("disc_cents", cents(disc_price))
        )

    out = partial_sum_count(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [
            ("qty_i", "sum_qty"),
            ("base_cents", "sum_base_price_cents"),
            ("disc_cents", "sum_disc_price_cents"),
        ],
        count_alias="count_order",
    )

    def derive(t: pa.Table) -> pa.Table:
        avg = pc.divide(
            pc.multiply(pc.cast(t.column("sum_qty"), pa.float64()), 1.0),
            pc.cast(t.column("count_order"), pa.float64()),
        )
        return t.append_column("avg_qty", floor_round(avg, 4))

    return out.map_batches(derive, batch_format="pyarrow")


@q(
    "agg_stats_events",
    """
    SELECT count(*) AS n,
           round(min(value), 4) AS min_v, round(max(value), 4) AS max_v,
           round(sum(value), 2) AS sum_v, round(avg(value), 4) AS avg_v,
           round(stddev_samp(value), 4) AS std_v
    FROM events
    """,
)
def agg_stats_events(sf_dir: str):
    """StatsComponent / StatsStream analog (reference StatsValuesFactory
    min/max/sum/mean/stddev)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Std, Sum

    ds = load(sf_dir, "events", columns=["value"])
    row = ds.aggregate(
        Count(alias_name="n"),
        Min("value", alias_name="min_v"),
        Max("value", alias_name="max_v"),
        Sum("value", alias_name="sum_v"),
        Mean("value", alias_name="avg_v"),
        Std("value", ddof=1, alias_name="std_v"),
    )

    def r4(x):
        return float(pc.round(pa.scalar(float(x)), ndigits=4, round_mode="half_towards_infinity").as_py())

    return pa.table(
        {
            "n": pa.array([row["n"]], pa.int64()),
            "min_v": pa.array([r4(row["min_v"])]),
            "max_v": pa.array([r4(row["max_v"])]),
            "sum_v": pa.array(
                [float(pc.round(pa.scalar(float(row["sum_v"])), ndigits=2, round_mode="half_towards_infinity").as_py())]
            ),
            "avg_v": pa.array([r4(row["avg_v"])]),
            "std_v": pa.array([r4(row["std_v"])]),
        }
    )


@q(
    "facet_event_types",
    "SELECT event_type, count(*) AS n FROM events GROUP BY event_type",
)
def facet_event_types(sf_dir: str):
    """Terms facet (FacetFieldProcessor / FacetStream analog)."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["event_type"])
    return partial_sum_count(ds, "event_type", [], count_alias="n")


@q(
    "facet_numbuckets_allbuckets",
    """
    SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS numBuckets,
           CAST(count(*) AS BIGINT) AS allBuckets_count,
           floor(sum(value) * 100 + 0.5) / 100 AS allBuckets_sum
    FROM events
    """,
)
def facet_numbuckets_allbuckets(sf_dir: str):
    """JSON Facet ``numBuckets`` + ``allBuckets`` (reference FacetModule —
    FacetFieldProcessor.java: numBuckets = how many distinct buckets the
    facet HAS regardless of the limit, allBuckets = the aggregates over
    ALL bucketed docs as one pseudo-bucket): one partial pass emits per-
    batch (distinct user set size is NOT summable, so the bucket keys ride
    the shuffle once — a distinct-pairs groupby — while the allBuckets
    sums pre-aggregate per batch), then a tiny final combine."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["user_id", "value"])

    # numBuckets: distinct bucket keys — per-batch dedup, one groupby, count
    def distinct_keys(t: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table({"user_id": pa.array(np.unique(t.column("user_id").to_numpy()))})

    n_buckets = (
        ds.map_batches(distinct_keys, batch_format="pyarrow")
        .groupby("user_id")
        .count()
        .count()  # distributed row count of the distinct-key table
    )
    # allBuckets: global count + sum with per-batch partials
    def ones_key(t: pa.Table) -> pa.Table:
        import numpy as np

        return t.append_column("__g", pa.array(np.zeros(t.num_rows, dtype=np.int64)))

    ab = partial_sum_count(
        ds.map_batches(ones_key, batch_format="pyarrow"),
        "__g",
        [("value", "allBuckets_sum")],
        count_alias="allBuckets_count",
    ).to_pandas()
    out = pa.table(
        {
            "numBuckets": pa.array([int(n_buckets)], pa.int64()),
            "allBuckets_count": pa.array(
                [int(ab["allBuckets_count"].iloc[0])], pa.int64()
            ),
            "allBuckets_sum": pa.array(
                [np.floor(float(ab["allBuckets_sum"].iloc[0]) * 100 + 0.5) / 100],
                pa.float64(),
            ),
        }
    )
    return out


@q(
    "facet_range_value",
    "SELECT floor(value / 5) * 5 AS bucket, count(*) AS n FROM events GROUP BY 1",
)
def facet_range_value(sf_dir: str):
    """Range facet (FacetRange.java analog): fixed-width numeric buckets."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["value"])

    def bucket(t: pa.Table) -> pa.Table:
        b = pc.multiply(pc.floor(pc.divide(t.column("value"), 5.0)), 5.0)
        return t.append_column("bucket", b).drop_columns(["value"])

    return partial_sum_count(
        ds.map_batches(bucket, batch_format="pyarrow"), "bucket", [], count_alias="n"
    )


@q(
    "time_series_daily",
    """
    SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day, count(*) AS n,
           round(sum(value), 2) AS sum_value
    FROM events GROUP BY 1
    """,
)
def time_series_daily(sf_dir: str):
    """TimeSeriesStream analog: date-bucketed metrics."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["ts", "value"])

    def day(t: pa.Table) -> pa.Table:
        return t.append_column("day", pc.floor_temporal(t.column("ts"), unit="day")).drop_columns(["ts"])

    out = partial_sum_count(
        ds.map_batches(day, batch_format="pyarrow"),
        "day",
        [("value", "sum_value")],
        count_alias="n",
    )
    return round_cols(out, {"sum_value": 2})


@q(
    "unique_users_per_type",
    "SELECT event_type, count(DISTINCT user_id) AS n_users FROM events GROUP BY event_type",
)
def unique_users_per_type(sf_dir: str):
    """Exact distinct (UniqueAgg.java): two-level groupby — dedup pairs,
    then count; the scale path swaps level one for an HLL sketch."""
    from ray.data.aggregate import Count

    ds = load(sf_dir, "events", columns=["event_type", "user_id"])
    pairs = ds.groupby(["event_type", "user_id"]).aggregate(Count(alias_name="c"))
    return pairs.groupby("event_type").aggregate(Count(alias_name="n_users"))


@q(
    "percentile_value",
    """
    SELECT round(quantile_cont(value, 0.5), 4) AS p50,
           round(quantile_cont(value, 0.9), 4) AS p90,
           round(quantile_cont(value, 0.99), 4) AS p99
    FROM events
    """,
)
def percentile_value(sf_dir: str):
    """PercentileAgg analog. Exact at test scale (numpy linear interpolation
    == SQL quantile_cont); the 100 TB path is a mergeable t-digest
    AggregateFn emitting one sketch per batch."""
    vals = load_arrow(sf_dir, "events", columns=["value"]).column("value").to_numpy()
    p = np.quantile(vals, [0.5, 0.9, 0.99], method="linear")

    def r4(x):
        return float(pc.round(pa.scalar(float(x)), ndigits=4, round_mode="half_towards_infinity").as_py())

    return pa.table({"p50": pa.array([r4(p[0])]), "p90": pa.array([r4(p[1])]), "p99": pa.array([r4(p[2])])})


# -- joins (HashJoinStream / InnerJoinStream / FetchStream) ------------------


@q(
    "join_customer_orders",
    """
    SELECT c_mktsegment, count(*) AS n_orders,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_totalprice_cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
    """,
)
def join_customer_orders(sf_dir: str):
    """Broadcast hash join (HashJoinStream.java:35-45: hash the small side
    at open, probe the big stream) + rollup (exact integer cents)."""
    from apache___solr_ray.pipelines.common import cents, partial_sum_count

    cust = load_arrow(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    ds = load(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    ds = ds.map_batches(
        lambda t: t.append_column("price_cents", cents(t.column("o_totalprice"))).drop_columns(
            ["o_totalprice"]
        ),
        batch_format="pyarrow",
    )
    joined = broadcast_join(ds, cust, "o_custkey", "c_custkey", {"c_mktsegment": "c_mktsegment"})
    return partial_sum_count(
        joined,
        "c_mktsegment",
        [("price_cents", "sum_totalprice_cents")],
        count_alias="n_orders",
    )


@q(
    "join_supplier_nation_region",
    """
    SELECT r_name, count(*) AS n_suppliers
    FROM supplier JOIN nation ON s_nationkey = n_nationkey
                  JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)
def join_supplier_nation_region(sf_dir: str):
    """Dimension-chain broadcast join (nation ⋈ region prejoined driver-side
    — both tiny — then one probe)."""
    from ray.data.aggregate import Count

    nation = load_arrow(sf_dir, "nation").to_pandas()
    region = load_arrow(sf_dir, "region").to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    ds = load(sf_dir, "supplier", columns=["s_nationkey"])
    joined = broadcast_join(
        ds, pa.Table.from_pandas(dim[["n_nationkey", "r_name"]]), "s_nationkey", "n_nationkey", {"r_name": "r_name"}
    )
    return joined.groupby("r_name").aggregate(Count(alias_name="n_suppliers"))


@q(
    "fetch_enrich_orders",
    """
    SELECT o_orderkey, c_name FROM orders JOIN customer ON o_custkey = c_custkey
    WHERE o_orderkey <= 100
    """,
)
def fetch_enrich_orders(sf_dir: str):
    """FetchStream analog (FetchStream.java:44-51): batched lookup-join
    fetching extra fields by key."""
    cust = load_arrow(sf_dir, "customer", columns=["c_custkey", "c_name"])
    ds = load(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.less_equal(t.column("o_orderkey"), 100)), batch_format="pyarrow"
    )
    out = broadcast_join(ds, cust, "o_custkey", "c_custkey", {"c_name": "c_name"})
    return out.drop_columns(["o_custkey"])


@q(
    "semi_join_customers_with_orders",
    """
    SELECT n_name, count(*) AS n_customers
    FROM customer JOIN nation ON c_nationkey = n_nationkey
    WHERE c_custkey IN (SELECT DISTINCT o_custkey FROM orders)
    GROUP BY n_name
    """,
)
def semi_join_customers_with_orders(sf_dir: str):
    """IntersectStream / {!join} semi-join analog via broadcast key set."""
    from ray.data.aggregate import Count

    keys = load(sf_dir, "orders", columns=["o_custkey"]).unique("o_custkey")
    cust = load(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = semi_join_filter(cust, "c_custkey", keys, keep=True)
    nation = load_arrow(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    joined = broadcast_join(cust, nation, "c_nationkey", "n_nationkey", {"n_name": "n_name"})
    return joined.groupby("n_name").aggregate(Count(alias_name="n_customers"))


@q(
    "anti_join_customers_without_orders",
    """
    SELECT n_name, count(*) AS n_customers
    FROM customer JOIN nation ON c_nationkey = n_nationkey
    WHERE c_custkey NOT IN (SELECT DISTINCT o_custkey FROM orders)
    GROUP BY n_name
    """,
)
def anti_join_customers_without_orders(sf_dir: str):
    """ComplementStream (anti-join) analog (ComplementStream.java:36-41)."""
    from ray.data.aggregate import Count

    from apache___solr_ray.pipelines.common import materialize_with_schema

    keys = load(sf_dir, "orders", columns=["o_custkey"]).unique("o_custkey")
    cust = load(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = semi_join_filter(cust, "c_custkey", keys, keep=False)
    nation = load_arrow(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    joined = broadcast_join(cust, nation, "c_nationkey", "n_nationkey", {"n_name": "n_name"})
    out = joined.groupby("n_name").aggregate(Count(alias_name="n_customers"))
    # may legally be empty (every customer ordered) — keep the schema
    return materialize_with_schema(
        out, pa.schema([("n_name", pa.string()), ("n_customers", pa.int64())])
    )


@q(
    "rollup_nation_revenue",
    """
    SELECT n_name, CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
    FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
                  JOIN nation ON s_nationkey = n_nationkey
    GROUP BY n_name
    """,
)
def rollup_nation_revenue(sf_dir: str):
    """Partial-aggregation pattern: per-batch combine inside map_batches
    (one row per key per batch) then a tiny groupby — the shuffle moves
    per-batch partials, not 60k rows (SURVEY §2.5 'partial + final').
    Exact integer cents, so partials sum associatively."""
    import ray
    from ray.data.aggregate import Sum

    from apache___solr_ray.pipelines.common import cents

    supplier = load_arrow(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).to_pandas()
    nation = load_arrow(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    dim = supplier.merge(nation, left_on="s_nationkey", right_on="n_nationkey")
    lookup = dict(zip(dim["s_suppkey"], dim["n_name"]))
    ref = ray.put(lookup)
    state: dict = {}

    def partial(t: pa.Table) -> pa.Table:
        if "lk" not in state:
            state["lk"] = ray.get(ref)
        lk = state["lk"]
        rev_expr = pc.multiply(
            t.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), t.column("l_discount"))
        )
        rev = cents(rev_expr).to_numpy()
        names = np.asarray([lk[s] for s in t.column("l_suppkey").to_pylist()], dtype=object)
        uniq, inv = np.unique(names, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, rev)
        return pa.table({"n_name": pa.array(list(uniq), pa.string()), "partial": pa.array(sums)})

    ds = load(sf_dir, "lineitem", columns=["l_suppkey", "l_extendedprice", "l_discount"])
    return ds.map_batches(partial, batch_format="pyarrow").groupby("n_name").aggregate(
        Sum("partial", alias_name="revenue_cents")
    )


# -- sorts / top-k / limits / windows ---------------------------------------


@q(
    "export_sort_orders",
    """
    SELECT o_orderkey, o_orderdate, rk FROM (
      SELECT o_orderkey, o_orderdate,
             row_number() OVER (ORDER BY o_orderdate, o_orderkey) AS rk
      FROM orders) WHERE rk <= 20
    """,
)
def export_sort_orders(sf_dir: str):
    """/export + RankStream analog: full sort (docValues streaming sort,
    ExportWriter.java) with deterministic unique tie-break, top 20."""
    from apache___solr_ray.pipelines.common import add_rank_column

    import ray

    ds = load(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    top = ds.sort(["o_orderdate", "o_orderkey"]).limit(20)
    tbl = pa.concat_tables([ray.get(r) for r in top.to_arrow_refs()])
    return add_rank_column(tbl)


@q(
    "having_active_users",
    "SELECT user_id, count(*) AS n_events FROM events GROUP BY user_id HAVING count(*) > 70",
)
def having_active_users(sf_dir: str):
    """HavingStream analog: predicate over aggregated tuples."""
    from ray.data.aggregate import Count

    out = load(sf_dir, "events", columns=["user_id"]).groupby("user_id").aggregate(Count(alias_name="n_events"))
    return out.map_batches(
        lambda t: t.filter(pc.greater(t.column("n_events"), 70)), batch_format="pyarrow"
    )


@q(
    "collapse_latest_event",
    """
    SELECT user_id, event_id FROM (
      SELECT user_id, event_id,
             row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
      FROM events) WHERE rn = 1
    """,
)
def collapse_latest_event(sf_dir: str):
    """CollapsingQParserPlugin analog: group-collapse keeping the head by
    sort (here: latest ts, max event_id tie-break). Hash-partitioned by
    user_id; each partition collapses ALL its groups with one vectorized
    sort + groupby.head(1) (no per-group Python dispatch)."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def heads(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], ascending=[False, False])
        return g.groupby("user_id", sort=False).head(1)[["user_id", "event_id"]]

    return grouped_map(ds, "user_id", heads)


@q(
    "sessionize_events",
    """
    WITH o AS (
      SELECT user_id, ts,
             lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
      FROM events)
    SELECT user_id,
           CAST(sum(CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions,
           count(*) AS n_events
    FROM o GROUP BY user_id
    """,
)
def sessionize_events(sf_dir: str):
    """Session windowing (streaming-shaped workload): hash-partition by
    user, then one vectorized pass per partition — sort by (user, ts),
    per-user lag via groupby().shift(), 30-minute-gap session starts
    counted with a groupby sum. No per-group Python dispatch."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def sess(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        prev = g.groupby("user_id", sort=False)["ts"].shift()
        start = prev.isna() | ((g["ts"] - prev).dt.total_seconds() > 1800)
        agg = (
            g.assign(_start=start.astype(np.int64))
            .groupby("user_id", sort=False)
            .agg(n_sessions=("_start", "sum"), n_events=("_start", "size"))
            .reset_index()
        )
        return agg

    out = grouped_map(ds, "user_id", sess)
    from apache___solr_ray.pipelines.common import as_int64

    return as_int64(out, "n_sessions", "n_events")


@q(
    "tumbling_window_hourly",
    """
    SELECT event_type, CAST(date_trunc('hour', ts) AS TIMESTAMP) AS window_start,
           count(*) AS n, round(sum(value), 2) AS sum_value
    FROM events GROUP BY 1, 2
    """,
)
def tumbling_window_hourly(sf_dir: str):
    """Tumbling event-time window as keyed bucket aggregate (Ray Data has
    no watermarks; batch semantics are exact for bounded input)."""
    from ray.data.aggregate import Count, Sum

    ds = load(sf_dir, "events", columns=["event_type", "ts", "value"])

    def win(t: pa.Table) -> pa.Table:
        return t.append_column("window_start", pc.floor_temporal(t.column("ts"), unit="hour")).drop_columns(["ts"])

    out = (
        ds.map_batches(win, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    )
    return round_cols(out, {"sum_value": 2})


# -- set ops / projection ----------------------------------------------------


@q(
    "union_names",
    "SELECT n_name AS name FROM nation UNION ALL SELECT r_name AS name FROM region",
)
def union_names(sf_dir: str):
    """MergeStream / ListStream union-all analog."""
    a = load(sf_dir, "nation", columns=["n_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow"
    )
    b = load(sf_dir, "region", columns=["r_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow"
    )
    return a.union(b)


@q("distinct_orderpriority", "SELECT DISTINCT o_orderpriority FROM orders")
def distinct_orderpriority(sf_dir: str):
    """UniqueStream analog (sorted-stream dedup -> Dataset.unique)."""
    vals = sorted(load(sf_dir, "orders", columns=["o_orderpriority"]).unique("o_orderpriority"))
    return pa.table({"o_orderpriority": pa.array(vals, pa.string())})


@q(
    "select_rename_project",
    "SELECT n_name AS nation, r_name AS region FROM nation JOIN region ON n_regionkey = r_regionkey",
)
def select_rename_project(sf_dir: str):
    """SelectStream projection/rename analog (SelectStream.java:43-48)."""
    nation = load_arrow(sf_dir, "region")
    ds = load(sf_dir, "nation", columns=["n_name", "n_regionkey"])
    out = broadcast_join(ds, nation, "n_regionkey", "r_regionkey", {"r_name": "region"})

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({"nation": t.column("n_name"), "region": t.column("region")})

    return out.map_batches(proj, batch_format="pyarrow")


@q(
    "q3_high_revenue_orders",
    """
    SELECT l_orderkey, CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    WHERE c_mktsegment = (SELECT min(c_mktsegment) FROM customer)
      AND o_orderdate < TIMESTAMP '1995-03-15'
    GROUP BY l_orderkey
    HAVING sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) > 10000000
    """,
)
def q3_high_revenue_orders(sf_dir: str):
    """TPC-H Q3 shape: two broadcast semi-joins into the fact stream, grouped
    revenue, HAVING filter (threshold instead of top-k so no float-tie
    boundary ambiguity)."""
    from ray.data.aggregate import Sum

    cust = load_arrow(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    seg = pc.min(cust.column("c_mktsegment")).as_py()
    ckeys = frozenset(
        cust.filter(pc.equal(cust.column("c_mktsegment"), seg)).column("c_custkey").to_pylist()
    )
    orders = load_arrow(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    cutoff = pa.scalar(np.datetime64("1995-03-15T00:00:00", "us"))
    omask = pc.and_(
        pc.less(orders.column("o_orderdate"), cutoff),
        pc.is_in(orders.column("o_custkey"), value_set=pa.array(sorted(ckeys))),
    )
    okeys = orders.filter(omask).column("o_orderkey").to_pylist()
    li = load(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])
    li = semi_join_filter(li, "l_orderkey", okeys, keep=True)

    from apache___solr_ray.pipelines.common import cents

    def disc(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), t.column("l_discount"))
        )
        return t.append_column("rev_cents", cents(rev))

    out = li.map_batches(disc, batch_format="pyarrow").groupby("l_orderkey").aggregate(
        Sum("rev_cents", alias_name="revenue_cents")
    )
    return out.map_batches(
        lambda t: t.filter(pc.greater(t.column("revenue_cents"), 10_000_000)), batch_format="pyarrow"
    )


# -- second wave: facet 2D / JSON field extraction / sampling / expand /
#    window rank / per-group percentile / HLL cardinality -------------------


@q(
    "facet_2d_type_hour",
    """
    SELECT event_type, CAST(extract(hour FROM ts) AS BIGINT) AS hr,
           count(*) AS n, round(sum(value), 4) AS sum_v
    FROM events GROUP BY event_type, hr
    """,
)
def facet_2d_type_hour(sf_dir: str):
    """Facet2DStream / JSON facet nested-bucket analog (reference
    solr/solrj-streaming/.../stream/Facet2DStream.java): two grouping
    dimensions in ONE groupby shuffle — the second dimension is derived
    vectorized before the shuffle, not re-grouped within buckets."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return t.append_column("hr", pc.cast(pc.hour(t.column("ts")), pa.int64()))

    out = partial_sum_count(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hr"],
        [("value", "sum_v")],
        count_alias="n",
    ).select_columns(["event_type", "hr", "n", "sum_v"])
    return round_cols(out, {"sum_v": 4})


@q(
    "json_props_extract",
    """
    SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k
    FROM events WHERE event_id % 50 = 0
    """,
)
def json_props_extract(sf_dir: str):
    """JsonLoader / JSON-path field extraction analog (reference
    solr/core/.../handler/loader/JsonLoader.java, `split`/path extraction):
    parse a JSON column inside map_batches. Python json is the parser (the
    stdlib is the 'library' here), the filter prunes before parsing."""
    import json as _json

    ds = load(sf_dir, "events", columns=["event_id", "props"])

    def extract(t: pa.Table) -> pa.Table:
        eid = t.column("event_id")
        rem = pc.subtract(eid, pc.multiply(pc.divide(eid, pa.scalar(50)), pa.scalar(50)))
        t = t.filter(pc.equal(rem, pa.scalar(0)))
        ks = [int(_json.loads(p)["k"]) for p in t.column("props").to_pylist()]
        return pa.table(
            {"event_id": t.column("event_id"), "k": pa.array(ks, pa.int64())}
        )

    return ds.map_batches(extract, batch_format="pyarrow")


@q(
    "sample_events_mod",
    """
    SELECT event_id, user_id, event_type FROM events WHERE event_id % 20 = 3
    """,
)
def sample_events_mod(sf_dir: str):
    """RandomStream / DeepRandomStream analog (reference
    RandomStream.java:53-58) made deterministic for the oracle: a seeded
    modulo "sample" — the distributed pattern (pushdown filter, no
    materialization) is identical to hash-based sampling."""
    ds = load(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def flt(t: pa.Table) -> pa.Table:
        eid = t.column("event_id")
        rem = pc.subtract(eid, pc.multiply(pc.divide(eid, pa.scalar(20)), pa.scalar(20)))
        return t.filter(pc.equal(rem, pa.scalar(3)))

    return ds.map_batches(flt, batch_format="pyarrow")


@q(
    "expand_top_event",
    """
    WITH ranked AS (
      SELECT user_id, event_id, value,
             row_number() OVER (PARTITION BY user_id ORDER BY value DESC, event_id ASC) AS rn,
             count(*) OVER (PARTITION BY user_id) AS n_events
      FROM events
    )
    SELECT user_id, event_id AS top_event_id, round(value, 4) AS top_value,
           n_events - 1 AS n_collapsed
    FROM ranked WHERE rn = 1
    """,
)
def expand_top_event(sf_dir: str):
    """Collapse + Expand analog (reference CollapsingQParserPlugin.java /
    ExpandComponent.java): keep the best row per group AND report how many
    rows were collapsed — hash-partitioned, all groups in a partition
    collapsed by one vectorized sort + groupby.head(1)/size (no per-group
    Python dispatch)."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "events", columns=["user_id", "event_id", "value"])

    def tops(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("user_id", sort=False).size()
        best = (
            g.sort_values(["value", "event_id"], ascending=[False, True])
            .groupby("user_id", sort=False)
            .head(1)
        )
        top_value = pc.round(
            pa.array(best["value"].to_numpy(), pa.float64()),
            ndigits=4,
            round_mode="half_towards_infinity",
        ).to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                "user_id": best["user_id"].to_numpy(),
                "top_event_id": best["event_id"].to_numpy(),
                "top_value": top_value,
                "n_collapsed": (sizes.loc[best["user_id"]] - 1).to_numpy(),
            }
        )

    return grouped_map(ds, "user_id", tops)


@q(
    "window_rank_orders",
    """
    WITH ranked AS (
      SELECT o_custkey, o_orderkey, o_totalprice,
             row_number() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
      FROM orders
    )
    SELECT o_custkey, o_orderkey, round(o_totalprice, 2) AS price, rn
    FROM ranked WHERE rn <= 2
    """,
)
def window_rank_orders(sf_dir: str):
    """Windowed top-N per key — the TopFieldCollector / CursorMark per-shard
    sorted-page analog (reference SolrIndexSearcher.java:1905-1913):
    hash-partition by key, then one vectorized sort + groupby.cumcount per
    partition (no per-group Python dispatch)."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def rank2(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        rn = g.groupby("o_custkey", sort=False).cumcount() + 1
        g = g.assign(rn=rn.astype(np.int64))
        g = g[g["rn"] <= 2]
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].to_numpy(),
                "o_orderkey": g["o_orderkey"].to_numpy(),
                "price": np.round(g["o_totalprice"].to_numpy(), 2),
                "rn": g["rn"].to_numpy(),
            }
        )

    return grouped_map(ds, "o_custkey", rank2)


@q(
    "percentile_per_type",
    """
    SELECT event_type,
           round(CAST(quantile_cont(value, 0.5) AS DOUBLE), 4) AS p50,
           round(CAST(quantile_cont(value, 0.95) AS DOUBLE), 4) AS p95
    FROM events GROUP BY event_type
    """,
)
def percentile_per_type(sf_dir: str):
    """PercentileAgg / PercentileMetric analog (reference PercentileAgg.java)
    computed exactly per group (linear-interpolation quantile, matching
    DuckDB quantile_cont = pandas/numpy 'linear'); hash-partitioned by
    type, all groups in a partition quantiled by one C groupby kernel."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "events", columns=["event_type", "value"])

    def pct(g: pd.DataFrame) -> pd.DataFrame:
        qq = (
            g.groupby("event_type", sort=False)["value"]
            .quantile([0.5, 0.95], interpolation="linear")
            .unstack()
        )
        return pd.DataFrame(
            {
                "event_type": qq.index.to_numpy(),
                "p50": np.round(qq[0.5].to_numpy(), 4),
                "p95": np.round(qq[0.95].to_numpy(), 4),
            }
        )

    return grouped_map(ds, "event_type", pct)


@q("hll_unique_users")  # approx sketch: rows-only driver check; bound asserted in pytest
def hll_unique_users(sf_dir: str):
    """HLLAgg analog (reference HLLAgg.java): mergeable HyperLogLog sketch
    of distinct user_id per event_type, run as a native ``AggregateFnV2``
    — per-block partial registers, register-max merges INSIDE the groupby
    shuffle (no driver-side merge loop), estimate at finalize. The
    exchange moves 4 KiB registers per (group, block), never user ids."""
    from apache___solr_ray.functions.aggs import HLLSketch

    ds = load(sf_dir, "events", columns=["event_type", "user_id"])
    rows = sorted(
        (r["event_type"], int(r["approx_users"]))
        for r in ds.groupby("event_type")
        .aggregate(HLLSketch(on="user_id", alias_name="approx_users"))
        .take_all()
    )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "approx_users": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


@q(
    "block_join_childfield",
    """
    SELECT l_orderkey AS o_orderkey, l_extendedprice AS child_price
    FROM (
      SELECT l_orderkey, l_extendedprice,
             row_number() OVER (PARTITION BY l_orderkey
                                ORDER BY l_quantity DESC, l_linenumber ASC) AS rn
      FROM lineitem WHERE l_quantity >= 49
    ) WHERE rn = 1
    """,
)
def block_join_childfield(sf_dir: str):
    """childfield() over a block join (reference
    solr/core/src/java/org/apache/solr/search/join/ChildFieldValueSourceParser.java:
    a parent's value is a FIELD OF ITS BEST-MATCHING CHILD — here the
    l_extendedprice of the child with the highest l_quantity among
    children matching the predicate, tie-broken by l_linenumber). One
    l_orderkey hash co-location (the block), then a vectorized
    sort + keep-first per parent inside each partition — the same
    one-shuffle shape as collapse."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )

    def match(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("l_quantity"), 49))

    def best_child(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["l_orderkey", "l_quantity", "l_linenumber"],
            ascending=[True, False, True],
            kind="mergesort",
        ).drop_duplicates("l_orderkey")
        out = df[["l_orderkey", "l_extendedprice"]].copy()
        out.columns = ["o_orderkey", "child_price"]
        return out

    return grouped_map(ds.map_batches(match, batch_format="pyarrow"), "l_orderkey", best_child)


@q(
    "block_join_orders_with_big_item",
    """
    SELECT o.o_orderkey, o.o_orderpriority
    FROM orders o
    WHERE EXISTS (
      SELECT 1 FROM lineitem l
      WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity >= 49
    )
    """,
)
def block_join_orders_with_big_item(sf_dir: str):
    """Block join parent/child analog (reference
    solr/core/src/java/org/apache/solr/search/join/ — parents selected by a
    child predicate over contiguous doc blocks): children are physically
    nested under their parent as an Arrow list<struct> column (the
    _childDocuments_ shape, SolrInputDocument.java:39), then the parent
    filter evaluates the child predicate WITHOUT any join — the nesting IS
    the co-location. One groupby builds the blocks; the filter is a
    vectorized pass over the nested column."""
    import pyarrow.compute as _pc

    ds = load(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    # co-locate each parent's children by key-hash BUCKET (64 groups, not
    # 150k): per bucket, Arrow's C++ group_by builds the nested list column
    # vectorized — the guide's explicit partitioned-hash pattern
    def bucketize(t: pa.Table) -> pa.Table:
        k = t.column("l_orderkey").combine_chunks().to_numpy()
        return t.append_column(
            "bucket", pa.array((k * 2654435761 % (1 << 31)) % 64, pa.int32())
        )

    def nest_bucket(g: pa.Table) -> pa.Table:
        agg = g.group_by("l_orderkey").aggregate(
            [("l_quantity", "list"), ("l_quantity", "max")]
        )
        return pa.table(
            {
                "o_orderkey": agg.column("l_orderkey"),
                "children_qty": agg.column("l_quantity_list"),  # the nested block
                "max_child_qty": agg.column("l_quantity_max"),
            }
        )

    nested = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(nest_bucket, batch_format="pyarrow")
    )

    def parent_filter(t: pa.Table) -> pa.Table:
        # child predicate over the nested blocks
        return t.filter(
            _pc.greater_equal(t.column("max_child_qty"), pa.scalar(49.0))
        ).select(["o_orderkey"])

    parents = nested.map_batches(parent_filter, batch_format="pyarrow")
    keys = set()
    for b in parents.iter_batches(batch_format="pyarrow"):
        keys.update(b.column("o_orderkey").to_pylist())
    orders = load_arrow(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    return orders.filter(
        pc.is_in(orders.column("o_orderkey"), value_set=pa.array(sorted(keys), pa.int64()))
    )


@q(
    "sliding_window_hourly",
    """
    WITH hours AS (
      SELECT CAST(date_trunc('hour', ts) AS TIMESTAMP) AS hr FROM events GROUP BY 1
    )
    SELECT h.hr, count(e.event_id) AS n_3h,
           round(sum(e.value), 2) AS sum_3h
    FROM hours h JOIN events e
      ON e.ts > h.hr + INTERVAL 1 HOUR - INTERVAL 3 HOUR
     AND e.ts <= h.hr + INTERVAL 1 HOUR
    GROUP BY h.hr
    """,
)
def sliding_window_hourly(sf_dir: str):
    """SLIDING window aggregate (3h window, 1h slide) — the windowed-
    aggregate shape Solr lacks natively (SURVEY §2.9: Ray mapping = derive
    each row's covering windows vectorized, then ONE groupby; a row lands
    in ≤3 windows so the explode factor is the window/slide ratio, not a
    self-join)."""
    from ray.data.aggregate import Count, Sum

    ds = load(sf_dir, "events", columns=["event_id", "ts", "value"])

    def explode_windows(t: pa.Table) -> pa.Table:
        ts = t.column("ts").cast(pa.int64()).to_numpy()  # us
        hour = 3_600_000_000
        end_hr = -(-ts // hour)  # window END hour index (exclusive->label hr = end-1... see below)
        # windows (by label hr L) covering ts: ts in (L+1h-3h, L+1h] =>
        # L in [ceil(ts/h)-1, ceil(ts/h)+1]
        base = end_hr - 1
        reps = 3
        ids = np.repeat(t.column("event_id").to_numpy(), reps)
        vals = np.repeat(t.column("value").to_numpy(), reps)
        labels = (np.repeat(base, reps) + np.tile(np.arange(reps), len(base))) * hour
        src_ts = np.repeat(ts, reps)
        keep = (src_ts > labels + hour - 3 * hour) & (src_ts <= labels + hour)
        return pa.table(
            {
                "hr": pa.array(labels[keep]).cast(pa.timestamp("us")),
                "event_id": pa.array(ids[keep]),
                "value": pa.array(vals[keep]),
            }
        )

    out = (
        ds.map_batches(explode_windows, batch_format="pyarrow")
        .groupby("hr")
        .aggregate(Count(alias_name="n_3h"), Sum("value", alias_name="sum_3h"))
    )
    # only windows whose label hour actually occurs in the data (oracle's
    # `hours` CTE) — broadcast the small hour set
    hrs = load_arrow(sf_dir, "events", columns=["ts"])
    import pyarrow.compute as _pc

    valid = _pc.unique(_pc.floor_temporal(hrs.column("ts"), unit="hour").combine_chunks())
    out = out.map_batches(
        lambda t: t.filter(_pc.is_in(t.column("hr"), value_set=valid)),
        batch_format="pyarrow",
    )
    return round_cols(out, {"sum_3h": 2})


ASOF_BROADCAST_MAX = 5_000_000  # build-side rows above which the bucketed plan runs


def _events_rows(sf_dir: str) -> int:
    """Build-side size estimate from parquet metadata (upper bound: total
    events rows ≥ purchase rows) — no data read, same cheap-stat plan
    switch as graph.FRONTIER_BROADCAST_MAX."""
    import os

    import pyarrow.parquet as _pq

    return _pq.ParquetFile(os.path.join(sf_dir, "events.parquet")).metadata.num_rows


def _asof_bucketed(sf_dir: str):
    """Scale path: co-locate clicks+purchases by user_id hash (one shuffle),
    then one vectorized ``pd.merge_asof`` per partition. Partitioning
    assumption: all rows of a user fit one partition (true unless a single
    user's history exceeds a block — salt the key first if so)."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def keep_sides(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.is_in(t.column("event_type"), value_set=pa.array(["click", "purchase"]))
        )

    def merge_part(df: pd.DataFrame) -> pd.DataFrame:
        clicks = df[df["event_type"] == "click"]
        buys = df.loc[df["event_type"] == "purchase", ["ts", "user_id"]].copy()
        buys["last_purchase_ts"] = buys["ts"]
        if len(clicks) == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype=clicks["event_id"].dtype),
                    "last_purchase_ts": pd.Series([], dtype=buys["ts"].dtype),
                }
            )
        clicks = clicks.sort_values("ts", kind="mergesort")
        buys = buys.sort_values("ts", kind="mergesort")
        out = pd.merge_asof(
            clicks,
            buys,
            on="ts",
            by="user_id",
            allow_exact_matches=False,  # strictly earlier
            direction="backward",
        )
        return out[["event_id", "last_purchase_ts"]]

    return grouped_map(
        ds.map_batches(keep_sides, batch_format="pyarrow"), "user_id", merge_part
    )


@q(
    "asof_last_purchase_before_click",
    """
    SELECT c.event_id,
           (SELECT max(p.ts) FROM events p
            WHERE p.user_id = c.user_id AND p.event_type = 'purchase'
              AND p.ts < c.ts) AS last_purchase_ts
    FROM events c WHERE c.event_type = 'click'
    """,
)
def asof_last_purchase_before_click(sf_dir: str, plan: str = "auto"):
    """AS-OF JOIN (a custom operator Ray Data lacks; named in the task
    brief): for every click, the latest strictly-earlier purchase by the
    same user. ADAPTIVE plan (mirrors graph._hop's FRONTIER_BROADCAST_MAX
    switch): when the build side (purchases) is small it is broadcast once
    via ray.put and each probe batch does one vectorized searchsorted per
    user run — no shuffle (the reference's HashJoinStream.java:35-45 builds
    the small side at open). Above ``ASOF_BROADCAST_MAX`` build rows the
    bucketed scale path runs instead: ONE hash co-location of both sides by
    user_id (grouped_map) and a vectorized ``pd.merge_asof`` per partition —
    the build side never has to fit in an object-store blob. ``plan`` in
    {auto, broadcast, bucketed} (tests force both; results are identical)."""
    if plan == "bucketed" or (
        plan == "auto" and _events_rows(sf_dir) > ASOF_BROADCAST_MAX
    ):
        return _asof_bucketed(sf_dir)
    import ray

    ev = load_arrow(sf_dir, "events", columns=["ts", "user_id", "event_type"])
    mask = pc.equal(ev.column("event_type"), "purchase")
    p = ev.filter(mask)
    pu = p.column("user_id").to_numpy()
    pt = p.column("ts").cast(pa.int64()).to_numpy()
    order = np.lexsort((pt, pu))
    pu, pt = pu[order], pt[order]
    # per-user slice bounds in the sorted build side
    bounds = {}
    uniq, starts = np.unique(pu, return_index=True)
    ends = np.append(starts[1:], len(pu))
    for u, s, e in zip(uniq, starts, ends):
        bounds[int(u)] = (int(s), int(e))
    build_ref = ray.put((pt, bounds))

    ds = load(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def probe(t: pa.Table) -> pa.Table:
        import ray as _ray

        times, bnds = _ray.get(build_ref)
        t = t.filter(pc.equal(t.column("event_type"), "click"))
        ids = t.column("event_id").to_numpy()
        us = t.column("user_id").to_numpy()
        ts = t.column("ts").cast(pa.int64()).to_numpy()
        out = np.full(len(ids), np.iinfo(np.int64).min, dtype=np.int64)
        for u in np.unique(us):
            be = bnds.get(int(u))
            sel = us == u
            if be is None:
                continue
            s, e = be
            pos = np.searchsorted(times[s:e], ts[sel], side="left")  # strictly earlier
            hit = pos > 0
            vals = np.full(int(sel.sum()), np.iinfo(np.int64).min, dtype=np.int64)
            vals[hit] = times[s:e][pos[hit] - 1]
            out[sel] = vals
        lp = pa.array(out, pa.int64()).cast(pa.timestamp("us"))
        lp = pc.if_else(
            pc.equal(pa.array(out), pa.scalar(np.iinfo(np.int64).min, pa.int64())),
            pa.scalar(None, pa.timestamp("us")),
            lp,
        )
        return pa.table({"event_id": t.column("event_id"), "last_purchase_ts": lp})

    return ds.map_batches(probe, batch_format="pyarrow")


@q("percentile_tdigest_sketch")  # approx sketch -> rows-only; accuracy pytest-asserted
def percentile_tdigest_sketch(sf_dir: str):
    """PercentileAgg's scale path as a native ``AggregateFnV2``: per-block
    t-digest partials, sketch merges INSIDE the groupby shuffle (no
    driver-side merge loop) — quantiles over 10^12 rows shuffle kilobytes.
    One digest per group comes back; both quantiles are read from it. The
    exact variants (percentile_value / percentile_per_type) are the
    oracle-checked baselines; this entry is the mergeable-sketch form."""
    from apache___solr_ray.functions.aggs import TDigestSketch
    from apache___solr_ray.functions.tdigest import TDigest

    ds = load(sf_dir, "events", columns=["event_type", "value"])
    groups = sorted(
        (
            (r["event_type"], TDigest.from_bytes(r["sketch"]))
            for r in ds.groupby("event_type")
            .aggregate(TDigestSketch(on="value", alias_name="sketch"))
            .take_all()
        ),
        key=lambda g: g[0],
    )
    return pa.table(
        {
            "event_type": pa.array([g[0] for g in groups], pa.string()),
            "p50": pa.array([round(g[1].quantile(0.5), 4) for g in groups]),
            "p95": pa.array([round(g[1].quantile(0.95), 4) for g in groups]),
        }
    )


@q(
    "range_join_value_bands",
    """
    WITH bands(band, lo, hi) AS (
      VALUES ('tiny', 0.0, 5.0), ('small', 5.0, 20.0), ('mid', 20.0, 50.0),
             ('large', 50.0, 80.0), ('huge', 80.0, 1e18)
    )
    SELECT b.band, count(*) AS n, round(sum(e.value), 2) AS sum_v
    FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
    GROUP BY b.band
    """,
)
def range_join_value_bands(sf_dir: str):
    """RANGE JOIN (the second custom operator the task brief names): rows
    joined to interval bands. Non-equi joins have no shuffle key — the
    Ray-native plan broadcasts the (sorted, non-overlapping) interval table
    and resolves each row's band with ONE vectorized searchsorted per
    batch, then aggregates with partial sums. Overlapping intervals would
    explode rows per overlap instead (same broadcast, interval tree)."""
    import ray

    from ray.data.aggregate import Count, Sum

    bands = [("tiny", 0.0), ("small", 5.0), ("mid", 20.0), ("large", 50.0), ("huge", 80.0)]
    names = np.array([b[0] for b in bands], dtype=object)
    los = np.array([b[1] for b in bands])
    ref = ray.put((names, los))

    ds = load(sf_dir, "events", columns=["value"])

    def assign(t: pa.Table) -> pa.Table:
        import ray as _ray

        nm, lo = _ray.get(ref)
        v = t.column("value").to_numpy()
        idx = np.searchsorted(lo, v, side="right") - 1
        keep = idx >= 0  # below the first band joins nothing
        return pa.table(
            {
                "band": pa.array(nm[idx[keep]].tolist(), pa.string()),
                "value": pa.array(v[keep]),
            }
        )

    out = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("band")
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_v"))
    )
    return round_cols(out, {"sum_v": 2})


@q(
    "left_outer_join_order_counts",
    """
    SELECT c_custkey, CAST(COALESCE(oc.n, 0) AS BIGINT) AS n_orders
    FROM customer LEFT JOIN (
      SELECT o_custkey, CAST(count(*) AS BIGINT) AS n FROM orders GROUP BY o_custkey
    ) oc ON c_custkey = o_custkey
    """,
)
def left_outer_join_order_counts(sf_dir: str):
    """Left outer broadcast join (reference LeftOuterJoinStream.java:
    unmatched left tuples pass through with the right side null): every
    customer keeps a row; customers with no orders get n_orders = 0. The
    small side is the pre-aggregated per-customer order count (combiner
    before the join, so the broadcast table is |customers|-bounded)."""
    from apache___solr_ray.pipelines.common import broadcast_join, partial_sum_count

    counts = partial_sum_count(
        load(sf_dir, "orders", columns=["o_custkey"]), "o_custkey", [], count_alias="n"
    )
    counts_tbl = pa.Table.from_pandas(counts.to_pandas(), preserve_index=False)
    cust = load(sf_dir, "customer", columns=["c_custkey"])
    joined = broadcast_join(
        cust, counts_tbl, "c_custkey", "o_custkey", {"n": "n_orders"}, how="left"
    )

    def fill0(t: pa.Table) -> pa.Table:
        i = t.column_names.index("n_orders")
        filled = pc.fill_null(pc.cast(t.column("n_orders"), pa.int64()), 0)
        return t.set_column(i, "n_orders", filled).select(["c_custkey", "n_orders"])

    return joined.map_batches(fill0, batch_format="pyarrow")


@q(
    "full_outer_join_customers_events",
    """
    WITH e AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
               FROM events GROUP BY user_id)
    SELECT CAST(COALESCE(c.c_custkey, e.user_id) AS BIGINT) AS key,
           CAST(c.c_custkey IS NOT NULL AS BIGINT) AS has_customer,
           CAST(COALESCE(e.n_events, 0) AS BIGINT) AS n_events
    FROM customer c FULL OUTER JOIN e ON c.c_custkey = e.user_id
    """,
)
def full_outer_join_customers_events(sf_dir: str):
    """Full outer join (reference FullOuterJoinStream.java: unmatched
    tuples from BOTH sides pass through) — customers vs per-user event
    counts, run as Ray Data's native distributed hash join (both sides
    partitioned by key; a broadcast join cannot express full-outer because
    right-only rows would re-emit per batch)."""
    from ray.data.aggregate import Count

    ev = (
        load(sf_dir, "events", columns=["user_id"])
        .groupby("user_id")
        .aggregate(Count(alias_name="n_events"))
    )
    cust = load(sf_dir, "customer", columns=["c_custkey"])
    from apache___solr_ray.pipelines.common import native_join

    # __c marks left-side presence: the join coalesces the right key into
    # the left key's column, so the key itself can't distinguish a
    # matched customer from a right-only event user
    cust = cust.map_batches(
        lambda t: t.append_column(
            "__c", pa.array(np.ones(t.num_rows, dtype=np.int8))
        ),
        batch_format="pyarrow",
    )
    ev = ev.materialize()
    joined = native_join(
        cust, ev, "full_outer", 8, on=("c_custkey",), right_on=("user_id",)
    )

    return joined.map_batches(_full_outer_proj, batch_format="pyarrow")


def _full_outer_proj(t: pa.Table) -> pa.Table:
    """Projection of one full-outer join output block. A block that holds
    only one side's rows may lack the other side's columns (``n_events``
    or ``__c``): a missing column reads as nulls, so as 0."""

    def col(name: str, typ: pa.DataType) -> pa.Array:
        if name in t.column_names:
            return pc.cast(t.column(name), typ)
        return pa.nulls(t.num_rows, typ)

    return pa.table(
        {
            "key": col("c_custkey", pa.int64()),  # coalesced by the join
            "has_customer": pc.cast(pc.is_valid(col("__c", pa.int8())), pa.int64()),
            "n_events": pc.fill_null(col("n_events", pa.int64()), 0),
        }
    )


@q(
    "facet_missing_countvals_sumsq",
    """
    WITH t AS (SELECT event_type,
                      CASE WHEN value <= 100 THEN value END AS v
               FROM events)
    SELECT event_type,
           CAST(sum(CASE WHEN v IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS missing,
           CAST(count(v) AS BIGINT) AS countvals,
           round(sum(COALESCE(v * v, 0)), 2) AS sumsq
    FROM t GROUP BY event_type
    """,
)
def facet_missing_countvals_sumsq(sf_dir: str):
    """The JSON-facet refinement aggregates missing / countvals / sumsq
    (reference MissingAgg.java, CountValsAgg.java, SumsqAgg.java) over a
    nullable derived value — indicators and squares computed vectorized
    per batch, so each is a plain partial+final Sum in the one groupby."""
    from ray.data.aggregate import Count, Sum

    ds = load(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = t.column("value")
        mask = pc.less_equal(v, 100.0)
        vn = pc.if_else(mask, v, pa.scalar(None, pa.float64()))
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "is_missing": pc.cast(pc.invert(pc.fill_null(mask, False)), pa.int64()),
                "has_val": pc.cast(pc.is_valid(vn), pa.int64()),
                "v2": pc.fill_null(pc.multiply(vn, vn), 0.0),
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("is_missing", alias_name="missing"),
            Sum("has_val", alias_name="countvals"),
            Sum("v2", alias_name="sumsq"),
        )
    )
    return round_cols(out, {"sumsq": 2})


@q(
    "sample_events_hash",
    """
    SELECT event_id, event_type
    FROM events
    WHERE ((event_id % 1000003) * 2654435761 + 12345) % 1000000007 % 100 < 10
    """,
)
def sample_events_hash(sf_dir: str):
    """Seeded pseudo-random sampling (reference RandomStream.java:53-58 —
    a deterministic seeded sample of the result set): a Knuth
    multiplicative hash of the key decides membership, so the sample is
    ~Bernoulli(10%) yet reproducible and embarrassingly parallel (pure
    map-side filter, mirrored exactly by the oracle's integer arithmetic).
    Unlike `sample_events_mod`, key locality does not leak into the sample
    (adjacent ids scatter across the hash space)."""
    ds = load(sf_dir, "events", columns=["event_id", "event_type"])

    def flt(t: pa.Table) -> pa.Table:
        ids = t.column("event_id").to_numpy()
        h = ((ids % 1000003) * 2654435761 + 12345) % 1000000007 % 100
        return t.filter(pa.array(h < 10))

    return ds.map_batches(flt, batch_format="pyarrow")


#: per-stratum sampling rates (percent) — head types downsampled hard,
#: tail types kept: the class-rebalancing shape a training pipeline uses
_STRATA_PCT = {"view": 5, "click": 20, "purchase": 80, "login": 50, "logout": 50}


@q(
    "sample_events_stratified",
    f"""
    SELECT event_id, event_type
    FROM events
    WHERE ((event_id % 1000003) * 2654435761 + 12345) % 1000000007 % 100
          < CASE event_type
              {" ".join(f"WHEN '{k}' THEN {v}" for k, v in sorted(_STRATA_PCT.items()))}
              ELSE 0 END
    """,
)
def sample_events_stratified(sf_dir: str):
    """STRATIFIED seeded sampling (per-class rates — the class-rebalancing
    sampler a training-data pipeline runs; reference shape: RandomStream's
    deterministic sample, applied per stratum): the same Knuth
    multiplicative hash as `sample_events_hash` decides membership, but the
    threshold is the stratum's rate — head classes downsampled, tail
    classes kept. Pure map-side filter (rates broadcast in the closure),
    mirrored by the oracle's integer CASE arithmetic."""
    ds = load(sf_dir, "events", columns=["event_id", "event_type"])
    rates = dict(_STRATA_PCT)

    def flt(t: pa.Table) -> pa.Table:
        ids = t.column("event_id").to_numpy()
        h = ((ids % 1000003) * 2654435761 + 12345) % 1000000007 % 100
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        thresh = np.zeros(len(et), dtype=np.int64)
        for k, v in rates.items():  # |strata| vectorized compares, not per-row
            thresh[et == k] = v
        return t.filter(pa.array(h < thresh))

    return ds.map_batches(flt, batch_format="pyarrow")


@q(
    "cursor_orders_pages",
    """
    WITH ranked AS (
      SELECT o_orderkey, round(o_totalprice, 2) AS price,
             row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
      FROM orders
    )
    SELECT CAST((rn - 1) // 50 AS BIGINT) AS page, o_orderkey, price
    FROM ranked WHERE rn <= 150
    """,
)
def cursor_orders_pages(sf_dir: str):
    """CursorMark deep paging over a sorted export (reference
    CursorMark.java: totem = last row's (sort value, uniqueKey); each page
    filters strictly-after the cursor then sort+limit — no offset scan, so
    page N costs the same as page 1). Three 50-row pages; each page is its
    own Ray sort+limit over the cursor-filtered stream."""
    pages = []
    cursor = None  # (price, orderkey) of the last emitted row
    for page_no in range(3):
        ds = load(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

        def prep(t: pa.Table, _c=cursor) -> pa.Table:
            price = pc.round(
                pc.cast(t.column("o_totalprice"), pa.float64()),
                ndigits=2,
                round_mode="half_towards_infinity",
            )
            t = pa.table({"o_orderkey": t.column("o_orderkey"), "price": price})
            if _c is not None:
                p = t.column("price")
                k = t.column("o_orderkey")
                after = pc.or_(
                    pc.less(p, _c[0]),
                    pc.and_(pc.equal(p, _c[0]), pc.greater(k, _c[1])),
                )
                t = t.filter(after)
            return t

        page = (
            ds.map_batches(prep, batch_format="pyarrow")
            .sort(["price", "o_orderkey"], descending=[True, False])
            .limit(50)
            .to_pandas()
        )
        page.insert(0, "page", page_no)
        pages.append(page)
        cursor = (float(page["price"].iloc[-1]), int(page["o_orderkey"].iloc[-1]))
    out = pd.concat(pages, ignore_index=True)
    return pa.table(
        {
            "page": pa.array(out["page"].to_numpy(), pa.int64()),
            "o_orderkey": pa.array(out["o_orderkey"].to_numpy(), pa.int64()),
            "price": pa.array(out["price"].to_numpy(), pa.float64()),
        }
    )


@q(
    "relatedness_event_types",
    """
    WITH agg AS (
      SELECT event_type,
             CAST(sum(CASE WHEN value > 100 THEN 1 ELSE 0 END) AS BIGINT) AS fg_count,
             CAST(count(*) AS BIGINT) AS bg_count
      FROM events GROUP BY event_type
    ),
    size AS (
      SELECT CAST(sum(CASE WHEN value > 100 THEN 1 ELSE 0 END) AS BIGINT) AS fg_size,
             CAST(count(*) AS BIGINT) AS bg_size
      FROM events
    ),
    z AS (
      SELECT event_type, fg_count, bg_count,
             (fg_count - fg_size * (bg_count * 1.0 / bg_size))
             / (CASE WHEN sqrt(fg_size * (bg_count * 1.0 / bg_size) * (1 - bg_count * 1.0 / bg_size)) = 0
                     THEN 1e-10
                     ELSE sqrt(fg_size * (bg_count * 1.0 / bg_size) * (1 - bg_count * 1.0 / bg_size)) END) AS zv
      FROM agg, size
    )
    SELECT event_type, fg_count, bg_count,
           floor((0.2 * ((zv + -80) / (50 + abs(zv + -80)))
                + 0.2 * ((zv + -30) / (30 + abs(zv + -30)))
                + 0.2 * ((zv + 0) / (30 + abs(zv + 0)))
                + 0.2 * ((zv + 30) / (30 + abs(zv + 30)))
                + 0.2 * ((zv + 80) / (50 + abs(zv + 80)))) * 1e5 + 0.5) / 1e5 AS relatedness
    FROM z
    """,
)
def relatedness_event_types(sf_dir: str):
    """Semantic-knn `relatedness` aggregate (reference RelatednessAgg.java:
    computeRelatedness z-score + 5-sigmoid squash, roundTo5Digits) —
    foreground = events with value > 100, background = all events, buckets
    = event_type. Counts come from one partial+final Sum groupby; the
    scalar formula is applied bucket-wise afterward with the exact IEEE
    operation order of the reference (mirrored by the oracle)."""
    from ray.data.aggregate import Count, Sum

    ds = load(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "in_fg": pc.cast(pc.greater(t.column("value"), 100.0), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("in_fg", alias_name="fg_count"), Count(alias_name="bg_count"))
        .to_pandas()
        .sort_values("event_type")
    )
    fg_size = float(agg["fg_count"].sum())
    bg_size = float(agg["bg_count"].sum())
    fg = agg["fg_count"].to_numpy().astype(np.float64)
    bg = agg["bg_count"].to_numpy().astype(np.float64)
    bg_prob = bg / bg_size
    num = fg - fg_size * bg_prob
    denom = np.sqrt(fg_size * bg_prob * (1 - bg_prob))
    denom = np.where(denom == 0, 1e-10, denom)
    z = num / denom

    def sig(x, off, scale):
        return (x + off) / (scale + np.abs(x + off))

    rel = (
        0.2 * sig(z, -80.0, 50.0)
        + 0.2 * sig(z, -30.0, 30.0)
        + 0.2 * sig(z, 0.0, 30.0)
        + 0.2 * sig(z, 30.0, 30.0)
        + 0.2 * sig(z, 80.0, 50.0)
    )
    rel = np.floor(rel * 1e5 + 0.5) / 1e5  # Math.round semantics
    return pa.table(
        {
            "event_type": pa.array(agg["event_type"].tolist(), pa.string()),
            "fg_count": pa.array(agg["fg_count"].to_numpy(), pa.int64()),
            "bg_count": pa.array(agg["bg_count"].to_numpy(), pa.int64()),
            "relatedness": pa.array(rel, pa.float64()),
        }
    )


@q(
    "weighted_sum_per_type",
    """
    SELECT event_type,
           round(sum(value * CAST(json_extract(props, '$.k') AS BIGINT)), 2) AS wsum,
           CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS wtotal
    FROM events GROUP BY event_type
    """,
)
def weighted_sum_per_type(sf_dir: str):
    """WeightedSumMetric analog (reference solrj-streaming
    WeightedSumMetric.java: sum of value×weight per bucket): the weight is
    parsed from the JSON props column vectorized, the product is computed
    per batch, and the groupby is one partial+final Sum."""
    import json as _json

    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["event_type", "value", "props"])

    def prep(t: pa.Table) -> pa.Table:
        ks = np.array(
            [_json.loads(p)["k"] for p in t.column("props").to_pylist()], dtype=np.int64
        )
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "wv": pc.multiply(pc.cast(t.column("value"), pa.float64()), pa.array(ks.astype(np.float64))),
                "k": pa.array(ks),
            }
        )

    out = partial_sum_count(
        ds.map_batches(prep, batch_format="pyarrow"),
        "event_type",
        [("wv", "wsum"), ("k", "wtotal")],
    )
    return round_cols(out, {"wsum": 2})


# -- spatial (bbox / geofilt / geodist) --------------------------------------
# Coordinates are synthesized deterministically from the key with exact
# integer arithmetic (identical on both sides), standing in for a stored
# lat/lon point field (reference LatLonPointSpatialField).

_LAT_SQL = "((c_custkey * 7919) % 17000) / 100.0 - 85.0"
_LON_SQL = "((c_custkey * 104729) % 36000) / 100.0 - 180.0"


def _latlon(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lat = ((keys * 7919) % 17000) / 100.0 - 85.0
    lon = ((keys * 104729) % 36000) / 100.0 - 180.0
    return lat, lon


@q(
    "geo_bbox_filter",
    f"""
    SELECT c_custkey, {_LAT_SQL} AS lat, {_LON_SQL} AS lon
    FROM customer
    WHERE {_LAT_SQL} BETWEEN 10.0 AND 45.0 AND {_LON_SQL} BETWEEN -30.0 AND 60.0
    """,
)
def geo_bbox_filter(sf_dir: str):
    """bbox filter (reference `{{!bbox}}` / SpatialFilterQParser: rectangle
    containment over a point field) — a pure vectorized per-batch
    comparison, no shuffle."""
    ds = load(sf_dir, "customer", columns=["c_custkey"])

    def flt(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy()
        lat, lon = _latlon(k)
        keep = (lat >= 10.0) & (lat <= 45.0) & (lon >= -30.0) & (lon <= 60.0)
        return pa.table(
            {
                "c_custkey": pa.array(k[keep], pa.int64()),
                "lat": pa.array(lat[keep], pa.float64()),
                "lon": pa.array(lon[keep], pa.float64()),
            }
        )

    return ds.map_batches(flt, batch_format="pyarrow")


#: CCW convex pentagon in (lon, lat) — WKT order, JTS planar semantics
_POLY_WKT = "POLYGON ((-30 -10, 40 -20, 70 30, 10 60, -50 25))"


def _poly_halfplane_sql() -> str:
    """The convex polygon as an AND of strict half-plane sign tests — the
    SQL-expressible exact form (same f64 expression the engine's
    convex mask evaluates, so the filter compares IEEE-op-for-op)."""
    from apache___solr_ray.geo import parse_wkt_polygon

    poly = parse_wkt_polygon(_POLY_WKT)
    conds = []
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        conds.append(
            f"(({x2} - {x1}) * (lat - {y1}) - ({y2} - {y1}) * (lon - {x1})) > 0"
        )
    return " AND ".join(conds)


@q(
    "geo_polygon_filter",
    f"""
    WITH pts AS (SELECT c_custkey, {_LAT_SQL} AS lat, {_LON_SQL} AS lon FROM customer)
    SELECT c_custkey, lat, lon FROM pts
    WHERE {{conds}}
    """.replace("{conds}", _poly_halfplane_sql()),
)
def geo_polygon_filter(sf_dir: str):
    """Polygon/WKT spatial filter (reference
    ``SpatialRecursivePrefixTreeFieldType`` / LatLonPointSpatialField with
    JTS WKT: ``fq={{!field f=loc}}Intersects(POLYGON((...)))``): parse the
    WKT, filter points per batch with the vectorized even-odd ray-casting
    test in ``apache___solr_ray.geo`` — one numpy pass per polygon edge,
    no shuffle. The fixture polygon is convex, so the oracle states the
    exact filter as an AND of half-plane sign tests; ray casting ==
    half-plane equality (and concave behavior) is pytest-asserted."""
    from apache___solr_ray.geo import parse_wkt_polygon, points_in_polygon

    poly = parse_wkt_polygon(_POLY_WKT)
    ds = load(sf_dir, "customer", columns=["c_custkey"])

    def flt(t: pa.Table, _p=poly) -> pa.Table:
        k = t.column("c_custkey").to_numpy()
        lat, lon = _latlon(k)
        keep = points_in_polygon(lon, lat, _p)
        return pa.table(
            {
                "c_custkey": pa.array(k[keep], pa.int64()),
                "lat": pa.array(lat[keep], pa.float64()),
                "lon": pa.array(lon[keep], pa.float64()),
            }
        )

    return ds.map_batches(flt, batch_format="pyarrow")


@q(
    "geo_dist_top20",
    f"""
    WITH pts AS (SELECT c_custkey, radians({_LAT_SQL}) AS la, radians({_LON_SQL}) AS lo
                 FROM customer),
    d AS (
      SELECT c_custkey,
             round(2 * 6371.0087714 * asin(sqrt(
               sin((la - radians(48.8566)) / 2) * sin((la - radians(48.8566)) / 2)
               + cos(radians(48.8566)) * cos(la)
                 * sin((lo - radians(2.3522)) / 2) * sin((lo - radians(2.3522)) / 2)
             )), 4) AS dist_km
      FROM pts
    )
    SELECT c_custkey, dist_km FROM d
    ORDER BY dist_km ASC, c_custkey ASC LIMIT 20
    """,
)
def geo_dist_top20(sf_dir: str):
    """geodist sort / geofilt (reference GeoDistValueSource semantics:
    haversine great-circle km, GEO earth radius 6371.0087714): nearest 20
    customers to Paris, distance computed vectorized per batch with the
    oracle's exact operation order, global top-k via sort+limit."""
    ds = load(sf_dir, "customer", columns=["c_custkey"])
    qlat, qlon = np.radians(48.8566), np.radians(2.3522)

    def dist(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy()
        lat, lon = _latlon(k)
        la, lo = np.radians(lat), np.radians(lon)
        h = (
            np.sin((la - qlat) / 2) * np.sin((la - qlat) / 2)
            + np.cos(qlat) * np.cos(la) * np.sin((lo - qlon) / 2) * np.sin((lo - qlon) / 2)
        )
        d = np.round(2 * 6371.0087714 * np.arcsin(np.sqrt(h)), 4)
        return pa.table(
            {"c_custkey": pa.array(k, pa.int64()), "dist_km": pa.array(d, pa.float64())}
        )

    return ds.map_batches(dist, batch_format="pyarrow").sort(
        ["dist_km", "c_custkey"]
    ).limit(20)


@q(
    "facet_heatmap_grid",
    f"""
    SELECT CAST(floor(({_LAT_SQL}) / 15.0) AS BIGINT) AS cell_lat,
           CAST(floor(({_LON_SQL}) / 30.0) AS BIGINT) AS cell_lon,
           count(*) AS n
    FROM customer
    GROUP BY 1, 2
    """,
)
def facet_heatmap_grid(sf_dir: str):
    """Spatial heatmap facet (reference FacetHeatmap.java: grid-cell counts
    over a point field): cell assignment is a vectorized floor-divide per
    batch, then one partial+final Count groupby — the facet's
    2D-bucket shape with none of the all-to-all a naive pair count needs."""
    from ray.data.aggregate import Count

    ds = load(sf_dir, "customer", columns=["c_custkey"])

    def cells(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy()
        lat, lon = _latlon(k)
        return pa.table(
            {
                "cell_lat": pa.array(np.floor(lat / 15.0).astype(np.int64), pa.int64()),
                "cell_lon": pa.array(np.floor(lon / 30.0).astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(cells, batch_format="pyarrow")
        .groupby(["cell_lat", "cell_lon"])
        .aggregate(Count(alias_name="n"))
    )


@q(
    "random_sort_orders",
    """
    SELECT o_orderkey
    FROM orders
    ORDER BY (o_orderkey * 2654435761 + 42) % 1000000007, o_orderkey
    LIMIT 50
    """,
)
def random_sort_orders(sf_dir: str):
    """RandomSortField analog (reference RandomSortField.java: a stable
    seeded pseudo-random sort key): deterministic multiplicative hash of
    the key as the sort value — reproducible across engines, shardable
    (each partition computes its own keys, one global sort+limit)."""
    ds = load(sf_dir, "orders", columns=["o_orderkey"])

    def keyed(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy()
        return pa.table(
            {
                "o_orderkey": pa.array(k, pa.int64()),
                "rnd": pa.array((k * 2654435761 + 42) % 1000000007, pa.int64()),
            }
        )

    out = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .sort(["rnd", "o_orderkey"])
        .limit(50)
    )
    return out.select_columns(["o_orderkey"])


# -- function queries (ValueSourceParser pack) -------------------------------

_NOW_MS = 1706745600000  # TIMESTAMP '2024-02-01 00:00:00' UTC, fixed "NOW"
_RECIP_M = 1.0 / 86400000.0  # 1/day in ms — recip decays per elapsed day


@q(
    "func_recency_boost",
    f"""
    SELECT event_id,
           floor(value * (1.0/(({_RECIP_M!r})*({_NOW_MS} - epoch_ms(ts)) + 1.0))
                 * 1000000 + 0.5)/1000000.0 AS boosted
    FROM events
    """,
)
def func_recency_boost(sf_dir: str):
    """Function-query chain (ValueSourceParser.java registrations: mul /
    recip / sub / ms) — the classic recency boost
    ``mul(value, recip(ms(NOW,ts),1/DAY_MS,1,1))`` as composable
    pyarrow.compute closures inside one map_batches; the DuckDB mirror
    computes the identical IEEE op sequence."""
    from apache___solr_ray.functions import add_computed
    from apache___solr_ray.pipelines.common import floor_round

    ds = load(sf_dir, "events", columns=["event_id", "ts", "value"])
    expr = ("mul", "value", ("recip", ("sub", _NOW_MS, ("ms", "ts")), _RECIP_M, 1.0, 1.0))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": t.column("event_id"), "boosted": floor_round(t.column("boosted"), 6)}
        )

    return ds.map_batches(add_computed("boosted", expr), batch_format="pyarrow").map_batches(
        finish, batch_format="pyarrow"
    )


@q(
    "func_strdist_customers",
    """
    SELECT c_custkey,
           1 - CAST(levenshtein(c_name, 'Customer#000000100') AS DOUBLE)
               / greatest(length(c_name), 18) AS sim
    FROM customer WHERE c_custkey < 500
    """,
)
def func_strdist_customers(sf_dir: str):
    """strdist() function query (ValueSourceParser 'strdist' / Lucene
    LevenshteinDistance.getDistance = 1 - lev/max_len) — batch-vectorized
    DP against the constant (row axis in numpy; no per-row Python)."""
    from apache___solr_ray.functions import add_computed

    ds = load(sf_dir, "customer", columns=["c_custkey", "c_name"])

    def flt(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t.column("c_custkey"), 500))

    out = ds.map_batches(flt, batch_format="pyarrow").map_batches(
        add_computed("sim", ("strdist", "c_name", "Customer#000000100")),
        batch_format="pyarrow",
    )
    return out.select_columns(["c_custkey", "sim"])


@q(
    "func_ord_sqedist",
    """
    WITH d AS (SELECT count(DISTINCT c_mktsegment) AS n FROM customer),
    r AS (SELECT c_custkey, c_acctbal,
                 dense_rank() OVER (ORDER BY c_mktsegment) AS o
          FROM customer)
    SELECT c_custkey, CAST(o AS BIGINT) AS ord,
           CAST((SELECT n FROM d) + 1 - o AS BIGINT) AS rord,
           floor(((c_acctbal/1000 - 2.5)*(c_acctbal/1000 - 2.5)
                  + (o - 3)*(o - 3)) * 10000 + 0.5)/10000 AS dist2
    FROM r
    """,
)
def func_ord_sqedist(sf_dir: str):
    """ord()/rord()/sqedist() function queries chained (ValueSourceParser
    'ord'/'rord' = OrdFieldSource rank in the field's sorted term dict,
    'sqedist' = SquaredEuclideanFunction): the term dictionary is ONE tiny
    distinct aggregate (functions.distinct_sorted — the index read analog),
    broadcast into the expression; dist2 = squared distance from the point
    (c_acctbal/1000, ord) to (2.5, 3). Oracle mirrors ord as dense_rank."""
    from apache___solr_ray.functions import add_computed, distinct_sorted
    from apache___solr_ray.pipelines.common import round_cols

    ds = load(sf_dir, "customer", columns=["c_custkey", "c_acctbal", "c_mktsegment"])
    seg_dict = distinct_sorted(ds, "c_mktsegment")
    out = (
        ds.map_batches(
            add_computed("ord", ("ord", "c_mktsegment", seg_dict)),
            batch_format="pyarrow",
        )
        .map_batches(
            add_computed("rord", ("rord", "c_mktsegment", seg_dict)),
            batch_format="pyarrow",
        )
        .map_batches(
            add_computed(
                "dist2",
                ("sqedist", ("div", "c_acctbal", 1000.0), "ord", 2.5, 3.0),
            ),
            batch_format="pyarrow",
        )
        .select_columns(["c_custkey", "ord", "rord", "dist2"])
    )
    return round_cols(out, {"dist2": 4})


# -- interval facets (overlapping intervals — IntervalFacets.java) ------------

#: (label, lo, hi, lo_incl, hi_incl); hi=None => unbounded (Solr '*')
_FACET_INTERVALS = [
    ("[0,50)", 0.0, 50.0, True, False),
    ("[25,100)", 25.0, 100.0, True, False),
    ("[50,200]", 50.0, 200.0, True, True),
    ("(100,*]", 100.0, None, False, True),
]


def _interval_oracle_sql() -> str:
    parts = []
    for label, lo, hi, lo_i, hi_i in _FACET_INTERVALS:
        conds = [f"value >{'=' if lo_i else ''} {lo}"]
        if hi is not None:
            conds.append(f"value <{'=' if hi_i else ''} {hi}")
        parts.append(
            f"SELECT '{label}' AS interval, count(*) AS n FROM events WHERE "
            + " AND ".join(conds)
        )
    return "\n    UNION ALL\n    ".join(parts)


@q("facet_interval_value", _interval_oracle_sql())
def facet_interval_value(sf_dir: str):
    """Interval facets (reference
    solr/core/src/java/org/apache/solr/request/IntervalFacets.java:
    arbitrary, possibly OVERLAPPING intervals with per-end open/closed
    bounds — the feature range facets can't express; Solr syntax
    ``facet.interval.set=[0,50)``). One streaming pass: every batch counts
    each interval with a vectorized mask (a row can land in several), the
    groupby sums the per-batch partials."""
    from ray.data.aggregate import Sum

    ds = load(sf_dir, "events", columns=["value"])

    def partial(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy()
        labels, counts = [], []
        for label, lo, hi, lo_i, hi_i in _FACET_INTERVALS:
            m = (v >= lo) if lo_i else (v > lo)
            if hi is not None:
                m &= (v <= hi) if hi_i else (v < hi)
            labels.append(label)
            counts.append(int(m.sum()))
        return pa.table(
            {
                "interval": pa.array(labels, pa.string()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("interval")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("n"), "n", t.column("n").cast(pa.int64())
            ),
            batch_format="pyarrow",
        )
    )


@q(
    "facet_nested_subfacet",
    """
    WITH agg AS (
      SELECT event_type, user_id, count(*) AS n,
             floor(sum(value) * 100 + 0.5) / 100.0 AS sum_value
      FROM events GROUP BY event_type, user_id
    ),
    ranked AS (
      SELECT *, row_number() OVER (
        PARTITION BY event_type ORDER BY n DESC, user_id ASC) AS rn
      FROM agg
    )
    SELECT event_type, user_id, n, sum_value, rn
    FROM ranked WHERE rn <= 2
    """,
)
def facet_nested_subfacet(sf_dir: str):
    """JSON Facet nested subfacets (reference JSON Facet API — FacetField
    buckets with nested facets/stats per bucket, FacetModule.java): per
    event_type bucket, the top-2 user_id sub-buckets by count, each
    carrying its own stat (sum_value). One (type,user) groupby with
    partial aggregation, then the vectorized per-partition window kernel —
    the same two-shuffle shape a nested JSON facet compiles to."""
    from ray.data.aggregate import Count, Sum

    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "events", columns=["event_type", "user_id", "value"])
    agg = ds.groupby(["event_type", "user_id"]).aggregate(
        Count(alias_name="n"), Sum("value", alias_name="sv")
    )

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "user_id"], ascending=[False, True])
        rn = g.groupby("event_type", sort=False).cumcount() + 1
        g = g.assign(rn=rn.astype(np.int64))
        g = g[g["rn"] <= 2]
        return pd.DataFrame(
            {
                "event_type": g["event_type"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "n": g["n"].to_numpy().astype(np.int64),
                "sum_value": np.floor(g["sv"].to_numpy() * 100 + 0.5) / 100.0,
                "rn": g["rn"].to_numpy(),
            }
        )

    return grouped_map(agg, "event_type", top2)


@q(
    "export_partitioned_roundtrip",
    """
    SELECT event_type, count(*) AS n, CAST(sum(event_id) AS BIGINT) AS sum_id
    FROM events GROUP BY event_type
    """,
)
def export_partitioned_roundtrip(sf_dir: str):
    """Resumable partitioned-Parquet sink (sinks.py): export ``events``
    as one committed directory per event_type (atomic rename + fingerprint
    manifest per partition — the index build's segment commit discipline
    applied to exports), then READ THE SINK BACK and aggregate — proving
    the written bytes, not the source. A re-export with the same input
    fingerprint skips every partition (pytest asserts the skip and the
    crash-resume path)."""
    import hashlib
    import os

    from apache___solr_ray.pipelines.common import partial_sum_count
    from apache___solr_ray.sinks import read_partitioned, write_partitioned

    src = os.path.join(sf_dir, "events.parquet")
    fp = f"{src}:{os.path.getsize(src)}"
    out_dir = f"/tmp/apache___solr_ray_cache/export_{hashlib.md5(fp.encode()).hexdigest()[:12]}"
    ds = load(sf_dir, "events", columns=["event_type", "event_id"])
    write_partitioned(ds, out_dir, "event_type", fp)

    back = read_partitioned(out_dir, "event_type")
    return partial_sum_count(
        back, "event_type", [("event_id", "sum_id")], count_alias="n"
    ).select_columns(["event_type", "n", "sum_id"])


@q(
    "big_join_priority_revenue",
    """
    SELECT o_orderpriority,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS rev_cents,
           count(*) AS n
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    GROUP BY o_orderpriority
    """,
)
def big_join_priority_revenue(sf_dir: str):
    """Big-big DISTRIBUTED hash join (reference HashJoinStream with
    parallel partitioning semantics / InnerJoinStream over partitioned
    streams): lineitem ⋈ orders where NEITHER side is broadcast — both
    stay streamed Datasets through Ray's hash-partitioned join
    (partitions sized to the cluster, stages/dedup._default_join_partitions),
    then the partial+final rollup. The broadcast joins elsewhere are the
    small-side fast path; this is the shape that survives when both sides
    are 100 TB."""
    from apache___solr_ray.pipelines.common import cents, native_join, partial_sum_count
    from apache___solr_ray.stages.dedup import _default_join_partitions

    li = load(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"])
    li = li.map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "rev_cents": cents(t.column("l_extendedprice")),
            }
        ),
        batch_format="pyarrow",
    )
    orders = load(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = native_join(
        li,
        orders,
        "inner",
        _default_join_partitions(),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    return partial_sum_count(
        joined, "o_orderpriority", [("rev_cents", "rev_cents")], count_alias="n"
    )


@q(
    "facet_pivot_status_priority_year",
    """
    WITH l3 AS (
      SELECT o_orderstatus AS s, o_orderpriority AS p,
             CAST(year(o_orderdate) AS BIGINT) AS y,
             count(*) AS n,
             CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS rc
      FROM orders GROUP BY 1, 2, 3),
    l2 AS (SELECT s, p, CAST(sum(n) AS BIGINT) AS n, CAST(sum(rc) AS BIGINT) AS rc
           FROM l3 GROUP BY 1, 2),
    l1 AS (SELECT s, CAST(sum(n) AS BIGINT) AS n, CAST(sum(rc) AS BIGINT) AS rc
           FROM l2 GROUP BY 1),
    r2 AS (SELECT *, row_number() OVER (PARTITION BY s ORDER BY n DESC, p ASC) AS rn
           FROM l2),
    r3 AS (SELECT l3.*, row_number() OVER (
             PARTITION BY l3.s, l3.p ORDER BY l3.n DESC, l3.y ASC) AS rn
           FROM l3 JOIN r2 ON l3.s = r2.s AND l3.p = r2.p WHERE r2.rn <= 3)
    SELECT CAST(1 AS BIGINT) AS level, s AS o_orderstatus, '' AS o_orderpriority,
           '' AS o_year, n, rc AS rev_cents FROM l1
    UNION ALL
    SELECT 2, s, p, '', n, rc FROM r2 WHERE rn <= 3
    UNION ALL
    SELECT 3, s, p, CAST(y AS VARCHAR), n, rc FROM r3 WHERE rn <= 2
    """,
)
def facet_pivot_status_priority_year(sf_dir: str):
    """Classic pivot facets (``facet.pivot=f1,f2,f3`` — reference
    solr/core/src/java/org/apache/solr/handler/component/PivotFacetProcessor.java:65
    ``process()`` builds the complete value tree per pivot string;
    PivotFacetField.java handles per-level facet.limit/facet.sort=count and
    the distributed refinement of the same tree). Three-level pivot over
    ``orders``: o_orderstatus -> o_orderpriority -> year(o_orderdate),
    every bucket carrying count plus an attached stat (sum of totalprice
    in exact integer cents — the stats-component-in-pivot hookup,
    PivotFacetHelper.java). Per-level limits mirror facet.limit: all
    statuses, top-3 priorities per status, top-2 years per surviving
    (status, priority); sort=count desc, ties by value asc — children are
    emitted only under parents that survived their level's limit, exactly
    like the reference's response tree.

    Distributed shape: per-batch pandas partial over (s,p,y) — the finest
    grain, a few hundred distinct triples regardless of corpus size — ONE
    groupby sums partials, then grouped_map hash-partitions by the ROOT
    value so every pivot subtree lands whole in one task and all three
    levels + limits are computed with vectorized pandas kernels. The tree
    is returned flattened (level, path columns, '' for unused levels) so
    the DuckDB oracle can express it relationally."""
    from ray.data.aggregate import Sum

    from apache___solr_ray.pipelines.common import combine_partials, grouped_map

    ds = load(
        sf_dir,
        "orders",
        columns=["o_orderstatus", "o_orderpriority", "o_orderdate", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rc = np.floor(df["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame(
            {
                "s": df["o_orderstatus"].to_numpy(),
                "p": df["o_orderpriority"].to_numpy(),
                "y": pd.to_datetime(df["o_orderdate"]).dt.year.to_numpy().astype(np.int64),
                "n": np.ones(len(df), dtype=np.int64),
                "rc": rc,
            }
        )
        return g.groupby(["s", "p", "y"], sort=False, as_index=False).agg(
            n=("n", "sum"), rc=("rc", "sum")
        )

    leaf = combine_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["s", "p", "y"],
        [Sum("n", alias_name="n"), Sum("rc", alias_name="rc")],
        sum_cols=["n", "rc"],
    )

    def build_tree(g: pd.DataFrame) -> pd.DataFrame:
        l2 = g.groupby(["s", "p"], as_index=False).agg(n=("n", "sum"), rc=("rc", "sum"))
        l1 = l2.groupby(["s"], as_index=False).agg(n=("n", "sum"), rc=("rc", "sum"))
        empty = lambda k: np.full(k, "", dtype=object)  # noqa: E731
        rows = [
            pd.DataFrame(
                {
                    "level": np.ones(len(l1), dtype=np.int64),
                    "o_orderstatus": l1["s"].to_numpy(),
                    "o_orderpriority": empty(len(l1)),
                    "o_year": empty(len(l1)),
                    "n": l1["n"].to_numpy().astype(np.int64),
                    "rev_cents": l1["rc"].to_numpy().astype(np.int64),
                }
            )
        ]
        # level 2: facet.limit=3 per status, facet.sort=count (ties value asc)
        l2 = l2.sort_values(["n", "p"], ascending=[False, True], kind="mergesort")
        l2["rn"] = l2.groupby("s", sort=False).cumcount() + 1
        keep2 = l2[l2["rn"] <= 3]
        rows.append(
            pd.DataFrame(
                {
                    "level": np.full(len(keep2), 2, dtype=np.int64),
                    "o_orderstatus": keep2["s"].to_numpy(),
                    "o_orderpriority": keep2["p"].to_numpy(),
                    "o_year": empty(len(keep2)),
                    "n": keep2["n"].to_numpy().astype(np.int64),
                    "rev_cents": keep2["rc"].to_numpy().astype(np.int64),
                }
            )
        )
        # level 3: only under surviving level-2 parents, facet.limit=2
        l3 = g.merge(keep2[["s", "p"]], on=["s", "p"])
        l3 = l3.sort_values(["n", "y"], ascending=[False, True], kind="mergesort")
        l3["rn"] = l3.groupby(["s", "p"], sort=False).cumcount() + 1
        keep3 = l3[l3["rn"] <= 2]
        rows.append(
            pd.DataFrame(
                {
                    "level": np.full(len(keep3), 3, dtype=np.int64),
                    "o_orderstatus": keep3["s"].to_numpy(),
                    "o_orderpriority": keep3["p"].to_numpy(),
                    "o_year": keep3["y"].to_numpy().astype(np.int64).astype(str).astype(object),
                    "n": keep3["n"].to_numpy().astype(np.int64),
                    "rev_cents": keep3["rc"].to_numpy().astype(np.int64),
                }
            )
        )
        return pd.concat(rows, ignore_index=True)

    return grouped_map(leaf, "s", build_tree)


@q(
    "facet_domain_multiselect",
    """
    WITH types AS (
      SELECT 'types' AS facet, event_type AS bucket, count(*) AS n
      FROM events WHERE value >= 20 GROUP BY event_type
    ),
    users AS (
      SELECT 'users' AS facet, CAST(user_id AS VARCHAR) AS bucket, count(*) AS n
      FROM events
      WHERE value >= 20 AND event_type IN ('click', 'view')
      GROUP BY user_id ORDER BY n DESC, bucket ASC LIMIT 5
    )
    SELECT * FROM types UNION ALL SELECT * FROM users
    """,
)
def facet_domain_multiselect(sf_dir: str):
    """JSON Facet domain changes — multi-select faceting (reference
    solr/core/src/java/org/apache/solr/search/facet/FacetRequest.java
    domain parsing: ``domain:{excludeTags:...}`` re-computes a facet's
    base DocSet without the tagged filters, the classic multi-select UI;
    documented in json-facet-api.adoc). Query: fq tagged ``type`` =
    event_type IN (click, view); fq2 = value >= 20. The ``types`` facet
    excludes the tag (its domain is fq2 only — every type stays visible
    with its would-be count); the ``users`` facet keeps the full domain
    (top-5 by count, ties bucket asc).

    ONE streaming pass computes BOTH domain masks per batch (the domains
    differ only by masks, never by extra scans), emits (facet, bucket)
    partial counts, one groupby sums them, and the per-facet limit runs
    in a grouped_map whose input is already bucket-level (tiny)."""
    from ray.data.aggregate import Sum

    from apache___solr_ray.pipelines.common import combine_partials, grouped_map

    ds = load(sf_dir, "events", columns=["event_type", "user_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        et = df["event_type"].to_numpy()
        fq2 = v >= 20
        tagged = (et == "click") | (et == "view")
        types = (
            pd.DataFrame({"bucket": et[fq2]})
            .groupby("bucket", sort=False)
            .size()
            .reset_index(name="n")
        )
        types.insert(0, "facet", "types")
        full = fq2 & tagged
        users = (
            pd.DataFrame({"bucket": df["user_id"].to_numpy()[full].astype(str)})
            .groupby("bucket", sort=False)
            .size()
            .reset_index(name="n")
        )
        users.insert(0, "facet", "users")
        out = pd.concat([types, users], ignore_index=True)
        out["n"] = out["n"].astype(np.int64)
        return out

    agg = combine_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["facet", "bucket"],
        [Sum("n", alias_name="n")],
        sum_cols=["n"],
    )

    def trim(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "bucket"], ascending=[False, True], kind="mergesort")
        g["rn"] = g.groupby("facet", sort=False).cumcount() + 1
        keep = g[(g["facet"] != "users") | (g["rn"] <= 5)]
        out = keep[["facet", "bucket"]].copy()
        out["n"] = keep["n"].to_numpy().astype(np.int64)
        return out

    return grouped_map(agg, "facet", trim)


@q(
    "facet_uniqueblock_returnflag",
    """
    SELECT l_returnflag AS bucket, count(DISTINCT l_orderkey) AS parents
    FROM lineitem GROUP BY l_returnflag
    """,
)
def facet_uniqueblock_returnflag(sf_dir: str):
    """uniqueBlock aggregate (reference
    solr/core/src/java/org/apache/solr/search/facet/UniqueBlockAgg.java:
    ``uniqueBlock(_root_)`` counts each parent BLOCK once per child facet
    bucket, however many of its children land in the bucket — the cheap
    block-aware form of unique()). Child table = lineitem, bucket =
    l_returnflag, parent = the order block.

    Scale shape: per-batch (bucket, parent) dedup shrinks the stream
    BEFORE the shuffle (a parent's children arrive together in practice —
    exactly the contiguous-block assumption UniqueBlockAgg exploits),
    then ONE (bucket, parent)-hash grouped_map partition finishes the
    dedup and counts parents per bucket with pandas C kernels — the
    repo's measured fast path (Ray's sort-based Aggregate burned ~2,400
    task-CPU-seconds on the same 600k dedup keys; the hash shuffle is
    linear). A tiny groupby sums the per-partition partials. No
    count-distinct sketch, no driver materialization."""
    from ray.data.aggregate import Sum

    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def dedup_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["l_returnflag", "l_orderkey"])

    def count_parents(df: pd.DataFrame) -> pd.DataFrame:
        # every (bucket, parent) key lands whole in this partition
        u = df.drop_duplicates(["l_returnflag", "l_orderkey"])
        g = u.groupby("l_returnflag", sort=False).size().reset_index(name="parents")
        g.columns = ["bucket", "parents"]
        g["parents"] = g["parents"].astype(np.int64)
        return g

    partials = grouped_map(
        ds.map_batches(dedup_partial, batch_format="pandas"),
        ["l_returnflag", "l_orderkey"],
        count_parents,
    )
    return (
        partials.groupby("bucket")
        .aggregate(Sum("parents", alias_name="parents"))
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("parents"),
                "parents",
                t.column("parents").cast(pa.int64()),
            ),
            batch_format="pyarrow",
        )
    )


_DM_NOW = "2024-01-25T13:37:42Z"  # explicit NOW= (SolrRequestInfo.getNOW())


@q(
    "datemath_window_by_type",
    f"""
    SELECT event_type, count(*) AS n,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS cents
    FROM events
    WHERE ts >= date_trunc('day', TIMESTAMP '2024-01-25 13:37:42') - INTERVAL 14 DAY
      AND ts <  date_trunc('day', TIMESTAMP '2024-01-25 13:37:42') + INTERVAL 1 DAY
    GROUP BY event_type
    """,
)
def datemath_window_by_type(sf_dir: str):
    """Date-math range filter (reference
    solr/solrj/src/java/org/apache/solr/util/DateMathParser.java — the
    ``NOW/DAY-14DAYS`` mini-language behind every date range query and
    range-facet gap; NOW is pinned per request, SolrRequestInfo.getNOW()).
    Filter: ``ts:[NOW/DAY-14DAYS TO NOW/DAY+1DAY}`` with NOW =
    2024-01-25T13:37:42Z, then count + exact-cents sum per event_type.
    The date-math resolves ONCE on the driver to concrete microsecond
    bounds; the scan applies them as vectorized Arrow comparisons — the
    oracle mirrors the same math with date_trunc/INTERVAL, so the parser
    semantics (round-then-shift, left to right) are what's checked."""
    from datetime import datetime

    from apache___solr_ray.datemath import parse_date_math
    from apache___solr_ray.pipelines.common import partial_sum_count

    now = datetime.strptime(_DM_NOW, "%Y-%m-%dT%H:%M:%SZ")
    lo = parse_date_math("NOW/DAY-14DAYS", now)
    hi = parse_date_math("NOW/DAY+1DAY", now)

    ds = load(sf_dir, "events", columns=["ts", "event_type", "value"])

    def window(t: pa.Table) -> pa.Table:
        ts = t.column("ts")
        mask = pc.and_(
            pc.greater_equal(ts, pa.scalar(lo, pa.timestamp("us"))),
            pc.less(ts, pa.scalar(hi, pa.timestamp("us"))),
        )
        t = t.filter(mask)
        from apache___solr_ray.pipelines.common import cents

        return pa.table(
            {"event_type": t.column("event_type"), "cents": cents(t.column("value"))}
        )

    return partial_sum_count(
        ds.map_batches(window, batch_format="pyarrow"),
        "event_type",
        [("cents", "cents")],
        count_alias="n",
    )


@q(
    "facet_range_other_value",
    """
    WITH b AS (
      SELECT CAST(CAST(50 + 100 * floor((value - 50) / 100) AS BIGINT) AS VARCHAR) AS bucket,
             count(*) AS n
      FROM events WHERE value >= 50 AND value < 350 GROUP BY 1
    ),
    o AS (
      SELECT 'before' AS bucket, count(*) AS n FROM events WHERE value < 50
      UNION ALL
      SELECT 'after', count(*) FROM events WHERE value >= 350
      UNION ALL
      SELECT 'between', count(*) FROM events WHERE value >= 50 AND value < 350
    )
    SELECT * FROM b UNION ALL SELECT * FROM o
    """,
)
def facet_range_other_value(sf_dir: str):
    """Range facet ``other`` buckets (reference
    solr/core/src/java/org/apache/solr/handler/component/RangeFacetProcessor.java
    + FacetParams.FacetRangeOther: alongside the gap buckets, Solr emits
    ``before`` (< start), ``after`` (>= end) and ``between`` (the whole
    [start,end) span) when facet.range.other asks for them). start=50,
    end=350, gap=100 over events.value; one streaming pass computes all
    six masks per batch (3 gap buckets + 3 other buckets), partial counts,
    one groupby."""
    from ray.data.aggregate import Sum

    ds = load(sf_dir, "events", columns=["value"])

    def partial(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy()
        labels: list[str] = []
        counts: list[int] = []
        inr = (v >= 50) & (v < 350)
        b = 50 + 100 * np.floor((v[inr] - 50) / 100)
        if len(b):
            uniq, cnt = np.unique(b, return_counts=True)
            labels += [str(int(x)) for x in uniq]
            counts += cnt.tolist()
        labels += ["before", "after", "between"]
        counts += [int((v < 50).sum()), int((v >= 350).sum()), int(inr.sum())]
        return pa.table(
            {
                "bucket": pa.array(labels, pa.string()),
                "n": pa.array(np.asarray(counts, dtype=np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("n"), "n", t.column("n").cast(pa.int64())
            ),
            batch_format="pyarrow",
        )
    )


@q(
    "facet_block_children_domain",
    """
    SELECT l.l_returnflag AS bucket, count(*) AS n,
           CAST(sum(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
    FROM lineitem l
    WHERE l.l_orderkey IN (
      SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT'
    )
    GROUP BY l.l_returnflag
    """,
)
def facet_block_children_domain(sf_dir: str):
    """JSON Facet ``domain: {blockChildren: ...}`` (reference
    FacetRequest.java domain parsing + BlockJoin domain changes,
    json-facet-api.adoc 'Block Join Domain Changes'): start from a PARENT
    query (urgent orders), switch the facet domain to those parents'
    CHILD docs, facet the children. Parent keys resolve first (pruned
    orders scan), broadcast ONCE via ray.put, and each lineitem batch
    filters with the C-level ``pc.is_in`` probe (`semi_join_filter`) —
    no shuffle join; the facet is the standard partial+combine count."""
    from apache___solr_ray.pipelines.common import partial_sum_count, semi_join_filter

    parents = (
        load(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
        .map_batches(
            lambda t: t.filter(
                pc.equal(t.column("o_orderpriority"), "1-URGENT")
            ).select(["o_orderkey"]),
            batch_format="pyarrow",
        )
        .to_pandas()["o_orderkey"]
        .to_numpy()
    )
    children = semi_join_filter(
        load(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag", "l_quantity"]),
        "l_orderkey",
        parents.tolist(),
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": t.column("l_returnflag"),
                "qty": t.column("l_quantity").cast(pa.int64()),
            }
        )

    return partial_sum_count(
        children.map_batches(prep, batch_format="pyarrow"),
        "bucket",
        [("qty", "sum_qty")],
        count_alias="n",
    )


@q(
    "facet_range_date_monthly",
    """
    SELECT CAST(date_trunc('month', o_orderdate) AS TIMESTAMP) AS bucket,
           count(*) AS n
    FROM orders
    WHERE o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate <  TIMESTAMP '1997-01-01'
    GROUP BY 1
    """,
)
def facet_range_date_monthly(sf_dir: str):
    """Date range facet with a date-math gap (reference
    RangeFacetProcessor + FacetRangeGenerator: ``facet.range.gap=+1MONTH``
    strings are evaluated by DateMathParser per bucket edge, which is how
    Solr gets true calendar months rather than fixed 30-day windows).
    start=1996-01-01, end=1997-01-01, gap=+1MONTH: the 13 bucket EDGES
    are produced by iterating ``parse_date_math('NOW+1MONTH')`` from the
    start anchor — resolved ONCE on the driver — then every batch buckets
    its rows with one vectorized ``np.searchsorted`` against the edge
    array. Counts flow through the standard partial+combine path."""
    from datetime import datetime

    from apache___solr_ray.datemath import parse_date_math
    from apache___solr_ray.pipelines.common import partial_sum_count

    start = datetime(1996, 1, 1)
    end = datetime(1997, 1, 1)
    edges = [start]
    while edges[-1] < end:
        edges.append(parse_date_math("NOW+1MONTH", edges[-1]))
    edges_np = np.array(edges, dtype="datetime64[us]")

    ds = load(sf_dir, "orders", columns=["o_orderdate"])

    def bucket(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").to_numpy()
        m = (d >= edges_np[0]) & (d < edges_np[-1])
        d = d[m]
        idx = np.searchsorted(edges_np, d, side="right") - 1
        return pa.table({"bucket": pa.array(edges_np[idx])})

    return partial_sum_count(
        ds.map_batches(bucket, batch_format="pyarrow"), "bucket", [], count_alias="n"
    )


@q(
    "facet_field_index_page",
    """
    WITH f AS (
      SELECT CAST(user_id AS VARCHAR) AS bucket, count(*) AS n
      FROM events WHERE value >= 100 GROUP BY user_id HAVING count(*) >= 2
    )
    SELECT bucket, n FROM f ORDER BY bucket ASC LIMIT 5 OFFSET 3
    """,
)
def facet_field_index_page(sf_dir: str):
    """Classic facet paging params (reference SimpleFacets.java /
    FacetParams: ``facet.sort=index`` — lexicographic bucket order —
    with ``facet.offset``/``facet.limit`` pages and ``facet.mincount``
    pruning). Domain value>=100, facet user_id, mincount=2, page
    offset=3 limit=5 in index order. Partial counts + one combine; the
    page slice runs on the bucket-level result via distributed
    sort+limit(offset+limit) — never a full materialization."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("value"), 100.0))
        return pa.table(
            {"bucket": pc.cast(t.column("user_id"), pa.string())}
        )

    agg = partial_sum_count(
        ds.map_batches(prep, batch_format="pyarrow"), "bucket", [], count_alias="n"
    )
    paged = (
        agg.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("n"), 2)),
            batch_format="pyarrow",
        )
        .sort("bucket")
        .limit(3 + 5)
    )
    tbl = pa.Table.from_pandas(paged.to_pandas(), preserve_index=False)
    page = tbl.slice(3, 5)
    return pa.table(
        {
            "bucket": page.column("bucket"),
            "n": page.column("n").cast(pa.int64()),
        }
    )


@q(
    "fl_pseudo_fields_orders",
    """
    SELECT o_orderkey AS id,
           CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
           CAST(year(o_orderdate) AS BIGINT) AS o_year,
           o_orderpriority AS pri
    FROM orders WHERE o_orderstatus = 'F' AND o_totalprice >= 300000
    """,
)
def fl_pseudo_fields_orders(sf_dir: str):
    """``fl`` pseudo-fields (reference: field aliasing ``fl=id:o_orderkey``
    and function pseudo-fields ``fl=price:mul(o_totalprice,100)`` resolved
    by ReturnFields.java + the ValueSource DocTransformer chain,
    common-query-parameters.adoc#fl): aliased columns and computed
    columns projected in ONE vectorized pass over the pruned scan — the
    engine's select+compute shape, no shuffle at all."""
    ds = load(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_totalprice", "o_orderdate", "o_orderstatus", "o_orderpriority"],
    )

    def project(t: pa.Table) -> pa.Table:
        from apache___solr_ray.pipelines.common import cents

        m = pc.and_(
            pc.equal(t.column("o_orderstatus"), "F"),
            pc.greater_equal(t.column("o_totalprice"), 300000.0),
        )
        t = t.filter(m)
        return pa.table(
            {
                "id": t.column("o_orderkey"),
                "price_cents": cents(t.column("o_totalprice")),
                "o_year": pc.cast(pc.year(t.column("o_orderdate")), pa.int64()),
                "pri": t.column("o_orderpriority"),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


@q(
    "group_ngroups_matches",
    """
    SELECT count(*) AS matches,
           count(DISTINCT user_id) AS ngroups
    FROM events WHERE value >= 200
    """,
)
def group_ngroups_matches(sf_dir: str):
    """Grouping header numbers (reference Grouping.java: with
    ``group.ngroups=true`` the response carries ``matches`` — total docs
    in the domain — and ``ngroups`` — number of distinct groups; the
    ngroups count is exactly the AllGroupsCollector). matches is a
    partial+sum count; ngroups is the two-level distinct (per-batch dedup
    partial, one groupby over the shrunk pair stream) — never a global
    sort, never a driver materialization of the group keys."""
    from ray.data.aggregate import Count

    ds = load(sf_dir, "events", columns=["user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("value"), 200.0)).select(
            ["user_id"]
        )

    dom = ds.map_batches(prep, batch_format="pyarrow")
    matches = dom.count()

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["user_id"])

    ngroups = (
        dom.map_batches(dedup, batch_format="pandas")
        .groupby("user_id")
        .aggregate(Count(alias_name="c"))
        .count()
    )
    return pa.table(
        {
            "matches": pa.array([matches], pa.int64()),
            "ngroups": pa.array([ngroups], pa.int64()),
        }
    )


@q(
    "child_transformer_docs",
    """
    SELECT l.l_orderkey AS o_orderkey, l.l_linenumber,
           CAST(l.l_quantity AS BIGINT) AS qty
    FROM lineitem l
    WHERE l.l_orderkey IN (
      SELECT l_orderkey FROM lineitem GROUP BY l_orderkey
      HAVING max(l_quantity) >= 50
    )
    """,
)
def child_transformer_docs(sf_dir: str):
    """[child] doc transformer (reference
    solr/core/src/java/org/apache/solr/response/transform/ChildDocTransformerFactory.java:
    ``fl=*,[child]`` re-attaches ALL child documents of every matched
    parent from the block structure). Parents matched by a child
    predicate (any item with qty >= 50), then every child of the
    surviving parents is emitted. One (parent)-hash grouped_map: each
    block lands whole, the parent predicate is a vectorized per-block
    max, children of passing blocks are emitted as-is — the nesting IS
    the co-location, no join."""
    from apache___solr_ray.pipelines.common import grouped_map

    ds = load(
        sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_quantity"]
    )

    def emit_children(df: pd.DataFrame) -> pd.DataFrame:
        mx = df.groupby("l_orderkey", sort=False)["l_quantity"].transform("max")
        keep = df[mx >= 50]
        return pd.DataFrame(
            {
                "o_orderkey": keep["l_orderkey"].to_numpy(),
                "l_linenumber": keep["l_linenumber"].to_numpy(),
                "qty": keep["l_quantity"].to_numpy().astype(np.int64),
            }
        )

    return grouped_map(ds, "l_orderkey", emit_children)


_EVENT_SEVERITY = ["purchase", "signup", "click", "view", "error"]  # enum order


@q(
    "enum_severity_sorted_counts",
    """
    SELECT event_type, count(*) AS n,
           CAST(CASE event_type
             WHEN 'purchase' THEN 0 WHEN 'signup' THEN 1 WHEN 'click' THEN 2
             WHEN 'view' THEN 3 WHEN 'error' THEN 4 ELSE 99 END AS BIGINT)
             AS severity_ord
    FROM events GROUP BY event_type
    ORDER BY severity_ord
    """,
)
def enum_severity_sorted_counts(sf_dir: str):
    """EnumFieldType (reference
    solr/core/src/java/org/apache/solr/schema/EnumFieldType.java: string
    values sort/range by their POSITION in the enumsConfig xml, not
    lexicographically — 'view' < 'error' here because the config says
    so). The enum table broadcasts as a tiny dict; each batch attaches
    the ordinal vectorized (pandas categorical codes); counts flow
    partial+combine and the final order is the ENUM order."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["event_type"])
    ordmap = {v: i for i, v in enumerate(_EVENT_SEVERITY)}

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy()})
        out["severity_ord"] = (
            out["event_type"].map(ordmap).fillna(99).astype(np.int64)
        )
        return out

    agg = partial_sum_count(
        ds.map_batches(attach, batch_format="pandas"),
        ["event_type", "severity_ord"],
        [],
        count_alias="n",
    )
    return agg.sort("severity_ord").map_batches(
        lambda t: t.select(["event_type", "n", "severity_ord"]),
        batch_format="pyarrow",
    )


_FX_RATES = {"USD": 1.0, "EUR": 0.92, "JPY": 149.5}  # currency.xml analog


@q(
    "currency_converted_orders",
    """
    SELECT o_orderpriority,
           count(*) AS n,
           CAST(sum(CAST(floor(o_totalprice * 0.92 * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS eur_cents
    FROM orders
    WHERE o_totalprice * 0.92 >= 250000.0
    GROUP BY o_orderpriority
    """,
)
def currency_converted_orders(sf_dir: str):
    """CurrencyFieldType (reference
    solr/core/src/java/org/apache/solr/schema/CurrencyFieldType.java +
    ExchangeRateProvider / FileExchangeRateProvider reading currency.xml:
    monetary values stored in a base currency, converted through the rate
    table at query time so range filters run in the REQUESTED currency).
    Orders priced in USD, filtered and aggregated in EUR through the
    broadcast rate table; sums as exact integer cents after conversion
    (same discipline as every money column here)."""
    from apache___solr_ray.pipelines.common import partial_sum_count

    rate = _FX_RATES["EUR"]
    ds = load(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def convert(t: pa.Table) -> pa.Table:
        eur = pc.multiply(t.column("o_totalprice"), rate)
        t = t.append_column("eur", eur).filter(
            pc.greater_equal(eur, 250000.0)
        )
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(t.column("eur"), 100.0), 0.5)), pa.int64()
        )
        return pa.table(
            {
                "o_orderpriority": t.column("o_orderpriority"),
                "eur_cents": cents,
            }
        )

    return partial_sum_count(
        ds.map_batches(convert, batch_format="pyarrow"),
        "o_orderpriority",
        [("eur_cents", "eur_cents")],
        count_alias="n",
    )


@q(
    "func_scale_value_hist",
    """
    WITH mm AS (SELECT min(value) AS mn, max(value) AS mx FROM events),
    sc AS (SELECT CAST(least(floor(((value - mn) / (mx - mn)) * 10), 9) AS BIGINT)
             AS bin
           FROM events CROSS JOIN mm)
    SELECT bin, count(*) AS n FROM sc GROUP BY bin
    """,
)
def func_scale_value_hist(sf_dir: str):
    """scale() function query (reference ScaleFloatFunction — Lucene
    ValueSource ``scale(field,min,max)``: min-max scale a field to a
    target range; inherently TWO passes because the global extremes must
    be known before any row can be scaled). Pass 1: min/max via the
    metadata-cheap distributed aggregate (per-batch partials, one tiny
    combine). Pass 2: broadcast the two scalars, scale every row
    vectorized and histogram into 10 bins (the top bin closed, matching
    SQL's least(...,9)). Counts partial+combine as usual."""
    from ray.data.aggregate import Max, Min

    from apache___solr_ray.pipelines.common import partial_sum_count

    ds = load(sf_dir, "events", columns=["value"])
    mm = ds.aggregate(Min("value"), Max("value"))
    mn, mx = float(mm["min(value)"]), float(mm["max(value)"])

    def bin_scale(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy()
        scaled = (v - mn) / (mx - mn)
        bins = np.minimum(np.floor(scaled * 10), 9).astype(np.int64)
        return pa.table({"bin": pa.array(bins, pa.int64())})

    return partial_sum_count(
        ds.map_batches(bin_scale, batch_format="pyarrow"), "bin", [], count_alias="n"
    )


@q(
    "terms_qparser_filter",
    """
    SELECT event_type, count(*) AS n
    FROM events
    WHERE user_id % 7 = 3 AND user_id < 3500
    GROUP BY event_type
    """,
)
def terms_qparser_filter(sf_dir: str):
    """{!terms} query parser (reference
    solr/core/src/java/org/apache/solr/search/TermsQParserPlugin.java:
    filter by an EXPLICIT possibly-huge value list — the documented
    replacement for a 500-clause boolean OR, with method=termsFilter /
    docValuesTermsFilter picking the evaluation strategy). The id list
    here is the ~500 deterministic keys ``{u : u%7==3, u<3500}``,
    materialized as an explicit list exactly as a client would POST it,
    ``ray.put`` once, and evaluated per batch with the C-level
    ``pc.is_in`` probe (the docValuesTermsFilter strategy); counts
    partial+combine."""
    from apache___solr_ray.pipelines.common import partial_sum_count, semi_join_filter

    id_list = [u for u in range(3500) if u % 7 == 3]  # the client's explicit list
    ds = semi_join_filter(
        load(sf_dir, "events", columns=["user_id", "event_type"]),
        "user_id",
        id_list,
    )
    return partial_sum_count(
        ds.map_batches(lambda t: t.select(["event_type"]), batch_format="pyarrow"),
        "event_type",
        [],
        count_alias="n",
    )
