"""Streaming-expression catalog entries — the solrj-streaming DSL text is
the engine input (parsed + compiled by ``apache___solr_ray.streamexpr``,
the StreamExpressionParser/StreamFactory analog); the DuckDB oracle is the
hand-written SQL equivalent, so the gate checks the whole front-end:
parse → decorator compile → Ray Data execution.

Aggregate output columns use the reference's metric identifiers
(``count(*)``, ``sum(user_id)`` — RollupStream names its metrics exactly
this way), quoted in the oracle SQL so names match byte-for-byte.
"""

from __future__ import annotations

from apache___solr_ray.streamexpr import stream_expr

QUERIES: dict = {}
ORACLE: dict = {}


def _expr(name: str, expression: str, sql: str) -> None:
    def fn(sf_dir: str, _e=expression):
        return stream_expr(sf_dir, _e)

    fn.__name__ = name
    fn.__doc__ = f"streaming expression; compiled by streamexpr.py:\n{expression}"
    QUERIES[name] = fn
    ORACLE[name] = sql


_expr(
    "stream_rollup_expr",
    """rollup(search(events, q="*:*", fl="event_type,user_id,value"),
              over="event_type", count(*), sum(user_id), min(value), max(value))""",
    """
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS "count(*)",
           CAST(sum(user_id) AS BIGINT) AS "sum(user_id)",
           min(value) AS "min(value)",
           max(value) AS "max(value)"
    FROM events GROUP BY event_type
    """,
)

_expr(
    "stream_join_select_expr",
    """select(innerJoin(search(customer, q="*:*", fl="c_custkey,c_name"),
                        search(orders, q="o_orderstatus:F", fl="o_orderkey,o_custkey,o_totalprice"),
                        on="c_custkey=o_custkey"),
              "c_custkey", "c_name", "o_totalprice as price")""",
    """
    SELECT c_custkey, c_name, o_totalprice AS price
    FROM customer JOIN orders ON c_custkey = o_custkey
    WHERE o_orderstatus = 'F'
    """,
)

_expr(
    "stream_unique_top_expr",
    """top(unique(search(events, q="event_type:click", fl="user_id,event_id,value",
                         sort="event_id asc"),
                  over="user_id"),
           n=15, sort="value desc, user_id asc")""",
    """
    SELECT user_id, event_id, value FROM (
      SELECT user_id, event_id, value,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id ASC) AS rn
      FROM events WHERE event_type = 'click'
    ) WHERE rn = 1
    ORDER BY value DESC, user_id ASC LIMIT 15
    """,
)

_expr(
    "stream_fetch_merge_expr",
    """sort(merge(fetch(customer,
                        search(orders, q="o_orderstatus:F", fl="o_orderkey,o_custkey"),
                        on="o_custkey=c_custkey", fl="c_name"),
                  fetch(customer,
                        search(orders, q="o_orderstatus:P", fl="o_orderkey,o_custkey"),
                        on="o_custkey=c_custkey", fl="c_name"),
                  on="o_orderkey asc"),
            by="o_orderkey asc")""",
    """
    SELECT o_orderkey, o_custkey, c_name
    FROM orders LEFT JOIN customer ON o_custkey = c_custkey
    WHERE o_orderstatus IN ('F', 'P')
    ORDER BY o_orderkey
    """,
)

_expr(
    "stream_complement_expr",
    """complement(search(events, q="event_type:view", fl="event_id,user_id"),
                  search(events, q="value:[300 TO *]", fl="user_id"),
                  on="user_id")""",
    """
    SELECT event_id, user_id FROM events v
    WHERE v.event_type = 'view'
      AND NOT EXISTS (SELECT 1 FROM events p
                      WHERE p.value >= 300 AND p.user_id = v.user_id)
    """,
)

_expr(
    "stream_select_compute_expr",
    """top(select(search(lineitem, q="*:*", fl="l_orderkey,l_linenumber,l_extendedprice,l_discount"),
                  "l_orderkey", "l_linenumber",
                  "mul(l_extendedprice, sub(1, l_discount)) as net"),
           n=12, sort="net desc, l_orderkey asc, l_linenumber asc")""",
    """
    SELECT l_orderkey, l_linenumber, l_extendedprice * (1 - l_discount) AS net
    FROM lineitem
    ORDER BY net DESC, l_orderkey ASC, l_linenumber ASC LIMIT 12
    """,
)

_expr(
    "stream_facet_expr",
    """facet(events, q="*:*", buckets="event_type",
             bucketSorts="count(*) desc, event_type asc", bucketSizeLimit=3,
             count(*), sum(user_id))""",
    """
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS "count(*)",
           CAST(sum(user_id) AS BIGINT) AS "sum(user_id)"
    FROM events GROUP BY event_type
    ORDER BY count(*) DESC, event_type ASC LIMIT 3
    """,
)

_expr(
    "stream_stats_expr",
    """stats(events, q="event_type:click", count(*), min(value), max(value), sum(user_id))""",
    """
    SELECT CAST(count(*) AS BIGINT) AS "count(*)",
           min(value) AS "min(value)",
           max(value) AS "max(value)",
           CAST(sum(user_id) AS BIGINT) AS "sum(user_id)"
    FROM events WHERE event_type = 'click'
    """,
)

_expr(
    "stream_timeseries_expr",
    """timeseries(events, q="*:*", field="ts", gap="+1DAY",
                  count(*), sum(user_id))""",
    """
    SELECT date_trunc('day', ts) AS ts,
           CAST(count(*) AS BIGINT) AS "count(*)",
           CAST(sum(user_id) AS BIGINT) AS "sum(user_id)"
    FROM events GROUP BY date_trunc('day', ts)
    ORDER BY ts
    """,
)

_expr(
    "stream_having_expr",
    """having(rollup(search(events, q="*:*", fl="user_id,value"),
                     over="user_id", count(*)),
              gt(count(*), 30))""",
    """
    SELECT user_id, CAST(count(*) AS BIGINT) AS "count(*)"
    FROM events GROUP BY user_id HAVING count(*) > 30
    """,
)

_expr(
    "stream_cartesian_expr",
    """cartesianProduct(search(embeddings, q="*:*", fl="vec_id,embedding"),
                        "embedding as v")""",
    """
    SELECT vec_id, UNNEST(embedding) AS v FROM embeddings
    """,
)

_expr(
    "stream_parallel_rollup_expr",
    """parallel(rollup(search(events, q="*:*", fl="event_type,user_id"),
                       over="event_type", count(*), sum(user_id)),
                workers=4, sort="event_type asc")""",
    """
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS "count(*)",
           CAST(sum(user_id) AS BIGINT) AS "sum(user_id)"
    FROM events GROUP BY event_type ORDER BY event_type
    """,
)

_expr(
    "stream_let_corr_expr",
    """let(a=col(search(events, q="*:*", fl="event_id,value", sort="event_id asc"), "value"),
           b=col(search(events, q="*:*", fl="event_id,user_id", sort="event_id asc"), "user_id"),
           round(corr(a, b), 6))""",
    """
    SELECT floor(corr(value, user_id) * 1000000 + 0.5) / 1000000 AS result
    FROM events
    """,
)

_expr(
    "stream_let_regress_expr",
    """let(a=col(search(events, q="*:*", fl="event_id,value", sort="event_id asc"), "value"),
           b=col(search(events, q="*:*", fl="event_id,user_id", sort="event_id asc"), "user_id"),
           precision(regress(a, b), 6))""",
    """
    SELECT floor(regr_slope(user_id, value)     * 1000000 + 0.5) / 1000000 AS slope,
           floor(regr_intercept(user_id, value) * 1000000 + 0.5) / 1000000 AS intercept,
           floor(regr_r2(user_id, value)        * 1000000 + 0.5) / 1000000 AS rsquared
    FROM events
    """,
)

_expr(
    "stream_let_movingavg_expr",
    """let(a=col(search(events, q="event_type:click", fl="event_id,value",
                        sort="event_id asc"), "value"),
           precision(movingAvg(a, 7), 6))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'click'),
         w AS (SELECT rn, avg(value) OVER (ORDER BY rn
                       ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS mv
               FROM s)
    SELECT CAST(rn - 7 AS BIGINT) AS i,
           floor(mv * 1000000 + 0.5) / 1000000 AS value
    FROM w WHERE rn >= 7
    """,
)

_expr(
    "stream_let_describe_expr",
    """let(a=col(search(events, q="*:*", fl="value"), "value"),
           precision(describe(a), 4))""",
    """
    SELECT CAST(count(*) AS DOUBLE) AS n,
           floor(avg(value)    * 10000 + 0.5) / 10000 AS mean,
           floor(min(value)    * 10000 + 0.5) / 10000 AS min,
           floor(max(value)    * 10000 + 0.5) / 10000 AS max,
           floor(stddev(value) * 10000 + 0.5) / 10000 AS stddev
    FROM events
    """,
)

_expr(
    "stream_let_percentile_expr",
    """let(a=col(search(events, q="*:*", fl="value"), "value"),
           precision(percentile(a, 90), 4))""",
    """
    SELECT floor(quantile_cont(value, 0.90) * 10000 + 0.5) / 10000 AS result
    FROM events
    """,
)

_expr(
    "stream_let_predict_expr",
    """let(a=col(search(events, q="*:*", fl="event_id,value", sort="event_id asc"), "value"),
           b=col(search(events, q="*:*", fl="event_id,user_id", sort="event_id asc"), "user_id"),
           m=regress(a, b),
           precision(predict(m, a), 4))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) - 1 AS i FROM events),
         m AS (SELECT regr_slope(user_id, value) AS sl, regr_intercept(user_id, value) AS ic FROM events)
    SELECT CAST(s.i AS BIGINT) AS i,
           floor((m.sl * s.value + m.ic) * 10000 + 0.5) / 10000 AS value
    FROM s CROSS JOIN m
    """,
)

_expr(
    "stream_let_zscores_expr",
    """let(a=col(search(events, q="*:*", fl="event_id,value", sort="event_id asc"), "value"),
           precision(zscores(a), 4))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) - 1 AS i FROM events),
         m AS (SELECT avg(value) AS mu, stddev(value) AS sd FROM events)
    SELECT CAST(s.i AS BIGINT) AS i,
           floor((s.value - m.mu) / m.sd * 10000 + 0.5) / 10000 AS value
    FROM s CROSS JOIN m
    """,
)

_expr(
    "stream_let_hist_expr",
    """let(a=col(search(events, q="*:*", fl="value"), "value"),
           precision(hist(a, 8), 6))""",
    """
    WITH mm AS (SELECT min(value) AS lo, max(value) AS hi FROM events),
         b AS (SELECT LEAST(CAST(floor((value - mm.lo) / ((mm.hi - mm.lo) / 8.0)) AS BIGINT), 7) AS bin
               FROM events CROSS JOIN mm),
         counts AS (SELECT bin, CAST(count(*) AS DOUBLE) AS n FROM b GROUP BY bin)
    SELECT CAST(i AS DOUBLE) AS bin,
           floor((mm.lo + i * (mm.hi - mm.lo) / 8.0) * 1000000 + 0.5) / 1000000 AS lo,
           floor((mm.lo + (i + 1) * (mm.hi - mm.lo) / 8.0) * 1000000 + 0.5) / 1000000 AS hi,
           COALESCE(counts.n, 0) AS n
    FROM range(8) t(i) CROSS JOIN mm LEFT JOIN counts ON counts.bin = i
    ORDER BY i
    """,
)

_expr(
    "stream_let_ttest_expr",
    """let(a=col(search(events, q="event_type:click", fl="value"), "value"),
           b=col(search(events, q="event_type:view", fl="value"), "value"),
           precision(ttest(a, b), 6))""",
    """
    WITH g1 AS (SELECT avg(value) m, var_samp(value) v, count(*) n FROM events WHERE event_type = 'click'),
         g2 AS (SELECT avg(value) m, var_samp(value) v, count(*) n FROM events WHERE event_type = 'view')
    SELECT floor((g1.m - g2.m) / sqrt(g1.v/g1.n + g2.v/g2.n) * 1000000 + 0.5) / 1000000 AS t,
           floor(pow(g1.v/g1.n + g2.v/g2.n, 2)
                 / (pow(g1.v/g1.n, 2)/(g1.n - 1) + pow(g2.v/g2.n, 2)/(g2.n - 1))
                 * 1000000 + 0.5) / 1000000 AS df
    FROM g1 CROSS JOIN g2
    """,
)

_expr(
    "stream_let_diff_expr",
    """let(a=col(search(events, q="event_type:click", fl="event_id,value",
                        sort="event_id asc"), "value"),
           precision(diff(a), 6))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'click')
    SELECT CAST(rn - 2 AS BIGINT) AS i,
           floor((value - lag(value) OVER (ORDER BY rn)) * 1000000 + 0.5) / 1000000 AS value
    FROM s QUALIFY rn >= 2
    """,
)

_expr(
    "stream_let_cumsum_expr",
    """let(a=col(search(events, q="event_type:error", fl="event_id,value",
                        sort="event_id asc"), "value"),
           precision(cumulativeSum(a), 4))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'error')
    SELECT CAST(rn - 1 AS BIGINT) AS i,
           floor(sum(value) OVER (ORDER BY rn) * 10000 + 0.5) / 10000 AS value
    FROM s
    """,
)

_expr(
    "stream_let_movingmedian_expr",
    """let(a=col(search(events, q="event_type:view", fl="event_id,value",
                        sort="event_id asc"), "value"),
           precision(movingMedian(a, 7), 6))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'view'),
         w AS (SELECT rn, median(value) OVER (ORDER BY rn
                      ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS mv
               FROM s)
    SELECT CAST(rn - 7 AS BIGINT) AS i,
           floor(mv * 1000000 + 0.5) / 1000000 AS value
    FROM w WHERE rn >= 7
    """,
)

_expr(
    "stream_let_cov_expr",
    """let(a=col(search(events, q="*:*", fl="event_id,value", sort="event_id asc"), "value"),
           b=col(search(events, q="*:*", fl="event_id,user_id", sort="event_id asc"), "user_id"),
           round(cov(a, b), 6))""",
    """
    SELECT floor(covar_samp(value, user_id) * 1000000 + 0.5) / 1000000 AS result
    FROM events
    """,
)

# --- round-5 math-evaluator entries (io/eval expansion: rank, anova,
# --- mannWhitney, ks, freqTable, minMaxScale, movingMAD, geometric/harmonic
# --- means, getValue, distributions, matrices) ------------------------------

_expr(
    "stream_let_geomean_expr",
    """let(a=col(search(events, q="value:[1 TO *]", fl="value"), "value"),
           precision(geometricMean(a), 6))""",
    """
    SELECT floor(exp(avg(ln(value))) * 1000000 + 0.5) / 1000000 AS result
    FROM events WHERE value >= 1
    """,
)

_expr(
    "stream_let_harmmean_expr",
    """let(a=col(search(events, q="value:[1 TO *]", fl="value"), "value"),
           precision(harmonicMean(a), 6))""",
    """
    SELECT floor(count(*) / sum(1.0 / value) * 1000000 + 0.5) / 1000000 AS result
    FROM events WHERE value >= 1
    """,
)

_expr(
    "stream_let_rank_expr",
    """let(a=col(search(events, q="event_type:click", fl="event_id,value",
                        sort="event_id asc"), "value"),
           rank(a))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'click'),
         r AS (SELECT rn, avg(rk) OVER (PARTITION BY value) AS fr
               FROM (SELECT rn, value, row_number() OVER (ORDER BY value) AS rk FROM s) t)
    SELECT CAST(rn - 1 AS BIGINT) AS i, fr AS value FROM r ORDER BY rn
    """,
)

_expr(
    "stream_let_anova_f_expr",
    """let(a=col(search(events, q="event_type:click", fl="value"), "value"),
           b=col(search(events, q="event_type:view", fl="value"), "value"),
           c=col(search(events, q="event_type:error", fl="value"), "value"),
           precision(getValue(anova(a, b, c), "f"), 6))""",
    """
    WITH g AS (SELECT event_type, count(*) AS n, avg(value) AS m,
                      sum(value * value) AS ss
               FROM events WHERE event_type IN ('click', 'view', 'error')
               GROUP BY event_type),
         tot AS (SELECT sum(n) AS n, sum(n * m) / sum(n) AS gm FROM g),
         parts AS (SELECT sum(g.n * (g.m - tot.gm) * (g.m - tot.gm)) AS ssb,
                          sum(g.ss - g.n * g.m * g.m) AS ssw,
                          max(tot.n) AS n
                   FROM g CROSS JOIN tot)
    SELECT floor((ssb / 2.0) / (ssw / (n - 3)) * 1000000 + 0.5) / 1000000 AS result
    FROM parts
    """,
)

_expr(
    "stream_let_mwu_expr",
    """let(a=col(search(events, q="event_type:click", fl="value"), "value"),
           b=col(search(events, q="event_type:view", fl="value"), "value"),
           precision(getValue(mannWhitney(a, b), "u1"), 4))""",
    """
    WITH u AS (SELECT value, event_type FROM events
               WHERE event_type IN ('click', 'view')),
         rk AS (SELECT event_type, avg(rn) OVER (PARTITION BY value) AS fr
                FROM (SELECT event_type, value,
                             row_number() OVER (ORDER BY value) AS rn FROM u) t),
         agg AS (SELECT sum(CASE WHEN event_type = 'click' THEN fr END) AS r1,
                        sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS n1
                 FROM rk)
    SELECT floor((r1 - n1 * (n1 + 1) / 2.0) * 10000 + 0.5) / 10000 AS result FROM agg
    """,
)

_expr(
    "stream_let_ks_d_expr",
    """let(a=col(search(events, q="event_type:click", fl="value"), "value"),
           b=col(search(events, q="event_type:view", fl="value"), "value"),
           precision(getValue(ks(a, b), "d"), 8))""",
    """
    WITH u AS (SELECT value,
                      CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS ia,
                      CASE WHEN event_type = 'view' THEN 1 ELSE 0 END AS ib
               FROM events WHERE event_type IN ('click', 'view')),
         n AS (SELECT sum(ia) AS na, sum(ib) AS nb FROM u),
         s AS (SELECT sum(ia) OVER (ORDER BY value) AS ca,
                      sum(ib) OVER (ORDER BY value) AS cb
               FROM u)
    SELECT floor(max(abs(ca * 1.0 / n.na - cb * 1.0 / n.nb)) * 100000000 + 0.5)
           / 100000000 AS result
    FROM s CROSS JOIN n
    """,
)

_expr(
    "stream_let_movingmad_expr",
    """let(a=col(search(events, q="event_type:view", fl="event_id,value",
                        sort="event_id asc"), "value"),
           precision(movingMAD(a, 7), 6))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'view'),
         med AS (SELECT a.rn AS rn, median(b.value) AS m
                 FROM s a JOIN s b ON b.rn BETWEEN a.rn - 6 AND a.rn
                 WHERE a.rn >= 7 GROUP BY a.rn),
         mad AS (SELECT a.rn AS rn, median(abs(b.value - med.m)) AS md
                 FROM s a JOIN s b ON b.rn BETWEEN a.rn - 6 AND a.rn
                 JOIN med ON med.rn = a.rn GROUP BY a.rn)
    SELECT CAST(rn - 7 AS BIGINT) AS i,
           floor(md * 1000000 + 0.5) / 1000000 AS value
    FROM mad ORDER BY rn
    """,
)

_expr(
    "stream_let_minmaxscale_expr",
    """let(a=col(search(events, q="event_type:error", fl="event_id,value",
                        sort="event_id asc"), "value"),
           precision(minMaxScale(a), 6))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'error'),
         mm AS (SELECT min(value) AS lo, max(value) AS hi FROM s)
    SELECT CAST(rn - 1 AS BIGINT) AS i,
           floor((value - lo) / (hi - lo) * 1000000 + 0.5) / 1000000 AS value
    FROM s CROSS JOIN mm ORDER BY rn
    """,
)

_expr(
    "stream_let_l1norm_expr",
    """let(a=col(search(events, q="*:*", fl="value"), "value"),
           precision(div(l1norm(a), length(a)), 6))""",
    """
    SELECT floor(avg(abs(value)) * 1000000 + 0.5) / 1000000 AS result FROM events
    """,
)

_expr(
    "stream_let_freqtable_expr",
    """let(a=col(search(events, q="event_type:error", fl="user_id"), "user_id"),
           precision(freqTable(a), 6))""",
    """
    WITH n AS (SELECT count(*) AS total FROM events WHERE event_type = 'error')
    SELECT CAST(user_id AS DOUBLE) AS value,
           CAST(count(*) AS DOUBLE) AS count,
           floor(count(*) * 1.0 / n.total * 1000000 + 0.5) / 1000000 AS pct
    FROM events CROSS JOIN n WHERE event_type = 'error'
    GROUP BY user_id, n.total ORDER BY user_id
    """,
)

_expr(
    "stream_let_binom_cdf_expr",
    """let(precision(cumulativeProbability(binomialDistribution(20, 0.25), 7), 8))""",
    """
    SELECT floor(sum(factorial(20::INTEGER)
                     / (factorial(k::INTEGER) * factorial((20 - k)::INTEGER))
                     * pow(0.25, k) * pow(0.75, 20 - k)) * 100000000 + 0.5)
           / 100000000 AS result
    FROM range(8) t(k)
    """,
)

_expr(
    "stream_let_matrix_expr",
    """let(m=matrix(array(1, 2, 3), array(4, 5, 6)),
           rowAt(matrixMult(m, transpose(m)), 0))""",
    """
    SELECT CAST(i AS BIGINT) AS i, v AS value
    FROM (VALUES (0, 14.0), (1, 32.0)) t(i, v) ORDER BY i
    """,
)

# --- round-5 decorator-surface entries (ListStream, NullStream, TupStream,
# --- RandomStream, UpdateStream/CommitStream, GatherNodesStream, KnnStream,
# --- EchoStream) -------------------------------------------------------------

_expr(
    "stream_list_expr",
    """list(search(events, q="event_type:click", fl="event_id,user_id"),
            search(events, q="event_type:error", fl="event_id,user_id"))""",
    """
    SELECT event_id, user_id FROM events WHERE event_type = 'click'
    UNION ALL
    SELECT event_id, user_id FROM events WHERE event_type = 'error'
    """,
)

_expr(
    "stream_null_expr",
    """null(search(events, q="value:[100 TO 300]", fl="event_id"))""",
    """
    SELECT CAST(count(*) AS DOUBLE) AS nullCount
    FROM events WHERE value BETWEEN 100 AND 300
    """,
)

_expr(
    "stream_echo_expr",
    """echo("hello world")""",
    """SELECT 'hello world' AS echo""",
)

_expr(
    "stream_tuple_let_expr",
    """let(a=col(search(events, q="event_type:purchase", fl="value"), "value"),
           tuple(n=length(a), mu=precision(mean(a), 6), sd=precision(stddev(a), 6)))""",
    """
    SELECT CAST(count(*) AS DOUBLE) AS n,
           floor(avg(value) * 1000000 + 0.5) / 1000000 AS mu,
           floor(stddev_samp(value) * 1000000 + 0.5) / 1000000 AS sd
    FROM events WHERE event_type = 'purchase'
    """,
)

_expr(
    "stream_random_expr",
    """random(events, q="event_type:view", fl="event_id,value", rows=25,
              key="event_id")""",
    """
    SELECT event_id, value FROM events WHERE event_type = 'view'
    ORDER BY ((event_id % 1000003) * 2654435761 + 12345) % 1000000007, event_id
    LIMIT 25
    """,
)

_expr(
    "stream_update_commit_expr",
    """commit(streamdest1, update(streamdest1,
              search(orders, q="o_orderstatus:F", fl="o_orderkey,o_totalprice")))""",
    """
    SELECT CAST(count(*) AS DOUBLE) AS batchIndexed
    FROM orders WHERE o_orderstatus = 'F'
    """,
)

_expr(
    "stream_nodes_expr",
    """nodes(orders, search(customer, q="c_custkey:[1 TO 200]", fl="c_custkey"),
             walk="c_custkey->o_custkey", gather="o_orderkey")""",
    """
    SELECT DISTINCT CAST(o_orderkey AS BIGINT) AS node
    FROM orders JOIN customer ON o_custkey = c_custkey
    WHERE c_custkey BETWEEN 1 AND 200
    """,
)

_expr(
    "stream_knn_expr",
    """select(knnSearch(embeddings, id=7, k=12),
              "vec_id", "div(floor(add(mul(score, 100000), 0.5)), 100000) as score")""",
    """
    WITH qv AS (SELECT embedding::DOUBLE[] AS e FROM embeddings WHERE vec_id = 7)
    SELECT vec_id,
           floor(list_cosine_similarity(embedding::DOUBLE[], qv.e) * 100000 + 0.5)
           / 100000 AS score
    FROM embeddings CROSS JOIN qv
    ORDER BY list_cosine_similarity(embedding::DOUBLE[], qv.e) DESC, vec_id
    LIMIT 12
    """,
)

# --- round-5 wave 3: sql()/joins/facet2D/significantTerms/drill -------------

_expr(
    "stream_sql_expr",
    """sql(orders, stmt="SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n, floor(sum(o_totalprice)*100+0.5)/100 AS rev FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority ORDER BY o_orderpriority")""",
    """
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n,
           floor(sum(o_totalprice)*100+0.5)/100 AS rev
    FROM orders WHERE o_orderstatus = 'F'
    GROUP BY o_orderpriority ORDER BY o_orderpriority
    """,
)

_expr(
    "stream_full_outer_join_expr",
    """fullOuterJoin(search(customer, q="*:*", fl="c_custkey,c_name"),
                     search(orders, q="o_totalprice:[400000 TO *]", fl="o_orderkey,o_custkey,o_totalprice"),
                     on="c_custkey=o_custkey")""",
    """
    SELECT COALESCE(c_custkey, o_custkey) AS c_custkey, c_name,
           o_orderkey, o_totalprice
    FROM customer FULL JOIN
         (SELECT * FROM orders WHERE o_totalprice >= 400000) o
         ON c_custkey = o_custkey
    """,
)

_expr(
    "stream_outer_hash_join_expr",
    """outerHashJoin(search(orders, q="o_orderstatus:F", fl="o_orderkey,o_custkey"),
                     hashed=search(customer, q="c_acctbal:[9000 TO *]", fl="c_custkey,c_name"),
                     on="o_custkey=c_custkey")""",
    """
    SELECT o_orderkey, o_custkey, c_name
    FROM orders LEFT JOIN
         (SELECT * FROM customer WHERE c_acctbal >= 9000) c
         ON o_custkey = c_custkey
    WHERE o_orderstatus = 'F'
    """,
)

_expr(
    "stream_facet2d_expr",
    """facet2D(events, q="*:*", x="event_type", y="user_id",
               dimensions="3,4", count(*))""",
    """
    WITH r AS (SELECT event_type, user_id, count(*) AS c
               FROM events GROUP BY event_type, user_id),
    xt AS (SELECT event_type FROM r GROUP BY event_type
           ORDER BY sum(c) DESC, event_type ASC LIMIT 3)
    SELECT r.event_type, r.user_id, CAST(c AS BIGINT) AS "count(*)"
    FROM r JOIN xt USING (event_type)
    QUALIFY row_number() OVER (PARTITION BY r.event_type
                               ORDER BY c DESC, user_id ASC) <= 4
    """,
)

_expr(
    "stream_significant_terms_expr",
    """significantTerms(documents, q="lang:en", field="text",
                        minDocFreq=25, limit=10)""",
    """
    WITH toks AS (
      SELECT lang,
             unnest(list_distinct(
               list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                           x -> x <> ''))) AS term
      FROM documents
    ),
    ag AS (
      SELECT term,
             CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS foreground,
             CAST(count(*) AS BIGINT) AS background
      FROM toks GROUP BY term
    )
    SELECT term, foreground, background,
           round(foreground * 1.0 / background, 4) AS score
    FROM ag WHERE foreground >= 25
    ORDER BY score DESC, term ASC LIMIT 10
    """,
)

_expr(
    "stream_drill_expr",
    """drill(events, q="event_type:purchase", fl="user_id,value",
             rollup(input(), over="user_id", count(*), sum(value)))""",
    """
    SELECT user_id, CAST(count(*) AS BIGINT) AS "count(*)",
           sum(value) AS "sum(value)"
    FROM events WHERE event_type = 'purchase' GROUP BY user_id
    """,
)

_expr(
    "stream_get_expr",
    """let(a=search(events, q="event_type:click", fl="event_id,user_id"),
           rollup(get(a), over="user_id", count(*)))""",
    """
    SELECT user_id, CAST(count(*) AS BIGINT) AS "count(*)"
    FROM events WHERE event_type = 'click' GROUP BY user_id
    """,
)

_expr(
    "stream_reduce_expr",
    """reduce(search(events, q="*:*", fl="user_id,event_id,value"),
              by="user_id", group(sort="value desc, event_id asc", n=3))""",
    """
    SELECT user_id, event_id, value,
           CAST(LEAST(count(*) OVER (PARTITION BY user_id), 3) AS BIGINT)
             AS groupSize
    FROM events
    QUALIFY row_number() OVER (PARTITION BY user_id
                               ORDER BY value DESC, event_id ASC) = 1
    """,
)

_expr(
    "stream_score_nodes_expr",
    """scoreNodes(nodes(lineitem,
                        search(orders, q="o_totalprice:[400000 TO *]", fl="o_orderkey"),
                        walk="o_orderkey->l_orderkey", gather="l_orderkey"),
                  collection=lineitem, field=l_orderkey)""",
    """
    WITH nodes AS (
      SELECT DISTINCT CAST(l_orderkey AS BIGINT) AS node
      FROM lineitem JOIN orders ON l_orderkey = o_orderkey
      WHERE o_totalprice >= 400000
    ),
    df AS (SELECT l_orderkey, count(*) AS d FROM lineitem GROUP BY l_orderkey),
    tot AS (SELECT count(*) AS n FROM lineitem)
    SELECT node, CAST(d AS BIGINT) AS docFreq, CAST(n AS BIGINT) AS numDocs,
           ln(1 + (n - d + 0.5) / (d + 0.5)) AS nodeScore
    FROM nodes JOIN df ON node = l_orderkey CROSS JOIN tot
    """,
)

_expr(
    "stream_features_selection_expr",
    """featuresSelection(documents, field=text, outcome=lang,
                         positiveLabel=en, numTerms=12)""",
    """
    WITH toks AS (
      SELECT lang,
             unnest(list_distinct(
               list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                           x -> x <> ''))) AS term
      FROM documents
    ),
    cls AS (
      SELECT CAST(count(*) FILTER (lang = 'en') AS DOUBLE) AS npos,
             CAST(count(*) AS DOUBLE) AS n
      FROM documents
    ),
    tc AS (
      SELECT term,
             CAST(count(*) FILTER (lang = 'en') AS DOUBLE) AS a,
             CAST(count(*) AS DOUBLE) AS df
      FROM toks GROUP BY term
    ),
    sc AS (
      SELECT term,
             round(
               (CASE WHEN npos/n IN (0,1) THEN 0
                ELSE -(npos/n*log2(npos/n) + (1-npos/n)*log2(1-npos/n)) END)
             - (df/n) *
               (CASE WHEN a/df IN (0,1) THEN 0
                ELSE -(a/df*log2(a/df) + (1-a/df)*log2(1-a/df)) END)
             - ((n-df)/n) *
               (CASE WHEN n = df OR (npos-a)/(n-df) IN (0,1) THEN 0
                ELSE -((npos-a)/(n-df)*log2((npos-a)/(n-df))
                       + (1-(npos-a)/(n-df))*log2(1-(npos-a)/(n-df))) END)
             , 10) AS score
      FROM tc CROSS JOIN cls
    )
    SELECT term, score,
           CAST(row_number() OVER (ORDER BY score DESC, term ASC) - 1 AS BIGINT)
             AS idx
    FROM sc ORDER BY score DESC, term ASC LIMIT 12
    """,
)


def _textlogit_entry(sf_dir: str):
    """Rows-only entry (iterative float training has no SQL oracle; the
    gradient/accuracy invariants are pytest-gated in tests/test_textml.py)."""
    return stream_expr(
        sf_dir,
        """textLogit(documents, field=text, outcome=lang, positiveLabel=en,
                     maxIterations=20,
                     featuresSelection(documents, field=text, outcome=lang,
                                       positiveLabel=en, numTerms=20))""",
    )


_textlogit_entry.__name__ = "stream_text_logit_expr"
QUERIES["stream_text_logit_expr"] = _textlogit_entry

_expr(
    "stream_shortest_path_expr",
    """shortestPath(orders, from=5, to=1174, edge="o_custkey=o_orderkey",
                    maxDepth=3)""",
    """
    WITH RECURSIVE bfs(node, path, d) AS (
      SELECT 5, '5', 0
      UNION ALL
      SELECT o.o_orderkey, bfs.path || '->' || o.o_orderkey, d + 1
      FROM orders o JOIN bfs ON o.o_custkey = bfs.node WHERE d < 3
    )
    SELECT path FROM bfs
    WHERE node = 1174
      AND d = (SELECT min(d) FROM bfs b2 WHERE b2.node = 1174)
    ORDER BY path
    """,
)

_expr(
    "stream_let_var_expr",
    """let(a=col(search(events, q="event_type:view", fl="value"), "value"),
           tuple(v=precision(var(a), 6), sd=precision(stddev(a), 6)))""",
    """
    SELECT floor(var_samp(value) * 1000000 + 0.5) / 1000000 AS v,
           floor(stddev_samp(value) * 1000000 + 0.5) / 1000000 AS sd
    FROM events WHERE event_type = 'view'
    """,
)

_expr(
    "stream_rollup_std_per_expr",
    """rollup(search(events, q="*:*", fl="event_type,value,user_id"),
              over="event_type", std(value), per(value, 50), per(value, 90),
              countDist(user_id), count(*))""",
    """
    SELECT event_type,
           stddev_samp(value) AS "std(value)",
           quantile_cont(value, 0.50) AS "per(value,50)",
           quantile_cont(value, 0.90) AS "per(value,90)",
           CAST(count(DISTINCT user_id) AS BIGINT) AS "countDist(user_id)",
           CAST(count(*) AS BIGINT) AS "count(*)"
    FROM events GROUP BY event_type
    """,
)

_expr(
    "stream_hash_rollup_expr",
    """hashRollup(search(orders, q="o_orderstatus:F", fl="o_orderpriority,o_totalprice"),
                  over="o_orderpriority", std(o_totalprice), count(*))""",
    """
    SELECT o_orderpriority,
           stddev_samp(o_totalprice) AS "std(o_totalprice)",
           CAST(count(*) AS BIGINT) AS "count(*)"
    FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority
    """,
)

_expr(
    "stream_select_replace_expr",
    """select(search(events, q="*:*", fl="event_id,props"),
              "event_id", "props", replace(props, null, withValue="missing"))""",
    """
    SELECT event_id, COALESCE(props, 'missing') AS props FROM events
    """,
)


_expr(
    "stream_select_concat_expr",
    """top(select(search(customer, q="*:*", fl="c_custkey,c_name,c_mktsegment"),
                  "c_custkey", "tag",
                  concat(fields="c_mktsegment,c_name", as="tag", delim="-")),
           n=10, sort="c_custkey asc")""",
    """
    SELECT c_custkey, c_mktsegment || '-' || c_name AS tag
    FROM customer ORDER BY c_custkey ASC LIMIT 10
    """,
)


# -- Lang.java closing wave: the last registered names (round 5) ----------
# calc/plot/zplot (CalculatorStream.java, PlotStream.java, ZplotStream.java),
# recNum/val/pivot/latlonVectors/termVectors/memset (io/eval), distinct
# (ops/DistinctOperation.java), model (ModelStream.java), stream (GetStream).

_expr(
    "stream_calc_expr",
    """select(calc(), "add(1.5, 2.25) as s")""",
    """SELECT CAST(3.75 AS DOUBLE) AS s""",
)

_expr(
    "stream_val_expr",
    """let(x=val(2.5), round(add(x, 0.25), 4))""",
    """SELECT CAST(2.75 AS DOUBLE) AS result""",
)

_expr(
    "stream_recnum_expr",
    """select(search(events, q="event_type:error", fl="event_id,value",
                     sort="event_id asc"),
              "recNum() as rec", "event_id")""",
    """
    SELECT CAST(row_number() OVER (ORDER BY event_id) - 1 AS BIGINT) AS rec,
           event_id
    FROM events WHERE event_type = 'error'
    """,
)

_expr(
    "stream_zplot_expr",
    """let(a=col(search(events, q="event_type:error", fl="event_id,value",
                        sort="event_id asc"), "value"),
           zplot(x=sequence(length(a), 0, 1), y=precision(cumulativeSum(a), 4)))""",
    """
    WITH s AS (SELECT value, row_number() OVER (ORDER BY event_id) AS rn
               FROM events WHERE event_type = 'error')
    SELECT CAST(rn - 1 AS DOUBLE) AS x,
           floor(sum(value) OVER (ORDER BY rn) * 10000 + 0.5) / 10000 AS y
    FROM s
    """,
)

_expr(
    "stream_pivot_expr",
    """let(a=rollup(select(search(events, q="*:*", fl="event_type,user_id"),
                           "event_type", "mod(user_id, 3) as bucket"),
                    over="event_type,bucket", count(*)),
           pivot(a, "event_type", "bucket", "count(*)"))""",
    """
    WITH g AS (SELECT event_type, user_id % 3 AS bucket,
                      CAST(count(*) AS DOUBLE) AS n
               FROM events GROUP BY 1, 2),
         xs AS (SELECT event_type, row_number() OVER (ORDER BY event_type) - 1 AS i
                FROM (SELECT DISTINCT event_type FROM g)),
         ys AS (SELECT bucket, row_number() OVER (ORDER BY bucket) - 1 AS j
                FROM (SELECT DISTINCT bucket FROM g))
    SELECT xs.i, ys.j, COALESCE(g.n, 0.0) AS value
    FROM xs CROSS JOIN ys
    LEFT JOIN g ON g.event_type = xs.event_type AND g.bucket = ys.bucket
    """,
)

_expr(
    "stream_memset_expr",
    """let(m=memset(search(events, q="*:*", fl="event_id,value,user_id",
                           sort="event_id asc"),
                    cols="value,user_id", vars="a,b"),
           round(corr(a, b), 6))""",
    """
    SELECT floor(corr(value, user_id) * 1000000 + 0.5) / 1000000 AS result
    FROM events
    """,
)

_expr(
    "stream_latlon_expr",
    """let(a=select(search(customer, q="*:*", fl="c_custkey,c_acctbal,c_nationkey",
                           sort="c_custkey asc"),
                    "c_custkey as id", "loc",
                    concat(fields="c_acctbal,c_nationkey", as="loc", delim=",")),
           latlonVectors(a, field="loc"))""",
    """
    WITH s AS (SELECT c_acctbal, CAST(c_nationkey AS DOUBLE) AS nk,
                      row_number() OVER (ORDER BY c_custkey) - 1 AS rn
               FROM customer)
    SELECT rn AS i, CAST(0 AS BIGINT) AS j, c_acctbal AS value FROM s
    UNION ALL
    SELECT rn, CAST(1 AS BIGINT), nk FROM s
    """,
)

_expr(
    "stream_distinct_reduce_expr",
    """reduce(search(events, q="*:*", fl="user_id,event_id",
                     sort="user_id asc, event_id asc"),
              by="user_id", distinct())""",
    """
    SELECT user_id, min(event_id) AS event_id, CAST(1 AS BIGINT) AS groupSize
    FROM events GROUP BY user_id
    """,
)


def _plot_entry(sf_dir: str):
    """PlotStream: one tuple, plot type + [x, y] pair list (nested list
    column — no relational oracle; pair values are pytest-pinned)."""
    return stream_expr(
        sf_dir,
        """let(a=col(search(events, q="event_type:error", fl="event_id,value",
                            sort="event_id asc"), "value"),
               plot(type="scatter", y=movingAvg(a, 5)))""",
    )


_plot_entry.__name__ = "stream_plot_expr"
QUERIES["stream_plot_expr"] = _plot_entry


def _model_entry(sf_dir: str):
    """ModelStream: train() -> update(models collection) -> model() fetches
    the highest-iteration tuples (the reference's 'latest cached model').
    Iterative logistic training has no SQL oracle; invariants are
    pytest-gated (tests/test_textml.py) and the fetch contract here."""
    stream_expr(
        sf_dir,
        """update(q_models, train(documents,
                 featuresSelection(documents, q="*:*", field="text",
                                   outcome="lang", positiveLabel="en", numTerms=15),
                 q="*:*", field="text", outcome="lang", positiveLabel="en",
                 maxIterations=3))""",
    ).materialize()
    return stream_expr(sf_dir, "model(q_models)")


_model_entry.__name__ = "stream_model_expr"
QUERIES["stream_model_expr"] = _model_entry


def _termvectors_entry(sf_dir: str):
    """TermVectorsEvaluator (reference io/eval/TermVectorsEvaluator.java:
    docs with a terms list -> sqrt(tf) * (ln((n+1)/(df+1)) + 1) TF-IDF
    matrix, features pruned to df in [floor(n*minDocFreq),
    floor(n*maxDocFreq)] and term length >= minTermLength, feature columns
    sorted). The evaluator is bounded in-memory math (a let()-context
    tuple list, LET_VECTOR_MAX contract); the lang=de analysis subset is
    collected like any col() vector, tokenized with the engine analyzer's
    simple_tokenize (== the oracle's regexp_split_to_array)."""
    import numpy as np
    import ray

    import pyarrow.compute as _pc

    from apache___solr_ray import mathexpr, streamexpr
    from apache___solr_ray.analyze import simple_tokenize
    from apache___solr_ray.sources import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    ds = ds.map_batches(
        lambda t: t.filter(_pc.equal(t.column("lang"), "de")),
        batch_format="pyarrow",
    )
    ds = ds.select_columns(["doc_id", "text"]).materialize()
    n = ds.count()
    if n > streamexpr.LET_VECTOR_MAX:
        raise streamexpr.StreamExprError(
            f"termVectors input has {n} rows (> LET_VECTOR_MAX); "
            "tuple-list evaluators are bounded in-memory state"
        )
    pdf = ds.to_pandas().sort_values("doc_id")
    tuples = [
        {"id": int(r.doc_id), "terms": simple_tokenize(r.text or "")}
        for r in pdf.itertuples()
    ]
    m = mathexpr.EVALS["termVectors"](tuples, 3, 0.02, 0.8)
    rounded = np.floor(np.asarray(m) * 1_000_000 + 0.5) / 1_000_000
    return ray.data.from_arrow(mathexpr.result_to_table(rounded))


_termvectors_entry.__name__ = "stream_termvectors_tfidf"
QUERIES["stream_termvectors_tfidf"] = _termvectors_entry
ORACLE["stream_termvectors_tfidf"] = """
    WITH docs AS (SELECT doc_id, text FROM documents WHERE lang = 'de'),
         n AS (SELECT count(*) AS nd FROM docs),
         toks AS (SELECT doc_id,
                         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                            x -> x <> '')) AS term
                  FROM docs),
         toks3 AS (SELECT * FROM toks WHERE length(term) >= 3),
         dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks3 GROUP BY term),
         feats AS (SELECT term, df, row_number() OVER (ORDER BY term) - 1 AS j
                   FROM dfs, n
                   WHERE df BETWEEN CAST(floor(nd * 0.02) AS BIGINT)
                                AND CAST(floor(nd * 0.8) AS BIGINT)),
         drows AS (SELECT doc_id, row_number() OVER (ORDER BY doc_id) - 1 AS i FROM docs),
         tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
                FROM toks3 GROUP BY doc_id, term)
    SELECT drows.i, feats.j,
           floor(COALESCE(sqrt(tf.tf) * (ln((n.nd + 1) / CAST(feats.df + 1 AS DOUBLE)) + 1),
                          0) * 1000000 + 0.5) / 1000000 AS value
    FROM drows CROSS JOIN feats CROSS JOIN n
    LEFT JOIN tf ON tf.doc_id = drows.doc_id AND tf.term = feats.term
"""
