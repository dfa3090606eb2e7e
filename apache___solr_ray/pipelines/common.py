"""Shared pipeline helpers: broadcast joins, rounding, top-k."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def broadcast_join(ds, small: pa.Table, left_key: str, right_key: str, take: dict[str, str], how: str = "inner"):
    """Broadcast hash join: the HashJoinStream analog (reference
    ``HashJoinStream.java:35-45`` builds the small side's hash table at
    open). The small table is ``ray.put`` once; each batch probes it with a
    vectorized pandas merge — no shuffle. ``take`` maps small-side column ->
    output name."""
    import ray

    sm = small.select([right_key, *take.keys()]).to_pandas()
    sm = sm.rename(columns=take)
    ref = ray.put(sm)
    state: dict = {}

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        if "sm" not in state:
            state["sm"] = ray.get(ref)
        out = df.merge(state["sm"], left_on=left_key, right_on=right_key, how=how)
        if right_key != left_key and right_key in out.columns and right_key not in take.values():
            out = out.drop(columns=[right_key])
        return out

    return ds.map_batches(probe, batch_format="pandas")


def semi_join_filter(ds, key_col: str, keys, keep: bool = True):
    """Semi/anti join by broadcast key set (reference JoinQParserPlugin
    semi-join / ComplementStream anti-join semantics). The key set is
    ``ray.put`` once as an Arrow array and each batch is filtered with the
    vectorized ``pc.is_in`` kernel (hash probe in C, no Python loop)."""
    import ray

    ref = ray.put(pa.array(list(set(keys))))
    state: dict = {}

    def flt(t: pa.Table) -> pa.Table:
        if "keys" not in state:
            state["keys"] = ray.get(ref)
        mask = pc.is_in(t.column(key_col), value_set=state["keys"])
        if not keep:
            mask = pc.invert(mask)
        return t.filter(pc.fill_null(mask, False))

    return ds.map_batches(flt, batch_format="pyarrow")


#: partial-aggregate rows are (groups × blocks) — bounded combine state,
#: not data. Under this bound the driver combines them in one pandas
#: groupby; above it (true high-cardinality GROUP BY) the distributed
#: hash aggregate takes over.
PARTIAL_DRIVER_COMBINE_MAX = 2_000_000


def combine_partials(parts, keys, ray_fns, sum_cols=(), min_cols=(), max_cols=()):
    """Combine per-batch partial-aggregate blocks into final group rows.

    Fast path rationale (measured): Ray's sort-based Aggregate took 15 s
    / 180 s task-CPU to combine 90k partial rows across 64 blocks — a
    per-reduce fixed cost, not data cost. The partials are the classic
    combiner output (groups × blocks rows), so when their count is small
    a single driver-side pandas groupby (C kernels, ~ms) is the right
    plan; the distributed aggregate remains the fallback for partial
    sets that are themselves big. ``sum(min_count=1)`` keeps all-null
    sums NULL (pa.Table.from_pandas maps NaN back to null), matching the
    distributed Sum's ignore_nulls semantics.

    The big-partial fallback is NOT Ray's sort-based Aggregate (measured
    430 s at 3.4M partial rows — the per-reduce fixed cost again): it is
    a ``grouped_map`` hash shuffle, where every key's partials land in
    one partition and the SAME pandas combine runs per partition in C —
    one exchange, linear work, no global sort. ``ray_fns`` is kept for
    signature compatibility (callers pass the distributed Aggregate
    spec); the pandas combine is semantically identical for the
    sum/min/max family this helper supports.
    """
    import ray

    keys = list(keys)

    def pandas_combine(pdf: pd.DataFrame) -> pd.DataFrame:
        gb = pdf.groupby(keys, dropna=False, sort=False)
        outs = []
        if sum_cols:
            outs.append(gb[list(sum_cols)].sum(min_count=1))
        if min_cols:
            outs.append(gb[list(min_cols)].min())
        if max_cols:
            outs.append(gb[list(max_cols)].max())
        return pd.concat(outs, axis=1).reset_index()

    parts = parts.materialize()
    n = parts.count()
    if n == 0:
        # zero input rows: no partials, no groups (callers' zero-input
        # semantics — e.g. SQL's global identity row — apply downstream)
        return parts
    if n <= PARTIAL_DRIVER_COMBINE_MAX:
        combined = pandas_combine(parts.to_pandas())
        return ray.data.from_arrow(
            pa.Table.from_pandas(combined, preserve_index=False)
        )
    return grouped_map(parts, keys, pandas_combine)


_GM_HASH_KEY = "0123456789abcdef"


def grouped_map(ds, keys: list[str] | str, fn, num_parts: int | None = None):
    """Hash-partition by key, then ONE vectorized pandas call per partition.

    Replacement for ``groupby(key).map_groups(per_group_fn)``: Ray Data
    dispatches the map_groups Python fn once PER GROUP, so 10^8 distinct
    keys cost 10^8 interpreter round-trips. Here the shuffle key is
    ``hash(key) % P`` — the Python boundary is crossed P times total and
    ``fn`` receives a frame holding thousands of WHOLE groups, doing its
    per-group work with pandas' C groupby kernels (head/rank/cumcount/
    quantile). Every row of a key lands in exactly one partition (the
    partition id is a pure function of the key columns), so per-group
    results are identical to the per-group-dispatch form.

    ``fn``: pandas DataFrame (many whole groups) -> DataFrame.
    """
    if isinstance(keys, str):
        keys = [keys]
    if num_parts is None:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        # one partition per core keeps every worker busy; at cluster scale
        # callers should pass data_bytes / ~256MB instead
        num_parts = max(4, cpus)

    def add_part(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for k in keys:
            col = t.column(k).to_numpy(zero_copy_only=False)
            if col.dtype == object or col.dtype.kind in "US":
                col = np.asarray(col, dtype=object)
            hk = pd.util.hash_array(col, hash_key=_GM_HASH_KEY, categorize=False)
            h = h * np.uint64(1000003) + hk
        part = (h % np.uint64(num_parts)).astype(np.int64)
        # one all-null pad row per partition: every partition of the sort
        # below then receives rows from every block, so none arrives as an
        # empty block (Ray's sort emits those without a schema)
        pad = pa.Table.from_arrays([pa.nulls(num_parts, f.type) for f in t.schema], schema=t.schema)
        is_pad = np.repeat(np.array([False, True]), [t.num_rows, num_parts])
        return (
            pa.concat_tables([t, pad])
            .append_column("__gpart", pa.array(np.concatenate([part, np.arange(num_parts)])))
            .append_column("__pad", pa.array(is_pad))
        )

    def run_part(t: pa.Table):
        from ray.data.block import BlockAccessor

        rows = t.filter(pc.invert(t.column("__pad"))).drop_columns(["__gpart", "__pad"])
        if rows.num_rows:  # a partition that no key hashed to emits no block
            yield fn(BlockAccessor.for_block(rows).to_pandas())

    # one sort partition per partition id (the boundaries), one call per
    # partition: its block holds every row of its keys
    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .sort("__gpart", boundaries=list(range(1, num_parts)))
        .map_batches(run_part, batch_format="pyarrow", batch_size=None)
    )


def materialize_with_retry(ds_factory, attempts: int = 3, fallback=None):
    """Execute a Dataset-producing thunk with retries — guard for Ray
    2.49's Dataset.join empty-partition race (a hash-join partition that
    receives no block for one side builds a schema-less table and Acero
    raises ArrowInvalid/KeyError; rare and nondeterministic). Retrying
    re-plans the join; if ``fallback`` is given it runs after the retries
    are exhausted (a different physical plan for the same result) — the
    race class must not be able to fail a correctness-gate entry."""
    last = None
    for _ in range(attempts):
        try:
            return ds_factory().materialize()
        except Exception as e:  # noqa: BLE001 - surfaces after retries
            last = e
    if fallback is not None:
        return fallback()
    raise last


def cogroup_join(lds, rds, lk, rk, how: str, num_parts: int | None = None):
    """Distributed equi-join as ONE key-hash co-location of both sides
    (``grouped_map`` over the side-tagged union) + a vectorized pandas
    merge per partition. Output schema matches Ray's ``Dataset.join``:
    payload columns keep their names, exactly one key column survives
    under the LEFT key's name (coalesced left/right for ``full``).
    Assumes all rows of a key fit one partition (salt hot keys otherwise).
    Race-free (no Acero hash-join partitions), so it doubles as the
    fallback plan behind :func:`native_join`."""

    def tag(side: int, keymap):
        def run(t: pa.Table) -> pa.Table:
            cols = {"__side": pa.array(np.full(t.num_rows, side, dtype=np.int8))}
            for i, k in enumerate(keymap):
                cols[f"__k{i}"] = t.column(k)
            for c in t.column_names:
                cols[f"c{side}_{c}"] = t.column(c)
            return pa.table(cols)

        return run

    both = lds.map_batches(tag(0, lk), batch_format="pyarrow").union(
        rds.map_batches(tag(1, rk), batch_format="pyarrow")
    )
    kcols = [f"__k{i}" for i in range(len(lk))]

    rk_drop = {f"c1_{k}" for k in rk}  # join output keeps ONE key column
    lk_drop = {f"c0_{k}" for k in lk}  # full outer: key comes from kcols
    pd_how = {"left": "left", "full": "outer"}.get(how, "inner")

    def merge_part(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == 0]
        r = df[df["__side"] == 1]
        lcols = [
            c for c in df.columns
            if c.startswith("c0_") and not (how == "full" and c in lk_drop)
        ]
        rcols = [c for c in df.columns if c.startswith("c1_") and c not in rk_drop]
        out = l[kcols + lcols].merge(r[kcols + rcols], on=kcols, how=pd_how)
        if how == "full":
            # right-only rows have NULL c0_* — the coalesced key lives in
            # the kcols (every tagged row carried it); surface it under the
            # left key's name (FullOuterJoinStream merges into one tuple)
            out = out.rename(columns=dict(zip(kcols, [f"c0_{k}" for k in lk])))
        else:
            out = out.drop(columns=kcols)
        names = [c[3:] for c in out.columns]
        if len(set(names)) != len(names):
            raise ValueError(
                f"join output column collision {sorted(names)}; select()-rename a side"
            )
        out.columns = names
        return out

    return grouped_map(both, kcols, merge_part, num_parts=num_parts)


_JOIN_TYPE_TO_COGROUP = {"inner": "inner", "left_outer": "left", "full_outer": "full"}


def native_join(l, r, join_type: str, num_partitions: int, on, right_on=None,
                attempts: int = 3):
    """Ray ``Dataset.join`` with its empty-partition race double-guarded:
    retries re-plan the Acero hash join; if the race persists, the same
    result is produced by :func:`cogroup_join` (identical output schema —
    right key coalesced into the left key's column, exactly as Ray's join
    emits). All catalog join sites route through here so the race class
    cannot fail a correctness-gate entry."""
    on = tuple(on)
    right_on = tuple(right_on) if right_on is not None else on

    def attempt():
        return l.join(r, join_type, num_partitions, on=on, right_on=right_on)

    def fallback():
        return cogroup_join(
            l, r, list(on), list(right_on), _JOIN_TYPE_TO_COGROUP[join_type],
            num_parts=num_partitions,
        ).materialize()

    return materialize_with_retry(attempt, attempts=attempts, fallback=fallback)


def round_cols(ds, spec: dict[str, int]):
    """Round float columns (both the Ray side and the oracle SQL round, so
    value hashes agree despite summation-order ulp drift)."""

    def rnd(t: pa.Table) -> pa.Table:
        for name, nd in spec.items():
            i = t.column_names.index(name)
            arr = pc.round(pc.cast(t.column(name), pa.float64()), ndigits=nd)
            t = t.set_column(i, name, arr)
        return t

    return ds.map_batches(rnd, batch_format="pyarrow")


def as_int64(ds, *names: str):
    def cast(t: pa.Table) -> pa.Table:
        for name in names:
            i = t.column_names.index(name)
            t = t.set_column(i, name, pc.cast(t.column(name), pa.int64()))
        return t

    return ds.map_batches(cast, batch_format="pyarrow")


def add_rank_column(table: pa.Table, name: str = "rk") -> pa.Table:
    return table.append_column(name, pa.array(np.arange(1, table.num_rows + 1, dtype=np.int64)))


def cents(arr) -> pa.Array:
    """Per-row exact integer cents: round(x*100) -> int64.

    Monetary SUMs must never be compared as floats across engines (summation
    order differs at the ulp level and 2-decimal data sits exactly on
    rounding boundaries). Rounding each row's identical double to integer
    cents and summing ints is bit-exact on both sides.
    SQL mirror: CAST(round(x * 100) AS BIGINT).
    """
    return pc.cast(
        pc.round(pc.multiply(pc.cast(arr, pa.float64()), 100.0), round_mode="half_towards_infinity"),
        pa.int64(),
    )


def floor_round(arr, digits: int) -> pa.Array:
    """floor(x * 10^d + 0.5) / 10^d — deterministic rounding whose SQL
    mirror ``floor(x * 10^d + 0.5) / 10^d.0`` is IEEE-op-for-op identical,
    so outputs match bit-exactly whenever the inputs match."""
    m = float(10**digits)
    x = pc.cast(arr, pa.float64())
    return pc.divide(pc.floor(pc.add(pc.multiply(x, m), 0.5)), m)


def materialize_with_schema(ds, schema: pa.Schema) -> pa.Table:
    """Collect a (small) Dataset into an Arrow table with a guaranteed
    schema — empty pipeline results otherwise lose their column names."""
    import ray

    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    tables = [t.select(schema.names).cast(schema) for t in tables if t.num_rows]
    if not tables:
        return schema.empty_table()
    return pa.concat_tables(tables)


def partial_sum_count(ds, keys, sum_cols, count_alias=None):
    """Partial-aggregation shape for sum/count groupbys (the combiner the
    reference's RollupStream applies per worker before the final rollup):
    each batch collapses to one row per key via Arrow's C++ ``group_by``,
    then the Ray groupby sums the partials — the shuffle moves
    O(groups × blocks) rows instead of the full stream, and sidesteps the
    per-row cost of the sort-based aggregate (measured 3.7× on
    join_customer_orders at sf0.1).

    ``sum_cols``: list of (source_col, out_alias). ``count_alias``: emit a
    row count under this name. Output column types: sums keep their Arrow
    sum type (int64 for ints, float64 for floats); the count is int64."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    keys = [keys] if isinstance(keys, str) else list(keys)
    aggs = [(c, "sum") for c, _ in sum_cols]
    if count_alias:
        aggs.append(("__ones", "sum"))  # count(*) = sum of ones (null-safe)

    def partial(t: pa.Table) -> pa.Table:
        import numpy as np

        if count_alias:
            t = t.append_column("__ones", pa.array(np.ones(t.num_rows, dtype=np.int64)))
        g = t.group_by(keys).aggregate(aggs)
        cols = {k: g.column(k) for k in keys}
        for c, alias in sum_cols:
            cols[alias] = g.column(f"{c}_sum")
        if count_alias:
            cols[count_alias] = g.column("__ones_sum").cast(pa.int64())
        return pa.table(cols)

    aliases = [a for _, a in sum_cols] + ([count_alias] if count_alias else [])
    out = combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys,
        [Sum(a, alias_name=a) for a in aliases],
        sum_cols=aliases,
    )

    def fix_types(t: pa.Table) -> pa.Table:
        # Ray's Sum can widen; pin the count back to int64
        if count_alias:
            i = t.schema.get_field_index(count_alias)
            t = t.set_column(i, count_alias, t.column(count_alias).cast(pa.int64()))
        return t

    return out.map_batches(fix_types, batch_format="pyarrow")
