"""Driver-contract checker: run queries() vs oracle_sql() side by side
(sf dir via CHECK_SF, default sf0.01), compare columns, rows and values -
the local rehearsal of the round correctness gate. Runs from any working
directory; pass query names as argv to subset."""
import os, sys, time, traceback
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
# Ray workers import the package too: they inherit PYTHONPATH, not sys.path
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
SF = os.environ.get("CHECK_SF", "/root/testdata/sf0.01")
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()

# The CPUs one checked entry needs at once: multimodal_resize_plan chains two
# actor pools of at least one 1-CPU actor each, and its read tasks need a
# third CPU (on 2 it waits for one forever). Above the host's CPUs Ray only
# starts idle workers.
MIN_CPUS = 3
ray.init(address="local", num_cpus=max(len(os.sched_getaffinity(0)), MIN_CPUS),
         include_dashboard=False, ignore_reinit_error=True)

import __ray_entry__ as E

qs, os_ = E.queries(), E.oracle_sql()
con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")

def to_pandas(res):
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    df = res.to_pandas()  # ray Dataset
    if df.empty and not len(df.columns):
        # Ray drops the columns of a fully-empty Dataset even when the
        # schema is known — rebuild them so empty==empty compares hold
        sch = res.schema()
        if sch is not None:
            df = pd.DataFrame({n: pd.Series(dtype="object") for n in sch.names})
    return df

def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df

only = sys.argv[1:] or None
fails = []
for name in sorted(qs):
    if only and name not in only:
        continue
    t0 = time.time()
    try:
        mine = to_pandas(qs[name](SF))
    except Exception:
        print(f"FAIL {name}: query raised"); traceback.print_exc(); fails.append(name); continue
    dt = time.time() - t0
    if name not in os_:
        print(f"ok(rows-only) {name}: {len(mine)} rows  {dt:.1f}s")
        continue
    try:
        orc = con.execute(os_[name]).df()
    except Exception:
        print(f"FAIL {name}: oracle raised"); traceback.print_exc(); fails.append(name); continue
    if sorted(mine.columns) != sorted(orc.columns):
        print(f"FAIL {name}: cols mine={sorted(mine.columns)} oracle={sorted(orc.columns)}")
        fails.append(name); continue
    if len(mine) != len(orc):
        print(f"FAIL {name}: rows mine={len(mine)} oracle={len(orc)}")
        fails.append(name); continue
    a, b = canon(mine), canon(orc)
    bad = False
    for c in a.columns:
        av, bv = a[c], b[c]
        if np.issubdtype(np.asarray(av).dtype, np.floating) or np.issubdtype(np.asarray(bv).dtype, np.floating):
            if not np.allclose(av.astype(float), bv.astype(float), rtol=1e-6, atol=1e-9, equal_nan=True):
                print(f"FAIL {name}: float col {c} differs"); bad = True; break
        else:
            if not (av.astype(str).values == bv.astype(str).values).all():
                i = int(np.argmax(av.astype(str).values != bv.astype(str).values))
                print(f"FAIL {name}: col {c} row {i}: mine={av.iloc[i]!r} oracle={bv.iloc[i]!r}"); bad = True; break
    if bad:
        fails.append(name)
    else:
        print(f"OK {name}: {len(mine)} rows  {dt:.1f}s")

print("\n==", len(fails), "failures:", fails)
ray.shutdown()
