"""Local mimic of the driver's correctness gate: run every queries() entry
and its oracle_sql() side-by-side on a sf dir, compare row count, column
set, and an order-insensitive value hash.

Usage: python tools/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

import duckdb
import numpy as np
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_float_dtype(col):
            df[c] = col.round(6)
        elif pd.api.types.is_datetime64_any_dtype(col):
            df[c] = col.astype("datetime64[us]")
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def duckdb_views(sf_dir: str):
    """A DuckDB connection with one view per table of ``sf_dir``."""
    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con


def main(sf_dir: str) -> int:
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # the package of the checkout this file lives in
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from ocr_platform_ray.pipelines.queries import ORACLE_SQL, QUERIES

    con = duckdb_views(sf_dir)

    failures = 0
    for name, fn in QUERIES.items():
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        sql = ORACLE_SQL.get(name)
        if sql is None:
            print(f"ok   {name}: rows-only ({len(got)} rows, cols {sorted(got.columns)})")
            continue
        try:
            want = con.sql(sql).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(want.columns)}")
        elif value_hash(got) != value_hash(want):
            problems.append("value-hash mismatch")
            # show first differing rows for debug
            g = got[sorted(got.columns)].astype(str).apply("|".join, axis=1).sort_values().tolist()
            w = want[sorted(want.columns)].astype(str).apply("|".join, axis=1).sort_values().tolist()
            diff = [(a, b) for a, b in zip(g, w) if a != b][:3]
            for a, b in diff:
                problems.append(f"  ray:{a}  !=  sql:{b}")
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            failures += 1
        else:
            print(f"PASS {name} ({len(got)} rows)")
    ray.shutdown()
    print(f"\n{failures} failures / {len(QUERIES)} queries")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"))
