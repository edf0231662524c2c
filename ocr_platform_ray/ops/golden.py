"""Survivorship merge — the MDM / entity-consolidation "golden record":
collapse every key's row history into one record carrying, per column,
the value from the LATEST row where that column is non-null (record
linkage survivorship, crawl metadata consolidation, profile rollup).
Exactly SQL's ``FIRST(col ORDER BY order DESC, tie DESC) FILTER (WHERE
col IS NOT NULL)`` per column.

Scale shape: ONE bounded ``hash(key) % n_shards`` exchange co-locates
each key's rows (the keyed-window scaffold), then a single vectorized
pass per shard — mergesort by (key, order, tie) and one cython
``groupby().last()`` (pandas ``last`` skips NaN, which IS the
survivorship rule) plus a ``size()`` for the row count.  The exchange
payload is the (key, order, tie, value_cols) projection.  NULL keys
form one group (SQL GROUP BY's rule); ``order_col``/``tie_col`` must be
non-null and total per key.
"""

from __future__ import annotations

import pandas as pd
import ray.data as rd

from .exchange import exchange


def golden_record(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    order_col: str,
    tie_col: str,
    value_cols: list[str],
    n_shards: int = 64,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """One row per key: each ``value_cols`` entry holds the column's
    latest non-null value in the key's (order, tie) timeline (NULL when
    the key never observed it), plus ``n_rows``."""
    if not value_cols:
        raise ValueError("value_cols must name at least one column")
    gcols = list(key_cols)
    vcols = list(value_cols)
    keep = list(dict.fromkeys([*gcols, order_col, tie_col, *vcols]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*gcols, order_col, tie_col], kind="mergesort")
        gb = g.groupby(gcols, sort=False, dropna=False)
        out = gb[vcols].last()  # last non-null per column — survivorship
        out["n_rows"] = gb.size().astype("int64")
        return out.reset_index()

    res = exchange(ds.select_columns(keep), gcols, per_shard, n_shards=n_shards)
    if as_dataset:
        return res
    out = res.to_pandas()
    if len(out) == 0 or out.shape[1] == 0:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                **{c: pd.Series([], dtype="object") for c in vcols},
                "n_rows": pd.Series([], dtype="int64"),
            }
        )
    return out.sort_values(gcols).reset_index(drop=True)
