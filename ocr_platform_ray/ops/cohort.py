"""Cohort retention — the acquisition-cohort × age matrix behind user /
crawl-source retention analysis: bucket every key (user, host, source)
into the period of its FIRST event, then count how many distinct keys
from each cohort are still active N periods later.

Scale shape: three size-aware reduces and one size-aware join, all on
the house machinery — (1) per-key first period via a per-batch min
combiner into `auto_group_agg` (key-sized output, Dataset past the
probe); (2) `auto_join` back onto the (key, period) projection
(broadcast below the threshold, bucketed exchange above); (3) the
distinct (cohort, offset, key) activity set via a second grouped
reduce; (4) the final (cohort, offset) counts from per-batch partials
of that already-distinct set.  Every exchanged row is a small integer
projection — timestamps reduce to int64 period indices map-side and
the raw event payload never moves.  All counts are exact int64, so a
MIN/JOIN/COUNT-DISTINCT SQL mirror hashes identically.
"""

from __future__ import annotations

import pandas as pd
import ray.data as rd

from .relational import auto_group_agg, auto_join

_US_PER_DAY = 86_400_000_000


def cohort_retention(
    ds: rd.Dataset,
    *,
    key_col: str,
    ts_col: str,
    period_us: int = _US_PER_DAY,
) -> pd.DataFrame:
    """(cohort, offset, n_keys) retention matrix in long form.

    ``cohort`` is the key's first-activity period index
    (``floor(epoch_us / period_us)`` — epoch-microsecond floor division,
    exactly DuckDB ``epoch_us(ts) // period_us`` for the non-negative
    timestamps a crawl carries), ``offset`` the whole periods since that
    cohort, ``n_keys`` the DISTINCT keys from the cohort active at that
    offset (offset 0 is the cohort size by construction).  NULL keys and
    NULL timestamps are dropped.

    The output is (periods × periods)-sized — the pagerank report-output
    contract — while every intermediate stays distributed through the
    size-aware planners."""
    if period_us <= 0:
        raise ValueError(f"period_us must be positive, got {period_us}")

    def proj(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[key_col, ts_col]].dropna()
        p = (
            b[ts_col].to_numpy().astype("datetime64[us]").astype("int64")
            // period_us
        )
        return pd.DataFrame({key_col: b[key_col], "__p": p})

    # consumed by the firsts reduce AND the join probe — run lineage once
    pds = ds.map_batches(proj, batch_format="pandas").materialize()

    firsts = auto_group_agg(
        pds.map_batches(
            lambda b: b.groupby(key_col, as_index=False)["__p"].min(),
            batch_format="pandas",
        ),
        [key_col],
        {"cohort": ("__p", "min")},
    )
    if isinstance(firsts, pd.DataFrame):
        if len(firsts) == 0:
            return pd.DataFrame(
                {
                    "cohort": pd.Series([], dtype="int64"),
                    "offset": pd.Series([], dtype="int64"),
                    "n_keys": pd.Series([], dtype="int64"),
                }
            )
        firsts = rd.from_pandas(firsts)

    joined = auto_join(pds, firsts, key_col)

    def activity(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "cohort": b["cohort"].to_numpy(dtype="int64"),
                "offset": b["__p"].to_numpy(dtype="int64")
                - b["cohort"].to_numpy(dtype="int64"),
                key_col: b[key_col],
            }
        )
        return out.drop_duplicates()

    distinct = auto_group_agg(
        joined.map_batches(activity, batch_format="pandas"),
        ["cohort", "offset", key_col],
        {"__n": (key_col, "count")},
    )

    if isinstance(distinct, pd.DataFrame):
        out = (
            distinct.groupby(["cohort", "offset"], as_index=False)
            .size()
            .rename(columns={"size": "n_keys"})
        )
    else:
        partials = distinct.map_batches(
            lambda b: b.groupby(["cohort", "offset"], as_index=False)
            .size()
            .rename(columns={"size": "n_keys"}),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials, ["cohort", "offset"], {"n_keys": ("n_keys", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    if out.shape[1] == 0 or len(out) == 0:
        return pd.DataFrame(
            {
                "cohort": pd.Series([], dtype="int64"),
                "offset": pd.Series([], dtype="int64"),
                "n_keys": pd.Series([], dtype="int64"),
            }
        )
    out = out.astype({"cohort": "int64", "offset": "int64", "n_keys": "int64"})
    return out.sort_values(["cohort", "offset"]).reset_index(drop=True)
