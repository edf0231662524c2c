"""Range / interval join: match POINT rows to every INTERVAL row whose
[start, end) range contains the point — the general form of the temporal
join family (``asof_join`` in relational.py covers the keyed
latest-at-or-before case; this covers containment against arbitrary,
possibly overlapping windows: sessions, maintenance windows, promo
periods, blast-radius analysis).

Ray Data has no native range join, and an equi-join cannot express one.
The distributed shape is RANGE BUCKETING (the standard interval-join
partitioning, e.g. Chawda et al., ICDE 2014 — processing interval joins
on Map-Reduce):

  * the point domain [lo, hi] is cut into ``n_buckets`` equal ranges;
  * every point lands in exactly ONE bucket (so each matched pair is
    emitted exactly once — no cross-bucket dedup pass);
  * every interval REPLICATES to each bucket its range overlaps, so the
    exchange payload is points + intervals x replication factor, where
    the factor is ~ interval_length / bucket_width + 1.  The documented
    partitioning assumption: intervals are short relative to the point
    domain (sessions/windows, not eras).  Size ``n_buckets`` so the
    typical interval spans O(1) buckets;
  * one ``cogroup`` on the precomputed bucket labels (``key=None``), which
    hands each bucket its points and its intervals as two typed frames;
  * per bucket, ONE vectorized kernel: sort point values, two
    ``np.searchsorted`` calls per interval column give each interval its
    contiguous matching slice, and the pair list materializes with
    repeat/arange arithmetic — no per-row Python anywhere.

Bucket arithmetic is INTEGER for int/datetime domains (datetimes are
viewed as int64 nanoseconds) — float bucket math would lose sub-second
precision at 2024-epoch nanosecond magnitudes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .exchange import SHARD, cogroup


def _to_num(arr) -> np.ndarray:
    """Domain values -> monotone numeric view (datetime64 -> ns int64)."""
    a = np.asarray(arr)
    if a.dtype.kind == "M":
        return a.astype("datetime64[ns]").view("int64")
    if a.dtype.kind in "iu":
        return a.astype("int64")
    return a.astype("float64")


def _scalar_num(v) -> int | float:
    import datetime

    # datetime.datetime: parquet row-group statistics yield these
    if isinstance(v, (pd.Timestamp, np.datetime64, datetime.datetime)):
        return int(pd.Timestamp(v).value)
    return v


def interval_join(
    points: rd.Dataset,
    intervals: rd.Dataset,
    *,
    point_col: str,
    start_col: str,
    end_col: str,
    point_cols: list[str],
    interval_cols: list[str],
    closed: str = "left",
    suffix: str = "_r",
    n_buckets: int = 64,
    bounds: tuple | None = None,
    bucket_combiner=None,
) -> rd.Dataset:
    """Inner range join: one output row per (point, interval) pair with
    start <= point < end (``closed="left"``; "both" makes the end
    inclusive).  Output columns: ``point_cols`` then ``interval_cols``
    (interval columns colliding with point columns get ``suffix``).

    ``bounds=(lo, hi)`` skips the two driver-side min/max column scans
    and MUST cover every point value (pass them from catalog metadata at
    scale); points outside caller-supplied bounds would be clipped into
    edge buckets that their intervals may not replicate to.

    ``bucket_combiner`` is the map-side combine for AGGREGATE consumers:
    a ``pd.DataFrame -> pd.DataFrame`` applied to each bucket's joined
    pairs before emission (it also shapes the empty-bucket schema, so it
    must be dtype-stable on empty input — a vectorized groupby is).  A
    count-per-interval query passes a per-bucket partial count and
    reduces ~|pairs| rows leaving the exchange to ~|intervals spanned|
    partials — at corpus scale the raw pair list of a dense window join
    must never be materialized just to be counted.
    """
    if closed not in ("left", "both"):
        raise ValueError(f"closed must be 'left' or 'both', got {closed!r}")
    pkeep = [point_col] + [c for c in point_cols if c != point_col]
    ikeep = list(dict.fromkeys([start_col, end_col] + interval_cols))
    out_names = {c: (c + suffix if c in point_cols else c) for c in interval_cols}
    out_cols = list(point_cols) + [out_names[c] for c in interval_cols]

    if bounds is None:
        # one execution for both bounds (ds.min + ds.max would be two)
        from ray.data.aggregate import Max, Min

        agg = points.aggregate(Min(point_col), Max(point_col))
        lo, hi = agg[f"min({point_col})"], agg[f"max({point_col})"]
    else:
        lo, hi = bounds
    lo, hi = _scalar_num(lo), _scalar_num(hi)
    is_int = not isinstance(lo, float) and not isinstance(hi, float)
    if is_int:
        width = max(1, (int(hi) - int(lo) + n_buckets) // n_buckets)
    else:
        width = max((hi - lo) / n_buckets, np.finfo("float64").tiny)

    def _bucket_of(x: np.ndarray) -> np.ndarray:
        b = (x - lo) // width if is_int else np.floor((x - lo) / width)
        return np.clip(b, 0, n_buckets - 1).astype("int64")

    def tag_points(b: pd.DataFrame) -> pd.DataFrame:
        return b[pkeep].assign(**{SHARD: _bucket_of(_to_num(b[point_col]))})

    def tag_intervals(b: pd.DataFrame) -> pd.DataFrame:
        s, e = _to_num(b[start_col]), _to_num(b[end_col])
        b0, b1 = _bucket_of(s), _bucket_of(e)
        # drop intervals entirely outside the point domain BEFORE clipping
        raw0 = (s - lo) // width if is_int else np.floor((s - lo) / width)
        raw1 = (e - lo) // width if is_int else np.floor((e - lo) / width)
        keep = (raw1 >= 0) & (raw0 <= n_buckets - 1) & (e >= s)
        sub = b.loc[keep, ikeep].reset_index(drop=True)
        if not len(sub):
            return sub.assign(**{SHARD: np.empty(0, dtype="int64")})
        b0, b1 = b0[keep], b1[keep]
        counts = (b1 - b0 + 1).astype("int64")
        rep = sub.iloc[np.repeat(np.arange(len(sub)), counts)].copy()
        # bucket id per replica: running arange over each [b0, b1] span
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rep[SHARD] = (
            np.arange(int(counts.sum())) - np.repeat(offs, counts) + np.repeat(b0, counts)
        )
        return rep

    p = points.map_batches(tag_points, batch_format="pandas")
    i = intervals.map_batches(tag_intervals, batch_format="pandas")

    side = "right" if closed == "both" else "left"

    def pairs(pg: pd.DataFrame, p_idx, ig: pd.DataFrame, i_idx) -> pd.DataFrame:
        # typed even when empty: both frames keep their side's dtypes, so
        # every bucket emits one schema
        out = pg.iloc[p_idx].reset_index(drop=True)[point_cols]
        iv = ig.iloc[i_idx].reset_index(drop=True)
        for c in interval_cols:
            out[out_names[c]] = iv[c].to_numpy()
        out = out[out_cols]
        return bucket_combiner(out) if bucket_combiner is not None else out

    def per_bucket(pg: pd.DataFrame, ig: pd.DataFrame) -> pd.DataFrame:
        if not len(pg) or not len(ig):
            return pairs(pg, [], ig, [])
        pv = _to_num(pg[point_col])
        order = np.argsort(pv, kind="stable")
        pv = pv[order]
        li = np.searchsorted(pv, _to_num(ig[start_col]), side="left")
        ri = np.searchsorted(pv, _to_num(ig[end_col]), side=side)
        counts = (ri - li).astype("int64")
        total = int(counts.sum())
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        p_idx = order[np.arange(total) - np.repeat(offs, counts) + np.repeat(li, counts)]
        return pairs(pg, p_idx, ig, np.repeat(np.arange(len(ig)), counts))

    return cogroup(p, i, None, per_bucket)


def coalesce_intervals(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    start_col: str,
    end_col: str,
    gap: int | float = 0,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Merge overlapping-or-touching intervals per key (the SQL
    gaps-and-islands pattern): ``[1,5] [4,8] [8,10] [20,25]`` becomes
    ``[1,10] [20,25]``.  The interval-normalization step behind session
    stitching, crawl-window consolidation, span-annotation merging and
    downtime accounting.

    Two intervals merge when the later one starts at or before the
    running maximum end + ``gap`` (``gap=0`` merges touching intervals;
    a positive gap bridges holes up to that size — both inclusive,
    matching the window-cummax SQL formulation ``start > prev_max + gap``
    starts a new island).  Output: one row per island with
    (key..., start=min start, end=max end, n_merged).

    Scale shape: ONE bounded ``hash(key)`` exchange co-locates
    each key's intervals (`_keyed_window`), then a single vectorized pass
    per shard — mergesort by (key, start, end), per-key running-max end
    via cython ``groupby().cummax`` shifted one row, island ids by
    boolean cumsum, island aggregation by one vectorized groupby.  No
    per-key or per-island Python; block-structure independent because
    islands are a pure function of the sorted multiset."""
    from .windows import _keyed_window

    keep = list(dict.fromkeys([*key_cols, start_col, end_col]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [*key_cols, start_col, end_col], kind="mergesort"
        ).reset_index(drop=True)
        gb = g.groupby(key_cols, sort=False)
        # running max end per key, shifted: what this row must exceed to
        # start a new island (datetime64 cummax/shift stay in ns exact)
        prev_max = gb[end_col].cummax().groupby(
            gb.ngroup().to_numpy(), sort=False
        ).shift(1)
        starts = g[start_col]
        if gap:
            bound = prev_max + (
                pd.Timedelta(gap) if starts.dtype.kind == "M" else gap
            )
        else:
            bound = prev_max
        new_island = prev_max.isna().to_numpy() | (
            starts.to_numpy() > bound.to_numpy()
        )
        g["__island"] = np.cumsum(new_island)
        out = g.groupby([*key_cols, "__island"], as_index=False, sort=False).agg(
            **{
                start_col: (start_col, "min"),
                end_col: (end_col, "max"),
                "n_merged": (end_col, "size"),
            }
        )
        out["n_merged"] = out["n_merged"].astype("int64")
        return out.drop(columns="__island")

    return _keyed_window(
        ds, key_cols, keep, per_shard, as_dataset,
        [*key_cols, start_col, end_col],
    )
