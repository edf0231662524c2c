"""One-pass dataset profiling (the engine's ``ANALYZE``): per-column
min / max / null count / row count — the zone-map statistics a warehouse
collects before planning, and the first sanity pass a 100 TB ingest runs.

Scale shape: ONE ``map_batches`` pass emits one fixed-size partial row
per (column, batch) — min/max/nulls/count are all mergeable — and the
driver reduces |columns| x n_batches tiny rows in a single vectorized
groupby.  Zero exchanges; the data never moves.  Approximate distinct
counts compose separately via `ops/sketch.hll_distinct` (mergeable HLL
registers) when requested — kept out of the exact profile so the exact
half stays SQL-oracle-comparable."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .exchange import exchange
from .relational import auto_group_agg, grouped_percentile_exact


def _render(v) -> str | None:
    """Stable cross-engine string rendering for min/max values: ints must
    not print as floats (pandas upcasts int columns with NaNs)."""
    if v is None or (isinstance(v, float) and pd.isna(v)):
        return None
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def dataset_profile(
    ds: rd.Dataset,
    columns: list[str],
) -> pd.DataFrame:
    """Profile ``columns``: one row per column with ``min_v`` / ``max_v``
    (string-rendered, None for all-null), ``n_null`` and ``n_rows``.
    Deterministic and block-structure independent (min/max/sum are
    associative)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in columns:
            s = b[c]
            nn = s.notna()
            has = bool(nn.any())
            rows.append(
                {
                    "col": c,
                    "min_v": s[nn].min() if has else None,
                    "max_v": s[nn].max() if has else None,
                    "n_null": int((~nn).sum()),
                    "n_rows": int(len(s)),
                }
            )
        return pd.DataFrame(rows)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "col": pd.Series(columns, dtype="object"),
                "min_v": pd.Series([None] * len(columns), dtype="object"),
                "max_v": pd.Series([None] * len(columns), dtype="object"),
                "n_null": pd.Series([0] * len(columns), dtype="int64"),
                "n_rows": pd.Series([0] * len(columns), dtype="int64"),
            }
        )
    # per-column reduce in plain python: the min_v/max_v partial column is
    # object-dtype MIXED across columns (ints next to strings), which
    # pandas' cython/numpy groupby-min chokes on; |columns| x n_batches
    # rows make this trivially driver-sized
    def _clean(vals):
        return [
            v
            for v in vals
            if v is not None and not (isinstance(v, float) and pd.isna(v))
        ]

    rows = []
    for c, grp in parts.groupby("col", sort=True):
        mns, mxs = _clean(grp["min_v"]), _clean(grp["max_v"])
        rows.append(
            {
                "col": c,
                "min_v": _render(min(mns)) if mns else None,
                "max_v": _render(max(mxs)) if mxs else None,
                "n_null": int(grp["n_null"].sum()),
                "n_rows": int(grp["n_rows"].sum()),
            }
        )
    g = pd.DataFrame(rows)
    g["n_null"] = g["n_null"].astype("int64")
    g["n_rows"] = g["n_rows"].astype("int64")
    return g.reset_index(drop=True)


def _scaled_int(x: np.ndarray, scale: int) -> np.ndarray:
    """Half-away-from-zero integer scaling (the repo's integer-cents
    contract; np.rint would be banker's rounding and disagree with SQL's
    FLOOR(v*scale + 0.5) at exact halves)."""
    a = np.asarray(x, dtype="float64")
    return np.copysign(np.floor(np.abs(a) * scale + 0.5), a).astype("int64")


def grouped_moments(
    ds: "rd.Dataset",
    value_col: str,
    group_cols: list[str],
    *,
    scale: int = 100,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Exact per-group VAR_SAMP / STDDEV_SAMP / AVG — the dispersion
    aggregates behind quality-score audits, exactly SQL-mirrorable.

    Floats don't sum associatively, so the sums are taken over SCALED
    INTEGERS (``round(v * scale)`` as int64 — the repo's integer-cents
    contract): n, Σv and Σv² are then order- and block-structure
    independent, and only the FINAL expressions touch doubles — each one
    an IEEE op a SQL oracle repeats verbatim::

        mean   = (Σv / n) / scale
        var    = (Σv² − Σv·Σv/n) / (n−1) / scale²
        stddev = sqrt(var)

    Domain bound (documented, asserted per batch): |round(v·scale)| must
    stay below 2³¹ and Σv² below 2⁶³ — i.e. scaled values to ~2e9 with
    corpus sizes to ~1e9 rows at |v·scale| ≤ 3e6.  Beyond that, raise
    ``scale`` precision down or split the reduce per partition.

    Scale shape: map-side combiner (one (group, n, s, s2) row per group
    per batch) + the size-aware ``auto_group_agg`` finish — the values
    never move.  Groups with a single row get NaN variance (SQL's NULL).
    """
    gcols = list(group_cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = _scaled_int(b[value_col].to_numpy(), scale)
        if len(v) and int(np.abs(v).max()) >= (1 << 31):
            raise ValueError(
                f"scaled |{value_col}| exceeds the 2^31 exact-sum domain"
            )
        sub = b[gcols].copy()
        sub["__v"] = v
        sub["__v2"] = v * v
        sub["__av"] = np.abs(v)
        return sub.groupby(gcols, as_index=False).agg(
            n=("__v", "size"), s=("__v", "sum"), s2=("__v2", "sum"),
            mx=("__av", "max"),
        )

    reduced = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        gcols,
        {"n": ("n", "sum"), "s": ("s", "sum"), "s2": ("s2", "sum"),
         "mx": ("mx", "max")},
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )
    if not isinstance(reduced, pd.DataFrame):
        reduced = reduced.to_pandas()
    # complete overflow guard: n·max² upper-bounds Σv², so this exact
    # Python-int check catches every case where the int64 sums could
    # have wrapped silently (the per-batch 2^31 assert alone does not)
    for _, r in reduced.iterrows():
        if int(r["n"]) * int(r["mx"]) ** 2 >= (1 << 63):
            raise ValueError(
                f"Σv² domain exceeded for a {gcols} group "
                f"(n={int(r['n'])}, max|v·scale|={int(r['mx'])}); "
                "reduce `scale`"
            )
    n = reduced["n"].to_numpy(dtype="float64")
    s = reduced["s"].to_numpy(dtype="float64")
    s2 = reduced["s2"].to_numpy(dtype="float64")
    out = reduced[gcols].copy()
    out["n"] = reduced["n"].astype("int64")
    out["mean_v"] = (s / n) / float(scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        var = (s2 - s * s / n) / (n - 1.0) / float(scale * scale)
        var = np.where(n > 1.0, var, np.nan)
        out["var_v"] = var
        out["stddev_v"] = np.sqrt(var)
    return out.sort_values(gcols).reset_index(drop=True)


def grouped_corr(
    ds: "rd.Dataset",
    x_col: str,
    y_col: str,
    group_cols: list[str],
    *,
    x_scale: int = 100,
    y_scale: int = 100,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Exact per-group Pearson CORR / COVAR_SAMP via the same
    scaled-integer-sum contract as `grouped_moments`: n, Σx, Σy, Σxy,
    Σx², Σy² are exact int64 sums of ``round(v · scale)`` values, and the
    final doubles repeat SQL's expression verbatim::

        covar = (Σxy − Σx·Σy/n) / (n−1) / (x_scale·y_scale)
        corr  = (Σxy − Σx·Σy/n)
                / (sqrt(Σx² − Σx²/n) · sqrt(Σy² − Σy²/n))

    Domain bound: |x·x_scale| · |y·y_scale| · n_rows and each squared
    sum must stay below 2⁶³ (asserted per batch at 2³¹ per value).  Pick
    scales so the LARGER column stays small — corr is scale-invariant up
    to the sqrt rounding, which the SQL mirror repeats anyway.

    Scale shape: one fixed-width combiner row per (group, batch) + the
    size-aware finish; values never move.  Degenerate groups (n < 2 or a
    zero-variance side) get NaN corr, matching SQL NULL."""
    gcols = list(group_cols)
    reduced = _cross_moment_sums(
        ds, x_col, y_col, gcols, x_scale, y_scale,
        driver_threshold_rows=driver_threshold_rows, n_shards=n_shards,
    )
    n = reduced["n"].to_numpy(dtype="float64")
    sx = reduced["sx"].to_numpy(dtype="float64")
    sy = reduced["sy"].to_numpy(dtype="float64")
    sxy = reduced["sxy"].to_numpy(dtype="float64")
    sxx = reduced["sxx"].to_numpy(dtype="float64")
    syy = reduced["syy"].to_numpy(dtype="float64")
    out = reduced[gcols].copy()
    out["n"] = reduced["n"].astype("int64")
    with np.errstate(invalid="ignore", divide="ignore"):
        num = sxy - sx * sy / n
        out["covar_xy"] = np.where(
            n > 1.0, num / (n - 1.0) / float(x_scale * y_scale), np.nan
        )
        den = np.sqrt(sxx - sx * sx / n) * np.sqrt(syy - sy * sy / n)
        corr = num / den
        out["corr_xy"] = np.where((n > 1.0) & (den > 0.0), corr, np.nan)
    return out.sort_values(gcols).reset_index(drop=True)


def _cross_moment_sums(
    ds: "rd.Dataset",
    x_col: str,
    y_col: str,
    gcols: list[str],
    x_scale: int,
    y_scale: int,
    *,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """The shared per-group sufficient-statistic reduce behind
    `grouped_corr` and `grouped_linreg`: exact int64 (n, Σx, Σy, Σxy,
    Σx², Σy²) over ``round(v · scale)`` values — one fixed-width combiner
    row per (group, batch), size-aware finish, per-batch 2³¹ value guard
    and a complete post-reduce n·max² overflow check."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = _scaled_int(b[x_col].to_numpy(), x_scale)
        y = _scaled_int(b[y_col].to_numpy(), y_scale)
        for v, c in ((x, x_col), (y, y_col)):
            if len(v) and int(np.abs(v).max()) >= (1 << 31):
                raise ValueError(f"scaled |{c}| exceeds the 2^31 exact-sum domain")
        sub = b[gcols].copy()
        sub["__x"], sub["__y"] = x, y
        sub["__xy"], sub["__xx"], sub["__yy"] = x * y, x * x, y * y
        sub["__ax"], sub["__ay"] = np.abs(x), np.abs(y)
        return sub.groupby(gcols, as_index=False).agg(
            n=("__x", "size"),
            sx=("__x", "sum"),
            sy=("__y", "sum"),
            sxy=("__xy", "sum"),
            sxx=("__xx", "sum"),
            syy=("__yy", "sum"),
            mxx=("__ax", "max"),
            mxy=("__ay", "max"),
        )

    aggs = {c: (c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")}
    aggs.update({"mxx": ("mxx", "max"), "mxy": ("mxy", "max")})
    reduced = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        gcols,
        aggs,
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )
    if not isinstance(reduced, pd.DataFrame):
        reduced = reduced.to_pandas()
    # complete overflow guard (see grouped_moments): n·max² / n·mx·my
    # upper-bound every squared/cross sum
    for _, r in reduced.iterrows():
        n_, ax, ay = int(r["n"]), int(r["mxx"]), int(r["mxy"])
        if max(n_ * ax * ax, n_ * ay * ay, n_ * ax * ay) >= (1 << 63):
            raise ValueError(
                f"cross-moment domain exceeded for a {gcols} group "
                f"(n={n_}, max|x·scale|={ax}, max|y·scale|={ay}); "
                "reduce the scales"
            )
    return reduced


def grouped_linreg(
    ds: "rd.Dataset",
    x_col: str,
    y_col: str,
    group_cols: list[str],
    *,
    x_scale: int = 100,
    y_scale: int = 100,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Exact per-group ordinary-least-squares fit (the SQL REGR_SLOPE /
    REGR_INTERCEPT / R² family) over the `grouped_corr`
    sufficient-statistic contract — the regression runs over the SCALED
    integer values (``round(v · scale)``), so every sum is exact and the
    final doubles repeat a SQL mirror's expression verbatim::

        num       = Σxy − Σx·Σy/n          denx = Σxx − Σx²/n
        deny      = Σyy − Σy²/n
        slope     = num / denx · (x_scale / y_scale)   [original units]
        intercept = (Σy − num/denx·Σx) / n / y_scale
        r2        = num·num / (denx·deny)

    Degenerate groups (n < 2, zero x-variance; zero y-variance for r2)
    get NaN, matching SQL NULL.  Same scale shape and overflow guards as
    `grouped_corr`: one fixed-width combiner row per (group, batch),
    values never move."""
    gcols = list(group_cols)
    reduced = _cross_moment_sums(
        ds, x_col, y_col, gcols, x_scale, y_scale,
        driver_threshold_rows=driver_threshold_rows, n_shards=n_shards,
    )
    n = reduced["n"].to_numpy(dtype="float64")
    sx = reduced["sx"].to_numpy(dtype="float64")
    sy = reduced["sy"].to_numpy(dtype="float64")
    sxy = reduced["sxy"].to_numpy(dtype="float64")
    sxx = reduced["sxx"].to_numpy(dtype="float64")
    syy = reduced["syy"].to_numpy(dtype="float64")
    out = reduced[gcols].copy()
    out["n"] = reduced["n"].astype("int64")
    factor = float(x_scale) / float(y_scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        num = sxy - sx * sy / n
        denx = sxx - sx * sx / n
        deny = syy - sy * sy / n
        ok = (n > 1.0) & (denx > 0.0)
        out["slope"] = np.where(ok, num / denx * factor, np.nan)
        out["intercept"] = np.where(
            ok, (sy - num / denx * sx) / n / float(y_scale), np.nan
        )
        out["r2"] = np.where(ok & (deny > 0.0), num * num / (denx * deny), np.nan)
    return out.sort_values(gcols).reset_index(drop=True)


def grouped_histogram(
    ds: "rd.Dataset",
    value_col: str,
    *,
    lo: float,
    hi: float,
    n_bins: int,
    group_cols: list[str] | None = None,
    bin_col: str = "bin",
    count_col: str = "n",
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
):
    """Fixed-width histogram of ``value_col`` over ``[lo, hi)``,
    optionally per group — the distribution pass behind quality-score
    cutoffs and skew audits.  Bin assignment is ``min(floor((v - lo) /
    w), n_bins - 1)`` with ``w = (hi - lo) / n_bins`` — every step one
    IEEE double op, so a SQL mirror computes the identical bin (the
    LEAST guard absorbs the one-ulp case where ``(v - lo) / w`` rounds
    up to ``n_bins`` at the top edge).  Rows outside ``[lo, hi)`` and
    NaNs are dropped (SQL: a WHERE clause).  Only observed bins are
    emitted, matching a GROUP BY.

    Scale shape: map-side combiner (one (group, bin, n) row per group x
    bin per batch — bounded by n_bins x |groups|) + the size-aware
    `auto_group_agg` finish; the values themselves never move."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi})")
    gcols = list(group_cols or [])
    w = (hi - lo) / n_bins

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value_col].to_numpy(dtype="float64")
        keep = (v >= lo) & (v < hi)  # NaN compares False on both sides
        sub = b.loc[keep, gcols].copy() if gcols else pd.DataFrame(index=b.index[keep])
        sub[bin_col] = np.minimum(
            np.floor((v[keep] - lo) / w), n_bins - 1
        ).astype("int64")
        return sub.groupby([*gcols, bin_col], as_index=False).agg(
            **{count_col: (bin_col, "size")}
        )

    reduced = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        [*gcols, bin_col],
        {count_col: (count_col, "sum")},
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )
    if not isinstance(reduced, pd.DataFrame):
        reduced = reduced.to_pandas()
    reduced[count_col] = reduced[count_col].astype("int64")
    return reduced.sort_values([*gcols, bin_col]).reset_index(drop=True)


def key_skew_profile(
    ds: rd.Dataset,
    key_cols: str | list[str],
    *,
    top: int = 10,
    method: str = "exact",
    hot_fraction: float = 0.01,
    mg_k: int = 4096,
) -> dict:
    """Pre-shuffle skew diagnostic: would a groupby/join on ``key_cols``
    hot-spot one shard?  Returns ``{"n_rows", "n_keys", "max_count",
    "mean_count", "max_fraction", "top" (DataFrame value/count desc,
    ties to smallest value), "recommendation"}``.

    The operational complement of ``explain_routes``: planners tell you
    which route ran; this tells you whether the KEY DISTRIBUTION will
    sink the exchange route (CLAUDE.md's documented failure mode — one
    bucket holding a hot key's whole group).

    ``method="exact"``: per-batch combiner counts -> the size-aware
    finish (key-cardinality-sized, exact — also SQL-mirrorable).
    ``method="sketch"``: zero-exchange Misra-Gries (``heavy_hitters``)
    for corpora whose DISTINCT KEY SET outgrows the exchange budget —
    max_count/top become lower/upper-bounded estimates and n_keys is
    not reported (None).

    ``recommendation``: "broadcast-hot-keys" when the hottest key holds
    > ``hot_fraction`` of all rows (the hot-key broadcast/salting regime),
    else "hash-partition" (uniform enough for the standard exchange)."""
    from .relational import auto_group_agg, grouped_percentile_exact
    from .sketch import heavy_hitters

    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    if method == "sketch":
        if len(keys) != 1:
            raise ValueError("sketch route profiles a single key column")
        hh = heavy_hitters(ds, keys[0], k=mg_k, top=top)
        n_rows = int(ds.count())
        max_count = int(hh["count_ub"].max()) if len(hh) else 0
        top_df = hh.rename(columns={"count_ub": "count", "v": keys[0]})[
            [keys[0], "count"]
        ]
        result = {
            "n_rows": n_rows,
            "n_keys": None,
            "max_count": max_count,
            "mean_count": None,
            "max_fraction": max_count / n_rows if n_rows else 0.0,
            "top": top_df,
        }
    else:
        def partial(b: pd.DataFrame) -> pd.DataFrame:
            if len(b) == 0 and not all(k in b.columns for k in keys):
                # column-less empty block; a TYPED empty falls through to
                # the groupby (keeps key dtypes route-consistent)
                return pd.DataFrame(
                    {**{k: pd.Series([], dtype=object) for k in keys},
                     "__n": pd.Series([], dtype="int64")}
                )
            return b.groupby(keys, as_index=False).size().rename(columns={"size": "__n"})

        counts = auto_group_agg(
            ds.map_batches(partial, batch_format="pandas"), keys, {"count": ("__n", "sum")}
        )
        cdf = counts if isinstance(counts, pd.DataFrame) else counts.to_pandas()
        n_rows = int(cdf["count"].sum())
        n_keys = int(len(cdf))
        max_count = int(cdf["count"].max()) if n_keys else 0
        top_df = (
            cdf.sort_values(["count", *keys], ascending=[False] + [True] * len(keys))
            .head(top)
            .reset_index(drop=True)
        )
        result = {
            "n_rows": n_rows,
            "n_keys": n_keys,
            "max_count": max_count,
            "mean_count": n_rows / n_keys if n_keys else 0.0,
            "max_fraction": max_count / n_rows if n_rows else 0.0,
            "top": top_df,
        }
    result["recommendation"] = (
        "broadcast-hot-keys" if result["max_fraction"] > hot_fraction else "hash-partition"
    )
    return result


def welch_t_test(
    ds: "rd.Dataset",
    value_col: str,
    variant_col: str,
    variant_a,
    variant_b,
    group_cols: list[str] | None = None,
    *,
    scale: int = 100,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Welch's unequal-variance two-sample t statistic (the A/B
    experiment readout) per group: for each ``group_cols`` cell, compare
    ``value_col`` between rows where ``variant_col`` equals
    ``variant_a`` vs ``variant_b``.

    Rides `grouped_moments`' exact scaled-integer contract — n, Σv, Σv²
    per (group, variant) through the size-aware finish — so the final
    doubles (mean, var, then t and the Welch–Satterthwaite df) are each
    single IEEE expressions a SQL mirror repeats verbatim::

        se²  = var_a/n_a + var_b/n_b
        t    = (mean_a − mean_b) / sqrt(se²)
        df   = se²·se² / ((var_a/n_a)²/(n_a−1) + (var_b/n_b)²/(n_b−1))

    Groups missing a variant, or where either side has < 2 rows, are
    dropped (SQL's inner join + n > 1 predicate).  Output is group-dim
    sized (the report contract)."""
    gcols = list(group_cols or [])

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        out = b[b[variant_col].isin([variant_a, variant_b])]
        return out[[*gcols, variant_col, value_col]]

    m = grouped_moments(
        ds.map_batches(keep, batch_format="pandas"),
        value_col,
        [*gcols, variant_col],
        scale=scale,
        n_shards=n_shards,
    )
    m = m[m["n"] > 1]
    a = m[m[variant_col] == variant_a].drop(columns=variant_col)
    b = m[m[variant_col] == variant_b].drop(columns=variant_col)
    if gcols:
        j = a.merge(b, on=gcols, suffixes=("_a", "_b"))
    else:
        a = a.assign(__k=0)
        b = b.assign(__k=0)
        j = a.merge(b, on="__k", suffixes=("_a", "_b")).drop(columns="__k")
    cols = [*gcols, "n_a", "n_b", "mean_a", "mean_b", "t", "df"]
    if len(j) == 0:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n_a": pd.Series([], dtype="int64"),
                "n_b": pd.Series([], dtype="int64"),
                "mean_a": pd.Series([], dtype="float64"),
                "mean_b": pd.Series([], dtype="float64"),
                "t": pd.Series([], dtype="float64"),
                "df": pd.Series([], dtype="float64"),
            }
        )
    na = j["n_a"].to_numpy(dtype="float64")
    nb = j["n_b"].to_numpy(dtype="float64")
    va = j["var_v_a"].to_numpy(dtype="float64") / na
    vb = j["var_v_b"].to_numpy(dtype="float64") / nb
    se2 = va + vb
    j = j.rename(columns={"mean_v_a": "mean_a", "mean_v_b": "mean_b"})
    # each line one SQL-mirrorable IEEE expression
    j["t"] = (
        j["mean_a"].to_numpy(dtype="float64")
        - j["mean_b"].to_numpy(dtype="float64")
    ) / np.sqrt(se2)
    j["df"] = (se2 * se2) / (
        (va * va) / (na - 1.0) + (vb * vb) / (nb - 1.0)
    )
    out = j[cols].copy()
    out["n_a"] = out["n_a"].astype("int64")
    out["n_b"] = out["n_b"].astype("int64")
    sort = gcols if gcols else ["t"]
    return out.sort_values(sort).reset_index(drop=True)


def grouped_mad_outliers(
    ds: "rd.Dataset",
    group_cols: list[str],
    value_col: str,
    *,
    k: float = 3.0,
    keep_cols: list[str] | None = None,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Robust per-group outlier detection by median absolute deviation:
    a row is an outlier when ``|v − median| > k · MAD`` with both the
    median and the MAD selected by the exact ``quantile_disc`` position
    rule (``max(1, ceil(0.5·m))``) — position selection makes both
    statistics exact data values, so the flag is a pure comparison of
    identically-derived doubles and a ROW_NUMBER SQL mirror matches
    bit-for-bit.  The robust alternative to z-scores for heavy-tailed
    quality signals (a few giant documents cannot drag the threshold).

    Scale shape: two `grouped_percentile_exact` passes (one keyed
    exchange each — same skew caveat: prefer the sketch route for a
    dominant group), with the group-dim (median, MAD) tables broadcast
    (`ray.put`) into map-only deviation/flag passes.  Returns the
    outlier rows with their group's median and MAD attached."""
    gcols = list(group_cols)
    carry = list(dict.fromkeys([*(keep_cols or []), *gcols, value_col]))

    proj = ds.map_batches(
        lambda b: b[carry].dropna(subset=[*gcols, value_col]),
        batch_format="pandas",
    ).materialize()  # consumed by both percentile passes + the flag pass

    med = grouped_percentile_exact(proj, gcols, value_col, [0.5],
                                   n_shards=n_shards)
    med = med.rename(columns={value_col: "med"}).drop(columns="q")
    med_ref = ray.put(med)

    def absdev(b: pd.DataFrame) -> pd.DataFrame:
        m = b.merge(ray.get(med_ref), on=gcols)
        m["__d"] = np.abs(
            m[value_col].to_numpy(dtype="float64")
            - m["med"].to_numpy(dtype="float64")
        )
        return m

    mad = grouped_percentile_exact(
        proj.map_batches(absdev, batch_format="pandas"), gcols, "__d", [0.5],
        n_shards=n_shards,
    )
    mad = mad.rename(columns={"__d": "mad"}).drop(columns="q")
    mad_ref = ray.put(mad)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        m = absdev(b).merge(ray.get(mad_ref), on=gcols)
        return m[m["__d"].to_numpy() > k * m["mad"].to_numpy()].drop(
            columns="__d"
        )

    out = proj.map_batches(flag, batch_format="pandas").to_pandas()
    if len(out) == 0:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in carry},
                "med": pd.Series([], dtype="float64"),
                "mad": pd.Series([], dtype="float64"),
            }
        )
    return out.sort_values([*gcols, value_col]).reset_index(drop=True)


def grouped_scale(
    ds: "rd.Dataset",
    group_cols: list[str],
    value_col: str,
    *,
    method: str = "zscore",
    scale: int = 100,
    keep_cols: list[str] | None = None,
    out_col: str = "scaled",
    n_shards: int = 64,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Per-group feature scaling — the ML-preprocessing normalization
    pass: ``method="zscore"`` maps v to ``(v − mean)/stddev`` with the
    moments from `grouped_moments`' exact scaled-integer contract;
    ``method="minmax"`` maps to ``(v − min)/(max − min)`` with exact
    selected extrema.  Degenerate groups (stddev 0 / max == min / n < 2)
    yield NULL, matching the SQL CASE gate.  Every double is one
    mirrored IEEE expression over identically-derived operands, so a
    moments-CTE SQL oracle hashes identically.

    Scale shape: one combiner reduce for the group-dim statistics table
    (the report contract), broadcast via ``ray.put`` into a map-only
    transform — the values themselves never move."""
    if method not in ("zscore", "minmax"):
        raise ValueError(f"method must be 'zscore' or 'minmax', got {method}")
    gcols = list(group_cols)
    carry = list(dict.fromkeys([*(keep_cols or []), *gcols, value_col]))

    proj = ds.map_batches(
        lambda b: b[carry].dropna(subset=[*gcols, value_col]),
        batch_format="pandas",
    ).materialize()  # consumed by the stats reduce AND the transform

    if method == "zscore":
        m = grouped_moments(proj, value_col, gcols, scale=scale,
                            n_shards=n_shards)
        stats = m[[*gcols, "mean_v", "stddev_v"]]
    else:
        red = auto_group_agg(
            proj.map_batches(
                lambda b: b.groupby(gcols, as_index=False)[value_col].agg(
                    mn="min", mx="max"
                ),
                batch_format="pandas",
            ),
            gcols,
            {"mn": ("mn", "min"), "mx": ("mx", "max")},
            n_shards=n_shards,
        )
        stats = red if isinstance(red, pd.DataFrame) else red.to_pandas()
    stats_ref = ray.put(stats)

    def transform(b: pd.DataFrame) -> pd.DataFrame:
        m = b.merge(ray.get(stats_ref), on=gcols)
        v = m[value_col].to_numpy(dtype="float64")
        if method == "zscore":
            sd = m["stddev_v"].to_numpy(dtype="float64")
            with np.errstate(invalid="ignore", divide="ignore"):
                z = (v - m["mean_v"].to_numpy(dtype="float64")) / sd
            m[out_col] = np.where(sd > 0, z, np.nan)
            m = m.drop(columns=["mean_v", "stddev_v"])
        else:
            mn = m["mn"].to_numpy(dtype="float64")
            mx = m["mx"].to_numpy(dtype="float64")
            with np.errstate(invalid="ignore", divide="ignore"):
                z = (v - mn) / (mx - mn)
            m[out_col] = np.where(mx > mn, z, np.nan)
            m = m.drop(columns=["mn", "mx"])
        return m

    res = proj.map_batches(transform, batch_format="pandas")
    if as_dataset:
        return res
    out = res.to_pandas()
    if len(out) == 0:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in carry},
                out_col: pd.Series([], dtype="float64"),
            }
        )
    return out.sort_values([*gcols, value_col]).reset_index(drop=True)


def grouped_autocorr(
    ds: "rd.Dataset",
    value_col: str,
    group_cols: list[str],
    *,
    order_col: str,
    tie_col: str,
    lag: int = 1,
    value_scale: int = 100,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Exact per-group lag-``k`` autocorrelation — the time-series
    seasonality/persistence readout: Pearson corr between each key's
    ordered value series and itself shifted by ``lag`` positions (SQL's
    ``CORR(v, LAG(v, k) OVER (PARTITION BY key ORDER BY order, tie))``)
    under the repo's exact scaled-integer moment contract, so the final
    doubles repeat the SQL expression verbatim and hash-match.

    NULL values drop BEFORE pairing (the lag walks the key's non-null
    timeline); keys with fewer than ``lag + 2`` observations or a
    zero-variance side get NaN acf, matching SQL NULL.

    Scale shape: ONE bounded ``hash(key) % n_shards`` exchange co-locates
    each key's rows (the keyed-window scaffold); per shard a single
    mergesort + cython ``groupby().shift(lag)`` forms the pairs and the
    per-key exact int64 (n, Σx, Σy, Σxy, Σx², Σy²) — each key lives in
    exactly one shard, so the shard output is already final per key and
    only the key-dim moment table reaches the driver."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    gcols = list(group_cols)
    keep = list(dict.fromkeys([*gcols, order_col, tie_col, value_col]))

    def valued(b: pd.DataFrame) -> pd.DataFrame:
        out = b[keep]
        return out[out[value_col].notna()]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*gcols, order_col, tie_col], kind="mergesort")
        x = _scaled_int(g[value_col].to_numpy(), value_scale)
        if len(x) and int(np.abs(x).max()) >= (1 << 31):
            raise ValueError(
                f"scaled |{value_col}| exceeds the 2^31 exact-sum domain"
            )
        g = g.assign(__x=x)
        y = g.groupby(gcols, sort=False, dropna=False)["__x"].shift(lag)
        m = y.notna().to_numpy()
        sub = g[m]
        xv = sub["__x"].to_numpy()
        yv = y.to_numpy()[m].astype("int64")
        p = sub[gcols].copy()
        p["__x"], p["__y"] = xv, yv
        p["__xy"], p["__xx"], p["__yy"] = xv * yv, xv * xv, yv * yv
        p["__ax"] = np.abs(xv)
        out = p.groupby(gcols, as_index=False, dropna=False).agg(
            n=("__x", "size"),
            sx=("__x", "sum"),
            sy=("__y", "sum"),
            sxy=("__xy", "sum"),
            sxx=("__xx", "sum"),
            syy=("__yy", "sum"),
            mx=("__ax", "max"),
        )
        return out

    reduced = exchange(
        ds.map_batches(valued, batch_format="pandas"), gcols, per_shard, n_shards=n_shards
    ).to_pandas()
    if len(reduced) == 0 or "n" not in reduced.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n_pairs": pd.Series([], dtype="int64"),
                "acf": pd.Series([], dtype="float64"),
            }
        )
    for _, r in reduced.iterrows():
        n_, ax = int(r["n"]), int(r["mx"])
        if n_ * ax * ax >= (1 << 63):
            raise ValueError(
                f"autocorr moment domain exceeded for a {gcols} group "
                f"(n={n_}, max|v·scale|={ax}); reduce value_scale"
            )
    n = reduced["n"].to_numpy(dtype="float64")
    sx = reduced["sx"].to_numpy(dtype="float64")
    sy = reduced["sy"].to_numpy(dtype="float64")
    sxy = reduced["sxy"].to_numpy(dtype="float64")
    sxx = reduced["sxx"].to_numpy(dtype="float64")
    syy = reduced["syy"].to_numpy(dtype="float64")
    out = reduced[gcols].copy()
    out["n_pairs"] = reduced["n"].astype("int64")
    with np.errstate(invalid="ignore", divide="ignore"):
        num = sxy - sx * sy / n
        den = np.sqrt(sxx - sx * sx / n) * np.sqrt(syy - sy * sy / n)
        acf = num / den
        out["acf"] = np.where((n > 1.0) & (den > 0.0), acf, np.nan)
    return out.sort_values(gcols).reset_index(drop=True)


def grouped_winsorize(
    ds: "rd.Dataset",
    group_cols: list[str],
    value_col: str,
    *,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    keep_cols: list[str] | None = None,
    out_col: str = "winsorized",
    n_shards: int = 64,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Per-group winsorization — the outlier-robust preprocessing
    complement of `grouped_scale`: clip each value into
    ``[quantile_disc(q_lo), quantile_disc(q_hi)]`` of its group.  Both
    cutoffs come from `ops/relational.grouped_percentile_exact`'s
    position rule (``max(1, ceil(q·m))``), so they are DATA VALUES —
    the clipped result is a pure selection, never a computed float, and
    a ROW_NUMBER-position SQL oracle hashes identically.

    Scale shape: two grouped-percentile exchanges produce the group-dim
    cutoff table, broadcast via ``ray.put`` into a map-only clip — the
    values themselves never move (the `grouped_scale` shape).  NULL
    values / NULL group keys drop (the SQL mirror's WHERE)."""
    if not (0.0 <= q_lo <= q_hi <= 1.0):
        raise ValueError("need 0 <= q_lo <= q_hi <= 1")
    gcols = list(group_cols)
    carry = list(dict.fromkeys([*(keep_cols or []), *gcols, value_col]))

    proj = ds.map_batches(
        lambda b: b[carry].dropna(subset=[*gcols, value_col]),
        batch_format="pandas",
    ).materialize()
    cuts = grouped_percentile_exact(
        proj, gcols, value_col, [q_lo, q_hi], n_shards=n_shards
    )
    lo = cuts[cuts["q"] == q_lo].set_index(gcols)[value_col]
    hi = cuts[cuts["q"] == q_hi].set_index(gcols)[value_col]
    table = pd.DataFrame({"lo": lo, "hi": hi}).reset_index()
    handle = ray.put(table)

    def clip(b: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(handle)
        m = b.merge(t, on=gcols, how="left")
        v = m[value_col].to_numpy(dtype="float64")
        out = np.minimum(
            np.maximum(v, m["lo"].to_numpy(dtype="float64")),
            m["hi"].to_numpy(dtype="float64"),
        )
        m[out_col] = out
        return m.drop(columns=["lo", "hi"])

    res = proj.map_batches(clip, batch_format="pandas")
    if as_dataset:
        return res
    out = res.to_pandas()
    if len(out) == 0:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in carry},
                out_col: pd.Series([], dtype="float64"),
            }
        )
    return out.sort_values([*gcols, value_col]).reset_index(drop=True)


def grouped_gini(
    ds: "rd.Dataset",
    group_cols: list[str],
    value_col: str,
    *,
    scale: int = 100,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Exact per-group Gini concentration (the inequality readout —
    source dominance in a corpus mix, revenue concentration per segment)
    over NON-NEGATIVE values, in the rank form

        G = 2·Σ i·x_(i) / (n · Σx) − (n + 1)/n

    with x sorted ascending and i the 1-based rank.  Both Σ are EXACT
    int64 sums of scaled integers (ties commute: swapping equal values'
    ranks leaves Σ i·x unchanged), and the final double is one mirrored
    IEEE expression — a ROW_NUMBER SQL oracle hashes identically.
    Zero-sum / single-row groups yield NULL.

    Scale shape: ONE bounded keyed-window exchange co-locates each key,
    one mergesort + vectorized rank·value sum per shard; only the
    key-dim (n, Σx, Σi·x) table reaches the driver.  Overflow guard:
    n²·max|x·scale| must stay below 2⁶³ (checked exactly per key)."""
    gcols = list(group_cols)
    keep = list(dict.fromkeys([*gcols, value_col]))

    def nonneg(b: pd.DataFrame) -> pd.DataFrame:
        out = b[keep].dropna(subset=[*gcols, value_col])
        v = out[value_col].to_numpy(dtype="float64")
        if len(v) and v.min() < 0:
            raise ValueError("grouped_gini: negative values (Gini undefined)")
        return out

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        x = _scaled_int(g[value_col].to_numpy(), scale)
        if len(x) and int(x.max()) >= (1 << 31):
            raise ValueError(
                f"scaled {value_col} exceeds the 2^31 exact-sum domain"
            )
        g = g.assign(__x=x).sort_values(
            [*gcols, "__x"], kind="mergesort"
        )
        rn = g.groupby(gcols, sort=False).cumcount().to_numpy() + 1
        g = g.assign(__rx=rn * g["__x"].to_numpy(), __mx=g["__x"])
        out = g.groupby(gcols, as_index=False).agg(
            n=("__x", "size"), sx=("__x", "sum"), srx=("__rx", "sum"),
            mx=("__mx", "max"),
        )
        return out

    red = exchange(
        ds.map_batches(nonneg, batch_format="pandas"), gcols, per_shard, n_shards=n_shards
    ).to_pandas()
    if len(red) == 0 or "n" not in red.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n": pd.Series([], dtype="int64"),
                "gini": pd.Series([], dtype="float64"),
            }
        )
    for _, r in red.iterrows():
        if int(r["n"]) ** 2 * int(r["mx"]) >= (1 << 63):
            raise ValueError(
                f"gini rank-sum domain exceeded for a {gcols} group "
                f"(n={int(r['n'])}, max x·scale={int(r['mx'])}); reduce scale"
            )
    n = red["n"].to_numpy(dtype="float64")
    sx = red["sx"].to_numpy(dtype="float64")
    srx = red["srx"].to_numpy(dtype="float64")
    out = red[gcols].copy()
    out["n"] = red["n"].astype("int64")
    with np.errstate(invalid="ignore", divide="ignore"):
        gini = (2.0 * srx) / (n * sx) - (n + 1.0) / n
    out["gini"] = np.where((sx > 0) & (n > 1), gini, np.nan)
    return out.sort_values(gcols).reset_index(drop=True)


def grouped_cat_entropy(
    ds: "rd.Dataset",
    group_cols: list[str],
    cat_col: str,
    *,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Per-key Shannon entropy of a categorical distribution (bits) —
    the behavior-diversity / source-mix readout (how varied is a user's
    event mix, how concentrated a host's document types):

        H(key) = − Σ_cat (n/N) · log2(n/N)

    over EXACT (key, cat) int64 counts, with the category terms summed
    in category-ascending order (np.add.reduceat — sequential, matching
    SQL ``SUM(term ORDER BY cat)``; ROUND 6 in an oracle absorbs the
    engines' grouped-accumulator ulps).  Also reports ``n_cats`` and
    ``n`` (both exact).

    Scale shape: per-batch (key, cat) count combiners into the
    size-aware finish; the entropy pass runs vectorized over the
    (key × cat) count table — one more bounded keyed exchange past the
    driver threshold, never the raw rows."""
    gcols = list(group_cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[[*gcols, cat_col]].dropna()
        out = sub.groupby([*gcols, cat_col], as_index=False).size()
        out = out.rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    red = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        [*gcols, cat_col],
        {"n": ("n", "sum")},
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "n" not in df.columns:
            return pd.DataFrame(
                {
                    **{c: pd.Series([], dtype="object") for c in gcols},
                    "n": pd.Series([], dtype="int64"),
                    "n_cats": pd.Series([], dtype="int64"),
                    "entropy": pd.Series([], dtype="float64"),
                }
            )
        df = df.sort_values([*gcols, cat_col], kind="mergesort").reset_index(
            drop=True
        )
        key_change = df[gcols].ne(df[gcols].shift()).any(axis=1).to_numpy()
        key_change[0] = True
        starts = np.flatnonzero(key_change)
        n = df["n"].to_numpy(dtype="float64")
        cums = np.concatenate([[0], np.cumsum(df["n"].to_numpy())])
        bounds = np.concatenate([starts, [len(df)]])
        totals_per_key = cums[bounds[1:]] - cums[bounds[:-1]]
        tot_expanded = np.repeat(totals_per_key, np.diff(bounds))
        p = n / tot_expanded
        term = -(p * np.log2(p))
        h = np.add.reduceat(term, starts)
        out = df.loc[starts, gcols].reset_index(drop=True)
        out["n"] = totals_per_key.astype("int64")
        out["n_cats"] = np.diff(bounds).astype("int64")
        out["entropy"] = h
        return out

    if isinstance(red, pd.DataFrame):
        return finish(red).sort_values(gcols).reset_index(drop=True)

    out = exchange(red, gcols, finish, n_shards=n_shards).to_pandas()
    if len(out) == 0 or "entropy" not in out.columns:
        return finish(pd.DataFrame())
    return out.sort_values(gcols).reset_index(drop=True)


def grouped_trimmed_mean(
    ds: "rd.Dataset",
    group_cols: list[str],
    value_col: str,
    *,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    scale: int = 100,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Exact per-group TRIMMED mean — the robust central-tendency
    readout next to `grouped_winsorize` (winsorize clips outliers to the
    cutoffs; trimming DROPS them): mean of the values inside
    ``[quantile_disc(q_lo), quantile_disc(q_hi)]``, cutoffs by the exact
    position rule, the in-range sum exact int64 over scaled cents so the
    final double is one mirrored IEEE division.  Reports ``n`` (group
    rows), ``n_kept`` and ``trimmed_mean`` (NaN for empty-kept groups —
    impossible with q_lo <= q_hi since the cutoffs are data values, but
    kept as the SQL NULL contract).

    Scale shape: two `grouped_percentile_exact` keyed exchanges for the
    cutoff table, broadcast via ``ray.put`` into per-batch masked-sum
    combiners, size-aware finish — values never move after the
    percentile pass."""
    if not (0.0 <= q_lo <= q_hi <= 1.0):
        raise ValueError("need 0 <= q_lo <= q_hi <= 1")
    gcols = list(group_cols)
    keep = list(dict.fromkeys([*gcols, value_col]))

    proj = ds.map_batches(
        lambda b: b[keep].dropna(subset=[*gcols, value_col]),
        batch_format="pandas",
    ).materialize()
    cuts = grouped_percentile_exact(
        proj, gcols, value_col, [q_lo, q_hi], n_shards=n_shards
    )
    lo = cuts[cuts["q"] == q_lo].set_index(gcols)[value_col]
    hi = cuts[cuts["q"] == q_hi].set_index(gcols)[value_col]
    table = pd.DataFrame({"lo": lo, "hi": hi}).reset_index()
    handle = ray.put(table)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(handle)
        m = b.merge(t, on=gcols, how="left")
        v = m[value_col].to_numpy(dtype="float64")
        x = _scaled_int(v, scale)
        if len(x) and int(np.abs(x).max()) >= (1 << 31):
            raise ValueError(
                f"scaled |{value_col}| exceeds the 2^31 exact-sum domain"
            )
        inr = (v >= m["lo"].to_numpy(dtype="float64")) & (
            v <= m["hi"].to_numpy(dtype="float64")
        )
        sub = m[gcols].copy()
        sub["__n"] = 1
        sub["__k"] = inr.astype("int64")
        sub["__s"] = np.where(inr, x, 0)
        return sub.groupby(gcols, as_index=False).agg(
            n=("__n", "sum"), n_kept=("__k", "sum"), s=("__s", "sum")
        )

    red = auto_group_agg(
        proj.map_batches(partial, batch_format="pandas"),
        gcols,
        {"n": ("n", "sum"), "n_kept": ("n_kept", "sum"), "s": ("s", "sum")},
        n_shards=n_shards,
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    if len(red) == 0 or "n" not in red.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n": pd.Series([], dtype="int64"),
                "n_kept": pd.Series([], dtype="int64"),
                "trimmed_mean": pd.Series([], dtype="float64"),
            }
        )
    out = red[gcols].copy()
    out["n"] = red["n"].astype("int64")
    out["n_kept"] = red["n_kept"].astype("int64")
    s = red["s"].to_numpy(dtype="float64")
    k = red["n_kept"].to_numpy(dtype="float64")
    with np.errstate(invalid="ignore", divide="ignore"):
        tm = (s / k) / float(scale)
    out["trimmed_mean"] = np.where(k > 0, tm, np.nan)
    return out.sort_values(gcols).reset_index(drop=True)


def grouped_skewkurt(
    ds: "rd.Dataset",
    value_col: str,
    group_cols: list[str],
    *,
    scale: int = 100,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """EXACT per-group skewness and excess kurtosis — the tail-shape
    profile next to `grouped_moments`' dispersion: the population-moment
    forms

        skew = m₃ / m₂^1.5          kurt = m₄ / m₂² − 3

    computed from exact integer power sums of ``round(v·scale)``.  The
    third/fourth power sums overflow int64 long before real corpus
    sizes, so each per-value x³/x⁴ splits into TWO int64 limbs
    (``hi = x^k // 2³¹``, ``lo = x^k mod 2³¹`` — floor semantics keep
    lo non-negative for negative x³); limb sums are plain mergeable
    int64 aggregates through the size-aware finish, and the driver
    reassembles exact arbitrary-precision Python integers
    ``S_k = Σhi·2³¹ + Σlo`` on the report-dim table.  The central-
    moment numerators are then exact integers::

        A2 = n·S2 − S1²
        A3 = n²·S3 − 3n·S2·S1 + 2·S1³
        A4 = n³·S4 − 4n²·S3·S1 + 6n·S2·S1² − 3·S1⁴

    and skew = A3/A2^1.5, kurt = A4/A2² − 3 are each ONE final IEEE
    expression over the correctly-rounded doubles of exact integers —
    block-structure independent to the bit and mirrorable by a SQL
    oracle that carries the same sums in HUGEINT (the oracle is exact
    while n²·S3 / n³·S4 / S1⁴ fit int128 — comfortably true at test
    scales; the engine side is unbounded Python int).

    Domain bound (asserted per batch): |round(v·scale)| ≤ 55108 so x⁴
    fits int64 per value — e.g. |v| ≤ 551 at the default cent scale;
    lower ``scale`` for wider ranges.  Per-group NaN when n < 2 or
    zero variance (SQL NULL).  Scale shape: one fixed-width combiner
    row per (group, batch), values never move."""
    gcols = list(group_cols)
    LIMB = 1 << 31

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[value_col].notna()]  # NULLs drop (the oracle's WHERE);
        # a NaN would also cast to INT64_MIN and wrap the |x| check
        x = _scaled_int(b[value_col].to_numpy(), scale)
        if len(x) and int(np.abs(x).max()) > 55108:
            raise ValueError(
                f"scaled |{value_col}| exceeds the 55108 fourth-power "
                "int64 domain; reduce `scale`"
            )
        x2 = x * x
        x3 = x2 * x
        x4 = x2 * x2
        sub = b[gcols].copy()
        sub["__n"] = np.int64(1)
        sub["__s1"] = x
        sub["__s2"] = x2
        sub["__s3h"] = x3 // LIMB
        sub["__s3l"] = x3 - (x3 // LIMB) * LIMB
        sub["__s4h"] = x4 // LIMB
        sub["__s4l"] = x4 - (x4 // LIMB) * LIMB
        return sub.groupby(gcols, as_index=False).agg(
            n=("__n", "sum"), s1=("__s1", "sum"), s2=("__s2", "sum"),
            s3h=("__s3h", "sum"), s3l=("__s3l", "sum"),
            s4h=("__s4h", "sum"), s4l=("__s4l", "sum"),
        )

    reduced = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        gcols,
        {c: (c, "sum") for c in ("n", "s1", "s2", "s3h", "s3l", "s4h", "s4l")},
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )
    if not isinstance(reduced, pd.DataFrame):
        reduced = reduced.to_pandas()
    if len(reduced) == 0 or "n" not in reduced.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n": pd.Series([], dtype="int64"),
                "skew_v": pd.Series([], dtype="float64"),
                "kurt_v": pd.Series([], dtype="float64"),
            }
        )
    rows_skew, rows_kurt = [], []
    for _, r in reduced.iterrows():
        n_, s1 = int(r["n"]), int(r["s1"])
        s2 = int(r["s2"])
        s3 = int(r["s3h"]) * LIMB + int(r["s3l"])
        s4 = int(r["s4h"]) * LIMB + int(r["s4l"])
        a2 = n_ * s2 - s1 * s1
        a3 = n_ * n_ * s3 - 3 * n_ * s2 * s1 + 2 * s1**3
        a4 = n_**3 * s4 - 4 * n_ * n_ * s3 * s1 + 6 * n_ * s2 * s1 * s1 - 3 * s1**4
        if n_ >= 2 and a2 > 0:
            rows_skew.append(float(a3) / float(a2) ** 1.5)
            rows_kurt.append(float(a4) / (float(a2) * float(a2)) - 3.0)
        else:
            rows_skew.append(np.nan)
            rows_kurt.append(np.nan)
    out = reduced[gcols].copy()
    out["n"] = reduced["n"].astype("int64")
    out["skew_v"] = np.asarray(rows_skew, dtype="float64")
    out["kurt_v"] = np.asarray(rows_kurt, dtype="float64")
    return out.sort_values(gcols).reset_index(drop=True)


def cat_association(
    ds: "rd.Dataset",
    x_col: str,
    y_col: str,
    *,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Association profile between two categorical columns — mutual
    information, marginal entropies, χ² and Cramér's V in ONE pass (the
    "are these columns redundant / is lang independent of source"
    dataset-audit readout next to `grouped_cat_entropy` and the χ²
    token selection):

        MI   = Σ_xy p_xy · log2( p_xy / (p_x · p_y) )      (bits)
        χ²   = Σ_xy (n_xy − e_xy)² / e_xy,  e_xy = n_x·n_y/n
             = n + Σ_observed ((n_xy − e)²/e − e)
               (the zero cells contribute exactly their expectation, so
               the full R×C sum folds into the observed-cell sum — the
               sparse-contingency identity both engines use)
        V    = sqrt( χ² / (n · (min(R, C) − 1)) )

    All inputs are the exact int64 contingency counts from one (x, y)
    combiner reduce (cell-dim table on the driver — the
    temperature_sample contract); each term is a pure function of
    (n_xy, n_x, n_y, n) summed in (x, y) cell order, so a SQL oracle
    mirrors every expression — ROUND both sides (the ordered-SUM
    reassociation note).  NULL in either column drops (SQL inner
    semantics).  Degenerate single-level columns: MI/χ² = 0, V NULL."""
    import math

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[[x_col, y_col]].dropna()
        g = sub.groupby([x_col, y_col], as_index=False).size()
        g["n"] = g["size"].astype("int64")
        return g[[x_col, y_col, "n"]]

    red = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        [x_col, y_col],
        {"n": ("n", "sum")},
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    if len(red) == 0 or "n" not in red.columns:
        return pd.DataFrame(
            {"n": pd.Series([0], dtype="int64"),
             "mi_bits": [np.nan], "h_x": [np.nan], "h_y": [np.nan],
             "chi2": [np.nan], "cramers_v": [np.nan]}
        )
    red = red.sort_values([x_col, y_col], kind="mergesort").reset_index(drop=True)
    n_tot = int(red["n"].sum())
    nx = red.groupby(x_col)["n"].sum()
    ny = red.groupby(y_col)["n"].sum()
    nf = float(n_tot)
    mi, chi2 = 0.0, nf
    for _, r in red.iterrows():  # cell-dim, (x, y) order — mirrored
        nxy = float(int(r["n"]))
        nxv = float(int(nx[r[x_col]]))
        nyv = float(int(ny[r[y_col]]))
        mi += (nxy / nf) * math.log2(nxy * nf / (nxv * nyv))
        e = nxv * nyv / nf
        chi2 += (nxy - e) * (nxy - e) / e - e
    hx = hy = 0.0
    for v in nx.sort_index():  # category order — mirrored
        hx += -(float(v) / nf) * math.log2(float(v) / nf)
    for v in ny.sort_index():
        hy += -(float(v) / nf) * math.log2(float(v) / nf)
    r_, c_ = len(nx), len(ny)
    k = min(r_, c_) - 1
    v = math.sqrt(chi2 / (nf * k)) if k > 0 else np.nan
    return pd.DataFrame(
        {
            "n": pd.Series([n_tot], dtype="int64"),
            "mi_bits": pd.Series([mi], dtype="float64"),
            "h_x": pd.Series([hx], dtype="float64"),
            "h_y": pd.Series([hy], dtype="float64"),
            "chi2": pd.Series([chi2], dtype="float64"),
            "cramers_v": pd.Series([v], dtype="float64"),
        }
    )


def grouped_bootstrap_ci(
    ds: "rd.Dataset",
    value_col: str,
    group_cols: list[str],
    *,
    id_col: str,
    n_replicas: int = 200,
    alpha: float = 0.05,
    seed: int = 0,
    driver_threshold_rows: int = 2_000_000,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Per-group bootstrap confidence interval for the MEAN by the
    Poisson bootstrap (Chamandy et al. 2012, "Estimating Uncertainty
    for Massive Data Streams" — Google's streaming rendering of Efron
    1979: resampling n-out-of-n ≈ giving every row an independent
    Poisson(1) weight per replica, which needs NO co-location and NO
    row count up front): each batch draws its rows' weights for all
    ``n_replicas`` replicas from deterministic salted-hash uniforms
    (per-replica salts through ``pd.util.hash_array`` — the house rule:
    never derive lanes from the affine shuffle_hash) and emits one
    fixed-width combiner row per group per batch — (Σw·v, Σw) per
    replica plus the exact n/Σv — so the exchange payload is
    2·n_replicas + 2 numbers per (group, batch) and the values never
    move.  The driver finishes percentile endpoints over each group's
    replica means (the percentile-bootstrap interval).

    Poisson(1) weights are inverted from the uniforms by the CDF table
    (k ≤ 8 covers 1 − 1e-6 of the mass; the tail clamps).  Deterministic
    for a fixed (corpus, seed) under ANY block structure: a row's
    weights depend only on its ``id_col`` hash and the replica index
    (keying on the VALUE would hand tied rows identical draws and bias
    the resample — ids are the independence carrier).  Replica sums are
    float accumulations, so results reproduce to ~1e-12 across block
    structures but are not bit-stable (the pagerank/lm float rule —
    tests compare at rtol; the exact ``mean_v`` is bit-stable only
    through its separate exact-count path)."""
    import math

    gcols = list(group_cols)
    if n_replicas < 10:
        raise ValueError("n_replicas must be >= 10")
    # Poisson(1) inverse-CDF thresholds for k = 0..8
    cum, acc, fact = [], 0.0, 1.0
    for k in range(9):
        if k:
            fact *= k
        acc += math.exp(-1.0) / fact
        cum.append(acc)
    cdf = np.array(cum, dtype="float64")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[b[value_col].notna()]
        v = sub[value_col].to_numpy(dtype="float64")
        h = pd.util.hash_array(
            pd.util.hash_array(sub[id_col].to_numpy()).astype("uint64")
            + np.uint64(seed)
        )
        cols = {c: sub[c].to_numpy() for c in gcols}
        cols["__n"] = np.ones(len(sub), dtype="int64")
        cols["__s"] = v
        # one (rows x replicas) uniform matrix, built column-block-wise
        for r in range(n_replicas):
            u = (
                pd.util.hash_array(h + np.uint64(1000003 * (r + 1)))
                .astype("float64")
                / float(2**64)
            )
            # Poisson(1); uniforms beyond the last CDF entry (~1e-6 of
            # draws) clamp to k=8, as the docstring promises
            w = np.minimum(np.searchsorted(cdf, u), 8).astype("float64")
            cols[f"__wv{r}"] = w * v
            cols[f"__w{r}"] = w
        out = pd.DataFrame(cols)  # one construction — no fragmentation
        aggs = {"n": ("__n", "sum"), "s": ("__s", "sum")}
        aggs.update({f"wv{r}": (f"__wv{r}", "sum") for r in range(n_replicas)})
        aggs.update({f"w{r}": (f"__w{r}", "sum") for r in range(n_replicas)})
        return out.groupby(gcols, as_index=False).agg(**aggs)

    spec = {"n": ("n", "sum"), "s": ("s", "sum")}
    spec.update({f"wv{r}": (f"wv{r}", "sum") for r in range(n_replicas)})
    spec.update({f"w{r}": (f"w{r}", "sum") for r in range(n_replicas)})
    red = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        gcols,
        spec,
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    if len(red) == 0 or "n" not in red.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n": pd.Series([], dtype="int64"),
                "mean_v": pd.Series([], dtype="float64"),
                "ci_lo": pd.Series([], dtype="float64"),
                "ci_hi": pd.Series([], dtype="float64"),
            }
        )
    wv = red[[f"wv{r}" for r in range(n_replicas)]].to_numpy(dtype="float64")
    w = red[[f"w{r}" for r in range(n_replicas)]].to_numpy(dtype="float64")
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(w > 0, wv / w, np.nan)
    lo = np.nanquantile(means, alpha / 2.0, axis=1)
    hi = np.nanquantile(means, 1.0 - alpha / 2.0, axis=1)
    out = red[gcols].copy()
    out["n"] = red["n"].astype("int64")
    out["mean_v"] = red["s"].to_numpy(dtype="float64") / red["n"].to_numpy(
        dtype="float64"
    )
    out["ci_lo"] = lo
    out["ci_hi"] = hi
    return out.sort_values(gcols).reset_index(drop=True)
