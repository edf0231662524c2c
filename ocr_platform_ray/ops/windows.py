"""Event-time bucket / session operators (SURVEY.md §2.8, ray_guide
"Streaming-shaped workloads").

Ray Data has no event-time windows; the batch rendering treats the events
table as an ordered partitioned log — partition by key, sort by ts inside
the group, window with pandas.  The ordering assumption (correctness only
from the explicit in-group sort, never block arrival order) is the same one
document reassembly makes.

Scale shape: the tumbling/hopping aggregates pre-combine per batch (one row
per (key, bucket) per batch) and finish via the size-aware planner
(ops.relational.auto_group_agg): a driver groupby when the probed partial
table fits (saves the AllToAll floor at small scale), the distributed
hash-shard exchange above the threshold — the (key × bucket) partial
cardinality at corpus scale can exceed one machine, so the scale route
keeps the finalize distributed.
``sessionize``
shuffles a bounded ``hash(key)`` label and runs one vectorized
pandas pass per shard instead of one Python call per key."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .exchange import _typed_empty, exchange
from .relational import auto_group_agg


def _normalize_finish(reduced, *, as_dataset: bool, sort_keys: list[str]):
    """auto_group_agg returns a DataFrame (driver finish) or a Dataset
    (exchange finish); give the caller whichever shape it asked for."""
    if isinstance(reduced, pd.DataFrame):
        if as_dataset:
            return rd.from_pandas(reduced)
        out = reduced
    else:
        if as_dataset:
            # corpus-scale consumers (write_parquet / further stages):
            # the reduced result never lands on the driver
            return reduced
        out = reduced.to_pandas()
    return out.sort_values(sort_keys).reset_index(drop=True)


def time_bucket_agg(
    events: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    freq: str = "h",
    as_dataset: bool = False,
    finish: str = "auto",
) -> pd.DataFrame | rd.Dataset:
    """Tumbling-window aggregate: count + sum(value) per (key, time bucket).
    The bucket column is computed vectorized per batch, a combiner
    pre-aggregates in-batch so the shuffle moves partials only, and the
    partials finish via the size-aware planner: driver groupby when the
    (key × bucket) partial table provably fits (``limit`` probe — saves
    the AllToAll floor at small scale), distributed hash-shard exchange
    above the threshold (``finish="exchange"`` forces the scale route;
    equivalence-tested)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[[key_col, ts_col, value_col]].copy()
        b["bucket"] = b[ts_col].dt.floor(freq)
        g = b.groupby([key_col, "bucket"], as_index=False).agg(
            n_events=(value_col, "size"), sum_value=(value_col, "sum")
        )
        return g

    partials = events.map_batches(partial, batch_format="pandas")
    reduced = auto_group_agg(
        partials,
        [key_col, "bucket"],
        {"n_events": ("n_events", "sum"), "sum_value": ("sum_value", "sum")},
        finish=finish,
    )
    return _normalize_finish(reduced, as_dataset=as_dataset, sort_keys=[key_col, "bucket"])


def hopping_window_agg(
    events: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    size_hours: int = 2,
    step_hours: int = 1,
    as_dataset: bool = False,
    finish: str = "auto",
) -> pd.DataFrame | rd.Dataset:
    """Hopping (sliding) windows: each event belongs to size/step
    overlapping windows; the explode happens vectorized per batch (one
    extra row per hop), then the same combiner pre-aggregation +
    size-aware finish as the tumbling case.  Emits
    (key, window_start, n_events, sum_value)."""
    hops = size_hours // step_hours

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[[key_col, ts_col, value_col]].copy()
        b["base"] = b[ts_col].dt.floor(f"{step_hours}h")
        frames = []
        for h in range(hops):
            f = b.copy()
            f["window_start"] = f["base"] - pd.Timedelta(hours=h * step_hours)
            frames.append(f)
        e = pd.concat(frames, ignore_index=True)
        return e.groupby([key_col, "window_start"], as_index=False).agg(
            n_events=(value_col, "size"), sum_value=(value_col, "sum")
        )

    partials = events.map_batches(partial, batch_format="pandas")
    reduced = auto_group_agg(
        partials,
        [key_col, "window_start"],
        {"n_events": ("n_events", "sum"), "sum_value": ("sum_value", "sum")},
        finish=finish,
    )
    return _normalize_finish(
        reduced, as_dataset=as_dataset, sort_keys=[key_col, "window_start"]
    )


def grouped_shift(
    ds: rd.Dataset,
    *,
    key_col: str,
    order_cols: list[str],
    shifts: dict[str, tuple[str, int]],
    columns: list[str] | None = None,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """LAG/LEAD over partitions (``LAG(col, n) OVER (PARTITION BY key
    ORDER BY ...)``): the window-function primitive behind inter-event
    gaps, previous-value deltas and next-row peeks.

    ``shifts`` maps output column -> (source column, n): n > 0 is LAG(n)
    (value from n rows earlier in the group), n < 0 is LEAD(-n).  Rows
    with no neighbor (the first/last of each group) get NaN/NaT, exactly
    like SQL's NULL.

    Scale shape (the ``sessionize`` pattern): ONE bounded
    ``hash(key)`` exchange co-locates each key's rows, then a
    single vectorized pandas pass per shard — mergesort by
    (key, *order_cols) and ``groupby(key).shift(n)``, a cython kernel, no
    per-key Python.  Order inside a group must be made deterministic by
    ``order_cols`` (include a tiebreaker id column when the primary order
    key can repeat), which also makes the result independent of block
    structure and input order."""
    src_cols = [s for s, _ in shifts.values()]
    keep = columns if columns is not None else list(
        dict.fromkeys([key_col, *order_cols, *src_cols])
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        gb = g.groupby(key_col, sort=False)
        for out_col, (src, n) in shifts.items():
            g[out_col] = gb[src].shift(n)
        return g

    shifted = exchange(ds.select_columns(keep), key_col, per_shard)
    if as_dataset:
        return shifted
    return (
        shifted.to_pandas()
        .sort_values([key_col, *order_cols])
        .reset_index(drop=True)
    )


def grouped_rolling_agg(
    ds: rd.Dataset,
    *,
    key_col: str,
    ts_col: str,
    value_col: str,
    window: str = "1h",
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Event-time RANGE-frame rolling aggregate per key — the SQL window
    ``SUM(v)/COUNT(*) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    <window> PRECEDING AND CURRENT ROW)`` (moving 1-hour revenue, rate
    limiting, trailing activity counts).

    Emits ONE row per distinct (key, ts): SQL RANGE frames treat rows with
    equal ts as peers sharing one window value, so pre-collapsing them is
    lossless — ``roll_n`` / ``roll_value`` are the event count / value sum
    over ``[ts - window, ts]`` (both boundaries inclusive, exactly the SQL
    frame), ``n_at_ts`` the events collapsed into the row.

    Scale shape: a per-batch combiner pre-aggregates to (key, ts) partials
    so the ONE bounded ``hash(key)`` exchange moves partials,
    not events; each shard runs a single vectorized pass — merge partials
    (vectorized groupby), mergesort by (key, ts), window WIDTHS from the
    cython per-key time-rolling count (``closed="both"`` = RANGE boundary
    semantics), window SUMS as int64 prefix-sum differences.  Integer
    ``value_col`` (e.g. the cents encoding) stays exact integer arithmetic
    end to end — no float accumulation regardless of window population.
    No key ever needs to fit in one block beyond its (key, ts)-distinct
    partials, and the output is block-structure independent."""
    w = pd.Timedelta(window)
    out_cols = [key_col, ts_col, "n_at_ts", "roll_n", "roll_value"]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b[[key_col, ts_col, value_col]].groupby(
            [key_col, ts_col], as_index=False
        ).agg(n_at_ts=(value_col, "size"), v_at_ts=(value_col, "sum"))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby([key_col, ts_col], as_index=False).agg(
            n_at_ts=("n_at_ts", "sum"), v_at_ts=("v_at_ts", "sum")
        )
        g = g.sort_values([key_col, ts_col], kind="mergesort").reset_index(drop=True)
        # rows in [ts - w, ts] per key: (key, ts) is unique here, so the
        # count IS the frame width (float return, but exact small ints)
        win_rows = (
            g.groupby(key_col, sort=False)
            .rolling(w, on=ts_col, closed="both")["n_at_ts"]
            .count()
            .to_numpy()
            .astype("int64")
        )
        hi = np.arange(1, len(g) + 1, dtype="int64")
        lo = hi - win_rows
        cn = np.concatenate([[0], np.cumsum(g["n_at_ts"].to_numpy(dtype="int64"))])
        cv = np.concatenate(
            [np.zeros(1, dtype=g["v_at_ts"].to_numpy().dtype),
             np.cumsum(g["v_at_ts"].to_numpy())]
        )
        out = g[[key_col, ts_col, "n_at_ts"]].copy()
        out["roll_n"] = cn[hi] - cn[lo]
        out["roll_value"] = cv[hi] - cv[lo]
        return out

    rolled = exchange(ds.map_batches(partial, batch_format="pandas"), key_col, per_shard)
    if as_dataset:
        return rolled
    pdf = rolled.to_pandas()
    if len(pdf) == 0:
        sch = ds.schema()
        pdf = _typed_empty(sch, [key_col, ts_col])
        for c in ("n_at_ts", "roll_n"):
            pdf[c] = pd.Series(dtype="int64")
        pdf["roll_value"] = pd.Series(dtype=_typed_empty(sch, [value_col])[value_col].dtype)
        return pdf[out_cols]
    return pdf.sort_values([key_col, ts_col]).reset_index(drop=True)


def grouped_rank(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    order_col: str,
    descending: bool = False,
    carry_cols: list[str] | None = None,
    rank_col: str = "rnk",
    dense_col: str | None = "drnk",
    pct: bool = False,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """RANK / DENSE_RANK window functions (``RANK() OVER (PARTITION BY
    key ORDER BY v)``): competition rank (ties share the minimum rank,
    next rank skips) and dense rank (no gaps) of every row within its
    partition — percentile tables, leaderboard positions, per-group
    ordinal features.  Unlike ``grouped_top_k`` (ROW_NUMBER + head),
    ranks here are a pure function of the VALUE multiset, so ties need
    no tiebreaker column and the result is deterministic under any
    block structure or input order by construction.

    ``pct=True`` adds the relative forms — ``prnk`` = PERCENT_RANK
    (``(rank-1)/(m-1)``, 0 for a single-row partition) and ``cume`` =
    CUME_DIST (``max-rank/m``) — computed with the exact SQL-standard
    formulas (one IEEE subtract + divide, so a SQL oracle matches
    bit-for-bit).

    Scale shape (the ``grouped_shift`` pattern): project to
    (keys, order, carry), ONE bounded ``hash(key)`` exchange
    co-locates each partition, then a single vectorized cython
    ``groupby().rank`` pass per shard — no per-key Python, and no key
    ever needs more than its own rows in one shard."""
    keep = list(dict.fromkeys([*key_cols, order_col, *(carry_cols or [])]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby(key_cols, sort=False)[order_col]
        g[rank_col] = gb.rank(method="min", ascending=not descending).astype("int64")
        if dense_col is not None:
            g[dense_col] = gb.rank(
                method="dense", ascending=not descending
            ).astype("int64")
        if pct:
            m = gb.transform("size").to_numpy(dtype="float64")
            rk = g[rank_col].to_numpy(dtype="float64")
            mx = gb.rank(method="max", ascending=not descending).to_numpy(
                dtype="float64"
            )
            g["prnk"] = np.where(m > 1.0, (rk - 1.0) / (m - 1.0), 0.0)
            g["cume"] = mx / m
        return g

    return _keyed_window(
        ds, key_cols, keep, per_shard, as_dataset,
        [*key_cols, rank_col, *(carry_cols or [])],
    )


def grouped_ntile(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    order_col: str,
    n: int,
    tie_col: str,
    carry_cols: list[str] | None = None,
    ntile_col: str = "nt",
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """``NTILE(n) OVER (PARTITION BY key ORDER BY v, tie)``: split every
    partition into ``n`` buckets as equal as possible — the first
    ``m % n`` buckets get ``ceil(m/n)`` rows, the rest ``floor(m/n)``
    (the SQL-standard rule).  NTILE depends on the exact row order, so
    ``tie_col`` is REQUIRED to make the ordering total and the result
    deterministic under any block structure (the `grouped_top_k`
    tie contract).

    Scale shape (the `grouped_rank` pattern): project, ONE bounded
    ``hash(key)`` exchange co-locates each partition, then a
    single vectorized pass per shard — sort, cumcount, and the bucket
    formula in numpy; no per-key Python."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    keep = list(dict.fromkeys([*key_cols, order_col, tie_col, *(carry_cols or [])]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, order_col, tie_col], kind="mergesort")
        grp = g.groupby(key_cols, sort=False)
        i = grp.cumcount().to_numpy()
        m = grp[order_col].transform("size").to_numpy()
        q, r = m // n, m % n
        big = q + 1
        cutoff = big * r  # rows below this index sit in the big buckets
        qd = np.maximum(q, 1)  # q == 0 only where i < cutoff == m
        g[ntile_col] = (
            np.where(i < cutoff, i // big, r + (i - cutoff) // qd) + 1
        ).astype("int64")
        return g

    return _keyed_window(
        ds, key_cols, keep, per_shard, as_dataset,
        [*key_cols, order_col, tie_col],
    )


def _keyed_window(
    ds: rd.Dataset,
    key_cols: list[str],
    keep: list[str],
    per_shard,
    as_dataset: bool,
    sort_cols: list[str],
):
    """Shared scaffold for ordered per-key window ops: project, ONE
    bounded ``hash(key)`` exchange, one vectorized pass per
    shard (the `grouped_rank`/`grouped_shift` shape)."""
    res = exchange(ds.select_columns(keep), key_cols, per_shard)
    if as_dataset:
        return res
    return res.to_pandas().sort_values(
        sort_cols, kind="mergesort"
    ).reset_index(drop=True)


def grouped_cumsum(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    order_col: str,
    tie_col: str,
    value_col: str,
    carry_cols: list[str] | None = None,
    out_col: str = "running",
    how: str = "sum",
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Running aggregate per key (``SUM/MIN/MAX(v) OVER (PARTITION BY
    key ORDER BY o, tie ROWS UNBOUNDED PRECEDING)``) — cumulative
    spend, running high-watermark, best-so-far.  ``tie_col`` makes the
    accumulation order total, so the result is deterministic under any
    block structure; for an exact SQL mirror run SUM on INTEGER values
    (the repo's cents/microseconds convention) — float running sums are
    order-EXECUTION-dependent in any engine (min/max are exact on any
    dtype: they select, never add).

    Scale shape: ONE bounded hash-shard exchange, then a single
    vectorized sort + cython ``groupby().cum{sum,min,max}`` per shard."""
    cum_fns = {"sum": "cumsum", "min": "cummin", "max": "cummax"}
    if how not in cum_fns:
        raise ValueError(f"how must be one of {sorted(cum_fns)}, got {how!r}")
    keep = list(dict.fromkeys([*key_cols, order_col, tie_col, value_col,
                               *(carry_cols or [])]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, order_col, tie_col], kind="mergesort")
        g[out_col] = getattr(
            g.groupby(key_cols, sort=False)[value_col], cum_fns[how]
        )()
        return g

    return _keyed_window(
        ds, key_cols, keep, per_shard, as_dataset,
        [*key_cols, order_col, tie_col],
    )


def grouped_rolling_rows(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    order_col: str,
    tie_col: str,
    value_col: str,
    window: int,
    following: int = 0,
    carry_cols: list[str] | None = None,
    out_col: str = "roll",
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """ROW-frame rolling sum per key (``SUM(v) OVER (PARTITION BY key
    ORDER BY o, tie ROWS BETWEEN window-1 PRECEDING AND following
    FOLLOWING)`` — ``following=0`` is the trailing CURRENT ROW frame)
    — the count-based sibling of `grouped_rolling_agg`'s time-RANGE
    frame.  Computed as the prefix-sum difference ``cs[i+following] -
    cs[i-window]`` with the leading edge clamped to the partition total
    (SQL's frame truncation at the partition tail) — one cumsum + two
    shifts per shard, O(rows) not O(rows x frame); same
    integer-values-for-exact-SQL contract as `grouped_cumsum`."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if following < 0:
        raise ValueError(f"following must be >= 0, got {following}")
    keep = list(dict.fromkeys([*key_cols, order_col, tie_col, value_col,
                               *(carry_cols or [])]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, order_col, tie_col], kind="mergesort")
        grp = g.groupby(key_cols, sort=False)
        cs = grp[value_col].cumsum()
        gcs = cs.groupby([g[c] for c in key_cols], sort=False)
        if following > 0:
            # frame's leading edge: cs at i+following, clamped to the
            # partition total past the tail (last cumsum == group sum)
            hi = gcs.shift(-following)
            hi = hi.fillna(grp[value_col].transform("sum"))
        else:
            hi = cs
        lag = gcs.shift(window)  # cs[i-window], the frame's trailing edge
        g[out_col] = hi - lag.fillna(0)
        return g

    return _keyed_window(
        ds, key_cols, keep, per_shard, as_dataset,
        [*key_cols, order_col, tie_col],
    )


def sessionize(
    events: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    gap_minutes: int = 30,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Session windows: ONE shuffle on ``hash(key)`` (the
    reassemble_docs shard-exchange — every event of a key lands in the same
    shard), then a single vectorized pandas pass per shard: sort by
    (key, ts), session boundary = key change OR gap > ``gap_minutes``,
    cumsum the boundaries, aggregate per session label.  No per-key Python
    calls.  Emits (key, session_id, session_start, session_end, n_events)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        boundary = g[key_col].ne(g[key_col].shift()) | (g[ts_col].diff() > gap)
        out = (
            g.assign(__s=boundary.cumsum())
            .groupby("__s", as_index=False)
            .agg(
                **{key_col: (key_col, "first")},
                session_start=(ts_col, "min"),
                session_end=(ts_col, "max"),
                n_events=(ts_col, "size"),
            )
        )
        out["session_id"] = out.groupby(key_col).cumcount()
        return out[[key_col, "session_id", "session_start", "session_end", "n_events"]]

    sessions = exchange(events.select_columns([key_col, ts_col]), key_col, per_shard)
    if as_dataset:
        # at corpus scale the SESSION TABLE itself is corpus-sized —
        # keep it distributed for write_parquet / downstream stages
        return sessions
    return (
        sessions.to_pandas()
        .sort_values([key_col, "session_id"])
        .reset_index(drop=True)
    )


def grouped_share(
    ds: "rd.Dataset",
    key_cols: list[str],
    value_col: str,
    *,
    out_col: str = "share",
    driver_threshold_rows: int = 2_000_000,
) -> "rd.Dataset":
    """``RATIO_TO_REPORT``: each row's share of its group's total —
    ``v / SUM(v) OVER (PARTITION BY key)``.  ``value_col`` must be
    INTEGER (the repo's cents contract) so the group totals are exact
    and the one final double division is bit-identical to SQL's.

    Scale shape: the totals are a combiner reduce through the
    size-aware `auto_group_agg` finish (one (group, total) row per
    group), then ONE broadcast map adds the share — rows never shuffle.
    Groups summing to zero yield NaN (SQL: NULL from 0/0)."""
    import ray

    from ..state.broadcast import cached_get  # driver-side composition

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(key_cols, as_index=False).agg(t=(value_col, "sum"))

    totals = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        key_cols,
        {"t": ("t", "sum")},
        driver_threshold_rows=driver_threshold_rows,
    )
    if not isinstance(totals, pd.DataFrame):
        totals = totals.to_pandas()
    tser = totals.set_index(key_cols)["t"]
    ref = ray.put(tser)

    def add_share(b: pd.DataFrame) -> pd.DataFrame:
        t = cached_get(ref)
        idx = (
            pd.MultiIndex.from_frame(b[key_cols])
            if len(key_cols) > 1
            else b[key_cols[0]]
        )
        denom = t.reindex(idx).to_numpy(dtype="float64")
        out = b.copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            share = b[value_col].to_numpy(dtype="float64") / denom
        out[out_col] = np.where(denom != 0.0, share, np.nan)
        return out

    return ds.map_batches(add_share, batch_format="pandas")


def funnel_match(
    ds: rd.Dataset,
    steps: list[str],
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    within: pd.Timedelta | None = None,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Ordered-sequence (funnel) matching per key — the
    MATCH_RECOGNIZE-shaped analytic the events suite lacked: for the step
    types ``steps = [s1, s2, ...]``, a key's stage-k time is the EARLIEST
    event of type ``s_k`` STRICTLY AFTER its stage-(k-1) time (first-touch
    greedy, the standard product-analytics funnel rule); with ``within``,
    every step must also land within ``within`` of the stage-1 time.
    Returns one row per key that reached stage >= 1:
    ``(key, stage, t_first, t_stage)`` where ``t_stage`` is the completed
    final stage's time.

    Strictly-after semantics make the result deterministic without a
    tiebreaker: equal timestamps cannot chain, so the match is a pure
    function of the (key, type, ts) multiset (block/input-order
    independent, SQL-mirrorable — full oracle on the event_funnel query).

    Scale shape: only rows whose type is one of ``steps`` ride the ONE
    bounded ``hash(key)`` exchange, projected to three columns;
    each shard then runs len(steps) vectorized merge+min passes (no
    per-key Python).  The per-step event times themselves are needed for
    the after-chain, so no earlier reduction is possible without changing
    semantics."""
    if not steps:
        raise ValueError("steps must be non-empty")
    step_set = set(steps)
    if len(step_set) != len(steps):
        raise ValueError("steps must be distinct event types")

    def step_rows(b: pd.DataFrame) -> pd.DataFrame:
        return b[b[type_col].isin(step_set)][[key_col, ts_col, type_col]]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        # stage 1: earliest s1 per key
        cur = (
            g[g[type_col] == steps[0]]
            .groupby(key_col, as_index=False)[ts_col]
            .min()
            .rename(columns={ts_col: "__t"})
        )
        if cur.empty:
            # typed empty keeps per-block schemas consistent across shards
            return pd.DataFrame(
                {
                    key_col: pd.Series(dtype=g[key_col].dtype),
                    "stage": pd.Series(dtype="int64"),
                    "t_first": pd.Series(dtype=g[ts_col].dtype),
                    "t_stage": pd.Series(dtype=g[ts_col].dtype),
                }
            )
        cur["stage"] = np.int64(1)
        cur["t_first"] = cur["__t"]
        deadline = (
            cur.set_index(key_col)["t_first"] + within if within is not None else None
        )
        for k, step in enumerate(steps[1:], start=2):
            # only the frontier — users who completed stage k-1 — may
            # attempt step k (a user who missed a step is frozen; later
            # step types must not let them skip ahead)
            frontier = cur[cur["stage"] == k - 1]
            if frontier.empty:
                break
            ev = g[g[type_col] == step][[key_col, ts_col]].merge(
                frontier[[key_col, "__t"]], on=key_col, how="inner"
            )
            ev = ev[ev[ts_col] > ev["__t"]]
            if within is not None and not ev.empty:
                dl = deadline.reindex(ev[key_col]).to_numpy()
                ev = ev[ev[ts_col].to_numpy() <= dl]
            nxt = ev.groupby(key_col, as_index=False)[ts_col].min().rename(
                columns={ts_col: "__tn"}
            )
            cur = cur.merge(nxt, on=key_col, how="left")
            hit = cur["__tn"].notna() & (cur["stage"] == k - 1)
            cur.loc[hit, "__t"] = cur.loc[hit, "__tn"]
            cur.loc[hit, "stage"] = np.int64(k)
            cur = cur.drop(columns="__tn")
        out = cur.rename(columns={"__t": "t_stage"})[
            [key_col, "stage", "t_first", "t_stage"]
        ]
        out["stage"] = out["stage"].astype("int64")
        return out

    matched = exchange(ds.map_batches(step_rows, batch_format="pandas"), key_col, per_shard)
    if as_dataset:
        return matched
    out = matched.to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                key_col: pd.Series(dtype="int64"),
                "stage": pd.Series(dtype="int64"),
                "t_first": pd.Series(dtype="datetime64[us]"),
                "t_stage": pd.Series(dtype="datetime64[us]"),
            }
        )
    return out.sort_values(key_col).reset_index(drop=True)


def grouped_fill(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    order_col: str,
    tie_col: str,
    value_cols: list[str],
    direction: str = "ffill",
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Per-key ordered NULL fill — SQL's gap-filling window
    ``LAST_VALUE(v IGNORE NULLS) OVER (PARTITION BY key ORDER BY o, tie
    ROWS UNBOUNDED PRECEDING)`` (``direction="ffill"``, last observation
    carried forward) or its FIRST_VALUE/FOLLOWING mirror
    (``direction="bfill"``).  The sensor/telemetry/sparse-attribute
    repair step: rows keep their position, only NULLs in ``value_cols``
    are replaced by the nearest non-NULL value earlier (later) in the
    key's timeline; leading (trailing) NULLs with no donor stay NULL,
    exactly like SQL.

    ``tie_col`` makes the order total, so the fill is deterministic and
    block-structure independent.

    Scale shape: ONE bounded ``hash(key)`` exchange
    co-locates each key's rows (`_keyed_window`), then a single
    vectorized pass per shard — mergesort by (key, order, tie) and one
    cython ``groupby().ffill/bfill`` per shard.  No per-key Python."""
    if direction not in ("ffill", "bfill"):
        raise ValueError(
            f"direction must be 'ffill' or 'bfill', got {direction!r}"
        )
    keep = list(dict.fromkeys([*key_cols, order_col, tie_col, *value_cols]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, order_col, tie_col], kind="mergesort")
        gb = g.groupby(key_cols, sort=False)[value_cols]
        g[value_cols] = gb.ffill() if direction == "ffill" else gb.bfill()
        return g

    return _keyed_window(
        ds, key_cols, keep, per_shard, as_dataset,
        [*key_cols, order_col, tie_col],
    )


def grouped_decay_window(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    order_col: str,
    tie_col: str,
    value_col: str,
    weights: list[float],
    normalize: bool = True,
    as_dataset: bool = False,
    out_col: str = "decay",
) -> pd.DataFrame | rd.Dataset:
    """Trailing decay-weighted window score — the recency-weighted
    activity signal (crawl-source freshness, user engagement decay,
    telemetry smoothing): for each row, ``Σ_j w_j · value(lag j)``
    over its key's (order, tie) timeline, optionally normalized by the
    weights actually present (the truncated-EWMA form — ``weights =
    [1, a, a², …]``).  Missing lags (partition head) and NULL values
    contribute neither value nor weight, exactly SQL's
    ``COALESCE(w_j * LAG(value, j) OVER win, 0)`` with a matching CASE
    in the denominator — the float arithmetic repeats that expression
    operand-for-operand (left-associated additions), so a LAG-chain SQL
    mirror produces bit-identical doubles.

    Scale shape: ONE bounded ``hash(key)`` exchange (the
    `grouped_shift` scaffold), then per shard one vectorized pass — a
    mergesort and len(weights) shifted adds; no per-key Python."""
    if not weights:
        raise ValueError("weights must name at least one coefficient")
    keep = list(dict.fromkeys([*key_cols, order_col, tie_col, value_col]))
    w = [float(x) for x in weights]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [*key_cols, order_col, tie_col], kind="mergesort"
        ).reset_index(drop=True)
        x = g[value_col].to_numpy(dtype="float64")
        gid = g.groupby(key_cols, sort=False).ngroup().to_numpy()
        n = len(g)
        num = w[0] * x
        valid0 = ~np.isnan(x)
        num = np.where(valid0, num, 0.0)
        den = np.where(valid0, w[0], 0.0)
        for j, wj in enumerate(w[1:], start=1):
            if j >= n:
                break
            xs = np.concatenate([np.full(j, np.nan), x[:-j]])
            same = np.concatenate([np.zeros(j, bool), gid[j:] == gid[:-j]])
            valid = same & ~np.isnan(xs)
            num = num + np.where(valid, wj * xs, 0.0)
            den = den + np.where(valid, wj, 0.0)
        g[out_col] = num / den if normalize else num
        return g

    return _keyed_window(
        ds, key_cols, keep, per_shard, as_dataset,
        [*key_cols, order_col, tie_col],
    )


def global_row_number(
    ds: rd.Dataset,
    *,
    order_cols: list[str],
    columns: list[str] | None = None,
    n_buckets: int = 64,
    sketch_k: int = 512,
    as_dataset: bool = False,
    out_col: str = "rn",
) -> pd.DataFrame | rd.Dataset:
    """Distributed total-order ``ROW_NUMBER() OVER (ORDER BY ...)`` —
    a 1-based global position WITHOUT a single-node sort: cutoffs on
    the leading order column come from one mergeable quantile-sketch
    reduce, rows range-partition by those cutoffs (equal leading values
    always co-locate, so the tuple order never straddles buckets), a
    per-bucket count reduce gives the driver a bucket-dim prefix table,
    and ONE range exchange sorts each bucket locally and adds its
    offset.  Exactly the layout writer's range-exchange shape plus the
    politeness-order offset trick.

    ``order_cols`` must form a TOTAL order (include a unique tiebreaker)
    and the leading column must be numeric (the sketch's domain —
    string leading keys take the `cluster_write_str` sample approach).
    NULLs in the leading column sort last (DuckDB's ASC default).
    ``columns`` projects what rides the exchange (default: everything).
    """
    from .layout import _cutoffs_from_sketch

    ocols = list(order_cols)
    if not ocols:
        raise ValueError("order_cols must name at least one column")
    lead = ocols[0]
    keep = (
        list(dict.fromkeys([*ocols, *(columns or [])]))
        if columns is not None
        else None
    )

    proj = (
        ds.map_batches(lambda b: b[keep], batch_format="pandas")
        if keep is not None
        else ds
    ).materialize()  # consumed by the sketch, the count reduce, the exchange

    cutoffs = _cutoffs_from_sketch(
        proj.map_batches(
            lambda b: b[[lead]].dropna(), batch_format="pandas"
        ),
        lead,
        n_buckets,
        sketch_k,
    )

    def bucket_of(b: pd.DataFrame) -> np.ndarray:
        v = b[lead].to_numpy(dtype="float64")
        bk = np.searchsorted(cutoffs, v, side="right").astype("int64")
        bk[np.isnan(v)] = len(cutoffs)  # NULLS LAST
        return bk

    counts = auto_group_agg(
        proj.map_batches(
            lambda b: b.assign(__bucket=bucket_of(b))
            .groupby("__bucket", as_index=False)
            .size()
            .rename(columns={"size": "c"}),
            batch_format="pandas",
        ),
        ["__bucket"],
        {"c": ("c", "sum")},
    )
    if not isinstance(counts, pd.DataFrame):
        counts = counts.to_pandas()
    offsets = np.zeros(len(cutoffs) + 2, dtype="int64")
    if counts.shape[1] > 0 and len(counts):
        per = np.zeros(len(cutoffs) + 1, dtype="int64")
        per[counts["__bucket"].to_numpy(dtype="int64")] = counts[
            "c"
        ].to_numpy(dtype="int64")
        offsets[1:] = np.cumsum(per)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        bk = int(bucket_of(g.iloc[:1])[0])
        g = g.sort_values(
            ocols, kind="mergesort", na_position="last"
        ).reset_index(drop=True)
        g[out_col] = offsets[bk] + np.arange(1, len(g) + 1, dtype="int64")
        return g

    res = exchange(proj, bucket_of, per_bucket)
    if as_dataset:
        return res
    out = res.to_pandas()
    if len(out) == 0:
        return out
    return out.sort_values(out_col, kind="mergesort").reset_index(drop=True)


def densify_buckets(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    ts_col: str,
    bucket_us: int,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Gap-filled dense time buckets — the series-densification step
    behind monitoring/seasonality pipelines (a bucket with no events
    must exist WITH n=0, or downstream rates/alerts silently skip it):
    per key, every bucket between that key's first and last activity,
    with exact event counts and zeros for the gaps.  Exactly SQL's
    ``generate_series(min, max)`` LEFT JOIN counts COALESCE 0.

    Scale shape: counts pre-combine per batch to (key, bucket, n)
    partials — the raw events never move — and ONE bounded
    ``hash(key)`` exchange co-locates each key's partials;
    per shard one vectorized pass sums partials, expands every key's
    [min, max] bucket range (np.repeat + cumulative arange), and
    left-merges the counts.  Output is (keys × their spans)-sized by
    definition; NULL keys/timestamps drop."""
    if bucket_us <= 0:
        raise ValueError(f"bucket_us must be positive, got {bucket_us}")
    gcols = list(key_cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[*gcols, ts_col]].dropna()
        p = (
            b[ts_col].to_numpy().astype("datetime64[us]").astype("int64")
            // bucket_us
        )
        sub = b[gcols].copy()
        sub["bucket"] = p
        out = sub.groupby([*gcols, "bucket"], as_index=False).size().rename(
            columns={"size": "n"}
        )
        out["n"] = out["n"].astype("int64")
        return out

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby([*gcols, "bucket"], as_index=False)["n"].sum()
        r = c.groupby(gcols)["bucket"].agg(mn="min", mx="max").reset_index()
        spans = (r["mx"] - r["mn"] + 1).to_numpy(dtype="int64")
        total = int(spans.sum())
        idx = np.repeat(np.arange(len(r), dtype="int64"), spans)
        starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        # 0..span-1 within each key, fully vectorized
        within = np.arange(total, dtype="int64") - np.repeat(starts, spans)
        dense = r.iloc[idx][gcols].reset_index(drop=True)
        dense["bucket"] = r["mn"].to_numpy(dtype="int64")[idx] + within
        out = dense.merge(c, on=[*gcols, "bucket"], how="left")
        out["n"] = out["n"].fillna(0).astype("int64")
        return out

    res = exchange(ds.map_batches(partial, batch_format="pandas"), gcols, per_shard)
    if as_dataset:
        return res
    out = res.to_pandas()
    if len(out) == 0 or out.shape[1] == 0:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "bucket": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
            }
        )
    return out.sort_values([*gcols, "bucket"]).reset_index(drop=True)


def grouped_max_streak(
    ds: rd.Dataset,
    group_cols: list[str],
    *,
    ts_col: str,
    bucket_us: int = 86_400_000_000,
) -> pd.DataFrame:
    """Longest consecutive-bucket activity streak per key (the retention
    "longest daily streak" readout) — the gaps-and-islands rank trick:
    over each key's DISTINCT active buckets in order, ``bucket − rank``
    is constant exactly within a consecutive run, so the answer is the
    max run size per key.  All integers; a ROW_NUMBER SQL oracle matches
    exactly.

    Scale shape: per-batch distinct (key, bucket) combiners shrink the
    exchange to the activity grid, ONE bounded keyed exchange co-locates
    each key's buckets, one vectorized sort + diff-cumsum pass per shard;
    only the key-dim result reaches the driver.  NULL keys/timestamps
    drop."""
    gcols = list(group_cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[[*gcols, ts_col]].dropna()
        us = sub[ts_col].to_numpy().astype("datetime64[us]").astype("int64")
        out = sub[gcols].copy()
        out["__b"] = us // bucket_us
        return out.drop_duplicates()

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates().sort_values(
            [*gcols, "__b"], kind="mergesort"
        )
        key_change = (
            g[gcols].ne(g[gcols].shift()).any(axis=1).to_numpy()
        )
        b = g["__b"].to_numpy()
        new_run = key_change | np.concatenate([[True], np.diff(b) != 1])
        run_id = np.cumsum(new_run)
        g = g.assign(__run=run_id)
        runs = g.groupby([*gcols, "__run"], sort=False).size()
        out = runs.groupby(level=list(range(len(gcols)))).max().rename(
            "max_streak"
        ).reset_index()
        out["max_streak"] = out["max_streak"].astype("int64")
        return out

    res = exchange(ds.map_batches(partial, batch_format="pandas"), gcols, per_shard).to_pandas()
    if len(res) == 0 or "max_streak" not in res.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "max_streak": pd.Series([], dtype="int64"),
            }
        )
    return res.sort_values(gcols).reset_index(drop=True)
