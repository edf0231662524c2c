"""Mergeable quantile sketch — the approx-at-scale path for grouped
quantiles/medians (q_median_value_by_type stays the exact small-group
oracle; this is what replaces it when a group's values no longer fit one
worker).

Sketch: fixed-size equi-depth anchor set (k weighted order statistics).
Deterministic, associative merge (concat -> sort -> recompress to k by
cumulative weight), error O(1/k) in rank; EXACT while a group's total
count <= k (every value is its own anchor).  This is the classic
histogram-compression sketch (same family as Greenwald-Khanna / t-digest,
simplified to deterministic equi-depth anchors).

Exchange shape: per-batch per-group partial sketches (combiner), one
hash-shard exchange on the group key, per-shard merges; only (group,
quantile-estimate) rows reach the driver."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .exchange import exchange


def _compress(values: np.ndarray, weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted weighted value set -> at most k equi-depth anchors."""
    if len(values) <= k:
        return values, weights
    order = np.argsort(values, kind="mergesort")
    v, w = values[order], weights[order]
    cw = np.cumsum(w)
    total = cw[-1]
    # anchor i covers rank window (i, i+1]/k: take the value at the
    # window's weighted midpoint; anchor weight = window weight
    mids = (np.arange(k) + 0.5) * total / k
    idx = np.searchsorted(cw, mids, side="left")
    idx = np.clip(idx, 0, len(v) - 1)
    av = v[idx]
    aw = np.full(k, total / k)
    return av, aw


def sketch_from_values(values: np.ndarray, k: int) -> dict:
    v = np.asarray(values, dtype=np.float64)
    v = v[~np.isnan(v)]
    if v.size == 0:
        return {"v": [], "w": [], "n": 0}
    sv = np.sort(v, kind="mergesort")
    av, aw = _compress(sv, np.ones(len(sv)), k)
    return {"v": av.tolist(), "w": aw.tolist(), "n": int(v.size)}


def merge_sketches(sketches: list[dict], k: int) -> dict:
    vs = np.concatenate([np.asarray(s["v"], dtype=np.float64) for s in sketches if s["n"]])
    ws = np.concatenate([np.asarray(s["w"], dtype=np.float64) for s in sketches if s["n"]])
    n = sum(int(s["n"]) for s in sketches)
    if n == 0:
        return {"v": [], "w": [], "n": 0}
    order = np.argsort(vs, kind="mergesort")
    av, aw = _compress(vs[order], ws[order], k)
    return {"v": av.tolist(), "w": aw.tolist(), "n": n}


def sketch_quantile(sketch: dict, q: float) -> float:
    """Weighted-midpoint interpolation (matches numpy 'linear' exactly
    while every value is its own unit-weight anchor, i.e. n <= k)."""
    v = np.asarray(sketch["v"], dtype=np.float64)
    w = np.asarray(sketch["w"], dtype=np.float64)
    if v.size == 0:
        return float("nan")
    if v.size == 1:
        return float(v[0])
    cw = np.cumsum(w)
    total = cw[-1]
    # midpoint ranks (the anchor represents the middle of its mass)
    mid = cw - w / 2.0
    target = q * (total - w[0] / 2.0 - w[-1] / 2.0) + w[0] / 2.0
    return float(np.interp(target, mid, v))


def grouped_sketches(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    *,
    k: int = 256,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Per-group MERGED sketch table ``(key, sk, n)``: per-batch
    per-group partials (combiner), hash-shard exchange on the key,
    per-shard merge — only one k-anchor sketch per GROUP reaches the
    driver (group cardinality is the small dimension here — languages,
    event types — never the row count).  Shared by
    ``grouped_quantile_sketch`` and the ``grouped_rank_buckets`` sketch
    route, which reads several quantiles from one sketch."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, g in b.groupby(key_col):
            rows.append({key_col: key, "sk": sketch_from_values(g[value_col].to_numpy(), k)})
        if not rows:
            # typed empty (key dtype from the batch itself): a columnless
            # empty frame diverges the per-block schema downstream
            return pd.DataFrame({key_col: b[key_col].iloc[:0], "sk": pd.Series(dtype=object)})
        return pd.DataFrame(rows)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, grp in g.groupby(key_col):
            sk = merge_sketches(list(grp["sk"]), k)
            rows.append({key_col: key, "sk": sk, "n": int(sk["n"])})
        if not rows:
            return pd.DataFrame(
                {
                    key_col: g[key_col].iloc[:0],
                    "sk": pd.Series(dtype=object),
                    "n": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(rows)

    partials = ds.map_batches(partial, batch_format="pandas")
    out = exchange(partials, key_col, per_shard, n_shards=n_shards).to_pandas()
    return out.sort_values(key_col).reset_index(drop=True)


def grouped_quantile_sketch(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    *,
    quantile: float = 0.5,
    k: int = 256,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Approximate grouped quantile via mergeable sketches (one merged
    sketch per group through ``grouped_sketches``; driver reads the
    quantile).  Exact while a group's count <= k; error O(1/k) in rank
    beyond."""
    merged = grouped_sketches(ds, key_col, value_col, k=k, n_shards=n_shards)
    out = pd.DataFrame(
        {
            key_col: merged[key_col],
            f"q{quantile}": pd.Series(
                [sketch_quantile(s, quantile) for s in merged["sk"]], dtype="float64"
            ).to_numpy(),
            "n": merged["n"].astype("int64"),
        }
    )
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (Flajolet et al. 2007) — corpus-scale
# COUNT(DISTINCT) without a distinct shuffle: per-batch register partials
# (2^p bytes each, p=12 -> 4 KB), elementwise-max merge (associative and
# commutative, so the estimate is block-structure independent), relative
# error ~1.04/sqrt(2^p) ~ 1.6%.  The exact `distinct_sorted` /
# `distinct_users_by_type` stay the oracles; this is what replaces them
# when the distinct set itself no longer fits an exchange.
# ---------------------------------------------------------------------------
def _floor_log2_u64(v: np.ndarray) -> np.ndarray:
    """Exact floor(log2) of nonzero uint64 values — six vectorized
    shift/compare passes (a float conversion rounds values near powers
    of two and biases the rank for suffixes wider than 53 bits)."""
    v = v.copy()
    fl = np.zeros(len(v), dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1) << np.uint64(shift)
        fl[m] += shift
        v[m] >>= np.uint64(shift)
    return fl


def _hll_registers(values, p: int) -> np.ndarray:
    """Register array (uint8, 2^p entries) for one batch of values.
    Numeric columns hash through pandas' native path (the object-dtype
    fallback measured ~50x slower per batch)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    arr = values.to_numpy() if isinstance(values, pd.Series) else np.asarray(values)
    if arr.size == 0:
        return regs
    if arr.dtype == object:
        h = pd.util.hash_array(arr, categorize=False)
    else:
        h = pd.util.hash_array(arr)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    bits = h & np.uint64((1 << (64 - p)) - 1)
    # rho = leading zeros within the (64-p)-bit suffix + 1
    rho = np.full(arr.size, 64 - p + 1, dtype=np.uint8)
    nz = bits != 0
    if nz.any():
        rho[nz] = (64 - p) - _floor_log2_u64(bits[nz])
    np.maximum.at(regs, idx, rho)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the linear-counting small-range
    correction (64-bit hash -> no large-range correction needed)."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.ldexp(1.0, -regs.astype(np.int64)))
    zeros = int(np.count_nonzero(regs == 0))
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)
    return float(e)


def approx_distinct(ds: rd.Dataset, col: str, *, p: int = 12) -> int:
    """Approximate COUNT(DISTINCT col): map-only partials, fixed-size
    driver merge (one 2^p-byte register array per batch streams through
    `iter_batches`; the accumulator never grows)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"regs": [_hll_registers(b[col], p).tobytes()]})

    acc = np.zeros(1 << p, dtype=np.uint8)
    for batch in ds.select_columns([col]).map_batches(
        partial, batch_format="pandas"
    ).iter_batches(batch_format="pandas"):
        for raw in batch["regs"]:
            np.maximum(acc, np.frombuffer(raw, dtype=np.uint8), out=acc)
    return int(round(_hll_estimate(acc)))


def approx_distinct_by(
    ds: rd.Dataset,
    key_col: str,
    col: str,
    *,
    p: int = 12,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Grouped approximate distinct: per-batch per-group register
    partials, hash-shard exchange on the key, per-shard elementwise-max
    merge; the driver sees (key, estimate) rows only."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = [
            {key_col: key, "regs": _hll_registers(g[col], p).tobytes()}
            for key, g in b.groupby(key_col)
        ]
        if not rows:
            return pd.DataFrame(
                {key_col: b[key_col].iloc[:0], "regs": pd.Series(dtype=object)}
            )
        return pd.DataFrame(rows)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, grp in g.groupby(key_col):
            acc = np.zeros(1 << p, dtype=np.uint8)
            for raw in grp["regs"]:
                np.maximum(acc, np.frombuffer(raw, dtype=np.uint8), out=acc)
            rows.append({key_col: key, "approx_distinct": int(round(_hll_estimate(acc)))})
        if not rows:
            return pd.DataFrame(
                {key_col: g[key_col].iloc[:0], "approx_distinct": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(rows)

    out = exchange(
        ds.select_columns([key_col, col]).map_batches(partial, batch_format="pandas"),
        key_col,
        per_shard,
        n_shards=n_shards,
    ).to_pandas()
    return out.sort_values(key_col).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters (Misra & Gries 1982; mergeable form per
# Agarwal et al. 2012) — the most frequent tokens/domains/values at
# corpus scale without a full groupby: per-batch exact counts collapse
# into a k-entry summary whose counts are LOWER bounds with guaranteed
# error <= total_decrement <= n/(k+1).  Any value with true frequency
# > n/(k+1) is guaranteed present.
# ---------------------------------------------------------------------------
def _mg_merge(df: pd.DataFrame, k: int) -> tuple[pd.Series, int]:
    """Merge a pile of MG summary rows ``(v, c, __d)`` — ``__d`` rows
    (v = NaN) carry upstream decrement totals — into one k-bounded
    summary: ONE vectorized groupby sum, then at most one decrement
    step (summed exact partials need only one (k+1)-th-largest cut to
    re-bound, unlike the streaming variant's per-merge cuts).  Returns
    (summary counts indexed by value, accumulated decrement).  MG
    summaries are mergeable (Agarwal et al. 2012): each decrement of
    d removes >= (k+1)*d stream weight, so the TOTAL decrement across
    any merge tree is <= n/(k+1)."""
    d_in = int(df["__d"].sum())
    real = df[df["v"].notna()]
    s = real.groupby("v")["c"].sum()
    if len(s) > k:
        cuts = np.sort(s.to_numpy())[::-1]
        dec = int(cuts[k])  # the (k+1)-th largest
        d_in += dec
        s = s - dec
        s = s[s > 0]
    return s.astype("int64"), d_in


def heavy_hitters(
    ds: rd.Dataset,
    col: str,
    *,
    k: int = 1024,
    top: int | None = None,
    merge_batch_rows: int = 65536,
) -> pd.DataFrame:
    """(value, count_lb, count_ub) for the at-most-k tracked values,
    count_lb descending.  Misra-Gries: per-batch exact counts collapse
    through decrement steps ((k+1)-th largest subtracted, non-positive
    dropped) that keep every summary k-bounded; the total decrement
    (the shared error bound reported as count_ub - count_lb) is
    <= n/(k+1).

    Shape: per-batch combiner partials -> a MAP-SIDE merge layer
    (``map_batches`` over ~``merge_batch_rows`` partial rows per task —
    a tree reduce with NO exchange: summaries are mergeable, so
    arbitrary stream partitions merge associatively) -> the driver
    reduces the surviving k-bounded summaries (n_partial_rows /
    merge_batch_rows of them, each <= k+1 rows) in one vectorized
    groupby.  Still ZERO-shuffle at any scale, but the driver's serial
    work is summary-sized, not stream-sized.  When exact counts over a
    corpus-scale value domain are required, that is `sharded_group_agg`
    / `token_document_frequency`'s exchange, not a sketch."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[col].value_counts()
        return pd.DataFrame(
            {
                "v": vc.index,
                "c": vc.to_numpy(dtype=np.int64),
                "__d": np.zeros(len(vc), dtype=np.int64),
            }
        )

    def merge_layer(b: pd.DataFrame) -> pd.DataFrame:
        s, d = _mg_merge(b, k)
        out = pd.DataFrame(
            {
                "v": s.index.to_numpy(dtype=object),
                "c": s.to_numpy(dtype=np.int64),
                "__d": np.zeros(len(s), dtype=np.int64),
            }
        )
        if d:
            # decrement marker row (v = None) — rides to the next merge
            out = pd.concat(
                [out, pd.DataFrame({"v": [None], "c": [0], "__d": [d]})],
                ignore_index=True,
            )
        return out

    merged = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pandas")
        .map_batches(merge_layer, batch_format="pandas", batch_size=merge_batch_rows)
        .to_pandas()
    )
    if merged.empty:
        return pd.DataFrame(
            {
                "v": pd.Series(dtype="object"),
                "count_lb": pd.Series(dtype="int64"),
                "count_ub": pd.Series(dtype="int64"),
            }
        )
    acc, dec_total = _mg_merge(merged, k)
    if not len(acc):
        return pd.DataFrame(
            {
                "v": pd.Series(dtype="object"),
                "count_lb": pd.Series(dtype="int64"),
                "count_ub": pd.Series(dtype="int64"),
            }
        )
    out = pd.DataFrame(
        {
            "v": acc.index,
            "count_lb": acc.to_numpy(dtype=np.int64),
            "count_ub": acc.to_numpy(dtype=np.int64) + dec_total,
        }
    )
    out = out.sort_values(["count_lb", "v"], ascending=[False, True]).reset_index(
        drop=True
    )
    return out.head(top) if top is not None else out


# --------------------------------------------------------------------------
# Count-Min sketch (point-frequency estimates)
# --------------------------------------------------------------------------
_CM_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _cm_rows(h: np.ndarray, width: int, depth: int) -> np.ndarray:
    """(depth, n) column indices via Kirsch-Mitzenmacher double hashing
    (h1 + i*h2 — the Bloom-filter identity preserves the CM bound)."""
    h1 = h.view(np.uint64)
    h2 = h1 * _CM_GOLD
    h2 ^= h2 >> np.uint64(29)
    h2 |= np.uint64(1)
    w = np.uint64(width)
    return np.stack([((h1 + np.uint64(i) * h2) % w) for i in range(depth)])


def count_min_build(
    ds: rd.Dataset, col: str, *, width: int = 2048, depth: int = 4
) -> dict:
    """Count-Min sketch of the value frequencies in ``col`` (Cormode &
    Muthukrishnan 2005): point estimates obey ``true <= est <= true +
    (e/width) * N`` with prob. ``1 - e^-depth`` — the fixed-memory
    point-frequency complement to the Misra-Gries heavy-hitter TOP-K
    (`heavy_hitters` finds the keys; this answers 'how often does key X
    occur' for ANY key without holding the key space).

    Scale shape: counters are mergeable sums — one (depth x width)
    int64 partial per batch, streamed and summed on the driver exactly
    like `approx_distinct`'s register merge (the accumulator is
    depth x width x 8 bytes, fixed).  Values never move."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = np.zeros((depth, width), dtype=np.int64)
        h = pd.util.hash_array(b[col].to_numpy())
        rows = _cm_rows(h, width, depth)
        for i in range(depth):
            np.add.at(m[i], rows[i].astype(np.int64), 1)
        return pd.DataFrame({"m": [m.tobytes()], "n": [len(b)]})

    acc = np.zeros((depth, width), dtype=np.int64)
    n = 0
    for batch in ds.select_columns([col]).map_batches(
        partial, batch_format="pandas"
    ).iter_batches(batch_format="pandas"):
        for raw, bn in zip(batch["m"], batch["n"]):
            acc += np.frombuffer(raw, dtype=np.int64).reshape(depth, width)
            n += int(bn)
    return {"m": acc, "width": width, "depth": depth, "n": n}


def count_min_query(cm: dict, values) -> np.ndarray:
    """Point-frequency estimates for ``values`` (vectorized min over the
    depth rows).  Overestimates only — never below the true count."""
    vals = np.asarray(values)
    h = pd.util.hash_array(vals)
    rows = _cm_rows(h, cm["width"], cm["depth"])
    ests = np.stack(
        [cm["m"][i][rows[i].astype(np.int64)] for i in range(cm["depth"])]
    )
    return ests.min(axis=0)


def hll_registers_for(ds: rd.Dataset, col: str, *, p: int = 12) -> np.ndarray:
    """Merged HLL register array for one dataset/column — the reusable
    half of `approx_distinct` (map-only fixed-size partials, streaming
    driver max-merge; the accumulator never grows)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"regs": [_hll_registers(b[col], p).tobytes()]})

    acc = np.zeros(1 << p, dtype=np.uint8)
    for batch in ds.select_columns([col]).map_batches(
        partial, batch_format="pandas"
    ).iter_batches(batch_format="pandas"):
        for raw in batch["regs"]:
            np.maximum(acc, np.frombuffer(raw, dtype=np.uint8), out=acc)
    return acc


def hll_set_estimates(
    ds_a: rd.Dataset, ds_b: rd.Dataset, col: str, *, p: int = 12
) -> dict:
    """Approximate distinct-set relations between two corpora WITHOUT
    co-locating them (audience overlap, crawl-snapshot key overlap):
    register-wise max of two HLLs is EXACTLY the HLL of the union (same
    hash, max is idempotent/commutative), so |A∪B| carries the plain
    single-sketch error (~1.04/√m); |A∩B| = |A| + |B| − |A∪B|
    (inclusion–exclusion, clamped at 0 — errors compound, the documented
    trade) and Jaccard follows.  Zero exchanges; two register arrays
    meet on the driver."""
    ra = hll_registers_for(ds_a, col, p=p)
    rb = hll_registers_for(ds_b, col, p=p)
    est_a = _hll_estimate(ra)
    est_b = _hll_estimate(rb)
    est_u = _hll_estimate(np.maximum(ra, rb))
    inter = max(0.0, est_a + est_b - est_u)
    return {
        "n_a": est_a,
        "n_b": est_b,
        "n_union": est_u,
        "n_intersect": inter,
        "jaccard": (inter / est_u) if est_u > 0 else 0.0,
    }


def hll_cumulative_distinct(
    ds: rd.Dataset,
    ts_col: str,
    key_col: str,
    *,
    bucket_us: int = 86_400_000_000,
    p: int = 12,
    n_shards: int = 32,
) -> pd.DataFrame:
    """Cumulative distinct keys over time — "total unique users ever
    seen, by day" without co-locating anything: per (bucket) the batch
    combiners emit one fixed-size HLL register partial; buckets merge
    by elementwise max through the size-aware finish; and because
    register-max IS sketch union EXACTLY (the `hll_set_estimates`
    property), a running max over buckets in time order yields the
    sketch of the UNION of everything up to each bucket — the
    cumulative-distinct curve from one pass, 2^p bytes per bucket.

    Returns (bucket, est_in_bucket, est_cumulative) with the standard
    ±~1.04/√2^p relative error.  NULL keys/timestamps drop."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[[ts_col, key_col]].dropna()
        if not len(sub):
            return pd.DataFrame(
                {"bucket": pd.Series(dtype="int64"),
                 "regs": pd.Series(dtype=object)}
            )
        us = sub[ts_col].to_numpy().astype("datetime64[us]").astype("int64")
        sub = sub.assign(__b=us // bucket_us)
        rows = []
        for bk, g in sub.groupby("__b"):
            rows.append(
                {"bucket": int(bk),
                 "regs": _hll_registers(g[key_col], p).tobytes()}
            )
        return pd.DataFrame(rows, columns=["bucket", "regs"])

    parts = ds.map_batches(partial, batch_format="pandas")

    def merge_shard(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for bk, gg in g.groupby("bucket"):
            acc = np.zeros(1 << p, dtype=np.uint8)
            for blob in gg["regs"]:
                np.maximum(acc, np.frombuffer(blob, dtype=np.uint8), out=acc)
            out.append({"bucket": int(bk), "regs": acc.tobytes()})
        return pd.DataFrame(out, columns=["bucket", "regs"])

    merged = exchange(parts, "bucket", merge_shard, n_shards=n_shards).to_pandas()
    if len(merged) == 0:
        return pd.DataFrame(
            {"bucket": pd.Series(dtype="int64"),
             "est_in_bucket": pd.Series(dtype="float64"),
             "est_cumulative": pd.Series(dtype="float64")}
        )
    merged = merged.sort_values("bucket").reset_index(drop=True)
    acc = np.zeros(1 << p, dtype=np.uint8)
    in_b, cum = [], []
    for blob in merged["regs"]:
        regs = np.frombuffer(blob, dtype=np.uint8)
        in_b.append(_hll_estimate(regs))
        np.maximum(acc, regs, out=acc)
        cum.append(_hll_estimate(acc))
    return pd.DataFrame(
        {"bucket": merged["bucket"].astype("int64"),
         "est_in_bucket": np.asarray(in_b),
         "est_cumulative": np.asarray(cum)}
    )
