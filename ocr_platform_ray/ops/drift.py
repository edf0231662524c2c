"""Corpus drift measurement — token-distribution divergence between two
corpora (crawl snapshot vs snapshot, source vs source, train vs eval):
the monitoring signal that tells a pipeline operator the data CHANGED
before a model does.  Jensen-Shannon divergence over exact unigram
distributions (Lin 1991), reported per token so the answer is
actionable ("which tokens moved") and not just a scalar.

Scale shape: per-corpus token counts from in-batch value_counts
combiners into the size-aware `auto_group_agg` finish; the two count
tables meet in ONE size-aware join (driver merge while the vocabulary
fits the probe, bucketed full-outer exchange past it); every per-token
divergence term is then a pure function of (n_a, n_b, tot_a, tot_b) —
map-only, order-free, and therefore SQL-mirrorable to the bit (the
global sum is the only order-dependent float, computed driver-side for
the scalar report).

Tokenization is the BM25 rule (lower, split on single spaces) so a SQL
oracle can mirror every count exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .exchange import exchange
from .relational import auto_group_agg, bucketed_hash_join


def _token_counts(ds: rd.Dataset, text_col: str):
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = pc.split_pattern(
            pc.utf8_lower(pa.array(b[text_col].fillna(""), pa.string())),
            pattern=" ",
        )
        flat = toks.flatten().to_pandas()
        vc = flat[flat != ""].value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(), "n": vc.to_numpy()})

    return auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["token"],
        {"n": ("n", "sum")},
    )


def _js_terms(
    n_a: np.ndarray, n_b: np.ndarray, tot_a: float, tot_b: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_a, p_b, per-token JS term), with 0·log(0) = 0.  Terms are in
    bits (log2); their sum is JSD(A, B) ∈ [0, 1]."""
    p_a = n_a / tot_a
    p_b = n_b / tot_b
    m = 0.5 * (p_a + p_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(p_a > 0, 0.5 * p_a * np.log2(p_a / m), 0.0)
        tb = np.where(p_b > 0, 0.5 * p_b * np.log2(p_b / m), 0.0)
    return p_a, p_b, ta + tb


def token_divergence(
    a: rd.Dataset,
    b: rd.Dataset,
    text_col: str = "text",
) -> pd.DataFrame | rd.Dataset:
    """Per-token drift table between two corpora: (token, n_a, n_b,
    js_term) over the union vocabulary, js_term ≥ 0 and
    Σ js_term = JSD(A, B) in bits.  Returns pandas when both count
    tables fit the size probe (one driver outer merge), else a Dataset
    from the bucketed full-outer exchange."""
    ca = _token_counts(a, text_col)
    cb = _token_counts(b, text_col)
    tot = {}
    for name, c in (("a", ca), ("b", cb)):
        if isinstance(c, pd.DataFrame):
            tot[name] = int(c["n"].sum()) if len(c) else 0
        else:
            parts = c.map_batches(
                lambda t: pd.DataFrame({"s": [int(t["n"].sum()) if len(t) else 0]}),
                batch_format="pandas",
            ).to_pandas()
            tot[name] = int(parts["s"].sum()) if len(parts) else 0
    if tot["a"] == 0 or tot["b"] == 0:
        raise ValueError("token_divergence: both corpora need at least one token")

    if isinstance(ca, pd.DataFrame) and isinstance(cb, pd.DataFrame):
        j = ca.merge(cb, on="token", how="outer", suffixes=("_a", "_b"))
        n_a = j["n_a"].fillna(0).to_numpy(dtype=np.float64)
        n_b = j["n_b"].fillna(0).to_numpy(dtype=np.float64)
        _, _, term = _js_terms(n_a, n_b, tot["a"], tot["b"])
        out = pd.DataFrame(
            {
                "token": j["token"],
                "n_a": n_a.astype("int64"),
                "n_b": n_b.astype("int64"),
                "js_term": term,
            }
        )
        return out.sort_values("token").reset_index(drop=True)

    to_ds = lambda c: rd.from_pandas(c) if isinstance(c, pd.DataFrame) else c  # noqa: E731
    ca_ds = to_ds(ca).map_batches(
        lambda t: t.rename(columns={"n": "n_a"}), batch_format="pandas"
    )
    cb_ds = to_ds(cb).map_batches(
        lambda t: t.rename(columns={"n": "n_b"}), batch_format="pandas"
    )
    joined = bucketed_hash_join(ca_ds, cb_ds, on="token", how="outer")
    tot_a, tot_b = float(tot["a"]), float(tot["b"])

    def finish(t: pd.DataFrame) -> pd.DataFrame:
        n_a = t["n_a"].fillna(0).to_numpy(dtype=np.float64) if "n_a" in t else np.zeros(len(t))
        n_b = t["n_b"].fillna(0).to_numpy(dtype=np.float64) if "n_b" in t else np.zeros(len(t))
        _, _, term = _js_terms(n_a, n_b, tot_a, tot_b)
        return pd.DataFrame(
            {
                "token": t["token"],
                "n_a": n_a.astype("int64"),
                "n_b": n_b.astype("int64"),
                "js_term": term,
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


def cusum_changepoint(
    ds: rd.Dataset,
    *,
    group_col: str,
    ts_col: str,
    bucket_us: int = 3_600_000_000,
) -> pd.DataFrame:
    """Per-group CUSUM change-point over the bucketed event-rate series
    (Page 1954's cumulative-sum chart in its retrospective single-pass
    form — the "when did this source's volume shift" monitoring readout
    next to the JS token drift and WoW deltas): with bucket counts
    n_1..n_K in time order, the statistic at k is

        D_k = | S_k − (k / K) · S_K |        S_k = Σ_{i≤k} n_i

    — the maximum-deviation-from-proportionality form; the change point
    is the k maximizing D_k (ties to the earliest bucket).  D_k is one
    IEEE expression over exact int64 prefix sums and positions, so a
    window-function SQL oracle hashes identically.

    Scale shape: per-batch (group, bucket) count combiners into the
    size-aware `auto_group_agg` finish; the CUSUM scan runs over the
    report-dim (group × bucket) count table — the events themselves
    never move, and the time dimension bounds the table (the
    `events_hourly` contract).  NULL groups/timestamps drop."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[[group_col, ts_col]].dropna()
        us = sub[ts_col].to_numpy().astype("datetime64[us]").astype("int64")
        out = pd.DataFrame(
            {group_col: sub[group_col], "bucket": us // bucket_us}
        )
        return (
            out.groupby([group_col, "bucket"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    red = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        [group_col, "bucket"],
        {"n": ("n", "sum")},
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    if len(red) == 0 or "bucket" not in red.columns:
        return pd.DataFrame(
            {
                group_col: pd.Series(dtype="object"),
                "cp_bucket": pd.Series(dtype="int64"),
                "cusum": pd.Series(dtype="float64"),
                "n_buckets": pd.Series(dtype="int64"),
                "total": pd.Series(dtype="int64"),
            }
        )
    red = red.sort_values([group_col, "bucket"]).reset_index(drop=True)
    red["n"] = red["n"].astype("int64")
    rows = []
    for g, grp in red.groupby(group_col, sort=True):
        n = grp["n"].to_numpy()
        sk = np.cumsum(n).astype("float64")
        kk = np.arange(1, len(n) + 1, dtype="float64")
        K = float(len(n))
        tot = sk[-1]
        d = np.abs(sk - (kk / K) * tot)
        best = int(np.argmax(d))  # first max = earliest bucket
        rows.append(
            {
                group_col: g,
                "cp_bucket": int(grp["bucket"].iloc[best]),
                "cusum": float(d[best]),
                "n_buckets": len(n),
                "total": int(sk[-1]),
            }
        )
    out = pd.DataFrame(rows)
    out["n_buckets"] = out["n_buckets"].astype("int64")
    out["total"] = out["total"].astype("int64")
    return out


def _pair_index(local: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-key ordered pairs (i, j) with i < j, fully vectorized
    across every key in a shard at once: ``local`` is each row's 0-based
    position inside its key (rows key-contiguous), ``offsets`` each row's
    key start.  Row r contributes ``local[r]`` pairs in which it is the
    LATER element j; the earlier elements i are the segment
    ``[offset[r], offset[r] + local[r])``.  Returns (i_rows, j_rows) as
    global row indices — the flat-segmented-arange trick (`_shingle
    hashes` / pair_cooccurrence family), no per-key Python."""
    counts = local.astype("int64")
    total = int(counts.sum())
    if total == 0:
        e = np.empty(0, dtype="int64")
        return e, e
    j_rows = np.repeat(np.arange(len(local), dtype="int64"), counts)
    seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype="int64") - np.repeat(seg_starts, counts)
    i_rows = within + np.repeat(offsets.astype("int64"), counts)
    return i_rows, j_rows


def grouped_trend(
    ds: rd.Dataset,
    value_col: str,
    group_cols: list[str],
    *,
    order_col: str,
    tie_col: str,
    max_rows_per_group: int = 20_000,
) -> pd.DataFrame:
    """Per-group Mann–Kendall monotone-trend test + Theil–Sen robust
    slope (Mann 1945 / Kendall 1975; Theil 1950 / Sen 1968) — the
    distribution-free "is this series drifting" readout next to the
    CUSUM change point: over each key's ``(order, tie)``-ordered value
    timeline,

        S       = Σ_{i<j} sign(v_j − v_i)                (exact int)
        Var(S)  = (n(n−1)(2n+5) − Σ_t t(t−1)(2t+5)) / 18 (tie-corrected)
        z       = (S − 1)/√Var  if S > 0, (S + 1)/√Var if S < 0, else 0
        sen     = median of (v_j − v_i)/(o_j − o_i) over o_j ≠ o_i pairs

    S and the variance numerator are pure INTEGER functions of the value
    multiset and order (sign() is an exact double comparison — no
    scaling, no accumulation), so they are block-structure independent
    and SQL-mirrorable to the bit; z is one mirrored IEEE expression;
    the Sen median uses the exact ``quantile_cont`` lerp (the
    `grouped_percentile_exact` two-products form) over pair slopes that
    are each a single IEEE division of raw doubles — also bit-exact
    against a self-join SQL oracle.

    Scale shape: ONE bounded ``hash(group)`` exchange
    co-locates each key (the keyed-window scaffold); per shard the
    i<j pair index is built in one flat-segmented-arange pass across
    ALL keys at once (no per-key Python) and reduced to a key-dim
    (n, S, tie-term, sen) table — only that reaches the driver.  The
    pairwise expansion is inherently O(n_k²) per key (exactly what the
    statistic is), so ``max_rows_per_group`` raises loudly on keys past
    the documented bound — at corpus scale, bucket the timeline first
    (e.g. daily means) like every published MK-at-scale treatment.
    NULL values/orders drop; keys with n < 2 get NaN z and sen.

    A ``datetime64`` order column converts to integer microseconds
    (slope = value per microsecond), mirroring SQL ``epoch_us``."""
    gcols = list(group_cols)
    keep = list(dict.fromkeys([*gcols, order_col, tie_col, value_col]))

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        out = b[keep].copy()
        out = out[out[value_col].notna() & out[order_col].notna()]
        if pd.api.types.is_datetime64_any_dtype(out[order_col]):
            out[order_col] = (
                out[order_col].to_numpy().astype("datetime64[us]").astype("int64")
            )
        return out

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [*gcols, order_col, tie_col], kind="mergesort"
        ).reset_index(drop=True)
        grp = g.groupby(gcols, sort=False, dropna=False)
        local = grp.cumcount().to_numpy(dtype="int64")
        sizes = grp[value_col].transform("size").to_numpy(dtype="int64")
        if len(sizes) and int(sizes.max()) > max_rows_per_group:
            raise ValueError(
                f"grouped_trend: a {gcols} group has {int(sizes.max())} rows "
                f"(max_rows_per_group={max_rows_per_group}); the MK pair "
                "expansion is O(n²) per key — pre-bucket the timeline "
                "(e.g. daily means) before the trend test"
            )
        offsets = np.arange(len(g), dtype="int64") - local
        i_rows, j_rows = _pair_index(local, offsets)
        v = g[value_col].to_numpy(dtype="float64")
        o = g[order_col].to_numpy(dtype="float64")
        dv = v[j_rows] - v[i_rows]
        sgn = np.sign(dv).astype("int64")
        dt = o[j_rows] - o[i_rows]
        # per-pair key = the j row's key labels (i is the same key)
        pk = g.loc[j_rows, gcols].reset_index(drop=True) if len(j_rows) else g.iloc[:0][gcols]
        pk = pk.copy()
        pk["__s"] = sgn
        s_tab = pk.groupby(gcols, as_index=False, dropna=False)["__s"].sum()
        # tie correction: value-count table per key (ties are EXACT double
        # equality, the same comparison sign() performed)
        vc = g.assign(__v=v).groupby([*gcols, "__v"], as_index=False, dropna=False).size()
        t = vc["size"].to_numpy(dtype="int64")
        vc["__tt"] = t * (t - 1) * (2 * t + 5)
        tie_tab = vc.groupby(gcols, as_index=False, dropna=False)["__tt"].sum()
        # Theil–Sen: slopes over dt != 0 pairs, exact quantile_cont median
        mask = dt != 0.0
        sl_keys = pk.loc[mask, gcols].reset_index(drop=True)
        sl = pd.DataFrame(sl_keys)
        sl["__slope"] = dv[mask] / dt[mask]
        sl = sl.sort_values([*gcols, "__slope"], kind="mergesort").reset_index(drop=True)
        sgrp = sl.groupby(gcols, sort=False, dropna=False)
        srn = sgrp.cumcount().to_numpy(dtype="float64")
        sm = sgrp["__slope"].transform("size").to_numpy(dtype="float64")
        if len(sl):
            pos = 0.5 * (sm - 1.0)
            lo = np.floor(pos)
            sel = sl[srn == lo].copy()
            hi = sl.loc[
                srn == np.minimum(lo + 1.0, sm - 1.0), "__slope"
            ].to_numpy(dtype="float64")
            vlo = sel["__slope"].to_numpy(dtype="float64")
            frac = (pos - lo)[srn == lo]
            sel["sen_slope"] = vlo * (1.0 - frac) + frac * hi
            sen_tab = sel[[*gcols, "sen_slope"]]
        else:
            sen_tab = pd.DataFrame({**{c: pd.Series(dtype=g[c].dtype) for c in gcols},
                                    "sen_slope": pd.Series(dtype="float64")})
        n_tab = grp.size().reset_index(name="n")
        out = n_tab.merge(s_tab, on=gcols, how="left").merge(
            tie_tab, on=gcols, how="left"
        ).merge(sen_tab, on=gcols, how="left")
        out["__s"] = out["__s"].fillna(0).astype("int64")
        out["__tt"] = out["__tt"].fillna(0).astype("int64")
        return out

    reduced = exchange(ds.map_batches(prep, batch_format="pandas"), gcols, per_shard).to_pandas()
    if len(reduced) == 0 or "n" not in reduced.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n": pd.Series([], dtype="int64"),
                "s": pd.Series([], dtype="int64"),
                "var_s": pd.Series([], dtype="float64"),
                "z": pd.Series([], dtype="float64"),
                "sen_slope": pd.Series([], dtype="float64"),
            }
        )
    n = reduced["n"].to_numpy(dtype="int64")
    s = reduced["__s"].to_numpy(dtype="int64")
    tt = reduced["__tt"].to_numpy(dtype="int64")
    out = reduced[gcols].copy()
    out["n"] = n
    out["s"] = s
    var_num = (n * (n - 1) * (2 * n + 5) - tt).astype("float64")
    var_s = var_num / 18.0
    out["var_s"] = var_s
    with np.errstate(invalid="ignore", divide="ignore"):
        sd = np.sqrt(var_s)
        z = np.where(
            s > 0, (s - 1.0) / sd, np.where(s < 0, (s + 1.0) / sd, 0.0)
        )
    out["z"] = np.where(var_s > 0.0, z, np.nan)
    out["sen_slope"] = reduced["sen_slope"].to_numpy(dtype="float64")
    return out.sort_values(gcols).reset_index(drop=True)


def ks_two_sample(
    ds: rd.Dataset,
    value_col: str,
    side_col: str,
    side_a,
    side_b,
    group_cols: list[str],
) -> pd.DataFrame:
    """Exact per-group two-sample Kolmogorov–Smirnov statistic — the
    distribution-level drift readout next to the token JS divergence and
    the mean-level Welch test: for each group cell,

        D = max_x | F_a(x) − F_b(x) |

    over the two sides' empirical CDFs.  Evaluated EXACTLY as integers:
    with per-distinct-value cumulative counts c_a, c_b and side totals
    n_a, n_b, the numerator max |c_a·n_b − c_b·n_a| is an exact int64
    max (cumulative counts include all tied peers — the CDF's right-
    continuous value), and D is ONE final double division — so a
    window-function SQL oracle hashes identically, and the result is
    block-structure independent by construction.

    Scale shape: per-batch (group, value, side) count combiners shrink
    the exchange to the distinct-value grid, ONE bounded
    ``hash(group)`` exchange co-locates each group's grid,
    and a single vectorized sort + cumsum pass per shard emits the
    key-dim (n_a, n_b, d) table.  NULL values drop; groups missing
    either side drop (the SQL inner-join semantics)."""
    gcols = list(group_cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[[*gcols, side_col, value_col]]
        sub = sub[sub[value_col].notna() & sub[side_col].isin([side_a, side_b])]
        if len(sub) == 0:
            out = sub[gcols].copy()
            out["__v"] = pd.Series(dtype="float64")
            out["da"] = pd.Series(dtype="int64")
            out["db"] = pd.Series(dtype="int64")
            return out
        isa = (sub[side_col] == side_a).to_numpy()
        out = sub[gcols].copy()
        out["__v"] = sub[value_col].to_numpy(dtype="float64")
        out["da"] = isa.astype("int64")
        out["db"] = (~isa).astype("int64")
        return out.groupby([*gcols, "__v"], as_index=False, dropna=False).agg(
            da=("da", "sum"), db=("db", "sum")
        )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        # merge cross-batch partials for the same (group, value) first
        g = g.groupby(
            [*gcols, "__v"], as_index=False, dropna=False
        ).agg(da=("da", "sum"), db=("db", "sum"))
        g = g.sort_values([*gcols, "__v"], kind="mergesort").reset_index(drop=True)
        grp = g.groupby(gcols, sort=False, dropna=False)
        ca = grp["da"].cumsum().to_numpy(dtype="int64")
        cb = grp["db"].cumsum().to_numpy(dtype="int64")
        na = grp["da"].transform("sum").to_numpy(dtype="int64")
        nb = grp["db"].transform("sum").to_numpy(dtype="int64")
        num = np.abs(ca * nb - cb * na)
        out = g[gcols].copy()
        out["__num"] = num
        out["__na"], out["__nb"] = na, nb
        red = out.groupby(gcols, as_index=False, dropna=False).agg(
            num=("__num", "max"), n_a=("__na", "max"), n_b=("__nb", "max")
        )
        return red[(red["n_a"] > 0) & (red["n_b"] > 0)]

    reduced = exchange(
        ds.map_batches(partial, batch_format="pandas"), gcols, per_shard
    ).to_pandas()
    if len(reduced) == 0 or "num" not in reduced.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in gcols},
                "n_a": pd.Series([], dtype="int64"),
                "n_b": pd.Series([], dtype="int64"),
                "d": pd.Series([], dtype="float64"),
            }
        )
    out = reduced[gcols].copy()
    out["n_a"] = reduced["n_a"].astype("int64")
    out["n_b"] = reduced["n_b"].astype("int64")
    out["d"] = reduced["num"].to_numpy(dtype="float64") / (
        reduced["n_a"].to_numpy("int64") * reduced["n_b"].to_numpy("int64")
    ).astype("float64")
    return out.sort_values(gcols).reset_index(drop=True)
