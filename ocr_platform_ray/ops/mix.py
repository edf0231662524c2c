"""Weighted source mixture: apply per-source sampling weights to a corpus
— the 'mixture proportions' step every large training-data pipeline runs
(GPT-3 Table 2.2 per-dataset sampling rates, Brown et al. 2020; Dolma's
per-source mixing, Soldaini et al. 2024).  The reference has no analogue;
this is one of the beyond-reference training-data operators.

A weight ``w`` per source means every document of that source appears
``floor(w)`` times plus one more with probability ``frac(w)`` — so
``w=0.25`` downsamples to a quarter, ``w=2.5`` emits each doc 2 or 3
times.  The fractional draw is NOT random: it is the seeded bijective
32-bit mix shared with epoch_shuffle (``ops/shuffle.py::shuffle_hash``),
compared against ``floor(frac * 2^32)``, so the SAME (key, seed) always
makes the SAME keep/drop decision regardless of parallelism, block
structure, or input order — reruns and resumed jobs sample identically,
and a SQL oracle mirrors the arithmetic exactly.  Because the mix is a
bijection, the kept fraction is exact to within 1/2^32, not just in
expectation.

Scale shape: MAP-ONLY.  No shuffle, no driver state — the weight table
is dim-sized and ships inside the closure (T2's broadcast-small-side
rule).  Upsampled copies carry ``copy_idx`` (0-based) so downstream
epoch logic can, e.g., shuffle each copy independently by folding
copy_idx into the epoch_shuffle seed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state.broadcast import cached_get
from .exchange import exchange
from .relational import auto_group_agg
from .shuffle import shuffle_hash

_MOD32F = float(1 << 32)


def weighted_source_mixture(
    ds: rd.Dataset,
    *,
    source_col: str,
    key_col: str,
    weights: dict[str, float],
    seed: int = 0,
    copy_col: str = "copy_idx",
) -> rd.Dataset:
    """Emit each row ``floor(w) + Bernoulli(frac(w))`` times, where ``w``
    is ``weights[row[source_col]]`` and the Bernoulli draw is the
    deterministic hash of ``row[key_col]`` (unique non-negative ints
    below 2^32, the shuffle_hash domain).  Rows whose source is missing
    from ``weights`` raise — silent drops hide mixture bugs; pass an
    explicit 0.0 to exclude a source.  Output: input columns plus
    ``copy_col``."""
    for s, w in weights.items():
        if not (w >= 0.0):
            raise ValueError(f"weight for {s!r} must be >= 0, got {w}")
    wmap = {s: float(w) for s, w in weights.items()}

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        # vectorized lookup: factorize + a dim-sized LUT (Series.map
        # dispatches per element under the hood; np.unique would raise
        # TypeError on a None/mixed source before the diagnostic below)
        inv, cats = pd.factorize(b[source_col], use_na_sentinel=False)
        lut = np.array(
            [wmap.get(c, np.nan) if isinstance(c, str) else np.nan for c in cats],
            dtype="float64",
        )
        if np.isnan(lut).any():
            missing = sorted(str(c) for c in cats[np.isnan(lut)])
            raise KeyError(f"sources missing from weights: {missing}")
        wv = lut[inv]
        n_full = np.floor(wv)
        # threshold in integer hash space; frac is an exact double, and
        # floor() makes the numpy and SQL comparisons bit-identical
        thr = np.floor((wv - n_full) * _MOD32F)
        sk = shuffle_hash(b[key_col].to_numpy(dtype="int64"), seed)
        copies = (n_full + (sk.astype("float64") < thr)).astype("int64")
        total = int(copies.sum())
        rep = b.iloc[np.repeat(np.arange(len(b)), copies)].reset_index(drop=True)
        offs = np.concatenate(([0], np.cumsum(copies)[:-1]))
        rep[copy_col] = np.arange(total) - np.repeat(offs, copies)
        return rep

    return ds.map_batches(expand, batch_format="pandas")


def token_budget_sample(
    ds: rd.Dataset,
    *,
    source_col: str,
    key_col: str,
    token_col: str,
    budgets: dict[str, int | None],
    seed: int = 0,
    n_shards: int = 64,
) -> rd.Dataset:
    """Per-source TOKEN-budget sampling: keep each source's documents in
    the seeded epoch-shuffle order until that source's cumulative token
    count reaches its budget — the 'fill each mixture bucket to N tokens'
    step training recipes run after the proportion math (the token-count
    dual of ``weighted_source_mixture``'s per-doc rates).

    A doc is kept iff its INCLUSIVE per-source prefix sum of
    ``token_col`` in ``(shuffle_hash(key), )`` order is <= the source's
    budget — so the same (corpus, seed) always fills a bucket with the
    same documents regardless of parallelism, block structure, or input
    order, and a SQL window function mirrors it exactly
    (``SUM(tokens) OVER (PARTITION BY source ORDER BY shuffle_key)``).

    Scale shape: the grouped form of the ``range_prefix_sum`` two-pass
    scan.  The shuffle key lives in [0, 2^32), so range shards need NO
    key-max scan; pass A reduces per-(source, shard) partial sums
    (<= sources x n_shards rows) through ``auto_group_agg``; the driver
    turns them into an exclusive offset table (dim-sized, broadcast);
    pass B is ONE (key, source, tokens, sk) exchange grouped by range
    shard — a shard task sorts its slice, adds its offsets, and filters
    against the budget locally.  Document text never moves.

    ``budgets`` must cover every source (silent drops hide mixture bugs
    — the ``weighted_source_mixture`` rule); ``None`` means unlimited,
    ``0`` excludes a source.  Output: ``(key_col, source_col, token_col,
    cum_tokens)`` for kept rows; semi-join on ``key_col`` to recover
    payload columns."""
    for s, v in budgets.items():
        if v is not None and not (v >= 0):
            raise ValueError(f"budget for {s!r} must be >= 0 or None, got {v}")
    span = (1 << 32) // n_shards + 1

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        sk = shuffle_hash(b[key_col].to_numpy(dtype="int64"), seed).astype("int64")
        return pd.DataFrame(
            {
                key_col: b[key_col].to_numpy(),
                source_col: b[source_col].to_numpy(),
                token_col: b[token_col].to_numpy(dtype="int64"),
                "__sk": sk,
                "__kshard": sk // span,
            }
        )

    keyed = ds.map_batches(add_key, batch_format="pandas").materialize()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby([source_col, "__kshard"], as_index=False).agg(
            s=(token_col, "sum")
        )

    reduced = auto_group_agg(
        keyed.map_batches(partial, batch_format="pandas"),
        [source_col, "__kshard"],
        {"s": ("s", "sum")},
    )
    if not isinstance(reduced, pd.DataFrame):
        reduced = reduced.to_pandas()  # <= sources x n_shards rows
    missing = sorted(set(reduced[source_col]) - set(budgets)) if len(reduced) else []
    if missing:
        raise KeyError(f"sources missing from budgets: {missing}")
    offsets: dict[tuple[str, int], int] = {}
    for src, grp in reduced.groupby(source_col):
        g = grp.sort_values("__kshard")
        run = np.concatenate(([0], np.cumsum(g["s"].to_numpy(dtype="int64"))[:-1]))
        for sh, off in zip(g["__kshard"].to_numpy(dtype="int64"), run):
            offsets[(src, int(sh))] = int(off)
    limits = {s: (np.inf if v is None else int(v)) for s, v in budgets.items()}
    ref = ray.put((offsets, limits))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        offs, lims = cached_get(ref)
        sh = int(g["__kshard"].iat[0])
        g = g.sort_values([source_col, "__sk"], kind="stable").reset_index(drop=True)
        v = g[token_col].to_numpy(dtype="int64")
        cum = np.empty(len(g), dtype="int64")
        keep = np.empty(len(g), dtype=bool)
        for src, idx in g.groupby(source_col, sort=False).indices.items():
            c = np.cumsum(v[idx]) + offs.get((src, sh), 0)
            cum[idx] = c
            keep[idx] = c <= lims[src]
        out = g.loc[keep, [key_col, source_col, token_col]].copy()
        out["cum_tokens"] = cum[keep]
        return out

    return exchange(keyed, lambda b, n: b["__kshard"], per_shard, n_shards=n_shards)


def temperature_sample(
    ds: rd.Dataset,
    *,
    source_col: str,
    key_col: str,
    alpha: float = 0.5,
    seed: int = 0,
) -> rd.Dataset:
    """Temperature-scaled source rebalancing (Conneau & Lample 2019 /
    XLM-R arXiv:1911.02116 §3.1; the exponential-smoothing mixture every
    multilingual/multi-source recipe runs): resample so source
    proportions follow ``p_l^alpha`` instead of the raw ``p_l`` —
    ``alpha=1`` keeps the natural distribution, ``alpha -> 0`` flattens
    it toward uniform.  This is the DOWNSAMPLE-ONLY form: per-source
    keep rate ``r_l = (n_min / n_l)^(1 - alpha)``, so the smallest
    source keeps everything (rate exactly 1.0) and no document is ever
    upsampled — compose with ``weighted_source_mixture`` for epoch-level
    upsampling.

    The keep decision is the house deterministic draw
    (``shuffle_hash(key, seed) < floor(r_l * 2^32)``), so the same
    (corpus, alpha, seed) keeps the same documents under any
    parallelism, block structure, or input order, and a SQL oracle
    mirrors it exactly: counts are integers, ``n_min/n_l`` is one
    correctly-rounded double division, and ``POWER`` maps to the same
    libm ``pow`` in numpy and DuckDB.

    Scale shape: ONE dim-sized count reduce (per-batch combiner ->
    ``auto_group_agg``), then a MAP-ONLY filter with the dim-sized rate
    table in the closure — document payloads never move."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(source_col, as_index=False).agg(n=(key_col, "size"))

    counts = auto_group_agg(
        ds.map_batches(count_partial, batch_format="pandas"),
        [source_col],
        {"n": ("n", "sum")},
    )
    if not isinstance(counts, pd.DataFrame):
        counts = counts.to_pandas()  # dim-sized: one row per source
    if len(counts) == 0:
        return ds
    n = counts["n"].to_numpy(dtype="float64")
    rates = np.power(float(n.min()) / n, 1.0 - alpha)
    thr = {
        s: float(np.floor(r * _MOD32F))
        for s, r in zip(counts[source_col], rates)
    }

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        inv, cats = pd.factorize(b[source_col], use_na_sentinel=False)
        lut = np.array([thr.get(c, np.nan) for c in cats], dtype="float64")
        if np.isnan(lut).any():
            missing = sorted(str(c) for c in cats[np.isnan(lut)])
            raise KeyError(f"sources absent from the count pass: {missing}")
        sk = shuffle_hash(b[key_col].to_numpy(dtype="int64"), seed)
        return b[sk.astype("float64") < lut[inv]]

    return ds.map_batches(keep, batch_format="pandas")


def ipf_balance(
    ds: rd.Dataset,
    row_col: str,
    col_col: str,
    row_targets: dict,
    col_targets: dict,
    *,
    id_col: str = "doc_id",
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-10,
) -> tuple[rd.Dataset, pd.DataFrame]:
    """Two-marginal corpus balancing by iterative proportional fitting
    (Deming & Stephan 1940 raking — the mixture step ONE set of source
    weights can't express: hit a target LANGUAGE distribution and a
    target SOURCE distribution simultaneously): IPF fits per-cell keep
    rates p(r, c) = a_r·b_c on the (row × col) count matrix so the
    EXPECTED sample matches both target marginals exactly, scaled to
    the largest downsample-only realization (max rate = 1 — no row is
    ever duplicated); the draw is then map-only via the deterministic
    salted-id uniform (``pd.util.hash_array`` — the house rule: never
    derive lanes from the affine shuffle_hash).

    Infeasible targets (positive target mass on an empty row/column)
    raise; non-convergence within ``max_iters`` raises (IPF converges
    whenever the targets are consistent with the support — Csiszár
    1975).  Scale shape: ONE (row, col) count reduce (cell-dim table on
    the driver, the temperature_sample contract), dim-sized IPF
    iterations driver-side, and a map-only filter — payloads never
    move.  Returns (sampled Dataset, the cell plan with counts, rates
    and expected kept rows)."""
    rt = {k: float(v) for k, v in row_targets.items()}
    ct = {k: float(v) for k, v in col_targets.items()}
    for name, t in (("row", rt), ("col", ct)):
        s = sum(t.values())
        if not t or abs(s - 1.0) > 1e-9:
            raise ValueError(f"{name}_targets must sum to 1 (got {s})")

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b[[row_col, col_col]].groupby(
            [row_col, col_col], as_index=False
        ).size()
        g["n"] = g["size"].astype("int64")
        return g[[row_col, col_col, "n"]]

    red = auto_group_agg(
        ds.map_batches(count_partial, batch_format="pandas"),
        [row_col, col_col],
        {"n": ("n", "sum")},
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    if len(red) == 0:
        raise ValueError("ipf_balance: empty input")
    rows = sorted(rt)
    cols = sorted(ct)
    have_r = set(red[row_col])
    have_c = set(red[col_col])
    for r in rows:
        if rt[r] > 0 and r not in have_r:
            raise ValueError(f"ipf_balance: target mass on empty row {r!r}")
    for c in cols:
        if ct[c] > 0 and c not in have_c:
            raise ValueError(f"ipf_balance: target mass on empty col {c!r}")
    ri = {r: i for i, r in enumerate(rows)}
    ci = {c: j for j, c in enumerate(cols)}
    C = np.zeros((len(rows), len(cols)), dtype="float64")
    for _, rec in red.iterrows():
        if rec[row_col] in ri and rec[col_col] in ci:
            C[ri[rec[row_col]], ci[rec[col_col]]] = float(rec["n"])
    r_tgt = np.array([rt[r] for r in rows])
    c_tgt = np.array([ct[c] for c in cols])
    # IPF on the weighted matrix W = C * rates; start at the raw counts
    a = np.ones(len(rows))
    b = np.ones(len(cols))
    for _ in range(max_iters):
        W = C * np.outer(a, b)
        tot = W.sum()
        rs = W.sum(axis=1) / tot
        with np.errstate(divide="ignore", invalid="ignore"):
            a = a * np.where(rs > 0, r_tgt / rs, 1.0)
        W = C * np.outer(a, b)
        tot = W.sum()
        cs = W.sum(axis=0) / tot
        with np.errstate(divide="ignore", invalid="ignore"):
            b = b * np.where(cs > 0, c_tgt / cs, 1.0)
        W = C * np.outer(a, b)
        tot = W.sum()
        err = max(
            np.abs(W.sum(axis=1) / tot - r_tgt).max(),
            np.abs(W.sum(axis=0) / tot - c_tgt).max(),
        )
        if err < tol:
            break
    else:
        raise ValueError(
            f"ipf_balance: no convergence in {max_iters} iterations "
            f"(residual {err:.2e}) — targets may be inconsistent with "
            "the support"
        )
    rates = np.outer(a, b)
    with np.errstate(invalid="ignore"):
        rates = np.where(C > 0, rates, 0.0)
    mx = rates.max()
    if mx <= 0:
        raise ValueError("ipf_balance: degenerate zero rates")
    rates = rates / mx  # maximal downsample-only realization
    plan = pd.DataFrame(
        [
            {
                row_col: r,
                col_col: c,
                "n": int(C[ri[r], ci[c]]),
                "rate": float(rates[ri[r], ci[c]]),
                "expect_kept": float(C[ri[r], ci[c]] * rates[ri[r], ci[c]]),
            }
            for r in rows
            for c in cols
            if C[ri[r], ci[c]] > 0
        ]
    )
    rref = ray.put(plan[[row_col, col_col, "rate"]])

    def keep(batch: pd.DataFrame, _rref=rref) -> pd.DataFrame:
        pf = cached_get(_rref)
        m = batch[[row_col, col_col]].merge(pf, on=[row_col, col_col], how="left")
        p = m["rate"].fillna(0.0).to_numpy(dtype="float64")
        h = pd.util.hash_array(batch[id_col].to_numpy())
        u = (
            pd.util.hash_array(h + np.uint64(seed)).astype("float64")
            / float(2**64)
        )
        return batch[u < p]

    return ds.map_batches(keep, batch_format="pandas"), plan
