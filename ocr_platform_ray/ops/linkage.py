"""Probabilistic record linkage — Fellegi & Sunter 1969 (JASA 64:1183),
the standard model behind every production entity-resolution system
(Splink, dedupe.io, census matching): given candidate record pairs and
per-field agreement indicators, learn how diagnostic each field is
(m_j = P(agree_j | match), u_j = P(agree_j | non-match), λ = match
prior) WITHOUT labels via EM, then score every pair with the classic
log2 match weight

    w(pair) = Σ_j  log2(m_j / u_j)              if field j agrees
              Σ_j  log2((1−m_j) / (1−u_j))      if it disagrees

This composes with the engine's candidate generators (fuzzy PassJoin
blocking, MinHash/SimHash pairs, `snapshot_diff` keys): they propose,
Fellegi–Sunter weighs.

Scale shape: each pair reduces MAP-SIDE to a k-bit agreement PATTERN id
(one packed integer), per-batch pattern-count combiners flow into the
size-aware `auto_group_agg` finish, and EM runs on the ≤ 2^k-row
pattern-count table — corpus-scale work is ONE count reduce, the E/M
steps never touch pairs again (Winkler 1988's grouped-EM observation).
Exact integer counts + a fixed driver iteration make the fit
bit-reproducible under any block structure.  Scoring is map-only
against the broadcast per-field weights.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .relational import auto_group_agg


def _pattern_counts(ds: rd.Dataset, agreement_cols: list[str]) -> pd.DataFrame:
    k = len(agreement_cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        pat = np.zeros(len(b), dtype="int64")
        for j, c in enumerate(agreement_cols):
            v = b[c].to_numpy()
            if v.dtype != bool:
                v = v.astype(bool)
            pat |= v.astype("int64") << j
        vc = pd.Series(pat).value_counts()
        return pd.DataFrame(
            {"pattern": vc.index.to_numpy(), "n": vc.to_numpy().astype("int64")}
        )

    red = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["pattern"],
        {"n": ("n", "sum")},
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    if len(red) == 0 or "pattern" not in red.columns:
        raise ValueError("fs_fit: no candidate pairs")
    red["n"] = red["n"].astype("int64")
    return red.sort_values("pattern").reset_index(drop=True)


def fs_fit(
    pairs: rd.Dataset,
    agreement_cols: list[str],
    *,
    max_iter: int = 200,
    tol: float = 1e-10,
    init_p: float = 0.1,
) -> dict:
    """EM fit of (m, u, λ) over the exact agreement-pattern counts.
    Parameters are clipped to (1e-6, 1−1e-6) each step (the standard
    boundary guard).  Deterministic: the pattern table is exact and
    sorted, the iteration count is a pure function of it."""
    if not agreement_cols:
        raise ValueError("agreement_cols must be non-empty")
    k = len(agreement_cols)
    if k > 24:
        raise ValueError("more than 24 agreement fields (pattern table blows up)")
    pc_tab = _pattern_counts(pairs, agreement_cols)
    pats = pc_tab["pattern"].to_numpy()
    n = pc_tab["n"].to_numpy(dtype="float64")
    total = n.sum()
    # (patterns, k) agreement matrix
    x = ((pats[:, None] >> np.arange(k)[None, :]) & 1).astype("float64")
    lo, hi = 1e-6, 1.0 - 1e-6
    # init: m high, u = observed agreement rate (the Splink-style start)
    m = np.full(k, 0.9)
    u = np.clip((n[:, None] * x).sum(0) / total, lo, hi)
    p = float(init_p)
    for it in range(max_iter):
        lm = x @ np.log(m) + (1.0 - x) @ np.log(1.0 - m)
        lu = x @ np.log(u) + (1.0 - x) @ np.log(1.0 - u)
        a = p * np.exp(lm)
        b = (1.0 - p) * np.exp(lu)
        w = a / np.maximum(a + b, 1e-300)
        nw = n * w
        sw = nw.sum()
        new_p = sw / total
        new_m = np.clip((nw[:, None] * x).sum(0) / max(sw, 1e-300), lo, hi)
        new_u = np.clip(
            ((n - nw)[:, None] * x).sum(0) / max(total - sw, 1e-300), lo, hi
        )
        delta = max(
            abs(new_p - p), np.abs(new_m - m).max(), np.abs(new_u - u).max()
        )
        p, m, u = float(np.clip(new_p, lo, hi)), new_m, new_u
        if delta < tol:
            break
    return {
        "agreement_cols": list(agreement_cols),
        "m": m,
        "u": u,
        "p": p,
        "n_pairs": int(total),
        "n_iter": it + 1,
        "pattern_counts": pc_tab,
    }


def fs_score(
    pairs: rd.Dataset,
    model: dict,
    *,
    keep_cols: list[str] | None = None,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Score pairs with the fitted model: ``weight`` (Σ log2 field
    weights) and ``posterior`` (P(match | pattern) under the model).
    Map-only vs the broadcast per-field weight vectors."""
    cols = model["agreement_cols"]
    wa = np.log2(model["m"] / model["u"])
    wd = np.log2((1.0 - model["m"]) / (1.0 - model["u"]))
    lam = model["p"]
    handle = ray.put({"wa": wa, "wd": wd, "m": model["m"], "u": model["u"]})
    keep = list(keep_cols or [])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        mm = ray.get(handle)
        out = b[[*keep, *cols]].copy() if keep else b[cols].copy()
        w = np.zeros(len(b))
        lm = np.full(len(b), np.log(lam))
        lu = np.full(len(b), np.log(1.0 - lam))
        for j, c in enumerate(cols):
            agree = b[c].to_numpy().astype(bool)
            w += np.where(agree, mm["wa"][j], mm["wd"][j])
            lm += np.where(agree, np.log(mm["m"][j]), np.log(1.0 - mm["m"][j]))
            lu += np.where(agree, np.log(mm["u"][j]), np.log(1.0 - mm["u"][j]))
        out["weight"] = w
        a, bb = np.exp(lm), np.exp(lu)
        out["posterior"] = a / np.maximum(a + bb, 1e-300)
        return out

    res = pairs.map_batches(score, batch_format="pandas")
    if as_dataset:
        return res
    out = res.to_pandas()
    if len(out) == 0 or "weight" not in out.columns:
        return pd.DataFrame(
            {
                **{c: pd.Series(dtype="object") for c in keep},
                **{c: pd.Series(dtype="bool") for c in cols},
                "weight": pd.Series(dtype="float64"),
                "posterior": pd.Series(dtype="float64"),
            }
        )
    return out.reset_index(drop=True)
