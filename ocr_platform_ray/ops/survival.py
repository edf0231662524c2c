"""Kaplan–Meier survival estimation (Kaplan & Meier 1958, JASA 53) —
the censoring-aware retention/lifetime readout the cohort matrix can't
give (a user still active at the observation edge is CENSORED, not
churned; naive "average lifetime" over censored data biases low):

    S(t) = Π_{t_i ≤ t} (1 − d_i / n_i)

over the distinct event times, with d_i the observed events at t_i and
n_i the number still at risk (duration ≥ t_i).

Scale shape: rows reduce to exact (duration, observed) counts — one
size-aware `auto_group_agg` over the duration grid (time-bounded, the
events_hourly contract) — and the product runs on the grid-dim driver
table as ``exp(Σ ln(1 − d/n))`` in ascending-time order, mirroring
SQL's ``EXP(SUM(ln(term) ORDER BY t))`` (ROUND both sides — the
ordered-SUM note).  n_at_risk is an exact integer window cumsum."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray.data as rd

from .relational import auto_group_agg


def kaplan_meier(
    ds: rd.Dataset,
    duration_col: str,
    event_col: str,
) -> pd.DataFrame:
    """(t, n_risk, d, censored, surv) over the distinct duration grid.
    ``event_col`` is 1 for an OBSERVED event (churn/death) and 0 for a
    censored row; NULL durations drop.  Censored rows leave the risk
    set after their time (the standard right-censoring rule)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[[duration_col, event_col]].dropna(subset=[duration_col])
        g = sub.groupby(duration_col, as_index=False).agg(
            d=(event_col, "sum"), n=(event_col, "size")
        )
        g["d"] = g["d"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return g.rename(columns={duration_col: "t"})

    red = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["t"],
        {"d": ("d", "sum"), "n": ("n", "sum")},
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    if len(red) == 0 or "t" not in red.columns:
        return pd.DataFrame(
            {
                "t": pd.Series(dtype="float64"),
                "n_risk": pd.Series(dtype="int64"),
                "d": pd.Series(dtype="int64"),
                "censored": pd.Series(dtype="int64"),
                "surv": pd.Series(dtype="float64"),
            }
        )
    red = red.sort_values("t").reset_index(drop=True)
    total = int(red["n"].sum())
    at = red["n"].to_numpy(dtype="int64")
    d = red["d"].to_numpy(dtype="int64")
    left_before = np.concatenate(([0], np.cumsum(at)[:-1]))
    n_risk = total - left_before
    log_sum = 0.0
    surv = np.empty(len(red), dtype="float64")
    for i in range(len(red)):
        if d[i] > 0:
            term = 1.0 - float(d[i]) / float(n_risk[i])
            # everyone at risk dies: the curve hits exact 0 and stays
            log_sum = float("-inf") if term <= 0.0 else log_sum + math.log(term)
        surv[i] = math.exp(log_sum)
    return pd.DataFrame(
        {
            "t": red["t"],
            "n_risk": n_risk.astype("int64"),
            "d": d,
            "censored": (at - d).astype("int64"),
            "surv": surv,
        }
    )
