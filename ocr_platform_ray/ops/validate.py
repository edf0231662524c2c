"""Data-expectation checks — the ingest-boundary contract gate (the
Great-Expectations idea as engine operators): declare per-column rules,
get an exact violation report, optionally refuse the dataset.

The reference enforces its row contracts with Zod schemas per queue
payload (``apps/queue/src/pipeline/segment.ts:4-24`` and the JSON-schema
stage outputs this engine mirrors as Arrow schemas); expectations extend
that from SHAPE to CONTENT: null-ness, uniqueness, ranges, regex shape,
enum membership — the checks a 100 TB ingest runs before accepting a
vendor drop or a new crawl segment.

Rules (each a dict): {"column", "rule", ...params}
  not_null                 — no null/NaN values
  unique                   — no value occurs twice
  in_range {lo, hi}        — values inside [lo, hi] (nulls ignored)
  matches {pattern}        — full-match regex on strings (nulls ignored)
  in_set {values}          — membership (nulls ignored)

Report: one row per rule — (column, rule, n_violations, example) with
``example`` the MINIMUM violating value rendered as a string (a
deterministic representative, so the report is reproducible under any
parallelism and SQL-mirrorable; None when clean or when the violation
is null-ness itself).

Scale shape: every map-side rule (all but ``unique``) computes in ONE
shared pass per batch — fixed-size (count, min-example) partials, zero
exchange.  ``unique`` is the exact_dedup shape: per-batch (value, n)
combiner partials through the size-aware grouped finish; violations =
Σ(n) − distinct over duplicated values only.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data as rd

from .profile import _scaled_int
from .relational import auto_group_agg

_KINDS = ("not_null", "unique", "in_range", "matches", "in_set")


def _render(v) -> str:
    if isinstance(v, float) and float(v).is_integer():
        return str(int(v))
    return str(v)


def check_expectations(
    ds: rd.Dataset, rules: list[dict]
) -> pd.DataFrame:
    """Evaluate all rules; returns the report frame (rule order kept)."""
    for r in rules:
        if r.get("rule") not in _KINDS:
            raise ValueError(f"unknown rule kind: {r.get('rule')!r} (of {_KINDS})")

    map_rules = [r for r in rules if r["rule"] != "unique"]
    uniq_rules = [r for r in rules if r["rule"] == "unique"]

    results: dict[int, tuple[int, object]] = {}

    if map_rules:

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            rows = []
            for i, r in enumerate(map_rules):
                col = b[r["column"]]
                kind = r["rule"]
                if kind == "not_null":
                    n = int(col.isna().sum())
                    ex = None  # the violation IS the null
                else:
                    vals = col.dropna()
                    if kind == "in_range":
                        bad = vals[(vals < r["lo"]) | (vals > r["hi"])]
                    elif kind == "matches":
                        rx = re.compile(r["pattern"])
                        s = vals.astype(str)
                        bad = vals[~s.str.fullmatch(rx).fillna(False)]
                    else:  # in_set
                        bad = vals[~vals.isin(set(r["values"]))]
                    n = int(len(bad))
                    ex = bad.min() if n else None
                rows.append({"i": i, "n": n, "ex": ex})
            return pd.DataFrame(rows)

        parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
        for i in range(len(map_rules)):
            sub = parts[parts["i"] == i]
            n = int(sub["n"].sum())
            exs = sub["ex"].dropna()
            results[i] = (n, exs.min() if len(exs) else None)

    uniq_results: dict[int, tuple[int, object]] = {}
    for j, r in enumerate(uniq_rules):
        col = r["column"]

        def vc_partial(b: pd.DataFrame, _c=col) -> pd.DataFrame:
            out = b.groupby(_c, as_index=False, dropna=True).size()
            return out.rename(columns={"size": "n"})

        counts = auto_group_agg(
            ds.select_columns([col]).map_batches(vc_partial, batch_format="pandas"),
            [col],
            {"n": ("n", "sum")},
        )
        cdf = counts if isinstance(counts, pd.DataFrame) else counts.to_pandas()
        dup = cdf[cdf["n"] > 1]
        n_viol = int((dup["n"] - 1).sum())  # the extra copies
        uniq_results[j] = (n_viol, dup[col].min() if len(dup) else None)

    rows = []
    mi = ui = 0
    for r in rules:
        if r["rule"] == "unique":
            n, ex = uniq_results[ui]
            ui += 1
        else:
            n, ex = results[mi]
            mi += 1
        rows.append(
            {
                "column": r["column"],
                "rule": r["rule"],
                "n_violations": n,
                "example": None if ex is None else _render(ex),
            }
        )
    return pd.DataFrame(rows)


def benford_audit(
    ds: "rd.Dataset",
    value_col: str,
    *,
    scale: int = 100,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Benford first-significant-digit audit (Newcomb 1881 / Benford 1938
    — the fabricated-data / unit-mixing screen a financial or telemetry
    ingest runs): observed counts of the leading digit of
    ``round(v · scale)`` for positive values vs the Benford expectation
    ``N · ln(1 + 1/d)/ln(10)``, with the per-digit χ² term.  The digit
    comes from the INTEGER's decimal string (exact and engine-neutral —
    no float log10 edge cases); expected/term are single IEEE
    expressions over exact int64 counts, so a generate_series SQL oracle
    hashes identically.  All nine digits report (zero-observation digits
    included).

    Scale shape: per-batch digit-count combiners into the size-aware
    finish; the audit runs on the 9-row report table."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = _scaled_int(b[value_col].dropna().to_numpy(), scale)
        v = v[v > 0]
        if v.size == 0:
            return pd.DataFrame(
                {"digit": pd.Series(dtype="int64"),
                 "n": pd.Series(dtype="int64")}
            )
        first = pd.Series(v).astype(str).str[0].astype("int64")
        vc = first.value_counts()
        return pd.DataFrame(
            {"digit": vc.index.to_numpy(), "n": vc.to_numpy().astype("int64")}
        )

    red = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["digit"],
        {"n": ("n", "sum")},
        n_shards=n_shards,
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    full = pd.DataFrame({"digit": np.arange(1, 10, dtype="int64")})
    out = full.merge(red, on="digit", how="left")
    out["n"] = out["n"].fillna(0).astype("int64")
    total = float(out["n"].sum())
    d = out["digit"].to_numpy(dtype="float64")
    expected = total * (np.log(1.0 + 1.0 / d) / np.log(10.0))
    obs = out["n"].to_numpy(dtype="float64")
    with np.errstate(invalid="ignore", divide="ignore"):
        term = (obs - expected) * (obs - expected) / expected
    out["expected"] = expected
    out["chi2_term"] = np.where(total > 0, term, np.nan)
    return out.reset_index(drop=True)
