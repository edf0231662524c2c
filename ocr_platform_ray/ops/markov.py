"""First-order transition statistics over per-key ordered sequences —
the Markov-chain view of event logs (user behavior modeling, crawl
navigation graphs, curriculum state machines): how often state A is
immediately followed by state B within a key's timeline.

Scale shape: the `grouped_string_agg` exchange — rows shuffle ONCE by
``hash(key) % n_shards`` (so every key's timeline is contiguous in one
shard), then each shard runs one vectorized sort + shift to extract
consecutive pairs and pre-counts them.  The exchange payload is the
(key, order, state) projection; the combiner output is ≤ |states|² rows
per shard, and the size-aware finish sums those tiny partials.
Transition probabilities are single divisions of exact int64 counts
(``n / row_total``), so a SQL LEAD-window mirror produces bit-identical
doubles.

NULL states are dropped BEFORE pairing (the sequence closes over
non-null states); NULL keys form one key like SQL GROUP BY.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .exchange import exchange
from .relational import auto_group_agg


def grouped_transitions(
    ds: rd.Dataset,
    group_cols: list[str],
    state_col: str,
    order_cols: list[str],
    *,
    with_prob: bool = True,
    n_shards: int = 64,
) -> pd.DataFrame:
    """Global (from_state, to_state, n[, prob]) transition table over
    consecutive within-key states, keys ordered by ``order_cols`` (which
    must make the within-key order TOTAL — include a unique tiebreaker —
    or adjacency is not deterministic).  ``prob`` is the row-normalized
    transition probability n / Σ_to n."""
    gcols, ocols = list(group_cols), list(order_cols)
    need = list(dict.fromkeys([*gcols, *ocols, state_col]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g[state_col].notna()]
        if len(g) < 2:
            return pd.DataFrame(
                {
                    "from_state": pd.Series([], dtype="object"),
                    "to_state": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values([*gcols, *ocols], kind="mergesort")
        # adjacency only within a key: rows i, i+1 pair iff every key
        # column matches (NaN keys compare equal to themselves here,
        # matching GROUP BY's one-NULL-group rule)
        same = np.ones(len(g) - 1, dtype=bool)
        for c in gcols:
            v = g[c].to_numpy()
            eq = v[:-1] == v[1:]
            if g[c].isna().any():
                nn = g[c].isna().to_numpy()
                eq = eq | (nn[:-1] & nn[1:])
            same &= eq
        s = g[state_col].to_numpy()
        t = pd.DataFrame({"from_state": s[:-1][same], "to_state": s[1:][same]})
        out = t.groupby(["from_state", "to_state"], as_index=False).size()
        return out.rename(columns={"size": "n"}).astype({"n": "int64"})

    partials = exchange(ds.select_columns(need), gcols, per_shard, n_shards=n_shards)
    out = auto_group_agg(
        partials, ["from_state", "to_state"], {"n": ("n", "sum")}
    )
    out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    if out.shape[1] == 0 or len(out) == 0:
        out = pd.DataFrame(
            {
                "from_state": pd.Series([], dtype="object"),
                "to_state": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
            }
        )
    out["n"] = out["n"].astype("int64")
    if with_prob and len(out):
        row_tot = out.groupby("from_state")["n"].transform("sum").to_numpy(
            dtype="int64"
        )
        out["prob"] = out["n"].to_numpy(dtype="int64") / row_tot
    elif with_prob:
        out["prob"] = pd.Series([], dtype="float64")
    return out.sort_values(["from_state", "to_state"]).reset_index(drop=True)
