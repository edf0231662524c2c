"""Market-basket pair co-occurrence — support / lift association mining
over (basket, item) rows: which items appear together in the same
basket (user × event types, document × tags, host × resource kinds)
more often than independence predicts.

Scale shape: ONE bounded ``hash(basket) % n_shards`` exchange co-locates
each basket's rows (after a per-batch local distinct combiner shrinks
the payload to the distinct projection), then each shard vectorizes the
whole pipeline — global per-basket distinct, the canonical a<b pair
expansion via one self-merge, and pre-counted pair/item/basket partials.
Because a basket lives entirely in one shard, the per-shard item
marginals (distinct baskets containing the item) and basket totals are
EXACT partial counts; everything funnels through one size-aware
`auto_group_agg` finish keyed by a (kind, item_a, item_b) tuple.
support = n_pair / N and lift = n_pair·N / (n_a·n_b) are single IEEE
expressions over exact int64 counts, mirrored operand-for-operand by
the SQL oracle, so doubles hash identically.

Skew guard: a basket with m distinct items emits m(m-1)/2 pairs;
``max_items_per_basket`` drops larger baskets from the PAIR expansion
deterministically (they still count toward N and the item marginals —
the standard frequent-itemset cap) so one hot basket cannot explode a
shard.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .exchange import exchange
from .relational import auto_group_agg

_PAIR, _ITEM, _TOTAL = "p", "i", "t"


def pair_cooccurrence(
    ds: rd.Dataset,
    *,
    basket_col: str,
    item_col: str,
    min_pair_count: int = 1,
    max_items_per_basket: int | None = None,
    n_shards: int = 64,
) -> pd.DataFrame:
    """(item_a, item_b, n_pair, n_a, n_b, support, lift) for every
    unordered item pair co-occurring in ``>= min_pair_count`` baskets,
    ``item_a < item_b`` canonical.  NULL baskets/items are dropped;
    duplicate (basket, item) rows collapse (set semantics, as SQL
    DISTINCT).  lift > 1 means the pair co-occurs more often than
    independent items would."""
    if max_items_per_basket is not None and max_items_per_basket < 2:
        raise ValueError(
            f"max_items_per_basket must be >= 2, got {max_items_per_basket}"
        )

    def project(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[basket_col, item_col]].dropna().drop_duplicates()
        return out.reset_index(drop=True)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "kind": pd.Series([], dtype="object"),
                "item_a": pd.Series([], dtype="object"),
                "item_b": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
            }
        )
        g = g[[basket_col, item_col]].drop_duplicates()
        if len(g) == 0:
            return empty
        sizes = g.groupby(basket_col, sort=False)[item_col].transform("size")
        n_baskets = int(g[basket_col].nunique())
        items = (
            g.groupby(item_col, as_index=False)
            .size()
            .rename(columns={item_col: "item_a", "size": "n"})
        )
        if max_items_per_basket is not None:
            p = g[sizes.to_numpy() <= max_items_per_basket]
        else:
            p = g
        m = p.merge(p, on=basket_col, suffixes=("_x", "_y"))
        m = m[m[f"{item_col}_x"] < m[f"{item_col}_y"]]
        pairs = (
            m.groupby([f"{item_col}_x", f"{item_col}_y"], as_index=False)
            .size()
            .rename(
                columns={
                    f"{item_col}_x": "item_a",
                    f"{item_col}_y": "item_b",
                    "size": "n",
                }
            )
        )
        pairs.insert(0, "kind", _PAIR)
        items.insert(0, "kind", _ITEM)
        items["item_b"] = ""
        tot = pd.DataFrame(
            {"kind": [_TOTAL], "item_a": [""], "item_b": [""], "n": [n_baskets]}
        )
        out = pd.concat(
            [pairs, items[["kind", "item_a", "item_b", "n"]], tot],
            ignore_index=True,
        )
        out["n"] = out["n"].astype("int64")
        return out

    partials = exchange(
        ds.map_batches(project, batch_format="pandas"),
        basket_col,
        per_shard,
        n_shards=n_shards,
    )
    red = auto_group_agg(
        partials, ["kind", "item_a", "item_b"], {"n": ("n", "sum")},
        n_shards=n_shards,
    )
    if not isinstance(red, pd.DataFrame):
        # exchange route: thin the pair rows map-side BEFORE the driver
        # sees the table — the item marginals and totals always land
        # (vocab-sized, the token_df report contract)
        red = red.map_batches(
            lambda b: b[
                (b["kind"] != _PAIR) | (b["n"] >= min_pair_count)
            ],
            batch_format="pandas",
        ).to_pandas()
    cols = ["item_a", "item_b", "n_pair", "n_a", "n_b", "support", "lift"]
    if red.shape[1] == 0 or len(red) == 0:
        return pd.DataFrame(
            {
                "item_a": pd.Series([], dtype="object"),
                "item_b": pd.Series([], dtype="object"),
                "n_pair": pd.Series([], dtype="int64"),
                "n_a": pd.Series([], dtype="int64"),
                "n_b": pd.Series([], dtype="int64"),
                "support": pd.Series([], dtype="float64"),
                "lift": pd.Series([], dtype="float64"),
            }
        )
    n_total = int(red.loc[red["kind"] == _TOTAL, "n"].sum())
    item_n = red[red["kind"] == _ITEM].set_index("item_a")["n"]
    out = red[red["kind"] == _PAIR].drop(columns="kind").rename(
        columns={"n": "n_pair"}
    )
    out = out[out["n_pair"] >= min_pair_count].copy()
    if len(out) == 0:
        return pd.DataFrame({c: pd.Series([], dtype=d) for c, d in zip(
            cols, ["object", "object", "int64", "int64", "int64",
                   "float64", "float64"])})
    out["n_a"] = item_n.reindex(out["item_a"]).to_numpy(dtype="int64")
    out["n_b"] = item_n.reindex(out["item_b"]).to_numpy(dtype="int64")
    np_f = out["n_pair"].to_numpy(dtype="float64")
    # operand order mirrors the SQL expression verbatim:
    # CAST(n_pair AS DOUBLE) / N  and
    # CAST(n_pair AS DOUBLE) * N / (CAST(n_a AS DOUBLE) * n_b)
    out["support"] = np_f / np.float64(n_total)
    out["lift"] = (np_f * np.float64(n_total)) / (
        out["n_a"].to_numpy(dtype="float64")
        * out["n_b"].to_numpy(dtype="float64")
    )
    out["n_pair"] = out["n_pair"].astype("int64")
    return (
        out[cols].sort_values(["item_a", "item_b"]).reset_index(drop=True)
    )
