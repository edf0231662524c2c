"""Crawl-frontier scheduling — politeness-interleaved global fetch
order: within each host, URLs rank by priority; across hosts, the
frontier round-robins so no host is hammered while others idle
(the breadth-first-per-host order a polite fetcher consumes).  The
result is exactly SQL's two-level window
``ROW_NUMBER() OVER (PARTITION BY host ORDER BY priority DESC, tie)``
then ``ROW_NUMBER() OVER (ORDER BY r, host)`` — pass 1 of every host,
then pass 2 of every host that still has URLs, and so on.

Scale shape: a GLOBAL total-order position normally costs a full sort;
here it decomposes exactly —

  pos(r, h) = Σ_h' min(r-1, c_h') + #{h' < h : c_h' >= r} + 1

where c_h is the host's URL count.  So: (1) the per-host rank r via one
bounded ``hash(host)`` keyed-window exchange (each host's URLs sort in
one shard); (2) host counts via a combiner reduce (host-dim-sized, the
pagerank report contract) from which the driver builds a sorted-counts
prefix table; (3) a second bounded exchange keyed on r — every row of a
given round lands in one shard, where the within-round host rank is a
vectorized cumcount and the Σ min(r-1, c) offset is two array lookups
against the broadcast prefix table.  No global sort, no driver-side
row data; both exchanges carry only the (host, tie, priority, r)
projection.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .exchange import exchange
from .relational import auto_group_agg


def politeness_order(
    ds: rd.Dataset,
    *,
    host_col: str,
    priority_col: str,
    tie_cols: list[str],
    descending: bool = True,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """(host, *tie_cols, priority, r, pos): r = the URL's rank within
    its host (priority ``descending`` first, ties broken by
    ``tie_cols``, which must make the within-host order total), pos =
    the 1-based global politeness-interleaved fetch position.  NULL
    hosts are dropped (unroutable)."""
    ties = list(tie_cols)
    if not ties:
        raise ValueError("tie_cols must name at least one column")
    keep = list(dict.fromkeys([host_col, priority_col, *ties]))

    def routable(b: pd.DataFrame) -> pd.DataFrame:
        return b[keep].dropna(subset=[host_col]).reset_index(drop=True)

    def rank_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [host_col, priority_col, *ties],
            ascending=[True, not descending] + [True] * len(ties),
            kind="mergesort",
        )
        g["r"] = (
            g.groupby(host_col, sort=False).cumcount().to_numpy() + 1
        ).astype("int64")
        return g

    ranked = exchange(
        ds.map_batches(routable, batch_format="pandas"),
        host_col,
        rank_shard,
    ).materialize()  # consumed by the count reduce AND the pos pass

    counts = auto_group_agg(
        ranked.map_batches(
            lambda b: b.groupby(host_col, as_index=False)
            .size()
            .rename(columns={"size": "c"}),
            batch_format="pandas",
        ),
        [host_col],
        {"c": ("c", "sum")},
    )
    if not isinstance(counts, pd.DataFrame):
        counts = counts.to_pandas()
    if counts.shape[1] == 0 or len(counts) == 0:
        out = pd.DataFrame(
            {
                **{c: pd.Series([], dtype="object") for c in keep},
                "r": pd.Series([], dtype="int64"),
                "pos": pd.Series([], dtype="int64"),
            }
        )
        return rd.from_pandas(out) if as_dataset else out
    cs = np.sort(counts["c"].to_numpy(dtype="int64"))
    prefix = np.concatenate([[0], np.cumsum(cs)])
    n_hosts = len(cs)
    table = ray.put((cs, prefix))

    def pos_shard(g: pd.DataFrame) -> pd.DataFrame:
        cs_, prefix_ = ray.get(table)
        g = g.sort_values(["r", host_col], kind="mergesort")
        r = g["r"].to_numpy(dtype="int64")
        # Σ_h min(r-1, c_h): hosts with c <= r-1 contribute c, the rest
        # contribute r-1
        k = np.searchsorted(cs_, r - 1, side="right")
        off = prefix_[k] + (n_hosts - k) * (r - 1)
        within = pd.Series(r).groupby(r, sort=False).cumcount().to_numpy()
        g["pos"] = (off + within + 1).astype("int64")
        return g

    res = exchange(ranked, "r", pos_shard)
    if as_dataset:
        return res
    return res.to_pandas().sort_values("pos", kind="mergesort").reset_index(
        drop=True
    )
