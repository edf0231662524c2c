"""Distributed prefix sums and training-sequence packing.

The GPT-style data-prep step the reference lacks entirely (its pipeline
stops at extracted text — `apps/queue/src/pipeline/index.ts:8-130`): given
per-document token counts, concatenate every document in a global key
order and split the token stream into fixed-size training contexts.  A
document's chunk assignment is a pure function of the EXCLUSIVE prefix sum
of token counts before it — so the whole operator reduces to a distributed
ordered prefix sum, which two passes compute without ever ordering rows
globally:

  pass A (combiner): per-batch partial sums per RANGE shard
      (shard = key // span — monotone in key, so shard s holds exactly the
      keys between shard s-1 and shard s+1) -> `auto_group_agg` finish ->
      one scalar per shard on the driver -> exclusive scan -> offset table.
  pass B (one exchange): re-shard rows by the same range label, ONE
      vectorized sort + cumsum per shard, plus that shard's offset.

Shuffle payload is the (key, value) projection once; the driver holds
one integer per shard, never rows.  At 10^12 documents pass A's partials are
|batches| x |touched shards| rows and the finish planner keeps them off
the driver when they outgrow it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .exchange import exchange, shard_count
from .relational import auto_group_agg


def _shard_of(keys: np.ndarray, span: int, n: int) -> np.ndarray:
    # monotone key -> shard mapping over n shards; clip so an
    # underestimated key_max stays CORRECT (late keys pile into the last
    # shard: skew, not error)
    return np.minimum(keys // span, n - 1).astype("int64")


def range_prefix_sum(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    *,
    key_max: int | None = None,
    out_col: str = "start",
    carry_cols: list[str] | None = None,
) -> rd.Dataset:
    """Exclusive prefix sum of ``value_col`` in ``key_col`` order.

    Keys must be unique non-negative integers (document ids); they need
    NOT be dense — ``key_max`` only balances the range shards, it cannot
    affect the result (the shard map is monotone and clipped).  Pass
    ``key_max`` from catalog / parquet metadata at scale; when omitted it
    costs one cheap ``ds.max`` column scan.

    Returns ``(key_col, value_col, out_col, *carry_cols)`` with
    ``out_col = sum(value of all rows with smaller key)``;
    ``carry_cols`` ride along unchanged (they widen the exchange payload
    — carry ids, not content columns).
    """
    carry = [c for c in (carry_cols or []) if c not in (key_col, value_col)]
    # the input is consumed by BOTH passes (plus the key_max scan when
    # bounds aren't supplied); materialize the two-int64-column projection
    # once so an expensive upstream (e.g. a tokenizer regex over full
    # document text) never re-executes — 16 bytes/row streams through the
    # object store and spills, where recomputing the upstream would not
    keep = [key_col, value_col] + carry
    ds = ds.map_batches(lambda b: b[keep], batch_format="pandas").materialize()
    if key_max is None:
        key_max = ds.max(key_col)  # None when the dataset is empty
        if key_max is None:
            key_max = 0
    n_shards = shard_count()
    span = max(1, (int(key_max) + n_shards) // n_shards)

    def span_shard(b: pd.DataFrame) -> np.ndarray:
        return _shard_of(b[key_col].to_numpy(dtype="int64"), span, n_shards)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sh = span_shard(b)
        return (
            pd.DataFrame({"__shard": sh, "__v": b[value_col].to_numpy(dtype="int64")})
            .groupby("__shard", as_index=False)
            .agg(s=("__v", "sum"))
        )

    partials = ds.map_batches(partial, batch_format="pandas")
    reduced = auto_group_agg(partials, ["__shard"], {"s": ("s", "sum")})
    if not isinstance(reduced, pd.DataFrame):
        reduced = reduced.to_pandas()  # <= n_shards rows after the finish
    totals = np.zeros(n_shards, dtype="int64")
    totals[reduced["__shard"].to_numpy(dtype="int64")] = reduced["s"].to_numpy(dtype="int64")
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        sh = int(span_shard(g.iloc[:1])[0])
        g = g.sort_values(key_col, kind="stable").reset_index(drop=True)
        v = g[value_col].to_numpy(dtype="int64")
        g[out_col] = offsets[sh] + np.cumsum(v) - v
        return g[[key_col, value_col, out_col, *carry]]

    return exchange(ds, span_shard, per_shard)


def pack_sequences(
    counts: rd.Dataset,
    *,
    key_col: str,
    count_col: str,
    chunk_tokens: int,
    key_max: int | None = None,
) -> rd.Dataset:
    """Assign each document to the training context holding its FIRST
    token when all documents are concatenated in ``key_col`` order and the
    stream is split every ``chunk_tokens`` tokens (the standard
    concatenate-then-split packing).  Output:
    ``(key_col, count_col, start_tok, chunk_id)``.
    """
    pref = range_prefix_sum(counts, key_col, count_col, key_max=key_max, out_col="start_tok")

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out["chunk_id"] = out["start_tok"].to_numpy(dtype="int64") // chunk_tokens
        return out

    return pref.map_batches(assign, batch_format="pandas")
