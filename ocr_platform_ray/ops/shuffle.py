"""Deterministic epoch shuffle: a reproducible global random ordering of
the corpus — the 'shuffle the training data each epoch' step, built so
the SAME (seed, key) always yields the SAME global position regardless of
parallelism, block structure, or input order.

``Dataset.random_shuffle`` cannot give that guarantee (its result depends
on block boundaries), so the shuffle key is computed, not drawn:

    shuffle_key = (((key * m1) mod 2^32 + seed) * m2) mod 2^32
    m1 = 2654435761 (Knuth golden-ratio), m2 = 1597334677

Both multipliers are ODD, so each ``x -> x * m mod 2^32`` step is a
BIJECTION on 32-bit integers: distinct keys below 2^32 get distinct
shuffle keys (no tie-break needed).  The seed is SANDWICHED between the
two multiplies — a seed added after a single multiply only shifts the
ring, which preserves almost every pairwise order (seed 7 vs 8 gave the
identical permutation); multiplying the shifted value again turns a +-1
seed delta into a ~m2-sized rotation that reorders the bulk of the ring.
The numpy path wraps mod 2^64 (exact for all keys below 2^32, since
2^32 divides 2^64); a BIGINT SQL mirror additionally needs
``key * m1 < 2^63`` — keys below ~3.47e9 — because SQL integers raise on
overflow instead of wrapping (the oracle corpus satisfies this; the
operator itself is exact over the full 32-bit domain).  The global position is then
the exclusive prefix COUNT of rows in shuffle_key order — the
``range_prefix_sum`` two-pass scan (ops/pack.py), NOT a global sort: one
(shuffle_key, 1) exchange, one scalar per shard on the driver.

Keys >= 2^32 need a 64-bit mix (splitmix64) — same machinery, but the
32-bit form is kept as the primary because a SQL oracle can mirror it
exactly (64-bit wrapping arithmetic overflows SQL BIGINTs).

Downstream training-data consumers compose directly: epoch_shuffle ->
pack_sequences on ``pos`` packs shuffled documents into training
contexts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .pack import range_prefix_sum

_M1 = np.uint64(2654435761)
_M2 = np.uint64(1597334677)
_MOD32 = np.uint64(1) << np.uint64(32)


def shuffle_hash(keys: np.ndarray, seed: int) -> np.ndarray:
    """The seeded 32-bit bijective mix (docstring above) as a reusable
    kernel: int64 keys in [0, 2^32) -> uint64 shuffle keys in [0, 2^32).
    Shared by epoch_shuffle (ordering) and ops/mix.py (sampling) so one
    SQL-mirrorable arithmetic serves every determinism-critical draw."""
    k = np.asarray(keys, dtype="int64").astype(np.uint64)
    seed_u = np.uint64(seed % (1 << 32))
    # uint64 wrap then mod 2^32 == exact product mod 2^32 (2^32 | 2^64)
    return (k * _M1 % _MOD32 + seed_u) * _M2 % _MOD32


def epoch_shuffle(
    ds: rd.Dataset,
    key_col: str,
    *,
    seed: int = 0,
) -> rd.Dataset:
    """Assign every row its position in the seed-determined global random
    order.  Keys must be unique non-negative integers below 2^32 (the
    bijectivity domain).  Output: ``(key_col, shuffle_key, pos)`` where
    ``pos`` is dense 0..n-1 in shuffle_key order."""

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        sk = shuffle_hash(b[key_col].to_numpy(dtype="int64"), seed)
        return pd.DataFrame(
            {
                key_col: b[key_col].to_numpy(),
                "shuffle_key": sk.astype("int64"),
                "__one": np.ones(len(b), dtype="int64"),
            }
        )

    keyed = ds.map_batches(add_key, batch_format="pandas")
    pref = range_prefix_sum(
        keyed,
        "shuffle_key",
        "__one",
        key_max=int(_MOD32 - np.uint64(1)),
        out_col="pos",
        carry_cols=[key_col],
    )
    return pref.map_batches(
        lambda b: b[[key_col, "shuffle_key", "pos"]], batch_format="pandas"
    )


def grouped_sample_k(
    ds: rd.Dataset,
    group_cols: list[str],
    k: int,
    *,
    id_col: str,
    seed: int = 0,
    finish: str = "auto",
):
    """Deterministic k-per-group sample WITHOUT replacement (the exact-k
    dual of the fraction-based `stratified_sample`): rows rank by the
    seeded bijective shuffle hash of their id — uniform, reproducible
    across block structure, and SQL-mirrorable (the token_budget_mix
    arithmetic) — and the k smallest per group survive via
    `ops/relational.grouped_top_k` (local prune caps the exchange at k
    rows per (group, batch); size-aware finish).  Output = input columns
    + ``sk`` (the draw) + ``rk`` (1-based rank within the group).

    Determinism requires ``id_col`` values unique per row (the draw is a
    bijection of the id, so distinct ids can never tie; duplicate ids
    would rank arbitrarily among themselves)."""
    from .relational import grouped_top_k  # driver-side composition

    def add_sk(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out["sk"] = shuffle_hash(b[id_col].to_numpy(), seed).astype("int64")
        return out

    return grouped_top_k(
        ds.map_batches(add_sk, batch_format="pandas"),
        group_cols,
        "sk",
        k,
        descending=False,
        finish=finish,
    )


def _es_neg_key(
    b: pd.DataFrame, id_col: str, weight_col: str, seed: int
) -> pd.DataFrame:
    """The Efraimidis-Spirakis draw shared by the global and grouped
    samplers (ONE copy so the SQL-oracle arithmetic cannot drift):
    drops non-positive/NaN weights, adds ``neg_key = -u^(1/w)`` with u
    from the seeded bijective shuffle hash (negated so one ASCENDING
    composite sort gives key DESC, id ASC)."""
    w = b[weight_col].to_numpy(dtype="float64")
    keep = w > 0  # NaN compares False
    out = b.loc[keep].copy()
    u = (
        shuffle_hash(out[id_col].to_numpy(), seed).astype("float64") + 0.5
    ) / 4294967296.0
    out["neg_key"] = -np.power(u, 1.0 / w[keep])
    return out


def weighted_sample_k(
    ds: rd.Dataset,
    id_col: str,
    weight_col: str,
    k: int,
    *,
    seed: int = 0,
) -> rd.Dataset:
    """Weighted sampling WITHOUT replacement, exact-k (Efraimidis &
    Spirakis 2006): each row draws ``key = u ** (1 / w)`` with ``u`` a
    deterministic uniform from the seeded bijective shuffle hash of its
    id, and the k LARGEST keys win — equivalent to sequential
    weighted draws without replacement.  The importance-weighted cousin
    of `grouped_sample_k` (uniform): the 'oversample high-quality docs
    into the training mix' primitive.

    Determinism + SQL mirror: ``u = (shuffle_hash(id) + 0.5) / 2^32``
    (never 0), ``key`` via the same libm ``pow`` DuckDB calls, ties
    broken by id — so a POWER + ORDER BY + LIMIT oracle reproduces the
    selection bit-for-bit.  Rows with non-positive or NaN weight are
    dropped (SQL: ``WHERE w > 0``); ``id_col`` values must be unique
    non-negative ints below 2^32 (the bijectivity domain).

    Scale shape: map-only draw + `ops/relational.top_k`'s local-prune
    global top-k — at most k rows per input block reach the final sort;
    weights and payloads never shuffle."""
    from .relational import top_k  # driver-side composition

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        return _es_neg_key(b, id_col, weight_col, seed)

    return top_k(
        ds.map_batches(add_key, batch_format="pandas"),
        ["neg_key", id_col],
        k,
        descending=False,
    )


def grouped_weighted_sample_k(
    ds: rd.Dataset,
    group_cols: list[str],
    id_col: str,
    weight_col: str,
    k: int,
    *,
    seed: int = 0,
    finish: str = "auto",
):
    """`weighted_sample_k` per group: k weighted draws without
    replacement within EACH group (the 'per-source quality-weighted
    subsample' step of a mixture build).  Same Efraimidis-Spirakis key
    and SQL-mirror contract; the finish is `grouped_top_k`'s size-aware
    local-prune (≤ k rows per (group, batch) ride the exchange).
    Output gains ``neg_key`` (the negated draw) and ``rk`` (1-based
    rank within the group)."""
    from .relational import grouped_top_k  # driver-side composition

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        return _es_neg_key(b, id_col, weight_col, seed)

    return grouped_top_k(
        ds.map_batches(add_key, batch_format="pandas"),
        group_cols,
        "neg_key",
        k,
        descending=False,
        tie_col=id_col,
        finish=finish,
    )
