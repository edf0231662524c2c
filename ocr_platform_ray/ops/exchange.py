"""The one shard exchange: label every row, group on the label, map each
shard.

Every group-map in the package runs through ``exchange``, the one place
that decides:

* the label column (``SHARD``) — ``per_shard`` receives each shard's rows
  WITHOUT it;
* the label — ``_hash_labels`` of the key column(s), or the caller's own
  label function (range cuts, spans, precomputed hashes), or a ``SHARD``
  column an upstream UDF already wrote;
* the group-by — Ray's sort-based ``groupby().map_groups``;
* absorbing the column-less ``(0, 0)`` blocks Ray's sort emits for empty
  key ranges.

The absorber: ``map_batches`` passes an empty block through without
calling its UDF, so those blocks would otherwise reach every downstream
operator (and the executor's schema tracker, which warns on them).  A
numeric ``batch_size`` makes the batcher drop the empty blocks of a task
that also holds rows, so one fused identity ``map_batches`` with a
numeric batch size drops them inside the group-map task.  No reduce task
is all-empty (which would still emit one column-less block): the
fused operator bundles sorted blocks until it holds a batch of rows, and
the sort's last range always holds the largest label.  The batch size is
also the operator's minimum rows per task, so it stays small: a
merge-everything size bundles every sorted block into ONE reduce task.
``tests/test_rayfix.py::TestRayInternals`` pins each of these.

Leaf module (ray.data, pandas, numpy and pyarrow only), so ``stages/`` can
use it without an import cycle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

SHARD = "__shard"

# Rows per absorber batch: a reduce task takes sorted blocks until it holds
# this many rows, so the reduce side runs about total_rows / 65536 tasks.
# On one core, a 200k-row exchange took 2.81 s at 4096 (per-task overhead
# of ~50 tasks), 2.35 s at 65536 and 2.32 s as one task.
_ABSORB_BATCH_ROWS = 65536


def _hash_labels(batch, keys: list[str], n: int) -> np.ndarray:
    """Deterministic shard/bucket label: hash of the key value(s) modulo n
    (never Python hash(), which is salted per process); composite keys
    (J3) combine per-column hashes with golden-ratio xor-shift.  The ONE
    copy of this combine.  ``batch`` is a pandas DataFrame or a pyarrow
    Table (a string column's ``to_numpy()`` is the same object array
    either way)."""
    h = pd.util.hash_array(batch[keys[0]].to_numpy())
    for col in keys[1:]:
        h = h * np.uint64(0x9E3779B97F4A7C15) ^ pd.util.hash_array(batch[col].to_numpy())
    return h % n


def _absorb(block):
    return block


def exchange(
    ds: rd.Dataset,
    key: str | list[str] | Callable | None,
    per_shard: Callable,
    *,
    n_shards: int,
    batch_format: str = "pandas",
) -> rd.Dataset:
    """Shard ``ds`` and map every non-empty shard with ``per_shard``.

    ``key`` picks each row's shard:

    * a column name or list of names: ``_hash_labels(batch, keys, n_shards)``;
    * a callable ``key(batch, n_shards) -> int array`` (one label per row);
    * ``None``: the rows already carry a ``SHARD`` column.

    ``per_shard`` gets one shard's rows (every row with that label, in
    ``batch_format``) without the ``SHARD`` column; a site that needs its
    shard id recomputes it from the first row with the same ``key``.
    Output blocks are never column-less."""
    arrow = batch_format == "pyarrow"
    if key is not None:
        if callable(key):
            label = key
        else:
            keys = [key] if isinstance(key, str) else list(key)

            def label(b, n):
                return _hash_labels(b, keys, n)

        def add_label(b):
            s = np.asarray(label(b, n_shards)).astype("int64")
            if arrow:
                return b.append_column(SHARD, pa.array(s, pa.int64()))
            return b.assign(**{SHARD: s})

        ds = ds.map_batches(add_label, batch_format=batch_format)

    def run(g):
        return per_shard(g.drop_columns([SHARD]) if arrow else g.drop(columns=SHARD))

    run.__name__ = getattr(per_shard, "__name__", "per_shard")
    return ds.groupby(SHARD).map_groups(run, batch_format=batch_format).map_batches(
        _absorb, batch_size=_ABSORB_BATCH_ROWS, batch_format=None
    )
