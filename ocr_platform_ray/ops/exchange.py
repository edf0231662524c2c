"""The one shard exchange: label every row, group on the label, map each
shard.

Every group-map in the package runs through ``exchange``, the one place
that decides:

* the label column (``SHARD``) — ``per_shard`` receives each shard's rows
  WITHOUT it;
* the label — ``_hash_labels`` of the key column(s), or the caller's own
  label function (range cuts, spans, precomputed hashes), or a ``SHARD``
  column an upstream UDF already wrote;
* the shard count — ``shard_count()``, one private constant.  No caller
  passes a count: a hashed column key always uses ``shard_count()``; a
  callable key returns its own labels and closes over whatever count it
  needs (range cuts, ``len(cutoffs) + 1``); a site that pre-labels
  ``SHARD`` or recomputes a shard id calls ``shard_count()`` once on the
  driver while it builds its plan, and its closures capture the value.
  No worker reads the constant;
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

Every two-sided group-map (joins, semi/anti filters, set operations,
interval and span co-groups) runs through ``cogroup``, built on
``exchange``, the one place that decides how two inputs share one
exchange:

* the side marker (``_SIDE``) — ``per_shard`` receives each side as its
  own frame, never the marker;
* a per-side column namespace (``l.`` / ``r.``), so key columns and
  names both sides carry never share a column;
* typed padding: each side carries the other side's columns as typed
  placeholders (``_pad_typed``), so the sort sees ONE block schema and
  never outer-joins two (no int->float upcast, no executor
  schema-mismatch warnings);
* undoing any remaining pandas int/bool upcast on each side's own slice
  (``_restore_dtypes``);
* a side with no blocks (``schema() is None``): it is not unioned, and
  ``per_shard`` sees it as an empty frame with no columns.

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
_SIDE = "__side"

# Rows per absorber batch: a reduce task takes sorted blocks until it holds
# this many rows, so the reduce side runs about total_rows / 65536 tasks.
# On one core, a 200k-row exchange took 2.81 s at 4096 (per-task overhead
# of ~50 tasks), 2.35 s at 65536 and 2.32 s as one task.
_ABSORB_BATCH_ROWS = 65536

# Shards of a hashed-key exchange.  Every result is independent of it
# (tests/test_exchange.py::TestShardCountFree runs every oracle query at 1
# and 7); it sets only how many ``per_shard`` calls an exchange makes.
_N_SHARDS = 64


def shard_count() -> int:
    """The shard count of a hashed-key exchange.  Read it on the driver
    while building a plan, never inside a UDF."""
    return _N_SHARDS


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


def _pd_dtype(typ) -> str:
    """Arrow type -> pandas dtype name (object for anything exotic)."""
    if not isinstance(typ, pa.DataType):
        return "object"
    if pa.types.is_timestamp(typ):
        # Ray pandas blocks keep the Arrow unit (parquet timestamps read
        # as datetime64[us]); matching it keeps padded/typed-empty rows
        # from upcasting the real side's column in an exchange concat
        return f"datetime64[{typ.unit}]"
    if pa.types.is_date(typ):
        return "datetime64[ns]"
    if pa.types.is_integer(typ):
        return np.dtype(typ.to_pandas_dtype()).name
    if pa.types.is_floating(typ):
        return "float64"
    if pa.types.is_boolean(typ):
        return "bool"
    return "object"


def _typed_empty(schema: "pa.Schema", cols: list[str]) -> pd.DataFrame:
    types = dict(zip(schema.names, schema.types))
    return pd.DataFrame({c: pd.Series(dtype=_pd_dtype(types.get(c))) for c in cols})


def _pad_typed(df: pd.DataFrame, pads: dict[str, str]) -> pd.DataFrame:
    """Add each column in ``pads`` (name -> pandas dtype) filled with a
    TYPED placeholder (0 / NaN / NaT / False / None) the receiver never
    reads.  Mutates and returns ``df``."""
    n = len(df)
    for c, dt in pads.items():
        if dt == "object":
            df[c] = pd.Series([None] * n, index=df.index, dtype="object")
        elif dt.startswith("datetime"):
            unit = dt[dt.index("[") + 1 : -1] if "[" in dt else "ns"
            df[c] = pd.Series(
                np.full(n, np.datetime64("NaT", unit)), index=df.index
            )
        else:
            df[c] = pd.Series(np.zeros(n, dtype=np.dtype(dt)), index=df.index)
    return df


def _restore_targets(schema: "pa.Schema", names) -> dict[str, str]:
    """Map integer/bool columns of an Arrow schema to their numpy dtype
    names, for ``_restore_dtypes``."""
    targets: dict[str, str] = {}
    for name, typ in zip(schema.names, schema.types):
        if name not in names or not isinstance(typ, pa.DataType):
            continue  # non-Arrow (simple-block) schemas carry Python types
        if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
            targets[name] = np.dtype(typ.to_pandas_dtype()).name
    return targets


def _restore_dtypes(df: pd.DataFrame, targets: dict[str, str]) -> pd.DataFrame:
    """Cast each null-free column in ``targets`` back to its dtype: a
    block whose int/bool column pandas upcast (int->float, bool->object)
    gets its exact dtype back once no null is left in it."""
    for c, dt in targets.items():
        if c in df.columns and str(df[c].dtype) != dt and not df[c].isna().any():
            try:
                df[c] = df[c].astype(dt)
            except (TypeError, ValueError):
                pass
    return df


def exchange(
    ds: rd.Dataset,
    key: str | list[str] | Callable | None,
    per_shard: Callable,
    *,
    batch_format: str = "pandas",
) -> rd.Dataset:
    """Shard ``ds`` and map every non-empty shard with ``per_shard``.

    ``key`` picks each row's shard:

    * a column name or list of names:
      ``_hash_labels(batch, keys, shard_count())``;
    * a callable ``key(batch) -> int array``: one non-negative label per
      row of ``batch`` (a pandas DataFrame or pyarrow Table, per
      ``batch_format``).  It must be a pure function of the row, and
      closes over any count it needs;
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
            n = shard_count()

            def label(b):
                return _hash_labels(b, keys, n)

        def add_label(b):
            s = np.asarray(label(b)).astype("int64")
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


def cogroup(
    left: rd.Dataset,
    right: rd.Dataset,
    key: str | list[str] | None,
    per_shard: Callable,
) -> rd.Dataset:
    """Co-group two Datasets shard by shard: ``per_shard(l, r)`` gets one
    shard's left rows and right rows as two pandas frames, each with its
    own side's columns and dtypes.  A side with no rows in that shard
    comes as an empty frame; a side that executes to no blocks
    (``schema() is None``) comes as an empty frame with no columns.
    ``per_shard`` is not called for empty shards.

    ``key`` is column name(s) both sides carry (each side hashes its own,
    as ``exchange`` does), or ``None``: each side already carries
    ``SHARD`` and may place one row in several shards.

    Reads both schemas on the driver, which executes a lazy side's first
    block unless its schema is already known."""
    keys = [key] if isinstance(key, str) else key
    schemas = (left.schema(), right.schema())
    cols = [[] if s is None else [c for c in s.names if c != SHARD] for s in schemas]
    names = [[f"{p}.{c}" for c in cs] for p, cs in zip("lr", cols)]
    dtypes = [
        {} if s is None else dict(zip(s.names, map(_pd_dtype, s.types)))
        for s in schemas
    ]
    targets = [
        {} if s is None else _restore_targets(s, set(cs))
        for s, cs in zip(schemas, cols)
    ]
    order = names[0] + names[1] + [SHARD, _SIDE]
    n = shard_count()

    def tagged(ds: rd.Dataset, i: int) -> rd.Dataset:
        o = 1 - i
        pads = {nm: dtypes[o][c] for nm, c in zip(names[o], cols[o])}

        def tag(b: pd.DataFrame) -> pd.DataFrame:
            out = b[cols[i]].set_axis(names[i], axis=1)
            out[SHARD] = (
                b[SHARD].to_numpy() if keys is None else _hash_labels(b, keys, n)
            ).astype("int64")
            out[_SIDE] = np.int8(i)
            return _pad_typed(out, pads)[order]

        return ds.map_batches(tag, batch_format="pandas")

    def run(g: pd.DataFrame):
        # a block-less side has no rows and no names: a (0, 0) frame
        side = g[_SIDE].to_numpy()
        return per_shard(
            *(
                _restore_dtypes(
                    g.loc[side == i, names[i]].set_axis(cols[i], axis=1).reset_index(drop=True),
                    targets[i],
                )
                for i in (0, 1)
            )
        )

    run.__name__ = getattr(per_shard, "__name__", "per_shard")
    live = [tagged(ds, i) for i, ds in enumerate((left, right)) if schemas[i] is not None]
    if not live:
        return left
    # a lone live side is exchanged alone (``union()`` of no Dataset fails)
    return exchange(live[0] if len(live) == 1 else live[0].union(live[1]), None, run)
