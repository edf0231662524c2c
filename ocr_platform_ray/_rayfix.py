"""Typed-empty-block hygiene for Ray's sort-based group exchanges.

Ray's sort shuffle (``Dataset.sort`` and the sort that backs
``groupby().map_groups``) emits a COLUMN-LESS empty pandas block —
``PandasBlockSchema(names=[], types=[])`` — for every output partition
whose key range holds no rows (Ray's own code carries a
``TODO(hchen): ... some all-to-all operators output empty blocks with no
schema`` in ``plan_udf_map_op.py``).  Those blocks then slip through every
downstream ``map_batches`` untouched, because the map machinery
short-circuits empty inputs without calling the UDF, so the streaming
executor logs ``Operator produced a RefBundle with a different schema``
warnings on every exchange-bearing pipeline and downstream consumers see
schemaless bundles ("may lead to unexpected behavior").

The fix exploits a second, documented behavior of the same machinery:
``Batcher.add`` ("Note empty block is not added to buffer") DROPS empty
blocks whenever ``map_batches`` runs with a numeric ``batch_size``, and a
map task whose input held only empty blocks yields nothing and emits NO
output block at all.  So appending one fused identity ``map_batches`` with
a numeric batch size to every ``map_groups`` absorbs the schemaless
empties inside the same task, before any other operator (or the executor's
schema tracker) observes them.

``apply()`` wraps ``GroupedData.map_groups`` once, at import time, with
exactly that: plan construction is DRIVER-side, so no worker ever needs
this module, and the absorber UDF is a plain module-level identity that
ships pickle-by-value with the rest of the package.  ``batch_format=None``
keeps blocks in whatever format the group UDF produced (pandas stays
pandas, pyarrow stays pyarrow — no conversion), and the huge batch size
means the batcher never SPLITS a group block mid-stream: it only merges a
task's (whole-group) output batches, so group alignment and row order are
preserved — byte-identity of the flagship extraction output is pinned by
tests/goldens/docs_sha.json either way.

Cost: one extra buffered concat of each map_groups task's OUTPUT (already
reduced data, and the builder it feeds was concatenating anyway); measured
in BASELINE.md round-5 as inside host noise on the tracked query slice.
"""

from __future__ import annotations

_APPLIED = False

# Merge-only batch size: larger than any group block a worker heap can
# hold, so the absorber only ever merges whole batches, never slices one.
_ABSORB_BATCH_ROWS = 1 << 40


def _absorb_identity(block):
    """Identity over whole blocks; exists so the batcher (which drops
    schemaless empty blocks) sits between map_groups and its consumers."""
    return block


def apply() -> None:
    """Idempotently wrap ``GroupedData.map_groups`` with the empty-block
    absorber.  Driver-side plan construction only."""
    global _APPLIED
    if _APPLIED:
        return
    from ray.data.grouped_data import GroupedData

    orig = GroupedData.map_groups

    def map_groups(self, fn, *args, **kwargs):
        ds = orig(self, fn, *args, **kwargs)
        return ds.map_batches(
            _absorb_identity,
            batch_size=_ABSORB_BATCH_ROWS,
            batch_format=None,
        )

    map_groups.__doc__ = orig.__doc__
    map_groups.__wrapped__ = orig
    GroupedData.map_groups = map_groups
    _APPLIED = True
