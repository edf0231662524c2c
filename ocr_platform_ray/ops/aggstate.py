"""Incremental aggregate maintenance — a persisted per-key aggregate
table kept current by MERGING each ingest's partial aggregates into it,
the materialized-view upkeep every continuously-crawled corpus needs
(per-host page counts, per-source token totals, per-user activity)
without ever re-scanning history.  Completes the incremental family:
`ops/incremental.py` maintains dedup STATE, `ops/diff.py` finds the
change set, this maintains derived AGGREGATES.

Only MERGEABLE aggregates are accepted (sum, count, min, max — count
merges by summing counts); avg = sum/count at read time, the standard
decomposition.  Non-mergeable aggs (median, distinct) need the sketch
family (`ops/sketch.py` — quantile/HLL summaries are themselves
mergeable and could persist the same way).

Layout = the `ops/upsert.py` merge-target shape (``part_K.parquet``,
one file per partition so ``os.replace`` is atomic; K routes through
`_hash_labels` — the engine's shared composite/string-capable exchange
hash, deterministic across runs), with n_partitions pinned in ``_layout.json``
at creation so every ingest routes identically.

Exactly-once contract: each partition file embeds the list of ingest
ids already folded into it in its parquet schema metadata
(``applied_ingests``) — data and marker commit in ONE atomic file
replace, so a crash mid-ingest (some partitions updated, some not)
converges on rerun: applied partitions SKIP (metadata says so),
unapplied ones apply.  No window exists where data landed without its
marker or vice versa.  This is per-partition idempotence, stronger
than the caller-level marker `ops/upsert.merge_into` delegates to its
caller — an aggregate double-ADD corrupts silently where an upsert
double-apply is a no-op, so the guard must live with the data.

Scale shape: the delta pre-aggregates per batch (combiner) before ONE
hash-shard exchange on the key; each partition task reads/writes only
its own file.  A 100 TB corpus's daily delta touches only partitions
holding changed keys.  ``target_dir`` must be worker-visible storage
(the ops/incremental.py rule).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .exchange import _hash_labels, exchange
from .upsert import _part_path

_MERGE_HOW = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
_META_KEY = b"applied_ingests"


def _layout_path(target_dir: str) -> str:
    return os.path.join(target_dir, "_layout.json")


def _pin_layout(
    target_dir: str, keys: list[str], aggs: dict, n_partitions: int
) -> int:
    """Create-or-verify the target's layout pin (keys, agg spec AND
    n_partitions — a later ingest with a different spec would silently
    corrupt the merge); returns the pinned n_partitions, so callers can
    omit it after creation."""
    p = _layout_path(target_dir)
    spec = {a: [src, how] for a, (src, how) in aggs.items()}
    if os.path.exists(p):
        with open(p) as f:
            lay = json.load(f)
        if lay["keys"] != keys:
            raise ValueError(f"target keys {lay['keys']} != requested {keys}")
        if lay["aggs"] != spec:
            raise ValueError(f"target aggs {lay['aggs']} != requested {spec}")
        return int(lay["n_partitions"])
    os.makedirs(target_dir, exist_ok=True)
    tmp = p + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"keys": keys, "aggs": spec, "n_partitions": n_partitions}, f)
    os.replace(tmp, p)
    return n_partitions


def incremental_agg_into(
    target_dir: str,
    delta: rd.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    ingest_id: str,
    n_partitions: int = 64,
) -> pd.DataFrame:
    """Fold one ingest's rows into the persisted aggregate table.
    ``aggs`` maps output column -> (source column, how) with how in
    {sum, count, min, max}.  Returns a partition-sized report
    (partition, status applied|skipped, n_keys).  Reruns of a committed
    ``ingest_id`` are exact no-ops per partition (see module contract).
    The FIRST call fixes keys/aggs/n_partitions; later calls must agree
    (layout pin)."""
    for alias, (_, how) in aggs.items():
        if how not in _MERGE_HOW:
            raise ValueError(
                f"agg {alias!r}: {how!r} is not mergeable "
                f"(allowed: {sorted(_MERGE_HOW)})"
            )
    if not ingest_id or "/" in ingest_id:
        raise ValueError(f"bad ingest_id {ingest_id!r}")
    n_partitions = _pin_layout(target_dir, list(keys), aggs, n_partitions)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: SQL GROUP BY keeps the NULL group — silently
        # dropping null-keyed rows is exactly the view drift this
        # module exists to prevent
        out = b.groupby(list(keys), as_index=False, dropna=False).agg(
            **{a: (src, how) for a, (src, how) in aggs.items()}
        )
        # the partition id rides as a column (the file to write): a null
        # key can turn the group's int key column into float64, whose
        # hash differs from the one labelled here
        out["__part"] = _hash_labels(out, list(keys), n_partitions).astype("int64")
        return out

    order = [*keys, *aggs]

    def apply_part(g: pd.DataFrame) -> pd.DataFrame:
        k = int(g["__part"].iloc[0])
        path = _part_path(target_dir, k)
        applied: list[str] = []
        cur = None
        if os.path.exists(path):
            t = pq.read_table(path)
            meta = t.schema.metadata or {}
            applied = json.loads(meta.get(_META_KEY, b"[]"))
            if ingest_id in applied:
                return pd.DataFrame(
                    {"partition": [k], "status": ["skipped"],
                     "n_keys": [np.int64(len(t))]}
                )
            cur = t.to_pandas()
        # content-sort the incoming partials (the logreg_fit reduce rule):
        # exchange delivery order varies run to run, sorting makes float
        # merges bit-reproducible too
        inc = g[order].sort_values(order).reset_index(drop=True)
        merged = inc if cur is None else pd.concat([cur, inc], ignore_index=True)
        merged = merged.groupby(list(keys), as_index=False, dropna=False).agg(
            **{a: (a, _MERGE_HOW[how]) for a, (_, how) in aggs.items()}
        )
        merged = merged.sort_values(list(keys)).reset_index(drop=True)
        out_t = pa.Table.from_pandas(merged, preserve_index=False)
        out_t = out_t.replace_schema_metadata(
            {_META_KEY: json.dumps(sorted([*applied, ingest_id])).encode()}
        )
        for stale in glob.glob(path + ".tmp-*"):  # crashed attempts
            os.unlink(stale)
        tmp = path + f".tmp-{os.getpid()}"
        pq.write_table(out_t, tmp)
        os.replace(tmp, path)
        return pd.DataFrame(
            {"partition": [k], "status": ["applied"],
             "n_keys": [np.int64(len(merged))]}
        )

    report = exchange(
        delta.map_batches(partial, batch_format="pandas"),
        lambda b: b["__part"],
        apply_part,
    ).to_pandas()
    if report.shape[1] == 0:
        # empty delta: zero partition groups -> columnless empty frame
        # (the probe_head contract) — return the typed empty report
        report = pd.DataFrame(
            {
                "partition": pd.Series(dtype="int64"),
                "status": pd.Series(dtype="object"),
                "n_keys": pd.Series(dtype="int64"),
            }
        )
    return report.sort_values("partition").reset_index(drop=True)


def read_agg_target(
    target_dir: str, *, columns: list[str] | None = None
) -> rd.Dataset:
    """The maintained aggregate table as a Dataset (per-partition
    parquet reads; prune with ``columns``)."""
    files = sorted(glob.glob(os.path.join(target_dir, "part_*.parquet")))
    if not files:
        raise ValueError(f"read_agg_target: no partitions under {target_dir}")
    return rd.read_parquet(files, columns=columns)
