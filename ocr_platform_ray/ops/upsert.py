"""MERGE INTO / upsert against a hash-partitioned parquet target — the
lakehouse CDC primitive: apply a batch of keyed changes (update matched
keys, insert new ones) while rewriting ONLY the partitions that contain
a changed key.  The reference's catalog merge-with-previous
(``pipelines/catalog.py::normalize_versions``, reference
`usul-pipeline.ts` upsert-by-slug semantics) generalized to an engine
operator over arbitrary keyed tables.

Target layout: ``part_K.parquet`` single files, one per partition, with
``K = shuffle_hash(key, seed=0) % n_partitions`` — the repo's shared
bijective draw (ops/shuffle.py), so partition routing is deterministic,
SQL-mirrorable, and stable across runs.  One file per partition keeps
replacement ATOMIC with plain ``os.replace``; size n_partitions so a
partition is a healthy parquet file (hundreds of MB), the same knob as
every bucketed exchange here.

Scale shape:
- the updates move through ONE hash-shard exchange (groupby partition);
  each partition task touches ONLY its own target file — read, anti-set
  on key, concat, write temp, atomic replace.  Untouched partitions are
  never opened: a 100 TB target with a 0.1 % daily change set rewrites
  0.1 %-ish of its files (whatever partitions the changed keys hash to).
- commit discipline: each partition replace is atomic; a crash mid-merge
  leaves SOME partitions merged, which the idempotent rerun converges
  (applying the same updates twice is a no-op — upsert is idempotent).
  For all-or-nothing visibility compose with ``state/manifest.py``'s
  marker pattern at the caller.

Multi-node note: partition tasks use plain filesystem calls, so
``target_dir`` must be storage every worker sees (the
ops/incremental.py rule); atomic single-file rename is the only
filesystem semantic relied on.

Keys must be unique within the target (the upsert invariant — enforced
opportunistically per partition) and unique within one updates batch
(enforced; collapse duplicates upstream with e.g. grouped_top_k k=1).
"""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .exchange import exchange
from .shuffle import shuffle_hash


def _part_path(target_dir: str, k: int) -> str:
    return os.path.join(target_dir, f"part_{k:05d}.parquet")


def _partition_of(keys, n_partitions: int):
    return (shuffle_hash(keys, 0) % n_partitions).astype("int64")


def _part_label(key_col: str, n_partitions: int):
    """Exchange label of the partition layout: ``_partition_of(key)``."""
    return lambda b: _partition_of(b[key_col].to_numpy(), n_partitions)


def _group_part(g: pd.DataFrame, key_col: str, n_partitions: int) -> int:
    """Partition id of one exchange shard (every row shares it)."""
    return int(_partition_of(g[key_col].to_numpy()[:1], n_partitions)[0])


def write_merge_target(
    ds: rd.Dataset,
    target_dir: str,
    key_col: str,
    *,
    n_partitions: int = 64,
) -> None:
    """Materialize ``ds`` as a merge target: one parquet file per key
    partition.  One hash-shard exchange; each partition task writes its
    own file (empty partitions get no file — `merge_into` treats a
    missing file as an empty partition)."""
    os.makedirs(target_dir, exist_ok=True)

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        k = _group_part(g, key_col, n_partitions)
        body = g.sort_values(key_col, kind="mergesort")
        tmp = _part_path(target_dir, k) + ".tmp"
        pq.write_table(pa.Table.from_pandas(body, preserve_index=False), tmp)
        os.replace(tmp, _part_path(target_dir, k))
        return pd.DataFrame({"part": [k], "n": [len(g)]})

    exchange(ds, _part_label(key_col, n_partitions), write_part).materialize()


def merge_into(
    target_dir: str,
    updates: rd.Dataset,
    key_col: str,
    *,
    n_partitions: int = 64,
    allow_new_columns: bool = False,
) -> pd.DataFrame:
    """Upsert ``updates`` into the target: rows whose key exists are
    REPLACED, new keys are INSERTED.  Updates' schema must equal the
    target's — unless ``allow_new_columns=True`` (additive schema
    evolution: update-only columns are ADDED to each touched partition,
    existing rows backfill null; partitions never touched by an update
    keep their old schema until first touched, and `read_merge_target`
    unifies the union schema at scan time).  Dropping or re-typing
    columns is NOT evolution — it's a rewrite; do it explicitly.

    Returns a small per-partition report (partition, rows before,
    updated, inserted) — aggregate-sized, driver-safe.  Only partitions
    containing an updated key are rewritten (atomic per-file replace);
    every other file's bytes are untouched."""
    if os.path.exists(os.path.join(target_dir, "_versions")):
        raise ValueError(
            f"{target_dir!r} is a VERSIONED target; use versioned_merge_into"
        )

    def apply_part(up: pd.DataFrame) -> pd.DataFrame:
        k = _group_part(up, key_col, n_partitions)
        if up[key_col].duplicated().any():
            raise ValueError(
                f"duplicate keys in updates for partition {k}; collapse upstream"
            )
        path = _part_path(target_dir, k)
        if os.path.exists(path):
            cur = pq.read_table(path).to_pandas()
        else:
            cur = up.iloc[0:0]
        upd_keys = set(up[key_col].to_numpy())
        kept = cur[~cur[key_col].isin(upd_keys)]
        n_updated = len(cur) - len(kept)
        new_cols = [c for c in up.columns if c not in cur.columns]
        if new_cols and not allow_new_columns:
            raise ValueError(
                f"updates add columns {new_cols} to partition {k}; pass "
                "allow_new_columns=True for additive schema evolution"
            )
        lost = [c for c in cur.columns if c not in up.columns]
        if lost:
            raise ValueError(
                f"updates are missing target columns {lost} for partition "
                f"{k}; evolution is additive-only"
            )
        cols = list(cur.columns) + (new_cols if allow_new_columns else [])
        merged = pd.concat([kept, up.reindex(columns=cols)], ignore_index=True)
        merged = merged.reindex(columns=cols)
        merged = merged.sort_values(key_col, kind="mergesort")
        tmp = path + ".tmp"
        pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), tmp)
        os.replace(tmp, path)
        return pd.DataFrame(
            {
                "part": [k],
                "n_before": [len(cur)],
                "n_updated": [n_updated],
                "n_inserted": [len(up) - n_updated],
            }
        )

    report = exchange(updates, _part_label(key_col, n_partitions), apply_part).to_pandas()
    return report.sort_values("part").reset_index(drop=True)


def read_merge_target(target_dir: str, *, columns: list[str] | None = None) -> rd.Dataset:
    """Read the target back as a Dataset (one block per partition file).
    After additive schema evolution some partitions may lack the newer
    columns — the scan unifies to the union schema (missing columns
    null), so consumers always see one stable schema."""
    if os.path.exists(os.path.join(target_dir, "_versions")):
        raise ValueError(
            f"{target_dir!r} is a VERSIONED target; use versioned_read"
        )
    files = sorted(glob.glob(os.path.join(target_dir, "part_*.parquet")))
    if not files:
        raise ValueError(
            f"merge target at {target_dir!r} has no partitions "
            "(empty source, or never written)"
        )
    schemas = [pq.read_schema(f) for f in files]
    names = list(dict.fromkeys(n for s in schemas for n in s.names))
    if all(s.names == schemas[0].names for s in schemas):
        return rd.read_parquet(files, columns=columns)
    fields: dict[str, pa.DataType] = {}
    for s in schemas:
        for f in s:
            fields.setdefault(f.name, f.type)
    unified = pa.schema([(n, fields[n]) for n in names])
    return rd.read_parquet(files, columns=columns, schema=unified)


# --------------------------------------------------------------------------
# Versioned merge target (snapshot isolation + time travel)
# --------------------------------------------------------------------------
# Layout: part files are immutable and version-suffixed
# (part_K-v000N.parquet); _versions/v000N.json maps partition -> file for
# that snapshot; _versions/CURRENT names the live manifest (atomic
# replace).  A merge writes NEW files + a NEW manifest and swaps CURRENT
# last, so readers pinning a manifest never see a torn target (the
# in-place layout above documents exactly that partial-merge window —
# this is the isolation upgrade), old snapshots stay readable
# (time travel), and a crash before the swap leaves only orphan files
# that no manifest names.


def _versions_dir(target_dir: str) -> str:
    return os.path.join(target_dir, "_versions")


def _manifest_path(target_dir: str, tag: str) -> str:
    return os.path.join(_versions_dir(target_dir), tag + ".json")


def _current_version(target_dir: str) -> str | None:
    cur = os.path.join(_versions_dir(target_dir), "CURRENT")
    if not os.path.exists(cur):
        return None
    with open(cur) as f:
        return f.read().strip()


def _read_manifest(target_dir: str, tag: str) -> dict:
    import json

    with open(_manifest_path(target_dir, tag)) as f:
        return json.load(f)


def _commit_manifest(
    target_dir: str, seq: int, parts: dict, layout: dict
) -> str:
    import json

    tag = f"v{seq:05d}"
    os.makedirs(_versions_dir(target_dir), exist_ok=True)
    mtmp = _manifest_path(target_dir, tag) + ".tmp"
    with open(mtmp, "w") as f:
        json.dump({"seq": seq, "parts": parts, "layout": layout}, f, sort_keys=True)
    os.replace(mtmp, _manifest_path(target_dir, tag))
    ctmp = os.path.join(_versions_dir(target_dir), "CURRENT.tmp")
    with open(ctmp, "w") as f:
        f.write(tag)
    os.replace(ctmp, os.path.join(_versions_dir(target_dir), "CURRENT"))
    return tag


def versioned_write_target(
    ds: rd.Dataset,
    target_dir: str,
    key_col: str,
    *,
    n_partitions: int = 64,
) -> str:
    """Materialize ``ds`` as snapshot v00001 of a versioned merge
    target.  ``n_partitions`` (and ``key_col``) are recorded in the
    manifest — merges resolve them from there, so the partition routing
    can never silently drift.  Returns the version tag."""
    os.makedirs(target_dir, exist_ok=True)

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        k = _group_part(g, key_col, n_partitions)
        fname = f"part_{k:05d}-v00001.parquet"
        body = g.sort_values(key_col, kind="mergesort")
        tmp = os.path.join(target_dir, fname + ".tmp")
        pq.write_table(pa.Table.from_pandas(body, preserve_index=False), tmp)
        os.replace(tmp, os.path.join(target_dir, fname))
        return pd.DataFrame({"part": [k], "file": [fname]})

    rep = exchange(ds, _part_label(key_col, n_partitions), write_part).to_pandas()
    parts = (
        {str(int(p)): f for p, f in zip(rep["part"], rep["file"])}
        if len(rep)
        else {}
    )
    return _commit_manifest(
        target_dir, 1, parts,
        {"key_col": key_col, "n_partitions": n_partitions},
    )


def versioned_merge_into(
    target_dir: str,
    updates: rd.Dataset,
    key_col: str,
    *,
    n_partitions: int | None = None,
) -> str:
    """Upsert with SNAPSHOT ISOLATION: touched partitions are written as
    NEW immutable files, the new manifest carries untouched entries
    forward, and the CURRENT pointer swaps last — concurrent readers on
    any pinned version are never affected, every prior snapshot stays
    readable, a pre-swap crash leaves only orphans (manifests newer
    than CURRENT and .tmp part files).
    Returns the new version tag.  Update semantics (replace matched
    keys, insert new, unique keys per batch, schemas must match — no
    evolution on the versioned layout yet) match `merge_into`.

    The partition count and key column come FROM THE MANIFEST (recorded
    at write) — passing a conflicting ``n_partitions`` raises instead
    of silently routing keys to the wrong partition."""
    cur = _current_version(target_dir)
    if cur is None:
        raise ValueError(f"{target_dir!r} is not a versioned target")
    man = _read_manifest(target_dir, cur)
    layout = man.get("layout", {})
    man_parts = layout.get("n_partitions")
    if n_partitions is not None and man_parts is not None and n_partitions != man_parts:
        raise ValueError(
            f"target was written with n_partitions={man_parts}; got {n_partitions}"
        )
    n_partitions = man_parts if man_parts is not None else (n_partitions or 64)
    if layout.get("key_col") not in (None, key_col):
        raise ValueError(
            f"target was written keyed on {layout['key_col']!r}; got {key_col!r}"
        )
    seq = int(man["seq"]) + 1
    old_parts: dict = man["parts"]

    def apply_part(up: pd.DataFrame) -> pd.DataFrame:
        k = _group_part(up, key_col, n_partitions)
        if up[key_col].duplicated().any():
            raise ValueError(f"duplicate keys in updates for partition {k}")
        old = old_parts.get(str(k))
        cur_df = (
            pq.read_table(os.path.join(target_dir, old)).to_pandas()
            if old
            else up.iloc[0:0]
        )
        new_cols = [c for c in up.columns if c not in cur_df.columns]
        if new_cols:
            raise ValueError(
                f"updates add columns {new_cols} (partition {k}); schema "
                "evolution is not supported on versioned targets yet"
            )
        lost = [c for c in cur_df.columns if c not in up.columns]
        if lost:
            raise ValueError(
                f"updates are missing target columns {lost} (partition {k})"
            )
        kept = cur_df[~cur_df[key_col].isin(set(up[key_col].to_numpy()))]
        merged = pd.concat(
            [kept, up[list(cur_df.columns)]],
            ignore_index=True,
        ).sort_values(key_col, kind="mergesort")
        fname = f"part_{k:05d}-v{seq:05d}.parquet"
        tmp = os.path.join(target_dir, fname + ".tmp")
        pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), tmp)
        os.replace(tmp, os.path.join(target_dir, fname))
        return pd.DataFrame({"part": [k], "file": [fname]})

    rep = exchange(updates, _part_label(key_col, n_partitions), apply_part).to_pandas()
    parts = dict(old_parts)
    for p, f in zip(rep.get("part", []), rep.get("file", [])):
        parts[str(int(p))] = f
    return _commit_manifest(
        target_dir, seq, parts,
        {"key_col": key_col, "n_partitions": n_partitions},
    )


def versioned_read(
    target_dir: str,
    *,
    version: str | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Read a snapshot (CURRENT by default, or any retained version tag
    — time travel)."""
    tag = version or _current_version(target_dir)
    if tag is None:
        raise ValueError(f"{target_dir!r} is not a versioned target")
    man = _read_manifest(target_dir, tag)
    files = [os.path.join(target_dir, f) for f in sorted(man["parts"].values())]
    if not files:
        raise ValueError(f"snapshot {tag} of {target_dir!r} is empty")
    return rd.read_parquet(files, columns=columns)


def delete_keys(
    target_dir: str,
    keys: rd.Dataset | pd.DataFrame,
    key_col: str,
    *,
    n_partitions: int = 64,
) -> pd.DataFrame:
    """DELETE by key from a `write_merge_target` layout — the compliance
    primitive (GDPR/CCPA erasure, takedown propagation) next to the
    upsert: only the partitions whose hash range contains a requested
    key are rewritten (atomic per-file replace; a partition emptied by
    the delete keeps a ZERO-ROW typed file, so the layout's partition
    map never goes ambiguous); every other file's bytes are untouched.
    Deleting an absent key is a no-op — the operation is idempotent by
    construction (a rerun finds nothing left to drop and rewrites
    byte-identically).

    Scale shape: ONE hash-shard exchange on the (tiny) key set; each
    partition task reads its own file, anti-filters, rewrites.  Returns
    the per-partition report (partition, rows before, deleted)."""
    if os.path.exists(os.path.join(target_dir, "_versions")):
        raise ValueError(
            f"{target_dir!r} is a VERSIONED target; delete via "
            "versioned_merge_into with a tombstone scheme"
        )
    if isinstance(keys, pd.DataFrame):
        keys = rd.from_pandas(keys[[key_col]])

    def apply_part(g: pd.DataFrame) -> pd.DataFrame:
        k = _group_part(g, key_col, n_partitions)
        path = _part_path(target_dir, k)
        if not os.path.exists(path):
            return pd.DataFrame({"part": [k], "n_before": [0], "n_deleted": [0]})
        cur = pq.read_table(path).to_pandas()
        drop = set(g[key_col].to_numpy())
        kept = cur[~cur[key_col].isin(drop)]
        if len(kept) != len(cur):
            tmp = path + ".tmp"
            pq.write_table(
                pa.Table.from_pandas(kept, preserve_index=False), tmp
            )
            os.replace(tmp, path)
        return pd.DataFrame(
            {
                "part": [k],
                "n_before": [len(cur)],
                "n_deleted": [len(cur) - len(kept)],
            }
        )

    rep = exchange(
        keys.map_batches(lambda b: b[[key_col]].drop_duplicates(), batch_format="pandas"),
        _part_label(key_col, n_partitions),
        apply_part,
    ).to_pandas()
    if len(rep) == 0 or "part" not in rep.columns:
        return pd.DataFrame(
            {
                "part": pd.Series(dtype="int64"),
                "n_before": pd.Series(dtype="int64"),
                "n_deleted": pd.Series(dtype="int64"),
            }
        )
    for c in rep.columns:
        rep[c] = rep[c].astype("int64")
    return rep.sort_values("part").reset_index(drop=True)
