"""Co-located (shuffle-FREE) join over same-key-partitioned layouts.

The 100 TB payoff of "pick ONE partitioning key and reuse it"
(SURVEY.md §4): once two tables are laid out by the same
``hash(key) % n_shards`` (``partition_by_key`` — the generic form of the
pages writer's url layout), shard i of the left can only match shard i of
the right, so the join is ONE MAP TASK PER SHARD PAIR reading two files —
no all-to-all exchange at all (the partition-aligned analogue of
``reassemble_docs_partitioned``).

Each layout directory carries a ``_layout.json`` (key, n_shards, hash
scheme); ``colocated_join`` refuses mismatched layouts instead of
producing a silently wrong join."""

from __future__ import annotations

import glob
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .exchange import _hash_labels, exchange

_HASH_SCHEME = "pd.util.hash_array%n_shards"


def partition_by_key(
    ds: rd.Dataset,
    out_dir: str,
    key: str,
    *,
    n_shards: int = 64,
    prefix: str = "part",
) -> list[str]:
    """Write ``ds`` as ``{prefix}-{shard:05d}.parquet`` shards keyed by
    ``hash(key) % n_shards`` (deterministic pandas hash — never salted
    Python ``hash()``), rows sorted by the key within each shard, plus a
    ``_layout.json`` record.  Two tables written with the same (key-hash,
    n_shards) are co-joinable without a shuffle."""
    os.makedirs(out_dir, exist_ok=True)

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        sid = int(_hash_labels(g.iloc[:1], [key], n_shards)[0])
        g = g.sort_values(key, kind="mergesort")
        path = os.path.join(out_dir, f"{prefix}-{sid:05d}.parquet")
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False), path + ".tmp")
        os.replace(path + ".tmp", path)
        return pd.DataFrame({"path": [path], "rows": [len(g)]})

    manifest = exchange(ds, lambda b: _hash_labels(b, [key], n_shards), write_shard).to_pandas()
    lpath = os.path.join(out_dir, "_layout.json")
    with open(lpath + ".tmp", "w") as f:
        json.dump(
            {"key": key, "n_shards": n_shards, "hash": _HASH_SCHEME, "prefix": prefix}, f
        )
    os.replace(lpath + ".tmp", lpath)  # atomic publish (readers never see a torn record)
    return sorted(manifest["path"])


def _read_layout(d: str) -> dict:
    path = os.path.join(d, "_layout.json")
    if not os.path.exists(path):
        raise ValueError(f"colocated_join: {d} has no _layout.json (not a keyed layout)")
    with open(path) as f:
        return json.load(f)


def _shard_id(path: str) -> int:
    return int(os.path.basename(path).rsplit("-", 1)[1].split(".")[0])


def colocated_join(
    left_dir: str,
    right_dir: str,
    *,
    how: str = "inner",
    suffix: str = "_r",
) -> rd.Dataset:
    """Join two same-layout directories WITHOUT any exchange: one task per
    shard id reads the two matching files and merges locally (hash
    co-location guarantees completeness).  Raises on layout mismatch
    (different key / n_shards / hash scheme)."""
    ll, rl = _read_layout(left_dir), _read_layout(right_dir)
    for field in ("key", "n_shards", "hash"):
        if ll[field] != rl[field]:
            raise ValueError(
                f"colocated_join: layout mismatch on {field}: {ll[field]!r} != {rl[field]!r}"
            )
    key = ll["key"]
    lfiles = {_shard_id(p): p for p in glob.glob(os.path.join(left_dir, f"{ll['prefix']}-*.parquet"))}
    rfiles = {_shard_id(p): p for p in glob.glob(os.path.join(right_dir, f"{rl['prefix']}-*.parquet"))}
    # inner/left are left-driving (right-only shards can emit nothing);
    # right/outer must ALSO visit right-only shards with a typed-empty
    # left side, else their right rows are silently dropped
    if how in ("inner", "left"):
        shard_ids = sorted(lfiles)
    elif how in ("right", "outer"):
        shard_ids = sorted(set(lfiles) | set(rfiles))
    else:
        raise ValueError(f"colocated_join: unsupported how={how!r}")
    # per-side schemas, for typed empty sides when a shard exists on one
    # side only
    r_schema = pq.read_schema(next(iter(rfiles.values()))) if rfiles else None
    l_schema = pq.read_schema(next(iter(lfiles.values()))) if lfiles else None
    pairs = [
        {"lf": lfiles.get(s, ""), "rf": rfiles.get(s, "")}
        for s in shard_ids
        if s in lfiles or how in ("right", "outer")
    ]
    if not pairs:
        return rd.from_items([]).limit(0)

    # NaN-fillable columns must carry the SAME dtype in every shard: a
    # fully-matched shard would keep int64 payloads while a shard with
    # misses NaN-fills them to float64 — divergent per-block schemas that
    # Arrow consumers (write_parquet) reject (same class as asof_join)
    def _nanable(typ) -> str | None:
        if pa.types.is_integer(typ):
            return "float64"
        if pa.types.is_boolean(typ):
            return "object"
        return None

    l_names = set(l_schema.names) if l_schema is not None else set()
    cast_targets: dict[str, str] = {}
    if r_schema is not None and how in ("left", "outer"):
        for name, typ in zip(r_schema.names, r_schema.types):
            if name == key:
                continue
            t = _nanable(typ)
            if t:
                cast_targets[name + suffix if name in l_names else name] = t
    if l_schema is not None and how in ("right", "outer"):
        for name, typ in zip(l_schema.names, l_schema.types):
            if name == key:
                continue
            t = _nanable(typ)
            if t:
                cast_targets[name] = t

    def join_pair(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lf, rf in zip(b["lf"], b["rf"]):
            if lf:
                lg = pq.read_table(lf).to_pandas()
            elif l_schema is not None:
                lg = l_schema.empty_table().to_pandas()
            else:
                lg = pd.DataFrame({key: []})
            if rf:
                rg = pq.read_table(rf).to_pandas()
            elif r_schema is not None:
                rg = r_schema.empty_table().to_pandas()
            else:
                rg = pd.DataFrame({key: []})
            m = lg.merge(rg, on=key, how=how, suffixes=("", suffix))
            for col, dt in cast_targets.items():
                if col in m.columns and str(m[col].dtype) != dt:
                    m[col] = m[col].astype(dt)
            outs.append(m)
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame()

    # one shard pair per task: batch_size=1 + from_items gives each map
    # task exactly one (left file, right file) unit of work
    return rd.from_items(pairs).map_batches(join_pair, batch_format="pandas", batch_size=1)
