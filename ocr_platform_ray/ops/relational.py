"""Relational operators, Ray-Data-first (SURVEY.md §2.4-2.6).

Join strategy (ray_guide / SURVEY §2.4):
  * small build side -> broadcast hash join: ``ray.put`` the built lookup
    ONCE, probe inside ``map_batches`` (J1/J2/J5 — the reference's
    dict-probe joins, texts.airtable.ts:62-104).
  * both sides large -> explicit partitioned hash join: add
    ``bucket = hash(key) % B`` to both sides, co-group per bucket, pandas
    merge per bucket (portable; ``Dataset.join`` exists in this Ray but the
    explicit form documents the partitioning and survives API drift).
  * semi/anti -> broadcast the key set, filter inside ``map_batches``
    (J4/J6, incl. the ``none:{}`` anti-filter at usul/texts/page.tsx:79-85).

Aggregation at scale: ``pre_aggregate`` computes per-batch partials inside
``map_batches`` (one row per key per batch) so the shuffle moves partials,
not rows (ray_guide "Aggregation at scale").
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

# imported at module top so pickle-by-value captures it — a lazy relative
# import inside a worker-executed body would fail on workers that cannot
# import the package from disk (foreign-cwd drivers)
from ..state.broadcast import cached_get
from .exchange import SHARD, _hash_labels, exchange, shard_count


# --------------------------------------------------------------------------
# Broadcast hash join (small build side)
# --------------------------------------------------------------------------
class _BroadcastJoin:
    def __init__(self, small_ref, on: str, how: str, suffix: str):
        self.small_ref = small_ref
        self.on, self.how, self.suffix = on, how, suffix

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        small: pd.DataFrame = cached_get(self.small_ref)
        return batch.merge(small, on=self.on, how=self.how, suffixes=("", self.suffix))


def broadcast_hash_join(
    large: rd.Dataset,
    small: rd.Dataset | pd.DataFrame,
    on: str,
    *,
    how: str = "left",
    suffix: str = "_r",
    batch_size: int = 65536,
) -> rd.Dataset:
    """Join a large Dataset against a small one without a shuffle: the small
    side is materialized once into the object store and probed per batch.
    ``how`` is restricted to the probe-side forms: a "right"/"outer" join
    would emit an unmatched SMALL row once per probed batch (use the
    bucketed exchange — `auto_join` routes those automatically)."""
    if how not in ("inner", "left"):
        raise ValueError(
            f"broadcast route supports how='inner'/'left' only, got {how!r}"
        )
    if isinstance(small, pd.DataFrame):
        small_df = small
    else:
        small_df = small.to_pandas()
        if small_df.shape[1] == 0:
            # an EMPTY Dataset to_pandas()-es to a frame with no columns —
            # rebuild the typed empty frame so the merge keeps its schema
            small_df = _typed_empty(small.schema(), small.schema().names)
    ref = ray.put(small_df)
    return large.map_batches(
        _BroadcastJoin(ref, on, how, suffix), batch_format="pandas", batch_size=batch_size
    )


# --------------------------------------------------------------------------
# Partitioned (bucketed) hash join — both sides large
# --------------------------------------------------------------------------
def _restore_targets(schema: "pa.Schema", names) -> dict[str, str]:
    """Map integer/bool columns of an Arrow schema to their numpy dtype
    names.  A two-sided union exchange null-fills each side's exclusive
    columns, which upcasts int->float / bool->object in pandas batches;
    after slicing back to one side's rows the nulls are gone and the
    original dtype can be restored exactly."""
    targets: dict[str, str] = {}
    for name, typ in zip(schema.names, schema.types):
        if name not in names or not isinstance(typ, pa.DataType):
            continue  # non-Arrow (simple-block) schemas carry Python types
        if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
            targets[name] = np.dtype(typ.to_pandas_dtype()).name
    return targets


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
    TYPED sentinel (0 / NaN / NaT / False / None) the receiver never
    reads.  Union-exchange sides padded this way share ONE block schema,
    so the sort concat never outer-joins differing schemas (no int->float
    upcast, no executor schema-mismatch warnings) and per-bucket reduces
    always see every column.  Mutates and returns ``df``."""
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


def _pad_plan(schema: "pa.Schema", cols) -> dict[str, str]:
    """The ``_pad_typed`` spec for ``cols`` of an Arrow schema."""
    types = dict(zip(schema.names, schema.types))
    return {c: _pd_dtype(types.get(c)) for c in cols}


def _restore_dtypes(df: pd.DataFrame, targets: dict[str, str]) -> pd.DataFrame:
    for c, dt in targets.items():
        if c in df.columns and str(df[c].dtype) != dt and not df[c].isna().any():
            try:
                df[c] = df[c].astype(dt)
            except (TypeError, ValueError):
                pass
    return df


def freeze_list_columns(ds: rd.Dataset) -> tuple[rd.Dataset, dict[str, "np.dtype"]]:
    """Serialize variable-length LIST columns (Arrow ``list<T>`` — span
    lineage like page_offsets, embeddings, …) to per-row BYTES so wide
    rows can ride the pandas union/sort exchanges: Ray renders list
    columns as tensor-extension arrays in pandas blocks, and pandas
    concat of RAGGED tensor-extension chunks (what an AllToAll barrier
    does between blocks) raises TypeError.  Bytes columns are
    exchange-stable and round-trip exactly (dtype kept in the spec).
    Returns ``(frozen_ds, spec)``; ``spec`` empty -> ds returned as-is.
    Thaw with ``thaw_list_columns`` after the exchange."""
    from ray.air.util.tensor_extensions.pandas import TensorDtype

    schema = ds.schema()
    spec: dict[str, np.dtype] = {}
    if schema is not None:
        for name, typ in zip(schema.names, schema.types):
            if isinstance(typ, pa.ExtensionType) and hasattr(typ, "scalar_type"):
                # Ray's Arrow tensor extension types (fixed and variable
                # shaped, v1/v2) — the pandas-side offenders' source
                spec[name] = np.dtype(typ.scalar_type.to_pandas_dtype())
            elif isinstance(typ, pa.DataType):
                if pa.types.is_list(typ) or pa.types.is_large_list(typ) or pa.types.is_fixed_size_list(typ):
                    spec[name] = np.dtype(typ.value_type.to_pandas_dtype())
            elif isinstance(typ, TensorDtype):
                # pandas-block schemas render list columns as the Ray
                # tensor extension dtype
                spec[name] = np.dtype(typ.element_dtype)
    if not spec:
        return ds, spec

    def freeze(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        for c, dt in spec.items():
            out[c] = [np.asarray(v, dtype=dt).tobytes() for v in b[c]]
        return out

    return ds.map_batches(freeze, batch_format="pandas"), spec


def thaw_list_columns(ds: rd.Dataset, spec: dict[str, "np.dtype"]) -> rd.Dataset:
    """Inverse of ``freeze_list_columns`` (exact: dtype from the spec)."""
    if not spec:
        return ds

    def thaw(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        for c, dt in spec.items():
            out[c] = [np.frombuffer(v, dtype=dt) for v in b[c]]
        return out

    return ds.map_batches(thaw, batch_format="pandas")


def bucketed_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str | list[str],
    *,
    how: str = "inner",
    right_prefix: str = "r_",
) -> rd.Dataset:
    """Explicit partitioned hash join: both sides tagged with
    ``hash(key) % shard_count()``, unioned, co-grouped per bucket, merged
    with pandas per bucket (``exchange``).  One all-to-all shuffle total.

    Partitioning assumption: a single bucket's rows fit in a worker's heap;
    for skewed keys salt the hot key upstream."""
    keys = [on] if isinstance(on, str) else list(on)
    lsch, rsch = left.schema(), right.schema()
    if lsch is None or rsch is None:
        # a side that executed to ZERO blocks (its upstream exchange
        # absorbed every empty partition — see ops/exchange.py) has no schema
        # to plan with.  An inner join with a block-less side is empty;
        # the schema-less side's columns can't be reconstructed, so the
        # KNOWN side's limit(0) stands in (downstream map stages skip
        # empty input either way).  Outer joins would need the missing
        # column names — surface that loudly instead of guessing.
        if how != "inner":
            raise ValueError(
                "bucketed_hash_join: a join side has no blocks and no "
                f"schema; cannot plan how={how!r} without its column "
                "names — guard the caller with an emptiness check"
            )
        return (right if lsch is None else left).limit(0)
    lcols = lsch.names
    rcols = rsch.names
    overlap = (set(lcols) & set(rcols)) - set(keys)
    # the right side's overlap columns are renamed r_* BEFORE the union
    # and each side is PADDED with the other side's columns as typed
    # sentinels (_pad_typed), so both sides ship ONE identical block
    # schema through the exchange: no outer-join concat (keeps int64
    # int64), no missing-column defense in the reduce, and no executor
    # schema-mismatch warnings
    rename = {c: right_prefix + c for c in overlap}
    r_cols = [rename.get(c, c) for c in rcols]  # right side, post-rename
    union_cols = lcols + [c for c in r_cols if c not in lcols]
    ltargets = _restore_targets(left.schema(), set(lcols))
    rtargets = {
        rename.get(c, c): dt
        for c, dt in _restore_targets(right.schema(), set(rcols)).items()
    }
    lschema, rschema = left.schema(), right.schema()
    lpads = {
        rename.get(c, c): dt
        for c, dt in _pad_plan(rschema, rcols).items()
        if rename.get(c, c) not in lcols
    }
    rpads = {
        c: dt for c, dt in _pad_plan(lschema, lcols).items() if c not in r_cols
    }
    n = shard_count()

    def tag(ds: rd.Dataset, side: str, rn: dict, pads: dict) -> rd.Dataset:
        def add(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.rename(columns=rn) if rn else batch.copy()
            out = _pad_typed(out, pads)[union_cols].copy()
            out[SHARD] = _hash_labels(out, keys, n).astype("int64")
            out["__side"] = side
            return out

        return ds.map_batches(add, batch_format="pandas")

    l = tag(left, "l", {}, lpads)
    r = tag(right, "r", rename, rpads)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lmask = (g["__side"] == "l").to_numpy()
        lg = _restore_dtypes(g.loc[lmask, lcols].copy(), ltargets)
        rg = _restore_dtypes(g.loc[~lmask, keys + [c for c in r_cols if c not in keys]].copy(), rtargets)
        return lg.merge(rg, on=keys, how=how)

    return exchange(l.union(r), None, join_bucket)


_ROUTE_LOG: list | None = None


@contextmanager
def explain_routes():
    """Observe which route every size-aware planner picks inside the
    block — the answer to the 100 TB reviewer's 'did this broadcast or
    shuffle?' without reading ds.stats().  Yields a list of dicts
    ``{"op", "route", ...detail}`` appended in plan order.  All planner
    decisions are DRIVER-side (the probes run on the driver), so no
    worker state is involved; nesting restores the outer log."""
    global _ROUTE_LOG
    prev = _ROUTE_LOG
    _ROUTE_LOG = log = []
    try:
        yield log
    finally:
        _ROUTE_LOG = prev


def _log_route(op: str, route: str, **detail) -> None:
    if _ROUTE_LOG is not None:
        _ROUTE_LOG.append({"op": op, "route": route, **detail})


def probe_head(ds: rd.Dataset, threshold_rows: int) -> pd.DataFrame | None:
    """The ``limit(threshold+1)`` size probe shared by every size-aware
    planner (joins, aggregate finishes, semi/anti, fuzzy blocking, LSH
    candidates): returns the COMPLETE table as pandas when it holds
    <= threshold rows — the probe then doubles as the build / partial /
    key table, one execution total — else None (plan the distributed
    route).  An empty Dataset to_pandas()-es to a COLUMNLESS frame;
    callers that need the schema handle ``shape[1] == 0``.  Execution
    errors propagate: routing them to the exchange path would only
    re-raise the same error later with less context."""
    head = ds.limit(threshold_rows + 1).to_pandas()
    return head if len(head) <= threshold_rows else None


def auto_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    *,
    how: str = "inner",
    broadcast_threshold_rows: int = 2_000_000,
    right_prefix: str = "r_",
) -> rd.Dataset:
    """Size-aware join planner (the Spark broadcast-threshold decision):
    when the BUILD side is small enough to replicate, use the shuffle-free
    broadcast hash join; otherwise the explicit bucketed exchange.  At
    test scale the dimension side usually broadcasts (saves the 2-3 s
    AllToAll barrier); at 10^12-row scale the same call plans the
    exchange.  The two paths are equivalence-tested.

    The probe is ``limit(threshold+1)`` — it short-circuits execution at
    the threshold AND, when the side fits, already IS the complete build
    table (one execution total; a separate count() would re-execute a
    derived build side's whole lineage per consumption).

    Collision naming is route-INDEPENDENT: overlapping non-key right
    columns are renamed ``right_prefix + name`` on BOTH routes, so the
    output schema does not flip when the build side crosses the
    threshold (equivalence-tested with an overlapping column).

    ``how="right"`` / ``how="outer"`` always plan the bucketed exchange:
    the broadcast route merges the build side against each streaming
    left BATCH, so a right row with no left match would be emitted once
    per batch — only the exchange, where each right row lives in exactly
    one bucket, can emit it exactly once."""
    if how in ("right", "outer"):
        _log_route("auto_join", "bucketed", how=how, reason="outer-side exactness")
        return bucketed_hash_join(left, right, on, how=how, right_prefix=right_prefix)
    head = probe_head(right, broadcast_threshold_rows)
    if head is not None:
        _log_route("auto_join", "broadcast", how=how, build_rows=int(len(head)))
    else:
        _log_route(
            "auto_join", "bucketed", how=how,
            reason=f"build side > {broadcast_threshold_rows} rows",
        )
    if head is not None:
        if head.shape[1] == 0:  # empty Dataset -> schema-less frame
            rsch = right.schema()
            if rsch is None:
                # EMPTY map-derived right: even its column names are
                # unknowable.  A left join keeps every left row (callers
                # must tolerate the absent right columns, exactly as
                # bucketed shard groups fed one side's blocks already
                # require); an inner join is empty.
                return left if how == "left" else left.limit(0)
            head = _typed_empty(rsch, rsch.names)
        lsch = left.schema()
        if lsch is None:
            # empty map-derived left: schema is unknowable and the join
            # result is empty for the probe-side routes (inner/left)
            return left
        # same collision names as the bucketed route (prefix, not suffix)
        overlap = (set(lsch.names) & set(head.columns)) - {on}
        if overlap:
            head = head.rename(columns={c: right_prefix + c for c in overlap})
        return broadcast_hash_join(left, head, on, how=how, suffix="_r")
    return bucketed_hash_join(left, right, on, how=how, right_prefix=right_prefix)


def native_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    *,
    how: str = "inner",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Ray's built-in hash-partitioned ``Dataset.join`` (2.49+) — the
    same exchange shape as ``bucketed_hash_join`` but implemented by Ray's
    hash-shuffle aggregators.  Kept alongside the explicit version: the
    explicit one documents its partitioning and is portable across Ray
    releases; this one exercises the native path (equivalence tested)."""
    return left.join(
        right,
        join_type=how,
        num_partitions=num_partitions,
        on=(on,),
    )


# --------------------------------------------------------------------------
# Semi / anti joins (broadcast key set)
# --------------------------------------------------------------------------
class _KeyFilter:
    def __init__(self, keys_ref, on: str, keep_in: bool):
        self.keys_ref = keys_ref
        self.on, self.keep_in = on, keep_in

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        mask = batch[self.on].isin(cached_get(self.keys_ref))
        return batch[mask if self.keep_in else ~mask]


def _key_set_ref(keys: rd.Dataset, on: str):
    vals = set()
    for b in keys.select_columns([on]).iter_batches(batch_format="pyarrow"):
        vals.update(b.column(on).to_pylist())
    return ray.put(frozenset(vals))


def _semi_anti_bucketed(
    ds: rd.Dataset, keys: rd.Dataset, on: str, keep_in: bool
) -> rd.Dataset:
    """Distributed semi/anti filter: one bucketed exchange on
    ``hash(key) % shard_count()`` co-grouping data rows with a DEDUPED key
    projection, then an in-bucket isin (or its complement) — no
    driver-held key set, the route for a corpus-sized key side.

    Correct because every occurrence of a key value (both sides) lands in
    the same bucket; a bucket fed no key-side blocks has an empty key set
    (semi keeps nothing, anti keeps everything)."""
    dschema = ds.schema()
    ksch = keys.schema()
    if dschema is None:
        return ds  # block-less data side: nothing to keep OR drop
    if ksch is None:
        # block-less key side: semi keeps nothing, anti keeps everything
        return ds.limit(0) if keep_in else ds
    dcols = dschema.names
    dtargets = _restore_targets(dschema, set(dcols))
    # padded union (one block schema both sides — see _pad_typed)
    kpad = _pad_plan(ksch, [on])
    union_cols = dcols + ["__k"]
    dpads = _pad_plan(dschema, dcols)
    n = shard_count()

    def tag_data(b: pd.DataFrame) -> pd.DataFrame:
        out = _pad_typed(b.copy(), {"__k": kpad[on]})[union_cols].copy()
        out[SHARD] = _hash_labels(b, [on], n).astype("int64")
        out["__side"] = "l"
        return out

    def tag_keys(b: pd.DataFrame) -> pd.DataFrame:
        # in-batch dedup combiner: the exchange moves distinct keys per batch
        out = b[[on]].drop_duplicates().rename(columns={on: "__k"})
        out[SHARD] = _hash_labels(out, ["__k"], n).astype("int64")
        out = _pad_typed(out, dpads)[union_cols + [SHARD]].copy()
        out["__side"] = "r"
        return out

    l = ds.map_batches(tag_data, batch_format="pandas")
    r = keys.select_columns([on]).map_batches(tag_keys, batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lmask = (g["__side"] == "l").to_numpy()
        lg = _restore_dtypes(g.loc[lmask, dcols].copy(), dtargets)
        kvals = g.loc[~lmask, "__k"]
        mask = lg[on].isin(set(kvals))
        return lg[mask if keep_in else ~mask]

    return exchange(l.union(r), None, per_bucket)


def _semi_anti_bloom(
    ds: rd.Dataset,
    keys: rd.Dataset,
    on: str,
    keep_in: bool,
    m_bits: int,
) -> rd.Dataset:
    """Bloom-prefiltered semi/anti (the Dolma fixed-memory idea applied
    to join pushdown): a ``m_bits/8``-byte bitmap over the key side
    broadcasts once, and the map-side prefilter resolves most rows
    WITHOUT any exchange — semi drops definite non-members (a Bloom
    negative is exact), anti KEEPS them outright — so the exact bucketed
    finish moves only the Bloom-positive sliver (true matches + the
    ~(1-e^{-kn/m})^k false-positive rate).  Exact by construction at any
    false-positive rate.

    The anti route scans ``ds`` twice (definite keeps + candidates) —
    two source scans beat one corpus-wide exchange whenever the key side
    is too big to broadcast; materialize upstream if the input lineage
    is expensive."""
    from .spans import _bloom_test, build_dup_bloom

    gh_keys = keys.select_columns([on]).map_batches(
        lambda b: pd.DataFrame(
            {"gh": pd.util.hash_array(b[on].to_numpy()).view(np.int64)}
        ),
        batch_format="pandas",
    )
    acc = build_dup_bloom(gh_keys, m_bits=m_bits)
    ref = ray.put(acc)

    def prefilter(keep_hits: bool):
        def f(b: pd.DataFrame, _test=_bloom_test) -> pd.DataFrame:
            gh = pd.util.hash_array(b[on].to_numpy()).view(np.int64)
            hit = _test(cached_get(ref), gh)
            return b[hit if keep_hits else ~hit]

        return f

    candidates = ds.map_batches(prefilter(True), batch_format="pandas")
    if keep_in:
        return _semi_anti_bucketed(candidates, keys, on, True)
    definite = ds.map_batches(prefilter(False), batch_format="pandas")
    survivors = _semi_anti_bucketed(candidates, keys, on, False)
    return definite.union(survivors)


def _semi_anti(
    ds: rd.Dataset,
    keys: rd.Dataset,
    on: str,
    keep_in: bool,
    method: str,
    broadcast_threshold_rows: int,
    bloom_m_bits: int = 1 << 23,
) -> rd.Dataset:
    if method == "auto":
        # mirror auto_join: the probe, when it fits, IS the broadcast
        # key table (one execution total)
        head = probe_head(keys.select_columns([on]), broadcast_threshold_rows)
        op = "semi_join" if keep_in else "anti_join"
        if head is not None:
            _log_route(op, "broadcast", key_rows=int(len(head)))
            vals = frozenset() if head.shape[1] == 0 else frozenset(head[on])
            ref = ray.put(vals)
            return ds.map_batches(_KeyFilter(ref, on, keep_in), batch_format="pandas")
        _log_route(
            op, "bucketed", reason=f"key side > {broadcast_threshold_rows} rows"
        )
        method = "bucketed"
    if method == "bucketed":
        return _semi_anti_bucketed(ds, keys, on, keep_in)
    if method == "bloom":
        return _semi_anti_bloom(ds, keys, on, keep_in, bloom_m_bits)
    ref = _key_set_ref(keys, on)
    return ds.map_batches(_KeyFilter(ref, on, keep_in), batch_format="pandas")


def semi_join(
    ds: rd.Dataset,
    keys: rd.Dataset,
    on: str,
    *,
    method: str = "broadcast",
    broadcast_threshold_rows: int = 2_000_000,
    bloom_m_bits: int = 1 << 23,
) -> rd.Dataset:
    """Rows of ``ds`` whose key appears in ``keys`` (J6 semi-filter).

    ``method``: "broadcast" builds the key set on the driver (right for
    dim-sized key sides); "bucketed" runs the distributed exchange route
    (corpus-sized key side, nothing key-set-sized on the driver);
    "bloom" prefilters with a fixed ``bloom_m_bits``-bit bitmap (size it
    to ~10x the expected distinct keys or the prefilter saturates and
    degrades to bucketed-plus-overhead); "auto" probes the key side
    with ``limit(threshold+1)`` and picks (the auto_join planner
    pattern).  Routes are equivalence-tested."""
    return _semi_anti(ds, keys, on, True, method, broadcast_threshold_rows, bloom_m_bits)


def anti_join(
    ds: rd.Dataset,
    keys: rd.Dataset,
    on: str,
    *,
    method: str = "broadcast",
    broadcast_threshold_rows: int = 2_000_000,
    bloom_m_bits: int = 1 << 23,
) -> rd.Dataset:
    """Rows of ``ds`` whose key does NOT appear in ``keys`` (the
    ``AdvancedGenreToBook: {none:{}}`` anti-filter, J6).  Same
    ``method`` routes as ``semi_join``."""
    return _semi_anti(ds, keys, on, False, method, broadcast_threshold_rows, bloom_m_bits)


# --------------------------------------------------------------------------
# Sort / limit / pagination / distinct
# --------------------------------------------------------------------------
def top_k(ds: rd.Dataset, key: str | list[str], k: int, *, descending: bool = True) -> rd.Dataset:
    """Top-k (O1): per-batch local top-k prune first so the global sort
    moves at most k rows per input block, then sort+limit."""
    keys = [key] if isinstance(key, str) else key

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(keys, ascending=not descending).head(k)

    pruned = ds.map_batches(local_topk, batch_format="pandas")
    return pruned.sort(keys, descending=descending).limit(k)


def grouped_top_k(
    ds: rd.Dataset,
    group_cols: list[str],
    order_col: str,
    k: int,
    *,
    descending: bool = True,
    tie_col: str | None = None,
    finish: str = "auto",
    driver_threshold_rows: int = 2_000_000,
) -> rd.Dataset | pd.DataFrame:
    """Top-k rows PER GROUP with a dense 1-based ``rk`` rank column (the
    SQL ``row_number() OVER (PARTITION BY ... ORDER BY ...) <= k`` window
    — e.g. 'best k documents per language by quality score').

    Same two-phase shape as ``top_k``/``auto_group_agg``: a per-batch
    local prune caps the exchange payload at k rows per (group, batch),
    then the size-aware finish — driver when the pruned partials fit
    (saves the AllToAll floor), hash-shard exchange with ONE vectorized
    sort + head per shard above it (every row of a group lands in one
    shard, so in-shard ranks are global ranks).  ``tie_col`` (ascending)
    makes the ranking total — required for a deterministic result."""
    sort_cols = [*group_cols, order_col] + ([tie_col] if tie_col else [])
    ascending = [True] * len(group_cols) + [not descending] + ([True] if tie_col else [])

    def local_prune(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(sort_cols, ascending=ascending).groupby(
            group_cols, sort=False
        ).head(k)

    def rank_head(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, ascending=ascending)
        df["rk"] = df.groupby(group_cols, sort=False).cumcount() + 1
        return df[df["rk"] <= k].reset_index(drop=True)

    pruned = ds.map_batches(local_prune, batch_format="pandas")
    if finish == "auto":
        head = probe_head(pruned, driver_threshold_rows)
        if head is not None:
            finish, pruned = "driver", head
        else:
            finish = "exchange"
    if finish == "driver":
        df = pruned if isinstance(pruned, pd.DataFrame) else pruned.to_pandas()
        if df.shape[1] == 0:  # empty Dataset -> columnless probe frame
            # typed per-column dtypes (route-independent schema: the
            # exchange route's empty output carries real dtypes too)
            out = _typed_empty(ds.schema(), list(ds.schema().names))
            out["rk"] = pd.Series(dtype="int64")
            return out
        return rank_head(df)

    return exchange(pruned, group_cols, rank_head)


def grouped_rank_buckets(
    ds: rd.Dataset,
    group_cols: list[str],
    order_cols: list[str],
    *,
    n_buckets: int = 3,
    labels: list[str] | None = None,
    out_col: str = "bucket",
    method: str = "exact",
    group_row_threshold: int = 5_000_000,
    sketch_k: int = 4096,
) -> rd.Dataset:
    """Per-group rank-quantile bucket assignment: row bucket =
    ``n_buckets * rank // group_size`` with rank ordered by
    ``order_cols`` (the SQL ``(n * (row_number() OVER (...) - 1)) //
    count(*) OVER (...)`` window) — the CCNet head/middle/tail
    perplexity split (Wenzek et al. 2020, CCNet §3.3) when grouped by
    language and ordered by LM score.  ``order_cols`` must end in a
    unique tiebreaker (e.g. the id column) for a deterministic, total
    order.

    ``method``:
      * "exact" — one hash-shard exchange moves the full projection
        (no local prune: every row needs its global in-group rank);
        per-shard work is one vectorized sort + cumcount +
        transform("size").  Partitioning assumption: a GROUP fits one
        shard — at web-crawl skew the dominant language (~40-50% of a
        crawl) breaks this.
      * "sketch" — the scale route: per-group bucket-CUTOFF values from
        one mergeable quantile sketch pass
        (``ops.sketch.grouped_sketches``, k anchors/group), then a
        MAP-ONLY searchsorted assignment against the broadcast cutoff
        table ({n_groups × (n_buckets-1)} floats).  No group ever
        co-locates; one combiner-style exchange of k-anchor partials.
        Approximate at the bucket BOUNDARIES only: rank error O(n/k)
        rows per cutoff (exact while a group's count <= k), and rows
        with values EQUAL to a cutoff all land in the higher bucket
        (a value split cannot honor a rank tiebreaker).  Requires a
        numeric ``order_cols[0]`` and a single group column.
      * "auto" — probes per-group row counts with one partial-count map
        (driver reduces (group, n) partials, group-cardinality-sized);
        any group past ``group_row_threshold`` -> "sketch", else
        "exact"."""
    if labels is not None and len(labels) != n_buckets:
        raise ValueError("labels must have n_buckets entries")
    label_arr = np.asarray(labels, dtype=object) if labels is not None else None

    if method == "auto":
        def count_partial(b: pd.DataFrame) -> pd.DataFrame:
            out = b.groupby(group_cols, as_index=False).agg(__n=(order_cols[0], "size"))
            return out

        sizes = (
            ds.map_batches(count_partial, batch_format="pandas")
            .to_pandas()
            .groupby(group_cols, as_index=False)["__n"].sum()
        )
        biggest = int(sizes["__n"].max()) if len(sizes) else 0
        method = "sketch" if biggest > group_row_threshold else "exact"
        _log_route("grouped_rank_buckets", method, biggest_group=biggest)

    if method == "sketch":
        if len(group_cols) != 1:
            raise ValueError("sketch route supports a single group column")
        from .sketch import grouped_sketches, sketch_quantile

        key = group_cols[0]
        merged = grouped_sketches(ds, key, order_cols[0], k=sketch_k)
        cutoffs = {
            row[key]: np.asarray(
                [sketch_quantile(row["sk"], (i + 1) / n_buckets) for i in range(n_buckets - 1)],
                dtype=np.float64,
            )
            for _, row in merged.iterrows()
        }
        cut_ref = ray.put(cutoffs)

        def assign(b: pd.DataFrame) -> pd.DataFrame:
            cuts = cached_get(cut_ref)
            out = b.copy()
            idx = np.zeros(len(b), dtype=np.int64)
            vals = b[order_cols[0]].to_numpy(dtype=np.float64)
            for g, gidx in b.groupby(key).indices.items():
                idx[gidx] = np.searchsorted(cuts[g], vals[gidx], side="right")
            out[out_col] = label_arr[idx] if label_arr is not None else idx
            return out

        return ds.map_batches(assign, batch_format="pandas")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*group_cols, *order_cols], kind="mergesort")
        grp = g.groupby(group_cols, sort=False)
        rank = grp.cumcount().to_numpy(dtype=np.int64)
        size = grp[order_cols[0]].transform("size").to_numpy(dtype=np.int64)
        idx = (n_buckets * rank) // size
        g[out_col] = label_arr[idx] if label_arr is not None else idx
        return g.reset_index(drop=True)

    return exchange(ds, group_cols, per_shard)


def grouped_percentile_exact(
    ds: rd.Dataset,
    group_cols: list[str],
    value_col: str,
    qs: list[float],
    *,
    interpolation: str = "disc",
    q_col: str = "q",
) -> pd.DataFrame:
    """EXACT per-group percentiles.  ``interpolation="disc"`` returns
    for each quantile ``q`` the element at 1-based sorted position
    ``max(1, ceil(q * m))`` — the SQL ``quantile_disc`` convention,
    mirrorable exactly with a ROW_NUMBER window (``rn = GREATEST(1,
    CEIL(q * cnt))``).  ``interpolation="linear"`` returns the
    PERCENTILE_CONT / ``quantile_cont`` lerp — position ``q * (m - 1)``
    (0-based), ``v[lo] * (1 - frac) + frac * v[lo+1]`` — the identical
    IEEE sequence DuckDB executes (the two-products form, NOT the
    one-subtraction form, which differs by one ulp on some inputs),
    verified bit-exact.  Ties in the
    value need no tiebreaker: POSITIONS select values, and equal values
    at a boundary give the same answer under any tie order, so the
    result is deterministic by construction.

    Complement to `ops/sketch.grouped_quantile_sketch` (the bounded-
    error, fixed-memory route): exact answers need each group's rows
    co-located, so this is ONE bounded ``hash(group)``
    exchange with a vectorized sort + take per shard.  Same skew caveat
    as `grouped_rank_buckets`'s exact route — a dominant group lands in
    one shard; at corpus scale prefer the sketch."""
    if interpolation not in ("disc", "linear"):
        raise ValueError(f"interpolation must be 'disc' or 'linear', got {interpolation!r}")
    keep = list(dict.fromkeys([*group_cols, value_col]))
    qarr = np.asarray(qs, dtype="float64")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*group_cols, value_col], kind="mergesort")
        grp = g.groupby(group_cols, sort=False)
        rn = grp.cumcount().to_numpy()  # 0-based
        m = grp[value_col].transform("size").to_numpy(dtype="float64")
        outs = []
        for q in qarr:
            if interpolation == "disc":
                idx = np.maximum(1.0, np.ceil(q * m))
                sel = g[rn + 1 == idx].copy()
            else:
                pos = q * (m - 1.0)
                lo = np.floor(pos)
                # one row per group at lo and at min(lo+1, m-1); both
                # masks preserve group order, so positional alignment
                # between the two selections is exact
                sel = g[rn == lo].copy()
                hi = g.loc[
                    rn == np.minimum(lo + 1.0, m - 1.0), value_col
                ].to_numpy(dtype="float64")
                vlo = sel[value_col].to_numpy(dtype="float64")
                frac = (pos - lo)[rn == lo]
                sel[value_col] = vlo * (1.0 - frac) + frac * hi
            sel[q_col] = q
            outs.append(sel)
        return pd.concat(outs, ignore_index=True)

    out = exchange(
        ds.select_columns(keep), group_cols, per_shard
    ).to_pandas()  # result is |groups| x |qs| rows — dim-sized
    return out.sort_values(
        [*group_cols, q_col], kind="mergesort"
    ).reset_index(drop=True)[[*group_cols, q_col, value_col]]


def grouped_mode(
    ds: rd.Dataset,
    group_cols: list[str],
    value_col: str,
    *,
    count_col: str = "n",
    driver_threshold_rows: int = 2_000_000,
    finish: str = "auto",
) -> rd.Dataset | pd.DataFrame:
    """Most frequent value per group (the SQL ``mode()`` aggregate) with
    a DETERMINISTIC tie rule: among equal counts, the smallest value —
    mirrorable as ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY n DESC,
    v) = 1`` over the count table (plain SQL ``mode()`` leaves ties
    engine-defined, so the explicit rule is what makes the operator
    oracle-comparable).  Returns (group, value, n).

    Pure composition of the house reduces — nothing new to shuffle: a
    per-batch (group, value) count combiner finishes through
    `auto_group_agg` (0 exchanges below the probe threshold), then the
    argmax-per-group is `grouped_top_k(k=1)` on the counts (local prune
    caps its exchange at one row per (group, batch))."""
    keyc = [*group_cols, value_col]

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(keyc, as_index=False).agg(**{count_col: (value_col, "size")})

    counts = auto_group_agg(
        ds.map_batches(count_partial, batch_format="pandas"),
        keyc,
        {count_col: (count_col, "sum")},
        driver_threshold_rows=driver_threshold_rows,
    )
    if isinstance(counts, pd.DataFrame):
        # driver finish: the complete count table is already here — one
        # vectorized sort + head, no extra execution
        return (
            counts.sort_values(
                [*group_cols, count_col, value_col],
                ascending=[True] * len(group_cols) + [False, True],
            )
            .groupby(group_cols, sort=False)
            .head(1)
            .reset_index(drop=True)
        )
    out = grouped_top_k(
        counts, group_cols, count_col, 1,
        descending=True, tie_col=value_col, finish=finish,
        driver_threshold_rows=driver_threshold_rows,
    )
    if isinstance(out, pd.DataFrame):
        return out.drop(columns="rk").reset_index(drop=True)
    return out.drop_columns(["rk"])


def grouped_first_last(
    ds: rd.Dataset,
    group_cols: list[str],
    order_col: str,
    *,
    tie_col: str,
    carry_cols: list[str] | None = None,
    which_col: str = "which",
    finish: str = "auto",
    driver_threshold_rows: int = 2_000_000,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """FIRST_VALUE / LAST_VALUE per group in LONG form: for each group,
    the row with the minimal and the maximal ``(order_col, tie_col)``,
    tagged ``which in {'first', 'last'}`` — session entry/exit events,
    earliest/latest order per customer.  ``tie_col`` makes both
    orderings total (LAST = ``ORDER BY o DESC, tie ASC``), so the
    result is deterministic and mirrorable as two ROW_NUMBER CTEs
    UNION ALL.

    Pure composition: two `grouped_top_k(k=1)` passes over the same
    projection (each caps its exchange payload at one row per (group,
    batch) via the local prune); the long output needs no join between
    the two sides."""
    proj_cols = list(dict.fromkeys([*group_cols, order_col, tie_col, *(carry_cols or [])]))
    proj = ds.select_columns(proj_cols)
    sides = []
    for tag, desc in (("first", False), ("last", True)):
        side = grouped_top_k(
            proj, group_cols, order_col, 1,
            descending=desc, tie_col=tie_col, finish=finish,
            driver_threshold_rows=driver_threshold_rows,
        )
        if isinstance(side, pd.DataFrame):
            side = side.drop(columns="rk")
            side[which_col] = tag
            sides.append(rd.from_pandas(side) if as_dataset else side)
        else:
            side = side.drop_columns(["rk"]).map_batches(
                lambda b, t=tag: b.assign(**{which_col: t}), batch_format="pandas"
            )
            sides.append(side if as_dataset else side.to_pandas())
    if as_dataset:
        return sides[0].union(sides[1])
    out = pd.concat(sides, ignore_index=True)
    return out.sort_values(
        [*group_cols, which_col], kind="mergesort"
    ).reset_index(drop=True)


def paginate(ds: rd.Dataset, sort_key: str, *, page: int, page_size: int, descending: bool = False) -> pd.DataFrame:
    """Offset/limit page window (A5, lib/pagination.ts:6-16): sort, then
    slice [page*size, (page+1)*size) via limit on the sorted stream."""
    start = page * page_size
    sorted_ds = ds.sort(sort_key, descending=descending)
    head = sorted_ds.limit(start + page_size).to_pandas()
    return head.iloc[start:].reset_index(drop=True)


def distinct_sorted(ds: rd.Dataset, col: str) -> pd.DataFrame:
    """Distinct values of one column (A6): per-batch dedup prunes before the
    global unique."""
    def local(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({col: pc.unique(batch.column(col))})

    vals = sorted(ds.select_columns([col]).map_batches(local, batch_format="pyarrow").unique(col))
    return pd.DataFrame({col: vals})


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    key: str,
    ts: str,
    right_cols: list[str],
    suffix: str = "_r",
    direction: str = "backward",
    tolerance: "pd.Timedelta | None" = None,
) -> rd.Dataset:
    """As-of join: for each left row, the latest right row of the same key
    with right.ts <= left.ts (``direction="backward"``, the default) —
    or the earliest with right.ts >= left.ts (``"forward"``), or the
    closest either way (``"nearest"``, ties to backward like pandas).
    ``tolerance`` (a Timedelta) bounds the match distance; beyond it the
    row fills with the missing value, matching ``pd.merge_asof``.

    Exchange shape: ONE co-grouping shuffle on ``hash(key)`` (the
    reassemble_docs hash-shard pattern) — one vectorized per shard
    ``pd.merge_asof(..., by=key)`` call instead of one Python call per key
    (~1.6 ms/group table construction dominates at millions of keys).
    Ordering comes from the explicit in-shard sort, never arrival order.

    Schema is identical across shards and branches: right payload columns
    keep their own name unless they collide with a left column (then
    ``+ suffix``), and keys with no right rows fill with the dtype-correct
    missing value (NaN / NaT / None) under the SAME names."""
    lcols = left.schema().names
    rkeep = [key, ts] + [c for c in right_cols if c not in (key, ts)]
    extra = [c for c in rkeep if c not in (key, ts)]
    # output name per right payload column: suffix only on collision, in
    # both the merge_asof branch and the empty-right fill branch
    out_names = {c: (c + suffix if c in lcols else c) for c in extra}
    ltargets = _restore_targets(left.schema(), set(lcols))
    rtargets = _restore_targets(right.schema(), set(rkeep))
    # dtype-correct fill values for keys that have no right match
    rschema = right.schema()
    fills = {}
    for name, typ in zip(rschema.names, rschema.types):
        if name in extra:
            if not isinstance(typ, pa.DataType):
                fills[name] = None
            elif pa.types.is_timestamp(typ) or pa.types.is_date(typ):
                fills[name] = pd.NaT
            elif pa.types.is_floating(typ) or pa.types.is_integer(typ):
                fills[name] = np.nan
            else:
                fills[name] = None
    out_cols = lcols + [out_names[c] for c in extra]

    out_dtypes = {}
    lschema = left.schema()
    for name, typ in zip(lschema.names, lschema.types):
        if name in lcols:
            out_dtypes[name] = _pd_dtype(typ)
    for name, typ in zip(rschema.names, rschema.types):
        if name in extra:
            # fill dtype: ints become float64 (NaN-able), like merge_asof
            dt = _pd_dtype(typ)
            out_dtypes[out_names[name]] = "float64" if dt.startswith("int") else dt

    def _empty_out() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series(dtype=out_dtypes.get(c, "object")) for c in out_cols})

    n = shard_count()

    def tag(ds: rd.Dataset, side: str, cols: list[str]) -> rd.Dataset:
        def add(b: pd.DataFrame) -> pd.DataFrame:
            out = b[cols].copy()
            out["__side"] = side
            out[SHARD] = _hash_labels(out, [key], n).astype("int64")
            return out

        return ds.map_batches(add, batch_format="pandas")

    l = tag(left, "l", lcols)
    r = tag(right, "r", rkeep)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        # shards fed only one side's blocks arrive WITHOUT the other
        # side's columns (the union keeps per-block schemas) — treat a
        # missing column set as an empty side
        lmask = g["__side"] == "l"
        if not lmask.any() or any(c not in g.columns for c in lcols):
            # keys present only in the right dataset produce no output rows
            return _empty_out()
        lg = _restore_dtypes(g.loc[lmask, lcols].copy(), ltargets)
        lg = lg.sort_values(ts, kind="mergesort")
        rmask = g["__side"] == "r"
        if not rmask.any() or any(c not in g.columns for c in rkeep):
            for c in extra:
                lg[out_names[c]] = fills[c]
            return lg[out_cols]
        rg = _restore_dtypes(g.loc[rmask, rkeep].copy(), rtargets)
        rg = rg.rename(columns=out_names).sort_values(ts, kind="mergesort")
        merged = pd.merge_asof(
            lg, rg, on=ts, by=key, direction=direction, tolerance=tolerance
        )[out_cols]
        # cast right payloads to the declared out_dtypes: a shard where
        # every left row matched keeps int64 payloads while fill/miss
        # shards emit float64 — without this cast per-block schemas
        # diverge and Arrow consumers (write_parquet) fail
        for c in extra:
            oc = out_names[c]
            if str(merged[oc].dtype) != out_dtypes[oc]:
                merged[oc] = merged[oc].astype(out_dtypes[oc])
        return merged

    return exchange(l.union(r), None, per_shard)


def stratified_sample(
    ds: rd.Dataset,
    id_col: str,
    strata_col: str,
    fractions: dict[str, float],
    *,
    default_fraction: float = 0.0,
) -> rd.Dataset:
    """Deterministic per-stratum sampling: keep a row iff
    ``knuth_hash(id) < fraction(stratum) * 2^32`` — stable under any
    parallelism, re-run, or row order (no RNG state), and exactly
    SQL-mirrorable (pure integer arithmetic).  The training-data
    'downsample language X to y%' operation; the reference has no sampling
    operators (SURVEY §2.6), this is an extension."""
    KNUTH = 2654435761
    M = 1 << 32
    thr_map = {k: int(v * M) for k, v in fractions.items()}
    default_thr = int(default_fraction * M)

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        h = (b[id_col].astype("int64") * KNUTH) % M
        thresholds = b[strata_col].map(thr_map).fillna(default_thr)
        return b[h < thresholds]

    return ds.map_batches(pick, batch_format="pandas")


# --------------------------------------------------------------------------
# Sharded distributed group-aggregate (the scale-safe combiner finish)
# --------------------------------------------------------------------------
def sharded_group_agg(
    ds: rd.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
) -> rd.Dataset:
    """Distributed exact group-aggregate via the hash-shard exchange
    (stages/reassemble.py pattern): shuffle a bounded ``hash(keys)``
    label, then ONE vectorized pandas groupby per shard.

    ``aggs`` maps output alias -> (source column, pandas agg name).

    Why not ``Dataset.groupby().aggregate(Sum…)``: in this Ray version the
    built-in aggregate executes per GROUP in Python (~2.3 ms/group
    measured) — 95 k groups took 22 s where this exchange takes ~2 s.  The
    shard groupby is just as distributed (the driver never sees the
    partials; each shard holds |rows|/shards) and every shard reduce is
    one vectorized pandas call."""

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False).agg(
            **{alias: (src, how) for alias, (src, how) in aggs.items()}
        )

    return exchange(ds, keys, per_shard)


def auto_group_agg(
    ds: rd.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    driver_threshold_rows: int = 2_000_000,
    finish: str = "auto",
) -> rd.Dataset | pd.DataFrame:
    """Size-aware FINISH planner for partial aggregates — the ``auto_join``
    idea applied to reduces.  ``ds`` is a combined-partials table (one row
    per key per upstream batch); the finish must group all of a key's
    partials together.

    ``finish="auto"`` probes with ``limit(threshold+1)``: when the partial
    table fits, the probe already IS the complete partial set and ONE
    vectorized driver groupby finishes it — saving the ~1.3-2 s AllToAll
    floor an exchange costs at small scale (measured; see BASELINE.md).
    Above the threshold it plans ``sharded_group_agg`` — the distributed
    hash-shard exchange — so the scale path is never lost.  Returns a
    pandas DataFrame on the driver route and a Dataset on the exchange
    route (callers normalize); both routes colocate every partial of a
    key, so any agg spec valid for ``sharded_group_agg`` is valid here
    (equivalence-tested)."""
    if finish == "auto":
        head = probe_head(ds, driver_threshold_rows)
        if head is not None:
            finish, ds = "driver", head
            _log_route("auto_group_agg", "driver", partial_rows=int(len(head)))
        else:
            finish = "exchange"
            _log_route(
                "auto_group_agg", "exchange",
                reason=f"partials > {driver_threshold_rows} rows",
            )
    if finish == "driver":
        df = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
        if df.shape[1] == 0:
            # empty Dataset probes to a COLUMNLESS frame (probe_head
            # contract) — groupby would KeyError; return a named empty
            return pd.DataFrame({c: pd.Series(dtype="object") for c in [*keys, *aggs]})
        # per-alias series into ONE frame construction: pandas named agg
        # inserts result columns one by one, which emits a fragmented-
        # DataFrame PerformanceWarning on wide agg specs (the
        # bootstrap-CI path has 2*n_replicas aliases)
        gb = df.groupby(keys)
        out = pd.DataFrame({a: gb[src].agg(how) for a, (src, how) in aggs.items()})
        return out.reset_index()
    return sharded_group_agg(ds, keys, aggs)


# --------------------------------------------------------------------------
# Pre-aggregated groupby (combiner pattern)
# --------------------------------------------------------------------------
def rollup_agg(
    ds: rd.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    driver_threshold_rows: int = 2_000_000,
) -> pd.DataFrame:
    """``GROUP BY ROLLUP(k1, k2, …)``: every prefix grouping level plus
    the grand total, with rolled-up key columns emitted as NULL exactly
    like SQL.  Only MERGEABLE aggregates are accepted ("sum", "count",
    "min", "max") — that is what makes the rollup one pass:

    Scale shape: the input is scanned ONCE into per-batch combiner
    partials at the finest level; the finest level finishes through the
    size-aware planner (``auto_group_agg`` — driver groupby under the
    probe threshold, hash-shard exchange above), and each coarser level
    re-aggregates the PREVIOUS level's result (cardinality only shrinks
    going coarser, and mergeable aggs compose), so no level re-scans the
    input or the partials.  The returned table is one row per group per
    level — aggregate-sized by construction (the concat is driver-side
    because each level already passed its own size-aware finish; a
    corpus-cardinality finest level would need its own write, not a
    rollup display).

    Empty-input edge: returns ZERO rows (SQL's ROLLUP over an empty
    table still emits the one grand-total row with COUNT 0 — callers
    needing that row over possibly-empty inputs should synthesize it)."""
    if not keys:
        raise ValueError("rollup_agg needs at least one key")
    bad = {how for _, how in aggs.values()} - {"sum", "count", "min", "max"}
    if bad:
        raise ValueError(f"non-mergeable aggs not supported in rollup: {bad}")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(keys, as_index=False, dropna=False).agg(
            **{
                alias: (src, "size" if how == "count" else how)
                for alias, (src, how) in aggs.items()
            }
        )

    # merging partials: counts become sums, min/max stay themselves
    merge = {
        alias: (alias, "sum" if how in ("sum", "count") else how)
        for alias, (_, how) in aggs.items()
    }

    partials = ds.map_batches(partial, batch_format="pandas")
    levels: list[pd.DataFrame] = []
    cur = auto_group_agg(partials, keys, merge, driver_threshold_rows=driver_threshold_rows)
    for i in range(len(keys), -1, -1):
        lvl_keys = keys[:i]
        if i < len(keys):
            src = cur if isinstance(cur, rd.Dataset) else rd.from_pandas(cur)
            if lvl_keys:
                cur = auto_group_agg(
                    src, lvl_keys, merge,
                    driver_threshold_rows=driver_threshold_rows,
                )
            else:
                # grand total: one constant group (a single reduced row)
                withk = src.map_batches(
                    lambda b: b.assign(__all=0), batch_format="pandas"
                )
                cur = auto_group_agg(
                    withk, ["__all"], merge,
                    driver_threshold_rows=driver_threshold_rows,
                )
        out = cur.to_pandas() if isinstance(cur, rd.Dataset) else cur.copy()
        if "__all" in out.columns:
            out = out.drop(columns="__all")
        for k in keys[i:]:
            out[k] = None  # SQL ROLLUP's NULL for rolled-up columns
        levels.append(out[keys + list(aggs)])
    return pd.concat(levels, ignore_index=True)


def cube_agg(
    ds: rd.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    driver_threshold_rows: int = 2_000_000,
) -> pd.DataFrame:
    """``GROUP BY CUBE(k1, k2, …)``: every SUBSET of the keys (2^n
    grouping levels incl. the grand total), rolled-up columns NULL
    exactly like SQL.  Mergeable aggregates only, same reason as
    `rollup_agg`.

    Scale shape: the input is scanned ONCE into combiner partials at the
    finest level; the finest level finishes through the size-aware
    planner, and every coarser subset re-aggregates the FINEST level's
    result (mergeable aggs compose; subset cardinality only shrinks), so
    no level re-scans the input.  2^n stays small because a CUBE is a
    display/report shape — n is the handful of report dimensions, never
    a wide key list.  Empty input returns zero rows (same edge rule as
    `rollup_agg`)."""
    if not keys:
        raise ValueError("cube_agg needs at least one key")
    bad = {how for _, how in aggs.values()} - {"sum", "count", "min", "max"}
    if bad:
        raise ValueError(f"non-mergeable aggs not supported in cube: {bad}")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(keys, as_index=False, dropna=False).agg(
            **{
                alias: (src, "size" if how == "count" else how)
                for alias, (src, how) in aggs.items()
            }
        )

    merge = {
        alias: (alias, "sum" if how in ("sum", "count") else how)
        for alias, (_, how) in aggs.items()
    }
    finest = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"), keys, merge,
        driver_threshold_rows=driver_threshold_rows,
    )
    finest_df = finest.to_pandas() if isinstance(finest, rd.Dataset) else finest
    levels: list[pd.DataFrame] = []
    for mask in range(1 << len(keys)):
        sub = [k for i, k in enumerate(keys) if mask & (1 << i)]
        if len(sub) == len(keys):
            out = finest_df.copy()
        elif len(finest_df) == 0:
            continue
        elif sub:
            out = finest_df.groupby(sub, as_index=False, dropna=False).agg(
                **{a: (a, how) for a, (_, how) in merge.items()}
            )
        else:
            out = finest_df.agg(
                {a: how for a, (_, how) in merge.items()}
            ).to_frame().T
        for k in keys:
            if k not in sub:
                out[k] = None
        levels.append(out[keys + list(aggs)])
    return pd.concat(levels, ignore_index=True) if levels else finest_df


def grouping_sets_agg(
    ds: rd.Dataset,
    sets: list[list[str]],
    aggs: dict[str, tuple[str, str]],
    *,
    driver_threshold_rows: int = 2_000_000,
) -> pd.DataFrame:
    """``GROUP BY GROUPING SETS ((…), (…), …)``: the general form behind
    ROLLUP and CUBE — an arbitrary list of grouping-key subsets from ONE
    input scan, rolled-up key columns NULL exactly like SQL.  Mergeable
    aggregates only ("sum", "count", "min", "max"), same reason as
    `rollup_agg`: mergeability is what lets every requested set
    re-aggregate the FINEST level (the union of all set columns) instead
    of re-scanning the input.

    Scale shape: identical to `cube_agg` — one combiner pass at the
    finest level, the size-aware `auto_group_agg` finish, then one
    driver-side shrink per requested set (each set's cardinality is ≤
    the finest level's, which already passed its own size probe).
    Duplicate sets are emitted once per occurrence, matching SQL.  Empty
    input returns zero rows (`rollup_agg`'s edge rule)."""
    if not sets:
        raise ValueError("grouping_sets_agg needs at least one set")
    keys: list[str] = []
    for s in sets:
        for k in s:
            if k not in keys:
                keys.append(k)
    if not keys:
        raise ValueError("at least one set must name a column")
    bad = {how for _, how in aggs.values()} - {"sum", "count", "min", "max"}
    if bad:
        raise ValueError(f"non-mergeable aggs not supported in grouping sets: {bad}")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(keys, as_index=False, dropna=False).agg(
            **{
                alias: (src, "size" if how == "count" else how)
                for alias, (src, how) in aggs.items()
            }
        )

    merge = {
        alias: (alias, "sum" if how in ("sum", "count") else how)
        for alias, (_, how) in aggs.items()
    }
    finest = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"), keys, merge,
        driver_threshold_rows=driver_threshold_rows,
    )
    finest_df = finest.to_pandas() if isinstance(finest, rd.Dataset) else finest
    levels: list[pd.DataFrame] = []
    for sub in sets:
        if list(sub) == keys:
            out = finest_df.copy()
        elif len(finest_df) == 0:
            continue
        elif sub:
            out = finest_df.groupby(list(sub), as_index=False, dropna=False).agg(
                **{a: (a, how) for a, (_, how) in merge.items()}
            )
        else:
            out = finest_df.agg(
                {a: how for a, (_, how) in merge.items()}
            ).to_frame().T
        for k in keys:
            if k not in sub:
                out[k] = None
        levels.append(out[keys + list(aggs)])
    return (
        pd.concat(levels, ignore_index=True)
        if levels
        else finest_df.reindex(columns=keys + list(aggs))
    )


def grouped_string_agg(
    ds: rd.Dataset,
    group_cols: list[str],
    value_col: str,
    order_cols: list[str],
    *,
    sep: str = ",",
    out_col: str = "agg_v",
) -> rd.Dataset:
    """SQL's ordered ``string_agg(value, sep ORDER BY …)`` per group —
    the list/sequence-building aggregate (user event timelines, ordered
    citation lists).  ``order_cols`` must make the within-group order
    TOTAL (include a unique tiebreaker) or the concatenation is not
    deterministic.  NULL values are skipped (SQL string_agg semantics;
    a group holding ONLY nulls yields no row, where SQL yields NULL);
    NULL group keys form one group like SQL GROUP BY.

    Scale shape: the hash-shard exchange (`sharded_group_agg` pattern) —
    rows shuffle once by ``hash(group)``, then ONE vectorized
    sort + groupby-join per shard.  A group's output string is
    proportional to the group by semantics (it IS the concatenation), so
    the natural unit stays the shard, never the driver.  Non-string
    value columns are rendered via pandas ``astype(str)``."""
    gcols, ocols = list(group_cols), list(order_cols)
    need = list(dict.fromkeys([*gcols, *ocols, value_col]))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*gcols, *ocols], kind="mergesort")
        # SQL string_agg skips NULL VALUES (a group of only nulls gets
        # no row here vs SQL's NULL — documented divergence) but GROUP
        # BY keeps NULL KEYS as one group (dropna=False)
        g = g[g[value_col].notna()]
        g = g.assign(**{"__v": g[value_col].astype(str)})
        return g.groupby(gcols, as_index=False, dropna=False).agg(
            **{out_col: ("__v", sep.join)}
        )

    return exchange(ds.select_columns(need), gcols, per_shard)


def unpivot_columns(
    ds: rd.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    *,
    var_col: str = "measure",
    value_col: str = "val",
) -> rd.Dataset:
    """SQL ``UNPIVOT`` / ``melt``: widen-by-rows — one output row per
    (input row, value column), carrying ``id_cols`` plus the source
    column's NAME in ``var_col`` and its value in ``value_col``.  The
    inverse of `pivot_agg`'s layout.

    Scale shape: map-only (zero exchanges) — each batch melts
    independently with one vectorized ``pd.melt``; output row order
    within a batch is column-major (all of value_cols[0] first),
    deterministic.  Value columns must share a common dtype family (SQL
    UNPIVOT's requirement); pandas upcasts mixed numerics to float64."""
    idc, vc = list(id_cols), list(value_cols)

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        return pd.melt(
            b[idc + vc], id_vars=idc, value_vars=vc,
            var_name=var_col, value_name=value_col,
        )

    return ds.map_batches(melt, batch_format="pandas")


def explode_list_column(
    ds: rd.Dataset,
    list_col: str,
    id_cols: list[str],
    *,
    pos_col: str = "pos",
    out_col: str = "x",
) -> rd.Dataset:
    """SQL ``UNNEST`` with ordinality: one output row per list element,
    carrying ``id_cols``, the element's 1-based position and value —
    the long-form view of an embedding / token-list column.

    Scale shape: map-only, zero-copy Arrow — ``list_flatten`` +
    ``list_value_length`` kernels; repeats via one ``np.repeat`` per
    batch, positions via the flat arange-minus-starts identity (the
    `_shingle_hashes_batch` pattern) — no per-row Python.  Null/empty
    lists produce no rows (SQL UNNEST)."""
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        chunks = t.column(list_col).chunks
        # unwrap Ray's tensor extension (a pandas round-trip upstream
        # re-types fixed-length lists) back to its list storage
        chunks = [c.storage if isinstance(c, pa.ExtensionArray) else c for c in chunks]
        if chunks:
            col = pa.concat_arrays(chunks)
        else:
            col = pa.array([], pa.list_(pa.float64()))
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        lens = np.nan_to_num(lens, nan=0).astype("int64")  # null list -> 0
        flat = pc.list_flatten(col)
        idx = np.repeat(np.arange(len(t), dtype="int64"), lens)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = np.arange(int(lens.sum()), dtype="int64") - np.repeat(starts, lens) + 1
        cols = {c: t.column(c).take(pa.array(idx)) for c in id_cols}
        cols[pos_col] = pa.array(pos, pa.int64())
        cols[out_col] = flat
        return pa.table(cols)

    return ds.map_batches(explode, batch_format="pyarrow")


def pivot_agg(
    ds: rd.Dataset,
    index: str,
    pivot_col: str,
    value_col: str,
    how: str = "sum",
    *,
    values: list | None = None,
    fill_value=None,
    prefix: str = "",
) -> rd.Dataset:
    """Wide (pivoted) aggregate — ``SUM/COUNT(CASE WHEN pivot = v THEN …)``
    per index key, one output column per pivot value.  Mergeable aggs
    only ("sum"/"count"/"min"/"max"), same reason as `rollup_agg`.

    Scale shape: one in-batch combiner to (index, pivot, partial) rows,
    then ONE hash-shard exchange on the INDEX key and a vectorized
    per-shard reduce + pivot.  The pivot DOMAIN must be enum-bounded
    (that is what makes a wide layout sane); pass ``values`` to fix the
    column set statically — when omitted it is probed from a first pass
    over the combined partials (the partials table is materialized so
    the probe does not re-scan the input).  Index cardinality is
    unbounded: index keys stay sharded, the wide table never lands on
    the driver."""
    if how not in ("sum", "count", "min", "max"):
        raise ValueError(f"non-mergeable agg not supported in pivot: {how!r}")
    merge_how = "sum" if how in ("sum", "count") else how

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby([index, pivot_col], as_index=False).agg(
            __v=(value_col, "size" if how == "count" else how)
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    if values is None:
        partials = partials.materialize()  # consumed by probe + pivot
        dom = auto_group_agg(partials, [pivot_col], {"__v": ("__v", "sum")})
        if isinstance(dom, rd.Dataset):
            dom = dom.to_pandas()  # enum-bounded by the pivot contract
        values = sorted(dom[pivot_col].tolist())
    cols = [f"{prefix}{v}" for v in values]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        t = g.groupby([index, pivot_col], as_index=False)["__v"].agg(merge_how)
        t = t[t[pivot_col].isin(values)]
        w = t.pivot(index=index, columns=pivot_col, values="__v")
        w = w.reindex(columns=values)
        if fill_value is not None:
            w = w.fillna(fill_value)
        w.columns = cols
        return w.reset_index()

    return exchange(partials, index, per_shard)


def dataset_set_op(
    a: rd.Dataset,
    b: rd.Dataset,
    cols: list[str],
    op: str,
    *,
    bag: bool = False,
) -> rd.Dataset:
    """SQL ``INTERSECT`` / ``EXCEPT`` over arbitrary column tuples —
    distinct set semantics by default, ``bag=True`` for the ``ALL``
    (multiset) forms: intersect-all keeps min(count_a, count_b) copies
    of each tuple, except-all keeps max(count_a - count_b, 0).

    Both sides project to ``cols`` and collapse IN BATCH (the combiner
    — distinct mode dedupes, bag mode pre-counts), a side tag rides a
    single hash-shard exchange on the full tuple (both blocks carry the
    identical projected schema, so one-sided shards are safe), and each
    shard resolves presence with one vectorized indicator merge (counts
    merge + np.repeat in bag mode)."""
    if op not in ("intersect", "except"):
        raise ValueError(f"op must be 'intersect' or 'except', got {op!r}")
    n = shard_count()

    def prep(side: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            if bag:
                out = batch.groupby(cols, as_index=False, dropna=False).size().rename(
                    columns={"size": "__n"}
                )
                out["__n"] = out["__n"].astype("int64")
            else:
                out = batch[cols].drop_duplicates().copy()
                out["__n"] = np.int64(1)
            out["__side"] = np.int64(side)
            out[SHARD] = _hash_labels(out, cols, n).astype("int64")
            return out

        return f

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: NULL-keyed tuples are legal set members (the old
        # drop_duplicates+merge path matched NaN keys; groupby's default
        # dropna=True would silently lose them)
        l = g.loc[g["__side"] == 0].groupby(cols, as_index=False, dropna=False)["__n"].sum()
        r = g.loc[g["__side"] == 1].groupby(cols, as_index=False, dropna=False)["__n"].sum()
        if not bag:
            m = l[cols].merge(r[cols], on=cols, how="left", indicator=True)
            want = "both" if op == "intersect" else "left_only"
            return m.loc[m["_merge"] == want, cols]
        m = l.merge(r, on=cols, how="left", suffixes=("_a", "_b"))
        nb = m["__n_b"].fillna(0).astype("int64").to_numpy()
        na = m["__n_a"].to_numpy()
        reps = np.minimum(na, nb) if op == "intersect" else np.maximum(na - nb, 0)
        return m.loc[m.index.repeat(reps), cols].reset_index(drop=True)

    u = a.map_batches(prep(0), batch_format="pandas").union(
        b.map_batches(prep(1), batch_format="pandas")
    )
    return exchange(u, None, per_shard)


def pre_aggregate(
    ds: rd.Dataset,
    keys: list[str],
    partial_fn: Callable[[pd.DataFrame], pd.DataFrame],
    final_fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    batch_size: int = 65536,
) -> pd.DataFrame:
    """Two-phase aggregate: ``partial_fn`` runs per batch (emit one row per
    key per batch — the combiner), the tiny partials table is then grouped
    on the driver by ``final_fn``.  The shuffle payload is |keys| x
    |batches| rows instead of every input row.

    VALID ONLY for small-bounded key spaces (enum-like: priorities,
    sources, flags) where the partials genuinely fit a single reduce.
    For high-cardinality keys (orderkey, url, user) the driver finish is
    the scale bug — use ``sharded_group_agg`` instead (distributed reduce,
    same combiner input)."""
    partials = ds.map_batches(partial_fn, batch_format="pandas", batch_size=batch_size).to_pandas()
    return final_fn(partials)
