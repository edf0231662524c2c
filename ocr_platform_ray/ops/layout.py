"""Clustered data layout + zone-map pruned reads — the data-skipping
half of a lakehouse: write a table RANGE-CLUSTERED on a column (each
output file owns a value range) and record per-file min/max (the zone
map); a later range scan opens ONLY the files whose zone intersects the
predicate.  Parquet row-group statistics give the same idea inside one
file; this gives it ACROSS files, which is what matters when the table
is 100k files on object storage and the scan wants 0.3 % of them.

Scale shape:
- cutoffs come from ONE mergeable quantile-sketch reduce
  (`ops/sketch.py` — map-side partials, k-anchor summaries; the values
  never move), so the range buckets are balanced even under skew;
- the write is ONE range exchange (bucket label from broadcast cutoffs,
  `groupby(bucket)`), each bucket task sorts its slice and writes its
  own file — append-friendly and resumable per file;
- `pruned_read` is driver-side planning over the zone map (n_files
  rows) + `read_parquet` on the selected files with the residual
  predicate applied map-side, so results are EXACT regardless of how
  coarse the zones are.

Duplicate cutoffs under extreme skew collapse (a bucket can be empty —
no file written); correctness never depends on the cutoffs, only
balance does.  Multi-node: same shared-storage rule as
ops/incremental.py.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .exchange import exchange
from .sketch import grouped_sketches, sketch_quantile

_ZONEMAP = "zonemap.parquet"


def _cutoffs_from_sketch(ds: rd.Dataset, value_col: str, n_files: int, k: int) -> np.ndarray:
    tagged = ds.map_batches(
        lambda b: b[[value_col]].assign(__all=0), batch_format="pandas"
    )
    try:
        merged = grouped_sketches(tagged, "__all", value_col, k=k)
    except KeyError:
        # a fully-empty dataset reduces to a columnless frame inside the
        # sketch's final sort; empty cutoffs let the writer epilogue
        # raise its clear empty-input error
        return np.array([], dtype="float64")
    if len(merged) == 0:
        return np.array([], dtype="float64")
    sk = merged["sk"].iloc[0]
    qs = [sketch_quantile(sk, i / n_files) for i in range(1, n_files)]
    return np.unique(np.asarray(qs, dtype="float64"))


def _finish_zonemap(raw: pd.DataFrame, sort_col: str, out_dir: str, what: str) -> pd.DataFrame:
    """Shared writer epilogue: reject empty input with a clear error
    (zero rows reduce to a columnless frame whose sort would KeyError),
    sort, and atomically commit the zone map."""
    if len(raw) == 0 or sort_col not in raw.columns:
        raise ValueError(f"{what}: input dataset is empty; nothing to cluster")
    zonemap = raw.sort_values(sort_col).reset_index(drop=True)
    tmp = os.path.join(out_dir, _ZONEMAP + ".tmp")
    pq.write_table(pa.Table.from_pandas(zonemap, preserve_index=False), tmp)
    os.replace(tmp, os.path.join(out_dir, _ZONEMAP))
    return zonemap


def cluster_write(
    ds: rd.Dataset,
    value_col: str,
    out_dir: str,
    *,
    n_files: int = 32,
    sketch_k: int = 4096,
) -> pd.DataFrame:
    """Write ``ds`` range-clustered on ``value_col``: quantile-balanced
    value buckets, one sorted parquet file per non-empty bucket, and a
    ``zonemap.parquet`` manifest (file, vmin, vmax, n_rows).  Returns
    the zone map.  NaNs in ``value_col`` are rejected (a zone cannot
    bound them; filter or fill upstream)."""
    os.makedirs(out_dir, exist_ok=True)
    cutoffs = _cutoffs_from_sketch(ds, value_col, n_files, sketch_k)

    def bucket_of(b: pd.DataFrame) -> np.ndarray:
        v = b[value_col].to_numpy(dtype="float64")
        if np.isnan(v).any():
            raise ValueError(f"NaN in cluster column {value_col}")
        return np.searchsorted(cutoffs, v, side="right")

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        k = int(bucket_of(g.iloc[:1])[0])
        body = g.sort_values(value_col, kind="mergesort")
        fname = f"cluster_{k:05d}.parquet"
        tmp = os.path.join(out_dir, fname + ".tmp")
        pq.write_table(pa.Table.from_pandas(body, preserve_index=False), tmp)
        os.replace(tmp, os.path.join(out_dir, fname))
        v = body[value_col].to_numpy(dtype="float64")
        return pd.DataFrame(
            {
                "file": [fname],
                "vmin": [float(v[0])],
                "vmax": [float(v[-1])],
                "n_rows": [len(body)],
            }
        )

    raw = exchange(ds, bucket_of, write_bucket).to_pandas()
    return _finish_zonemap(raw, "vmin", out_dir, "cluster_write")


def plan_pruned_read(
    out_dir: str, lo: float | None, hi: float | None
) -> tuple[list[str], int]:
    """Zone-map planning: the files whose [vmin, vmax] intersects the
    CLOSED interval [lo, hi] (None = unbounded), plus the total file
    count — the evidence a scan can cite for its skipping ratio."""
    zm = pq.read_table(os.path.join(out_dir, _ZONEMAP)).to_pandas()
    keep = np.ones(len(zm), dtype=bool)
    if lo is not None:
        keep &= zm["vmax"].to_numpy() >= lo
    if hi is not None:
        keep &= zm["vmin"].to_numpy() <= hi
    files = [os.path.join(out_dir, f) for f in zm.loc[keep, "file"]]
    return files, len(zm)


def pruned_read(
    out_dir: str,
    value_col: str,
    *,
    lo: float | None = None,
    hi: float | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Exact range scan ``lo <= value_col <= hi`` over a `cluster_write`
    layout: zone-map file pruning + the residual predicate map-side, so
    the result equals a full-scan filter while opening only the
    intersecting files."""
    files, _ = plan_pruned_read(out_dir, lo, hi)
    if columns is not None and value_col not in columns:
        columns = [*columns, value_col]
    if not files:
        # typed-empty: zero-row dataset with the layout's schema
        zm = pq.read_table(os.path.join(out_dir, _ZONEMAP)).to_pandas()
        if len(zm) == 0:
            raise ValueError(f"empty clustered layout at {out_dir}")
        any_file = os.path.join(out_dir, zm["file"].iloc[0])
        # Ray drops empty blocks' schema on to_pandas — build the typed
        # empty from the layout's parquet schema instead
        schema = pq.read_schema(any_file)
        names = [n for n in schema.names if columns is None or n in columns]
        empty = schema.empty_table().select(names).to_pandas()
        return rd.from_pandas(empty)

    def residual(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value_col].to_numpy(dtype="float64")
        m = np.ones(len(b), dtype=bool)
        if lo is not None:
            m &= v >= lo
        if hi is not None:
            m &= v <= hi
        return b[m]

    return rd.read_parquet(files, columns=columns).map_batches(
        residual, batch_format="pandas"
    )


# --------------------------------------------------------------------------
# Z-order (Morton) multi-column clustering
# --------------------------------------------------------------------------
def _interleave16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Morton-interleave two uint16 rank arrays into uint32 z-values
    (bit i of a -> bit 2i, bit i of b -> bit 2i+1) — vectorized via the
    standard mask-shift spreading identity."""

    def spread(x: np.ndarray) -> np.ndarray:
        x = x.astype(np.uint32)
        x = (x | (x << np.uint32(8))) & np.uint32(0x00FF00FF)
        x = (x | (x << np.uint32(4))) & np.uint32(0x0F0F0F0F)
        x = (x | (x << np.uint32(2))) & np.uint32(0x33333333)
        x = (x | (x << np.uint32(1))) & np.uint32(0x55555555)
        return x

    return spread(a) | (spread(b) << np.uint32(1))


def zorder_write(
    ds: rd.Dataset,
    cols: list[str],
    out_dir: str,
    *,
    n_files: int = 32,
    sketch_k: int = 4096,
) -> pd.DataFrame:
    """Write ``ds`` Z-ORDER clustered on two columns (the lakehouse
    multi-dimension layout): each column quantile-normalizes to a
    16-bit rank through its own mergeable sketch, ranks Morton-
    interleave to a 32-bit z-value, and files own contiguous z-ranges —
    so a box predicate on EITHER column (or both) prunes files.  The
    zone map records per-file min/max of BOTH original columns.

    Scale shape: one sketch reduce per column (k-anchor partials, the
    `cluster_write` shape) + ONE range exchange on the z-value; z-range
    cutoffs are the uniform grid (quantile ranks make z near-uniform —
    imbalance affects only file sizes, never correctness).  NaNs are
    rejected like `cluster_write`."""
    if len(cols) != 2:
        raise ValueError(f"zorder_write clusters exactly 2 columns, got {cols}")
    os.makedirs(out_dir, exist_ok=True)
    # per-column rank cutoffs: 2^16 - 1 quantiles is overkill — k anchors
    # bound resolution anyway; use min(sketch_k, 4096) cutoff points and
    # scale the searchsorted rank up to 16 bits
    anchors: dict[str, np.ndarray] = {}
    for c in cols:
        cuts = _cutoffs_from_sketch(ds, c, min(sketch_k, 4096), sketch_k)
        anchors[c] = cuts

    def rank16(v: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        if cuts.size == 0:
            return np.zeros(len(v), dtype=np.uint16)
        r = np.searchsorted(cuts, v, side="right").astype(np.float64)
        return np.minimum(r * 65535.0 / cuts.size, 65535.0).astype(np.uint16)

    grid = np.arange(1, n_files, dtype=np.uint64) * (np.uint64(1) << np.uint64(32)) // np.uint64(n_files)

    def add_z(b: pd.DataFrame) -> pd.DataFrame:
        va = b[cols[0]].to_numpy(dtype="float64")
        vb = b[cols[1]].to_numpy(dtype="float64")
        if np.isnan(va).any() or np.isnan(vb).any():
            raise ValueError(f"NaN in z-order columns {cols}")
        z = _interleave16(rank16(va, anchors[cols[0]]), rank16(vb, anchors[cols[1]]))
        out = b.copy()
        out["__z"] = z.astype("int64")
        return out

    def z_bucket(b: pd.DataFrame) -> np.ndarray:
        return np.searchsorted(grid, b["__z"].to_numpy().astype(np.uint64), side="right")

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        k = int(z_bucket(g.iloc[:1])[0])
        body = g.sort_values("__z", kind="mergesort").drop(columns="__z")
        fname = f"zorder_{k:05d}.parquet"
        tmp = os.path.join(out_dir, fname + ".tmp")
        pq.write_table(pa.Table.from_pandas(body, preserve_index=False), tmp)
        os.replace(tmp, os.path.join(out_dir, fname))
        row = {"file": fname, "n_rows": len(body)}
        for c in cols:
            v = body[c].to_numpy(dtype="float64")
            row[f"min_{c}"], row[f"max_{c}"] = float(v.min()), float(v.max())
        return pd.DataFrame([row])

    raw = exchange(
        ds.map_batches(add_z, batch_format="pandas"), z_bucket, write_bucket
    ).to_pandas()
    return _finish_zonemap(raw, "file", out_dir, "zorder_write")


def zorder_pruned_read(
    out_dir: str,
    box: dict,
    *,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Exact box scan over a `zorder_write` layout: ``box`` maps column
    -> (lo, hi) (either bound None for unbounded); files whose zone
    intersects EVERY constraint are read, the residual predicate runs
    map-side — exact at any zone granularity."""
    files, total = zorder_plan(out_dir, box)
    need = list(box)
    if columns is not None:
        columns = list(dict.fromkeys([*columns, *need]))
    if not files:
        if total == 0:
            raise ValueError(f"empty z-order layout at {out_dir}")
        zm = pq.read_table(os.path.join(out_dir, _ZONEMAP)).to_pandas()
        schema = pq.read_schema(os.path.join(out_dir, zm["file"].iloc[0]))
        names = [n for n in schema.names if columns is None or n in columns]
        return rd.from_pandas(schema.empty_table().select(names).to_pandas())

    def residual(b: pd.DataFrame) -> pd.DataFrame:
        m = np.ones(len(b), dtype=bool)
        for c, (lo, hi) in box.items():
            v = b[c].to_numpy(dtype="float64")
            if lo is not None:
                m &= v >= lo
            if hi is not None:
                m &= v <= hi
        return b[m]

    return rd.read_parquet(files, columns=columns).map_batches(
        residual, batch_format="pandas"
    )


def zorder_plan(out_dir: str, box: dict) -> tuple[list[str], int]:
    """Planning evidence for `zorder_pruned_read`: (selected files,
    total files)."""
    zm = pq.read_table(os.path.join(out_dir, _ZONEMAP)).to_pandas()
    keep = np.ones(len(zm), dtype=bool)
    for c, (lo, hi) in box.items():
        if lo is not None:
            keep &= zm[f"max_{c}"].to_numpy() >= lo
        if hi is not None:
            keep &= zm[f"min_{c}"].to_numpy() <= hi
    return [os.path.join(out_dir, f) for f in zm.loc[keep, "file"]], len(zm)


# --------------------------------------------------------------------------
# String-key clustering (url-range layout + prefix-pruned scans)
# --------------------------------------------------------------------------
def _string_cutoffs(ds: rd.Dataset, col: str, n_files: int, sample_per_batch: int = 512) -> list[str]:
    """Range cutoffs for a STRING column via a deterministic uniform
    sample (the sketch only sums floats): each batch contributes its
    ``sample_per_batch`` smallest ``shuffle_hash(row_index-free content
    hash)`` rows — an order/block-independent uniform sample — and the
    driver takes quantiles of the bounded sample (≤ samples x
    n_batches, each a short string)."""
    from .shuffle import shuffle_hash

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vals = b[col].astype(str)
        h = pd.util.hash_array(vals.to_numpy()).astype("uint64")
        draw = shuffle_hash((h % np.uint64(1 << 32)).astype("int64"), 1)
        idx = np.argsort(draw, kind="stable")[:sample_per_batch]
        return pd.DataFrame({col: vals.to_numpy()[idx], "__d": draw[idx].astype("int64")})

    samp = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .sort_values("__d")
        .head(max(n_files * 256, 4096))  # globally-smallest draws = uniform
    )
    vals = sorted(samp[col].to_numpy())
    if not vals:
        return []
    cuts = [vals[(i * len(vals)) // n_files] for i in range(1, n_files)]
    return sorted(set(cuts))


def cluster_write_str(
    ds: rd.Dataset,
    value_col: str,
    out_dir: str,
    *,
    n_files: int = 32,
) -> pd.DataFrame:
    """`cluster_write` for STRING keys — the url-range layout: files own
    lexicographic key ranges (per-file min/max strings in the zone
    map), so a host/prefix scan opens only the files whose range
    intersects ``[prefix, prefix + chr(0x10FFFF))``.  Cutoffs come from
    a deterministic bounded uniform sample (no string arithmetic in a
    sketch); balance — and the exact file boundaries — depend on the
    sample (and hence block structure), scan EXACTNESS never does (the
    zone map records what was written, the residual runs map-side)."""
    os.makedirs(out_dir, exist_ok=True)
    cutoffs = _string_cutoffs(ds, value_col, n_files)
    cut_arr = np.array(cutoffs, dtype=object)

    def bucket_of(b: pd.DataFrame) -> np.ndarray:
        return np.searchsorted(cut_arr, b[value_col].astype(str).to_numpy(), side="right")

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        k = int(bucket_of(g.iloc[:1])[0])
        body = g.sort_values(value_col, kind="mergesort")
        fname = f"strcluster_{k:05d}.parquet"
        tmp = os.path.join(out_dir, fname + ".tmp")
        pq.write_table(pa.Table.from_pandas(body, preserve_index=False), tmp)
        os.replace(tmp, os.path.join(out_dir, fname))
        v = body[value_col].to_numpy()
        return pd.DataFrame(
            {"file": [fname], "vmin": [str(v[0])], "vmax": [str(v[-1])],
             "n_rows": [len(body)]}
        )

    raw = exchange(ds, bucket_of, write_bucket).to_pandas()
    return _finish_zonemap(raw, "vmin", out_dir, "cluster_write_str")


def prefix_pruned_read(
    out_dir: str,
    value_col: str,
    prefix: str,
    *,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Exact prefix scan (``value_col.startswith(prefix)``) over a
    `cluster_write_str` layout: zone pruning on the lexicographic range
    + a map-side startswith residual."""
    files, total = prefix_plan(out_dir, prefix)
    if columns is not None and value_col not in columns:
        columns = [*columns, value_col]
    if not files:
        if total == 0:
            raise ValueError(f"empty string-clustered layout at {out_dir}")
        zm = pq.read_table(os.path.join(out_dir, _ZONEMAP)).to_pandas()
        schema = pq.read_schema(os.path.join(out_dir, zm["file"].iloc[0]))
        names = [n for n in schema.names if columns is None or n in columns]
        return rd.from_pandas(schema.empty_table().select(names).to_pandas())

    def residual(b: pd.DataFrame) -> pd.DataFrame:
        return b[b[value_col].astype(str).str.startswith(prefix)]

    return rd.read_parquet(files, columns=columns).map_batches(
        residual, batch_format="pandas"
    )


def prefix_plan(out_dir: str, prefix: str) -> tuple[list[str], int]:
    """Planning evidence for `prefix_pruned_read`."""
    zm = pq.read_table(os.path.join(out_dir, _ZONEMAP)).to_pandas()
    hi = prefix + chr(0x10FFFF)
    keep = (zm["vmax"].to_numpy() >= prefix) & (zm["vmin"].to_numpy() <= hi)
    return [os.path.join(out_dir, f) for f in zm.loc[keep, "file"]], len(zm)


# --------------------------------------------------------------------------
# Zero-shuffle merge join over co-clustered layouts
# --------------------------------------------------------------------------
def clustered_join_plan(dir_left: str, dir_right: str) -> list[tuple[str, list[str]]]:
    """Pair each left file with the right files whose zone overlaps it —
    the join's entire 'exchange', computed driver-side from two
    n_files-row zone maps in O((L+R) log R): ranges are DISJOINT and
    vmin-sorted, so vmax is sorted too and each overlap set is one
    contiguous searchsorted slice (the iterrows-per-left-file form is
    O(L*R) — minutes at the module's own 100k-file motivation)."""
    zl = pq.read_table(os.path.join(dir_left, _ZONEMAP)).to_pandas()
    zr = (
        pq.read_table(os.path.join(dir_right, _ZONEMAP))
        .to_pandas()
        .sort_values("vmin")
        .reset_index(drop=True)
    )
    r_vmin = zr["vmin"].to_numpy(dtype="float64")
    r_vmax = zr["vmax"].to_numpy(dtype="float64")
    r_files = zr["file"].to_numpy()
    lo_idx = np.searchsorted(r_vmax, zl["vmin"].to_numpy(dtype="float64"), side="left")
    hi_idx = np.searchsorted(r_vmin, zl["vmax"].to_numpy(dtype="float64"), side="right")
    pairs = []
    for lf, a, b in zip(zl["file"], lo_idx, hi_idx):
        pairs.append(
            (
                os.path.join(dir_left, lf),
                [os.path.join(dir_right, f) for f in r_files[a:b]],
            )
        )
    return pairs


def clustered_merge_join(
    dir_left: str,
    dir_right: str,
    key_col: str,
    *,
    how: str = "inner",
    right_prefix: str = "r_",
) -> rd.Dataset:
    """Equi-join two `cluster_write` layouts CLUSTERED ON THE SAME KEY
    COLUMN with ZERO exchange — the storage-order join: each task owns
    one left file and reads only the right files whose zone overlaps it
    (planned driver-side from the two zone maps).  Correct because a
    key value lives in exactly ONE file per layout (range buckets are
    disjoint), so every (left row, right row) pair meets in exactly one
    task — the layouts' cutoffs need NOT match.

    ``how``: "inner" or "left".  Overlapping non-key right columns are
    renamed ``right_prefix + name`` (the `auto_join` collision rule).
    The complement to `ops/colocated.py`'s hash-layout join, for
    range-clustered storage."""
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how}")
    from .relational import _pd_dtype  # driver-side composition

    pairs = clustered_join_plan(dir_left, dir_right)
    if not pairs:
        raise ValueError("left layout is empty")
    # declared output schema (the asof_join rule): every block — incl.
    # left files with NO overlapping right file — carries the same
    # columns and dtypes, so downstream selects never hit a
    # missing-column block (the union-schema pitfall CLAUDE.md pins)
    lsch = pq.read_schema(pairs[0][0])
    zr = pq.read_table(os.path.join(dir_right, _ZONEMAP)).to_pandas()
    rsch = pq.read_schema(os.path.join(dir_right, zr["file"].iloc[0]))
    lcols = list(lsch.names)
    rename = {
        c: (right_prefix + c if c in lcols else c)
        for c in rsch.names
        if c != key_col
    }
    out_cols = lcols + [rename[c] for c in rsch.names if c != key_col]
    out_dtypes: dict[str, str] = {}
    for n, t in zip(lsch.names, lsch.types):
        out_dtypes[n] = _pd_dtype(t)
    for n, t in zip(rsch.names, rsch.types):
        if n != key_col:
            dt = _pd_dtype(t)
            # left-join misses fill NaN: integer right payloads become
            # float64 on EVERY block so per-block schemas agree
            out_dtypes[rename[n]] = (
                "float64" if how == "left" and dt.startswith("int") else dt
            )

    plan = pd.DataFrame(
        {
            "lf": [p[0] for p in pairs],
            "rfs": ["\x00".join(p[1]) for p in pairs],
        }
    )

    def _conform(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {c: pd.Series(dtype=out_dtypes[c]) for c in out_cols}
            )
        df = df.reindex(columns=out_cols)
        for c, dt in out_dtypes.items():
            if str(df[c].dtype) != dt:
                try:
                    df[c] = df[c].astype(dt)
                except (ValueError, TypeError):
                    # int target with NaN misses (how="left" keeps those
                    # declared float64, so this only guards exotic types)
                    pass
        return df

    def join_task(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lf, rfs in zip(b["lf"], b["rfs"]):
            lt = pq.read_table(lf).to_pandas()
            rlist = [f for f in rfs.split("\x00") if f]
            rt = (
                pd.concat(
                    [pq.read_table(f).to_pandas() for f in rlist],
                    ignore_index=True,
                )
                if rlist
                else None
            )
            if rt is None or len(rt) == 0:
                if how == "left":
                    outs.append(_conform(lt))
                continue
            rt = rt.rename(columns=rename)
            outs.append(_conform(lt.merge(rt, on=key_col, how=how, sort=False)))
        if not outs:
            return _conform(pd.DataFrame())
        return pd.concat(outs, ignore_index=True)

    return rd.from_pandas(plan).repartition(len(plan)).map_batches(
        join_task, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Small-file compaction
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# File-level Bloom indexes (equality-predicate pruning)
# ---------------------------------------------------------------------------
# The point-lookup sibling of the zone maps above: zone maps prune RANGE
# predicates on clustered layouts; a per-file Bloom bitmap prunes
# EQUALITY predicates on ANY layout (the Delta/Iceberg file-skipping
# index idea, built from the public Bloom construction the span-dedup
# stage already vendors).  One-sided: a file the bitmap rejects
# provably lacks the key; accepted files still run the exact filter, so
# lookups are exact at any false-positive rate.

def build_bloom_manifest(
    in_dir: str,
    key_col: str,
    *,
    m_bits_per_file: int = 1 << 17,
) -> pd.DataFrame:
    """One Bloom bitmap per parquet file over ``key_col`` (keys hashed
    with the house _sha64 so build and probe agree for any dtype).
    One Ray task per file reads ONLY the key column; the manifest
    (file, m_bits, bits) persists as ``bloom_<key_col>.parquet`` next to
    the data (atomic publish).  Returns the manifest frame."""
    from .dedup import _sha64
    from .spans import _bloom_indices

    files = sorted(
        f for f in os.listdir(in_dir)
        if f.endswith(".parquet") and not f.startswith(("zonemap", "bloom_"))
    )
    if not files:
        raise ValueError(f"build_bloom_manifest: no parquet files in {in_dir}")
    n_words = (max(m_bits_per_file, 64) + 63) // 64
    m_bits = n_words * 64

    def per_file(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for fname in b["file"]:
            keys = pq.read_table(
                os.path.join(in_dir, fname), columns=[key_col]
            ).column(key_col).to_pandas()
            bits = np.zeros(n_words, dtype=np.uint64)
            gh = _sha64(keys.to_numpy()).view(np.int64)
            for idx in _bloom_indices(gh, m_bits):
                np.bitwise_or.at(
                    bits,
                    (idx >> np.uint64(6)).astype(np.int64),
                    np.uint64(1) << (idx & np.uint64(63)),
                )
            rows.append({"file": fname, "m_bits": m_bits, "bits": bits.tobytes()})
        return pd.DataFrame(rows)

    manifest = (
        rd.from_items([{"file": f} for f in files])
        .map_batches(per_file, batch_size=8, batch_format="pandas")
        .to_pandas()
        .sort_values("file")
        .reset_index(drop=True)
    )
    out = os.path.join(in_dir, f"bloom_{key_col}.parquet")
    pq.write_table(pa.Table.from_pandas(manifest, preserve_index=False), out + ".tmp")
    os.replace(out + ".tmp", out)
    return manifest


def bloom_lookup_plan(in_dir: str, key_col: str, keys) -> tuple[list[str], int]:
    """Driver-side file pruning: (candidate files, total files).  A file
    is a candidate iff its bitmap accepts ANY probe key."""
    from .dedup import _sha64
    from .spans import _bloom_test

    man = pq.read_table(os.path.join(in_dir, f"bloom_{key_col}.parquet")).to_pandas()
    gh = _sha64(np.asarray(list(keys), dtype=object)).view(np.int64)
    cands = [
        fname
        for fname, raw in zip(man["file"], man["bits"])
        if bool(_bloom_test(np.frombuffer(raw, dtype=np.uint64), gh).any())
    ]
    return cands, len(man)


def bloom_pruned_lookup(
    in_dir: str, key_col: str, keys, *, columns: list[str] | None = None
) -> rd.Dataset:
    """Exact point lookup: open ONLY Bloom-accepted files, then the
    exact ``isin`` filter map-side (false positives resolve here, so the
    result is exact at any fp rate).  Zero-candidate plans return a
    typed-empty Dataset from the first file's schema."""
    cands, _ = bloom_lookup_plan(in_dir, key_col, keys)
    key_set = set(keys)
    if not cands:
        any_file = sorted(
            f for f in os.listdir(in_dir)
            if f.endswith(".parquet") and not f.startswith(("zonemap", "bloom_"))
        )[0]
        empty = pq.read_table(os.path.join(in_dir, any_file), columns=columns).slice(0, 0)
        return rd.from_arrow(empty)
    ds = rd.read_parquet(
        [os.path.join(in_dir, f) for f in cands], columns=columns
    )
    return ds.map_batches(
        lambda b: b[b[key_col].isin(key_set)], batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Hive-style partitioned layout — categorical data skipping
# ---------------------------------------------------------------------------
# The third member of the layout family: range zones (`cluster_write`) and
# Z-order boxes skip on ORDERED predicates; Hive partitioning
# (``col=value/`` directories, the layout Spark/Hive/Trino write and every
# lakehouse reads) skips on CATEGORICAL equality — a scan for one
# (event_type, day) opens exactly one directory out of thousands.  The
# write is MAP-ONLY (one file per (partition, input block), content-keyed
# like the JSONL sink — no exchange: at 100 TB the partition column is
# usually already the natural block key, and a shuffle would move every
# byte to save file count); the read is driver-side directory planning +
# `read_parquet` on the matching files with the partition columns restored
# from the path (they are not stored in the files, the Hive contract).

_HIVE_META = "_hive_meta.json"


def _hive_seg(col: str, v) -> str:
    from urllib.parse import quote

    return f"{col}={quote(str(v), safe='')}"


def hive_write(
    ds: rd.Dataset,
    partition_cols: list[str],
    out_dir: str,
    *,
    max_partitions_per_block: int = 4096,
) -> pd.DataFrame:
    """Write ``ds`` Hive-partitioned on ``partition_cols`` (int or string
    values; NULL partitions raise — the Hive ``__HIVE_DEFAULT_PARTITION__``
    convention is lossy).  One parquet file per (partition, input block),
    content-keyed + atomically published; the meta marker commits last, so
    readers never see a torn layout.  Stale files from a previous run are
    removed after publish (the JSONL sink's directory contract).  Returns
    the manifest (file, n_rows)."""
    import hashlib
    import json

    pcols = list(partition_cols)
    if not pcols:
        raise ValueError("hive_write: partition_cols must be non-empty")
    os.makedirs(out_dir, exist_ok=True)

    def write_block(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        if len(b) == 0:
            return pd.DataFrame({"file": pd.Series([], dtype=object),
                                 "n_rows": pd.Series([], dtype="int64")})
        for c in pcols:
            if b[c].isna().any():
                raise ValueError(f"hive_write: NULL in partition column {c!r}")
        n_parts = len(b[pcols].drop_duplicates())
        if n_parts > max_partitions_per_block:
            raise ValueError(
                f"hive_write: {n_parts} distinct partitions in one block "
                f"(> {max_partitions_per_block}) — a near-unique partition "
                "column explodes into per-row files; partition on a "
                "coarser key or use the range/z-order layouts"
            )
        for key, g in b.groupby(pcols, sort=True):
            key = key if isinstance(key, tuple) else (key,)
            segs = [_hive_seg(c, v) for c, v in zip(pcols, key)]
            body = g.drop(columns=pcols)
            d = os.path.join(out_dir, *segs)
            os.makedirs(d, exist_ok=True)
            buf = pa.BufferOutputStream()
            pq.write_table(pa.Table.from_pandas(body, preserve_index=False), buf)
            payload = buf.getvalue().to_pybytes()
            name = f"part-{hashlib.sha1(payload).hexdigest()[:16]}.parquet"
            path = os.path.join(d, name)
            tmp = path + f".tmp-{os.getpid()}"
            with open(tmp, "wb") as f:
                f.write(payload)
            os.replace(tmp, path)
            rows.append({"file": os.path.join(*segs, name), "n_rows": len(g)})
        return pd.DataFrame(rows)

    raw = ds.map_batches(write_block, batch_format="pandas").to_pandas()
    if len(raw) == 0 or "file" not in raw.columns:
        raise ValueError("hive_write: input dataset is empty")
    files = raw["file"].tolist()
    if len(files) != len(set(files)):
        raise ValueError(
            "hive_write: two byte-identical (partition, block) slices mapped "
            "to the same content-keyed file — repartition the input"
        )
    # dtype kinds for exact path->column restore
    sch = ds.schema()
    names, types = list(sch.names), list(sch.types)
    kinds = {}
    for c in pcols:
        t = str(types[names.index(c)])
        kinds[c] = "int" if t.startswith(("int", "uint")) else "str"
    keep = set(files)
    for root, _dirs, names in os.walk(out_dir):
        for n in names:
            if n.startswith("part-") and n.endswith(".parquet"):
                rel = os.path.relpath(os.path.join(root, n), out_dir)
                if rel not in keep:
                    os.unlink(os.path.join(root, n))
    meta = {"partition_cols": pcols, "kinds": kinds, "n_files": len(files)}
    tmp = os.path.join(out_dir, _HIVE_META + ".tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, _HIVE_META))
    return raw.sort_values("file").reset_index(drop=True)


def hive_plan(out_dir: str, filters: dict) -> tuple[list[str], int, dict]:
    """(matching relative files, total file count, meta).  ``filters``
    maps partition column -> value or list of values; unfiltered levels
    match everything."""
    import json
    from urllib.parse import unquote

    mp = os.path.join(out_dir, _HIVE_META)
    if not os.path.exists(mp):
        raise ValueError(f"hive_plan: no committed layout at {out_dir}")
    meta = json.load(open(mp))
    pcols = meta["partition_cols"]
    unknown = set(filters) - set(pcols)
    if unknown:
        raise ValueError(f"hive_plan: non-partition filter columns {sorted(unknown)}")
    want = {
        c: {str(v) for v in (vs if isinstance(vs, (list, tuple, set)) else [vs])}
        for c, vs in filters.items()
    }
    matches, total = [], 0
    for root, _dirs, names in os.walk(out_dir):
        for n in names:
            if not (n.startswith("part-") and n.endswith(".parquet")):
                continue
            total += 1
            rel = os.path.relpath(os.path.join(root, n), out_dir)
            segs = rel.split(os.sep)[:-1]
            vals = {}
            for s in segs:
                c, _, v = s.partition("=")
                vals[c] = unquote(v)
            if all(vals.get(c) in vs for c, vs in want.items()):
                matches.append(rel)
    return sorted(matches), total, meta


def hive_pruned_read(
    out_dir: str,
    filters: dict,
    *,
    columns: list[str] | None = None,
) -> tuple[rd.Dataset, int, int]:
    """Partition-pruned scan: open ONLY the ``col=value`` directories the
    equality filters select, restore the partition columns from the path
    (exact — the meta records int vs str).  Returns
    ``(dataset, files_opened, total_files)`` so callers can assert the
    skip ratio."""
    from urllib.parse import unquote

    files, total, meta = hive_plan(out_dir, filters)
    pcols = meta["partition_cols"]
    kinds = meta["kinds"]
    if not files:
        raise ValueError("hive_pruned_read: no partition matches the filters")
    out_cols = None if columns is None else [c for c in columns if c not in pcols]
    # one read per partition DIRECTORY (all its files share the values)
    by_part: dict[tuple, list[str]] = {}
    for rel in files:
        segs = tuple(rel.split(os.sep)[:-1])
        by_part.setdefault(segs, []).append(os.path.join(out_dir, rel))

    def attach(vals):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            for c, v in vals.items():
                if columns is None or c in columns:
                    b[c] = v
            return b

        return fn

    dss = []
    for segs, paths in sorted(by_part.items()):
        vals = {}
        for seg in segs:
            c, _, v = seg.partition("=")
            vals[c] = int(unquote(v)) if kinds.get(c) == "int" else unquote(v)
        dss.append(
            rd.read_parquet(sorted(paths), columns=out_cols).map_batches(
                attach(vals), batch_format="pandas"
            )
        )
    ds = dss[0]
    for other in dss[1:]:
        ds = ds.union(other)
    return ds, len(files), total
