"""Ingest jobs: page-count probes and the url-hash repartition that
establishes the partitioned layout invariant.

Reference parity (SURVEY.md §2.1):
  S2  page-count probe (ocr.ts:35-38)   -> ``page_count_probe``: metadata
      aggregate (groupby(url).count with in-batch combiner).
  S7  row sink (page/worker.ts:68-97)   -> ``partition_pages_by_url``:
      write-once url-hash-partitioned shards.

``partition_pages_by_url`` is the north rule's "explicit repartitioning by
url hash": ONE all-to-all exchange that lays arbitrary input out so every
url's pages are colocated in exactly one shard.  After it, the shuffle-free
extraction path (reassemble_docs_partitioned) and partition-granular
resume/redo apply to any corpus, and every later stage reuses the same
partitioning key (SURVEY.md §4 "pick ONE partitioning key").
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import ray.data as rd

# module-top so pickle-by-value captures it for worker closures
from ..ops.exchange import _hash_labels, exchange


def page_count_probe(pages: rd.Dataset) -> pd.DataFrame:
    """S2/A3: pages per url, pre-aggregated in-batch so the shuffle moves
    one partial row per (url, batch) — also the completeness check (M18)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("url", as_index=False).agg(n_pages=("url", "size"))

    partials = pages.map_batches(partial, batch_format="pandas").to_pandas()
    out = partials.groupby("url", as_index=False).agg(n_pages=("n_pages", "sum"))
    return out.sort_values("url").reset_index(drop=True)


def read_dim_pandas(
    path: str, columns: list[str] | None = None, *, max_rows: int = 2_000_000
) -> pd.DataFrame | None:
    """Read a DIMENSION table straight to pandas when the parquet footer
    proves it small — zero Ray executions (vs one probe execution per
    consuming join).  Returns None above ``max_rows``: the caller falls
    back to its Dataset plan, so the scale path is never lost.  Only for
    dim-sided plans (T2/J5 broadcast rule); fact tables always stream."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(path)
    if f.metadata.num_rows > max_rows:
        return None
    return f.read(columns=columns).to_pandas()


def parquet_column_bounds(path: str, column: str):
    """Exact (min, max) of a parquet column from ROW-GROUP STATISTICS —
    O(row_groups) driver-side metadata reads, zero Ray executions and zero
    data pages touched.  The catalog-metadata source for operators that
    take a ``bounds=`` hint (interval_join, range partitioners): at corpus
    scale a dedicated min/max scan re-executes the reader lineage, while
    the footer already carries the answer.  Returns None when any row
    group lacks statistics for the column (caller falls back to a scan)."""
    import pyarrow.parquet as pq

    meta = pq.ParquetFile(path).metadata
    idx = {meta.schema.column(i).path: i for i in range(meta.num_columns)}
    if column not in idx:
        return None
    lo = hi = None
    for rg in range(meta.num_row_groups):
        st = meta.row_group(rg).column(idx[column]).statistics
        if st is None or not st.has_min_max:
            return None
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return None if lo is None else (lo, hi)


def partition_pages_by_url(
    pages: rd.Dataset,
    out_dir: str,
    *,
    n_shards: int = 64,
) -> list[str]:
    """The ONE ingest shuffle: hash(url) % n_shards -> one parquet shard per
    bucket, written atomically.  Guarantees every url's pages live in
    exactly one shard file, so downstream extraction runs shuffle-free and
    resume/redo operate at shard granularity.

    Skew note: a single url bigger than a worker's heap needs
    stages.skew.explode_oversized BEFORE this (its chunks share the url and
    still colocate); hot-url salting is not needed because the invariant is
    per-url locality, not shard balance — imbalance only costs shard-size
    variance, bounded by max-url-size."""
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        sid = int(_hash_labels(g.iloc[:1], ["url"], n_shards)[0])
        g = g.sort_values(["url", "warc_ts"])
        path = os.path.join(out_dir, f"pages-{sid:05d}.parquet")
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False), path + ".tmp")
        os.replace(path + ".tmp", path)
        return pd.DataFrame({"path": [path], "rows": [len(g)]})

    manifest = exchange(pages, "url", write_shard, n_shards=n_shards).to_pandas()
    return sorted(manifest["path"])


def _footer_stats_record(meta, columns: list[str]) -> dict:
    """One file's footer scan (pure function of the metadata object —
    unit-testable without parquet fixtures): {"n_rows", "ok", per-column
    min/max/nulls}.  ok=False on any stats gap: missing column,
    possibly-truncated string stats, absent min/max, or a writer that
    omitted null counts (legal per the spec) — the caller's contract is
    exact-or-None."""
    idx = {meta.schema.column(i).path: i for i in range(meta.num_columns)}
    rec: dict = {"n_rows": meta.num_rows, "ok": True}
    for c in columns:
        if c not in idx:
            rec["ok"] = False
            break
        phys = meta.schema.column(idx[c]).physical_type
        if phys == "BYTE_ARRAY" and "DECIMAL" not in str(
            meta.schema.column(idx[c]).logical_type
        ):
            rec["ok"] = False  # possibly-truncated string stats
            break
        lo = hi = None
        nulls = 0
        for rg in range(meta.num_row_groups):
            st = meta.row_group(rg).column(idx[c]).statistics
            if st is None or not st.has_min_max or st.null_count is None:
                lo = None
                break
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
            nulls += st.null_count
        if lo is None:
            rec["ok"] = False
            break
        rec[f"{c}_min"], rec[f"{c}_max"], rec[f"{c}_nulls"] = lo, hi, nulls
    return rec


def parquet_stats_agg(
    path: str | list[str], columns: list[str]
) -> pd.DataFrame | None:
    """COUNT / per-column MIN / MAX / null count answered from parquet
    FOOTERS ONLY — zero data pages read, the aggregate-pushdown
    optimization every lakehouse scan planner applies.  One Ray task per
    file batch reads metadata; the driver merges file-count-sized
    partials.  Returns one row (n_rows, {col}_min, {col}_max,
    {col}_nulls per column), or None when any row group lacks
    statistics for a requested column (caller falls back to a real
    scan).  String stats are REFUSED (footers may store truncated
    min/max for long strings — correct only for numeric / temporal /
    boolean columns)."""
    import pyarrow.parquet as pq_
    import ray.data as rd_

    if isinstance(path, str):
        if os.path.isdir(path):
            paths = sorted(
                os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
            )
        else:
            paths = [path]
    else:
        paths = list(path)
    if not paths:
        raise ValueError("parquet_stats_agg: no input files")

    def footer_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            [
                _footer_stats_record(pq_.ParquetFile(p).metadata, columns)
                for p in b["path"]
            ]
        )

    parts = (
        rd_.from_items([{"path": p} for p in paths])
        .map_batches(footer_partial, batch_size=64, batch_format="pandas")
        .to_pandas()
    )
    if not bool(parts["ok"].all()):
        return None
    out = {"n_rows": int(parts["n_rows"].sum())}
    for c in columns:
        out[f"{c}_min"] = parts[f"{c}_min"].min()
        out[f"{c}_max"] = parts[f"{c}_max"].max()
        out[f"{c}_nulls"] = int(parts[f"{c}_nulls"].sum())
    return pd.DataFrame([out])
