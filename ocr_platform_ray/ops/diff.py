"""Snapshot diff / change-data-capture between two corpus versions.

The recurring crawl question — "what changed between snapshot N and
snapshot N+1?" (new pages, vanished pages, re-crawled pages whose content
moved) — answered as one bucketed-exchange job.  The reference's analogue
is its version-merge screen (``apps/web/src/components/book-version-merge``,
merge-with-previous semantics in ``pipelines/catalog.py::merge_with_previous``);
this is the corpus-scale batch form, and the input side of the incremental
dedup / index-maintenance machinery (``ops/incremental.py``,
``ops/search.py::bm25_index_new_partitions``): feed `added`+`changed` rows
to an incremental ingest and `removed` keys to a delete merge.

Scale shape
-----------
* MAP-SIDE PROJECTION: each side collapses to ``(key, content-hash)``
  before the exchange — payload columns (text, html) never move.  The
  hash is the house ``_sha64`` (vectorized siphash — one flat call per
  batch, the ``_shingle_hashes_batch`` rule).
* ONE full-outer bucketed hash join on the key (the only all-to-all);
  status classification is vectorized per bucket.
* ``include_unchanged=False`` (default) drops the dominant unchanged
  class inside the join task, so output size tracks the churn rate, not
  the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .dedup import _sha64
from .relational import bucketed_hash_join

CHANGE_ADDED = "added"
CHANGE_REMOVED = "removed"
CHANGE_CHANGED = "changed"
CHANGE_UNCHANGED = "unchanged"


def _hash_projection(ds: rd.Dataset, key_col: str, compare_cols: list[str], out: str) -> rd.Dataset:
    def proj(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {key_col: b[key_col], out: pd.Series([], dtype=object)}
            )
        # one flat hash over the concatenated compare columns (US-separated
        # so ("ab","c") never collides with ("a","bc")).  Carried as a hex
        # STRING: an outer join null-fills unmatched rows, and int64 would
        # round-trip through float64 (52-bit mantissa) on those batches.
        joined = b[compare_cols[0]].astype(str)
        for c in compare_cols[1:]:
            joined = joined + "\x1f" + b[c].astype(str)
        h = np.char.mod("%016x", _sha64(joined.to_numpy()))
        return pd.DataFrame({key_col: b[key_col], out: h})

    return ds.map_batches(proj, batch_format="pandas")


def snapshot_diff(
    old: rd.Dataset,
    new: rd.Dataset,
    key_col: str,
    compare_cols: list[str] | str,
    *,
    include_unchanged: bool = False,
) -> rd.Dataset:
    """Diff two snapshots keyed by ``key_col``: rows ``(key_col, change)``
    with change in {added, removed, changed[, unchanged]}.

    ``compare_cols`` define row identity for the changed/unchanged split;
    equality is via the 64-bit vectorized content hash (the exact_dedup
    contract — deterministic across processes, collision odds ~2^-64).
    Keys must be unique per snapshot; duplicate detection is
    BEST-EFFORT (per classify batch — a bucket's join output can be
    re-batched, so duplicates straddling a batch boundary emit multiple
    diff rows for that key instead of raising)."""
    if isinstance(compare_cols, str):
        compare_cols = [compare_cols]
    o = _hash_projection(old, key_col, compare_cols, "__h_old")
    n = _hash_projection(new, key_col, compare_cols, "__h_new")
    joined = bucketed_hash_join(o, n, key_col, how="outer")

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {key_col: b[key_col], "change": pd.Series([], dtype=object)}
            )
        dup = b[key_col].duplicated()
        if dup.any():
            raise ValueError(
                f"snapshot_diff: duplicate {key_col} within a snapshot "
                f"(e.g. {b.loc[dup, key_col].iloc[0]!r}); diff keys must be unique"
            )
        ho, hn = b["__h_old"], b["__h_new"]
        change = np.where(
            ho.isna(),
            CHANGE_ADDED,
            np.where(
                hn.isna(),
                CHANGE_REMOVED,
                np.where(ho.eq(hn), CHANGE_UNCHANGED, CHANGE_CHANGED),
            ),
        )
        out = pd.DataFrame({key_col: b[key_col], "change": change})
        if not include_unchanged:
            out = out[out["change"] != CHANGE_UNCHANGED]
        return out

    return joined.map_batches(classify, batch_format="pandas")
