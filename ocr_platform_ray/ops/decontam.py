"""Benchmark decontamination: flag training documents that share any word
n-gram with an evaluation set (the Brown et al. 2020 / Lee et al. 2021
training-data hygiene step; the reference has no analogue — this is a
training-data extension like ops/dedup.py).

Both routes move only 64-bit gram hashes, never gram strings:

  broadcast (eval-set n-grams fit one machine — the common case: eval
      suites are MBs against a 100 TB corpus): distinct eval gram hashes
      are ``ray.put`` once, every train batch runs one vectorized
      ``np.isin`` + segmented count.  Map-only, zero shuffles.
  bucketed (eval side corpus-scale): explode BOTH sides to (id, gram-hash)
      rows, co-group by gram hash, in-bucket ``isin`` emits
      per-(doc, bucket) partial counts, then one hash-shard reduce by doc.
      Two exchanges, payload = the gram-hash projections.

``method="auto"`` probes the deduped eval gram table with
``limit(threshold+1)`` (the shared `probe_head` planner idiom).

Gram convention matches ops/dedup.py's oracled n-gram queries: split on
single spaces, documents shorter than ``n`` tokens contribute their whole
text as one gram, grams are per-document DISTINCT (so the reported count
is the number of distinct shared grams, exactly SQL's
``COUNT(DISTINCT g)``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .dedup import _shingle_hashes_batch
from .exchange import exchange
from .relational import (
    _pd_dtype,
    _restore_dtypes,
    _restore_targets,
    probe_head,
    sharded_group_agg,
)


def _gram_hash_rows(ds: rd.Dataset, id_col: str, text_col: str, n: int) -> rd.Dataset:
    """Explode to one row per (id, distinct gram hash), hashes as int64."""

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        hs = _shingle_hashes_batch(list(b[text_col]), n, "space")
        counts = np.fromiter((len(h) for h in hs), dtype="int64", count=len(hs))
        return pd.DataFrame(
            {
                id_col: np.repeat(b[id_col].to_numpy(), counts),
                "gh": (
                    np.concatenate(hs).view(np.int64)
                    if len(hs)
                    else np.empty(0, dtype=np.int64)
                ),
            }
        )

    return ds.map_batches(explode, batch_format="pandas")


def contamination_counts(
    train: rd.Dataset,
    eval_ds: rd.Dataset,
    *,
    id_col: str,
    text_col: str,
    n: int = 8,
    method: str = "auto",
    broadcast_threshold_rows: int = 2_000_000,
) -> rd.Dataset:
    """Per-train-document count of distinct word ``n``-grams shared with
    ``eval_ds``; documents with zero overlap are dropped.  Output:
    ``(id_col, n_shared_grams)``."""
    if method not in ("auto", "broadcast", "bucketed"):
        raise ValueError(f"unknown method {method!r}")

    def eval_gram_partials(b: pd.DataFrame) -> pd.DataFrame:
        hs = _shingle_hashes_batch(list(b[text_col]), n, "space")
        flat = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
        return pd.DataFrame({"gh": np.unique(flat).view(np.int64)})

    eval_grams = eval_ds.map_batches(eval_gram_partials, batch_format="pandas")

    head = None
    if method in ("auto", "broadcast"):
        head = probe_head(eval_grams, broadcast_threshold_rows)
        if head is None and method == "broadcast":
            raise ValueError("eval gram table exceeds broadcast_threshold_rows")

    if head is not None:
        eval_sorted = np.unique(
            head["gh"].to_numpy(dtype="int64") if head.shape[1] else np.empty(0, dtype="int64")
        )
        ref = ray.put(eval_sorted)

        def count_shared(b: pd.DataFrame) -> pd.DataFrame:
            ev = ray.get(ref)
            hs = _shingle_hashes_batch(list(b[text_col]), n, "space")
            counts = np.fromiter((len(h) for h in hs), dtype="int64", count=len(hs))
            flat = np.concatenate(hs).view(np.int64) if len(hs) else np.empty(0, dtype=np.int64)
            hit = np.isin(flat, ev).astype("int64")
            bounds = np.concatenate(([0], np.cumsum(counts)[:-1]))
            per_doc = (
                np.add.reduceat(hit, bounds)
                if len(hit)
                else np.empty(0, dtype="int64")
            )
            per_doc = np.where(counts > 0, per_doc, 0)
            keep = per_doc > 0
            return pd.DataFrame(
                {id_col: b[id_col].to_numpy()[keep], "n_shared_grams": per_doc[keep]}
            )

        return train.map_batches(count_shared, batch_format="pandas")

    # bucketed route: co-group train and eval gram hashes by gram hash.
    # The eval side carries NO id column — the union null-fills it in
    # mixed buckets (an int id upcasts to float there; restored below),
    # which keeps the route id-dtype-agnostic (string urls work too)
    t_rows = _gram_hash_rows(train, id_col, text_col, n).map_batches(
        lambda b: b.assign(__side="t"), batch_format="pandas"
    )
    e_rows = eval_grams.map_batches(
        lambda b: pd.DataFrame({"gh": b["gh"], "__side": "e"}),
        batch_format="pandas",
    )
    tschema = train.schema()
    ttargets = _restore_targets(tschema, {id_col})
    id_dtype = pd.Series(
        dtype=_pd_dtype(dict(zip(tschema.names, tschema.types))[id_col])
    ).dtype

    def _empty_partial() -> pd.DataFrame:
        return pd.DataFrame(
            {id_col: pd.Series(dtype=id_dtype), "c": pd.Series(dtype="int64")}
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # union keeps per-block schemas: a bucket fed only one side's
        # blocks may lack the other side's columns entirely
        side = g["__side"].to_numpy()
        ev = np.unique(g.loc[side == "e", "gh"].to_numpy(dtype="int64"))
        tr = g.loc[side == "t"] if id_col in g.columns else g.iloc[0:0]
        if not len(ev) or not len(tr):
            return _empty_partial()
        tr = _restore_dtypes(tr[[id_col, "gh"]].copy(), ttargets)
        hit = tr.loc[np.isin(tr["gh"].to_numpy(dtype="int64"), ev)]
        out = hit.groupby(id_col, as_index=False).agg(c=("gh", "size"))
        if str(out[id_col].dtype) != str(id_dtype):
            out[id_col] = out[id_col].astype(id_dtype)
        return out

    partials = exchange(t_rows.union(e_rows), "gh", per_bucket)
    reduced = sharded_group_agg(partials, [id_col], {"n_shared_grams": ("c", "sum")})
    return reduced.map_batches(
        lambda b: b[b["n_shared_grams"] > 0], batch_format="pandas"
    )
