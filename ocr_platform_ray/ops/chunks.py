"""Ordered grouped text assembly — the final step of training-data
layout: after ``epoch_shuffle`` fixes a reproducible global order and
``pack_sequences`` assigns every document to a fixed-size context, this
operator materializes each context's actual text (documents joined in
order with a separator) — the concatenate-then-split packing layout of
GPT-style pretraining (the "write packed examples" step).

Distributed shape: groups are high-cardinality (one per training
context), so this is the hash-shard exchange (``ops/exchange.py`` — the
same ONE primitive every group-map uses): all rows of a group colocate in one shard, each shard does ONE vectorized stable sort
by (group, order) and a per-group join whose cost is the output bytes
(string assembly is O(bytes) however it is expressed).  Payload is
(group, order, text) — the text moves exactly once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .exchange import exchange


def grouped_ordered_concat(
    ds: rd.Dataset,
    *,
    group_col: str,
    order_col: str,
    text_col: str,
    sep: str = "\n",
    out_col: str = "chunk_text",
    offsets_col: str | None = None,
) -> rd.Dataset:
    """Per group: items sorted by ``order_col`` and joined with ``sep``.
    Output: ``(group_col, n_items, out_col)``.  ``order_col`` must be
    unique within a group (packing positions are).  ``offsets_col``
    additionally emits each item's CHARACTER start offset inside the
    joined text (int64 list) — the document-boundary record attention /
    loss masking needs downstream of packing."""

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, order_col], kind="stable")
        aggs = dict(n_items=(text_col, "size"), **{out_col: (text_col, sep.join)})
        if offsets_col is not None:
            sl = len(sep)

            def offs(texts) -> np.ndarray:
                lens = np.fromiter(
                    (len(t) for t in texts), dtype="int64", count=len(texts)
                )
                return np.concatenate(
                    [[0], np.cumsum(lens[:-1] + sl)]
                ).astype("int64")

            aggs[offsets_col] = (text_col, offs)
        return g.groupby(group_col, as_index=False).agg(**aggs)

    return exchange(
        ds.select_columns([group_col, order_col, text_col]),
        group_col,
        per_shard,
    )


def sliding_token_windows(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    size: int,
    stride: int,
) -> rd.Dataset:
    """Overlapping token-window chunking — the long-document treatment
    for training/eval when truncation loses content (the HF
    ``return_overflowing_tokens`` stride pattern): each document emits
    windows of ``size`` whitespace tokens starting every ``stride``
    tokens (``(id, win_idx, win_text, n_tokens)``; the tail window is
    shorter; zero-token docs emit nothing).

    MAP-ONLY flat_map shape: no exchange — window construction is
    output-sized by definition (each output window's text must be
    assembled), so the per-window join IS the floor; tokenization is
    one split per row.  Output rows carry window provenance so a
    downstream dedup/score can map back to (doc, offset)."""
    if size < 1 or stride < 1:
        raise ValueError("size and stride must be >= 1")

    def windows(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, texts, ntoks = [], [], [], []
        tok_lists = b[text_col].fillna("").astype(str).str.split()
        for rid, toks in zip(b[id_col], tok_lists):
            n = len(toks)
            for w, start in enumerate(range(0, n, stride)):
                win = toks[start : start + size]
                ids.append(rid)
                idxs.append(w)
                texts.append(" ".join(win))
                ntoks.append(len(win))
        return pd.DataFrame(
            {
                id_col: pd.Series(ids, dtype=b[id_col].dtype if len(ids) else object),
                "win_idx": pd.Series(idxs, dtype="int64"),
                "win_text": pd.Series(texts, dtype=object),
                "n_tokens": pd.Series(ntoks, dtype="int64"),
            }
        )

    return ds.map_batches(windows, batch_format="pandas")
