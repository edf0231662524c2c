"""Training-data augmentation — deterministic T5 span corruption
(Raffel et al. 2020 §3.1.4), the seq2seq pretraining-data transform that
turns a curated corpus into (input, target) examples.

Determinism contract (the epoch-shuffle rule): every draw derives from
``pd.util.hash_array`` over salted ``(id, token position)`` integers — a
pure function of (corpus, seed), so the same example corrupts identically
under any parallelism, block structure, or rerun, and a different
``seed`` yields an independent epoch.  (NOT `shuffle_hash`: that mix is
AFFINE in the key, so two "lanes" differ by a constant shift and
conditioning on one biases the other.)

Scale shape: MAP-ONLY.  One Arrow whitespace tokenize per batch, ONE
flat hashed-uniform array over every token of the batch (no per-row
Python, no per-row RNG objects).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

_MOD64F = float(1 << 64)


def _lane(key: np.ndarray, seed: int, salt: int) -> np.ndarray:
    """Independent uniform [0,1) per key: nonlinear 64-bit hash over the
    salted key (lanes must not be affinely related — see module doc)."""
    salted = key + np.int64(seed) * np.int64(1 << 40) + np.int64(salt)
    return pd.util.hash_array(salted).astype("float64") / _MOD64F


def t5_span_corrupt(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    corrupt_rate: float = 0.15,
    mean_span_len: int = 3,
    max_span_len: int = 8,
    seed: int = 0,
    input_col: str = "corrupted_text",
    target_col: str = "target_text",
) -> rd.Dataset:
    """T5 span corruption: contiguous token spans
    (~``corrupt_rate`` of tokens, geometric lengths around
    ``mean_span_len``, clipped to ``max_span_len``) collapse to
    ``<extra_id_k>`` sentinels in the input; the target is the sentinel
    sequence with the dropped spans spelled out — interleaving the two
    recovers the original exactly (tested).

    Hashed uniform lanes over (id, pos) (module doc), span COVERAGE
    resolved with ``max_span_len`` shifted vector compares (no per-row
    Python), both texts rebuilt from one ordered flat array."""
    if not (0.0 < corrupt_rate < 1.0):
        raise ValueError("corrupt_rate must be in (0, 1)")
    if not (1 <= mean_span_len <= max_span_len):
        raise ValueError("need 1 <= mean_span_len <= max_span_len")

    p_start = corrupt_rate / mean_span_len

    def corrupt(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(dtype="int64")
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 29)):
            raise ValueError(f"{id_col} must be in [0, 2^29)")
        arr = pa.array(b[text_col].fillna(""), pa.string())
        toks = pc.split_pattern(pc.utf8_lower(arr), pattern=" ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        offs = toks.offsets.to_numpy().astype(np.int64)
        offs = offs - offs[0]
        counts = offs[1:] - offs[:-1]
        n_tok = int(counts.sum())
        row_idx = np.repeat(np.arange(len(b), dtype=np.int64), counts)
        pos = np.arange(n_tok, dtype=np.int64) - np.repeat(offs[:-1], counts)
        key = ids[row_idx] * (1 << 34) + pos
        nonempty = (
            pc.greater(pc.binary_length(flat), 0)
            .to_numpy(zero_copy_only=False)
        )
        is_start = (_lane(key, seed, 10) < p_start) & nonempty
        # geometric span length around the mean, clipped
        u_len = _lane(key, seed, 11)
        geom = 1 + np.floor(
            np.log(np.maximum(u_len, 1e-12))
            / np.log(1.0 - 1.0 / mean_span_len)
        ).astype(np.int64)
        span_len = np.minimum(np.maximum(geom, 1), max_span_len)
        # coverage via max_span_len shifted compares (within-doc only)
        covered = np.zeros(n_tok, dtype=bool)
        ends = np.where(is_start, pos + span_len, np.int64(-1))
        for d in range(max_span_len):
            if d >= n_tok:
                break
            sh_end = np.concatenate([np.full(d, -1, dtype=np.int64), ends[: n_tok - d]])
            sh_row = np.concatenate([np.full(d, -1, dtype=np.int64), row_idx[: n_tok - d]])
            covered |= (sh_row == row_idx) & (sh_end > pos)
        # a covered start that is INSIDE an earlier span does not open a
        # new sentinel — true span starts are covered positions whose
        # predecessor (same doc) is uncovered
        prev_cov = np.concatenate([[False], covered[:-1]])
        prev_row = np.concatenate([[-1], row_idx[:-1]])
        span_open = covered & (~prev_cov | (prev_row != row_idx))
        # sentinel ordinal per doc (padded cumsum avoids the empty-doc
        # offs == n_tok out-of-bounds index)
        open_in_doc = np.zeros(n_tok, dtype=np.int64)
        if n_tok:
            cpad = np.concatenate([[0], np.cumsum(span_open.astype(np.int64))])
            doc_base = np.repeat(cpad[offs[:-1]], counts)
            open_in_doc = cpad[1:] - doc_base - 1  # ordinal where span_open
        flat_np = np.asarray(flat.to_pylist(), dtype=object)
        n_sent = 100  # the T5 vocabulary ships 100 sentinels
        if span_open.any() and int(open_in_doc[span_open].max()) >= n_sent:
            raise ValueError(
                "t5_span_corrupt: a document opened more than "
                f"{n_sent} spans — chunk long documents first "
                "(sliding_token_windows / prepare_training_mix)"
            )
        sentinels = np.array(
            [f"<extra_id_{k}>" for k in range(n_sent)], dtype=object
        )
        sent_of = sentinels[np.clip(open_in_doc, 0, n_sent - 1)]
        # INPUT: uncovered tokens keep their text; span-open positions
        # carry the sentinel; other covered positions drop
        in_keep = ~covered | span_open
        in_text = np.where(span_open, sent_of, flat_np)
        kin = in_keep
        k_c = np.concatenate([[0], np.cumsum(kin.astype(np.int64))])
        in_offs = (k_c[offs[1:]] - k_c[offs[0:-1]])
        in_list = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(in_offs)]).astype("int32")),
            pa.array(in_text[kin], pa.string()),
        )
        inputs = pc.binary_join(in_list, " ")
        # TARGET: at span-open positions emit sentinel THEN the token —
        # two flat streams merged by a stable sort on (flat_idx, phase)
        tgt_keep = covered
        idx_tok = np.flatnonzero(tgt_keep)
        idx_sent = np.flatnonzero(span_open)
        merge_idx = np.concatenate([idx_sent, idx_tok])
        merge_phase = np.concatenate(
            [np.zeros(len(idx_sent), dtype=np.int64),
             np.ones(len(idx_tok), dtype=np.int64)]
        )
        merge_text = np.concatenate(
            [sent_of[idx_sent], flat_np[idx_tok]]
        ) if len(merge_idx) else np.empty(0, dtype=object)
        order = np.lexsort((merge_phase, merge_idx))
        m_idx = merge_idx[order]
        m_text = merge_text[order]
        m_row = row_idx[m_idx] if len(m_idx) else np.empty(0, dtype=np.int64)
        per_row_t = np.bincount(m_row, minlength=len(b)).astype("int64") \
            if len(m_row) else np.zeros(len(b), dtype="int64")
        t_list = pa.ListArray.from_arrays(
            pa.array(
                np.concatenate([[0], np.cumsum(per_row_t)]).astype("int32")
            ),
            pa.array(m_text, pa.string()),
        )
        targets = pc.binary_join(t_list, " ")
        out = b.copy()
        out[input_col] = inputs.to_pandas()
        out[target_col] = targets.to_pandas()
        return out

    return ds.map_batches(corrupt, batch_format="pandas")
