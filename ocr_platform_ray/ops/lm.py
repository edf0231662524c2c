"""N-gram language-model perplexity scoring — the CCNet-style quality
signal (Wenzek et al. 2020: filter/partition web text by the perplexity
of a small LM trained on trusted data; also the Gopher/Dolma "LM score"
column).  The reference has no analogue; this is one of the
beyond-reference training-data operators.

The model is an add-alpha-smoothed word-BIGRAM LM — deliberately tiny
and deterministic (no external model files, sandbox-safe) but with the
exact distributed shape of the real thing:

  TRAIN (over a trusted corpus):
    bigram counts  c(w1 w2)  and unigram counts  c(w)  — in-batch
    combiner then the size-aware ``auto_group_agg`` finish; vocab size V
    is the unigram table's row count.
  SCORE (over the target corpus):
    each doc explodes to (doc_id, bigram) rows; two ``auto_join`` probes
    against the count tables (broadcast at dim scale, bucketed exchange
    at corpus scale — the planner decides); then
      nll(w1 w2) = -ln( (c(w1 w2) + a) / (c(w1) + a*V) )
    averaged per doc through ``auto_group_agg``.

Tokenization is Unicode-whitespace split + lowercase, one Arrow kernel
per batch (``utf8_split_whitespace`` / ``utf8_lower``) — identical to
Python ``text.lower().split()`` on this corpus and mirrored in SQL by
``list_filter(regexp_split_to_array(lower(text), '\\s+'), ...)``.
Tokens cannot contain whitespace, so the space-joined string ``w1 || ' '
|| w2`` is an unambiguous single-column bigram key (keeps the joins on
one key and the SQL mirror trivial).

Docs with fewer than two tokens have no bigrams and are absent from the
output (the SQL mirror's inner derivation drops them identically).

Scale notes: everything flows through the size-aware planners, so no
route holds corpus-scale state on the driver; the bigram explode is the
big intermediate (~n_tokens rows/doc) but it is map-local on both sides
of the joins.  Float caveat: avg(ln ...) is order-sensitive in IEEE
arithmetic, so the oracle comparison uses relative tolerance, not the
integer-exact hash gate (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .relational import auto_group_agg, auto_join


def _clean_tokens(texts) -> tuple[pa.Array, np.ndarray]:
    """lower + whitespace-split + drop-empty (Arrow's split kernel emits
    empty strings at leading/trailing whitespace where Python's
    ``str.split()`` does not).  Returns (flat non-empty tokens, per-row
    token counts) — all C-level kernels + cumsum arithmetic."""
    toks = pc.utf8_split_whitespace(pc.utf8_lower(pa.array(texts, pa.string())))
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype("int64")
    flat = toks.flatten()
    keep = pc.greater(pc.binary_length(flat), 0)
    keep_np = keep.to_numpy(zero_copy_only=False).astype("int64")
    prefix = np.concatenate(([0], np.cumsum(keep_np)))
    lens = prefix[offs[1:]] - prefix[offs[:-1]]
    return flat.filter(keep), lens


def _bigrams_from_flat(flat: pa.Array, lens: np.ndarray):
    """(flat tokens, per-row counts) -> (w1, 'w1 w2', per-row bigram
    counts) via Arrow ``take`` with arithmetic index vectors."""
    if lens.size == 0:
        # zero-row batch (Ray may deliver one depending on lineage shape):
        # the index arithmetic below broadcasts (1,) against (0,) — return
        # typed empties instead, matching the repo's other batch guards
        empty = pa.array([], pa.string())
        return empty, empty, np.zeros(0, dtype="int64")
    starts_tok = np.concatenate(([0], np.cumsum(lens)[:-1]))
    nbg = np.maximum(lens - 1, 0)
    total = int(nbg.sum())
    starts = np.concatenate(([0], np.cumsum(nbg)[:-1]))
    idx1 = np.arange(total) - np.repeat(starts, nbg) + np.repeat(starts_tok, nbg)
    w1 = flat.take(pa.array(idx1))
    w2 = flat.take(pa.array(idx1 + 1))
    return w1, pc.binary_join_element_wise(w1, w2, " "), nbg


def _bigram_rows(
    b: pd.DataFrame, text_col: str, id_col: str | None
) -> pd.DataFrame:
    """One batch -> (id?, w1, bg) rows, fully vectorized: one lower +
    one whitespace-split kernel, then Arrow ``take`` with arithmetic
    index vectors (no per-row Python)."""
    flat, lens = _clean_tokens(b[text_col])
    w1, bg, nbg = _bigrams_from_flat(flat, lens)
    out = {"w1": w1.to_pandas(), "bg": bg.to_pandas()}
    if id_col is not None:
        out[id_col] = np.repeat(b[id_col].to_numpy(), nbg)
    return pd.DataFrame(out)


def _count_partials(b: pd.DataFrame, text_col: str) -> pd.DataFrame:
    """ONE tokenize pass -> stacked in-batch partial counts for BOTH
    count tables: (kind 'u'|'b', k, c).  Training reads the corpus once,
    not once per table."""
    flat, lens = _clean_tokens(b[text_col])
    _, bg, _ = _bigrams_from_flat(flat, lens)
    pu = pd.DataFrame({"k": flat.to_pandas()}).groupby("k", as_index=False).agg(c=("k", "size"))
    pu["kind"] = "u"
    pb = pd.DataFrame({"k": bg.to_pandas()}).groupby("k", as_index=False).agg(c=("k", "size"))
    pb["kind"] = "b"
    return pd.concat([pu, pb], ignore_index=True)


@dataclass
class NgramLM:
    """Handle to a trained bigram LM: the two count Datasets + vocab
    size.  Train once (`train_ngram_lm`) and score many corpora from the
    handle without paying the train pass again — the actual CCNet
    deployment pattern (the trusted-corpus LM is trained once per
    language, then every crawl snapshot is scored against it)."""

    uni_counts: rd.Dataset  # (w, cu)
    bg_counts: rd.Dataset  # (bg, cb)
    vocab: int
    alpha: float = 0.5


def train_ngram_lm(
    train: rd.Dataset,
    *,
    text_col: str = "text",
    alpha: float = 0.5,
    broadcast_threshold_rows: int = 2_000_000,
) -> NgramLM:
    """Train the add-alpha bigram LM: BOTH count tables from one
    tokenize pass (in-batch combiner + size-aware finish).  Raises on a
    token-free train corpus (the smoothing denominator would be 0)."""
    counts = auto_group_agg(
        train.map_batches(
            lambda b: _count_partials(b, text_col), batch_format="pandas"
        ),
        ["kind", "k"], {"c": ("c", "sum")},
        driver_threshold_rows=broadcast_threshold_rows,
    )
    if isinstance(counts, pd.DataFrame):
        uni = counts[counts["kind"] == "u"]
        vocab = len(uni)
        uni_counts = rd.from_pandas(
            uni.rename(columns={"k": "w", "c": "cu"})[["w", "cu"]]
            if vocab
            else pd.DataFrame({"w": pd.Series(dtype="object"), "cu": pd.Series(dtype="int64")})
        )
        bgf = counts[counts["kind"] == "b"] if vocab else counts.iloc[0:0]
        bg_counts = rd.from_pandas(
            bgf.rename(columns={"k": "bg", "c": "cb"})[["bg", "cb"]]
            if len(bgf)
            else pd.DataFrame({"bg": pd.Series(dtype="object"), "cb": pd.Series(dtype="int64")})
        )
    else:
        # exchange route: the table is consumed three times (vocab count +
        # two join build sides) — materialize once, never re-run the train
        counts = counts.materialize()
        uni_counts = counts.map_batches(
            lambda b: b[b["kind"] == "u"].rename(columns={"k": "w", "c": "cu"})[["w", "cu"]],
            batch_format="pandas",
        )
        bg_counts = counts.map_batches(
            lambda b: b[b["kind"] == "b"].rename(columns={"k": "bg", "c": "cb"})[["bg", "cb"]],
            batch_format="pandas",
        )
        vocab = uni_counts.count()
    if vocab == 0:
        # smoothing denominator would be 0 -> every score -inf; refuse
        raise ValueError("train corpus has no tokens — cannot train the LM")
    return NgramLM(
        uni_counts=uni_counts, bg_counts=bg_counts, vocab=vocab, alpha=alpha
    )


def score_with_ngram_lm(
    score: rd.Dataset,
    lm: NgramLM,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    broadcast_threshold_rows: int = 2_000_000,
) -> rd.Dataset | pd.DataFrame:
    """Score a corpus against a trained (possibly loaded) LM — the
    score-many half of the train-once workflow; no train pass runs."""
    uni_counts, bg_counts, vocab = lm.uni_counts, lm.bg_counts, lm.vocab
    alpha = lm.alpha
    # ---- score: explode bigrams, join counts, reduce per doc ----------
    doc_bg = score.map_batches(
        lambda b: _bigram_rows(b, text_col, id_col), batch_format="pandas"
    )
    joined = auto_join(
        doc_bg, bg_counts, "bg", how="left",
        broadcast_threshold_rows=broadcast_threshold_rows,
    )
    joined = joined.map_batches(
        lambda b: b.rename(columns={"w1": "w"})[[id_col, "w", "cb"]],
        batch_format="pandas",
    )
    joined = auto_join(
        joined, uni_counts, "w", how="left",
        broadcast_threshold_rows=broadcast_threshold_rows,
    )
    a = float(alpha)
    av = a * float(vocab)

    def nll_partial(b: pd.DataFrame) -> pd.DataFrame:
        cb = b["cb"].fillna(0).to_numpy(dtype="float64")
        cu = b["cu"].fillna(0).to_numpy(dtype="float64")
        nll = -np.log((cb + a) / (cu + av))
        return pd.DataFrame({id_col: b[id_col], "s": nll, "n": np.ones(len(b), dtype="int64")}).groupby(
            id_col, as_index=False
        ).agg(s=("s", "sum"), n=("n", "sum"))

    partials = joined.map_batches(nll_partial, batch_format="pandas")
    red = auto_group_agg(
        partials, [id_col], {"s": ("s", "sum"), "n": ("n", "sum")},
        driver_threshold_rows=broadcast_threshold_rows,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: b[id_col],
                "n_bigrams": b["n"].to_numpy(dtype="int64"),
                "avg_nll": b["s"].to_numpy(dtype="float64")
                / b["n"].to_numpy(dtype="float64"),
            }
        )

    if isinstance(red, pd.DataFrame):
        return finish(red)
    return red.map_batches(finish, batch_format="pandas")


def ngram_lm_scores(
    train: rd.Dataset,
    score: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    alpha: float = 0.5,
    broadcast_threshold_rows: int = 2_000_000,
) -> rd.Dataset | pd.DataFrame:
    """Per-doc average bigram negative log-likelihood under the train-set
    LM.  Output: ``(id_col, n_bigrams, avg_nll)`` — higher avg_nll =
    more surprising under the trusted corpus (the CCNet filter key).
    ``alpha`` should be an exact binary fraction (0.5, 0.25) so the SQL
    mirror's doubles match bit-for-bit before the log.  Composition of
    `train_ngram_lm` + `score_with_ngram_lm` (keep the handle to
    amortize the train pass across corpora)."""
    lm = train_ngram_lm(
        train,
        text_col=text_col,
        alpha=alpha,
        broadcast_threshold_rows=broadcast_threshold_rows,
    )
    return score_with_ngram_lm(
        score,
        lm,
        text_col=text_col,
        id_col=id_col,
        broadcast_threshold_rows=broadcast_threshold_rows,
    )
