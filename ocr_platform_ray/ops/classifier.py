"""Model-based quality classifier: logistic regression over hashed
n-gram bag features — the fastText-style filter (Joulin et al. 2016,
arXiv:1607.01759) modern web-curation pipelines train on seed sets to
score crawl documents (e.g. the DCLM baseline classifier, Li et al.
2024, arXiv:2406.11794).  The discriminative sibling of ``ops/dsir.py``
(which weights by a generative likelihood ratio over the same
features).

Scale shape (the ``kmeans_fit`` iteration pattern):

- ``logreg_fit`` runs full-batch gradient descent: per iteration the
  (buckets+1,) weight vector broadcasts once via ``ray.put`` and every
  batch emits ONE fixed-size gradient partial (np.add.at over its flat
  gram buckets); the driver reduces n_blocks partials and steps.  No
  exchange; text never moves.  Bit-reproducible for a fixed input: zero
  init, fixed iteration count, and a CONTENT-SORTED partial reduce (Ray
  may deliver blocks in any order; float addition isn't associative).
- ``logreg_score`` is map-only against the broadcast weights.

Features: lowercased whitespace uni+bigrams hashed into ``buckets``
(shared kernel with DSIR), tf-normalized per document (each doc's gram
mass sums to 1, the fastText mean-pooling analogue), plus a bias term.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state.broadcast import cached_get
from .dsir import _gram_buckets_batch


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # numerically stable both tails
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _scores_from_buckets(
    flat: np.ndarray, counts: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """sigmoid(bias + sum(w[bucket]) / n_grams) per row from an already
    featurized batch — reduceat segment sums, independent per row
    (block-structure exact)."""
    z = np.full(len(counts), w[-1], dtype=np.float64)
    nz = counts > 0
    if flat.size:
        offs = np.concatenate([[0], np.cumsum(counts)])[:-1]
        seg = np.add.reduceat(w[flat], offs[nz])
        z[nz] += seg / counts[nz]
    return _sigmoid(z)


def _row_scores(texts, w: np.ndarray) -> np.ndarray:
    flat, counts = _gram_buckets_batch(texts, len(w) - 1)
    return _scores_from_buckets(flat, counts, w)


def logreg_fit(
    pos: rd.Dataset,
    neg: rd.Dataset,
    text_col: str = "text",
    *,
    buckets: int = 10_000,
    n_iters: int = 20,
    lr: float = 2.0,
    l2: float = 1e-6,
    fit_rows: int | None = None,
) -> np.ndarray:
    """Train on a positive (keep) and negative (drop) seed corpus.
    Returns the (buckets + 1,) weight vector (last entry = bias).

    ``fit_rows=None`` (default) is full-batch GD over the whole corpus
    — one gradient pass per iteration, the exact route tests pin.
    ``fit_rows=N`` is the SAMPLED-FIT route (round-4 verdict item #4;
    fastText-style filters train on seed samples): a deterministic
    per-row hash gate keeps ~N rows (stable under any block structure
    or parallelism — no RNG state), the sample is featurized ONCE, and
    all n_iters GD steps run locally on the cached (flat, counts, y)
    arrays — corpus passes drop from n_iters to 1, and the hash pass
    (the measured cost) runs once instead of n_iters times.
    Bit-reproducible: the gate is content-hash-deterministic and rows
    sort canonically before the gradient accumulates."""

    def lab(y: int):
        def add(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"__text": b[text_col], "__y": np.float64(y)})

        return add

    labeled = pos.map_batches(lab(1), batch_format="pandas").union(
        neg.map_batches(lab(0), batch_format="pandas")
    )
    # one pass materializes the labeled projection so the n_iters
    # gradient passes don't re-run the upstream lineage each iteration
    labeled = labeled.materialize()
    n_total = labeled.count()
    w = np.zeros(buckets + 1, dtype=np.float64)

    if fit_rows is not None and n_total > 0:
        if n_total > fit_rows:
            # deterministic content-hash gate (the stratified_sample
            # pattern): keep a row iff hash(text, salt) / 2^64 < frac
            # (float compare — np.uint64(int) overflows past 2^63)
            frac = min(1.0, fit_rows / n_total)

            def gate(b: pd.DataFrame) -> pd.DataFrame:
                h = pd.util.hash_array(
                    b["__text"].to_numpy(dtype=object), hash_key="logreg-fit-16byt"
                )
                return b[h.astype(np.float64) / float(2**64) < frac]

            sample = labeled.map_batches(gate, batch_format="pandas").to_pandas()
        else:
            sample = labeled.to_pandas()
        missing = list({0.0, 1.0} - set(sample["__y"]))
        if len(missing) == 1 and labeled.map_batches(
            lambda b: b[b["__y"].isin(missing)], batch_format="pandas"
        ).count():
            raise ValueError(
                f"logreg_fit: the fit_rows={fit_rows} sample of {n_total} "
                "labeled rows holds only one class; raise fit_rows or "
                "balance the seed corpora"
            )
        if len(sample) == 0:
            return w
        # canonical row order (Ray block order is not deterministic)
        sample = sample.sort_values(
            ["__y", "__text"], kind="mergesort"
        ).reset_index(drop=True)
        texts = list(sample["__text"])
        y = sample["__y"].to_numpy(dtype=np.float64)
        flat, counts = _gram_buckets_batch(texts, buckets)  # hash pass: ONCE
        n = len(sample)
        nz = counts > 0
        for _ in range(n_iters):
            p = _scores_from_buckets(flat, counts, w)
            err = p - y
            g = np.zeros(buckets + 1, dtype=np.float64)
            if flat.size:
                per_gram = np.repeat(err[nz] / counts[nz], counts[nz])
                np.add.at(g, flat, per_gram)
            g[-1] = err.sum()
            g /= n
            g[:-1] += l2 * w[:-1]
            w = w - lr * g
        return w

    for _ in range(n_iters):
        ref = ray.put(w)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            wv = cached_get(ref)
            texts = list(b["__text"])
            y = b["__y"].to_numpy(dtype=np.float64)
            # featurize ONCE per batch per iteration; scores reuse the
            # same (flat, counts) — the hash pass dominates the cost
            flat, counts = _gram_buckets_batch(texts, buckets)
            p = _scores_from_buckets(flat, counts, wv)
            err = p - y  # dL/dz per row
            g = np.zeros(buckets + 1, dtype=np.float64)
            if flat.size:
                nz = counts > 0
                per_gram = np.repeat(err[nz] / counts[nz], counts[nz])
                np.add.at(g, flat, per_gram)
            g[-1] = err.sum()
            return pd.DataFrame({"g": [g.tolist()]})

        parts = labeled.map_batches(partial, batch_format="pandas").to_pandas()
        grad = np.zeros(buckets + 1, dtype=np.float64)
        # canonical reduce order: Ray may deliver blocks in a different
        # order run to run, and float addition isn't associative (a 1-ULP
        # drift compounds over iterations) — sort partials by content
        for v in sorted(parts["g"], key=tuple):
            grad += np.asarray(v, dtype=np.float64)
        grad /= max(n_total, 1)
        grad[:-1] += l2 * w[:-1]  # bias unregularized
        w = w - lr * grad
    return w


def logreg_score(
    ds: rd.Dataset,
    text_col: str,
    weights: np.ndarray,
    *,
    out_col: str = "quality_score",
) -> rd.Dataset:
    """Append the classifier probability P(keep | text).  Map-only; the
    weight vector broadcasts once."""
    ref = ray.put(np.ascontiguousarray(weights, dtype=np.float64))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out[out_col] = _row_scores(list(b[text_col]), cached_get(ref))
        return out

    return ds.map_batches(score, batch_format="pandas")
