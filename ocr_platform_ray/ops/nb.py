"""Multinomial Naive Bayes text classifier (McCallum & Nigam 1998, the
add-α "multinomial event model") — the count-exact member of the engine's
classifier family: `ops/classifier.py` (hashed logreg) and `ops/softmax.py`
(trained lang-id) learn weights by gradient descent, while NB's entire
model IS two exact integer count tables, which makes both training and
scoring SQL-mirrorable — the only classifier here whose per-document
scores an oracle can reproduce term for term.

    score(d, c) = ln(n_docs_c / N)
                + Σ_{token t in d, in order} ln((n(c,t) + α) / (tok_c + α·V))

Scale shape: training is the `token_document_frequency` shape — per-batch
(label, token) occurrence-count combiners into the size-aware
`auto_group_agg` finish plus a label-dim doc/token-count reduce; the model
(count tables, vocabulary) is a driver artifact like the logreg weights.
Scoring is map-only against the broadcast model: one Arrow tokenize pass,
one vectorized vocabulary lookup (pd.Index.get_indexer), and per-document
sequential segment sums (np.add.reduceat — left-associated in token
position order, exactly SQL's ``SUM(term ORDER BY pos)``), so scores are
block-structure independent to the bit.

Tokenization is the BM25/drift rule (utf8_lower, split on single spaces,
drop empties) so a SQL oracle can mirror every count exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .relational import auto_group_agg


def _flat_tokens(texts: pd.Series) -> tuple[pd.Series, np.ndarray]:
    """(flat lowered tokens incl. empties, per-row offsets)."""
    arr = pa.array(texts.fillna(""), pa.string())
    toks = pc.split_pattern(pc.utf8_lower(arr), pattern=" ")
    flat = toks.flatten().to_pandas()
    offs = toks.offsets.to_numpy().astype(np.int64)
    return flat, offs - offs[0]


def nb_fit(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    label_col: str = "lang",
    min_count: int = 1,
) -> dict:
    """Train: exact (label, token) occurrence counts + label doc/token
    totals + the corpus vocabulary size V.  ``min_count`` prunes rare
    (label, token) rows from the stored model (they score as unseen);
    V and the totals always reflect the FULL corpus so smoothing is
    unchanged.  The returned dict is a driver-side artifact sized by the
    (pruned) vocabulary — the broadcastable-model contract shared with
    `ops/classifier.py` / `ops/softmax.py`."""

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        flat, offs = _flat_tokens(b[text_col])
        doc_idx = np.repeat(np.arange(len(b)), offs[1:] - offs[:-1])
        pairs = pd.DataFrame(
            {
                "label": b[label_col].to_numpy()[doc_idx],
                "token": flat,
            }
        )
        pairs = pairs[pairs["token"] != ""]
        g = pairs.groupby(["label", "token"], sort=False).size()
        out = g.reset_index()
        out.columns = ["label", "token", "n"]
        out["n"] = out["n"].astype("int64")
        return out

    def label_partial(b: pd.DataFrame) -> pd.DataFrame:
        flat, offs = _flat_tokens(b[text_col])
        nonempty = (flat != "").to_numpy()
        cums = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        ntok = cums[offs[1:]] - cums[offs[:-1]]
        sub = pd.DataFrame({"label": b[label_col], "__t": ntok})
        out = sub.groupby("label", as_index=False).agg(
            n_docs=("__t", "size"), n_tokens=("__t", "sum")
        )
        out["n_docs"] = out["n_docs"].astype("int64")
        out["n_tokens"] = out["n_tokens"].astype("int64")
        return out

    counts = auto_group_agg(
        ds.map_batches(count_partial, batch_format="pandas"),
        ["label", "token"],
        {"n": ("n", "sum")},
    )
    if not isinstance(counts, pd.DataFrame):
        counts = counts.to_pandas()
    labels = auto_group_agg(
        ds.map_batches(label_partial, batch_format="pandas"),
        ["label"],
        {"n_docs": ("n_docs", "sum"), "n_tokens": ("n_tokens", "sum")},
    )
    if not isinstance(labels, pd.DataFrame):
        labels = labels.to_pandas()
    if len(labels) == 0:
        raise ValueError("nb_fit: empty training corpus")
    labels = labels.sort_values("label").reset_index(drop=True)
    v = int(counts["token"].nunique()) if len(counts) else 0
    if min_count > 1 and len(counts):
        counts = counts[counts["n"] >= min_count]
    classes = labels["label"].tolist()
    vocab = pd.Index(
        np.sort(counts["token"].unique()) if len(counts) else [], dtype="object"
    )
    cond = np.zeros((len(classes), len(vocab)), dtype="int64")
    if len(counts):
        li = pd.Index(classes).get_indexer(counts["label"])
        ti = vocab.get_indexer(counts["token"])
        cond[li, ti] = counts["n"].to_numpy()
    return {
        "classes": classes,
        "n_docs_per_class": labels["n_docs"].to_numpy().astype("int64"),
        "n_tokens_per_class": labels["n_tokens"].to_numpy().astype("int64"),
        "vocab": vocab,
        "cond": cond,
        "v": v,
        "n_docs": int(labels["n_docs"].sum()),
    }


def nb_predict(
    ds: rd.Dataset,
    model: dict,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    alpha: float = 1.0,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Score every row against the broadcast model: ``(id, pred, score)``
    with pred = argmax class (ties to the smallest class label — classes
    are kept sorted, np.argmax takes the first maximum) and score = the
    winning log posterior.  Map-only; per-document term sums add
    left-to-right in token position order (reduceat), matching the SQL
    mirror's ``SUM(term ORDER BY pos)``."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    classes = model["classes"]
    n_f = float(model["n_docs"])
    ln_prior = np.log(model["n_docs_per_class"].astype("float64") / n_f)
    # V = 0 (token-free training corpus) would zero the denominator and
    # blow ln() to +inf; with no vocabulary every token is uninformative,
    # so the unseen term collapses to 0 and scores are the priors alone
    v_eff = float(model["v"]) if model["v"] > 0 else 1.0
    denom = model["n_tokens_per_class"].astype("float64") + alpha * v_eff
    # (C, V) ln term matrix + per-class unseen-token term
    ln_cond = np.log(
        (model["cond"].astype("float64") + alpha) / denom[:, None]
    )
    ln_unseen = (
        np.log(alpha / denom)
        if model["v"] > 0
        else np.zeros(len(classes), dtype="float64")
    )
    handle = ray.put(
        {
            "vocab": model["vocab"],
            "ln_cond": ln_cond,
            "ln_unseen": ln_unseen,
            "ln_prior": ln_prior,
            "classes": np.asarray(classes, dtype="object"),
        }
    )

    def score(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(handle)
        flat, offs = _flat_tokens(b[text_col])
        keep = (flat != "").to_numpy()
        cums = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
        koffs = cums[offs]  # per-row offsets into the kept-token array
        idx = m["vocab"].get_indexer(flat[keep])
        n_docs_b = len(b)
        counts = koffs[1:] - koffs[:-1]
        nonempty = counts > 0
        starts = koffs[:-1][nonempty]
        scores = np.tile(m["ln_prior"], (n_docs_b, 1))
        for c in range(len(m["classes"])):
            lc = m["ln_cond"][c]
            if lc.size:
                terms = np.where(
                    idx >= 0, lc[np.maximum(idx, 0)], m["ln_unseen"][c]
                )
            else:  # empty vocabulary: every token is unseen
                terms = np.full(len(idx), m["ln_unseen"][c])
            if len(terms) and nonempty.any():
                scores[nonempty, c] = m["ln_prior"][c] + np.add.reduceat(
                    terms, starts
                )
        best = np.argmax(scores, axis=1)
        return pd.DataFrame(
            {
                id_col: b[id_col],
                "pred": m["classes"][best],
                "score": scores[np.arange(n_docs_b), best],
            }
        )

    res = ds.map_batches(score, batch_format="pandas")
    if as_dataset:
        return res
    out = res.to_pandas()
    if len(out) == 0:
        return pd.DataFrame(
            {
                id_col: pd.Series(dtype="int64"),
                "pred": pd.Series(dtype="object"),
                "score": pd.Series(dtype="float64"),
            }
        )
    return out.sort_values(id_col).reset_index(drop=True)
