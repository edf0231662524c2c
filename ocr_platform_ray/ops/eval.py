"""Distributed model-evaluation signals over scored datasets — the
measurement half of the classifier ops (`ops/classifier.py` quality
filter, `ops/softmax.py` langid): confusion matrix, precision/recall
threshold sweep (PR curve), ROC points + AUC, and calibration
(reliability) buckets.

Scale shape: every op reduces the corpus to a FIXED-SIZE integer summary
map-side — per-batch (cell / score-bucket) count combiners into the
size-aware `auto_group_agg` finish — and computes the float curve
driver-side from those few integers.  Nothing sorts the full score
column: the threshold sweep discretizes scores into ``n_buckets``
half-open bins (the standard histogram trick for ROC/PR at scale — e.g.
Tensorflow's thresholded AUC), so curves are exact for the binned
thresholds and every bin count is an exact integer.

AUC uses the tie-aware Mann-Whitney identity (equivalent to the
trapezoidal rule over the bucket-grouped ROC): with P positives and N
negatives,

    2·P·N·AUC  =  Σ_k  pos_k · (2·cum_neg_below_k + neg_k)

— an exact int64 numerator, so the single final division makes ``auc``
bit-identical between engines (the `_cents` precedent).  All other curve
fields are likewise pure functions of integer counts, SQL-mirrorable to
the bit via window cumsums over the same bins.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.textscan import flat_tokens_nonempty
from .relational import auto_group_agg


def confusion_matrix(
    ds: rd.Dataset,
    label_col: str,
    pred_col: str,
) -> pd.DataFrame | rd.Dataset:
    """Multiclass confusion matrix: one row per observed (label, pred)
    pair with its count.  A per-batch value_counts combiner caps the
    exchange at |classes|² rows per batch; the finish is size-aware
    (driver groupby while the partials fit — |classes|²-bounded by
    construction — else the hash-shard exchange)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = (
            b[[label_col, pred_col]]
            .groupby([label_col, pred_col], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        vc["n"] = vc["n"].astype("int64")
        return vc

    out = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        [label_col, pred_col],
        {"n": ("n", "sum")},
    )
    if isinstance(out, pd.DataFrame):
        out = out.sort_values([label_col, pred_col]).reset_index(drop=True)
        out["n"] = out["n"].astype("int64")
    return out


def _binary_labels(b: pd.Series, label_col: str) -> np.ndarray:
    y = b.to_numpy()
    if y.dtype == bool:
        return y.astype("int64")
    y = y.astype("int64", copy=False)
    bad = (y != 0) & (y != 1)
    if bad.any():
        raise ValueError(
            f"eval: binary ops need a bool/0-1 '{label_col}' column "
            f"(got value {b.to_numpy()[bad][0]!r})"
        )
    return y


def _bucket_counts(
    ds: rd.Dataset,
    score_col: str,
    label_col: str,
    n_buckets: int,
    lo: float,
    hi: float,
    *,
    score_scale: float = 0.0,
) -> pd.DataFrame:
    """Per-bucket (n_pos, n_neg[, score_u]) integer counts — the one
    distributed pass every curve op shares.  Bucket k covers
    ``[lo + k·w, lo + (k+1)·w)`` with ``w = (hi-lo)/n_buckets``; scores
    outside [lo, hi) clip into the edge buckets, so the histogram is
    total.  ``score_scale > 0`` additionally accumulates
    ``Σ round(score·scale)`` per bucket (exact fixed-point units for
    calibration's mean score)."""
    if n_buckets < 2:
        raise ValueError("eval: n_buckets must be >= 2")
    if not hi > lo:
        raise ValueError("eval: need hi > lo")
    w = (hi - lo) / n_buckets

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            cols = {
                "bucket": pd.Series([], dtype="int64"),
                "n_pos": pd.Series([], dtype="int64"),
                "n_neg": pd.Series([], dtype="int64"),
            }
            if score_scale > 0:
                cols["score_u"] = pd.Series([], dtype="int64")
            return pd.DataFrame(cols)
        y = _binary_labels(b[label_col], label_col)
        s = b[score_col].to_numpy(dtype=np.float64)
        k = np.clip(np.floor((s - lo) / w).astype("int64"), 0, n_buckets - 1)
        # one bincount over the fused (bucket, label) key — no Python loop
        fused = np.bincount(k * 2 + y, minlength=n_buckets * 2)
        cols = {
            "bucket": np.arange(n_buckets, dtype="int64"),
            "n_pos": fused[1::2].astype("int64"),
            "n_neg": fused[0::2].astype("int64"),
        }
        if score_scale > 0:
            u = np.floor(s * score_scale + 0.5).astype("int64")
            acc = np.zeros(n_buckets, dtype="int64")
            np.add.at(acc, k, u)
            cols["score_u"] = acc
        t = pd.DataFrame(cols)
        return t[(t["n_pos"] > 0) | (t["n_neg"] > 0)]

    aggs = {"n_pos": ("n_pos", "sum"), "n_neg": ("n_neg", "sum")}
    if score_scale > 0:
        aggs["score_u"] = ("score_u", "sum")
    out = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"), ["bucket"], aggs
    )
    out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    # densify: every op below wants all n_buckets rows (cumsums over gaps)
    full = pd.DataFrame({"bucket": np.arange(n_buckets, dtype="int64")})
    out = full.merge(out, on="bucket", how="left").fillna(0)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def pr_curve(
    ds: rd.Dataset,
    score_col: str,
    label_col: str,
    *,
    n_buckets: int = 100,
    lo: float = 0.0,
    hi: float = 1.0,
) -> pd.DataFrame:
    """Precision/recall sweep: one row per bucket threshold
    ``t_k = lo + k·(hi-lo)/n_buckets`` (predict positive when
    ``score >= t_k``, i.e. the score fell in bucket k or above —
    exact for binned scores): (threshold, tp, fp, fn, precision,
    recall).  tp/fp/fn are exact int64; precision/recall are single
    divisions of those ints, so both engines produce bit-identical
    doubles."""
    h = _bucket_counts(ds, score_col, label_col, n_buckets, lo, hi)
    pos, neg = h["n_pos"].to_numpy(), h["n_neg"].to_numpy()
    p_tot, n_tot = int(pos.sum()), int(neg.sum())
    if p_tot == 0:
        raise ValueError("pr_curve: no positive labels")
    tp = p_tot - np.concatenate(([0], np.cumsum(pos)[:-1]))  # pos in bucket >= k
    fp = n_tot - np.concatenate(([0], np.cumsum(neg)[:-1]))
    fn = p_tot - tp
    w = (hi - lo) / n_buckets
    denom = tp + fp
    precision = np.where(denom > 0, tp / np.maximum(denom, 1), 1.0)
    return pd.DataFrame(
        {
            "bucket": h["bucket"],
            "threshold": lo + h["bucket"].to_numpy() * w,
            "tp": tp.astype("int64"),
            "fp": fp.astype("int64"),
            "fn": fn.astype("int64"),
            "precision": precision,
            "recall": tp / p_tot,
        }
    )


def roc_auc(
    ds: rd.Dataset,
    score_col: str,
    label_col: str,
    *,
    n_buckets: int = 100,
    lo: float = 0.0,
    hi: float = 1.0,
) -> tuple[pd.DataFrame, float]:
    """ROC points (one per bucket threshold, fpr/tpr as exact integer
    ratios) and the tie-aware Mann-Whitney AUC — identical to the
    trapezoidal rule over the bucket-grouped ROC.  The AUC numerator
    ``Σ pos_k·(2·cum_neg_below_k + neg_k)`` stays int64; the one final
    division by ``2·P·N`` makes the float bit-identical across engines
    and block structures."""
    h = _bucket_counts(ds, score_col, label_col, n_buckets, lo, hi)
    pos, neg = h["n_pos"].to_numpy(), h["n_neg"].to_numpy()
    p_tot, n_tot = int(pos.sum()), int(neg.sum())
    if p_tot == 0 or n_tot == 0:
        raise ValueError("roc_auc: need at least one positive and one negative")
    tp = p_tot - np.concatenate(([0], np.cumsum(pos)[:-1]))
    fp = n_tot - np.concatenate(([0], np.cumsum(neg)[:-1]))
    w = (hi - lo) / n_buckets
    points = pd.DataFrame(
        {
            "bucket": h["bucket"],
            "threshold": lo + h["bucket"].to_numpy() * w,
            "tpr": tp / p_tot,
            "fpr": fp / n_tot,
        }
    )
    cum_neg_below = np.concatenate(([0], np.cumsum(neg)[:-1]))
    num = int((pos * (2 * cum_neg_below + neg)).sum())
    return points, num / (2 * p_tot * n_tot)


def calibration_buckets(
    ds: rd.Dataset,
    score_col: str,
    label_col: str,
    *,
    n_buckets: int = 10,
    lo: float = 0.0,
    hi: float = 1.0,
) -> pd.DataFrame:
    """Reliability diagram: per score bucket, (n, mean_score, frac_pos).
    The mean score is exact — per-bucket sums accumulate in fixed-point
    micro-units (``round(score·1e6)``, the `_cents` pattern), so the
    parallel sum is associative and both engines divide the identical
    integers.  Empty buckets are dropped (a reliability diagram has no
    value there)."""
    h = _bucket_counts(
        ds, score_col, label_col, n_buckets, lo, hi, score_scale=1e6
    )
    n = (h["n_pos"] + h["n_neg"]).to_numpy(dtype="int64")
    keep = n > 0
    h, n = h[keep], n[keep]
    return pd.DataFrame(
        {
            "bucket": h["bucket"].to_numpy(dtype="int64"),
            "n": n.astype("int64"),
            "mean_score": h["score_u"].to_numpy(dtype="int64") / 1e6 / n,
            "frac_pos": h["n_pos"].to_numpy(dtype="int64") / n,
        }
    ).reset_index(drop=True)


def cohens_kappa(
    ds: rd.Dataset,
    label_col: str,
    pred_col: str,
) -> dict:
    """Cohen's κ (Cohen 1960 — chance-corrected inter-rater agreement,
    the annotation-quality readout next to the confusion/PR/AUC family):

        κ = (p_o − p_e) / (1 − p_e)
        p_o = Σ_i n_ii / N        p_e = Σ_i (row_i · col_i) / N²

    over the EXACT integer confusion counts (`confusion_matrix`'s
    combiner reduce — the values never move), with every double one
    mirrored IEEE expression over int64 sums, so a SQL oracle hashes
    identically.  Returns {kappa, p_o, p_e, n}; perfect-chance
    degeneracy (p_e == 1: both raters constant) yields NaN κ, SQL's
    NULL."""
    cm = confusion_matrix(ds, label_col, pred_col)
    if not isinstance(cm, pd.DataFrame):
        cm = cm.to_pandas()
    if len(cm) == 0:
        return {"kappa": float("nan"), "p_o": float("nan"),
                "p_e": float("nan"), "n": 0}
    n = float(cm["n"].sum())
    diag = float(cm.loc[cm[label_col] == cm[pred_col], "n"].sum())
    rows = cm.groupby(label_col)["n"].sum()
    cols = cm.groupby(pred_col)["n"].sum()
    classes = sorted(set(rows.index) | set(cols.index))
    pe_num = 0.0
    for c in classes:  # class-dim loop; ascending order both engines
        pe_num += float(int(rows.get(c, 0)) * int(cols.get(c, 0)))
    p_o = diag / n
    p_e = pe_num / (n * n)
    kappa = (p_o - p_e) / (1.0 - p_e) if p_e < 1.0 else float("nan")
    return {"kappa": kappa, "p_o": p_o, "p_e": p_e, "n": int(n)}


def _ngram_from_flat(
    flat: np.ndarray, doc_of: np.ndarray, n: int
) -> pd.DataFrame:
    """(row_idx, gram, c) n-gram count triples from an already-flattened
    token stream (`functions/textscan.flat_tokens_nonempty` — the
    PMI/BM25 renumbered-adjacency rule): n-grams join with ' ' via a
    shifted-slice zip (tokens cannot contain spaces, so the join is
    injective), rows whose window crosses a doc boundary masked out.
    Callers tokenize ONCE per batch and reuse the stream across every
    n level (bleu's 1..4)."""
    if len(flat) == 0 or n > len(flat):
        return pd.DataFrame(
            {"row_idx": pd.Series(dtype="int64"),
             "gram": pd.Series(dtype="object"),
             "c": pd.Series(dtype="int64")}
        )
    m = len(flat) - n + 1
    grams = flat[:m].copy()
    for k in range(1, n):
        grams = np.char.add(
            np.char.add(grams.astype(object).astype("U"), " "),
            flat[k : m + k].astype("U"),
        ).astype(object)
    ok = doc_of[:m] == doc_of[n - 1 :]
    df = pd.DataFrame({"row_idx": doc_of[:m][ok], "gram": grams[ok]})
    return df.groupby(["row_idx", "gram"], as_index=False).size().rename(
        columns={"size": "c"}
    )


def _ngram_frame(texts: pd.Series, n: int) -> pd.DataFrame:
    flat, doc_of = flat_tokens_nonempty(texts)
    return _ngram_from_flat(flat, doc_of, n)


def _clipped_counts_flat(
    cand, ref, n: int
) -> tuple[int, int, int]:
    """(Σ clipped matches, Σ candidate n-grams, Σ reference n-grams)
    over one batch — exact integers from a per-doc multiset-intersection
    merge on STRING grams (no hashing, no collisions).  ``cand``/``ref``
    are (flat, doc_of) streams tokenized once per batch."""
    cg = _ngram_from_flat(*cand, n)
    rg = _ngram_from_flat(*ref, n)
    tot_c = int(cg["c"].sum()) if len(cg) else 0
    tot_r = int(rg["c"].sum()) if len(rg) else 0
    if tot_c == 0 or tot_r == 0:
        return 0, tot_c, tot_r
    j = cg.merge(rg, on=["row_idx", "gram"], how="inner", suffixes=("_c", "_r"))
    matched = int(np.minimum(j["c_c"], j["c_r"]).sum()) if len(j) else 0
    return matched, tot_c, tot_r


def bleu_corpus(
    ds: rd.Dataset,
    cand_col: str,
    ref_col: str,
    *,
    max_n: int = 4,
) -> pd.DataFrame:
    """Corpus-level BLEU (Papineni et al. 2002) of a candidate column
    against a single-reference column — the generation-eval metric next
    to the classifier family's confusion/PR/AUC: modified (clipped)
    n-gram precisions p_1..p_max_n pooled over the corpus, brevity
    penalty from total lengths, geometric mean::

        BLEU = BP · exp( Σ_n ln p_n / max_n )     BP = min(1, e^{1−r/c})

    Every pooled numerator/denominator is an exact int64 from per-batch
    clipped-count combiners (string grams, per-doc multiset
    intersection — one pandas merge per (batch, n), no per-row Python);
    the finish is a fixed-width (2·max_n + 2)-integer reduce, so the
    floats are each ONE mirrored IEEE expression over exact integers —
    SQL-mirrorable to the bit (list-comprehension n-grams +
    LEAST(cc, cr) sums).  BLEU = 0 when any p_n = 0 (the standard
    smoothing-free convention); NULL p_n when a level has no candidate
    n-grams.  Map-only; nothing but the integer summary moves."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cand = flat_tokens_nonempty(b[cand_col])
        ref = flat_tokens_nonempty(b[ref_col])
        row = {}
        for n in range(1, max_n + 1):
            m, tc, tr = _clipped_counts_flat(cand, ref, n)
            row[f"m{n}"], row[f"t{n}"] = m, tc
            if n == 1:
                row["c_len"], row["r_len"] = tc, tr
        return pd.DataFrame([row])

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    tot = parts.sum() if len(parts) else None
    out = {"c_len": int(tot["c_len"]) if tot is not None else 0,
           "r_len": int(tot["r_len"]) if tot is not None else 0}
    log_sum, zero, seen = 0.0, False, 0
    for n in range(1, max_n + 1):
        m = int(tot[f"m{n}"]) if tot is not None else 0
        t = int(tot[f"t{n}"]) if tot is not None else 0
        p = float(m) / float(t) if t > 0 else np.nan
        out[f"p{n}"] = p
        if t > 0:
            seen += 1
            if m == 0:
                zero = True
            else:
                log_sum += math.log(p)
    c, r = out["c_len"], out["r_len"]
    # math.exp / math.log, NOT np.exp: numpy's SIMD exp rounds one ulp
    # off libm at some inputs (probe: exp(-1.0)) — SQL engines use libm
    bp = 1.0 if c >= r else math.exp(1.0 - float(r) / float(c)) if c > 0 else 0.0
    out["bp"] = bp
    if c == 0 or zero or seen < max_n:
        out["bleu"] = 0.0 if c > 0 else np.nan
    else:
        out["bleu"] = bp * math.exp(log_sum / float(max_n))
    cols = ["c_len", "r_len", *[f"p{n}" for n in range(1, max_n + 1)], "bp", "bleu"]
    return pd.DataFrame([{k: out[k] for k in cols}])


def rouge_n(
    ds: rd.Dataset,
    id_col: str,
    cand_col: str,
    ref_col: str,
    *,
    n: int = 2,
) -> pd.DataFrame:
    """Per-document ROUGE-N (Lin 2004): clipped n-gram matches against
    the reference with recall (the ROUGE headline), precision and F1 —
    each a single IEEE expression over exact per-doc integers, so a SQL
    oracle with the same list-comprehension n-grams hashes identically.
    Map-only (per-doc counts never leave their batch); the corpus mean
    is the caller's one-line reduce."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def per_batch(b: pd.DataFrame) -> pd.DataFrame:
        cg = _ngram_frame(b[cand_col], n)
        rg = _ngram_frame(b[ref_col], n)
        base = pd.DataFrame({"row_idx": np.arange(len(b), dtype="int64")})
        tc = cg.groupby("row_idx")["c"].sum() if len(cg) else pd.Series(dtype="int64")
        tr = rg.groupby("row_idx")["c"].sum() if len(rg) else pd.Series(dtype="int64")
        j = cg.merge(rg, on=["row_idx", "gram"], suffixes=("_c", "_r")) if len(cg) and len(rg) else None
        if j is not None and len(j):
            j["__m"] = np.minimum(j["c_c"], j["c_r"])
            mm = j.groupby("row_idx")["__m"].sum()
        else:
            mm = pd.Series(dtype="int64")
        out = pd.DataFrame({id_col: b[id_col].to_numpy()})
        out["matches"] = base["row_idx"].map(mm).fillna(0).astype("int64").to_numpy()
        out["cand_n"] = base["row_idx"].map(tc).fillna(0).astype("int64").to_numpy()
        out["ref_n"] = base["row_idx"].map(tr).fillna(0).astype("int64").to_numpy()
        m = out["matches"].to_numpy(dtype="float64")
        cn = out["cand_n"].to_numpy(dtype="float64")
        rn = out["ref_n"].to_numpy(dtype="float64")
        with np.errstate(invalid="ignore", divide="ignore"):
            prec = np.where(cn > 0, m / cn, np.nan)
            rec = np.where(rn > 0, m / rn, np.nan)
            f1 = np.where(
                (cn > 0) & (rn > 0) & (prec + rec > 0),
                2.0 * prec * rec / (prec + rec),
                np.where((cn > 0) & (rn > 0), 0.0, np.nan),
            )
        out["rouge_p"], out["rouge_r"], out["rouge_f1"] = prec, rec, f1
        return out

    res = ds.map_batches(per_batch, batch_format="pandas").to_pandas()
    return res.sort_values(id_col).reset_index(drop=True)


def isotonic_calibration(
    ds: rd.Dataset,
    score_col: str,
    label_col: str,
    *,
    n_buckets: int = 100,
    lo: float = 0.0,
    hi: float = 1.0,
) -> pd.DataFrame:
    """Isotonic score calibration by pool-adjacent-violators (Ayer et
    al. 1955 PAV; Zadrozny & Elkan 2002 for classifier scores) — the
    monotone step-function fit that turns a ranker's raw scores into
    probabilities, completing the eval family next to the reliability
    diagram: the corpus reduces to per-bucket exact integer (n_pos, n)
    counts (the `calibration_buckets` combiner — fixed-point score
    sums), and PAV runs on the bucket-dim table: walk buckets in score
    order, pooling any adjacent pair that violates monotonicity into a
    weighted block until the block rates are nondecreasing.  The fit is
    the exact isotonic weighted-least-squares solution over the bucket
    grid; pooled rates are ratios of exact int64 sums, so the result is
    block-structure independent to the bit.

    Returns per non-empty bucket: bucket, n, pos, mean_score,
    raw_rate, calibrated_p (nondecreasing; Σ calibrated_p·n =
    Σ pos exactly — PAV preserves the total)."""
    h = _bucket_counts(
        ds, score_col, label_col, n_buckets, lo, hi, score_scale=1e6
    )
    n = (h["n_pos"] + h["n_neg"]).to_numpy(dtype="int64")
    keep = n > 0
    h, n = h[keep], n[keep]
    h = h.sort_values("bucket").reset_index(drop=True)
    n = (h["n_pos"] + h["n_neg"]).to_numpy(dtype="int64")
    pos = h["n_pos"].to_numpy(dtype="int64")
    # PAV over (pos, n) blocks — exact integer pooling
    blocks: list[list[int]] = []  # [pos_sum, n_sum, count_of_buckets]
    for p, m in zip(pos, n):
        blocks.append([int(p), int(m), 1])
        while len(blocks) >= 2 and (
            blocks[-2][0] * blocks[-1][1] >= blocks[-1][0] * blocks[-2][1]
        ):
            b1 = blocks.pop()
            blocks[-1][0] += b1[0]
            blocks[-1][1] += b1[1]
            blocks[-1][2] += b1[2]
    cal = np.empty(len(n), dtype="float64")
    i = 0
    for p_sum, n_sum, cnt in blocks:
        cal[i : i + cnt] = float(p_sum) / float(n_sum)
        i += cnt
    return pd.DataFrame(
        {
            "bucket": h["bucket"].to_numpy(dtype="int64"),
            "n": n.astype("int64"),
            "pos": pos.astype("int64"),
            "mean_score": h["score_u"].to_numpy(dtype="int64") / 1e6 / n,
            "raw_rate": pos / n,
            "calibrated_p": cal,
        }
    )
