"""Feature selection — χ² token–class association (Manning, Raghavan &
Schütze, "Introduction to Information Retrieval" §13.5.2, the standard
term-selection statistic): for every token, how strongly its document-level
PRESENCE is associated with membership in a target class (language, source,
quality label).  This is the corpus-curation screen that ranks tokens by
"which vocabulary distinguishes this slice" — stopword induction's sibling,
the contingency-exact complement of the probabilistic JS drift readout in
`ops/drift.py`.

Contingency per token (document-level, distinct containment):
    a = docs IN class containing token      b = docs OUT of class containing it
    c = n_class - a                         d = n_rest - b
    chi2 = N * (a*d - b*c)^2 / ((a+b) * (c+d) * (a+c) * (b+d))

Scale shape: each batch emits per-token partial (in-class df, out-class df)
after an in-batch (doc, token) dedup — the `token_document_frequency`
combiner with a class split — so the reduce moves |vocab| × |batches|
partial rows, never corpus tokens; the size-aware `auto_group_agg` finish
keeps the scale path.  The class totals are ONE scalar-pair reduce.  The
final χ² is a single IEEE expression over four exact int64 counts —
map-only, order-free, and therefore SQL-mirrorable to the bit — followed by
the house local-prune top-k (k rows leave each block; the vocabulary-sized
score table never lands on the driver on the exchange route).

Tokenization is the BM25/drift rule (lower, split on single spaces, drop
empties) so a SQL oracle can mirror every count exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .relational import auto_group_agg


def _chi2_frame(b: pd.DataFrame, n_class: int, n_rest: int) -> pd.DataFrame:
    """(token, a, b) -> (token, chi2, a, b); rows with a zero marginal are
    dropped (their association is undefined: token in no doc or every doc
    on a side of the split)."""
    a = b["n_in"].to_numpy(dtype="float64")
    bb = b["n_out"].to_numpy(dtype="float64")
    c = float(n_class) - a
    d = float(n_rest) - bb
    n = float(n_class + n_rest)
    num = a * d - bb * c
    denom = (a + bb) * (c + d) * (a + c) * (bb + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = n * (num * num) / denom
    out = pd.DataFrame(
        {
            "token": b["token"],
            "chi2": chi2,
            "df_in": b["n_in"].astype("int64"),
            "df_out": b["n_out"].astype("int64"),
        }
    )
    return out[denom > 0.0]


def token_chi2(
    ds: rd.Dataset,
    *,
    class_col: str,
    class_value,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 30,
) -> pd.DataFrame:
    """Top-``k`` tokens most associated (χ², document-presence
    contingency) with ``class_col == class_value`` vs the rest of the
    corpus.  Ties rank by ascending token; returns
    ``(token, chi2, df_in, df_out)`` sorted by (chi2 DESC, token)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        arr = pa.array(b[text_col].fillna(""), pa.string())
        toks = pc.split_pattern(pc.utf8_lower(arr), pattern=" ")
        flat = toks.flatten().to_pandas()
        offs = toks.offsets.to_numpy().astype(np.int64)
        offs = offs - offs[0]
        doc_idx = np.repeat(np.arange(len(b)), offs[1:] - offs[:-1])
        inc = (b[class_col] == class_value).to_numpy()
        pairs = pd.DataFrame(
            {
                id_col: b[id_col].to_numpy()[doc_idx],
                "inc": inc[doc_idx],
                "token": flat,
            }
        )
        pairs = pairs[pairs["token"] != ""]
        pairs = pairs.drop_duplicates([id_col, "token"])
        g = pairs.groupby(["token", "inc"], sort=False).size().unstack(
            fill_value=0
        )
        out = pd.DataFrame(
            {
                "token": g.index.to_numpy(),
                "n_in": g[True].to_numpy().astype("int64")
                if True in g.columns
                else np.zeros(len(g), dtype="int64"),
                "n_out": g[False].to_numpy().astype("int64")
                if False in g.columns
                else np.zeros(len(g), dtype="int64"),
            }
        )
        return out

    def totals(b: pd.DataFrame) -> pd.DataFrame:
        inc = (b[class_col] == class_value).to_numpy()
        return pd.DataFrame(
            [{"n_class": np.int64(inc.sum()), "n_rest": np.int64((~inc).sum())}]
        )

    tot = ds.map_batches(totals, batch_format="pandas").to_pandas()
    n_class = int(tot["n_class"].sum()) if "n_class" in tot.columns else 0
    n_rest = int(tot["n_rest"].sum()) if "n_rest" in tot.columns else 0
    empty = pd.DataFrame(
        {
            "token": pd.Series(dtype="object"),
            "chi2": pd.Series(dtype="float64"),
            "df_in": pd.Series(dtype="int64"),
            "df_out": pd.Series(dtype="int64"),
        }
    )
    if n_class == 0 and n_rest == 0:
        return empty

    reduced = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["token"],
        {"n_in": ("n_in", "sum"), "n_out": ("n_out", "sum")},
    )
    if isinstance(reduced, pd.DataFrame):
        scored = _chi2_frame(reduced, n_class, n_rest)
    else:
        # exchange route: score + local-prune top-k per block, tiny driver
        # finish — the vocabulary-sized table never lands on the driver.
        def prune(b: pd.DataFrame) -> pd.DataFrame:
            s = _chi2_frame(b, n_class, n_rest)
            return s.sort_values(
                ["chi2", "token"], ascending=[False, True]
            ).head(k)

        scored = reduced.map_batches(prune, batch_format="pandas").to_pandas()
    if scored.empty:
        return empty
    return (
        scored.sort_values(["chi2", "token"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
