"""Collocation extraction — pointwise mutual information over adjacent
token bigrams (Church & Hanks 1990): which word pairs co-occur as
neighbors far more often than their unigram frequencies predict
("'new york'", "'machine learning'").  The classic corpus-linguistics
signal for multiword expressions, also a cheap phrase-vocabulary miner
ahead of tokenizer training.

Tokenization is the corpus' oracled one — lowercase + split on single
spaces (exactly DuckDB ``string_split(lower(text), ' ')``), empties
dropped; adjacency is WITHIN a document over the kept tokens.

Scale shape: ONE tokenize pass emits per-batch pre-counted partials —
bigram counts, unigram counts, and the two scalar totals — as rows of a
single (kind, x, y, n) long table, and ONE size-aware `auto_group_agg`
finish sums them; nothing re-reads text and no exchange carries more
than count rows.  PMI = ln(n_xy·T² / (B·n_x·n_y)) (T tokens, B bigrams)
is a single IEEE expression over exact int64 counts, operand order
mirrored verbatim by the SQL oracle (the bm25 ln-bit-identity
precedent).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .relational import auto_group_agg

_BIGRAM, _UNIGRAM, _TOTAL = "b", "u", "t"


def _empty() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "x": pd.Series([], dtype="object"),
            "y": pd.Series([], dtype="object"),
            "n_xy": pd.Series([], dtype="int64"),
            "n_x": pd.Series([], dtype="int64"),
            "n_y": pd.Series([], dtype="int64"),
            "pmi": pd.Series([], dtype="float64"),
        }
    )


def pmi_bigrams(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    min_count: int = 5,
) -> pd.DataFrame:
    """(x, y, n_xy, n_x, n_y, pmi) for every ordered adjacent bigram
    occurring ``>= min_count`` times.  n_x/n_y are corpus unigram
    occurrence counts, pmi the pointwise mutual information of the
    bigram against token independence.  The surviving-bigram table is
    vocab-sized (the token_df report contract); on the exchange finish
    route the min_count thinning happens map-side before the driver
    sees it."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "kind": pd.Series([], dtype="object"),
                "x": pd.Series([], dtype="object"),
                "y": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if len(b) == 0:
            return empty
        col = pc.fill_null(pa.array(b[text_col], type=pa.string()), "")
        toks = pc.split_pattern(pc.utf8_lower(col), pattern=" ")
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        offs = toks.offsets.to_numpy().astype(np.int64)
        offs = offs - offs[0]
        dl = offs[1:] - offs[:-1]
        rows = np.repeat(np.arange(len(dl), dtype=np.int64), dl)
        keep = flat != ""
        tok, row = flat[keep], rows[keep]
        if tok.size == 0:
            return empty
        uni = pd.Series(tok).value_counts()
        uf = pd.DataFrame(
            {"kind": _UNIGRAM, "x": uni.index, "y": "", "n": uni.to_numpy()}
        )
        out = [uf]
        if tok.size >= 2:
            same = row[:-1] == row[1:]
            bp = pd.DataFrame({"x": tok[:-1][same], "y": tok[1:][same]})
            bf = bp.groupby(["x", "y"], as_index=False).size().rename(
                columns={"size": "n"}
            )
            bf.insert(0, "kind", _BIGRAM)
            n_big = int(same.sum())
            out.insert(0, bf)
        else:
            n_big = 0
        out.append(
            pd.DataFrame(
                {
                    "kind": [_TOTAL, _TOTAL],
                    "x": ["tok", "big"],
                    "y": ["", ""],
                    "n": [int(tok.size), n_big],
                }
            )
        )
        res = pd.concat(out, ignore_index=True)
        res["n"] = res["n"].astype("int64")
        return res

    red = auto_group_agg(
        ds.map_batches(partials, batch_format="pandas"),
        ["kind", "x", "y"],
        {"n": ("n", "sum")},
    )
    if not isinstance(red, pd.DataFrame):
        red = red.map_batches(
            lambda b: b[(b["kind"] != _BIGRAM) | (b["n"] >= min_count)],
            batch_format="pandas",
        ).to_pandas()
    if red.shape[1] == 0 or len(red) == 0:
        return _empty()
    tot = red[red["kind"] == _TOTAL].set_index("x")["n"]
    n_tok = int(tot.get("tok", 0))
    n_big = int(tot.get("big", 0))
    uni = red[red["kind"] == _UNIGRAM].set_index("x")["n"]
    bg = red[red["kind"] == _BIGRAM].drop(columns="kind").rename(
        columns={"n": "n_xy"}
    )
    bg = bg[bg["n_xy"] >= min_count].copy()
    if len(bg) == 0 or n_big == 0:
        return _empty()
    bg["n_x"] = uni.reindex(bg["x"]).to_numpy(dtype="int64")
    bg["n_y"] = uni.reindex(bg["y"]).to_numpy(dtype="int64")
    nxy = bg["n_xy"].to_numpy(dtype="float64")
    t = np.float64(n_tok)
    # operand order mirrors the SQL expression verbatim:
    # ln(CAST(n_xy AS DOUBLE) * T * T / (CAST(B AS DOUBLE) * n_x * n_y))
    bg["pmi"] = np.log(
        (nxy * t * t)
        / (
            np.float64(n_big)
            * bg["n_x"].to_numpy(dtype="float64")
            * bg["n_y"].to_numpy(dtype="float64")
        )
    )
    bg["n_xy"] = bg["n_xy"].astype("int64")
    return (
        bg[["x", "y", "n_xy", "n_x", "n_y", "pmi"]]
        .sort_values(["x", "y"])
        .reset_index(drop=True)
    )
