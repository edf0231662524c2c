"""The driver-facing query suite: one entry per operator family from
SURVEY.md §2 plus the training-data extensions, each with a DuckDB oracle
where SQL can express it (driver contract in __ray_entry__.py).

Column names in every Ray result match the SQL aliases exactly; float
aggregates are rounded identically on both sides so the driver's
order-insensitive value-hash agrees."""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import ray.data as rd


def _t(sf_dir: str, name: str, columns: list[str] | None = None) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


_ORACLE_SIDECAR_DIR = "/tmp/ocr_oracle_sidecars"


def _write_oracle_sidecar(df: pd.DataFrame, name: str) -> str:
    """The PARTIAL-ORACLE bridge (round 5, verdict item #7): a query
    writes one of its computed INTERMEDIATES (a near-dup pair list, a
    gated prefix table) to a fixed scratch path, and its ORACLE_SQL
    recomputes the remaining relational logic from that file in DuckDB
    (``read_parquet`` on the absolute path — DuckDB reads files from SQL
    directly).  The driver runs the Ray query before its oracle, so the
    sidecar is always the current run's.  What the oracle then verifies
    INDEPENDENTLY: everything downstream of the sidecar (winner
    selection, connected components via recursive CTE, anti-joins,
    projections); what stays carried: the sidecar content itself, which
    is pinned by goldens/pytest instead (extraction shas, minhash
    equivalence tests)."""
    os.makedirs(_ORACLE_SIDECAR_DIR, exist_ok=True)
    path = os.path.join(_ORACLE_SIDECAR_DIR, name + ".parquet")
    tmp = path + f".tmp-{os.getpid()}"
    df.to_parquet(tmp, index=False)
    os.replace(tmp, path)
    return path


def _round_half_away(s: pd.Series, n: int) -> pd.Series:
    """DuckDB-compatible ROUND (half away from zero; pandas .round() is
    banker's rounding, which disagrees at exact halves like 5.15625)."""
    f = 10.0**n
    x = s.to_numpy(dtype=float)
    return pd.Series(np.copysign(np.floor(np.abs(x) * f + 0.5), x) / f, index=s.index)


def _cents(s: pd.Series) -> np.ndarray:
    """Exact integer-cents encoding: FLOOR(x*100 + 0.5) on the identical
    input double gives the identical int on both engines, making money sums
    order-independent (integer addition is associative; double addition is
    not, so a parallel sum can differ from DuckDB's sequential sum by just
    enough to flip the rounded cent)."""
    return np.floor(s.to_numpy(dtype=float) * 100.0 + 0.5).astype("int64")


# ===========================================================================
# Documents: scalar / text operators (M6, A1-A6 analogues)
# ===========================================================================
def q_doc_stats_by_source(sf_dir: str) -> pd.DataFrame:
    """A1/A4: per-source count + sum + avg, with in-batch pre-aggregation
    (combiner) so the shuffle moves partials, not rows."""
    from ..ops.relational import pre_aggregate

    ds = _t(sf_dir, "documents", ["source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("source", as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )

    def final(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby("source", as_index=False).agg(
            n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
        )
        g["avg_chars"] = _round_half_away(g["sum_chars"] / g["n_docs"], 4)
        return g.sort_values("source").reset_index(drop=True)

    return pre_aggregate(ds, ["source"], partial, final)


def q_word_count_per_doc(sf_dir: str) -> rd.Dataset:
    """M6 word count, vectorized per batch (the SQL mirror uses the same
    regex so counts agree exactly)."""
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def wc(b: pd.DataFrame) -> pd.DataFrame:
        # one RE2 kernel over the whole column (same non-overlapping match
        # count as re.findall for this pattern)
        import pyarrow as pa
        import pyarrow.compute as pc

        n = pc.count_substring_regex(
            pa.array(b["text"], pa.string()), pattern=r"[a-z0-9]+"
        ).to_numpy(zero_copy_only=False)
        return pd.DataFrame({"doc_id": b["doc_id"], "total_words": n.astype("int64")})

    return ds.map_batches(wc, batch_format="pandas")


def q_bpe_token_count(sf_dir: str) -> rd.Dataset:
    """BPE-ish pretokenizer count (training-data token accounting)."""
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def tc(b: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.compute as pc

        n = pc.count_substring_regex(
            pa.array(b["text"], pa.string()), pattern=r"[A-Za-z]+|[0-9]+|[^ A-Za-z0-9]"
        ).to_numpy(zero_copy_only=False)
        return pd.DataFrame({"doc_id": b["doc_id"], "n_bpe_tokens": n.astype("int64")})

    return ds.map_batches(tc, batch_format="pandas")


def q_bpe_vocab_token_count(sf_dir: str) -> rd.Dataset:
    """REAL BPE token counts from the committed merge table
    (functions/bpe.py + data/bpe_merges.txt) — rows-only: rank-order merge
    application has no SQL analogue (q_bpe_token_count keeps the oracled
    pretokenizer approximation).  Actor-pool stage: table parsed once per
    actor, per-word memo across batches."""
    from ..functions.bpe import BpeTokenizer

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    class BpeCount:
        def __init__(self):
            self.tok = BpeTokenizer()

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": b["doc_id"],
                    "n_vocab_tokens": pd.array(
                        [self.tok.count(t) for t in b["text"]], dtype="int64"
                    ),
                }
            )

    return ds.map_batches(BpeCount, batch_format="pandas", concurrency=(1, 8))


def q_lang_distribution(sf_dir: str) -> pd.DataFrame:
    from ..ops.relational import pre_aggregate

    ds = _t(sf_dir, "documents", ["lang"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("lang", as_index=False).agg(n_docs=("lang", "size"))

    def final(p: pd.DataFrame) -> pd.DataFrame:
        return (
            p.groupby("lang", as_index=False)
            .agg(n_docs=("n_docs", "sum"))
            .sort_values("lang")
            .reset_index(drop=True)
        )

    return pre_aggregate(ds, ["lang"], partial, final)


def q_top10_longest_en(sf_dir: str) -> rd.Dataset:
    """O1 top-k with a deterministic tie-break."""
    ds = _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    filtered = ds.map_batches(
        lambda b: b[b["lang"] == "en"][["doc_id", "n_chars"]], batch_format="pandas"
    )
    return filtered.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


def q_quality_stats(sf_dir: str) -> rd.Dataset:
    """Quality-signal columns (SQL-expressible subset of ops.textstats)."""
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        n_chars = b["text"].str.len().astype("int64")
        # len(t.split(" ")) == count(" ") + 1, as one C kernel
        n_tokens = (b["text"].str.count(" ") + 1).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "n_chars_calc": n_chars,
                "n_ws_tokens": n_tokens,
                "chars_per_token": _round_half_away(n_chars / n_tokens.clip(lower=1), 4),
            }
        )

    return ds.map_batches(stats, batch_format="pandas")


def q_repetition_stats(sf_dir: str) -> pd.DataFrame:
    """Gopher-style within-document repetition quality signals (duplicate
    line fraction, mean word length) — oracled against DuckDB
    string_split/list_distinct/regexp list arithmetic."""
    from ..ops.textstats import add_repetition_stats

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = add_repetition_stats(ds, "text").to_pandas()
    out["dup_line_frac"] = _round_half_away(out["dup_line_frac"], 6)
    out["mean_word_len"] = _round_half_away(out["mean_word_len"], 6)
    cols = ["doc_id", "n_lines", "n_distinct_lines", "dup_line_frac", "mean_word_len"]
    return out[cols].sort_values("doc_id").reset_index(drop=True)


# ===========================================================================
# Dedup family (D1/D2 + near-dup extensions)
# ===========================================================================
def q_exact_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """D1: one representative (min doc_id) per distinct text + group size."""
    from ..ops.dedup import exact_dedup

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = exact_dedup(ds, "text", "doc_id").to_pandas()
    return out[["doc_id", "n_dups"]].sort_values("doc_id").reset_index(drop=True)


def q_ngram_jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    """Exact 3-gram Jaccard near-dup pairs (threshold 0.5)."""
    from ..ops.dedup import ngram_jaccard_pairs

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, "text", "doc_id", k=3, threshold=0.5)
    out = out.copy()
    out["jaccard"] = _round_half_away(out["jaccard"], 4)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out


def q_minhash_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH near-dup candidates (rows-only check: the LSH banding
    has no SQL equivalent; exactness is cross-checked against
    q_ngram_jaccard_pairs in tests)."""
    from ..ops.dedup import minhash_lsh_duplicates

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.5)
    out = out.copy()
    out["est_jaccard"] = _round_half_away(out["est_jaccard"], 4)
    return out


def q_near_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """End-to-end near-dedup: MinHash-LSH pairs -> connected components ->
    keep the min-id representative per cluster.  PARTIAL SQL oracle
    (round 5): the pair list rides a sidecar parquet and DuckDB
    recomputes the cluster resolution INDEPENDENTLY — transitive closure
    via recursive CTE, min-member representative, anti-join of the
    non-representative members against the documents view.  Minhash pair
    generation itself stays pytest-pinned (signature equivalence tests);
    everything downstream of the pairs is SQL-verified."""
    from ..ops.dedup import dedup_keep_representatives, minhash_lsh_duplicates

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.9)
    _write_oracle_sidecar(
        pairs[["id_a", "id_b"]].astype("int64"), "near_dedup_pairs"
    )
    kept = dedup_keep_representatives(ds, pairs, "doc_id").to_pandas()
    return kept[["doc_id"]].sort_values("doc_id").reset_index(drop=True)


_GLOBAL_FOOTER = "Subscribe to our newsletter | Terms of service apply"


def _with_footers(sf_dir: str) -> rd.Dataset:
    """Documents with a global footer + a per-site (doc_id % 7) footer
    appended — the boilerplate corpus for the chunk-dedup queries."""
    def add(b: pd.DataFrame) -> pd.DataFrame:
        site = (b["doc_id"] % 7).astype(str)
        return b.assign(
            text=b["text"]
            + "\n\n"
            + _GLOBAL_FOOTER
            + "\n\n"
            + "Site "
            + site
            + " portal - all rights reserved worldwide"
        )

    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(add, batch_format="pandas")


def q_repeated_paragraphs(sf_dir: str) -> pd.DataFrame:
    """Chunk-level dedup (CCNet-style terminal-boilerplate removal): every
    doc gets a global footer + one of 7 per-site footers appended; the op
    must find exactly the cross-document repeats with their distinct-doc
    counts.  Fully distributed (the exploded paragraph set never lands on
    the driver) and exactly SQL-mirrored (unnest paragraphs + count
    distinct docs)."""
    from ..ops.dedup import repeated_paragraphs

    rep = repeated_paragraphs(_with_footers(sf_dir), "text", "doc_id", min_docs=10)
    out = rep[["example_text", "n_docs"]].rename(columns={"example_text": "para_text"}).copy()
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values("para_text").reset_index(drop=True)


def q_strip_repeated_paragraphs(sf_dir: str) -> pd.DataFrame:
    """Boilerplate STRIP verification: after removing >=10-doc repeated
    paragraphs, per-doc text lengths (SQL mirror reconstructs the stripped
    text by filtering the same paragraph set)."""
    from ..ops.dedup import strip_repeated_paragraphs

    stripped = strip_repeated_paragraphs(
        _with_footers(sf_dir), "text", "doc_id", min_docs=10
    ).to_pandas()
    out = stripped[["doc_id"]].copy()
    out["n_chars_stripped"] = stripped["text"].str.len().astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_bloom_strip_paragraphs(sf_dir: str) -> pd.DataFrame:
    """Fixed-memory counting-Bloom paragraph strip (ops/dedup.py::
    bloom_strip_repeated_paragraphs — ZERO exchanges, m-byte partials,
    saturating-add merge): at the sized m_bits the fixture has no false
    positives, so the result must equal the exact exchange route
    byte-for-byte (asserted in-query) and carries the SAME full SQL
    oracle as strip_repeated_paragraphs."""
    from ..ops.dedup import bloom_strip_repeated_paragraphs, strip_repeated_paragraphs

    stripped = bloom_strip_repeated_paragraphs(
        # m = 2^21 >> 100x the fixture's distinct-paragraph count; hot
        # positions are only the >=min_docs footers, so a false positive
        # needs a 4/4 hot-position collision — probability ~(1e-4)^4
        _with_footers(sf_dir), "text", "doc_id", min_docs=10, m_bits=1 << 21
    ).to_pandas()
    exact = strip_repeated_paragraphs(
        _with_footers(sf_dir), "text", "doc_id", min_docs=10
    ).to_pandas()
    g = stripped.sort_values("doc_id").reset_index(drop=True)
    e = exact.sort_values("doc_id").reset_index(drop=True)
    assert (g["text"].to_numpy() == e["text"].to_numpy()).all(), (
        "bloom route diverged from exact route (FP at this m_bits?)"
    )
    out = g[["doc_id"]].copy()
    out["n_chars_stripped"] = g["text"].str.len().astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_pack_sequences(sf_dir: str) -> rd.Dataset:
    """Training-sequence packing: concatenate every document's pretokenizer
    stream in doc_id order and assign each doc the 512-token training
    context holding its first token — a distributed ordered prefix sum
    (ops/pack.py two-pass range-shard scan), never a global sort."""
    from ..ops.pack import pack_sequences

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def tc(b: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.compute as pc

        n = pc.count_substring_regex(
            pa.array(b["text"], pa.string()), pattern=r"[A-Za-z]+|[0-9]+|[^ A-Za-z0-9]"
        ).to_numpy(zero_copy_only=False)
        return pd.DataFrame({"doc_id": b["doc_id"], "n_tokens": n.astype("int64")})

    return pack_sequences(
        ds.map_batches(tc, batch_format="pandas"),
        key_col="doc_id",
        count_col="n_tokens",
        chunk_tokens=512,
    )


def q_decontaminate_docs(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: docs sharing any word 4-gram with the
    deterministic eval slice (doc_id % 97 == 0) and how many distinct
    grams leak.  4-grams stand in for the usual 13-grams against this
    corpus's ~31-word vocabulary; the operator is n-agnostic."""
    from ..ops.decontam import contamination_counts

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    ev = docs.map_batches(lambda b: b[b["doc_id"] % 97 == 0], batch_format="pandas")
    tr = docs.map_batches(lambda b: b[b["doc_id"] % 97 != 0], batch_format="pandas")
    out = contamination_counts(tr, ev, id_col="doc_id", text_col="text", n=4).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_pii_redact(sf_dir: str) -> pd.DataFrame:
    """PII scrubbing over deterministically PII-augmented docs: per-doc
    match count + the redacted text itself (value-hashed by the driver).
    One RE2 kernel per rule per batch (functions/pii.py)."""
    from ..functions.pii import redact_pii_batch

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def synth(b: pd.DataFrame) -> pd.DataFrame:
        did = b["doc_id"].astype("int64")
        s = did.astype(str)
        t = (
            b["text"]
            + (" Contact user" + s + "@mail-example.com now.").where(did % 3 == 0, "")
            + (" Call 555-" + (did % 10000).astype(str).str.zfill(4) + " today.").where(
                did % 5 == 0, ""
            )
            + (
                " Origin 10."
                + (did % 256).astype(str)
                + "."
                + ((did * 7) % 256).astype(str)
                + ".1 logged."
            ).where(did % 7 == 0, "")
        )
        return pd.DataFrame({"doc_id": did, "text": t})

    out = (
        ds.map_batches(synth, batch_format="pandas")
        .map_batches(redact_pii_batch, batch_format="pandas")
        .to_pandas()
    )
    return (
        out[["doc_id", "n_pii", "redacted_text"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_top3_docs_per_lang(sf_dir: str) -> pd.DataFrame:
    """Group-wise top-k (the row_number window): 3 longest docs per
    language, deterministic doc_id tie-break, size-aware finish."""
    from ..ops.relational import grouped_top_k

    ds = _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = grouped_top_k(ds, ["lang"], "n_chars", 3, descending=True, tie_col="doc_id")
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out["rk"] = out["rk"].astype("int64")
    return (
        out[["lang", "doc_id", "n_chars", "rk"]]
        .sort_values(["lang", "rk"])
        .reset_index(drop=True)
    )


def q_token_df(sf_dir: str) -> pd.DataFrame:
    """Vocabulary document frequency (IDF statistics): tokens appearing in
    >= 25 distinct docs, via the in-batch (doc, token)-dedup combiner."""
    from ..ops.textstats import token_document_frequency

    out = token_document_frequency(
        _t(sf_dir, "documents", ["doc_id", "text"]), min_df=25
    )
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    return out.sort_values("token").reset_index(drop=True)


def q_error_blast_radius(sf_dir: str) -> pd.DataFrame:
    """General range join (ops/interval.py): every event within +-5 min of
    an error event, counted per error — containment against overlapping
    windows, which no equi-join (and no asof join) can express."""
    from ..ops.interval import interval_join
    from ..ops.relational import auto_group_agg
    from ..sources.ingest import parquet_column_bounds

    ev = _t(sf_dir, "events", ["event_id", "ts", "event_type"])
    # exact point-domain bounds from parquet row-group statistics — the
    # catalog-metadata hint that skips interval_join's min/max scan (one
    # whole Ray execution of the reader lineage)
    bounds = parquet_column_bounds(f"{sf_dir}/events.parquet", "ts")

    def mk_intervals(b: pd.DataFrame) -> pd.DataFrame:
        e = b[b["event_type"] == "error"]
        return pd.DataFrame(
            {
                "err_id": e["event_id"].to_numpy(),
                "w_start": e["ts"] - pd.Timedelta(minutes=5),
                "w_end": e["ts"] + pd.Timedelta(minutes=5),
            }
        )

    intervals = ev.map_batches(mk_intervals, batch_format="pandas")
    points = ev.map_batches(
        lambda b: b[["event_id", "ts"]], batch_format="pandas"
    )
    # map-side combine: each bucket emits (err_id, partial count) instead
    # of the raw pair list — the exchanged/probed payload shrinks from
    # |pairs| to ~|errors x buckets spanned| (the 100-TB-correct shape
    # for a count consumer of a dense window join)
    partials = interval_join(
        points,
        intervals,
        point_col="ts",
        start_col="w_start",
        end_col="w_end",
        point_cols=["event_id"],
        interval_cols=["err_id"],
        closed="left",
        bounds=bounds,
        bucket_combiner=lambda pairs: pairs.groupby("err_id", as_index=False).agg(
            n_nearby=("event_id", "size")
        ),
    )
    out = auto_group_agg(partials, ["err_id"], {"n_nearby": ("n_nearby", "sum")})
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out["n_nearby"] = out["n_nearby"].astype("int64")
    return out.sort_values("err_id").reset_index(drop=True)


def q_epoch_shuffle(sf_dir: str) -> pd.DataFrame:
    """Deterministic epoch shuffle (ops/shuffle.py): reproducible global
    random order via the bijective 32-bit Knuth permutation + distributed
    prefix-count positions — never Dataset.random_shuffle (block-structure
    dependent) and never a global sort."""
    from ..ops.shuffle import epoch_shuffle

    ds = _t(sf_dir, "documents", ["doc_id"])
    out = epoch_shuffle(ds, "doc_id", seed=7)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_source_mixture(sf_dir: str) -> pd.DataFrame:
    """Weighted source mixture (ops/mix.py): per-source sampling weights
    {2.5, 1.0, 0.25, 0.0} by source-number mod 4 — upsampling with copy
    indices, unit weight, downsampling, and exclusion in one pass.
    Map-only, deterministic per (doc_id, seed)."""
    from ..ops.mix import weighted_source_mixture

    weights = {f"src{i}": [2.5, 1.0, 0.25, 0.0][i % 4] for i in range(256)}
    ds = _t(sf_dir, "documents", ["doc_id", "source"])
    out = weighted_source_mixture(
        ds, source_col="source", key_col="doc_id", weights=weights, seed=11
    ).to_pandas()
    return out.sort_values(["doc_id", "copy_idx"]).reset_index(drop=True)


def q_lm_perplexity(sf_dir: str) -> pd.DataFrame:
    """CCNet-style LM quality scoring (ops/lm.py): train an add-0.5
    bigram LM on the doc_id%10<3 slice, score every doc by average
    bigram negative log-likelihood.  Count tables and the per-doc reduce
    flow through the size-aware planners (broadcast here, bucketed
    exchange at corpus scale)."""
    from ..ops.lm import ngram_lm_scores

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    train = ds.map_batches(
        lambda b: b[b["doc_id"] % 10 < 3], batch_format="pandas"
    )
    out = ngram_lm_scores(train, ds)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_training_chunks(sf_dir: str) -> pd.DataFrame:
    """The full training-data layout composition: epoch_shuffle (seed 7)
    fixes a reproducible order -> range_prefix_sum over whitespace token
    counts assigns each doc its context (chunk_tokens=1024) ->
    grouped_ordered_concat materializes each context's text.  Every stage
    is the operator's documented distributed shape; text moves once."""
    from ..ops.chunks import grouped_ordered_concat
    from ..ops.lm import _clean_tokens
    from ..ops.pack import range_prefix_sum
    from ..ops.relational import auto_join
    from ..ops.shuffle import shuffle_hash

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    # shuffle_key IS the order (pos is just its rank — computing the rank
    # would cost a whole extra prefix-count pass for nothing: prefix sums
    # and the final concat order by shuffle_key give the identical layout)
    def key_and_count(b: pd.DataFrame) -> pd.DataFrame:
        _, lens = _clean_tokens(b["text"])
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "sk": shuffle_hash(b["doc_id"].to_numpy(dtype="int64"), 7).astype("int64"),
                "n_tokens": lens,
            }
        )

    keyed = ds.map_batches(key_and_count, batch_format="pandas")
    pref = range_prefix_sum(
        keyed, "sk", "n_tokens", out_col="start_tok", carry_cols=["doc_id"],
        key_max=(1 << 32) - 1,
    )
    packed = pref.map_batches(
        lambda b: b.assign(
            chunk_id=b["start_tok"].to_numpy(dtype="int64") // 1024
        ),
        batch_format="pandas",
    )
    withtext = auto_join(packed, ds, "doc_id")
    out = grouped_ordered_concat(
        withtext, group_col="chunk_id", order_col="sk", text_col="text", sep="\n"
    ).to_pandas()
    out["n_items"] = out["n_items"].astype("int64")
    return (
        out[["chunk_id", "n_items", "chunk_text"]]
        .sort_values("chunk_id")
        .reset_index(drop=True)
    )


def q_simhash_signatures(sf_dir: str) -> pd.DataFrame:
    from ..ops.dedup import simhash_buckets

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = simhash_buckets(ds, "text", "doc_id").to_pandas()
    out["simhash"] = out["simhash"].astype("int64")  # stable arrow type
    return out[["doc_id", "simhash"]].sort_values("doc_id").reset_index(drop=True)


def q_doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    from ..ops.textstats import doc_fingerprint

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = doc_fingerprint(ds, "text").to_pandas()
    out["fp_digest"] = out["fp_digest"].astype("int64")
    return out[["doc_id", "fp_digest"]].sort_values("doc_id").reset_index(drop=True)


def q_langid_pred(sf_dir: str) -> pd.DataFrame:
    from ..ops.textstats import langid_scores

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = langid_scores(ds).to_pandas()
    return out[["doc_id", "pred_lang", "lang_confidence"]].sort_values("doc_id").reset_index(drop=True)


# ===========================================================================
# Joins / aggregates over the TPC-H-ish tables (J1-J6, A1-A6, O1-O5)
# ===========================================================================
def q_orders_by_segment(sf_dir: str) -> pd.DataFrame:
    """J2 broadcast join (customer is the small side) + pre-aggregated
    revenue per market segment."""
    from ..ops.relational import broadcast_hash_join, pre_aggregate

    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = broadcast_hash_join(
        orders.map_batches(
            lambda b: b.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
        ),
        cust,
        "c_custkey",
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(rev_c=_cents(b["o_totalprice"]))
        return b.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("rev_c", "size"), rev_c=("rev_c", "sum")
        )

    def final(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("n_orders", "sum"), rev_c=("rev_c", "sum")
        )
        g["revenue"] = g["rev_c"] / 100.0
        return g.drop(columns=["rev_c"]).sort_values("c_mktsegment").reset_index(drop=True)

    return pre_aggregate(joined, ["c_mktsegment"], partial, final)


def q_lineitem_join_revenue(sf_dir: str) -> pd.DataFrame:
    """Large-side join: lineitem x orders, revenue per order priority,
    shipped before 1996-01-01.  Routed through the size-aware planner
    (auto_join): at bench scale the orders side is under the broadcast
    threshold, so no AllToAll; at corpus scale the same call plans the
    bucketed exchange (equivalence-tested against it)."""
    from ..ops.relational import auto_join, pre_aggregate

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
    li = li.map_batches(
        lambda b: b[b["l_shipdate"] < pd.Timestamp("1996-01-01")]
        .assign(rev_c=lambda d: _cents(d["l_extendedprice"] * (1 - d["l_discount"])))
        .rename(columns={"l_orderkey": "o_orderkey"})[["o_orderkey", "rev_c"]],
        batch_format="pandas",
    )
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = auto_join(li, orders, "o_orderkey", how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("o_orderpriority", as_index=False).agg(
            n_items=("rev_c", "size"), rev_c=("rev_c", "sum")
        )

    def final(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby("o_orderpriority", as_index=False).agg(
            n_items=("n_items", "sum"), rev_c=("rev_c", "sum")
        )
        g["revenue"] = g["rev_c"] / 100.0
        return g.drop(columns=["rev_c"]).sort_values("o_orderpriority").reset_index(drop=True)

    return pre_aggregate(joined, ["o_orderpriority"], partial, final)


def q_lineitem_join_revenue_exchange(sf_dir: str) -> pd.DataFrame:
    """Same result as lineitem_join_revenue but FORCED through the
    bucketed all-to-all exchange (auto_join with threshold 0) — the J2
    large-equi-join plan kept under its own oracle now that the default
    planner broadcasts the orders side at bench scale."""
    from ..ops.relational import auto_join, pre_aggregate

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
    li = li.map_batches(
        lambda b: b[b["l_shipdate"] < pd.Timestamp("1996-01-01")]
        .assign(rev_c=lambda d: _cents(d["l_extendedprice"] * (1 - d["l_discount"])))
        .rename(columns={"l_orderkey": "o_orderkey"})[["o_orderkey", "rev_c"]],
        batch_format="pandas",
    )
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = auto_join(li, orders, "o_orderkey", how="inner", broadcast_threshold_rows=0)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("o_orderpriority", as_index=False).agg(
            n_items=("rev_c", "size"), rev_c=("rev_c", "sum")
        )

    def final(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby("o_orderpriority", as_index=False).agg(
            n_items=("n_items", "sum"), rev_c=("rev_c", "sum")
        )
        g["revenue"] = g["rev_c"] / 100.0
        return g.drop(columns=["rev_c"]).sort_values("o_orderpriority").reset_index(drop=True)

    return pre_aggregate(joined, ["o_orderpriority"], partial, final)


def q_orders_rollup(sf_dir: str) -> pd.DataFrame:
    """``GROUP BY ROLLUP(status, priority)`` — subtotals at every prefix
    level plus the grand total from ONE input scan: the finest level
    finishes size-aware, each coarser level re-aggregates the previous
    one (mergeable aggs compose; `ops/relational.rollup_agg`).  Money as
    integer cents so the parallel sums match DuckDB exactly."""
    from ..ops.relational import rollup_agg

    orders = _t(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(cents=_cents(b["o_totalprice"]))

    out = rollup_agg(
        orders.map_batches(cents, batch_format="pandas"),
        ["o_orderstatus", "o_orderpriority"],
        {"n_orders": ("cents", "count"), "sum_cents": ("cents", "sum")},
    )
    return (
        out.sort_values(["o_orderstatus", "o_orderpriority", "n_orders"])
        .reset_index(drop=True)
    )


def q_late_orders_by_priority(sf_dir: str) -> pd.DataFrame:
    """Correlated EXISTS (TPC-H Q4 shape) rewritten as an aggregate
    semi-join: ``EXISTS (lineitem with l_shipdate > o_orderdate + 60d)``
    needs only each order's MAX ship date — one combiner-pre-aggregated
    max per key (auto_group_agg), one size-aware join, a map-side
    filter, and an enum-sized count.  The corpus-scale lineitem rows
    never ride the join."""
    from ..ops.relational import auto_group_agg, auto_join

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def mx_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("l_orderkey", as_index=False).agg(max_ship=("l_shipdate", "max"))
        return g.rename(columns={"l_orderkey": "o_orderkey"})

    mx = auto_group_agg(
        li.map_batches(mx_partial, batch_format="pandas"),
        ["o_orderkey"],
        {"max_ship": ("max_ship", "max")},
    )
    if isinstance(mx, pd.DataFrame):
        mx = rd.from_pandas(mx)
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    j = auto_join(orders, mx, "o_orderkey", how="inner")

    def late_partial(b: pd.DataFrame) -> pd.DataFrame:
        f = b[b["max_ship"] > b["o_orderdate"] + pd.Timedelta(days=60)]
        return f.groupby("o_orderpriority", as_index=False).size()

    parts = j.map_batches(late_partial, batch_format="pandas").to_pandas()
    out = parts.groupby("o_orderpriority", as_index=False)["size"].sum()
    out = out.rename(columns={"size": "n_late"})
    out["n_late"] = out["n_late"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def q_documents_profile(sf_dir: str) -> pd.DataFrame:
    """One-pass column profiling (`ops/profile.dataset_profile` — the
    engine's ANALYZE): per-column min/max/null-count/row-count from one
    fixed-size partial per (column, batch), zero exchanges."""
    from ..ops.profile import dataset_profile

    ds = _t(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
    return dataset_profile(ds, ["doc_id", "lang", "n_chars", "source"])


def q_orders_pivot(sf_dir: str) -> pd.DataFrame:
    """Wide (pivoted) aggregate — ``COUNT(CASE WHEN status = v THEN 1
    END)`` per priority, one column per status (`ops/relational.
    pivot_agg`: in-batch combiner + ONE index-shard exchange +
    vectorized per-shard pivot; the static ``values`` list keeps the
    column set route-independent)."""
    from ..ops.relational import pivot_agg

    orders = _t(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])
    out = pivot_agg(
        orders,
        "o_orderpriority",
        "o_orderstatus",
        "o_orderstatus",
        how="count",
        values=["F", "O", "P"],
        fill_value=0,
        prefix="n_",
    ).to_pandas()
    for c in ("n_F", "n_O", "n_P"):
        out[c] = out[c].astype("int64")  # SQL COUNT is BIGINT, never NULL
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def q_custkey_set_ops(sf_dir: str) -> pd.DataFrame:
    """SQL set operators (INTERSECT / EXCEPT, distinct semantics) as ONE
    hash-shard exchange each (`ops/relational.dataset_set_op`): customer
    keys that placed orders AND hold a rich account, and those that
    placed orders but do NOT."""
    from ..ops.relational import dataset_set_op

    a = _t(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "custkey"}), batch_format="pandas"
    )
    rich = _t(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda b: b.loc[b["c_acctbal"] > 5000, ["c_custkey"]].rename(
            columns={"c_custkey": "custkey"}
        ),
        batch_format="pandas",
    )
    frames = []
    for op in ("intersect", "except"):
        part = dataset_set_op(a, rich, ["custkey"], op).to_pandas()
        part["op"] = op
        frames.append(part)
    out = pd.concat(frames, ignore_index=True)
    return out[["op", "custkey"]].sort_values(["op", "custkey"]).reset_index(drop=True)


def q_custkey_multiset_ops(sf_dir: str) -> pd.DataFrame:
    """SQL ``INTERSECT ALL`` / ``EXCEPT ALL`` (bag semantics —
    `dataset_set_op(bag=True)`, count combiner + one tuple-hash
    exchange + np.repeat per shard): order custkeys (multiplicity =
    order count) against the customer table (each key once) — except-all
    yields each customer's beyond-first orders, intersect-all each
    ordering customer exactly once.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.relational import dataset_set_op

    a = _t(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "custkey"}), batch_format="pandas"
    )
    c = _t(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: b.rename(columns={"c_custkey": "custkey"}), batch_format="pandas"
    )
    frames = []
    for op in ("intersect", "except"):
        part = dataset_set_op(a, c, ["custkey"], op, bag=True).to_pandas()
        part["op"] = op
        frames.append(part)
    out = pd.concat(frames, ignore_index=True)
    out["custkey"] = out["custkey"].astype("int64")
    return out[["op", "custkey"]].sort_values(["op", "custkey"]).reset_index(drop=True)


def q_stratified_k_sample(sf_dir: str) -> pd.DataFrame:
    """Exact-k-per-group deterministic sampling (the fixed-count dual of
    the fraction-based stratified_sample): 3 docs per language by the
    seeded bijective shuffle hash — `ops/shuffle.grouped_sample_k`, the
    same SQL-mirrorable arithmetic as token_budget_mix, local-prune +
    size-aware finish."""
    from ..ops.shuffle import grouped_sample_k

    docs = _t(sf_dir, "documents", ["doc_id", "lang"])
    out = grouped_sample_k(docs, ["lang"], 3, id_col="doc_id", seed=13)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    return (
        out[["doc_id", "lang", "sk", "rk"]]
        .sort_values(["lang", "rk"])
        .reset_index(drop=True)
    )


def q_tpch_q1(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape (A-cluster): grouped sums/avg with a date filter,
    fully pre-aggregated in-batch."""
    from ..ops.relational import pre_aggregate

    li = _t(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = pd.Timestamp("1998-09-02")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        f = b[b["l_shipdate"] <= cutoff].assign(
            qty_c=lambda d: _cents(d["l_quantity"]),
            base_c=lambda d: _cents(d["l_extendedprice"]),
            disc_c=lambda d: _cents(d["l_extendedprice"] * (1 - d["l_discount"])),
        )
        return f.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            qty_c=("qty_c", "sum"), base_c=("base_c", "sum"), disc_c=("disc_c", "sum"), n=("qty_c", "size")
        )

    def final(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            qty_c=("qty_c", "sum"), base_c=("base_c", "sum"), disc_c=("disc_c", "sum"), n=("n", "sum")
        )
        g["sum_qty"] = g["qty_c"] / 100.0
        g["sum_base_price"] = g["base_c"] / 100.0
        g["sum_disc_price"] = g["disc_c"] / 100.0
        g["avg_qty"] = _round_half_away(g["qty_c"] / 100.0 / g["n"], 4)
        g = g.drop(columns=["qty_c", "base_c", "disc_c"])
        return g.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)

    return pre_aggregate(li, ["l_returnflag", "l_linestatus"], partial, final)


def q_colocated_orders_join(sf_dir: str) -> pd.DataFrame:
    """SHUFFLE-FREE co-located join: orders and customer are first laid
    out by the same hash(c_custkey) % 16 layout (the one-time
    partitioning investment), then joined with one map task per shard
    pair — no exchange anywhere in the join (ops/colocated.py).  Same
    oracle semantics as orders_by_segment."""
    import hashlib as _hl
    import os

    from ..ops.colocated import colocated_join, partition_by_key
    from ..ops.relational import pre_aggregate

    tag = _hl.sha1(sf_dir.encode()).hexdigest()[:10]
    base = f"/tmp/colocated_demo_{tag}"
    ldir, rdir = f"{base}/orders", f"{base}/customer"
    if not (os.path.exists(f"{ldir}/_layout.json") and os.path.exists(f"{rdir}/_layout.json")):
        orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]).map_batches(
            lambda b: b.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
        )
        cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        partition_by_key(orders, ldir, "c_custkey", n_shards=16)
        partition_by_key(cust, rdir, "c_custkey", n_shards=16)
    joined = colocated_join(ldir, rdir, how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(rev_c=_cents(b["o_totalprice"]))
        return b.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("rev_c", "size"), rev_c=("rev_c", "sum")
        )

    def final(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("n_orders", "sum"), rev_c=("rev_c", "sum")
        )
        g["revenue"] = g["rev_c"] / 100.0
        return g.drop(columns=["rev_c"]).sort_values("c_mktsegment").reset_index(drop=True)

    return pre_aggregate(joined, ["c_mktsegment"], partial, final)


def q_revenue_by_nation(sf_dir: str, *, dims: str = "auto") -> pd.DataFrame:
    """TPC-H Q5 shape: lineitem ⋈ supplier ⋈ orders ⋈ customer ⋈ nation ⋈
    region, customer and supplier in the same nation, one region, one
    order-date year.  ``dims="auto"``: when the parquet footers prove
    every dimension side small, the dims are read/joined DRIVER-side
    (zero Ray executions — a chained planner plan costs one serialized
    probe execution per join) and only the lineitem fact stream runs
    distributed with two broadcast joins + enum-key combiner finish.
    Any oversized dim -> the fully planner-composed Dataset plan
    (``dims="dataset"``; route equivalence-tested)."""
    from ..ops.relational import auto_join, broadcast_hash_join, pre_aggregate
    from ..sources.ingest import read_dim_pandas

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("n_name", as_index=False).agg(rev_c=("rev_c", "sum"))

    def final(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby("n_name", as_index=False).agg(rev_c=("rev_c", "sum"))
        g["revenue"] = g["rev_c"] / 100.0
        return (
            g.drop(columns=["rev_c"])
            .sort_values(["revenue", "n_name"], ascending=[False, True])
            .reset_index(drop=True)
        )

    dtabs = None
    if dims == "auto":
        dtabs = {
            name: read_dim_pandas(f"{sf_dir}/{name}.parquet", cols)
            for name, cols in (
                ("region", ["r_regionkey", "r_name"]),
                ("nation", ["n_nationkey", "n_name", "n_regionkey"]),
                ("customer", ["c_custkey", "c_nationkey"]),
                ("supplier", ["s_suppkey", "s_nationkey"]),
                ("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
            )
        }
        if any(v is None for v in dtabs.values()):
            dtabs = None  # some side outgrew the footer gate -> Dataset plan
    if dtabs is not None:
        nations = dtabs["nation"].merge(
            dtabs["region"][dtabs["region"]["r_name"] == "ASIA"],
            left_on="n_regionkey", right_on="r_regionkey",
        )[["n_nationkey", "n_name"]]
        cust = dtabs["customer"].merge(
            nations, left_on="c_nationkey", right_on="n_nationkey"
        )[["c_custkey", "n_nationkey", "n_name"]]
        supp = dtabs["supplier"].merge(
            nations[["n_nationkey"]], left_on="s_nationkey", right_on="n_nationkey"
        ).rename(columns={"n_nationkey": "s_nat"})[["s_suppkey", "s_nat"]]
        o = dtabs["orders"]
        o_c = o[
            (o["o_orderdate"] >= pd.Timestamp("1996-01-01"))
            & (o["o_orderdate"] < pd.Timestamp("1997-01-01"))
        ][["o_orderkey", "o_custkey"]].merge(
            cust, left_on="o_custkey", right_on="c_custkey"
        )[["o_orderkey", "n_nationkey", "n_name"]]
        li = _t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
        li = li.map_batches(
            lambda b: b.assign(rev_c=_cents(b["l_extendedprice"] * (1 - b["l_discount"])))[
                ["l_orderkey", "l_suppkey", "rev_c"]
            ].rename(columns={"l_orderkey": "o_orderkey", "l_suppkey": "s_suppkey"}),
            batch_format="pandas",
        )
        j = broadcast_hash_join(li, o_c, "o_orderkey", how="inner")
        j = broadcast_hash_join(j, supp, "s_suppkey", how="inner")
        j = j.map_batches(lambda b: b[b["s_nat"] == b["n_nationkey"]], batch_format="pandas")
        return pre_aggregate(j, ["n_name"], partial, final)

    region = _t(sf_dir, "region", ["r_regionkey", "r_name"]).map_batches(
        lambda b: b[b["r_name"] == "ASIA"], batch_format="pandas"
    )
    nation = _t(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    # nations of the region (tiny): broadcast-join then project
    nations = auto_join(
        nation.map_batches(
            lambda b: b.rename(columns={"n_regionkey": "r_regionkey"}), batch_format="pandas"
        ),
        region,
        "r_regionkey",
        how="inner",
    ).map_batches(lambda b: b[["n_nationkey", "n_name"]], batch_format="pandas")
    # consumed twice (customer + supplier sides): pin the tiny table once
    nations = nations.materialize()

    cust = auto_join(
        _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
            lambda b: b.rename(columns={"c_nationkey": "n_nationkey"}), batch_format="pandas"
        ),
        nations,
        "n_nationkey",
        how="inner",
    )
    supp = auto_join(
        _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
            lambda b: b.rename(columns={"s_nationkey": "n_nationkey"}), batch_format="pandas"
        ),
        nations.map_batches(lambda b: b[["n_nationkey"]], batch_format="pandas"),
        "n_nationkey",
        how="inner",
    ).map_batches(
        lambda b: b.rename(columns={"n_nationkey": "s_nat"})[["s_suppkey", "s_nat"]],
        batch_format="pandas",
    )
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda b: b[
            (b["o_orderdate"] >= pd.Timestamp("1996-01-01"))
            & (b["o_orderdate"] < pd.Timestamp("1997-01-01"))
        ][["o_orderkey", "o_custkey"]],
        batch_format="pandas",
    )
    # orders of region customers, carrying the customer's nation
    o_c = auto_join(
        orders.map_batches(
            lambda b: b.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
        ),
        cust,
        "c_custkey",
        how="inner",
    )
    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    li = li.map_batches(
        lambda b: b.assign(rev_c=_cents(b["l_extendedprice"] * (1 - b["l_discount"])))[
            ["l_orderkey", "l_suppkey", "rev_c"]
        ].rename(columns={"l_orderkey": "o_orderkey", "l_suppkey": "s_suppkey"}),
        batch_format="pandas",
    )
    j = auto_join(li, o_c, "o_orderkey", how="inner")
    j = auto_join(j, supp, "s_suppkey", how="inner")
    # Q5 semantics: supplier nation == customer nation
    j = j.map_batches(lambda b: b[b["s_nat"] == b["n_nationkey"]], batch_format="pandas")
    return pre_aggregate(j, ["n_name"], partial, final)


def q_top_orders_revenue(sf_dir: str, *, finish: str = "auto") -> pd.DataFrame:
    """Q3 shape: per-order lineitem revenue, top 10, then join order
    metadata.  The per-orderkey reduce is HIGH-cardinality, so the finish
    goes through the size-aware planner (``auto_group_agg``): one driver
    groupby when the probed partial table fits (saves the AllToAll floor
    at sf-scale), the distributed shard exchange above the threshold —
    there each reduced shard emits only its local top 10 and the driver
    sees <= 10 x shards candidate rows.  Routes equivalence-tested."""
    from ..ops.relational import auto_group_agg

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(rev_c=_cents(b["l_extendedprice"] * (1 - b["l_discount"])))
        return b.groupby("l_orderkey", as_index=False).agg(rev_c=("rev_c", "sum"))

    partials = li.map_batches(partial, batch_format="pandas")
    reduced = auto_group_agg(
        partials, ["l_orderkey"], {"rev_c": ("rev_c", "sum")}, finish=finish
    )

    def local_top(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["rev_c", "l_orderkey"], ascending=[False, True]).head(10)

    if isinstance(reduced, pd.DataFrame):
        cand = reduced
    else:
        cand = reduced.map_batches(local_top, batch_format="pandas").to_pandas()
    top = cand.sort_values(["rev_c", "l_orderkey"], ascending=[False, True]).head(10).copy()
    top["revenue"] = top["rev_c"] / 100.0
    top = top.drop(columns=["rev_c"])
    keys = frozenset(top["l_orderkey"])
    orders = (
        _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
        .map_batches(lambda b: b[b["o_orderkey"].isin(keys)], batch_format="pandas")
        .to_pandas()
    )
    out = top.merge(orders, left_on="l_orderkey", right_on="o_orderkey")[
        ["l_orderkey", "revenue", "o_orderpriority"]
    ]
    return out.sort_values(["revenue", "l_orderkey"], ascending=[False, True]).reset_index(drop=True)


def q_customers_with_orders_by_nation(sf_dir: str) -> pd.DataFrame:
    """J6 semi join + count per nation."""
    from ..ops.relational import semi_join

    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _t(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
    )
    matched = semi_join(cust, orders, "c_custkey").to_pandas()
    out = matched.groupby("c_nationkey", as_index=False).agg(n_customers=("c_custkey", "size"))
    return out.sort_values("c_nationkey").reset_index(drop=True)


def q_customers_without_orders(sf_dir: str) -> pd.DataFrame:
    """J6 anti join (the reference's ``none:{}`` filter)."""
    from ..ops.relational import anti_join

    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _t(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
    )
    out = anti_join(cust, orders, "c_custkey").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {"c_custkey": pd.Series(dtype="int64"), "c_nationkey": pd.Series(dtype="int64")}
        )
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_custdist_left_join(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 shape — the LEFT OUTER join the inner-join suite never
    exercises: order counts per customer INCLUDING the zero-order
    customers, then the distribution of customers per count.

    Scale shape: orders are filtered + combiner-pre-aggregated to one
    (custkey, count) row per key BEFORE the join (the per-key table is
    what joins, never the raw orders), the left join runs through the
    size-aware planner (broadcast under the probe threshold, bucketed
    exchange above — ``how="left"`` is route-equivalence-tested in
    TestJoins), and the final distribution is a tiny combiner groupby."""
    from ..ops.relational import auto_group_agg, auto_join

    cust = _t(sf_dir, "customer", ["c_custkey"])
    orders = _t(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        f = b[b["o_orderpriority"] != "1-URGENT"]
        g = f.groupby("o_custkey", as_index=False).size()
        return g.rename(columns={"o_custkey": "c_custkey", "size": "c_count"})

    counts = auto_group_agg(
        orders.map_batches(count_partial, batch_format="pandas"),
        ["c_custkey"],
        {"c_count": ("c_count", "sum")},
    )
    if isinstance(counts, pd.DataFrame):
        counts = rd.from_pandas(counts)
    joined = auto_join(cust, counts, "c_custkey", how="left").to_pandas()
    # unmatched customers: NULL count -> 0 (SQL's COUNT over no rows)
    joined["c_count"] = joined["c_count"].fillna(0).astype("int64")
    dist = joined.groupby("c_count", as_index=False).size()
    dist = dist.rename(columns={"size": "custdist"})
    return (
        dist.sort_values(["custdist", "c_count"], ascending=[False, False])
        .reset_index(drop=True)
    )


def q_full_outer_orders(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER join (the one join form the broadcast probe can never
    express — unmatched build rows must be emitted exactly once, so
    `auto_join` routes it to the bucketed exchange unconditionally):
    customers restricted to every third key vs per-customer order
    counts, classified by which side matched.  Presence is detected on
    never-null payload columns (c_nationkey / n_ord) on both engines."""
    from ..ops.relational import auto_group_agg, auto_join

    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda b: b[b["c_custkey"] % 3 == 0], batch_format="pandas"
    )
    orders = _t(sf_dir, "orders", ["o_custkey"])

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("o_custkey", as_index=False).size()
        return g.rename(columns={"o_custkey": "c_custkey", "size": "n_ord"})

    counts = auto_group_agg(
        orders.map_batches(count_partial, batch_format="pandas"),
        ["c_custkey"],
        {"n_ord": ("n_ord", "sum")},
    )
    if isinstance(counts, pd.DataFrame):
        counts = rd.from_pandas(counts)
    j = auto_join(cust, counts, "c_custkey", how="outer").to_pandas()
    side = np.where(
        j["c_nationkey"].isna(),
        "order_only",
        np.where(j["n_ord"].isna(), "cust_only", "both"),
    )
    out = (
        pd.DataFrame({"side": side})
        .groupby("side", as_index=False)
        .size()
        .rename(columns={"size": "n_rows"})
    )
    return out.sort_values("side").reset_index(drop=True)


def q_top10_orders(sf_dir: str) -> rd.Dataset:
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    # deterministic tie-break on orderkey
    return orders.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def q_orders_page3(sf_dir: str) -> pd.DataFrame:
    """A5 pagination window: page 2 (0-based), 20 rows, ordered by key."""
    from ..ops.relational import paginate

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return paginate(orders, "o_orderkey", page=2, page_size=20)


def q_distinct_event_types(sf_dir: str) -> pd.DataFrame:
    from ..ops.relational import distinct_sorted

    return distinct_sorted(_t(sf_dir, "events", ["event_type"]), "event_type")


# ===========================================================================
# Events: time windows / sessions / json props (§2.8 + M10/M16 analogues)
# ===========================================================================
def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    from ..ops.windows import time_bucket_agg

    ev = _t(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(
        lambda b: b.assign(value=_cents(b["value"])), batch_format="pandas"
    )
    out = time_bucket_agg(ev)
    out["sum_value"] = out["sum_value"] / 100.0
    out["n_events"] = out["n_events"].astype("int64")
    return out


def q_event_sessions(sf_dir: str) -> pd.DataFrame:
    from ..ops.windows import sessionize

    out = sessionize(_t(sf_dir, "events", ["user_id", "ts"]))
    out["session_id"] = out["session_id"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out


def q_events_hopping(sf_dir: str) -> pd.DataFrame:
    """Hopping windows (2h size, 1h step): each event counted in 2
    overlapping windows."""
    from ..ops.windows import hopping_window_agg

    ev = _t(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(
        lambda b: b.assign(value=_cents(b["value"])), batch_format="pandas"
    )
    out = hopping_window_agg(ev, size_hours=2, step_hours=1)
    out["sum_value"] = out["sum_value"] / 100.0
    out["n_events"] = out["n_events"].astype("int64")
    return out


def q_knn_ivf_top10(sf_dir: str) -> pd.DataFrame:
    """IVF ANN variant (rows-only; recall vs brute force tested)."""
    import pyarrow.parquet as pq

    from ..ops.similarity import knn_ivf

    q = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qv = np.asarray(q.filter(np.array(q.column("vec_id").to_pylist()) == 0)["embedding"][0].as_py())
    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda b: b[b["vec_id"] != 0], batch_format="pandas"
    )
    out = knn_ivf(ds, qv, k=10, n_cells=16, n_probe=6)
    out = out[["vec_id", "cosine"]].copy()
    out["cosine"] = _round_half_away(out["cosine"], 4)
    return out.reset_index(drop=True)


def q_median_value_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact grouped median: one event_type shard exchange, then one
    vectorized groupby median per shard (the approx-at-scale path is the
    mergeable quantile sketch below)."""
    from ..ops.exchange import exchange

    ev = _t(sf_dir, "events", ["event_type", "value"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("event_type", as_index=False, dropna=False).agg(
            median_value=("value", "median")
        )

    out = exchange(ev, "event_type", med).to_pandas()
    out["median_value"] = _round_half_away(out["median_value"], 4)
    return out.sort_values("event_type").reset_index(drop=True)


def q_approx_median_value_by_type(sf_dir: str) -> pd.DataFrame:
    """Mergeable-quantile-sketch grouped median (ops/sketch.py) — the
    approx-at-scale path beside the exact q_median_value_by_type
    (rows-only: sketch interpolation has no SQL analogue; rank error
    bounded in tests)."""
    from ..ops.sketch import grouped_quantile_sketch

    ev = _t(sf_dir, "events", ["event_type", "value"])
    out = grouped_quantile_sketch(ev, "event_type", "value", quantile=0.5, k=256)
    out = out.rename(columns={"q0.5": "approx_median"})
    out["approx_median"] = _round_half_away(out["approx_median"], 4)
    out["n"] = out["n"].astype("int64")
    return out.reset_index(drop=True)


def q_distinct_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact count-distinct per group: in-batch pair dedup (combiner), one
    shuffle over distinct pairs, then a tiny count."""
    ev = _t(sf_dir, "events", ["event_type", "user_id"])

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates()

    distinct_pairs = ev.map_batches(pairs, batch_format="pandas").to_pandas().drop_duplicates()
    out = distinct_pairs.groupby("event_type", as_index=False).agg(n_users=("user_id", "nunique"))
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def q_asof_last_signup(sf_dir: str) -> pd.DataFrame:
    """As-of join: for each error event, the same user's most recent
    signup at-or-before it (F-class range join; DuckDB ASOF oracle)."""
    from ..ops.relational import asof_join

    ev = _t(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    errors = ev.map_batches(
        lambda b: b[b["event_type"] == "error"][["event_id", "user_id", "ts"]],
        batch_format="pandas",
    )
    signups = ev.map_batches(
        lambda b: b[b["event_type"] == "signup"].rename(columns={"event_id": "signup_id"})[
            ["user_id", "ts", "signup_id"]
        ],
        batch_format="pandas",
    )
    out = asof_join(errors, signups, key="user_id", ts="ts", right_cols=["signup_id"]).to_pandas()
    out = out[["event_id", "signup_id"]].copy()
    # asof_join restores int dtypes internally; these casts just pin the
    # exact oracle-compare dtypes (signup_id nullable -> float64 NaN)
    out["event_id"] = out["event_id"].astype("int64")
    out["signup_id"] = out["signup_id"].astype("Int64").astype("float64")  # nullable -> NaN
    return out.sort_values("event_id").reset_index(drop=True)


def q_rolling_1h_value(sf_dir: str) -> pd.DataFrame:
    """Event-time RANGE-frame moving window: trailing 1-hour event count +
    value sum per user (`SUM/COUNT OVER (PARTITION BY user_id ORDER BY ts
    RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)`), one row
    per distinct (user_id, ts) peer class — `ops/windows.grouped_rolling_agg`,
    oracle-compared in tests/test_ops.py::TestTailQueryOracles."""
    from ..ops.windows import grouped_rolling_agg

    ev = _t(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(
        lambda b: b.assign(value=_cents(b["value"])), batch_format="pandas"
    )
    out = grouped_rolling_agg(
        ev, key_col="user_id", ts_col="ts", value_col="value", window="1h"
    )
    out["roll_value"] = out["roll_value"] / 100.0
    out["n_at_ts"] = out["n_at_ts"].astype("int64")
    out["roll_n"] = out["roll_n"].astype("int64")
    return out


def q_running_totals(sf_dir: str) -> pd.DataFrame:
    """Per-user running sum ordered by ts (the window-function shape):
    ONE hash-shard exchange on the user key, then a vectorized pandas
    pass per shard (sort by (user, ts, id), per-user cents cumsum) — no
    per-user Python calls."""
    from ..ops.exchange import exchange

    ev = _t(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort").copy()
        g["__c"] = _cents(g["value"])
        g["running_value"] = g.groupby("user_id")["__c"].cumsum() / 100.0
        return g[["event_id", "user_id", "running_value"]]

    out = exchange(ev, "user_id", per_shard).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_event_gaps(sf_dir: str) -> pd.DataFrame:
    """LAG/LEAD window functions (``LAG(ts) OVER (PARTITION BY user
    ORDER BY ts, id)``): per-user gap since the previous event in exact
    microseconds plus the next event's id — `ops/windows.grouped_shift`,
    one bounded hash-shard exchange, vectorized cython shift per shard.
    First events (no predecessor) are dropped like the SQL's
    ``WHERE prev_ts IS NOT NULL``; the lead of a last event is -1 on both
    engines (COALESCE)."""
    from ..ops.windows import grouped_shift

    ev = _t(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = grouped_shift(
        ev,
        key_col="user_id",
        order_cols=["ts", "event_id"],
        shifts={"prev_ts": ("ts", 1), "next_id": ("event_id", -1)},
    )
    out = out[out["prev_ts"].notna()].copy()
    # integer microseconds: exact on both engines (float seconds are not)
    out["gap_us"] = (
        (out["ts"] - out["prev_ts"]).to_numpy().astype("timedelta64[us]").astype("int64")
    )
    out["next_id"] = out["next_id"].fillna(-1).astype("int64")
    return (
        out[["event_id", "user_id", "gap_us", "next_id"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


_JSON_K_RE = re.compile(r'"k"\s*:\s*(-?\d+)')


def q_events_json_k(sf_dir: str) -> rd.Dataset:
    """M10/M16-style field extraction from a JSON props column."""
    ds = _t(sf_dir, "events", ["event_id", "props"])

    def ext(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"],
                "k": b["props"].str.extract(_JSON_K_RE, expand=False).astype("int64"),
            }
        )

    return ds.map_batches(ext, batch_format="pandas")


# ===========================================================================
# Similarity search over embeddings
# ===========================================================================
def q_knn_cosine_top10(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-10 neighbours of vec 0 (excluding itself)."""
    from ..ops.similarity import knn_brute_force

    import pyarrow.parquet as pq

    q = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qv = np.asarray(q.filter(np.array(q.column("vec_id").to_pylist()) == 0)["embedding"][0].as_py())
    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda b: b[b["vec_id"] != 0], batch_format="pandas"
    )
    out = knn_brute_force(ds, qv, k=10)
    out = out[["vec_id", "cosine"]].copy()
    out["cosine"] = _round_half_away(out["cosine"], 4)
    return out.reset_index(drop=True)


def q_knn_lsh_top10(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed approximate variant (rows-only; recall measured in
    tests against the brute-force baseline)."""
    from ..ops.similarity import knn_lsh

    import pyarrow.parquet as pq

    q = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qv = np.asarray(q.filter(np.array(q.column("vec_id").to_pylist()) == 0)["embedding"][0].as_py())
    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda b: b[b["vec_id"] != 0], batch_format="pandas"
    )
    out = knn_lsh(ds, qv, k=10)
    out = out[["vec_id", "cosine"]].copy()
    out["cosine"] = _round_half_away(out["cosine"], 4)
    return out.reset_index(drop=True)


def q_embedding_cosine_pairs(sf_dir: str) -> pd.DataFrame:
    """Embedding near-dup pairs among vec_id < 1500 (cosine >= 0.4)."""
    from ..ops.dedup import embedding_cosine_pairs

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda b: b[b["vec_id"] < 1500], batch_format="pandas"
    )
    out = embedding_cosine_pairs(ds, "embedding", "vec_id", threshold=0.4)
    out = out.copy()
    out["cosine"] = _round_half_away(out["cosine"], 4)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.reset_index(drop=True)


def q_fuzzy_join_typos(sf_dir: str) -> pd.DataFrame:
    """Blocked fuzzy join (J4 at dataset scale): part names vs typo'd
    variants (one char replaced by '#' at p_partkey % len), all pairs with
    levenshtein <= 2 via PassJoin segment blocking + banded-DP verify —
    exact (oracle: DuckDB levenshtein over the cross join)."""
    from ..ops.fuzzy import fuzzy_join_lev

    # part names draw from a small colour vocabulary, so lev<=2
    # cross-pairs are dense — a 400-part slice keeps the oracle's exact
    # cross join and the verified pair set at demo size
    part = _t(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda b: b[b["p_partkey"] < 400], batch_format="pandas"
    )
    left = part.map_batches(
        lambda b: pd.DataFrame({"id": b["p_partkey"], "name": b["p_name"]}),
        batch_format="pandas",
    )

    def typo(b: pd.DataFrame) -> pd.DataFrame:
        names = []
        for pk, s in zip(b["p_partkey"], b["p_name"]):
            pos = int(pk) % len(s)
            names.append(s[:pos] + "#" + s[pos + 1 :])
        return pd.DataFrame({"id": b["p_partkey"], "name": names})

    right = part.map_batches(typo, batch_format="pandas")
    out = fuzzy_join_lev(left, right, id_col="id", str_col="name", max_dist=2)
    return out[["id_l", "id_r", "lev_dist"]]


def q_embedding_near_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """LSH-BUCKETED embedding near-dedup (the default >= 0.8 route — no
    full-matrix broadcast): the corpus is augmented with a scaled copy of
    every vector (vec_id + 100000, embedding * 0.7 — same direction, so
    cosine 1.0 and identical hyperplane signatures -> deterministic
    recall); the op must recover exactly the copy pairs."""
    from ..ops.dedup import embedding_cosine_pairs

    base = _t(sf_dir, "embeddings", ["vec_id", "embedding"])

    def copies(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vec_id": b["vec_id"] + 100000,
                "embedding": [np.asarray(v, dtype=np.float64) * 0.7 for v in b["embedding"]],
            }
        )

    def originals(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vec_id": b["vec_id"],
                "embedding": [np.asarray(v, dtype=np.float64) for v in b["embedding"]],
            }
        )

    # pinned once: the op consumes the augmented table three times (dim
    # probe, signature pass, verification fetch) and embeddings are tiny
    # relative to text
    ds = (
        base.map_batches(originals, batch_format="pandas")
        .union(base.map_batches(copies, batch_format="pandas"))
        .materialize()
    )
    out = embedding_cosine_pairs(ds, "embedding", "vec_id", threshold=0.95)
    out = out.copy()
    out["cosine"] = _round_half_away(out["cosine"], 4)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ===========================================================================
# Scalar-library queries (M9 slug, M13 hijri)
# ===========================================================================
def q_customer_slugs(sf_dir: str) -> rd.Dataset:
    from ..functions.slug import slugify

    ds = _t(sf_dir, "customer", ["c_custkey", "c_name"])

    def sl(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"c_custkey": b["c_custkey"], "slug": b["c_name"].map(slugify)})

    return ds.map_batches(sl, batch_format="pandas")


def q_hijri_order_years(sf_dir: str) -> rd.Dataset:
    """M13: hijri year of each order date's Jan-1 (pure integer julian-day
    arithmetic, mirrored exactly by the SQL oracle)."""
    from ..functions.hijri import gregorian_to_hijri_year

    ds = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def hy(b: pd.DataFrame) -> pd.DataFrame:
        years = b["o_orderdate"].dt.year
        return pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"],
                "hijri_year": years.map(gregorian_to_hijri_year).astype("int64"),
            }
        )

    return ds.map_batches(hy, batch_format="pandas")


# ===========================================================================
# Flagship extraction (rows-only: not SQL-expressible)
# ===========================================================================
def q_extract_docs(sf_dir: str) -> pd.DataFrame:
    """The flagship pipeline over the deterministic synthetic pages corpus
    (sf_dir's tables carry no html; FIXTURES.md §4).  The sha256 column
    pins the byte-identical invariant into the driver's value-hash."""
    import hashlib

    from ..corpus import make_pages_table
    from .extraction import extraction_pipeline

    pages = rd.from_arrow(make_pages_table(60))
    df = extraction_pipeline(pages).to_pandas()
    df["text_sha256"] = df["extracted_text"].map(lambda t: hashlib.sha256(t.encode()).hexdigest())
    out = df[["url", "n_pages", "total_words", "n_failed_pages", "text_sha256"]]
    return out.sort_values("url").reset_index(drop=True)


def q_extract_pdf_docs(sf_dir: str) -> pd.DataFrame:
    """Real-PDF extraction end-to-end (rows-only: PDF parsing has no SQL
    analogue): documents' texts are laid out as genuine ISO 32000 PDFs
    (Flate streams; alternating classic-xref / object-stream / Tm-
    positioned writer variants), one single-page PDF row per page, 1-3
    pages per url, then the flagship pipeline (ExtractPages -> reassemble)
    recovers them.  The sha256 pins byte-identical extraction."""
    import hashlib

    from ..sources.pdfgen import encrypt_pdf_aes128, encrypt_pdf_rc4, make_article_pdf
    from .extraction import extraction_pipeline

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b[b["doc_id"] < 40], batch_format="pandas"
    )

    def to_pdf_pages(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for i, text in zip(b["doc_id"], b["text"]):
            i = int(i)
            words = text.split()
            n_pages = i % 3 + 1
            for p in range(n_pages):
                chunk = words[p * 30 : (p + 1) * 30] or ["empty", "page", "filler"]
                paras = [" ".join(chunk[:15]), " ".join(chunk[15:])]
                paras = [x for x in paras if x]
                variant = (i + p) % 4
                pdf = make_article_pdf(
                    f"Document {i} part {p}",
                    paras,
                    page_number=p + 1,
                    footnote="1. generated fixture" if i % 2 == 0 else None,
                    use_objstm=variant in (1, 3),
                    use_tm=variant in (2, 3),
                    # every third url paints its second half via a Form
                    # XObject (the header/letterhead shape)
                    use_form_xobj=i % 3 == 1,
                )
                # encrypted url classes (empty user password): the
                # extractor must DECRYPT these, not salvage them
                # (encryptors imported at the query level — closure
                # capture; lazy relative imports fail on pickle-by-value
                # workers, CLAUDE.md invariant)
                if i % 5 == 2 and variant not in (1, 3):  # classic-xref only
                    pdf = encrypt_pdf_rc4(pdf, revision=3)
                elif i % 5 == 4 and variant not in (1, 3):
                    pdf = encrypt_pdf_aes128(pdf)
                rows.append(
                    {
                        "url": f"pdf://doc/{i:04d}",
                        "warc_ts": pd.Timestamp("2024-01-01") + pd.Timedelta(seconds=p),
                        "html": pdf,
                        "text": "",
                        "lang": "en",
                    }
                )
        if not rows:  # typed empty: a columnless frame diverges block schemas
            return pd.DataFrame(
                {
                    "url": pd.Series(dtype="object"),
                    "warc_ts": pd.Series(dtype="datetime64[us]"),
                    "html": pd.Series(dtype="object"),
                    "text": pd.Series(dtype="object"),
                    "lang": pd.Series(dtype="object"),
                }
            )
        return pd.DataFrame(rows)

    pages = docs.map_batches(to_pdf_pages, batch_format="pandas")
    df = extraction_pipeline(pages).to_pandas()
    df["text_sha256"] = df["extracted_text"].map(lambda t: hashlib.sha256(t.encode()).hexdigest())
    out = df[["url", "n_pages", "total_words", "n_failed_pages", "text_sha256"]]
    return out.sort_values("url").reset_index(drop=True)


def q_rasterize_pdf_pages(sf_dir: str) -> pd.DataFrame:
    """S4 first half (rows-only): render real PDF pages to 2x grayscale
    pixels (reference ocr.ts:56-71's pdf-to-img step) via the actor-pool
    raster stage, then report per-page geometry + a sha256 of the PNG
    payload (pins byte-determinism under any parallelism)."""
    import hashlib

    from ..sources.pdfgen import make_article_pdf
    from ..stages.raster import rasterize_pdf_pages

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b[b["doc_id"] < 16], batch_format="pandas"
    )

    def to_pdf(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for i, text in zip(b["doc_id"], b["text"]):
            i = int(i)
            words = text.split()[:40]
            pdf = make_article_pdf(
                f"Raster doc {i}",
                [" ".join(words[:20]), " ".join(words[20:]) or "filler"],
                page_number=1,
                use_objstm=i % 2 == 1,
            )
            rows.append({"url": f"pdf://raster/{i:04d}", "html": pdf})
        if not rows:
            return pd.DataFrame(
                {"url": pd.Series(dtype="object"), "html": pd.Series(dtype="object")}
            )
        return pd.DataFrame(rows)

    pages = rasterize_pdf_pages(docs.map_batches(to_pdf, batch_format="pandas"))
    df = pages.to_pandas()
    df["png_sha256"] = df["png"].map(lambda p: hashlib.sha256(bytes(p)).hexdigest())
    out = df[["url", "page_idx", "width", "height", "ink_ratio", "png_sha256"]]
    return out.sort_values(["url", "page_idx"]).reset_index(drop=True)


def q_url_canonical_dedup(sf_dir: str) -> pd.DataFrame:
    """URL canonicalization -> url-level dedup (the Common-Crawl dedup
    precursor): four messy raw spellings per page group (scheme/host
    case, www, :443, fragments, utm params, query order, trailing
    slashes) collapse under ``canonicalize_url``; the reduce groups by
    the canonical key.  SQL-oracled step for step (regexp_replace /
    list_sort / list_filter mirror)."""
    from ..functions.url import add_canonical_url
    from ..ops.relational import auto_group_agg

    docs = _t(sf_dir, "documents", ["doc_id"])

    def synth(b: pd.DataFrame) -> pd.DataFrame:
        urls = []
        for i in b["doc_id"]:
            i = int(i)
            g = i // 4
            v = i % 4
            src = f"site{g % 7}"  # host shared by the whole quadruple
            if v == 0:
                u = f"HTTPS://WWW.{src}.com:443/doc/{g}/?b=2&a=1&utm_source=x#top"
            elif v == 1:
                u = f"https://{src}.com/doc/{g}?a=1&b=2"
            elif v == 2:
                u = f"https://www.{src}.com/doc/{g}/#sec"
            else:
                u = f"HTTPS://{src}.COM:443/doc/{g}?utm_campaign=z&a=1&b=2"
            urls.append(u)
        return pd.DataFrame({"doc_id": b["doc_id"], "url": urls})

    canon = add_canonical_url(docs.map_batches(synth, batch_format="pandas"), "url")
    red = auto_group_agg(
        canon.map_batches(lambda b: b[["canonical_url", "doc_id"]], batch_format="pandas"),
        ["canonical_url"],
        {"n_variants": ("doc_id", "size"), "min_doc_id": ("doc_id", "min")},
    )
    out = red if isinstance(red, pd.DataFrame) else red.to_pandas()
    out = out.astype({"n_variants": "int64", "min_doc_id": "int64"})
    return out.sort_values("canonical_url").reset_index(drop=True)


def q_dataset_split(sf_dir: str) -> rd.Dataset:
    """Deterministic train/val/test assignment — a training-data staple:
    split by key arithmetic (stable under any parallelism; mirrored in
    SQL), then per-split counts."""
    ds = _t(sf_dir, "documents", ["doc_id"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        m = b["doc_id"] % 10
        split = np.where(m < 8, "train", np.where(m == 8, "val", "test"))
        return pd.DataFrame({"doc_id": b["doc_id"], "split": split})

    assigned = ds.map_batches(assign, batch_format="pandas")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("split", as_index=False).agg(n_docs=("doc_id", "size"))

    parts = assigned.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("split", as_index=False).agg(n_docs=("n_docs", "sum"))
    return out.sort_values("split").reset_index(drop=True)


def q_union_sources(sf_dir: str) -> pd.DataFrame:
    """Dataset.union coverage: two filtered streams unioned, then counted."""
    a = _t(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        lambda b: b[b["lang"] == "en"], batch_format="pandas"
    )
    b = _t(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        lambda b: b[b["lang"] == "es"], batch_format="pandas"
    )
    u = a.union(b)
    out = u.to_pandas().groupby("lang", as_index=False).agg(n_docs=("doc_id", "size"))
    return out.sort_values("lang").reset_index(drop=True)


def q_stratified_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic per-language downsampling (en 50%, es 20%, rest 0%);
    integer-hash arithmetic mirrored exactly by the SQL oracle."""
    from ..ops.relational import stratified_sample

    ds = _t(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(ds, "doc_id", "lang", {"en": 0.5, "es": 0.2})


def q_pushdown_filter_read(sf_dir: str) -> rd.Dataset:
    """S6 predicate-pushdown read (the Airtable filterByFormula analogue,
    texts.airtable.ts:41-60): the filter expression is pushed into the
    parquet scan so non-matching row groups never leave storage."""
    import pyarrow.compute as pc_

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderpriority"],
        filter=(pc_.field("o_orderpriority") == "1-URGENT") & (pc_.field("o_totalprice") > 200000.0),
    )
    return ds


def q_first_error_event(sf_dir: str) -> pd.DataFrame:
    """O5 'first unreviewed page' analogue: earliest event of a type."""
    ev = _t(sf_dir, "events", ["event_id", "ts", "event_type"])
    filt = ev.map_batches(lambda b: b[b["event_type"] == "error"], batch_format="pandas")
    return filt.sort(["ts", "event_id"]).limit(1).to_pandas()[["event_id", "ts"]]


def q_extract_pages(sf_dir: str) -> pd.DataFrame:
    """Per-page extraction output with page_idx rank (FIXTURES.md §3 shape;
    rows-only — deterministic, frozen by the golden tests)."""
    from ..corpus import make_pages_table
    from ..stages.reassemble import assign_page_idx
    from .extraction import extract_pages_ds

    pages = rd.from_arrow(make_pages_table(40))
    out = assign_page_idx(extract_pages_ds(pages)).to_pandas()
    out = out[["url", "page_idx", "header", "body", "footnotes", "page_number", "total_words", "failed_stage"]]
    return out.sort_values(["url", "page_idx"]).reset_index(drop=True)


def q_catalog_ingest(sf_dir: str) -> pd.DataFrame:
    """Catalog metadata ingest chain (M10/M11/D2/D3; rows-only — the
    sidecar table is synthesized, FIXTURES.md §2)."""
    from ..corpus import make_docs_meta_table
    from .catalog import catalog_ingest

    meta = rd.from_arrow(make_docs_meta_table(60))
    out = catalog_ingest(meta).to_pandas()
    out = out[["url", "external_ref", "slug", "publisher", "publication_year"]]
    return out.sort_values("url").reset_index(drop=True)


def q_audio_features(sf_dir: str) -> pd.DataFrame:
    """Audio decode -> frame explode -> per-frame features over REAL WAV
    payloads (vendored RIFF/PCM16 codec; deterministic synthesized
    clips — sine + seeded noise).  Rows-only: per-frame RMS/ZCR/centroid
    have no SQL analogue."""
    import pyarrow as pa

    from ..multimodal import audio_frame_features, decode_audio
    from ..multimodal.audio import AUDIO_SCHEMA
    from ..multimodal.codecs import encode_wav

    n = 16
    payloads, n_samples = [], []
    for i in range(n):
        ns = 2048 + 512 * (i % 6)
        t_ax = np.arange(ns, dtype=np.float64)
        rng = np.random.RandomState(1000 + i)
        wave = 0.6 * np.sin(2 * np.pi * (110 + 50 * i) * t_ax / 16000) + 0.05 * rng.randn(ns)
        payloads.append(encode_wav(wave, 16000))
        n_samples.append(ns)
    t = pa.table(
        {
            "media_id": pa.array([f"clip{i:03d}" for i in range(n)], pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "sample_rate": pa.array([16000] * n, pa.int32()),
            "n_samples": pa.array(n_samples, pa.int64()),
        },
        schema=AUDIO_SCHEMA,
    )
    out = audio_frame_features(decode_audio(rd.from_arrow(t))).to_pandas()
    out = out[["media_id", "frame_idx"]].copy()
    return out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


def q_image_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal pipeline: decode REAL PNG payloads (vendored pure-python
    codec — zlib IDAT, gray/RGB/RGBA coverage) -> resize -> features
    (rows-only: pixel hashing has no SQL analogue)."""
    import pyarrow as pa

    from ..multimodal import decode_images, image_features, resize_images
    from ..multimodal.codecs import encode_png
    from ..multimodal.decode import IMAGE_SCHEMA

    n = 64
    payloads, ws, hs = [], [], []
    for i in range(n):
        w, h = 32 + (i % 8) * 4, 24 + (i % 5) * 2
        rng = np.random.RandomState(2000 + i)
        grad = (np.arange(w) * 255 // max(1, w - 1))[None, :].repeat(h, axis=0).astype(np.uint8)
        if i % 3 == 0:  # grayscale
            img = grad
        elif i % 3 == 1:  # RGB gradient + seeded noise
            img = np.stack([grad, grad[::-1], rng.randint(0, 256, (h, w), dtype=np.uint8)], axis=2)
        else:  # RGBA (alpha dropped by the decoder)
            img = np.stack(
                [grad, rng.randint(0, 256, (h, w), dtype=np.uint8), grad, grad], axis=2
            )
        payloads.append(encode_png(img))
        ws.append(w)
        hs.append(h)
    t = pa.table(
        {
            "media_id": pa.array([f"img{i:03d}" for i in range(n)], pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["image/png"] * n, pa.string()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
        },
        schema=IMAGE_SCHEMA,
    )
    ds = resize_images(decode_images(rd.from_arrow(t)), 16, 16)
    out = image_features(ds).to_pandas()
    out = out[["media_id", "phash"]]
    return out.sort_values("media_id").reset_index(drop=True)


def q_video_frame_features(sf_dir: str) -> pd.DataFrame:
    """Video path: PNG-sequence containers (real PNG frame decode with
    random access) -> every-Nth frame sampling -> per-frame features
    (rows-only)."""
    import pyarrow as pa

    from ..multimodal import image_features, sample_frames
    from ..multimodal.codecs import encode_png_seq

    clips = []
    for c in range(8):
        rng = np.random.RandomState(3000 + c)
        n = 6 + (c % 5)
        frames = [rng.randint(0, 256, (8, 12, 3), dtype=np.uint8) for _ in range(n)]
        clips.append(encode_png_seq(frames))
    t = pa.table(
        {
            "media_id": pa.array([f"vid{c:02d}" for c in range(8)], pa.string()),
            "payload": pa.array(clips, pa.binary()),
            "n_frames": pa.array([0] * 8, pa.int64()),  # container-derived
        }
    )
    ds = sample_frames(rd.from_arrow(t), every_n=3)
    out = image_features(ds).to_pandas()
    out = out[["media_id", "frame_idx", "phash"]].copy()
    out["frame_idx"] = out["frame_idx"].astype("int64")
    return out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


def q_curate_corpus(sf_dir: str) -> pd.DataFrame:
    """Full curation chain over the synthetic pages corpus: extract ->
    quality gate -> exact + near dedup -> split.  PARTIAL SQL oracle
    (round 5): the query recomputes its own gated prefix (byte-stable
    extraction + gate, golden-pinned) and the near-dup pair list
    (pytest-pinned minhash) into sidecar parquets; DuckDB then
    INDEPENDENTLY recomputes exact dedup (min-url winner + n_dups per
    distinct text), connected-component cluster resolution (recursive
    CTE), the representative keep rule, and the final projection — the
    verdict-suggested gate+dedup-prefix recompute."""
    from ..corpus import make_pages_table
    from ..ops.dedup import exact_dedup, minhash_lsh_duplicates
    from .curate import assign_split, curate_corpus, quality_gate
    from .extraction import extraction_pipeline

    pages = rd.from_arrow(make_pages_table(60))
    out = curate_corpus(pages, min_tokens=5).to_pandas()
    out = out[["url", "n_pages", "total_words", "pred_lang", "split", "n_dups"]]

    # oracle sidecars: the chain's own prefix, recomputed (extraction is
    # byte-stable, so this equals the chain's internal intermediate)
    gated = assign_split(
        quality_gate(
            extraction_pipeline(rd.from_arrow(make_pages_table(60))),
            min_tokens=5,
        )
    )
    gated_df = gated.to_pandas()[
        ["url", "extracted_text", "n_pages", "total_words", "pred_lang", "split"]
    ]
    _write_oracle_sidecar(gated_df, "curate_gated")
    deduped = exact_dedup(
        rd.from_pandas(gated_df[["url", "extracted_text"]]),
        "extracted_text",
        "url",
    )
    pairs = minhash_lsh_duplicates(deduped, "extracted_text", "url", threshold=0.9)
    _write_oracle_sidecar(pairs[["id_a", "id_b"]].astype(str), "curate_pairs")
    return out.sort_values("url").reset_index(drop=True)


def q_ccnet_ppl_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet-style corpus partition (Wenzek et al. 2020 §3.3): every doc
    assigned head/middle/tail by its PER-LANGUAGE perplexity tercile
    under the distributed bigram LM (same train split as lm_perplexity),
    via `grouped_rank_buckets` — rank window on one lang-shard exchange,
    ties broken by doc_id."""
    from ..ops.lm import ngram_lm_scores
    from ..ops.relational import auto_join, grouped_rank_buckets

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    train = ds.map_batches(
        lambda b: b[b["doc_id"] % 10 < 3], batch_format="pandas"
    )
    scores = ngram_lm_scores(train, ds)
    if isinstance(scores, pd.DataFrame):
        scores = rd.from_pandas(scores)
    scored = auto_join(
        scores.select_columns(["doc_id", "avg_nll"]),
        _t(sf_dir, "documents", ["doc_id", "lang"]),
        "doc_id",
        how="inner",
    )
    # rank by the HALF-AWAY-ROUNDED score (9 dp, DuckDB ROUND mirror):
    # cross-engine float sums differ by ulps, and identical-text docs
    # must TIE (doc_id-broken) on both engines or a pair straddling a
    # tercile boundary flips its bucket — rounding collapses ulp noise
    # into the same tie on both sides
    scored = scored.map_batches(
        lambda b: b.assign(nll_r=_round_half_away(b["avg_nll"], 9)),
        batch_format="pandas",
    )
    out = grouped_rank_buckets(
        scored,
        ["lang"],
        ["nll_r", "doc_id"],
        n_buckets=3,
        labels=["head", "middle", "tail"],
        out_col="ppl_bucket",
    ).to_pandas()
    return (
        out[["doc_id", "lang", "ppl_bucket"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_dup_span_stats(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr-style duplicated-span statistics (Lee et al. 2021):
    per-doc count of 8-token windows whose content repeats corpus-wide,
    plus the token-union coverage those windows would cut.  All-integer
    output; the SQL mirror groups by the window STRING where the op
    groups by its 64-bit hash (identical up to collisions — the
    ngram_jaccard_pairs convention)."""
    from ..ops.spans import dup_span_stats

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = dup_span_stats(ds, "text", "doc_id", width=8, min_count=2).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_strip_dup_spans(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr CUT verification: every token covered by a duplicated
    8-window removed, survivors re-joined — full stripped text compared
    against the SQL reconstruction (string_agg over non-covered token
    positions)."""
    from ..ops.spans import strip_duplicated_spans

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = strip_duplicated_spans(ds, "text", "doc_id", width=8, min_count=2).to_pandas()
    return out[["doc_id", "text"]].sort_values("doc_id").reset_index(drop=True)


def q_approx_distinct_users(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog distinct-count sketch over events.user_id — the
    map-only COUNT(DISTINCT) for when the distinct set outgrows an
    exchange (4 KB of broadcast-free state at p=12; ~1.6% stderr).
    Rows-only: estimates have no SQL equivalent; the error bound vs the
    exact count is pinned in pytest."""
    from ..ops.sketch import approx_distinct

    ev = _t(sf_dir, "events", ["user_id"])
    return pd.DataFrame({"n_users_approx": [approx_distinct(ev, "user_id")]})


def q_merge_volumes(sf_dir: str) -> pd.DataFrame:
    """Multi-volume PDF merge with splitsData lineage (reference
    useMergePdf.ts:5-28; rows-only — the merge of parsed PDFs has no SQL
    analogue): parse the corpus' single-page volumes, merge every 3
    consecutive documents into one book, emit per-source [{start,end}]
    page spans.  Page-count conservation + splits coverage are pinned by
    pytest (TestMergeDocuments) and re-asserted here in-query so the
    driver's rows-only check still exercises the invariant."""
    from ..corpus import make_pages_table
    from .catalog import merge_documents, validate_splits
    from .extraction import extraction_pipeline

    docs = extraction_pipeline(rd.from_arrow(make_pages_table(60))).materialize()
    urls = sorted(r["url"] for r in docs.select_columns(["url"]).take_all())
    plan = pd.DataFrame(
        {
            "merged_url": [f"merged://book{i // 3}" for i in range(len(urls))],
            "url": urls,
            "seq": [i % 3 for i in range(len(urls))],
        }
    )
    merged = merge_documents(docs, plan).to_pandas()
    bad = validate_splits(
        rd.from_pandas(merged[["url", "splits"]]), merged[["url", "n_pages"]]
    )
    if not bad.empty:
        raise AssertionError(f"splits/page-count mismatch for {list(bad['url'])}")
    out = merged.copy()
    out["n_volumes"] = out["splits"].map(len)
    out["splits"] = out["splits"].map(
        lambda s: ";".join(f"{r['start']}-{r['end']}" for r in s)
    )
    out = out[["url", "n_pages", "total_words", "n_volumes", "splits"]]
    return out.sort_values("url").reset_index(drop=True)


def q_top_tokens_sketch(sf_dir: str) -> pd.DataFrame:
    """Misra-Gries heavy hitters over every whitespace token of the
    documents corpus — most-frequent-vocabulary WITHOUT a token shuffle
    (zero-exchange summary; counts are lb/ub-bounded, guarantee pinned
    in pytest against exact DuckDB counts)."""
    from ..ops.sketch import heavy_hitters

    docs = _t(sf_dir, "documents", ["text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.compute as pc

        # Arrow split+flatten: split_pattern(' ') keeps empty strings,
        # matching str.split(' ') / DuckDB string_split exactly
        toks = pc.list_flatten(
            pc.split_pattern(pa.array(b["text"], pa.string()), " ")
        )
        return pd.DataFrame({"tok": toks.to_pandas()})

    out = heavy_hitters(
        docs.map_batches(explode, batch_format="pandas"), "tok", k=4096, top=20
    )
    return out.rename(columns={"v": "tok"}).reset_index(drop=True)


def q_gopher_quality(sf_dir: str) -> pd.DataFrame:
    """Gopher document-quality rule bundle (Rae et al. 2021 A1.1): every
    published signal computed as an RE2 Arrow kernel, plus the pass flag
    against the published thresholds.  DuckDB's regex engine is RE2 too,
    so the oracle mirrors each signal pattern-for-pattern
    (regexp_extract_all / list_filter); pytest TestTailQueryOracles."""
    from ..ops.textstats import gopher_quality_gate

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = gopher_quality_gate(ds, "text").to_pandas()
    for c in (
        "mean_word_len_ws",
        "symbol_word_ratio",
        "bullet_line_frac",
        "ellipsis_line_frac",
        "alpha_word_frac",
        "dup_line_frac",
    ):
        out[c] = _round_half_away(out[c], 6)
    out["gopher_pass"] = out["gopher_pass"].astype("int64")
    cols = [
        "doc_id",
        "n_words",
        "mean_word_len_ws",
        "symbol_word_ratio",
        "bullet_line_frac",
        "ellipsis_line_frac",
        "alpha_word_frac",
        "n_required_words",
        "dup_line_frac",
        "gopher_pass",
    ]
    return out[cols].sort_values("doc_id").reset_index(drop=True)


def q_bm25_top10(sf_dir: str) -> pd.DataFrame:
    """BM25 retrieval over the documents corpus for a fixed query string
    (Robertson/Okapi k1=1.2 b=0.75, Lucene's idf = ln(1+(N-df+.5)/(df+.5));
    term stats + scoring distributed, vectors/tokens never leave their
    batch).  Exact SQL mirror in DuckDB; pytest TestTailQueryOracles."""
    from ..ops.search import bm25_topk

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = bm25_topk(
        ds, "table scan merge window", id_col="doc_id", text_col="text", k=10
    )
    out["score"] = _round_half_away(out["score"], 6)
    return out[["doc_id", "score"]].reset_index(drop=True)


def q_compression_ratio(sf_dir: str) -> pd.DataFrame:
    """Per-document zlib compression ratio — the compressibility quality
    signal (highly repetitive machine text compresses far below natural
    prose; used as a web-crawl filter signal).  Rows-only: DuckDB has no
    zlib; pinned by a direct-zlib equivalence + monotonicity pytest."""
    from ..ops.textstats import add_compression_ratio

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = add_compression_ratio(ds, "text").to_pandas()
    out["compression_ratio"] = _round_half_away(out["compression_ratio"], 6)
    return (
        out[["doc_id", "n_bytes", "n_zlib_bytes", "compression_ratio"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_semdedup_embeddings(sf_dir: str) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023): semantic near-dedup over the
    embeddings table — k-means confines the quadratic pairwise cosine
    step to clusters; per duplicate component the row farthest from its
    centroid survives.  Rows-only (k-means is iterative, not
    SQL-expressible); planted-dup recovery, keep-rule and determinism
    are pinned in pytest (TestKmeansSemdedup)."""
    from ..ops.cluster import semdedup

    base = _t(sf_dir, "embeddings", ["vec_id", "embedding"])

    # the corpus has no natural near-dups (max pair cosine ~0.48): plant a
    # HALVED copy of every vector, the embedding_near_dup_pairs planting
    # convention but with a power-of-two scale — 0.5x scaling is exact in
    # IEEE, so the copy normalizes to the bitwise-identical unit vector:
    # same cluster, same centroid_sim, cosine 1.0.  The keep rule's
    # (centroid_sim, id) tie break must then keep exactly the ORIGINALS.
    def copies(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vec_id": b["vec_id"] + 100000,
                "embedding": [
                    (np.asarray(v, dtype=np.float64) * 0.5).tolist()
                    for v in b["embedding"]
                ],
            }
        )

    ds = base.union(base.map_batches(copies, batch_format="pandas"))
    # sampled centroid fit (the paper's own recipe): corpus passes drop
    # from n_iters to 1; the planted-copy invariant is centroid-free
    # (copies normalize bitwise-identical -> same cluster, cosine 1.0)
    kept = semdedup(
        ds, emb_col="embedding", id_col="vec_id", threshold=0.97, k=8,
        n_iters=5, fit_rows=20_000,
    ).to_pandas()
    if (kept["vec_id"] >= 100000).any():
        raise AssertionError("a planted copy survived semdedup")
    kept["centroid_sim"] = _round_half_away(kept["centroid_sim"], 6)
    return (
        kept[["vec_id", "cluster", "centroid_sim"]]
        .sort_values("vec_id")
        .reset_index(drop=True)
    )


# The synthetic documents corpus is a space-joined word stream (no
# punctuation, no newlines) — C4's line rules would be vacuous on it.
# Both C4 queries therefore first inject deterministic structure with
# three LITERAL replaces (left-to-right non-overlapping in pandas and
# DuckDB alike, so the SQL mirror is exact): "merge" ends a line with a
# period, "window"/"join" end sentences mid-line.
def _c4_structure(b: pd.DataFrame) -> pd.DataFrame:
    out = b.copy()
    t = out["text"].str.replace(" merge ", " merge.\n", regex=False)
    t = t.str.replace(" window ", " window! ", regex=False)
    out["text"] = t.str.replace(" join ", " join? ", regex=False)
    return out


_C4_STRUCTURE_SQL = (
    "replace(replace(replace(text, ' merge ', ' merge.' || chr(10)), "
    "' window ', ' window! '), ' join ', ' join? ')"
)


def q_c4_clean(sf_dir: str) -> pd.DataFrame:
    """C4 line+page cleaning rules (Raffel et al. 2020 §2.2): keep lines
    ending in terminal punctuation with >= 5 words and no "javascript";
    page passes with >= 3 sentences and no "lorem ipsum" / "{".  Map-only
    Arrow RE2 kernels; DuckDB oracle mirrors every pattern (both engines
    are RE2); pytest TestTailQueryOracles."""
    from ..ops.c4 import c4_clean

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _c4_structure, batch_format="pandas"
    )
    out = c4_clean(ds, "text").to_pandas()
    out["c4_pass"] = out["c4_pass"].astype("int64")
    cols = ["doc_id", "c4_text", "c4_n_lines_kept", "c4_n_sentences", "c4_pass"]
    return out[cols].sort_values("doc_id").reset_index(drop=True)


def q_c4_span_dedup(sf_dir: str) -> pd.DataFrame:
    """C4's corpus-level rule: all but one occurrence of any 3-sentence
    span removed (deterministic min-(id,pos) winner).  The documents
    corpus has no natural 3-sentence dups, so a doc is planted whose text
    repeats another doc's leading sentences — the clone must come back
    stripped while every original doc returns byte-identical (asserted
    in-query).  Rows-only: pinned by TestC4SpanDedup (naive-reference
    equality on both routes, block-structure independence)."""
    from ..ops.c4 import c4_span_dedup

    base = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _c4_structure, batch_format="pandas"
    )

    def clones(b: pd.DataFrame) -> pd.DataFrame:
        # clone id is ABOVE every real id -> originals win the (id, pos) tie
        return pd.DataFrame(
            {"doc_id": b["doc_id"] + 1_000_000, "text": b["text"]}
        )

    ds = base.union(base.map_batches(clones, batch_format="pandas"))
    out = c4_span_dedup(ds, "text", "doc_id").to_pandas()
    out["n_chars"] = out["text"].str.len().astype("int64")
    out = out[["doc_id", "n_chars"]].sort_values("doc_id").reset_index(drop=True)
    # invariant (coverage monotonicity): a clone's losing-span set is a
    # superset of its original's (every span the original lost, the clone
    # loses to the same winner; every span the original WON, the clone
    # loses to the original), so clone chars <= original chars everywhere
    # and strictly less in aggregate
    orig = out[out["doc_id"] < 1_000_000].reset_index(drop=True)
    clone = out[out["doc_id"] >= 1_000_000].reset_index(drop=True)
    if not (clone["n_chars"].values <= orig["n_chars"].values).all():
        raise AssertionError("a clone kept text its original lost")
    if not clone["n_chars"].sum() < orig["n_chars"].sum():
        raise AssertionError("no clone lost any span to its original")
    return out


def q_dsir_select(sf_dir: str) -> pd.DataFrame:
    """DSIR importance resampling (Xie et al. 2023): hashed uni+bigram
    distributions fit on a target sample vs the full raw corpus, every
    doc weighted by its log importance ratio, top-60 selected
    (deterministic highest-weight mode).  The synthetic corpus draws
    every lang from ONE vocabulary (no real distribution shift exists),
    so a DIALECT domain is planted deterministically — docs with
    doc_id % 7 == 0 get every token suffixed (the semdedup planted-copy
    convention) — and the target sample is the first half of the dialect
    BY ID RULE; selection itself sees text alone.  Rows-only (hashed
    features aren't SQL-expressible); naive-reference equality +
    block-independence pinned in TestDsir, plus the in-query retrieval
    invariant: every selected doc must come from the planted domain."""
    from ..ops.dsir import dsir_fit, dsir_resample

    base = _t(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        mask = out["doc_id"].to_numpy() % 7 == 0
        out.loc[mask, "text"] = [
            " ".join(w + "x" for w in t.split()) for t in out.loc[mask, "text"]
        ]
        return out

    docs = base.map_batches(plant, batch_format="pandas")
    # half the dialect docs (Ray's expr filter can't parse a modulo —
    # use a vectorized batch filter)
    target = docs.map_batches(
        lambda b: b[b["doc_id"] % 14 == 0], batch_format="pandas"
    )
    lr = dsir_fit(target, docs, "text", buckets=10_000)
    sel = dsir_resample(docs, "text", "doc_id", lr, 60, gumbel=False).to_pandas()
    if not (sel["doc_id"].to_numpy() % 7 == 0).all():
        raise AssertionError("DSIR selected a document outside the target domain")
    # the UNSEEN dialect half (id % 14 != 0) must be retrieved too —
    # generalization beyond the literal target sample
    if not (sel["doc_id"].to_numpy() % 14 != 0).any():
        raise AssertionError("DSIR only re-selected the target sample itself")
    sel["dsir_logw"] = _round_half_away(sel["dsir_logw"], 6)
    return sel[["doc_id", "dsir_logw"]].sort_values("doc_id").reset_index(drop=True)


def q_quality_classifier(sf_dir: str) -> pd.DataFrame:
    """Model-based quality filter (fastText-style hashed-n-gram logistic
    regression, Joulin 2016 / the DCLM-baseline classifier): train on
    labelled seed halves, score the whole corpus map-only.  "Low
    quality" is planted deterministically (docs with doc_id % 5 == 0 get
    every 3rd word replaced by '###' — the corpus has no natural quality
    split); seeds come from doc_id < 250 ONLY, and the invariant below
    requires perfect separation on the UNSEEN id half.  Rows-only
    (iterative GD isn't SQL-expressible); separation/determinism/
    block-independence pinned in TestLogregClassifier."""
    from ..ops.classifier import logreg_fit, logreg_score

    base = _t(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        mask = out["doc_id"].to_numpy() % 5 == 0
        out.loc[mask, "text"] = [
            " ".join(w if j % 3 else "###" for j, w in enumerate(t.split()))
            for t in out.loc[mask, "text"]
        ]
        return out

    docs = base.map_batches(plant, batch_format="pandas")

    def half(pred):
        return docs.map_batches(
            lambda b, p=pred: b[p(b["doc_id"].to_numpy())], batch_format="pandas"
        )

    pos = half(lambda i: (i < 250) & (i % 5 != 0))
    neg = half(lambda i: (i < 250) & (i % 5 == 0))
    # sampled-fit route: the seed set collects once, featurizes once,
    # and all 20 GD steps run locally (corpus passes 20 -> 1)
    w = logreg_fit(pos, neg, "text", n_iters=20, fit_rows=50_000)
    scored = logreg_score(docs, "text", w).to_pandas()
    unseen = scored[scored["doc_id"] >= 250]
    lo = unseen[unseen["doc_id"] % 5 == 0]["quality_score"]
    hi = unseen[unseen["doc_id"] % 5 != 0]["quality_score"]
    if not float(lo.max()) < float(hi.min()):
        raise AssertionError(
            f"classifier failed to separate the unseen half: "
            f"max(bad)={lo.max()} >= min(good)={hi.min()}"
        )
    scored["quality_score"] = _round_half_away(scored["quality_score"], 6)
    return (
        scored[["doc_id", "quality_score"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_dedup_doc_lines(sf_dir: str) -> pd.DataFrame:
    """Within-document duplicate-line removal (RefinedWeb line-wise
    correction): keep each line's first occurrence per doc.  Uses the
    c4 structure injection (the corpus has no newlines) plus a planted
    repeat of the first line.  Full SQL mirror (unnest +
    generate_subscripts + row_number + ordered string_agg); pytest
    TestTailQueryOracles."""
    from ..ops.textstats import dedup_doc_lines

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _c4_structure, batch_format="pandas"
    )

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        first = out["text"].str.split("\n").str[0]
        out["text"] = out["text"] + "\n" + first + "\n" + first
        return out

    out = dedup_doc_lines(ds.map_batches(plant, batch_format="pandas"), "text").to_pandas()
    out = out.rename(columns={"text": "clean_text"})
    out["n_clean_chars"] = out["clean_text"].str.len().astype("int64")
    return (
        out[["doc_id", "clean_text", "n_clean_chars"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    """Incremental exact dedup against persisted state (the continuous-
    ingestion lifecycle): day1 = even doc_ids, day2 = all docs — day2
    must accept exactly the odd ids whose TEXT wasn't accepted on day1,
    and replaying day1 must be a pure read with the identical result
    (asserted in-query).  Rows-only (stateful multi-run lifecycle isn't
    SQL-expressible); full semantics pinned in TestIncrementalDedup."""
    import shutil
    import tempfile

    from ..ops.incremental import incremental_exact_dedup

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    day1 = docs.map_batches(
        lambda b: b[b["doc_id"] % 2 == 0], batch_format="pandas"
    )
    sd = tempfile.mkdtemp(prefix="inc_dedup_q_", dir="/tmp")
    try:
        s1 = incremental_exact_dedup(
            day1, "text", "doc_id", sd, ingest_id="day1"
        ).to_pandas()
        s2 = incremental_exact_dedup(
            docs, "text", "doc_id", sd, ingest_id="day2"
        ).to_pandas()
        r1 = incremental_exact_dedup(
            day1, "text", "doc_id", sd, ingest_id="day1"
        ).to_pandas()
        a = s1.sort_values("doc_id").reset_index(drop=True)
        b = r1.sort_values("doc_id").reset_index(drop=True)
        if not a.equals(b[a.columns]):
            raise AssertionError("day1 replay was not identical")
        if set(s2["text"]) & set(s1["text"]):
            raise AssertionError("day2 re-accepted content committed on day1")
        out = pd.concat(
            [a.assign(ingest="day1"), s2.assign(ingest="day2")], ignore_index=True
        )
        return (
            out[["ingest", "doc_id", "n_dups"]]
            .sort_values(["ingest", "doc_id"])
            .reset_index(drop=True)
        )
    finally:
        shutil.rmtree(sd, ignore_errors=True)


def q_incremental_near_dedup(sf_dir: str) -> pd.DataFrame:
    """Incremental MinHash near-dedup against persisted band-bucket
    state: day1 = even-id docs; day2 = odd-id docs PLUS a one-word
    tweak of every day1 doc (a NEAR dup, exact hashing would miss it) —
    day2 must drop every tweak and accept the genuine odds, and a day1
    replay must be a pure read (asserted in-query).  Rows-only;
    lifecycle pinned in TestIncrementalMinhash."""
    import shutil
    import tempfile

    from ..ops.incremental import incremental_minhash_dedup

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    day1 = docs.map_batches(lambda b: b[b["doc_id"] % 2 == 0], batch_format="pandas")

    # the tweak APPENDS one word: true jaccard (n-2)/(n-1) >= 0.89 even
    # for the corpus's 10-word minimum, a >= 5-sigma margin over the 0.7
    # verify threshold at 64 permutations (replacing a word instead
    # would push short docs' similarity below ANY sane threshold)
    def day2_batch(b: pd.DataFrame) -> pd.DataFrame:
        odd = b[b["doc_id"] % 2 == 1]
        ev = b[b["doc_id"] % 2 == 0]
        tweaks = pd.DataFrame(
            {
                "doc_id": ev["doc_id"].to_numpy() + 1_000_000,
                "text": [t + " TWEAKED" for t in ev["text"]],
            }
        )
        return pd.concat([odd, tweaks], ignore_index=True)

    day2 = docs.map_batches(day2_batch, batch_format="pandas")
    sd = tempfile.mkdtemp(prefix="inc_mh_q_", dir="/tmp")
    try:
        s1 = incremental_minhash_dedup(
            day1, "text", "doc_id", sd, ingest_id="day1", threshold=0.7
        ).to_pandas()
        s2 = incremental_minhash_dedup(
            day2, "text", "doc_id", sd, ingest_id="day2", threshold=0.7
        ).to_pandas()
        if (s2["doc_id"] >= 1_000_000).any():
            raise AssertionError("a near-dup tweak of committed content survived")
        r1 = incremental_minhash_dedup(
            day1, "text", "doc_id", sd, ingest_id="day1", threshold=0.7
        ).to_pandas()
        if sorted(r1["doc_id"]) != sorted(s1["doc_id"]):
            raise AssertionError("day1 replay was not identical")
        out = pd.concat(
            [
                s1.assign(ingest="day1")[["ingest", "doc_id"]],
                s2.assign(ingest="day2")[["ingest", "doc_id"]],
            ],
            ignore_index=True,
        )
        return out.sort_values(["ingest", "doc_id"]).reset_index(drop=True)
    finally:
        shutil.rmtree(sd, ignore_errors=True)


def q_knn_pq_top10(sf_dir: str) -> pd.DataFrame:
    """Product-quantized ANN (Jegou 2011): vectors encoded to 16 bytes
    (32x compression at dim 64), queries score codes via per-subspace
    ADC lookup tables — raw vectors never touched after the encode pass.
    Rows-only (approximate by design); in-query recall@10 floor vs the
    exact brute force, full recall/determinism pins in TestProductQuant."""
    import pyarrow.parquet as pq

    from ..ops.similarity import knn_brute_force, knn_pq, pq_encode, train_pq

    q = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qv = np.asarray(
        q.filter(np.array(q.column("vec_id").to_pylist()) == 0)["embedding"][0].as_py()
    )
    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda b: b[b["vec_id"] != 0], batch_format="pandas"
    )
    books = train_pq(ds, m=16, n_codes=256)
    approx = knn_pq(pq_encode(ds, books), qv, books, k=10)
    exact = knn_brute_force(ds, qv, k=10)
    recall = len(set(approx["vec_id"]) & set(exact["vec_id"])) / 10
    if recall < 0.5:
        raise AssertionError(f"PQ recall@10 {recall} below floor 0.5")
    out = approx[["vec_id", "adc_ip"]].copy()
    out["adc_ip"] = _round_half_away(out["adc_ip"], 4)
    return out.reset_index(drop=True)


def q_knn_ivf_pq_top10(sf_dir: str) -> pd.DataFrame:
    """IVF-PQ ANN (Jegou 2011): the huge-corpus composition — coarse
    cells give partition-pruned READS (only n_probe of n_cells cell
    directories are opened), PQ codes give 32x storage compression, ADC
    scores the codes inside the probed cells only.  Rows-only
    (approximate by design); in-query recall@10 floor vs exact brute
    force; full-probe==flat-PQ equivalence pinned in TestIvfPq."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from ..ops.similarity import build_ivf_pq_index, knn_brute_force, knn_ivf_pq

    q = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qv = np.asarray(
        q.filter(np.array(q.column("vec_id").to_pylist()) == 0)["embedding"][0].as_py()
    )
    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda b: b[b["vec_id"] != 0], batch_format="pandas"
    )
    idx = tempfile.mkdtemp(prefix="ivfpq_q_", dir="/tmp")
    try:
        build_ivf_pq_index(ds, idx, n_cells=16, m=16, n_codes=256)
        approx = knn_ivf_pq(idx, qv, k=10, n_probe=8)
    finally:
        shutil.rmtree(idx, ignore_errors=True)
    exact = knn_brute_force(ds, qv, k=10)
    recall = len(set(approx["vec_id"]) & set(exact["vec_id"])) / 10
    if recall < 0.5:
        raise AssertionError(f"IVF-PQ recall@10 {recall} below floor 0.5")
    out = approx[["vec_id", "adc_ip"]].copy()
    out["adc_ip"] = _round_half_away(out["adc_ip"], 4)
    return out.reset_index(drop=True)


def q_bpe_train_token_count(sf_dir: str) -> pd.DataFrame:
    """Full tokenizer LIFECYCLE on the engine (Sennrich 2016): learn the
    merge table from the corpus itself (distributed word histogram ->
    driver merge loop, ops/bpe_train.py), then encode with it.  Rows-only
    (learned merges have no SQL analogue); in-query invariants: the
    learned-tokenizer count per doc is bounded by the merge-free
    symbol count above and the word count below, and unpruned training
    is block-structure independent (pinned in TestBpeTrainDistributed)."""
    from ..functions.bpe import BpeTokenizer, pretokenize
    from ..ops.bpe_train import bpe_train_distributed

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_train_distributed(ds, "text", n_merges=200, max_words=50_000)
    merges_list = [tuple(m) for m in merges]

    class LearnedCount:
        def __init__(self):
            self.tok = BpeTokenizer(merges_list)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            n_tok, n_sym, n_words = [], [], []
            for t in b["text"]:
                words = pretokenize(str(t).lower())
                n_words.append(len(words))
                n_sym.append(sum(len(w) + 1 for w in words))
                n_tok.append(self.tok.count(str(t)))
            return pd.DataFrame(
                {
                    "doc_id": b["doc_id"],
                    "n_learned_tokens": pd.array(n_tok, dtype="int64"),
                    "n_sym": pd.array(n_sym, dtype="int64"),
                    "n_words": pd.array(n_words, dtype="int64"),
                }
            )

    out = (
        ds.map_batches(LearnedCount, batch_format="pandas", concurrency=(1, 8))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    bad = out[(out.n_learned_tokens > out.n_sym) | (out.n_learned_tokens < out.n_words)]
    if len(bad):
        raise AssertionError(f"learned token counts out of bounds: {bad.head()}")
    return out[["doc_id", "n_learned_tokens"]]


def q_unigram_token_count(sf_dir: str) -> pd.DataFrame:
    """The SECOND standard subword tokenizer lifecycle (Kudo 2018
    unigram LM, ops/unigram.py): train the piece vocab from the corpus
    itself — ONE word-histogram pass, EM + pruning on the pruned
    histogram — then Viterbi-encode map-only vs the broadcast piece
    table.  Rows-only (an EM-learned vocab has no SQL analogue);
    in-query invariants: per-doc piece counts bounded by word count
    below and symbol count above, multi-char pieces actually learned
    (corpus-level compression), trainer pinned block-structure
    independent in TestUnigram."""
    from ..ops.unigram import UnigramTokenizer, unigram_train_distributed

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    vocab = unigram_train_distributed(
        ds, "text", vocab_size=400, max_piece_len=6, seed_size=2000,
        max_words=20_000,
    )
    if not any(len(p) > 1 for p in vocab):
        raise AssertionError("unigram trainer learned no multi-char pieces")

    class PieceCount:
        def __init__(self):
            self.tok = UnigramTokenizer(vocab, max_piece_len=6)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            from ..functions.bpe import pretokenize

            n_tok, n_sym, n_words = [], [], []
            for t in b["text"]:
                words = pretokenize(str(t).lower())
                n_words.append(len(words))
                n_sym.append(sum(len(w) for w in words))
                n_tok.append(self.tok.count(str(t)))
            return pd.DataFrame(
                {
                    "doc_id": b["doc_id"],
                    "n_pieces": pd.array(n_tok, dtype="int64"),
                    "n_sym": pd.array(n_sym, dtype="int64"),
                    "n_words": pd.array(n_words, dtype="int64"),
                }
            )

    out = (
        ds.map_batches(PieceCount, batch_format="pandas", concurrency=(1, 8))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    bad = out[(out.n_pieces > out.n_sym) | (out.n_pieces < out.n_words)]
    if len(bad):
        raise AssertionError(f"piece counts out of bounds: {bad.head()}")
    if not (out.n_pieces.sum() < out.n_sym.sum()):
        raise AssertionError("no corpus-level compression from learned pieces")
    return out[["doc_id", "n_pieces"]]


def q_token_budget_mix(sf_dir: str) -> pd.DataFrame:
    """Per-source token-budget fill (ops/mix.py::token_budget_sample):
    each source's docs are taken in the seeded epoch-shuffle order until
    the source's token budget is reached.  Budgets by formula so the SQL
    window-function mirror states the identical rule: srcN gets
    200*(1+N%4) whitespace tokens, every fifth source is excluded (0)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..ops.mix import token_budget_sample

    ds = _t(sf_dir, "documents", ["doc_id", "source", "text"])

    def add_tokens(b: pd.DataFrame) -> pd.DataFrame:
        n = pc.list_value_length(
            pc.split_pattern(pa.array(b["text"], pa.string()), " ")
        ).to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "source": b["source"].to_numpy(),
                "n_tokens": n.astype("int64"),
            }
        )

    budgets = {
        f"src{i}": (0 if i % 5 == 0 else 200 * (1 + i % 4)) for i in range(20)
    }
    out = token_budget_sample(
        ds.map_batches(add_tokens, batch_format="pandas"),
        source_col="source",
        key_col="doc_id",
        token_col="n_tokens",
        budgets=budgets,
        seed=13,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_knn_join_top5(sf_dir: str) -> pd.DataFrame:
    """Batch top-k VECTOR JOIN (`ops/similarity.knn_join`): for each of
    the 20 probe vectors (vec_id < 20), the 5 nearest corpus vectors
    (vec_id >= 20) by cosine with their rank — the retrieval-eval /
    hard-negative-mining shape.  Full SQL oracle (list_cosine_similarity
    + ROW_NUMBER window) in tests/test_ops.py::TestTailQueryOracles."""
    from ..ops.similarity import knn_join

    emb = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    left = emb.map_batches(lambda b: b[b["vec_id"] < 20], batch_format="pandas")
    right = emb.map_batches(lambda b: b[b["vec_id"] >= 20], batch_format="pandas")
    out = knn_join(left, right, k=5, q_out_col="q_id")
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out = out[["q_id", "vec_id", "cosine", "rk"]].copy()
    out["cosine"] = _round_half_away(out["cosine"], 4)
    out["rk"] = out["rk"].astype("int64")
    return out.sort_values(["q_id", "rk"]).reset_index(drop=True)


def q_value_rank_in_type(sf_dir: str) -> pd.DataFrame:
    """RANK / DENSE_RANK window functions (`ops/windows.grouped_rank`):
    each event's competition and dense rank of `value` within its
    event_type, descending — exact integer output, deterministic with
    no tiebreaker because ranks are a pure function of the value
    multiset.  Full SQL window oracle in TestTailQueryOracles."""
    from ..ops.windows import grouped_rank

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_rank(
        ev,
        key_cols=["event_type"],
        order_col="value",
        descending=True,
        carry_cols=["event_id"],
    )
    return out[["event_id", "event_type", "value", "rnk", "drnk"]]


def q_temperature_mix(sf_dir: str) -> pd.DataFrame:
    """Temperature-scaled source rebalancing (`ops/mix.temperature_sample`,
    Conneau & Lample 2019 alpha=0.5): per-source keep rate
    (n_min/n_l)^0.5, deterministic shuffle-hash draw — the smallest
    source keeps everything, larger sources downsample toward the
    flattened distribution.  Full SQL oracle (COUNT + POWER + the
    shuffle-hash arithmetic mirror) in TestTailQueryOracles."""
    from ..ops.mix import temperature_sample

    docs = _t(sf_dir, "documents", ["doc_id", "source"])
    out = temperature_sample(
        docs, source_col="source", key_col="doc_id", alpha=0.5, seed=13
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_url_quality_filter(sf_dir: str) -> pd.DataFrame:
    """RefinedWeb-style URL filtering (Penedo 2023 §3.1.2:
    `functions/url.url_quality_filter`): domain blocklist + integer soft
    banned-word score over deterministically synthesized URLs; kept rows
    with their scores.  Full SQL oracle (regexp host extraction +
    substring-count arithmetic) in TestTailQueryOracles."""
    from ..functions.url import url_quality_filter

    docs = _t(sf_dir, "documents", ["doc_id"])

    def synth(b: pd.DataFrame) -> pd.DataFrame:
        tmpl = (
            "https://site{g}.com/article/{g}",
            "https://freebet-casino.com/promo/{g}",
            "https://site{g}.com/free-download/{g}",
            "https://news{g}.com/casino-webcam/{g}",
            "https://blog{g}.net/torrent-free-fun/{g}",
        )
        urls = [
            tmpl[int(i) % 5].format(g=int(i) // 5) for i in b["doc_id"]
        ]
        return pd.DataFrame({"doc_id": b["doc_id"], "url": urls})

    kept = url_quality_filter(
        docs.map_batches(synth, batch_format="pandas"), "url", threshold=90
    ).to_pandas()
    kept["url_score"] = kept["url_score"].astype("int64")
    return kept.sort_values("doc_id").reset_index(drop=True)


def q_orders_cube(sf_dir: str) -> pd.DataFrame:
    """``GROUP BY CUBE(o_orderstatus, o_orderpriority)`` — all four
    grouping levels from one input scan (`ops/relational.cube_agg`);
    sums ride exact integer cents.  Full SQL CUBE oracle in
    TestTailQueryOracles."""
    from ..ops.relational import cube_agg

    orders = _t(
        sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"]
    ).map_batches(
        lambda b: b.assign(cents=_cents(b["o_totalprice"])), batch_format="pandas"
    )
    out = cube_agg(
        orders,
        ["o_orderstatus", "o_orderpriority"],
        {"n_orders": ("cents", "count"), "cents": ("cents", "sum")},
    )
    out["total_price"] = out["cents"].astype("float64") / 100.0
    out["n_orders"] = out["n_orders"].astype("int64")
    return (
        out.drop(columns="cents")
        .sort_values(["o_orderstatus", "o_orderpriority"])
        .reset_index(drop=True)
    )


def q_event_value_ntile(sf_dir: str) -> pd.DataFrame:
    """NTILE(4) window (`ops/windows.grouped_ntile`): quartile bucket of
    every event's value within its event_type, ordered (value, event_id)
    so the tiling is total and deterministic.  Full SQL NTILE oracle in
    TestTailQueryOracles."""
    from ..ops.windows import grouped_ntile

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_ntile(
        ev, key_cols=["event_type"], order_col="value", n=4, tie_col="event_id"
    )
    out["nt"] = out["nt"].astype("int64")
    return out[["event_id", "event_type", "value", "nt"]]


def q_first_last_event_per_user(sf_dir: str) -> pd.DataFrame:
    """FIRST_VALUE / LAST_VALUE in long form
    (`ops/relational.grouped_first_last`): each user's earliest and
    latest event by (ts, event_id), tagged 'first'/'last' — the session
    entry/exit shape.  Full SQL oracle (two ROW_NUMBER CTEs UNION ALL)
    in TestTailQueryOracles."""
    from ..ops.relational import grouped_first_last

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = grouped_first_last(
        ev, ["user_id"], "ts", tie_col="event_id", carry_cols=["value"]
    )
    return out[["user_id", "which", "ts", "event_id", "value"]]


def q_value_percentiles_by_type(sf_dir: str) -> pd.DataFrame:
    """EXACT per-group discrete percentiles
    (`ops/relational.grouped_percentile_exact`): the p25/p50/p90 value
    per event_type via the quantile_disc position rule (element at
    max(1, ceil(q*m))) — bit-identical index selection across engines.
    Full SQL ROW_NUMBER-position oracle in TestTailQueryOracles."""
    from ..ops.relational import grouped_percentile_exact

    ev = _t(sf_dir, "events", ["event_type", "value"])
    out = grouped_percentile_exact(ev, ["event_type"], "value", [0.25, 0.5, 0.9])
    return out[["event_type", "q", "value"]]


def q_mode_priority_by_status(sf_dir: str) -> pd.DataFrame:
    """Deterministic MODE aggregate (`ops/relational.grouped_mode`): the
    most frequent o_orderpriority per o_orderstatus, ties to the
    smallest value — the count-table + top-1 composition.  Full SQL
    oracle (GROUP BY counts + QUALIFY ROW_NUMBER) in
    TestTailQueryOracles."""
    from ..ops.relational import grouped_mode

    orders = _t(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])
    out = grouped_mode(orders, ["o_orderstatus"], "o_orderpriority")
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("o_orderstatus").reset_index(drop=True)[
        ["o_orderstatus", "o_orderpriority", "n"]
    ]


def q_orders_price_histogram(sf_dir: str) -> pd.DataFrame:
    """Fixed-width price histogram per order status
    (`ops/profile.grouped_histogram`): 20 bins over [0, 500000) — bin
    assignment is the identical IEEE floor arithmetic in numpy and SQL.
    Full SQL arithmetic-mirror oracle in TestTailQueryOracles."""
    from ..ops.profile import grouped_histogram

    orders = _t(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])
    out = grouped_histogram(
        orders, "o_totalprice", lo=0.0, hi=500_000.0, n_bins=20,
        group_cols=["o_orderstatus"],
    )
    return out[["o_orderstatus", "bin", "n"]]


def q_running_value_by_user(sf_dir: str) -> pd.DataFrame:
    """Running total window (`ops/windows.grouped_cumsum`): each user's
    cumulative event value in (ts, event_id) order, summed in exact
    integer cents so the accumulation is order-independent.  Full SQL
    ``SUM() OVER (... ROWS UNBOUNDED PRECEDING)`` oracle in
    TestTailQueryOracles."""
    from ..ops.windows import grouped_cumsum

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"]).map_batches(
        lambda b: b.assign(cents=_cents(b["value"])), batch_format="pandas"
    )
    out = grouped_cumsum(
        ev, key_cols=["user_id"], order_col="ts", tie_col="event_id",
        value_col="cents",
    )
    out["running_value"] = out["running"].astype("float64") / 100.0
    return out[["user_id", "ts", "event_id", "running_value"]]


def q_running_max_value_by_user(sf_dir: str) -> pd.DataFrame:
    """Running high-watermark window (`ops/windows.grouped_cumsum`
    ``how="max"``): each user's best-so-far event value in (ts,
    event_id) order — selection, not addition, so exact on any dtype.
    Full SQL ``MAX() OVER (... ROWS UNBOUNDED PRECEDING)`` oracle in
    TestTailQueryOracles."""
    from ..ops.windows import grouped_cumsum

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"]).map_batches(
        lambda b: b.assign(cents=_cents(b["value"])), batch_format="pandas"
    )
    out = grouped_cumsum(
        ev, key_cols=["user_id"], order_col="ts", tie_col="event_id",
        value_col="cents", how="max",
    )
    out["peak_value"] = out["running"].astype("float64") / 100.0
    return out[["user_id", "ts", "event_id", "peak_value"]]


def q_rolling3_value_by_user(sf_dir: str) -> pd.DataFrame:
    """ROW-frame rolling window (`ops/windows.grouped_rolling_rows`):
    each user's trailing-3-event value sum in (ts, event_id) order via
    the O(rows) prefix-sum difference, exact integer cents.  Full SQL
    ``ROWS BETWEEN 2 PRECEDING AND CURRENT ROW`` oracle in
    TestTailQueryOracles."""
    from ..ops.windows import grouped_rolling_rows

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"]).map_batches(
        lambda b: b.assign(cents=_cents(b["value"])), batch_format="pandas"
    )
    out = grouped_rolling_rows(
        ev, key_cols=["user_id"], order_col="ts", tie_col="event_id",
        value_col="cents", window=3,
    )
    out["roll_value"] = out["roll"].astype("float64") / 100.0
    return out[["user_id", "ts", "event_id", "roll_value"]]


def q_value_pctrank_in_type(sf_dir: str) -> pd.DataFrame:
    """PERCENT_RANK / CUME_DIST windows (`ops/windows.grouped_rank`
    with ``pct=True``): each event's relative rank of value within its
    event_type — the exact SQL-standard formulas, bit-identical IEEE
    arithmetic.  Full SQL window oracle in TestTailQueryOracles."""
    from ..ops.windows import grouped_rank

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_rank(
        ev, key_cols=["event_type"], order_col="value",
        carry_cols=["event_id"], pct=True,
    )
    return out[["event_id", "event_type", "value", "prnk", "cume"]]


def q_tpch_q3_shipping(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 (shipping priority) adapted to this schema's columns
    (o_orderpriority for the absent o_shippriority): BUILDING-segment
    customers' orders placed before 1995-03-15 with items shipped after
    it — three-table join pipeline (customer semi-filter broadcast,
    lineitem x orders size-aware), revenue in exact integer cents,
    global top-10 through the local-prune top_k (all-ascending keys via
    negated revenue so the tiebreak is total).  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.relational import auto_join, auto_group_agg, semi_join, top_k

    cutoff = pd.Timestamp("1995-03-15")
    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b[b["c_mktsegment"] == "BUILDING"][["c_custkey"]],
        batch_format="pandas",
    )
    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(
        lambda b: b[b["o_orderdate"] < cutoff].rename(
            columns={"o_custkey": "c_custkey"}
        ),
        batch_format="pandas",
    )
    orders = semi_join(orders, cust, "c_custkey")
    li = _t(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(
        lambda b: b[b["l_shipdate"] > cutoff]
        .assign(rev_c=lambda d: _cents(d["l_extendedprice"] * (1 - d["l_discount"])))
        .rename(columns={"l_orderkey": "o_orderkey"})[["o_orderkey", "rev_c"]],
        batch_format="pandas",
    )
    joined = auto_join(li, orders, "o_orderkey", how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(
            ["o_orderkey", "o_orderdate", "o_orderpriority"], as_index=False
        ).agg(rev_c=("rev_c", "sum"))

    agg = auto_group_agg(
        joined.map_batches(partial, batch_format="pandas"),
        ["o_orderkey", "o_orderdate", "o_orderpriority"],
        {"rev_c": ("rev_c", "sum")},
    )
    src = rd.from_pandas(agg) if isinstance(agg, pd.DataFrame) else agg
    src = src.map_batches(
        lambda b: b.assign(neg_rev=-b["rev_c"].astype("int64")),
        batch_format="pandas",
    )
    out = top_k(
        src, ["neg_rev", "o_orderdate", "o_orderkey"], 10, descending=False
    ).to_pandas()
    out["revenue"] = out["rev_c"].astype("float64") / 100.0
    return out[["o_orderkey", "o_orderdate", "o_orderpriority", "revenue"]].reset_index(
        drop=True
    )


def q_tpch_q10_returned(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10 shape (top customers by returned-item revenue):
    lineitem(l_returnflag='R') pre-aggregated per order BEFORE the join
    (raw items never ride it), size-aware join to orders for the
    custkey, per-customer reduce, global top-20, then the dim-sized
    name lookup joins the 20-row result.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.relational import auto_join, auto_group_agg, top_k

    li = _t(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: b[b["l_returnflag"] == "R"]
        .assign(rev_c=lambda d: _cents(d["l_extendedprice"] * (1 - d["l_discount"])))
        .rename(columns={"l_orderkey": "o_orderkey"})[["o_orderkey", "rev_c"]],
        batch_format="pandas",
    )

    def per_order(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("o_orderkey", as_index=False).agg(rev_c=("rev_c", "sum"))

    per_ord = auto_group_agg(
        li.map_batches(per_order, batch_format="pandas"),
        ["o_orderkey"], {"rev_c": ("rev_c", "sum")},
    )
    per_ord_ds = rd.from_pandas(per_ord) if isinstance(per_ord, pd.DataFrame) else per_ord
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = auto_join(per_ord_ds, orders, "o_orderkey", how="inner")

    def per_cust(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("o_custkey", as_index=False).agg(rev_c=("rev_c", "sum"))

    agg = auto_group_agg(
        joined.map_batches(per_cust, batch_format="pandas"),
        ["o_custkey"], {"rev_c": ("rev_c", "sum")},
    )
    src = rd.from_pandas(agg) if isinstance(agg, pd.DataFrame) else agg
    src = src.map_batches(
        lambda b: b.assign(neg_rev=-b["rev_c"].astype("int64")),
        batch_format="pandas",
    )
    top = top_k(src, ["neg_rev", "o_custkey"], 20, descending=False).to_pandas()
    names = _t(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        lambda b: b[b["c_custkey"].isin(set(top["o_custkey"]))],
        batch_format="pandas",
    ).to_pandas()
    out = top.merge(names, left_on="o_custkey", right_on="c_custkey")
    out["revenue"] = out["rev_c"].astype("float64") / 100.0
    out = out.sort_values(["neg_rev", "o_custkey"]).reset_index(drop=True)
    return out[["c_custkey", "c_name", "revenue"]]


def q_pctcont_value_by_type(sf_dir: str) -> pd.DataFrame:
    """PERCENTILE_CONT / quantile_cont (the interpolated form of
    `ops/relational.grouped_percentile_exact`): linear lerp at position
    q*(m-1) — the identical IEEE sequence DuckDB executes, bit-exact.
    Full SQL quantile_cont oracle in TestTailQueryOracles."""
    from ..ops.relational import grouped_percentile_exact

    ev = _t(sf_dir, "events", ["event_type", "value"])
    out = grouped_percentile_exact(
        ev, ["event_type"], "value", [0.25, 0.5, 0.9], interpolation="linear"
    )
    return out[["event_type", "q", "value"]]


def q_simhash_near_dup_docs(sf_dir: str) -> pd.DataFrame:
    """End-to-end SimHash near-dup pairs (Manku 2007;
    `ops/dedup.simhash_near_dup_pairs`): documents plus 20 planted
    verbatim copies (ids offset by 10^9 — identical fingerprints, so the
    pigeonhole guarantee makes their recovery unconditional); rows-only
    with both invariants asserted in-query — all 20 planted pairs
    recovered at hamming 0, and every reported pair within the verify
    radius.  Near-radius (0 < hamming <= k) behavior is pinned by the
    brute-force-equality pytest (TestSimhashNearDup)."""
    from ..ops.dedup import simhash_near_dup_pairs

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        near = b[b["doc_id"] < 20]
        if len(near) == 0:
            return b
        mut = pd.DataFrame(
            {
                "doc_id": near["doc_id"].to_numpy() + 1_000_000_000,
                "text": near["text"].to_numpy(),
            }
        )
        return pd.concat([b, mut], ignore_index=True)

    planted = docs.map_batches(plant, batch_format="pandas")
    out = simhash_near_dup_pairs(
        planted, "text", "doc_id", max_hamming=3, n_bands=4
    )
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    assert (out["hamming"] <= 3).all(), "pair beyond the verify radius"
    found = {
        (a, b): h for a, b, h in zip(out["id_a"], out["id_b"], out["hamming"])
    }
    missing = [
        i for i in range(20)
        if found.get((i, i + 1_000_000_000)) != 0
    ]
    assert not missing, f"planted copies not recovered at hamming 0: {missing}"
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_value_stddev_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact grouped VAR_SAMP / STDDEV_SAMP (`ops/profile.grouped_moments`):
    integer-cents Σv / Σv² combiner partials + the size-aware finish, the
    final doubles repeating the SQL expression verbatim.  Full SQL oracle
    in TestTailQueryOracles."""
    from ..ops.profile import grouped_moments

    ev = _t(sf_dir, "events", ["event_type", "value"])
    out = grouped_moments(ev, "value", ["event_type"], scale=100)
    return out[["event_type", "n", "mean_v", "var_v", "stddev_v"]]


def q_qty_discount_corr(sf_dir: str) -> pd.DataFrame:
    """Exact grouped Pearson CORR / COVAR_SAMP
    (`ops/profile.grouped_corr`): scaled-integer cross-moment sums per
    (group, batch), final doubles identical to the SQL mirror's
    expression.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.profile import grouped_corr

    li = _t(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_discount"])
    out = grouped_corr(
        li, "l_quantity", "l_discount", ["l_returnflag"], x_scale=100, y_scale=100
    )
    return out[["l_returnflag", "n", "covar_xy", "corr_xy"]]


def q_user_event_seq(sf_dir: str) -> pd.DataFrame:
    """Ordered ``string_agg`` per group (`ops/relational.
    grouped_string_agg`): each user's event-type sequence in (ts,
    event_id) order — one hash-shard exchange, one vectorized sort +
    join per shard.  Full SQL string_agg oracle in
    TestTailQueryOracles."""
    from ..ops.relational import grouped_string_agg

    ev = _t(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    out = grouped_string_agg(
        ev, ["user_id"], "event_type", ["ts", "event_id"], sep=",", out_col="types_seq"
    )
    df = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    return df[["user_id", "types_seq"]].sort_values("user_id").reset_index(drop=True)


def q_lineitem_unpivot(sf_dir: str) -> pd.DataFrame:
    """SQL ``UNPIVOT`` / melt (`ops/relational.unpivot_columns`):
    lineitem's four measures to long form, map-only.  Limited to the
    first 3000 orderkeys to keep the oracle comparison display-sized.
    Full SQL UNION-ALL mirror in TestTailQueryOracles."""
    from ..ops.relational import unpivot_columns

    li = _t(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    ).map_batches(
        lambda b: b[b["l_orderkey"] < 3000], batch_format="pandas"
    )
    out = unpivot_columns(
        li,
        ["l_orderkey", "l_linenumber"],
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        var_col="measure",
        value_col="val",
    )
    df = out.to_pandas()
    return df.sort_values(["l_orderkey", "l_linenumber", "measure"]).reset_index(
        drop=True
    )


def q_orders_grouping_sets(sf_dir: str) -> pd.DataFrame:
    """``GROUP BY GROUPING SETS`` (`ops/relational.grouping_sets_agg`):
    an arbitrary (non-prefix) list of grouping subsets — here
    ((status, priority), (priority), ()) — from ONE input scan; each set
    re-aggregates the finest level.  Money as integer cents.  Full SQL
    GROUPING SETS oracle in TestTailQueryOracles."""
    from ..ops.relational import grouping_sets_agg

    orders = _t(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(cents=_cents(b["o_totalprice"]))

    out = grouping_sets_agg(
        orders.map_batches(cents, batch_format="pandas"),
        [["o_orderstatus", "o_orderpriority"], ["o_orderpriority"], []],
        {"n_orders": ("cents", "count"), "sum_cents": ("cents", "sum")},
    )
    return out.sort_values(
        ["o_orderstatus", "o_orderpriority", "n_orders"]
    ).reset_index(drop=True)


def q_weighted_doc_sample(sf_dir: str) -> pd.DataFrame:
    """Weighted sampling without replacement
    (`ops/shuffle.weighted_sample_k`, Efraimidis-Spirakis): top-100
    documents by ``u^(1/n_chars)`` with u from the seeded bijective
    shuffle hash — deterministic, map-only draw + local-prune top-k.
    Full SQL POWER + ORDER BY + LIMIT oracle in TestTailQueryOracles."""
    from ..ops.shuffle import weighted_sample_k

    docs = _t(sf_dir, "documents", ["doc_id", "n_chars"])
    out = weighted_sample_k(docs, "doc_id", "n_chars", 100, seed=7)
    df = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    return df[["doc_id", "n_chars"]].sort_values("doc_id").reset_index(drop=True)


def q_merge_upsert_orders(sf_dir: str) -> pd.DataFrame:
    """MERGE INTO / upsert (`ops/upsert.merge_into`): a hash-partitioned
    parquet target built from orders takes a change batch (10%% of keys
    updated, 1%% new keys inserted); only partitions holding a changed
    key rewrite (atomic per-file replace).  Full SQL anti+union mirror
    in TestTailQueryOracles; partition-untouched and idempotence
    invariants pinned by TestMergeInto."""
    import tempfile

    from ..ops.upsert import merge_into, read_merge_target, write_merge_target

    cols = ["o_orderkey", "o_totalprice", "o_orderstatus"]
    orders = _t(sf_dir, "orders", cols)
    with tempfile.TemporaryDirectory(prefix="merge_upsert_") as td:
        write_merge_target(orders, td, "o_orderkey", n_partitions=16)

        def changes(b: pd.DataFrame) -> pd.DataFrame:
            upd = b[b["o_orderkey"] % 10 == 0].copy()
            upd["o_totalprice"] = upd["o_totalprice"] + 1000.0
            upd["o_orderstatus"] = "U"
            new = b[b["o_orderkey"] % 100 == 0].copy()
            new["o_orderkey"] = new["o_orderkey"] + 10_000_000
            new["o_totalprice"] = 1.0
            new["o_orderstatus"] = "N"
            return pd.concat([upd, new], ignore_index=True)[cols]

        merge_into(
            td,
            orders.map_batches(changes, batch_format="pandas"),
            "o_orderkey",
            n_partitions=16,
        )
        out = read_merge_target(td).to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


def q_clustered_range_scan(sf_dir: str) -> pd.DataFrame:
    """Zone-map data skipping (`ops/layout.cluster_write` /
    `pruned_read`): orders written range-clustered on o_totalprice (16
    quantile-balanced files + per-file min/max manifest), then a range
    scan opens ONLY the intersecting files — asserted in-query — with
    the residual predicate applied map-side so the result is exact.
    Full SQL BETWEEN oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.layout import cluster_write, plan_pruned_read, pruned_read

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])
    lo, hi = 100_000.0, 150_000.0
    with tempfile.TemporaryDirectory(prefix="cluster_scan_") as td:
        cluster_write(orders, "o_totalprice", td, n_files=16)
        files, total = plan_pruned_read(td, lo, hi)
        assert 0 < len(files) < total, (
            f"zone map failed to prune: {len(files)}/{total} files selected"
        )
        scan = pruned_read(td, "o_totalprice", lo=lo, hi=hi)

        def cents(b: pd.DataFrame) -> pd.DataFrame:
            return b[["o_orderstatus"]].assign(cents=_cents(b["o_totalprice"]))

        from ..ops.relational import auto_group_agg

        partials = scan.map_batches(cents, batch_format="pandas").map_batches(
            lambda b: b.groupby("o_orderstatus", as_index=False).agg(
                n_orders=("cents", "size"), sum_cents=("cents", "sum")
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["o_orderstatus"],
            {"n_orders": ("n_orders", "sum"), "sum_cents": ("sum_cents", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_orders"] = out["n_orders"].astype("int64")
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return out.sort_values("o_orderstatus").reset_index(drop=True)


def q_centered_roll_value_by_user(sf_dir: str) -> pd.DataFrame:
    """General ROWS frame with a FOLLOWING bound
    (`ops/windows.grouped_rolling_rows(following=2)`): each user's
    centered 5-event value sum (2 preceding .. 2 following) in (ts,
    event_id) order — prefix-sum difference with the leading edge
    clamped at the partition tail, exact integer cents.  Full SQL
    ``ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING`` oracle in
    TestTailQueryOracles."""
    from ..ops.windows import grouped_rolling_rows

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"]).map_batches(
        lambda b: b.assign(cents=_cents(b["value"])), batch_format="pandas"
    )
    out = grouped_rolling_rows(
        ev, key_cols=["user_id"], order_col="ts", tie_col="event_id",
        value_col="cents", window=3, following=2,
    )
    out["roll_value"] = out["roll"].astype("float64") / 100.0
    return out[["user_id", "ts", "event_id", "roll_value"]]


def q_link_pagerank(sf_dir: str) -> pd.DataFrame:
    """PageRank over a synthesized doc link graph (`ops/graph.pagerank`
    — the Common-Crawl-style centrality prior next to the text): every
    doc links to its deterministic successor, every 10th doc also links
    to hub doc 0.  Rows-only (float power iteration has no SQL
    equivalent; numpy-reference rtol equality in TestGraph); rank-mass
    conservation and the hub's top rank asserted in-query."""
    from ..ops.graph import pagerank

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        succ = pd.DataFrame({"src": ids, "dst": (ids * 7 + 3) % 1000})
        hub = pd.DataFrame({"src": ids[ids % 10 == 0], "dst": 0})
        return pd.concat([succ, hub], ignore_index=True)

    out = pagerank(
        docs.map_batches(links, batch_format="pandas"), n_iter=8
    )
    assert abs(out["rank"].sum() - 1.0) < 1e-9, "rank mass not conserved"
    top = out.sort_values("rank", ascending=False)["node"].iloc[0]
    assert top == 0, f"hub doc should rank first, got {top}"
    out = out.rename(columns={"node": "doc_id"})
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_link_hits(sf_dir: str) -> pd.DataFrame:
    """HITS hubs/authorities over the same synthesized doc link graph as
    link_pagerank (`ops/graph.hits` — Kleinberg mutual reinforcement;
    two broadcast+combiner exchanges per iteration).  Rows-only (float
    power iteration; numpy-reference rtol equality in TestHits); L2
    normalization and the hub doc's top authority asserted in-query."""
    from ..ops.graph import hits

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        succ = pd.DataFrame({"src": ids, "dst": (ids * 7 + 3) % 1000})
        hub = pd.DataFrame({"src": ids[ids % 10 == 0], "dst": 0})
        return pd.concat([succ, hub], ignore_index=True)

    out = hits(docs.map_batches(links, batch_format="pandas"), n_iter=8)
    for c in ("hub", "authority"):
        nrm = float(np.sqrt((out[c].to_numpy() ** 2).sum()))
        assert abs(nrm - 1.0) < 1e-9, f"{c} vector not L2-normalized: {nrm}"
    top = out.sort_values("authority", ascending=False)["node"].iloc[0]
    assert top == 0, f"hub doc should be the top authority, got {top}"
    out = out.rename(columns={"node": "doc_id"})
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_link_triangles(sf_dir: str) -> pd.DataFrame:
    """Exact triangle count over a synthesized doc link graph
    (`ops/graph.triangle_count` — degree-oriented wedge join: Schank &
    Wagner 2005; the clustering-coefficient numerator next to
    pagerank/hits).  The ring-with-chords graph (i -> i+1, i -> i+2 mod
    1000) closes one triangle per consecutive residue triple; edge
    synthesis is pure integer arithmetic so the oracle mirrors it
    exactly.  Full SQL three-way self-join oracle in
    TestTailQueryOracles."""
    from ..ops.graph import triangle_count

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy() % 1000
        return pd.DataFrame(
            {
                "src": np.concatenate([ids, ids]),
                "dst": np.concatenate([(ids + 1) % 1000, (ids + 2) % 1000]),
            }
        )

    n = triangle_count(docs.map_batches(links, batch_format="pandas"))
    return pd.DataFrame({"n_triangles": pd.Series([n], dtype="int64")})


def q_link_kcore(sf_dir: str) -> pd.DataFrame:
    """k-core of a synthesized doc link graph (`ops/graph.kcore_subgraph`
    — Seidman 1983 cohesion filter by distributed peeling; per round an
    endpoint-count combiner into the size-aware finish plus a survivor
    filter).  The graph is a 1000-node ring (every vertex degree 2) with
    chords among the first 50 nodes: at k=3 the pure ring vertices peel
    first, their removal then strips chord endpoints below k — a real
    multi-round recursive peel.  Edge synthesis is integer arithmetic,
    so the query re-runs the reference peel in pandas and asserts SET
    EQUALITY with the distributed result (plus the min-degree >= k
    invariant).  Rows-only (iterative deletion isn't monotone SQL);
    machinery pinned by TestKcore."""
    from collections import Counter

    from ..ops.graph import kcore_subgraph

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy() % 1000
        chord_src = ids[ids < 50]
        return pd.DataFrame(
            {
                "src": np.concatenate([ids, chord_src]),
                "dst": np.concatenate([(ids + 1) % 1000, (chord_src + 5) % 50]),
            }
        )

    edges = docs.map_batches(links, batch_format="pandas")
    core = kcore_subgraph(edges, 3).to_pandas()
    got = (
        sorted(zip(core["src"], core["dst"])) if core.shape[1] else []
    )  # empty Datasets to_pandas columnless (the probe_head house rule)

    # reference peel on the identical arithmetic (graph is <= 1050 edges
    # by construction at any sf — the in-query oracle rule)
    all_ids = np.unique(_t(sf_dir, "documents", ["doc_id"]).to_pandas()["doc_id"] % 1000)
    ref = {(min(i, (i + 1) % 1000), max(i, (i + 1) % 1000)) for i in all_ids}
    ref |= {
        (min(i, (i + 5) % 50), max(i, (i + 5) % 50)) for i in all_ids if i < 50
    }
    ref = {(a, b) for a, b in ref if a != b}
    while True:
        deg: Counter = Counter()
        for a, b in ref:
            deg[a] += 1
            deg[b] += 1
        alive = {v for v, d in deg.items() if d >= 3}
        new = {(a, b) for a, b in ref if a in alive and b in alive}
        if new == ref:
            break
        ref = new
    assert got == sorted(ref), "distributed k-core != reference peel"
    deg = Counter()
    for a, b in got:
        deg[a] += 1
        deg[b] += 1
    assert (not deg) or min(deg.values()) >= 3
    return pd.DataFrame(
        {
            "n_core_edges": pd.Series([len(got)], dtype="int64"),
            "n_core_vertices": pd.Series([len(deg)], dtype="int64"),
        }
    )


def q_readability_docs(sf_dir: str) -> pd.DataFrame:
    """Flesch reading ease + Flesch-Kincaid grade per document
    (`ops/textstats.add_readability` — the published formulas over three
    RE2 count kernels, map-only).  Full SQL oracle: identical
    regexp_extract_all counts and the identical float expressions in
    TestTailQueryOracles (ROUND 4 both sides absorbs the last ULP of
    engine division)."""
    from ..ops.textstats import add_readability

    out = add_readability(
        _t(sf_dir, "documents", ["doc_id", "text"])
    ).to_pandas()
    res = out[["doc_id", "n_words", "n_sentences", "n_syllables"]].copy()
    res["flesch_ease"] = _round_half_away(out["flesch_ease"], 4)
    res["fk_grade"] = _round_half_away(out["fk_grade"], 4)
    for c in ("n_words", "n_sentences", "n_syllables"):
        res[c] = res[c].astype("int64")
    return res.sort_values("doc_id").reset_index(drop=True)


def q_rag_passage_search(sf_dir: str) -> pd.DataFrame:
    """RAG corpus ingestion end-to-end (`pipelines/rag.py`: overlapping
    passage chunking -> hashed-n-gram passage embeddings -> persisted
    IVF-PQ index with partition-pruned searches).  Probes are perturbed
    mid-document snippets of every 10th document; top-1 retrieval must
    point back to the source document for >= 90% of probes (asserted
    in-query — the text_embed_knn precedent).  Rows-only (ANN + hashing
    aren't SQL); machinery pinned by TestRagPipeline and the IVF-PQ /
    chunking / embedding test classes."""
    import tempfile

    from .rag import build_passage_index, search_passages

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    dp = docs.to_pandas().sort_values("doc_id")
    probes, truth = [], []
    step = max(1, len(dp) // 20)  # ~20 probes at any sf
    for _, row in dp.iloc[::step].iterrows():
        toks = str(row["text"] or "").split()
        if len(toks) < 12:
            continue
        mid = toks[len(toks) // 3 : len(toks) // 3 + 20]
        mid[2] = "zzz"  # a RAG query is never verbatim
        probes.append(" ".join(mid))
        truth.append(str(row["doc_id"]))
        if len(probes) >= 20:
            break
    assert len(probes) >= 5, "fixture documents too short for probes"
    with tempfile.TemporaryDirectory(prefix="rag_idx_") as td:
        n_passages = build_passage_index(docs, td)
        res = search_passages(td, probes, k=3)
    top1 = res[res["rank"] == 1].sort_values("query_idx")
    hits = int((top1["doc_id"].to_numpy() == np.asarray(truth)).sum())
    assert hits >= 0.9 * len(probes), f"top-1 recall {hits}/{len(probes)}"
    return pd.DataFrame(
        {
            "n_passages": pd.Series([n_passages], dtype="int64"),
            "n_probes": pd.Series([len(probes)], dtype="int64"),
            "n_top1_hits": pd.Series([hits], dtype="int64"),
        }
    )


def q_link_clustering(sf_dir: str) -> pd.DataFrame:
    """Per-node local clustering coefficient over the synthesized
    ring-with-chords link graph (`ops/graph.clustering_coefficient` —
    Watts & Strogatz 1998; the wedge self-merge keeps its apex so each
    closed wedge attributes its triangle to all three corners).  cc is
    an exact ratio of integers, so the FULL SQL oracle mirrors the
    identical three-way self-join + per-corner counts + the identical
    float expression (ROUND 6 both sides) in TestTailQueryOracles."""
    from ..ops.graph import clustering_coefficient

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy() % 1000
        return pd.DataFrame(
            {
                "src": np.concatenate([ids, ids]),
                "dst": np.concatenate([(ids + 1) % 1000, (ids + 2) % 1000]),
            }
        )

    out = clustering_coefficient(docs.map_batches(links, batch_format="pandas"))
    out["cc"] = _round_half_away(out["cc"], 6)
    out["node"] = out["node"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def q_token_drift_en_rest(sf_dir: str) -> pd.DataFrame:
    """Corpus drift: per-token Jensen-Shannon divergence terms between
    the English documents and everything else (`ops/drift.py` —
    value_counts combiners into size-aware finishes, ONE size-aware
    outer join; each term is a pure order-free function of the four
    counts, so the FULL SQL oracle mirrors every float to the bit).
    Top-20 drivers by (term DESC, token ASC); ROUND 6 both sides."""
    from ..ops.drift import token_divergence

    def side(keep_en: bool):
        def pick(b: pd.DataFrame) -> pd.DataFrame:
            m = b["lang"] == "en"
            return b[m if keep_en else ~m]

        return _t(sf_dir, "documents", ["text", "lang"]).map_batches(
            pick, batch_format="pandas"
        )

    t = token_divergence(side(True), side(False), "text")
    if not isinstance(t, pd.DataFrame):
        t = t.to_pandas()
    t = t.sort_values(
        ["js_term", "token"], ascending=[False, True]
    ).head(20).reset_index(drop=True)
    t["js_term"] = _round_half_away(t["js_term"], 6)
    for c in ("n_a", "n_b"):
        t[c] = t[c].astype("int64")
    return t


def q_jsonl_docs(sf_dir: str) -> pd.DataFrame:
    """JSONL source + sink roundtrip (`sources/jsonl.py` — the LLM-data
    interchange format next to parquet/WARC): documents write to
    gzipped JSONL shards (one per block, content-keyed idempotent
    names, atomic publish) and read back through pyarrow's NDJSON
    parser; the per-source doc-count / char-sum aggregate over the
    ROUNDTRIPPED data must equal SQL over the original parquet — the
    oracle checks write+read fidelity, not just the reduce.  Full SQL
    oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.jsonl import read_jsonl, write_jsonl_dataset

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    with tempfile.TemporaryDirectory(prefix="jsonl_docs_") as td:
        files = write_jsonl_dataset(docs, td, compress=True)
        assert files, "JSONL sink wrote no shards"
        back = read_jsonl(files, columns=["text", "source"])
        partials = back.map_batches(
            lambda b: b.assign(l=b["text"].fillna("").str.len())
            .groupby("source", as_index=False)
            .agg(n_docs=("l", "size"), sum_len=("l", "sum")),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["source"],
            {"n_docs": ("n_docs", "sum"), "sum_len": ("sum_len", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_len"] = out["sum_len"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def q_tfrecord_docs(sf_dir: str) -> pd.DataFrame:
    """TFRecord source + sink roundtrip (`sources/tfrecord.py` — the
    tf.train.Example container of TF/JAX input pipelines, framing and
    protobuf both from the public specs, CRCs lane-vectorized across
    records): documents write to TFRecord shards (one per block,
    content-keyed idempotent names, masked-CRC32C framing) and read
    back with CRC verification; the per-lang doc-count / char-sum /
    id-sum aggregate over the ROUNDTRIPPED data must equal SQL over the
    original parquet — write+read fidelity for both string and int64
    features, not just the reduce.  Full SQL oracle in
    TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.tfrecord import read_tfrecord, write_tfrecord_dataset

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"])
    with tempfile.TemporaryDirectory(prefix="tfrecord_docs_") as td:
        files = write_tfrecord_dataset(docs, td)
        assert files, "TFRecord sink wrote no shards"
        back = read_tfrecord(files, columns=["doc_id", "text", "lang"])
        partials = back.map_batches(
            lambda b: b.assign(l=b["text"].fillna("").str.len())
            .groupby("lang", as_index=False)
            .agg(n_docs=("l", "size"), sum_len=("l", "sum"), sum_ids=("doc_id", "sum")),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["lang"],
            {
                "n_docs": ("n_docs", "sum"),
                "sum_len": ("sum_len", "sum"),
                "sum_ids": ("sum_ids", "sum"),
            },
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    for c in ("n_docs", "sum_len", "sum_ids"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def q_avro_docs(sf_dir: str) -> pd.DataFrame:
    """Avro Object Container File roundtrip (`sources/avro.py` — the
    Hadoop/Kafka row format, container framing + zigzag binary encoding
    entirely from the Apache Avro spec, deflate codec): documents write
    to OCF shards (one per block, content-derived sync markers =
    idempotent names) and read back through sync-verified streaming
    parse tasks; the per-source doc-count / char-sum / id-sum aggregate
    over the ROUNDTRIPPED data must equal SQL over the original parquet.
    Full SQL oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.avro import read_avro, write_avro_dataset

    docs = _t(sf_dir, "documents", ["doc_id", "text", "source"])
    with tempfile.TemporaryDirectory(prefix="avro_docs_") as td:
        files = write_avro_dataset(docs, td, codec="deflate")
        assert files, "Avro sink wrote no shards"
        back = read_avro(files, columns=["doc_id", "text", "source"])
        partials = back.map_batches(
            lambda b: b.assign(l=b["text"].fillna("").str.len())
            .groupby("source", as_index=False)
            .agg(n_docs=("l", "size"), sum_len=("l", "sum"), sum_ids=("doc_id", "sum")),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["source"],
            {
                "n_docs": ("n_docs", "sum"),
                "sum_len": ("sum_len", "sum"),
                "sum_ids": ("sum_ids", "sum"),
            },
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    for c in ("n_docs", "sum_len", "sum_ids"):
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def q_langid_trained(sf_dir: str) -> pd.DataFrame:
    """Trained fastText-style language ID (`ops/softmax.py` — multiclass
    softmax over hashed char-n-gram embeddings, the supervised Joulin
    2016 model; map-only embed + fixed-size gradient partials, vectors
    never move).  The fixture's lang column is uncorrelated with its
    text, so the evidence corpus plants four deterministic script
    variants of the real documents (latin / word-reversed latin / greek
    / cyrillic — 'rev' shares latin's script, so the model must learn
    n-gram ORDER, not just codepoint ranges), trains on even doc_ids
    and predicts the held-out odd half: per-lang accuracy returned,
    overall accuracy >= 0.99 asserted in-query.  Rows-only (model
    weights aren't SQL); machinery pinned by TestSoftmaxLangid."""
    from ..ops.softmax import langid_fit, langid_predict

    greek = str.maketrans(
        {chr(c): chr(c - ord("a") + 0x3B1) for c in range(ord("a"), ord("z") + 1)}
    )
    cyr = str.maketrans(
        {chr(c): chr(c - ord("a") + 0x430) for c in range(ord("a"), ord("z") + 1)}
    )

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        lang_idx = (ids >> 1) % 4
        texts = b["text"].fillna("").str.lower().tolist()
        out_text, out_lang = [], []
        for t, li in zip(texts, lang_idx):
            if li == 0:
                out_text.append(t)
                out_lang.append("lat")
            elif li == 1:
                out_text.append(" ".join(w[::-1] for w in t.split()))
                out_lang.append("rev")
            elif li == 2:
                out_text.append(t.translate(greek))
                out_lang.append("el")
            else:
                out_text.append(t.translate(cyr))
                out_lang.append("ru")
        return pd.DataFrame(
            {"doc_id": ids, "text": out_text, "lang": out_lang}
        )

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        plant, batch_format="pandas"
    )
    def half(parity: int):
        def pick(b: pd.DataFrame) -> pd.DataFrame:
            return b[b["doc_id"] % 2 == parity]

        return docs.map_batches(pick, batch_format="pandas")

    train, test = half(0), half(1)
    model = langid_fit(train, n_iters=40)
    got = langid_predict(test, "text", model).to_pandas()
    per = (
        got.assign(ok=(got["lang_pred"] == got["lang"]).astype("int64"))
        .groupby("lang", as_index=False)
        .agg(n_docs=("ok", "size"), n_correct=("ok", "sum"))
    )
    assert per["n_correct"].sum() >= 0.99 * per["n_docs"].sum(), (
        "trained langid under 99% held-out accuracy"
    )
    assert set(per["lang"]) == {"lat", "rev", "el", "ru"}
    per["n_docs"] = per["n_docs"].astype("int64")
    per["n_correct"] = per["n_correct"].astype("int64")
    return per.sort_values("lang").reset_index(drop=True)


def q_leakage_free_split(sf_dir: str) -> pd.DataFrame:
    """Leakage-free train/val/test split (`ops/split.py` — near-dup
    CLUSTERS land wholly on one side, the Lee 2021 §6 train/test
    contamination treatment; MinHash pairs -> size-aware cluster
    resolution -> map-only seeded draw on the cluster id).  Plants a
    near-copy (one appended word) of every 4th document under a fresh
    id; in-query asserts ZERO planted pairs straddle splits and the
    split sizes track the requested fractions.  Rows-only (MinHash
    isn't SQL); both cluster routes + string ids pinned by
    TestLeakageFreeSplit."""
    from ..ops.split import leakage_free_split

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        near = b[b["doc_id"] % 4 == 0].copy()
        near["doc_id"] = near["doc_id"] + 100_000_000
        near["text"] = near["text"].fillna("") + " leakagetail"
        return pd.concat([b, near], ignore_index=True)

    corpus = docs.map_batches(plant, batch_format="pandas")
    out = leakage_free_split(
        corpus, "text", "doc_id", seed=11, clusters="auto"
    ).to_pandas()
    m = out.set_index("doc_id")["split"]
    orig = [i for i in m.index if i < 100_000_000 and i % 4 == 0]
    leaks = sum(m[i] != m[i + 100_000_000] for i in orig)
    assert leaks == 0, f"{leaks} near-dup pairs straddle splits"
    per = (
        out.groupby("split", as_index=False)
        .agg(n_docs=("doc_id", "size"))
        .sort_values("split")
        .reset_index(drop=True)
    )
    frac = per["n_docs"] / per["n_docs"].sum()
    want = {"test": 0.05, "train": 0.90, "val": 0.05}
    assert all(abs(f - want[s]) < 0.03 for s, f in zip(per["split"], frac)), (
        f"split fractions off: {dict(zip(per['split'], frac.round(3)))}"
    )
    per["n_docs"] = per["n_docs"].astype("int64")
    return per


def q_main_content_docs(sf_dir: str) -> pd.DataFrame:
    """Boilerplate removal (`ops/boilerplate.extract_main_content` —
    the jusText/boilerpipe block classifier between crawl HTML and
    document text; map-only Arrow RE2 kernels): documents wrap into
    synthesized pages (link-dense nav + one escaped ``<p>`` content
    block + footer), the extractor must drop exactly the chrome and
    return the text intact — so kept-block counts and main-text word
    counts are pure functions of the raw text the SQL oracle mirrors.
    Full SQL oracle in TestTailQueryOracles."""
    from ..ops.boilerplate import extract_main_content

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def pagegen(b: pd.DataFrame) -> pd.DataFrame:
        esc = (
            b["text"]
            .fillna("")
            .str.replace("&", "&amp;", regex=False)
            .str.replace("<", "&lt;", regex=False)
            .str.replace(">", "&gt;", regex=False)
        )
        html = (
            '<html><body><nav><a href="/">Home</a> <a href="/a">About</a>'
            ' <a href="/c">Contact</a></nav><p>'
            + esc
            + '</p><footer>© 2024 <a href="/t">Terms</a></footer></body></html>'
        )
        return pd.DataFrame({"doc_id": b["doc_id"], "html": html})

    def words(b):
        # the extractor's own RE2 kernel (NOT pandas' Python-Unicode
        # \S) so word semantics match the keep rule and the oracle on
        # any whitespace class
        import pyarrow as pa
        import pyarrow.compute as pc

        n = pc.count_substring_regex(b.column("main_text"), pattern=r"\S+")
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_blocks_kept": b.column("n_blocks_kept"),
                "main_words": pc.cast(n, pa.int64()),
            }
        )

    pages = docs.map_batches(pagegen, batch_format="pandas")
    out = extract_main_content(pages).map_batches(words, batch_format="pyarrow")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_incremental_event_stats(sf_dir: str) -> pd.DataFrame:
    """Incremental aggregate maintenance (`ops/aggstate.py` — the
    materialized-view upkeep of a continuously-ingested corpus): events
    arrive as TWO increments (split by event_id parity) folded into a
    persisted per-type aggregate table; one increment replays to prove
    the exactly-once guard; the final table must equal one plain GROUP
    BY over all events — which is exactly the SQL oracle.  Sums use
    integer cents (the exact-hash contract).  Full SQL oracle in
    TestTailQueryOracles."""
    import tempfile

    from ..ops.aggstate import incremental_agg_into, read_agg_target

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        lambda b: b.assign(value_c=_cents(b["value"])), batch_format="pandas"
    )
    aggs = {
        "n_events": ("event_id", "count"),
        "sum_value_c": ("value_c", "sum"),
        "min_event_id": ("event_id", "min"),
        "max_event_id": ("event_id", "max"),
    }
    with tempfile.TemporaryDirectory(prefix="aggstate_q_") as td:
        # vectorized parity split (a row-fn filter would be the per-row
        # Python hot-path smell)
        inc1 = ev.map_batches(
            lambda b: b[b["event_id"] % 2 == 0], batch_format="pandas"
        )
        inc2 = ev.map_batches(
            lambda b: b[b["event_id"] % 2 == 1], batch_format="pandas"
        )
        incremental_agg_into(td, inc1, ["event_type"], aggs, ingest_id="inc1")
        incremental_agg_into(td, inc2, ["event_type"], aggs, ingest_id="inc2")
        # exactly-once: replaying a committed ingest changes nothing
        rep = incremental_agg_into(td, inc1, ["event_type"], aggs, ingest_id="inc1")
        assert (rep["status"] == "skipped").all(), "replay must be a no-op"
        out = read_agg_target(td).to_pandas()
    out["sum_value"] = out["sum_value_c"].astype("float64") / 100.0
    out = out.drop(columns="sum_value_c")
    return out.sort_values("event_type").reset_index(drop=True)


def q_approx_distinct_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped HLL distinct-count (`ops/sketch.approx_distinct_by` —
    per-batch register partials, one key-shard exchange, max-merge).
    Rows-only (probabilistic estimate; error bounds pinned by the
    round-3 sketch tests); the <= 5 % relative error vs the EXACT
    per-group distinct (computed distributed, in-query) is asserted
    here at p=12."""
    from ..ops.exchange import exchange
    from ..ops.relational import auto_group_agg
    from ..ops.sketch import approx_distinct_by

    ev = _t(sf_dir, "events", ["event_type", "user_id"])
    got = approx_distinct_by(ev, "event_type", "user_id")

    # exact reference: distinct (type, user) pairs via one tuple-hash
    # exchange (in-batch dedup combiner first), then a small count
    pairs = (
        exchange(
            ev.map_batches(lambda b: b.drop_duplicates(), batch_format="pandas"),
            ["event_type", "user_id"],
            lambda g: g.drop_duplicates(),
        )
        .map_batches(
            lambda b: b.groupby("event_type", as_index=False).agg(
                nu=("user_id", "size")
            ),
            batch_format="pandas",
        )
    )
    exact = auto_group_agg(pairs, ["event_type"], {"nu": ("nu", "sum")})
    if not isinstance(exact, pd.DataFrame):
        exact = exact.to_pandas()
    m = got.merge(exact, on="event_type")
    rel = (m["approx_distinct"] - m["nu"]).abs() / m["nu"].clip(lower=1)
    assert (rel <= 0.05).all(), f"HLL error above 5%: {m}"
    got["approx_distinct"] = got["approx_distinct"].astype("int64")
    return got


def q_csv_events(sf_dir: str) -> pd.DataFrame:
    """CSV source + sink roundtrip (`ray.data.write_csv`/`read_csv` —
    the third interchange format next to parquet and JSONL): events
    write to CSV shards and read back; the per-type count / cents-sum
    aggregate over the ROUNDTRIPPED data must equal SQL over the
    original parquet.  Full SQL oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        # cents BEFORE the roundtrip: CSV is decimal text, so floats
        # roundtrip exactly only as integers
        lambda b: pd.DataFrame(
            {"event_type": b["event_type"], "value_c": _cents(b["value"])}
        ),
        batch_format="pandas",
    )
    with tempfile.TemporaryDirectory(prefix="csv_events_") as td:
        ev.write_csv(td)
        back = rd.read_csv(td)
        partials = back.map_batches(
            lambda b: b.groupby("event_type", as_index=False).agg(
                n_events=("value_c", "size"), sum_c=("value_c", "sum")
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["event_type"],
            {"n_events": ("n_events", "sum"), "sum_c": ("sum_c", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = out["sum_c"].astype("float64") / 100.0
    return (
        out.drop(columns="sum_c").sort_values("event_type").reset_index(drop=True)
    )


def q_ipc_docs(sf_dir: str) -> pd.DataFrame:
    """Arrow IPC (Feather v2) source + sink roundtrip
    (`sources/columnar.py` — the zero-conversion Arrow wire format next
    to parquet/JSONL/CSV/WARC): documents write to zstd IPC shards (one
    per block, content-keyed idempotent names, atomic publish) and read
    back WITH column projection at the read (IPC is seekable); the
    per-lang doc-count / char-sum aggregate over the ROUNDTRIPPED data
    must equal SQL over the original parquet — the oracle checks
    write+read fidelity, not just the reduce.  Full SQL oracle in
    TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.columnar import read_ipc, write_ipc_dataset

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    with tempfile.TemporaryDirectory(prefix="ipc_docs_") as td:
        files = write_ipc_dataset(docs, td)
        assert files, "IPC sink wrote no shards"
        back = read_ipc(files, columns=["text", "lang"])
        partials = back.map_batches(
            lambda b: b.assign(l=b["text"].fillna("").str.len())
            .groupby("lang", as_index=False)
            .agg(n_docs=("l", "size"), sum_len=("l", "sum")),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["lang"],
            {"n_docs": ("n_docs", "sum"), "sum_len": ("sum_len", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_len"] = out["sum_len"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def q_orc_events(sf_dir: str) -> pd.DataFrame:
    """ORC source + sink roundtrip (`sources/columnar.py` — the other
    big columnar lake format): events (timestamps + floats as integer
    cents) write to ORC shards and read back with projection; the
    per-type count / min-max id / cents-sum aggregate over the
    ROUNDTRIPPED data must equal SQL over the original parquet.  Full
    SQL oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.columnar import read_orc, write_orc_dataset

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "value_c": _cents(b["value"]),
            }
        ),
        batch_format="pandas",
    )
    with tempfile.TemporaryDirectory(prefix="orc_events_") as td:
        files = write_orc_dataset(ev, td)
        assert files, "ORC sink wrote no shards"
        back = read_orc(td, columns=["event_id", "event_type", "value_c"])
        partials = back.map_batches(
            lambda b: b.groupby("event_type", as_index=False).agg(
                n_events=("event_id", "size"),
                min_event_id=("event_id", "min"),
                max_event_id=("event_id", "max"),
                sum_c=("value_c", "sum"),
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["event_type"],
            {
                "n_events": ("n_events", "sum"),
                "min_event_id": ("min_event_id", "min"),
                "max_event_id": ("max_event_id", "max"),
                "sum_c": ("sum_c", "sum"),
            },
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    for c in ("n_events", "min_event_id", "max_event_id"):
        out[c] = out[c].astype("int64")
    out["sum_value"] = out["sum_c"].astype("float64") / 100.0
    return (
        out.drop(columns="sum_c").sort_values("event_type").reset_index(drop=True)
    )


def q_image_near_dups(sf_dir: str) -> pd.DataFrame:
    """Perceptual image dedup (`multimodal/dedup.py` — dHash over the
    real PNG decode, banded hamming pairs via
    `ops/dedup.fingerprint_near_dup_pairs`): planted exact and
    noised copies of coarse-grid base images must ALL pair with their
    originals (exact copies at hamming 0) and never across bases —
    asserted in-query.  Rows-only (pixel hashing has no SQL analogue;
    brute-force equality pinned by TestImageNearDup)."""
    import pyarrow as pa

    from ..multimodal import decode_images
    from ..multimodal.codecs import encode_png
    from ..multimodal.decode import IMAGE_SCHEMA
    from ..multimodal.dedup import image_near_dup_pairs

    rng = np.random.RandomState(42)
    rows = []
    for s in range(12):
        r = np.random.RandomState(3000 + s)
        coarse = r.randint(0, 256, (9, 12), dtype=np.uint8)
        img = np.kron(coarse, np.ones((9, 9), np.uint8))[:72, :96]
        img = np.stack([img, np.roll(img, 3, 1), img[::-1]], axis=2)
        rows.append((f"b{s:02d}", img))
        rows.append((f"c{s:02d}", img.copy()))
        noise = rng.randint(-4, 5, img.shape).astype(np.int16)
        rows.append(
            (f"n{s:02d}", np.clip(img.astype(np.int16) + noise, 0, 255).astype(np.uint8))
        )
    t = pa.table(
        {
            "media_id": pa.array([r[0] for r in rows], pa.string()),
            "payload": pa.array([encode_png(r[1]) for r in rows], pa.binary()),
            "mime": pa.array(["image/png"] * len(rows), pa.string()),
            "width": pa.array([r[1].shape[1] for r in rows], pa.int32()),
            "height": pa.array([r[1].shape[0] for r in rows], pa.int32()),
        },
        schema=IMAGE_SCHEMA,
    )
    pairs = image_near_dup_pairs(decode_images(rd.from_arrow(t)))
    got = {(a, b): int(h) for a, b, h in zip(pairs["id_a"], pairs["id_b"], pairs["hamming"])}
    for s in range(12):
        assert got.get((f"b{s:02d}", f"c{s:02d}")) == 0, f"exact copy {s} missed"
        assert (f"b{s:02d}", f"n{s:02d}") in got, f"noised copy {s} missed"
    assert all(a[1:] == b[1:] for a, b in got), f"cross-base pair: {got}"
    pairs["hamming"] = pairs["hamming"].astype("int64")
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_audio_near_dups(sf_dir: str) -> pd.DataFrame:
    """Spectral audio dedup (`multimodal/dedup.py::afp64` — log-band
    spectral gradient fingerprint over the real WAV decode, banded
    hamming pairs): planted re-encoded, gain-changed and lightly-noised
    copies of broadband clips must ALL pair with their originals and
    never across clips — asserted in-query.  Rows-only (FFT hashing has
    no SQL analogue; function/stage equality + gain invariance pinned
    by TestAudioNearDup)."""
    import pyarrow as pa

    from ..multimodal.audio import AUDIO_SCHEMA, decode_audio
    from ..multimodal.codecs import encode_wav
    from ..multimodal.dedup import audio_near_dup_pairs

    sr = 16000
    rng = np.random.RandomState(11)
    rows = []
    for s in range(10):
        r = np.random.RandomState(4000 + s)
        n = sr
        x = np.convolve(r.randn(n), np.hanning(r.randint(5, 60)), mode="same")
        t = np.arange(n) / sr
        for f in r.choice(np.arange(200, 4000, 50), 3, replace=False):
            x += (0.5 + r.rand()) * np.std(x) * np.sin(2 * np.pi * f * t)
        x = x / np.abs(x).max() * 0.8
        rows.append((f"b{s}", x))
        rows.append((f"g{s}", x * 0.5))
        rows.append((f"n{s}", x + 0.01 * rng.randn(n)))
    t = pa.table(
        {
            "media_id": pa.array([r[0] for r in rows], pa.string()),
            "payload": pa.array([encode_wav(r[1], sr) for r in rows], pa.binary()),
            "sample_rate": pa.array([sr] * len(rows), pa.int32()),
            "n_samples": pa.array([len(r[1]) for r in rows], pa.int64()),
        },
        schema=AUDIO_SCHEMA,
    )
    pairs = audio_near_dup_pairs(decode_audio(rd.from_arrow(t)))
    got = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    for s in range(10):
        assert (f"b{s}", f"g{s}") in got, f"gain copy {s} missed"
        assert (f"b{s}", f"n{s}") in got, f"noised copy {s} missed"
    assert all(a[1:] == b[1:] for a, b in got), f"cross-clip pair: {got}"
    pairs["hamming"] = pairs["hamming"].astype("int64")
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_video_near_dups(sf_dir: str) -> pd.DataFrame:
    """Video near-dup (`multimodal/dedup.video_near_dup_pairs` — frame
    sampling + per-SLOT dHash matching via the fingerprint op's
    ``within_col``; match fraction over the longer video's sampled
    frames): a planted exact copy and a noised copy must pair with the
    original at match_frac 1.0, a half-overlap clip must fall below the
    0.8 bar, and slot-shifted identical frames must never match —
    asserted in-query.  Rows-only (pinned by TestVideoNearDup)."""
    import pyarrow as pa

    from ..multimodal.codecs import encode_png_seq
    from ..multimodal.dedup import video_near_dup_pairs

    def frame(seed, h=36, w=48):
        r = np.random.RandomState(seed)
        coarse = r.randint(0, 256, (9, 12), dtype=np.uint8)
        img = np.kron(coarse, np.ones((5, 5), np.uint8))[:h, :w]
        return np.stack([img, img, img], axis=2)

    rng = np.random.RandomState(3)
    base = [frame(500 + i) for i in range(8)]
    other = [frame(600 + i) for i in range(8)]
    noised = [
        np.clip(f.astype(np.int16) + rng.randint(-4, 5, f.shape), 0, 255).astype(np.uint8)
        for f in base
    ]
    clips = [
        ("orig", base),
        ("copy", [f.copy() for f in base]),
        ("noisy", noised),
        ("half", base[:4] + other[:4]),
        ("other", other),
        ("shifted", base[4:] + base[:4]),
    ]
    t = pa.table(
        {
            "media_id": pa.array([c[0] for c in clips], pa.string()),
            "payload": pa.array([encode_png_seq(c[1]) for c in clips], pa.binary()),
            "n_frames": pa.array([0] * len(clips), pa.int64()),
        }
    )
    out = video_near_dup_pairs(rd.from_arrow(t), every_n=1, min_match_frac=0.8)
    got = {(a, b): f for a, b, f in zip(out["id_a"], out["id_b"], out["match_frac"])}
    assert got.get(("copy", "orig")) == 1.0, got
    assert got.get(("noisy", "orig")) == 1.0, got
    assert ("half", "orig") not in got and ("orig", "other") not in got
    assert not any("shifted" in p for pair in got for p in pair), got
    out["n_matched"] = out["n_matched"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_zorder_box_scan(sf_dir: str) -> pd.DataFrame:
    """Z-order 2-D data skipping (`ops/layout.zorder_write` /
    `zorder_pruned_read`): lineitem clustered on (extendedprice,
    quantity) — a box predicate on BOTH dimensions opens only the
    intersecting files (asserted in-query), residual map-side, result
    exact.  Full SQL two-BETWEEN oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.layout import zorder_plan, zorder_pruned_read, zorder_write
    from ..ops.relational import auto_group_agg

    li = _t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])
    box = {"l_extendedprice": (20_000.0, 40_000.0), "l_quantity": (10.0, 30.0)}
    with tempfile.TemporaryDirectory(prefix="zorder_scan_") as td:
        zorder_write(li, ["l_extendedprice", "l_quantity"], td, n_files=16)
        files, total = zorder_plan(td, box)
        assert 0 < len(files) < total, (
            f"z-order failed to prune: {len(files)}/{total}"
        )
        scan = zorder_pruned_read(td, box)
        partials = scan.map_batches(
            lambda b: b.assign(
                qty_c=_cents(b["l_quantity"])
            ).groupby("l_returnflag", as_index=False).agg(
                n_items=("qty_c", "size"), sum_qty_c=("qty_c", "sum")
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["l_returnflag"],
            {"n_items": ("n_items", "sum"), "sum_qty_c": ("sum_qty_c", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_items"] = out["n_items"].astype("int64")
    out["sum_qty_c"] = out["sum_qty_c"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


def q_weighted_lang_sample(sf_dir: str) -> pd.DataFrame:
    """Per-group weighted sampling without replacement
    (`ops/shuffle.grouped_weighted_sample_k`): 20 n_chars-weighted
    draws per language — Efraimidis-Spirakis keys, size-aware grouped
    top-k finish.  Full SQL QUALIFY + POWER oracle in
    TestTailQueryOracles."""
    from ..ops.shuffle import grouped_weighted_sample_k

    docs = _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = grouped_weighted_sample_k(
        docs, ["lang"], "doc_id", "n_chars", 20, seed=11
    )
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out["rk"] = out["rk"].astype("int64")
    return (
        out[["lang", "doc_id", "n_chars", "rk"]]
        .sort_values(["lang", "rk"])
        .reset_index(drop=True)
    )


def q_url_prefix_scan(sf_dir: str) -> pd.DataFrame:
    """URL-range clustered layout + prefix-pruned scan
    (`ops/layout.cluster_write_str` / `prefix_pruned_read`): documents
    keyed by deterministically synthesized urls (the url_quality_filter
    classes) are written lexicographically range-clustered; a host
    prefix scan opens only intersecting files (asserted in-query) and
    counts per url class.  Full SQL LIKE-prefix oracle in
    TestTailQueryOracles."""
    import tempfile

    from ..ops.layout import cluster_write_str, prefix_plan, prefix_pruned_read

    docs = _t(sf_dir, "documents", ["doc_id"])

    def synth(b: pd.DataFrame) -> pd.DataFrame:
        tmpl = (
            "https://site{g}.com/article/{g}",
            "https://freebet-casino.com/promo/{g}",
            "https://site{g}.com/free-download/{g}",
            "https://news{g}.com/casino-webcam/{g}",
            "https://blog{g}.net/torrent-free-fun/{g}",
        )
        urls = [tmpl[int(i) % 5].format(g=int(i) // 5) for i in b["doc_id"]]
        return pd.DataFrame({"doc_id": b["doc_id"], "url": urls})

    prefix = "https://site1"
    with tempfile.TemporaryDirectory(prefix="url_cluster_") as td:
        cluster_write_str(
            docs.map_batches(synth, batch_format="pandas"), "url", td, n_files=16
        )
        files, total = prefix_plan(td, prefix)
        assert 0 < len(files) < total, f"prefix pruning failed: {len(files)}/{total}"
        got = prefix_pruned_read(td, "url", prefix).to_pandas()
    got["doc_id"] = got["doc_id"].astype("int64")
    return got.sort_values("doc_id").reset_index(drop=True)


def q_tpch_q14_promo(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14 (promotion effect): one month of lineitem joined to the
    dim-sized part table (broadcast — the fact stream never shuffles),
    CASE-split integer-cents sums, one final float expression repeated
    verbatim by the oracle.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_join

    li = _t(
        sf_dir, "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    part = _t(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda b: b.rename(columns={"p_partkey": "l_partkey"}),
        batch_format="pandas",
    )

    def window(b: pd.DataFrame) -> pd.DataFrame:
        sd = b["l_shipdate"]
        return b[(sd >= pd.Timestamp("1996-03-01")) & (sd < pd.Timestamp("1996-04-01"))]

    joined = auto_join(li.map_batches(window, batch_format="pandas"), part, "l_partkey")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rev_c = _cents(b["l_extendedprice"] * (1 - b["l_discount"])).astype("int64")
        promo = rev_c[(b["p_type"] == "PROMO").to_numpy()]
        return pd.DataFrame(
            {"promo_c": [int(promo.sum())], "total_c": [int(rev_c.sum())]}
        )

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    promo_c, total_c = int(parts["promo_c"].sum()), int(parts["total_c"].sum())
    return pd.DataFrame(
        {"promo_revenue": [100.0 * float(promo_c) / float(total_c)]}
    )


def q_tpch_q15_top_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 (top supplier): per-supplier quarter revenue via
    combiner partials + the size-aware finish, the max filter, and a
    dim-sized supplier join on the (tiny) winner set.  Full SQL oracle
    in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg

    li = _t(
        sf_dir, "lineitem",
        ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    sup = _t(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sd = b["l_shipdate"]
        sub = b[(sd >= pd.Timestamp("1996-01-01")) & (sd < pd.Timestamp("1996-04-01"))]
        rev_c = _cents(sub["l_extendedprice"] * (1 - sub["l_discount"])).astype("int64")
        return pd.DataFrame({"l_suppkey": sub["l_suppkey"], "rev_c": rev_c}).groupby(
            "l_suppkey", as_index=False
        ).agg(rev_c=("rev_c", "sum"))

    rev = auto_group_agg(
        li.map_batches(partial, batch_format="pandas"),
        ["l_suppkey"],
        {"rev_c": ("rev_c", "sum")},
    )
    if not isinstance(rev, pd.DataFrame):
        # exchange route: find the max with a scalar map-reduce, filter
        # MAP-SIDE, and pull only the (tiny) winner set to the driver
        mx = int(
            rev.map_batches(
                lambda b: pd.DataFrame({"m": [b["rev_c"].max()]}),
                batch_format="pandas",
            ).to_pandas()["m"].max()
        )
        rev = rev.map_batches(
            lambda b, _m=mx: b[b["rev_c"] == _m], batch_format="pandas"
        ).to_pandas()
    top = rev[rev["rev_c"] == rev["rev_c"].max()]
    out = top.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out["total_revenue"] = out["rev_c"].astype("float64") / 100.0
    return (
        out[["s_suppkey", "s_name", "total_revenue"]]
        .sort_values("s_suppkey")
        .reset_index(drop=True)
    )


def q_tpch_q18_large_orders(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q18 (large-volume customers): per-order quantity sums via
    combiner partials + the size-aware finish, the >300 filter (a tiny
    winner set), then size-aware joins to orders and the customer dim;
    top-100 by (totalprice desc, orderdate, orderkey) through the
    local-prune top_k.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg, auto_join, top_k

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    cust = _t(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        q = _cents(b["l_quantity"]).astype("int64")
        return pd.DataFrame({"l_orderkey": b["l_orderkey"], "qty_c": q}).groupby(
            "l_orderkey", as_index=False
        ).agg(qty_c=("qty_c", "sum"))

    sums = auto_group_agg(
        li.map_batches(partial, batch_format="pandas"),
        ["l_orderkey"],
        {"qty_c": ("qty_c", "sum")},
    )
    if not isinstance(sums, pd.DataFrame):
        # exchange route: the per-order table is corpus-cardinality —
        # apply the >300 filter MAP-SIDE so only the tiny winner set
        # ever reaches the driver
        sums = sums.map_batches(
            lambda b: b[b["qty_c"] > 300 * 100], batch_format="pandas"
        ).to_pandas()
    big = sums[sums["qty_c"] > 300 * 100].rename(columns={"l_orderkey": "o_orderkey"})
    joined = auto_join(orders, rd.from_pandas(big), "o_orderkey")

    def keys(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out["neg_price_c"] = -_cents(b["o_totalprice"]).astype("int64")
        return out

    top = top_k(
        joined.map_batches(keys, batch_format="pandas"),
        ["neg_price_c", "o_orderdate", "o_orderkey"],
        100,
        descending=False,
    ).to_pandas()
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out["sum_qty"] = out["qty_c"].astype("float64") / 100.0
    return (
        out[["c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"]]
        .sort_values(["o_totalprice", "o_orderdate", "o_orderkey"],
                     ascending=[False, True, True])
        .reset_index(drop=True)
    )


def q_value_share_in_type(sf_dir: str) -> pd.DataFrame:
    """RATIO_TO_REPORT window (`ops/windows.grouped_share`): each
    event's share of its event_type's total value — exact integer-cents
    group totals through the size-aware finish, one broadcast map adds
    the single double division (rows never shuffle).  Full SQL window
    oracle in TestTailQueryOracles."""
    from ..ops.windows import grouped_share

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        lambda b: b.assign(cents=_cents(b["value"])), batch_format="pandas"
    )
    out = grouped_share(ev, ["event_type"], "cents").to_pandas()
    return (
        out[["event_id", "event_type", "share"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_clustered_merge_join_revenue(sf_dir: str) -> pd.DataFrame:
    """Zero-shuffle storage-order join
    (`ops/layout.clustered_merge_join`): lineitem and orders each
    written range-clustered on the order key (different file counts —
    the cutoffs need not match), then joined with NO exchange (each
    task = one left file + its zone-overlapping right files) and
    reduced to quantity cents per order status.  Full SQL join+GROUP BY
    oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.layout import cluster_write, clustered_merge_join
    from ..ops.relational import auto_group_agg

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "qty_c": _cents(b["l_quantity"])}
        ),
        batch_format="pandas",
    )
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]).map_batches(
        lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "o_orderstatus": b["o_orderstatus"]}
        ),
        batch_format="pandas",
    )
    with tempfile.TemporaryDirectory(prefix="cmj_") as td:
        dl, dr = f"{td}/li", f"{td}/ord"
        cluster_write(li, "okey", dl, n_files=12)
        cluster_write(orders, "okey", dr, n_files=8)
        joined = clustered_merge_join(dl, dr, "okey")
        partials = joined.map_batches(
            lambda b: b.groupby("o_orderstatus", as_index=False).agg(
                n_items=("qty_c", "size"), sum_qty_c=("qty_c", "sum")
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["o_orderstatus"],
            {"n_items": ("n_items", "sum"), "sum_qty_c": ("sum_qty_c", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_items"] = out["n_items"].astype("int64")
    out["sum_qty_c"] = out["sum_qty_c"].astype("int64")
    return out.sort_values("o_orderstatus").reset_index(drop=True)


def q_versioned_upsert_orders(sf_dir: str) -> pd.DataFrame:
    """Snapshot-isolated MERGE with time travel
    (`ops/upsert.versioned_merge_into`): the merge_upsert_orders change
    set applied to a VERSIONED target — new immutable files + manifest
    swap, so v1 stays readable (time-travel identity asserted
    in-query).  The post-merge snapshot carries the same full anti+union
    SQL oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.upsert import (
        versioned_merge_into,
        versioned_read,
        versioned_write_target,
    )

    cols = ["o_orderkey", "o_totalprice", "o_orderstatus"]
    orders = _t(sf_dir, "orders", cols)
    with tempfile.TemporaryDirectory(prefix="vmerge_") as td:
        v1 = versioned_write_target(orders, td, "o_orderkey", n_partitions=16)

        def changes(b: pd.DataFrame) -> pd.DataFrame:
            upd = b[b["o_orderkey"] % 10 == 0].copy()
            upd["o_totalprice"] = upd["o_totalprice"] + 1000.0
            upd["o_orderstatus"] = "U"
            new = b[b["o_orderkey"] % 100 == 0].copy()
            new["o_orderkey"] = new["o_orderkey"] + 10_000_000
            new["o_totalprice"] = 1.0
            new["o_orderstatus"] = "N"
            return pd.concat([upd, new], ignore_index=True)[cols]

        versioned_merge_into(
            td, orders.map_batches(changes, batch_format="pandas"),
            "o_orderkey", n_partitions=16,
        )
        out = versioned_read(td).to_pandas()
        # time travel: v1 must still equal the ORIGINAL table exactly
        old = versioned_read(td, version=v1).to_pandas()
        want = orders.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            old.sort_values("o_orderkey").reset_index(drop=True)[cols],
            want[cols],
        )
    return out.sort_values("o_orderkey").reset_index(drop=True)


def q_cm_user_freq(sf_dir: str) -> pd.DataFrame:
    """Count-Min point-frequency estimates (`ops/sketch.count_min_build`
    / `count_min_query`): per-user event counts from a fixed-memory
    mergeable sketch.  Rows-only (estimates have no SQL equivalent);
    the CM guarantees — never-underestimate and the (e/width)·N
    overestimate bound vs the exact distributed counts — are asserted
    in-query; error-bound pytest in TestCountMin."""
    from ..ops.relational import auto_group_agg
    from ..ops.sketch import count_min_build, count_min_query

    ev = _t(sf_dir, "events", ["user_id"])
    cm = count_min_build(ev, "user_id", width=4096, depth=4)
    exact = auto_group_agg(
        ev.map_batches(
            lambda b: b.groupby("user_id", as_index=False).agg(n=("user_id", "size")),
            batch_format="pandas",
        ),
        ["user_id"],
        {"n": ("n", "sum")},
    )
    if not isinstance(exact, pd.DataFrame):
        exact = exact.to_pandas()
    exact = exact.sort_values("user_id").reset_index(drop=True)
    est = count_min_query(cm, exact["user_id"].to_numpy())
    true = exact["n"].to_numpy()
    assert (est >= true).all(), "count-min underestimated"
    # the (e/width)·N bound is PER-KEY probabilistic (holds with prob
    # 1 - e^-depth ≈ 98.2% at depth 4) — assert the violating FRACTION,
    # not every key, so the query scales to any sf / key cardinality
    viol = float(np.mean(est - true > (np.e / 4096) * cm["n"]))
    assert viol <= 0.02, f"CM bound violated for {viol:.1%} of keys"
    return pd.DataFrame(
        {
            "user_id": exact["user_id"].astype("int64"),
            "n_exact": true.astype("int64"),
            "n_est": est.astype("int64"),
        }
    )


def q_tpch_q6_forecast(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 (forecasting revenue change): pure predicate + one
    global sum — map-only integer-cents combiner partials, one scalar
    reduce; the discount product stays exact because cents x discount
    percent is integer arithmetic.  Full SQL oracle in
    TestTailQueryOracles."""
    li = _t(
        sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sd = b["l_shipdate"]
        keep = (
            (sd >= pd.Timestamp("1996-01-01"))
            & (sd < pd.Timestamp("1997-01-01"))
            & (b["l_discount"] >= 0.05)
            & (b["l_discount"] <= 0.07)
            & (b["l_quantity"] < 24)
        )
        sub = b[keep]
        # cents * whole-percent discount: exact int64 product
        cents = _cents(sub["l_extendedprice"]).astype("int64")
        disc_pct = np.copysign(
            np.floor(np.abs(sub["l_discount"].to_numpy()) * 100 + 0.5),
            sub["l_discount"].to_numpy(),
        ).astype("int64")
        return pd.DataFrame({"rev_cp": [int((cents * disc_pct).sum())]})

    parts = li.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({"revenue": [parts["rev_cp"].sum() / 10000.0]})


def q_embedding_unnest(sf_dir: str) -> pd.DataFrame:
    """SQL ``UNNEST`` with ordinality (`ops/relational.
    explode_list_column`): the embedding list column to long form —
    map-only zero-copy Arrow flatten, no exchange.  Full SQL unnest +
    generate_subscripts oracle in TestTailQueryOracles."""
    from ..ops.relational import explode_list_column

    import pyarrow.compute as pc

    emb = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 50)), batch_format="pyarrow"
    )
    out = explode_list_column(emb, "embedding", ["vec_id"], pos_col="pos", out_col="x")
    return (
        out.to_pandas()
        .sort_values(["vec_id", "pos"])
        .reset_index(drop=True)
    )


def q_bloom_point_lookup(sf_dir: str) -> pd.DataFrame:
    """File-level Bloom point lookups (ops/layout.py): orders laid out
    hash-partitioned on o_custkey (orderkeys scattered — zone maps
    can't help an equality probe), a per-file Bloom manifest built on
    o_orderkey, then five point lookups open ONLY accepted files.  The
    in-query assert pins real skipping; FULL SQL oracle (WHERE IN) pins
    exactness at any false-positive rate."""
    import shutil
    import tempfile

    from ..ops.layout import bloom_lookup_plan, bloom_pruned_lookup, build_bloom_manifest
    from ..ops.upsert import write_merge_target

    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"]
    )
    keys = [11, 222, 333, 444, 1055]
    base = tempfile.mkdtemp(prefix="ocr_ray_bloom_q_")
    try:
        write_merge_target(orders, base, "o_custkey", n_partitions=16)
        build_bloom_manifest(base, "o_orderkey")
        cands, total = bloom_lookup_plan(base, "o_orderkey", keys)
        assert len(cands) < total, "bloom manifest skipped nothing"
        out = bloom_pruned_lookup(base, "o_orderkey", keys).to_pandas()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return (
        out[["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"]]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def q_orders_expectations(sf_dir: str) -> pd.DataFrame:
    """Data-expectation report (ops/validate.py): six content rules over
    orders — uniqueness (clean and violated), range, enum membership,
    regex shape, null-ness — with exact violation counts and the MINIMUM
    violating value as the deterministic example.  FULL SQL oracle."""
    from ..ops.validate import check_expectations

    orders = _t(
        sf_dir,
        "orders",
        ["o_orderkey", "o_custkey", "o_orderpriority", "o_orderstatus", "o_orderdate"],
    )
    rules = [
        {"column": "o_orderkey", "rule": "unique"},
        {"column": "o_custkey", "rule": "unique"},
        {"column": "o_custkey", "rule": "in_range", "lo": 0, "hi": 100},
        {
            "column": "o_orderpriority",
            "rule": "in_set",
            "values": ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED"],
        },
        {"column": "o_orderstatus", "rule": "matches", "pattern": "[OF]"},
        {"column": "o_orderdate", "rule": "not_null"},
    ]
    out = check_expectations(orders, rules)
    out.insert(0, "rule_idx", np.arange(1, len(rules) + 1, dtype="int64"))
    out["n_violations"] = out["n_violations"].astype("int64")
    return out


def q_embedding_pca_top2(sf_dir: str) -> pd.DataFrame:
    """Distributed PCA over the embeddings table (ops/cluster.py::
    pca_fit — ONE fixed-size moment-partial pass, dimension-sized driver
    eigen) projected to the top-2 components.  Rows-only (float eigen —
    no SQL analogue); in-query asserts pin orthonormality, variance
    ordering, and projected-variance == explained-variance; numpy
    equivalence pinned by TestPca."""
    from ..ops.cluster import pca_fit, pca_transform

    emb = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    model = pca_fit(emb, k=2)
    out = pca_transform(emb, model).to_pandas()
    Z = np.stack(out["pca"].to_numpy())
    ev = model["explained_variance"]
    assert ev[0] >= ev[1] >= 0.0
    assert np.allclose(Z.var(axis=0, ddof=1), ev, rtol=1e-6)
    C = model["components"]
    assert np.allclose(C @ C.T, np.eye(2), atol=1e-8)
    return pd.DataFrame(
        {
            "vec_id": out["vec_id"].astype("int64"),
            "p1": np.round(Z[:, 0], 6),
            "p2": np.round(Z[:, 1], 6),
        }
    ).sort_values("vec_id").reset_index(drop=True)


def q_crawl_increments(sf_dir: str) -> pd.DataFrame:
    """Continuous-ingestion composition (pipelines/crawl.py): two WARC
    crawl increments with 50% url overlap flow through read_warc ->
    extraction -> incremental exact dedup -> per-ingest corpus
    partitions.  Rows-only (container parse + stateful dedup); the
    in-query asserts pin recrawl suppression, corpus uniqueness, and
    replay identity (TestCrawlIngestPipeline pins the rest)."""
    import shutil
    import tempfile

    import pyarrow as pa

    from ..corpus import make_pages_rows
    from ..schemas import PAGES_SCHEMA
    from ..sources.warc import write_pages_warc
    from .crawl import ingest_crawl_increment, read_corpus

    base = tempfile.mkdtemp(prefix="ocr_ray_crawl_q_")
    try:
        def shards(name, idxs):
            rows = list(make_pages_rows(idxs))
            cols = {n: [r[n] for r in rows] for n in PAGES_SCHEMA.names}
            t = pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)
            t = t.set_column(
                t.schema.get_field_index("text"), "text",
                pa.array([""] * len(t), pa.string()),
            )
            return write_pages_warc(f"{base}/{name}", t, urls_per_shard=4)

        corpus, state = f"{base}/corpus", f"{base}/state"
        r1 = ingest_crawl_increment(
            shards("w1", range(0, 12)), corpus, state, ingest_id="day1"
        )
        r2 = ingest_crawl_increment(
            shards("w2", range(6, 18)), corpus, state, ingest_id="day2"
        )
        assert r2["n_survivors"] <= 6, "recrawled urls must dedup"
        total = read_corpus(corpus).to_pandas()
        assert total["url"].is_unique
        assert len(total) == r1["n_survivors"] + r2["n_survivors"]
        r1b = ingest_crawl_increment(
            shards("w1", range(0, 12)), corpus, state, ingest_id="day1"
        )
        assert r1b["replayed"] and r1b["n_survivors"] == r1["n_survivors"]
        return pd.DataFrame(
            {
                "ingest_id": ["day1", "day2"],
                "n_docs": [r1["n_docs"], r2["n_docs"]],
                "n_survivors": [r1["n_survivors"], r2["n_survivors"]],
            }
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)


def q_doc_sliding_windows(sf_dir: str) -> pd.DataFrame:
    """Overlapping token-window chunking (ops/chunks.py::
    sliding_token_windows, size=40 stride=20 — 50% overlap).  FULL SQL
    oracle: generate_series starts + list_slice window assembly."""
    from ..ops.chunks import sliding_token_windows

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    out = sliding_token_windows(
        docs, "text", "doc_id", size=40, stride=20
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values(["doc_id", "win_idx"]).reset_index(drop=True)


def q_script_ratio_docs(sf_dir: str) -> pd.DataFrame:
    """Script-composition signal (ops/textstats.py::add_script_ratios):
    per-doc codepoint-class ratios over explicit ranges (latin / digit /
    arabic / cyrillic / cjk).  FULL SQL oracle: the identical character
    classes counted with regexp_extract_all, ratios rounded half-away
    on both engines."""
    from ..ops.textstats import SCRIPT_CLASSES, add_script_ratios

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    out = add_script_ratios(docs).to_pandas()
    cols = ["doc_id", "n_chars"]
    for name, _ in SCRIPT_CLASSES:
        c = f"{name}_ratio"
        out[c] = _round_half_away(out[c], 4)
        cols.append(c)
    out["n_chars"] = out["n_chars"].astype("int64")
    return out[cols].sort_values("doc_id").reset_index(drop=True)


def q_orders_footer_stats(sf_dir: str) -> pd.DataFrame:
    """Aggregate pushdown to parquet footers (sources/ingest.py::
    parquet_stats_agg): COUNT + MIN/MAX of o_totalprice and o_orderdate
    answered from row-group statistics — ZERO data pages read.  FULL SQL
    oracle (the equivalent full-scan aggregate must agree exactly)."""
    from ..sources.ingest import parquet_stats_agg

    out = parquet_stats_agg(
        f"{sf_dir}/orders.parquet", ["o_totalprice", "o_orderdate"]
    )
    assert out is not None, "orders footer lacks statistics"
    out = out.rename(
        columns={
            "o_totalprice_min": "min_price",
            "o_totalprice_max": "max_price",
            "o_orderdate_min": "min_date",
            "o_orderdate_max": "max_date",
        }
    )
    out["n_rows"] = out["n_rows"].astype("int64")
    return out[["n_rows", "min_price", "max_price", "min_date", "max_date"]]


def q_event_key_skew(sf_dir: str) -> pd.DataFrame:
    """Pre-shuffle skew diagnostic (ops/profile.py::key_skew_profile,
    exact route): hottest event users + corpus totals — the answer to
    'can user_id hash-partition safely?'.  FULL SQL oracle (GROUP BY +
    ORDER BY count DESC with the smallest-key tiebreak + totals)."""
    from ..ops.profile import key_skew_profile

    events = _t(sf_dir, "events", ["user_id"])
    prof = key_skew_profile(events, "user_id", top=10)
    out = prof["top"].copy()
    out["user_id"] = out["user_id"].astype("int64")
    out["count"] = out["count"].astype("int64")
    out["n_rows"] = int(prof["n_rows"])
    out["n_keys"] = int(prof["n_keys"])
    assert prof["recommendation"] in ("broadcast-hot-keys", "hash-partition")
    return out.reset_index(drop=True)


def q_card_pii_stats(sf_dir: str) -> pd.DataFrame:
    """Luhn-validated credit-card detection (functions/pii.py): documents
    augmented with a valid test PAN (doc_id%5) and a Luhn-invalid digit
    run (doc_id%7); per-doc candidate and valid-card counts.  FULL SQL
    oracle: identical RE2 candidate pattern + the ISO/IEC 7812 checksum
    as a list_transform lambda (redaction surgery itself is pinned by
    TestCardRedaction)."""
    from ..functions.pii import redact_cards_batch

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def aug(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype("int64")
        t = b["text"].astype(str)
        t = t + np.where(i % 5 == 0, " pay 4111-1111-1111-1111 today", "")
        t = t + np.where(i % 7 == 0, " ref 1234 5678 9012 3456 code", "")
        return pd.DataFrame({"doc_id": i, "text": t})

    out = (
        docs.map_batches(aug, batch_format="pandas")
        .map_batches(redact_cards_batch, batch_format="pandas")
        .to_pandas()
    )
    # the planted valid PAN must be gone from every redacted %5 row
    planted = out[out["doc_id"] % 5 == 0]
    assert not planted["redacted_text"].str.contains("4111-1111").any()
    return (
        out[["doc_id", "n_card_candidates", "n_cards"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_robots_filtered_urls(sf_dir: str) -> pd.DataFrame:
    """RFC 9309 crawl-policy gate (functions/robots.py): synthetic urls
    over 13 hosts (paths a pure function of doc_id), robots.txt on the
    even hosts (Disallow /private/ with a longer Allow /private/p1
    override — exercising longest-match + allow-tie precedence — plus
    Disallow /tmp), odd hosts ungoverned.  The op PARSES real robots.txt
    text; the SQL oracle mirrors the parsed rule table and the
    longest-prefix decision with a window function."""
    from ..functions.robots import robots_filter

    docs = _t(sf_dir, "documents", ["doc_id"])

    def mk(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype("int64")
        seg = np.select(
            [i % 4 == 0, i % 4 == 1, i % 4 == 2],
            ["private/", "public/", "tmp/x"],
            "",
        )
        url = (
            "https://h" + (i % 13).astype(str) + ".example/" + seg + "p" + i.astype(str)
        )
        return pd.DataFrame({"doc_id": i, "url": url})

    pages = docs.map_batches(mk, batch_format="pandas")
    robots = pd.DataFrame(
        {
            "host": [f"h{k}.example" for k in range(0, 13, 2)],
            "robots_txt": [
                "# crawl policy\n"
                "User-agent: *\n"
                "Disallow: /private/\n"
                "Allow: /private/p1\n"
                "Disallow: /tmp\n"
            ]
            * 7,
        }
    )
    out = robots_filter(pages, robots).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_tpch_q7_volume(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7 (volume shipping between two nations): lineitem ⋈ supplier
    ⋈ orders ⋈ customer with nation playing TWO roles (supplier side and
    customer side), the (a,b)|(b,a) pair filter, revenue per
    (supp_nation, cust_nation, year).  Dims resolve driver-side
    (read_dim_pandas footer gate); the fact stream takes one broadcast
    join (supplier side) and one size-aware join (orders side); year
    extraction and the pair predicate are vectorized map-side.  Full SQL
    oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg, auto_join, broadcast_hash_join
    from ..sources.ingest import read_dim_pandas

    nat = read_dim_pandas(f"{sf_dir}/nation.parquet", ["n_nationkey", "n_name"])
    pair = nat[nat["n_name"].isin(["NATION_3", "NATION_7"])]
    keys = set(pair["n_nationkey"])
    names = dict(zip(pair["n_nationkey"], pair["n_name"]))

    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda b: b[b["s_nationkey"].isin(keys)].rename(
            columns={"s_suppkey": "l_suppkey"}
        ),
        batch_format="pandas",
    )
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda b: b[b["c_nationkey"].isin(keys)].rename(
            columns={"c_custkey": "o_custkey"}
        ),
        batch_format="pandas",
    )
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    orders = auto_join(orders, cust, "o_custkey", how="inner").map_batches(
        lambda b: b[["o_orderkey", "c_nationkey"]].rename(
            columns={"o_orderkey": "l_orderkey"}
        ),
        batch_format="pandas",
    )

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-12-31")

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] <= hi)]
        return pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "l_year": b["l_shipdate"].dt.year.astype("int64"),
                "rev_c": _cents(b["l_extendedprice"] * (1 - b["l_discount"])),
            }
        )

    li = _t(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(li_prep, batch_format="pandas")
    li = broadcast_hash_join(li, supp, "l_suppkey", how="inner")
    joined = auto_join(li, orders, "l_orderkey", how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "s_nationkey" not in b.columns:
            return pd.DataFrame(
                {
                    "s_nationkey": pd.Series([], dtype="int64"),
                    "c_nationkey": pd.Series([], dtype="int64"),
                    "l_year": pd.Series([], dtype="int64"),
                    "rev_c": pd.Series([], dtype="int64"),
                }
            )
        b = b[b["s_nationkey"] != b["c_nationkey"]]  # the (a,b)|(b,a) filter
        return b.groupby(
            ["s_nationkey", "c_nationkey", "l_year"], as_index=False
        ).agg(rev_c=("rev_c", "sum"))

    agg = auto_group_agg(
        joined.map_batches(partial, batch_format="pandas"),
        ["s_nationkey", "c_nationkey", "l_year"],
        {"rev_c": ("rev_c", "sum")},
    )
    out = agg if isinstance(agg, pd.DataFrame) else agg.to_pandas()
    out["supp_nation"] = out["s_nationkey"].map(names)
    out["cust_nation"] = out["c_nationkey"].map(names)
    out["revenue"] = out["rev_c"].astype("float64") / 100.0
    return (
        out[["supp_nation", "cust_nation", "l_year", "revenue"]]
        .sort_values(["supp_nation", "cust_nation", "l_year"])
        .reset_index(drop=True)
    )


def q_tpch_q19_disjunctive(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19 (discounted revenue, disjunctive brand/size/quantity
    predicates) adapted to this schema (no p_container/l_shipinstruct):
    three OR-branches over (p_brand, p_size range, l_quantity range).
    The part side prunes map-only to the branch union and broadcasts;
    the branch disjunction evaluates vectorized per batch; one scalar
    integer-cents reduce.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.relational import broadcast_hash_join

    branches = [
        ("Brand#12", 10, 30, 1.0, 20.0),
        ("Brand#23", 1, 40, 10.0, 35.0),
        ("Brand#15", 5, 50, 20.0, 50.0),
    ]

    def part_prep(b: pd.DataFrame) -> pd.DataFrame:
        keep = np.zeros(len(b), dtype=bool)
        for brand, slo, shi, _, _ in branches:
            keep |= (
                (b["p_brand"] == brand) & (b["p_size"] >= slo) & (b["p_size"] <= shi)
            ).to_numpy()
        return b[keep][["p_partkey", "p_brand"]].rename(
            columns={"p_partkey": "l_partkey"}
        )

    part = _t(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
        part_prep, batch_format="pandas"
    )

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_partkey": b["l_partkey"],
                "l_quantity": b["l_quantity"],
                "rev_c": _cents(b["l_extendedprice"] * (1 - b["l_discount"])),
            }
        )

    li = _t(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pandas")
    joined = broadcast_hash_join(li, part, "l_partkey", how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # schema-less empty block (the union-schema hazard) must short-
        # circuit BEFORE any column access
        if len(b) == 0 or "rev_c" not in b.columns:
            return pd.DataFrame({"rev_c": [0]})
        keep = np.zeros(len(b), dtype=bool)
        for brand, _, _, qlo, qhi in branches:
            keep |= (
                (b["p_brand"] == brand)
                & (b["l_quantity"] >= qlo)
                & (b["l_quantity"] <= qhi)
            ).to_numpy()
        return pd.DataFrame({"rev_c": [int(b.loc[keep, "rev_c"].sum())]})

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({"revenue": [float(parts["rev_c"].sum()) / 100.0]})


def q_tpch_q22_balance(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 (global-market customers) adapted (cntrycode :=
    nationkey): positive-balance customers above the GLOBAL average
    balance with no RECENT orders (none since 2000-01-01 — the fixture's
    order coverage makes the classic no-orders-ever set empty), counted
    per cntrycode.  The average is an
    exact integer-cents (sum, n) combiner scalar; the above-average test
    is the integer cross-product acct_c * n > sum_c (no float compare);
    ordersless-ness via the house anti_join.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.relational import anti_join, auto_group_agg

    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def bal_partial(b: pd.DataFrame) -> pd.DataFrame:
        pos = b[b["c_acctbal"] > 0.0]
        return pd.DataFrame(
            {"s": [int(_cents(pos["c_acctbal"]).sum())], "n": [len(pos)]}
        )

    bal = cust.map_batches(bal_partial, batch_format="pandas").to_pandas()
    s, n = int(bal["s"].sum()), int(bal["n"].sum())

    def above_avg(b: pd.DataFrame) -> pd.DataFrame:
        acct_c = _cents(b["c_acctbal"]).astype("int64")
        out = b[acct_c * n > s].copy()
        out["acct_c"] = acct_c[(acct_c * n > s)]
        return out[["c_custkey", "c_nationkey", "acct_c"]]

    rich = cust.map_batches(above_avg, batch_format="pandas")
    recent = pd.Timestamp("2000-01-01")
    ordered = _t(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda b: b[b["o_orderdate"] >= recent][["o_custkey"]].rename(
            columns={"o_custkey": "c_custkey"}
        ),
        batch_format="pandas",
    )
    no_orders = anti_join(rich, ordered, "c_custkey", method="auto")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "c_nationkey" not in b.columns:
            return pd.DataFrame(
                {
                    "c_nationkey": pd.Series([], dtype="int64"),
                    "numcust": pd.Series([], dtype="int64"),
                    "bal_c": pd.Series([], dtype="int64"),
                }
            )
        return b.groupby("c_nationkey", as_index=False).agg(
            numcust=("c_custkey", "count"), bal_c=("acct_c", "sum")
        )

    agg = auto_group_agg(
        no_orders.map_batches(partial, batch_format="pandas"),
        ["c_nationkey"],
        {"numcust": ("numcust", "sum"), "bal_c": ("bal_c", "sum")},
    )
    out = agg if isinstance(agg, pd.DataFrame) else agg.to_pandas()
    out["cntrycode"] = out["c_nationkey"].astype("int64")
    out["numcust"] = out["numcust"].astype("int64")
    out["totacctbal"] = out["bal_c"].astype("float64") / 100.0
    return (
        out[["cntrycode", "numcust", "totacctbal"]]
        .sort_values("cntrycode")
        .reset_index(drop=True)
    )


def q_crawl_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Snapshot CDC (ops/diff.py): two crawl snapshots derived
    deterministically from the documents table — old drops doc_id%11==3,
    new drops doc_id%13==5 and re-crawls doc_id%7==0 with changed text —
    diffed into added/removed/changed rows.  Payloads never ride the
    exchange (hash projection); FULL SQL oracle (FULL OUTER JOIN mirror)."""
    from ..ops.diff import snapshot_diff

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    old = docs.map_batches(
        lambda b: b[b["doc_id"] % 11 != 3], batch_format="pandas"
    )

    def mk_new(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 13 != 5].copy()
        m = b["doc_id"] % 7 == 0
        b.loc[m, "text"] = b.loc[m, "text"] + " v2"
        return b

    new = docs.map_batches(mk_new, batch_format="pandas")
    out = snapshot_diff(old, new, "doc_id", ["text"]).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_host_links(sf_dir: str) -> pd.DataFrame:
    """Link-graph extraction (ops/graph.py::extract_host_links): anchor
    hrefs pulled from synthetic link-bearing pages (a pure function of
    doc_id, reproduced verbatim in the SQL oracle) and aggregated to the
    weighted host-level edge table — the input side of pagerank.  FULL SQL
    oracle: regexp_extract_all + host classification mirror."""
    from ..ops.graph import extract_host_links

    docs = _t(sf_dir, "documents", ["doc_id"])

    def mk_pages(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype("int64")
        url = "https://h" + (i % 13).astype(str) + ".example/p/" + i.astype(str)
        html = (
            '<html><body><p>intro</p><a href="https://h'
            + ((i * 3 + 1) % 17).astype(str)
            + '.example/a">x</a>'
        )
        html = html + np.where(
            i % 4 == 0,
            "<a href='//h" + ((i * 5 + 2) % 17).astype(str) + ".example/b'>y</a>",
            "",
        )
        html = html + np.where(i % 3 == 0, '<a href="/local/page">z</a>', "")
        html = html + np.where(i % 6 == 0, '<a href="mailto:a@b.c">m</a>', "")
        html = html + "</body></html>"
        return pd.DataFrame({"url": url, "html": html})

    pages = docs.map_batches(mk_pages, batch_format="pandas")
    out = extract_host_links(pages)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out["n_links"] = out["n_links"].astype("int64")
    return out.sort_values(["src_host", "dst_host"]).reset_index(drop=True)


def q_doc_top_tfidf(sf_dir: str) -> pd.DataFrame:
    """Per-document top-3 TF-IDF keywords (ops/search.py::
    top_tfidf_terms — tf combiner + mergeable df reduce + size-aware
    token join + grouped_top_k local prune; total order via the token
    tiebreak).  FULL SQL oracle: ROW_NUMBER window over the identical
    tf · ln(N/df) expression."""
    from ..ops.search import top_tfidf_terms

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    out = top_tfidf_terms(docs, k=3)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out["tfidf"] = _round_half_away(out["tfidf"], 6)
    out["tf"] = out["tf"].astype("int64")
    out["rk"] = out["rk"].astype("int64")
    return (
        out[["doc_id", "token", "tf", "tfidf", "rk"]]
        .sort_values(["doc_id", "rk"])
        .reset_index(drop=True)
    )


def q_text_embed_knn(sf_dir: str) -> pd.DataFrame:
    """Deterministic hashed-n-gram text embeddings (ops/embed.py —
    feature hashing, map-only, bitwise block-independent) composed with
    the exact ANN probe (ops/similarity.knn_brute_force): three probe
    documents get a small text mutation, embed through the SAME
    operator, and must retrieve their source document as the top-1
    neighbor (asserted in-query) — text -> embedding -> search without
    an external model.  Rows-only driver check; operator pinned by
    TestHashedEmbed."""
    from ..ops.embed import hashed_ngram_embed
    from ..ops.similarity import knn_brute_force

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    emb = hashed_ngram_embed(docs, "text", dim=128)

    def probe_mask(b: pd.DataFrame) -> pd.DataFrame:
        keep = (b["doc_id"] % 37 == 0) & (b["text"].fillna("").str.len() >= 80)
        return b[keep]

    probes = (
        docs.map_batches(probe_mask, batch_format="pandas")
        .limit(3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(probes) == 3, "fixture too small for text_embed_knn probes"
    mutated = probes.copy()
    mutated["text"] = mutated["text"] + " appended probe suffix"
    import ray.data as _rd

    qv = (
        hashed_ngram_embed(_rd.from_pandas(mutated), "text", dim=128)
        .to_pandas()
        .sort_values("doc_id")
    )
    qmat = np.stack(qv["embedding"].to_numpy())
    hits = knn_brute_force(emb, qmat, id_col="doc_id", k=1)
    hits = hits.sort_values("query_idx").reset_index(drop=True)
    src = probes["doc_id"].to_numpy()
    got = hits["doc_id"].to_numpy()
    assert (got == src).all(), f"probe retrieval failed: {got} vs {src}"
    out = pd.DataFrame(
        {
            "probe_doc_id": src.astype("int64"),
            "hit_doc_id": got.astype("int64"),
            "cosine": _round_half_away(hits["cosine"], 4),
        }
    )
    return out


def q_char_entropy_docs(sf_dir: str) -> pd.DataFrame:
    """Character-entropy quality signal (ops/textstats.py::
    add_char_entropy — map-only, one utf-32 reinterpret + np.unique per
    batch): per-doc Shannon entropy (bits/char, ROUND 4 for the float
    contract — both engines compute H = log2(L) − Σc·log2(c)/L on
    identical integer counts) and distinct-codepoint count.  FULL SQL
    oracle: DuckDB regexp_extract_all('(?s).') codepoint unnest +
    GROUP BY mirror."""
    from ..ops.textstats import add_char_entropy

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    out = add_char_entropy(docs).to_pandas()
    out["char_entropy"] = _round_half_away(out["char_entropy"], 4)
    return (
        out[["doc_id", "n_distinct_chars", "char_entropy"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_anchor_texts(sf_dir: str) -> pd.DataFrame:
    """Anchor-text corpus extraction (ops/graph.py::extract_anchor_texts):
    synthetic link-bearing pages (a pure function of doc_id, reproduced
    verbatim in the SQL oracle) -> the (dst_host, anchor, n_links)
    incoming-description table — the retrieval-training signal mined
    from crawls.  Exercises both quote styles, whitespace collapse,
    relative/mailto/empty-anchor and nested-markup cases.  FULL SQL
    oracle: two regexp_extract_all passes (href + text groups, zipped
    positionally by unnest) + host classification mirror."""
    from ..ops.graph import extract_anchor_texts

    docs = _t(sf_dir, "documents", ["doc_id"])

    def mk_pages(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype("int64")
        url = "https://h" + (i % 13).astype(str) + ".example/p/" + i.astype(str)
        html = (
            '<html><body><a href="https://h'
            + ((i * 3 + 1) % 17).astype(str)
            + '.example/a">Guide to topic '
            + ((i * 7) % 23).astype(str)
            + "</a>"
        )
        html = html + np.where(
            i % 4 == 0,
            "<a href='//h"
            + ((i * 5 + 2) % 17).astype(str)
            + ".example/b'>  spaced\t anchor "
            + (i % 5).astype(str)
            + "  </a>",
            "",
        )
        html = html + np.where(i % 3 == 0, '<a href="/local/page">local link</a>', "")
        html = html + np.where(i % 6 == 0, '<a href="mailto:a@b.c">mail me</a>', "")
        html = html + np.where(
            i % 5 == 0, '<a href="https://h1.example/e"></a>', ""
        )
        html = html + np.where(
            i % 7 == 0, '<a href="https://h2.example/n"><b>bold</b></a>', ""
        )
        html = html + "</body></html>"
        return pd.DataFrame({"url": url, "html": html})

    pages = docs.map_batches(mk_pages, batch_format="pandas")
    out = extract_anchor_texts(pages)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out["n_links"] = out["n_links"].astype("int64")
    return out.sort_values(["dst_host", "anchor"]).reset_index(drop=True)


def q_nfc_normalized_docs(sf_dir: str) -> pd.DataFrame:
    """UAX #15 canonical normalization (functions/unicode.py): documents
    text augmented with decomposed sequences (e + combining acute, u +
    combining diaeresis) and NFC-normalized via unicodedata (the
    Arrow utf8_normalize kernel is deliberately unused — it fails to
    recompose on the pinned pyarrow; see functions/unicode.py).  FULL SQL oracle: DuckDB nfc_normalize over the identical
    augmentation (both engines implement UAX #15 — composed output and
    codepoint lengths must agree exactly)."""
    from ..functions.unicode import unicode_normalize

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def aug(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "text": b["text"] + " cafe\u0301 u\u0308ber"}
        )

    ds = docs.map_batches(aug, batch_format="pandas")
    out = unicode_normalize(ds, "text", form="NFC", out_col="text_nfc").to_pandas()
    out["n_chars_nfc"] = out["text_nfc"].str.len().astype("int64")
    return (
        out[["doc_id", "text_nfc", "n_chars_nfc"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_warc_extract_docs(sf_dir: str) -> pd.DataFrame:
    """Crawl-archive ingestion route (sources/warc.py): the synthetic pages
    corpus is serialized to sharded ``.warc.gz`` files (gzip member per
    record, revisit records for missing payloads — the Common-Crawl layout),
    read back with ``read_warc``, and run through the flagship extraction
    pipeline.  No SQL analogue (container-format parse); the in-query assert
    pins the route invariant: byte-identical extracted text vs the parquet
    route on the same content (WARC carries no prior-text column, so both
    routes run with ``text`` cleared)."""
    import hashlib
    import tempfile

    import pyarrow as pa

    from ..corpus import make_pages_table
    from ..sources.warc import read_warc, write_pages_warc
    from .extraction import extraction_pipeline

    t = make_pages_table(40)
    t = t.set_column(
        t.schema.get_field_index("text"), "text", pa.array([""] * len(t), pa.string())
    )
    # per-run private tempdir: a fixed shared path would let two
    # concurrent runs race on the same .tmp files before os.replace
    out_dir = tempfile.mkdtemp(prefix="ocr_ray_warc_fixture_")
    try:
        paths = write_pages_warc(out_dir, t, urls_per_shard=8)
        direct = extraction_pipeline(rd.from_arrow(t)).to_pandas()
        via_warc = extraction_pipeline(read_warc(paths)).to_pandas()
    finally:
        import shutil as _shutil

        _shutil.rmtree(out_dir, ignore_errors=True)
    direct = direct.sort_values("url").reset_index(drop=True)
    via_warc = via_warc.sort_values("url").reset_index(drop=True)
    assert list(direct["url"]) == list(via_warc["url"]), "WARC route lost/added urls"
    assert (direct["extracted_text"] == via_warc["extracted_text"]).all(), (
        "WARC route extraction not byte-identical to parquet route"
    )
    sha = via_warc["extracted_text"].map(
        lambda s: hashlib.sha256(s.encode()).hexdigest()
    )
    return pd.DataFrame(
        {
            "url": via_warc["url"],
            "n_pages": via_warc["n_pages"],
            "total_words": via_warc["total_words"],
            "text_sha256": sha,
        }
    )


def q_event_funnel(sf_dir: str) -> pd.DataFrame:
    """Funnel / ordered-sequence match (MATCH_RECOGNIZE-lite) over the
    events stream: view -> click -> purchase, each step strictly after
    the previous and all within 12 hours of the first view (first-touch
    greedy — the standard product-analytics funnel).  One bounded
    key-hash exchange carrying only the step-typed rows; per-shard
    vectorized merge+min chain.  Full SQL oracle (three chained
    min-after CTEs) in TestTailQueryOracles."""
    from ..ops.windows import funnel_match

    ds = _t(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_match(
        ds,
        ["view", "click", "purchase"],
        key_col="user_id",
        ts_col="ts",
        type_col="event_type",
        within=pd.Timedelta(hours=12),
    )


def q_bm25_indexed_top10(sf_dir: str) -> pd.DataFrame:
    """BM25 via the PERSISTED token-hash-partitioned inverted index
    (ops/search.py::build_bm25_index): postings land in ``shard=N/``
    parquet by token hash, the search opens only the query terms' shard
    directories (partition-pruned reads — the IVF-PQ idea on the lexical
    side), and scoring is bit-identical to the full-scan bm25_topk
    (equivalence-tested in TestBm25Index).  Same query string and SQL
    oracle as bm25_top10."""
    import shutil as _shutil
    import tempfile as _tempfile

    from ..ops.search import bm25_search_index, build_bm25_index

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    idx = _tempfile.mkdtemp(prefix="bm25_idx_")
    try:
        build_bm25_index(ds, idx, id_col="doc_id", text_col="text")
        out = bm25_search_index(idx, "table scan merge window", k=10)
    finally:
        _shutil.rmtree(idx, ignore_errors=True)
    out["score"] = _round_half_away(out["score"], 6)
    return out[["doc_id", "score"]].reset_index(drop=True)


def q_bm25_incremental_top10(sf_dir: str) -> pd.DataFrame:
    """BM25 via the INCREMENTALLY-maintained inverted index
    (ops/search.py::bm25_index_new_partitions): the documents table
    splits into two source units indexed by two separate calls (the
    second call must skip the first unit — asserted in-query), global
    stats sum over committed unit manifests, and the search opens only
    the committed generations' query-term shards.  Scoring shares
    `_score_posting_files` with the one-shot index, so the result is
    bit-identical to the full scan — same query string and SQL oracle
    as bm25_top10."""
    import os
    import shutil as _shutil
    import tempfile as _tempfile

    from ..ops.search import bm25_index_new_partitions, bm25_search_incremental

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    root = _tempfile.mkdtemp(prefix="bm25_inc_")
    try:
        src, idx = os.path.join(root, "src"), os.path.join(root, "idx")
        os.makedirs(src)
        for unit in (0, 1):
            ds.map_batches(
                lambda b, _u=unit: b[b["doc_id"] % 2 == _u],
                batch_format="pandas",
            ).repartition(1).write_parquet(os.path.join(src, f"unit{unit}.d"))
            # one parquet file per unit dir -> flatten to plain files
        flat = []
        for unit in (0, 1):
            d = os.path.join(src, f"unit{unit}.d")
            (f,) = [x for x in sorted(os.listdir(d)) if x.endswith(".parquet")]
            os.replace(os.path.join(d, f), os.path.join(src, f"unit{unit}.parquet"))
            os.rmdir(d)
            flat.append(f"unit{unit}.parquet")
        r1 = bm25_index_new_partitions(src, idx)
        assert r1["indexed"] == 2, r1
        r2 = bm25_index_new_partitions(src, idx)
        assert r2["indexed"] == 0 and r2["skipped"] == 2, r2
        out = bm25_search_incremental(idx, "table scan merge window", k=10)
    finally:
        _shutil.rmtree(root, ignore_errors=True)
    out["score"] = _round_half_away(out["score"], 6)
    return out[["doc_id", "score"]].reset_index(drop=True)


# ===========================================================================
# TPC-H Q5 / Q8 / Q12 / Q17 / Q21 (session-6 join-pipeline compositions;
# predicates adapted to the reduced fixture schema — no partsupp table, no
# l_shipmode/l_commitdate/l_receiptdate — while keeping each query's join
# topology and aggregate shape)
# ===========================================================================
def q_tpch_q5_local_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 (local supplier volume): revenue per nation from lineitems
    whose SUPPLIER and CUSTOMER share a nation inside one region, orders
    within a date window.  Dims (nation ⋈ region) resolve driver-side;
    the fact stream takes one broadcast join (supplier side), one
    size-aware join (orders side), and the same-nation equality filters
    map-side — raw lineitems never ride a shuffle un-reduced.  Full SQL
    oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg, auto_join, broadcast_hash_join
    from ..sources.ingest import read_dim_pandas

    nat = read_dim_pandas(f"{sf_dir}/nation.parquet", ["n_nationkey", "n_name", "n_regionkey"])
    reg = read_dim_pandas(f"{sf_dir}/region.parquet", ["r_regionkey", "r_name"])
    nr = nat.merge(
        reg[reg["r_name"] == "EUROPE"], left_on="n_regionkey", right_on="r_regionkey"
    )
    keys = set(nr["n_nationkey"])
    names = dict(zip(nr["n_nationkey"], nr["n_name"]))

    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda b: b[b["s_nationkey"].isin(keys)].rename(
            columns={"s_suppkey": "l_suppkey"}
        ),
        batch_format="pandas",
    )
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda b: b[b["c_nationkey"].isin(keys)].rename(
            columns={"c_custkey": "o_custkey"}
        ),
        batch_format="pandas",
    )
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda b: b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)][
            ["o_orderkey", "o_custkey"]
        ],
        batch_format="pandas",
    )
    orders = auto_join(orders, cust, "o_custkey", how="inner").map_batches(
        lambda b: b[["o_orderkey", "c_nationkey"]].rename(
            columns={"o_orderkey": "l_orderkey"}
        )
        if len(b) and "o_orderkey" in b.columns
        else pd.DataFrame(
            {
                "l_orderkey": pd.Series([], dtype="int64"),
                "c_nationkey": pd.Series([], dtype="int64"),
            }
        ),
        batch_format="pandas",
    )

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "rev_c": _cents(b["l_extendedprice"] * (1 - b["l_discount"])),
            }
        )

    li = _t(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pandas")
    li = broadcast_hash_join(li, supp, "l_suppkey", how="inner")
    joined = auto_join(li, orders, "l_orderkey", how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "s_nationkey" not in b.columns:
            return pd.DataFrame(
                {
                    "s_nationkey": pd.Series([], dtype="int64"),
                    "rev_c": pd.Series([], dtype="int64"),
                }
            )
        b = b[b["s_nationkey"] == b["c_nationkey"]]  # the local-supplier filter
        return b.groupby("s_nationkey", as_index=False).agg(rev_c=("rev_c", "sum"))

    agg = auto_group_agg(
        joined.map_batches(partial, batch_format="pandas"),
        ["s_nationkey"],
        {"rev_c": ("rev_c", "sum")},
    )
    out = agg if isinstance(agg, pd.DataFrame) else agg.to_pandas()
    out["n_name"] = out["s_nationkey"].map(names)
    out["revenue"] = out["rev_c"].astype("float64") / 100.0
    return (
        out[["n_name", "revenue"]].sort_values("n_name").reset_index(drop=True)
    )


def q_tpch_q8_market_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q8 (national market share): for PROMO-type parts sold to
    customers in one region over two years, the share of revenue supplied
    by one target nation, per order year.  Part prune + supplier lookup
    are broadcast joins; the orders side (date filter + region-customer
    semi) goes through one size-aware join; the share is a ratio of two
    integer-cents sums so both engines divide identical integers.  Full
    SQL oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg, auto_join, broadcast_hash_join
    from ..sources.ingest import read_dim_pandas

    target_nation = 19
    nat = read_dim_pandas(f"{sf_dir}/nation.parquet", ["n_nationkey", "n_regionkey"])
    reg = read_dim_pandas(f"{sf_dir}/region.parquet", ["r_regionkey", "r_name"])
    keys = set(
        nat.merge(
            reg[reg["r_name"] == "AMERICA"],
            left_on="n_regionkey",
            right_on="r_regionkey",
        )["n_nationkey"]
    )

    part = _t(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda b: b[b["p_type"] == "PROMO"][["p_partkey"]].rename(
            columns={"p_partkey": "l_partkey"}
        ),
        batch_format="pandas",
    )
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda b: b.rename(columns={"s_suppkey": "l_suppkey"}),
        batch_format="pandas",
    )
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda b: b[b["c_nationkey"].isin(keys)][["c_custkey"]].rename(
            columns={"c_custkey": "o_custkey"}
        ),
        batch_format="pandas",
    )
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-12-31")

    def o_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] <= hi)]
        return pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"],
                "o_custkey": b["o_custkey"],
                "o_year": b["o_orderdate"].dt.year.astype("int64"),
            }
        )

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        o_prep, batch_format="pandas"
    )
    orders = auto_join(orders, cust, "o_custkey", how="inner").map_batches(
        lambda b: b[["o_orderkey", "o_year"]].rename(
            columns={"o_orderkey": "l_orderkey"}
        )
        if len(b) and "o_orderkey" in b.columns
        else pd.DataFrame(
            {
                "l_orderkey": pd.Series([], dtype="int64"),
                "o_year": pd.Series([], dtype="int64"),
            }
        ),
        batch_format="pandas",
    )

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"],
                "l_partkey": b["l_partkey"],
                "l_suppkey": b["l_suppkey"],
                "rev_c": _cents(b["l_extendedprice"] * (1 - b["l_discount"])),
            }
        )

    li = _t(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pandas")
    li = broadcast_hash_join(li, part, "l_partkey", how="inner")
    li = broadcast_hash_join(li, supp, "l_suppkey", how="inner")
    joined = auto_join(li, orders, "l_orderkey", how="inner")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "o_year" not in b.columns:
            return pd.DataFrame(
                {
                    "o_year": pd.Series([], dtype="int64"),
                    "target_c": pd.Series([], dtype="int64"),
                    "total_c": pd.Series([], dtype="int64"),
                }
            )
        t = pd.DataFrame(
            {
                "o_year": b["o_year"],
                "target_c": np.where(
                    b["s_nationkey"].to_numpy() == target_nation, b["rev_c"], 0
                ),
                "total_c": b["rev_c"],
            }
        )
        return t.groupby("o_year", as_index=False).agg(
            target_c=("target_c", "sum"), total_c=("total_c", "sum")
        )

    agg = auto_group_agg(
        joined.map_batches(partial, batch_format="pandas"),
        ["o_year"],
        {"target_c": ("target_c", "sum"), "total_c": ("total_c", "sum")},
    )
    out = agg if isinstance(agg, pd.DataFrame) else agg.to_pandas()
    out["mkt_share"] = _round_half_away(
        out["target_c"].astype("float64") / out["total_c"].astype("float64"), 6
    )
    return out[["o_year", "mkt_share"]].sort_values("o_year").reset_index(drop=True)


def q_tpch_q12_late_shipments(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12 (shipping-mode priority counts) adapted to this schema
    (no l_shipmode/l_commitdate/l_receiptdate): lineitems shipped more
    than 60 days after their order date, counted per l_linestatus split
    into high- vs low-priority orders.  One size-aware fact-fact join
    (orders projected to three columns first), the lateness predicate and
    the CASE counts vectorized map-side, two-group driver finish.  Full
    SQL oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg, auto_join

    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(
        lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas",
    )
    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_shipdate"])
    joined = auto_join(li, orders, "l_orderkey", how="inner")

    late_by = pd.Timedelta(days=60)
    high = {"1-URGENT", "2-HIGH"}

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "o_orderdate" not in b.columns:
            return pd.DataFrame(
                {
                    "l_linestatus": pd.Series([], dtype="object"),
                    "high_line_count": pd.Series([], dtype="int64"),
                    "low_line_count": pd.Series([], dtype="int64"),
                }
            )
        b = b[b["l_shipdate"] > b["o_orderdate"] + late_by]
        is_high = b["o_orderpriority"].isin(high).to_numpy()
        t = pd.DataFrame(
            {
                "l_linestatus": b["l_linestatus"],
                "high_line_count": is_high.astype("int64"),
                "low_line_count": (~is_high).astype("int64"),
            }
        )
        return t.groupby("l_linestatus", as_index=False).agg(
            high_line_count=("high_line_count", "sum"),
            low_line_count=("low_line_count", "sum"),
        )

    agg = auto_group_agg(
        joined.map_batches(partial, batch_format="pandas"),
        ["l_linestatus"],
        {
            "high_line_count": ("high_line_count", "sum"),
            "low_line_count": ("low_line_count", "sum"),
        },
    )
    out = agg if isinstance(agg, pd.DataFrame) else agg.to_pandas()
    return out.sort_values("l_linestatus").reset_index(drop=True)


def q_tpch_q17_small_quantity(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17 (small-quantity-order revenue): average yearly revenue
    lost if one brand's orders below 20% of that part's average quantity
    were not taken.  The correlated scalar subquery (per-part average)
    becomes pass 1: a per-part (sum, count) combiner over the
    brand-pruned lineitems finishing size-aware — part-dimension-sized by
    construction; the comparison is the integer cross-product
    q_c·5·nq < sq_c (no float average, so both engines compare identical
    integers); pass 2 re-scans brand lineitems map-only against the
    broadcast per-part table and reduces one scalar.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg
    from ..sources.ingest import read_dim_pandas

    brand_keys = frozenset(
        read_dim_pandas(f"{sf_dir}/part.parquet", ["p_partkey", "p_brand"])
        .query("p_brand == 'Brand#11'")["p_partkey"]
    )

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_partkey"].isin(brand_keys)]
        return pd.DataFrame(
            {
                "l_partkey": b["l_partkey"],
                "q_c": _cents(b["l_quantity"]),
                "price_c": _cents(b["l_extendedprice"]),
            }
        )

    cols = ["l_partkey", "l_quantity", "l_extendedprice"]

    def part_stats(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("l_partkey", as_index=False).agg(
            sq=("q_c", "sum"), nq=("q_c", "size")
        )

    stats = auto_group_agg(
        _t(sf_dir, "lineitem", cols)
        .map_batches(li_prep, batch_format="pandas")
        .map_batches(part_stats, batch_format="pandas"),
        ["l_partkey"],
        {"sq": ("sq", "sum"), "nq": ("nq", "sum")},
    )
    stats = stats if isinstance(stats, pd.DataFrame) else stats.to_pandas()
    sq = dict(zip(stats["l_partkey"], stats["sq"].astype("int64")))
    nq = dict(zip(stats["l_partkey"], stats["nq"].astype("int64")))

    def small_sum(b: pd.DataFrame) -> pd.DataFrame:
        b = li_prep(b)
        if len(b) == 0:
            return pd.DataFrame({"price_c": [0]})
        sq_a = b["l_partkey"].map(sq).to_numpy(dtype="int64")
        nq_a = b["l_partkey"].map(nq).to_numpy(dtype="int64")
        keep = b["q_c"].to_numpy() * 5 * nq_a < sq_a
        return pd.DataFrame({"price_c": [int(b.loc[keep, "price_c"].sum())]})

    parts = (
        _t(sf_dir, "lineitem", cols)
        .map_batches(small_sum, batch_format="pandas")
        .to_pandas()
    )
    total_c = int(parts["price_c"].sum())
    return pd.DataFrame(
        {"avg_yearly": _round_half_away(pd.Series([total_c / 100.0 / 7.0]), 4)}
    )


def q_tpch_q21_waiting_suppliers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q21 (suppliers who kept orders waiting) adapted (late :=
    shipped > 90 days after order date; no nation filter — the fixture
    has 10-100 suppliers): for finished ('F') orders with lineitems from
    more than one supplier where EXACTLY ONE supplier shipped late, count
    blamed orders per supplier.  The EXISTS / NOT EXISTS pair becomes one
    per-order aggregate: a (l_orderkey, l_suppkey, late) distinct-pair
    combiner feeds ONE bounded hash-shard exchange on l_orderkey whose
    per-shard pass re-dedupes pairs and reduces each order to
    (n_suppliers, n_late_suppliers, blamed) — supplier counts are then
    dimension-sized and finish on the driver.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.exchange import exchange
    from ..ops.relational import auto_join
    from ..sources.ingest import read_dim_pandas

    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderstatus"]
    ).map_batches(
        lambda b: b[b["o_orderstatus"] == "F"][["o_orderkey", "o_orderdate"]].rename(
            columns={"o_orderkey": "l_orderkey"}
        ),
        batch_format="pandas",
    )
    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    joined = auto_join(li, orders, "l_orderkey", how="inner")
    late_by = pd.Timedelta(days=90)

    def pair_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "o_orderdate" not in b.columns:
            return pd.DataFrame(
                {
                    "l_orderkey": pd.Series([], dtype="int64"),
                    "l_suppkey": pd.Series([], dtype="int64"),
                    "late": pd.Series([], dtype="int64"),
                }
            )
        t = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "late": (b["l_shipdate"] > b["o_orderdate"] + late_by).astype("int64"),
            }
        )
        return t.groupby(["l_orderkey", "l_suppkey"], as_index=False).agg(
            late=("late", "max")
        )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        # re-dedupe pairs across batches (all of an order's partials are
        # in this shard), reduce each order, then count blames PER
        # SUPPLIER in-shard — the driver sees <= shards x n_suppliers
        # partial rows, never the order-count-sized blamed list
        pairs = g.groupby(["l_orderkey", "l_suppkey"], as_index=False).agg(
            late=("late", "max")
        )
        per = pairs.groupby("l_orderkey").agg(
            ns=("l_suppkey", "size"), nl=("late", "sum")
        )
        blamed = pairs[pairs["late"] == 1].set_index("l_orderkey")["l_suppkey"]
        per = per[(per["ns"] > 1) & (per["nl"] == 1)]
        out = blamed.loc[blamed.index.isin(per.index)]
        return (
            pd.DataFrame({"l_suppkey": out.to_numpy()})
            .groupby("l_suppkey", as_index=False)
            .size()
        )

    partials = exchange(
        joined.map_batches(pair_partial, batch_format="pandas"),
        "l_orderkey",
        per_shard,
    ).to_pandas()
    counts = partials.groupby("l_suppkey", as_index=False).agg(size=("size", "sum"))
    supp = read_dim_pandas(f"{sf_dir}/supplier.parquet", ["s_suppkey", "s_name"])
    out = counts.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    out = out.rename(columns={"size": "numwait"})[["s_name", "numwait"]]
    out["numwait"] = out["numwait"].astype("int64")
    return (
        out.sort_values(["numwait", "s_name"], ascending=[False, True])
        .reset_index(drop=True)
    )


def _derived_partsupp(sf_dir: str) -> pd.DataFrame:
    """Derived ``partsupp`` dimension — the fixture has no partsupp table,
    and TPC-H Q2/Q9/Q11/Q16/Q20 need one, so both engines derive the
    IDENTICAL table from lineitem: per (l_partkey, l_suppkey),
    ``cost_c`` = MIN(cents(l_extendedprice)) (cheapest observed line, the
    supply-cost stand-in) and ``avail_c`` = MAX(cents(l_quantity)) (peak
    single-shipment quantity, the avail-qty stand-in).  Min/max over exact
    integer cents are order-free, so the parallel derivation equals
    DuckDB's sequential one bit for bit.

    One combiner pass over lineitem into the size-aware finish.  The
    result is |parts|x|suppliers| bounded — a dimension by construction —
    so consumers treat it dim-side (the J5 broadcast rule); past the
    2M-row threshold ``auto_group_agg`` already returns the exchange-route
    Dataset and a consumer would switch its joins bucketed."""
    from ..ops.relational import auto_group_agg

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "ps_partkey": b["l_partkey"],
                "ps_suppkey": b["l_suppkey"],
                "cost_c": _cents(b["l_extendedprice"]),
                "qty_c": _cents(b["l_quantity"]),
            }
        )
        return t.groupby(["ps_partkey", "ps_suppkey"], as_index=False).agg(
            cost_c=("cost_c", "min"), avail_c=("qty_c", "max")
        )

    ps = auto_group_agg(
        _t(
            sf_dir,
            "lineitem",
            ["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
        ).map_batches(partial, batch_format="pandas"),
        ["ps_partkey", "ps_suppkey"],
        {"cost_c": ("cost_c", "min"), "avail_c": ("avail_c", "max")},
    )
    ps = ps if isinstance(ps, pd.DataFrame) else ps.to_pandas()
    ps["ps_partkey"] = ps["ps_partkey"].astype("int64")
    ps["ps_suppkey"] = ps["ps_suppkey"].astype("int64")
    return ps


def _region_suppliers(sf_dir: str, r_name: str) -> pd.DataFrame:
    """Suppliers in one region with their nation name — three dimension
    merges, zero Ray executions (read_dim_pandas footers)."""
    from ..sources.ingest import read_dim_pandas

    supp = read_dim_pandas(
        f"{sf_dir}/supplier.parquet",
        ["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
    )
    nat = read_dim_pandas(f"{sf_dir}/nation.parquet")
    reg = read_dim_pandas(f"{sf_dir}/region.parquet")
    es = supp.merge(nat, left_on="s_nationkey", right_on="n_nationkey").merge(
        reg, left_on="n_regionkey", right_on="r_regionkey"
    )
    return es[es["r_name"] == r_name][
        ["s_suppkey", "s_name", "s_acctbal", "n_name"]
    ]


def q_tpch_q2_min_cost_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q2 (minimum-cost supplier) adapted to the fixture (partsupp
    derived — ``_derived_partsupp``; no p_mfgr column; region ASIA;
    part filter p_size 10-30 + p_type PROMO): for each qualifying part,
    the region's suppliers whose supply cost equals that part's regional
    minimum.  The correlated MIN subquery becomes one vectorized
    ``transform('min')`` over the derived dimension — the only fact-scale
    work is the partsupp reduce itself.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..sources.ingest import read_dim_pandas

    ps = _derived_partsupp(sf_dir)
    es = _region_suppliers(sf_dir, "ASIA")
    part = read_dim_pandas(
        f"{sf_dir}/part.parquet", ["p_partkey", "p_brand", "p_size", "p_type"]
    )
    pp = part[(part["p_size"].between(10, 30)) & (part["p_type"] == "PROMO")]
    j = ps.merge(es, left_on="ps_suppkey", right_on="s_suppkey").merge(
        pp[["p_partkey", "p_brand"]], left_on="ps_partkey", right_on="p_partkey"
    )
    j = j[j["cost_c"] == j.groupby("ps_partkey")["cost_c"].transform("min")]
    out = pd.DataFrame(
        {
            "s_acctbal": j["s_acctbal"].to_numpy(),
            "s_name": j["s_name"].to_numpy(),
            "n_name": j["n_name"].to_numpy(),
            "p_partkey": j["ps_partkey"].to_numpy(dtype="int64"),
            "p_brand": j["p_brand"].to_numpy(),
            # int cents -> CAST(c AS DOUBLE)/100: the identical IEEE op on
            # the identical integer on both engines (no rounding needed)
            "ps_supplycost": j["cost_c"].to_numpy(dtype="int64") / 100.0,
        }
    )
    return out.sort_values(
        ["s_acctbal", "n_name", "s_name", "p_partkey"],
        ascending=[False, True, True, True],
    ).reset_index(drop=True)


def q_tpch_q4_order_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 (order-priority checking) adapted (late := shipped more
    than 30 days after the order date — the fixture has no
    commit/receipt dates): orders placed in 1996Q1 with at least one late
    lineitem, counted per priority.  The EXISTS becomes q21's shape: the
    date+priority projection rides ONE ``auto_join``, a per-batch
    distinct-(order, priority) combiner caps the exchange payload, one
    bounded hash-shard exchange re-dedupes and counts per priority
    in-shard, and the driver sums <= shards x 5 partial rows.  Full SQL
    oracle in TestTailQueryOracles."""
    from ..ops.exchange import exchange
    from ..ops.relational import auto_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-04-01")
    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(
        lambda b: b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)].rename(
            columns={"o_orderkey": "l_orderkey"}
        ),
        batch_format="pandas",
    )
    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    joined = auto_join(li, orders, "l_orderkey", how="inner")
    late_by = pd.Timedelta(days=30)

    def pair_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "o_orderdate" not in b.columns:
            return pd.DataFrame(
                {
                    "l_orderkey": pd.Series([], dtype="int64"),
                    "o_orderpriority": pd.Series([], dtype="object"),
                }
            )
        b = b[b["l_shipdate"] > b["o_orderdate"] + late_by]
        return b[["l_orderkey", "o_orderpriority"]].drop_duplicates()

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        pairs = g[["l_orderkey", "o_orderpriority"]].drop_duplicates()
        return pairs.groupby("o_orderpriority", as_index=False).size()

    partials = exchange(
        joined.map_batches(pair_partial, batch_format="pandas"),
        "l_orderkey",
        per_shard,
    ).to_pandas()
    out = partials.groupby("o_orderpriority", as_index=False).agg(
        order_count=("size", "sum")
    )
    out["order_count"] = out["order_count"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def q_tpch_q9_product_profit(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q9 (product-type profit) adapted (parts whose name contains
    'widget'; supply cost from the derived partsupp): profit per supplier
    nation per order year.  Amount stays in integer 1e-4-dollar units
    end to end (``rev_c*100 - cost_c*qty_c``) so the parallel sum is
    exact; order dates arrive through ONE ``auto_join``; the per-batch
    cost lookup is a vectorized merge against the broadcast derived
    dimension; a (nation, year) combiner feeds the size-aware finish.
    Full SQL oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg, auto_join
    from ..sources.ingest import read_dim_pandas

    ps = _derived_partsupp(sf_dir)[["ps_partkey", "ps_suppkey", "cost_c"]]
    part = read_dim_pandas(f"{sf_dir}/part.parquet", ["p_partkey", "p_name"])
    keys = frozenset(part[part["p_name"].str.contains("widget")]["p_partkey"])
    supp = read_dim_pandas(f"{sf_dir}/supplier.parquet", ["s_suppkey", "s_nationkey"])
    nat = read_dim_pandas(f"{sf_dir}/nation.parquet", ["n_nationkey", "n_name"])
    s2n = dict(
        zip(
            supp["s_suppkey"],
            supp["s_nationkey"].map(dict(zip(nat["n_nationkey"], nat["n_name"]))),
        )
    )
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas",
    )
    li = _t(
        sf_dir,
        "lineitem",
        [
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_quantity",
        ],
    )
    joined = auto_join(li, orders, "l_orderkey", how="inner")
    empty = pd.DataFrame(
        {
            "nation": pd.Series([], dtype="object"),
            "o_year": pd.Series([], dtype="int64"),
            "amount_e4": pd.Series([], dtype="int64"),
        }
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "o_orderdate" not in b.columns:
            return empty.copy()
        b = b[b["l_partkey"].isin(keys)]
        if len(b) == 0:
            return empty.copy()
        m = b.merge(
            ps, left_on=["l_partkey", "l_suppkey"], right_on=["ps_partkey", "ps_suppkey"]
        )
        t = pd.DataFrame(
            {
                "nation": m["l_suppkey"].map(s2n),
                "o_year": m["o_orderdate"].dt.year.astype("int64"),
                "amount_e4": _cents(m["l_extendedprice"] * (1 - m["l_discount"]))
                * 100
                - m["cost_c"].to_numpy(dtype="int64") * _cents(m["l_quantity"]),
            }
        )
        return t.groupby(["nation", "o_year"], as_index=False).agg(
            amount_e4=("amount_e4", "sum")
        )

    agg = auto_group_agg(
        joined.map_batches(partial, batch_format="pandas"),
        ["nation", "o_year"],
        {"amount_e4": ("amount_e4", "sum")},
    )
    agg = agg if isinstance(agg, pd.DataFrame) else agg.to_pandas()
    out = pd.DataFrame(
        {
            "nation": agg["nation"],
            "o_year": agg["o_year"].astype("int64"),
            "profit": agg["amount_e4"].astype("int64") / 10000.0,
        }
    )
    return out.sort_values(["nation", "o_year"]).reset_index(drop=True)


def q_tpch_q11_important_stock(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q11 (important stock identification) adapted (derived
    partsupp; suppliers in region ASIA; importance := a part's stock
    value exceeds 2x the mean per-part share, kept as the exact integer
    cross-product ``value_e4 * n_parts > 2 * total_e4`` so there is no
    float threshold boundary).  Everything after the distributed partsupp
    derivation is dimension-sized.  Full SQL oracle in
    TestTailQueryOracles."""
    ps = _derived_partsupp(sf_dir)
    es = frozenset(_region_suppliers(sf_dir, "ASIA")["s_suppkey"])
    v = ps[ps["ps_suppkey"].isin(es)].copy()
    v["value_e4"] = v["cost_c"].to_numpy(dtype="int64") * v["avail_c"].to_numpy(
        dtype="int64"
    )
    v = v.groupby("ps_partkey", as_index=False).agg(value_e4=("value_e4", "sum"))
    tot, c = int(v["value_e4"].sum()), len(v)
    v = v[v["value_e4"] * c > 2 * tot]
    out = pd.DataFrame(
        {
            "ps_partkey": v["ps_partkey"].to_numpy(dtype="int64"),
            "stock_value": v["value_e4"].to_numpy(dtype="int64") / 10000.0,
        }
    )
    return out.sort_values(
        ["stock_value", "ps_partkey"], ascending=[False, True]
    ).reset_index(drop=True)


def q_tpch_q16_supplier_relationship(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q16 (parts/supplier relationship) adapted (derived partsupp;
    the reference's comment-based complaint exclusion becomes the
    fixture-expressible s_acctbal < 2000 low-standing rule): distinct
    supplier count per (brand, type, size) for parts outside Brand#5 /
    PROMO in the 9-size set.  Dimension-sided after the derivation.
    Full SQL oracle in TestTailQueryOracles."""
    from ..sources.ingest import read_dim_pandas

    ps = _derived_partsupp(sf_dir)
    supp = read_dim_pandas(f"{sf_dir}/supplier.parquet", ["s_suppkey", "s_acctbal"])
    excluded = frozenset(supp[supp["s_acctbal"] < 2000]["s_suppkey"])
    part = read_dim_pandas(
        f"{sf_dir}/part.parquet", ["p_partkey", "p_brand", "p_type", "p_size"]
    )
    sizes = {1, 4, 7, 10, 13, 16, 19, 22, 25}
    pp = part[
        (part["p_brand"] != "Brand#5")
        & (part["p_type"] != "PROMO")
        & (part["p_size"].isin(sizes))
    ]
    j = ps[~ps["ps_suppkey"].isin(excluded)].merge(
        pp, left_on="ps_partkey", right_on="p_partkey"
    )
    out = j.groupby(["p_brand", "p_type", "p_size"], as_index=False).agg(
        supplier_cnt=("ps_suppkey", "nunique")
    )
    out["p_size"] = out["p_size"].astype("int64")
    out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        ascending=[False, True, True, True],
    ).reset_index(drop=True)


def q_tpch_q20_promotion_parts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q20 (potential part promotion) adapted (derived partsupp:
    avail := peak single-shipment quantity; promotable := a (supplier,
    part) pair whose peak shipment exceeds 1.5x its total 1996-shipped
    quantity — ``2*avail_c > 3*qty96_c`` exact integers; parts named
    'cold *').  The 1996 quantity reduce is a per-pair combiner over the
    year-pruned lineitems into the size-aware finish; the rest is
    dimension merges.  Output is (s_name, p_partkey) pairs — the fixture
    has O(10) suppliers, so a distinct-supplier output would be trivially
    saturated.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg
    from ..sources.ingest import read_dim_pandas

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    def shipped_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        t = pd.DataFrame(
            {
                "l_partkey": b["l_partkey"],
                "l_suppkey": b["l_suppkey"],
                "qty96_c": _cents(b["l_quantity"]),
            }
        )
        return t.groupby(["l_partkey", "l_suppkey"], as_index=False).agg(
            qty96_c=("qty96_c", "sum")
        )

    shipped = auto_group_agg(
        _t(
            sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]
        ).map_batches(shipped_partial, batch_format="pandas"),
        ["l_partkey", "l_suppkey"],
        {"qty96_c": ("qty96_c", "sum")},
    )
    shipped = shipped if isinstance(shipped, pd.DataFrame) else shipped.to_pandas()
    ps = _derived_partsupp(sf_dir)
    part = read_dim_pandas(f"{sf_dir}/part.parquet", ["p_partkey", "p_name"])
    cold = frozenset(part[part["p_name"].str.startswith("cold")]["p_partkey"])
    supp = read_dim_pandas(f"{sf_dir}/supplier.parquet", ["s_suppkey", "s_name"])
    j = ps[ps["ps_partkey"].isin(cold)].merge(
        shipped,
        left_on=["ps_partkey", "ps_suppkey"],
        right_on=["l_partkey", "l_suppkey"],
    )
    j = j[
        2 * j["avail_c"].to_numpy(dtype="int64")
        > 3 * j["qty96_c"].to_numpy(dtype="int64")
    ]
    j = j.merge(supp, left_on="ps_suppkey", right_on="s_suppkey")
    out = pd.DataFrame(
        {
            "s_name": j["s_name"].to_numpy(),
            "p_partkey": j["ps_partkey"].to_numpy(dtype="int64"),
        }
    )
    return out.sort_values(["s_name", "p_partkey"]).reset_index(drop=True)


def _order_scores(sf_dir: str) -> rd.Dataset:
    """Orders as a scored binary-classification set: score = total price,
    label = finished status — the fixture-expressible stand-in for a
    quality-classifier output column."""
    return _t(sf_dir, "orders", ["o_totalprice", "o_orderstatus"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "score": b["o_totalprice"],
                "label": (b["o_orderstatus"] == "F").astype("int64"),
            }
        ),
        batch_format="pandas",
    )


def q_order_status_confusion(sf_dir: str) -> pd.DataFrame:
    """Multiclass confusion matrix (ops/eval.confusion_matrix): actual
    order status vs a price-rule prediction.  Per-batch pair-count
    combiner into the size-aware finish — the exchange payload is
    |classes|² per batch.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.eval import confusion_matrix

    ds = _t(sf_dir, "orders", ["o_orderstatus", "o_totalprice"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "o_orderstatus": b["o_orderstatus"],
                "pred": np.where(
                    b["o_totalprice"] >= 300_000,
                    "F",
                    np.where(b["o_totalprice"] >= 150_000, "O", "P"),
                ),
            }
        ),
        batch_format="pandas",
    )
    cm = confusion_matrix(ds, "o_orderstatus", "pred")
    cm = cm if isinstance(cm, pd.DataFrame) else cm.to_pandas()
    cm["n"] = cm["n"].astype("int64")
    return cm.sort_values(["o_orderstatus", "pred"]).reset_index(drop=True)


def q_order_score_pr(sf_dir: str) -> pd.DataFrame:
    """Precision/recall threshold sweep (ops/eval.pr_curve) over the
    scored orders, 20 x $25k score bins: exact int64 tp/fp/fn per
    threshold; precision/recall are single divisions of those ints so
    both engines produce bit-identical doubles.  Full SQL oracle (window
    cumsums over the identical bins) in TestTailQueryOracles."""
    from ..ops.eval import pr_curve

    return pr_curve(
        _order_scores(sf_dir), "score", "label", n_buckets=20, lo=0.0, hi=500_000.0
    )


def q_order_score_auc(sf_dir: str) -> pd.DataFrame:
    """Tie-aware Mann-Whitney AUC (ops/eval.roc_auc) over the scored
    orders — the numerator stays int64 (Σ pos_k·(2·cum_neg_below+neg_k)),
    one final division, so the float is bit-identical across engines and
    block structures.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.eval import roc_auc

    _, auc = roc_auc(
        _order_scores(sf_dir), "score", "label", n_buckets=20, lo=0.0, hi=500_000.0
    )
    return pd.DataFrame({"auc": [auc]})


def q_order_score_calibration(sf_dir: str) -> pd.DataFrame:
    """Reliability diagram (ops/eval.calibration_buckets) over the scored
    orders with scores normalized to [0, 1): per bucket, n / mean_score /
    frac_pos.  Mean scores accumulate in exact fixed-point micro-units
    (the `_cents` pattern) so the parallel sum equals DuckDB's.  Full SQL
    oracle in TestTailQueryOracles."""
    from ..ops.eval import calibration_buckets

    ds = _t(sf_dir, "orders", ["o_totalprice", "o_orderstatus"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "score": b["o_totalprice"] / 500_000.0,
                "label": (b["o_orderstatus"] == "F").astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    return calibration_buckets(ds, "score", "label", n_buckets=10, lo=0.0, hi=1.0)


def q_pareto_orders(sf_dir: str) -> pd.DataFrame:
    """Pareto frontier of orders (ops/pareto.pareto_frontier): maximize
    total price, minimize order date — the "priciest-earliest"
    non-dominated set, duplicates surviving.  Per-batch frontier
    combiners (frontier-of-union = frontier-of-frontiers) into the
    size-aware finish.  Full SQL oracle (NOT EXISTS dominator) in
    TestTailQueryOracles."""
    from ..ops.pareto import pareto_frontier

    out = pareto_frontier(
        _t(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"]),
        ["o_totalprice", "o_orderdate"],
        ["max", "min"],
    )
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out[["o_orderkey", "o_totalprice", "o_orderdate"]].sort_values(
        "o_orderkey"
    ).reset_index(drop=True)


def q_price_qty_linreg_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-group OLS regression (`ops/profile.grouped_linreg` — the SQL
    REGR_SLOPE/REGR_INTERCEPT/R² family): extendedprice vs quantity per
    returnflag, exact integer sufficient statistics, final doubles
    identical to the SQL mirror's expression.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.profile import grouped_linreg

    li = _t(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    out = grouped_linreg(
        li, "l_quantity", "l_extendedprice", ["l_returnflag"], x_scale=100, y_scale=1
    )
    return out[["l_returnflag", "n", "slope", "intercept", "r2"]]


def q_event_transition_probs(sf_dir: str) -> pd.DataFrame:
    """First-order Markov transition matrix over user event timelines
    (`ops/markov.grouped_transitions`): how often each event type is
    immediately followed by each other type within a user's (ts,
    event_id)-ordered sequence, with row-normalized probabilities —
    exact int64 counts, single-division doubles.  Full SQL LEAD-window
    oracle in TestTailQueryOracles."""
    from ..ops.markov import grouped_transitions

    ev = _t(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    return grouped_transitions(ev, ["user_id"], "event_type", ["ts", "event_id"])


def q_user_activity_windows(sf_dir: str) -> pd.DataFrame:
    """Gaps-and-islands interval coalescing (`ops/interval.
    coalesce_intervals`): each event opens a 30-minute activity window;
    overlapping-or-touching windows per user merge into activity
    sessions — ONE bounded hash-shard exchange, then a single vectorized
    cummax/cumsum pass per shard.  Exact integer microseconds so the
    window-cummax SQL mirror hashes identically.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.interval import coalesce_intervals

    ev = _t(sf_dir, "events", ["user_id", "ts"])
    w_us = 30 * 60 * 1_000_000

    def to_iv(b: pd.DataFrame) -> pd.DataFrame:
        s = b["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {"user_id": b["user_id"], "start_us": s, "end_us": s + w_us}
        )

    out = coalesce_intervals(
        ev.map_batches(to_iv, batch_format="pandas"),
        key_cols=["user_id"], start_col="start_us", end_col="end_us",
    )
    return out[["user_id", "start_us", "end_us", "n_merged"]]


def q_event_value_fill(sf_dir: str) -> pd.DataFrame:
    """Per-key ordered NULL gap-filling (`ops/windows.grouped_fill` —
    SQL's ``LAST_VALUE(v IGNORE NULLS) OVER (... ROWS UNBOUNDED
    PRECEDING)``): every 5th event's value is masked NULL, then carried
    forward from the user's nearest earlier reading; leading NULLs stay
    NULL.  Values are copied, never computed — exact float equality.
    Full SQL oracle in TestTailQueryOracles."""
    from ..ops.windows import grouped_fill

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def mask(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b.loc[(b["event_id"] % 5 == 0).to_numpy(), "value"] = np.nan
        return b

    out = grouped_fill(
        ev.map_batches(mask, batch_format="pandas"),
        key_cols=["user_id"], order_col="ts", tie_col="event_id",
        value_cols=["value"],
    )
    return (
        out[["event_id", "user_id", "value"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_link_bfs_reach(sf_dir: str) -> pd.DataFrame:
    """Minimum hop distance from a seed node over a synthesized doc link
    graph (`ops/graph.bfs_distances` — SQL's ``WITH RECURSIVE``
    shortest unweighted path; the "within k hops of trusted domains"
    crawl selection, exact): ring (+1) and chord (+7) edges over
    doc_id % 1000, BFS from node 0.  Per round the frontier broadcasts
    once and one combiner map pass emits distinct successors — the edge
    projection never moves.  Edge synthesis is pure integer arithmetic,
    so a recursive-CTE oracle mirrors it exactly.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.graph import bfs_distances

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy() % 1000
        return pd.DataFrame(
            {
                "src": np.concatenate([ids, ids]),
                "dst": np.concatenate([(ids + 1) % 1000, (ids + 7) % 1000]),
            }
        )

    out = bfs_distances(
        docs.map_batches(links, batch_format="pandas"), [0], max_hops=30
    )
    out["node"] = out["node"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def q_user_retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix (`ops/cohort.cohort_retention`): users
    bucket into the day of their first event; each (cohort, offset)
    cell counts DISTINCT users from that cohort active that many days
    later.  Three size-aware reduces + one size-aware join, exact int64
    day indices — a MIN/JOIN/COUNT-DISTINCT SQL mirror hashes
    identically.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.cohort import cohort_retention

    ev = _t(sf_dir, "events", ["user_id", "ts"])
    return cohort_retention(ev, key_col="user_id", ts_col="ts")


def q_event_pair_lift(sf_dir: str) -> pd.DataFrame:
    """Market-basket association mining (`ops/assoc.pair_cooccurrence`):
    baskets = users, items = the DISTINCT event types each user fired;
    every co-occurring pair gets exact counts plus support and lift.
    One basket-hash exchange + one size-aware reduce; the float
    expressions repeat the SQL mirror operand-for-operand.  Full SQL
    oracle in TestTailQueryOracles."""
    from ..ops.assoc import pair_cooccurrence

    ev = _t(sf_dir, "events", ["user_id", "event_type"])
    return pair_cooccurrence(ev, basket_col="user_id", item_col="event_type")


def q_doc_pmi_bigrams(sf_dir: str) -> pd.DataFrame:
    """PMI collocations over the documents corpus
    (`ops/colloc.pmi_bigrams` — Church & Hanks 1990): adjacent-token
    bigrams occurring >= 25 times ranked by pointwise mutual
    information against token independence.  One tokenize pass into one
    size-aware count reduce; ln() over exact int64 counts in the SQL
    mirror's operand order (the bm25 ln-bit-identity precedent), ROUND
    6 both sides.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.colloc import pmi_bigrams

    docs = _t(sf_dir, "documents", ["text"])
    out = pmi_bigrams(docs, text_col="text", min_count=25)
    out["pmi"] = _round_half_away(out["pmi"], 6)
    return out


def q_crawl_frontier_order(sf_dir: str) -> pd.DataFrame:
    """Politeness-interleaved crawl-frontier ordering
    (`ops/frontier.politeness_order`): URLs synthesized from documents
    (host = doc_id % 37) rank within host by n_chars priority, then the
    global fetch position round-robins across hosts — the two-level
    ROW_NUMBER window computed WITHOUT a global sort (two bounded
    keyed exchanges + a broadcast host-count prefix table).  All int64;
    full SQL oracle in TestTailQueryOracles."""
    from ..ops.frontier import politeness_order

    docs = _t(sf_dir, "documents", ["doc_id", "n_chars"])

    def urls(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        return pd.DataFrame(
            {
                "host": np.char.add("h", (ids % 37).astype(str)),
                "url": np.char.add("u", ids.astype(str)),
                "pri": b["n_chars"].to_numpy(dtype="int64"),
            }
        )

    out = politeness_order(
        docs.map_batches(urls, batch_format="pandas"),
        host_col="host",
        priority_col="pri",
        tie_cols=["url"],
    )
    return out[["host", "url", "pri", "r", "pos"]]


def q_event_value_decay(sf_dir: str) -> pd.DataFrame:
    """Trailing decay-weighted value score per user
    (`ops/windows.grouped_decay_window` — the truncated-EWMA recency
    signal, weights 1/0.5/0.25/0.125 over the last four readings): one
    bounded keyed exchange + a vectorized LAG-chain per shard, float
    arithmetic repeating the SQL mirror operand-for-operand.  Full SQL
    oracle in TestTailQueryOracles."""
    from ..ops.windows import grouped_decay_window

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = grouped_decay_window(
        ev,
        key_cols=["user_id"],
        order_col="ts",
        tie_col="event_id",
        value_col="value",
        weights=[1.0, 0.5, 0.25, 0.125],
    )
    return (
        out[["event_id", "user_id", "decay"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_orders_global_rownum(sf_dir: str) -> pd.DataFrame:
    """Distributed global ROW_NUMBER over (o_totalprice, o_orderkey)
    (`ops/windows.global_row_number`): quantile-sketch range cutoffs +
    a bucket-count prefix table turn the global total order into ONE
    range exchange with per-bucket local sorts — no single-node sort.
    Exact int64 positions; full SQL oracle in TestTailQueryOracles."""
    from ..ops.windows import global_row_number

    od = _t(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = global_row_number(od, order_cols=["o_totalprice", "o_orderkey"])
    return out[["o_orderkey", "o_totalprice", "rn"]]


def q_value_ab_welch(sf_dir: str) -> pd.DataFrame:
    """Welch's unequal-variance t-test per day-of-week
    (`ops/profile.welch_t_test` — the A/B experiment readout): click vs
    view event values compared within each dow cell, all statistics
    from exact scaled-integer moment sums, t and the Welch–Satterthwaite
    df each a single mirrored IEEE expression.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.profile import welch_t_test

    ev = _t(sf_dir, "events", ["event_type", "value", "ts"])

    def add_dow(b: pd.DataFrame) -> pd.DataFrame:
        d = (
            b["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // 86400000000
        ) % 7
        return pd.DataFrame(
            {"dow": d, "event_type": b["event_type"], "value": b["value"]}
        )

    return welch_t_test(
        ev.map_batches(add_dow, batch_format="pandas"),
        "value",
        "event_type",
        "click",
        "view",
        ["dow"],
    )


def q_value_outliers_by_type(sf_dir: str) -> pd.DataFrame:
    """Robust MAD outlier detection per event type
    (`ops/profile.grouped_mad_outliers`): rows where |value − median| >
    1.8·MAD, both statistics selected by the exact quantile_disc
    position rule so every double is a data value and the flag is a
    pure comparison — a ROW_NUMBER SQL mirror matches bit-for-bit.
    Full SQL oracle in TestTailQueryOracles."""
    from ..ops.profile import grouped_mad_outliers

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_mad_outliers(
        ev, ["event_type"], "value", k=1.8, keep_cols=["event_id"]
    )
    return out[["event_id", "event_type", "value", "med", "mad"]]


def q_events_hourly_dense(sf_dir: str) -> pd.DataFrame:
    """Gap-filled dense hourly series per event type
    (`ops/windows.densify_buckets`): every hour between a type's first
    and last event exists, zeros included — the densification step
    monitoring/seasonality pipelines need so silent buckets don't skip.
    Counts pre-combine per batch; one bounded keyed exchange; exact
    int64.  Full generate_series SQL oracle in TestTailQueryOracles."""
    from ..ops.windows import densify_buckets

    ev = _t(sf_dir, "events", ["event_type", "ts"])
    return densify_buckets(
        ev, key_cols=["event_type"], ts_col="ts", bucket_us=3_600_000_000
    )


def q_value_zscore_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-type z-score standardization (`ops/profile.grouped_scale`):
    the ML-preprocessing pass, moments from the exact integer-cents
    contract broadcast into a map-only transform — values never move.
    Full moments-CTE SQL oracle in TestTailQueryOracles."""
    from ..ops.profile import grouped_scale

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_scale(
        ev, ["event_type"], "value", keep_cols=["event_id"]
    )
    return out[["event_id", "event_type", "value", "scaled"]]


def q_user_golden_record(sf_dir: str) -> pd.DataFrame:
    """Survivorship merge per user (`ops/golden.golden_record` — the
    MDM golden record): every fourth value and every fifth event_type
    masked NULL, then each user's record carries the LATEST non-null of
    each column (values copied, never computed).  One keyed exchange +
    one cython groupby().last per shard.  Full FIRST...FILTER SQL oracle
    in TestTailQueryOracles."""
    from ..ops.golden import golden_record

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "event_type",
                               "value"])

    def mask(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b.loc[(b["event_id"] % 4 == 0).to_numpy(), "value"] = np.nan
        b["event_type"] = b["event_type"].astype("object")
        b.loc[(b["event_id"] % 5 == 0).to_numpy(), "event_type"] = None
        return b

    out = golden_record(
        ev.map_batches(mask, batch_format="pandas"),
        key_cols=["user_id"],
        order_col="ts",
        tie_col="event_id",
        value_cols=["value", "event_type"],
    )
    return out[["user_id", "value", "event_type", "n_rows"]].rename(
        columns={"value": "last_value", "event_type": "last_type"}
    )


def q_events_wow_change(sf_dir: str) -> pd.DataFrame:
    """Week-over-week event-count deltas per type — the
    period-over-period monitoring readout composed from the house
    pieces: per-batch count combiners into the size-aware finish, then
    the LAG delta on the report-dim (type × week) table.  delta/pct are
    the SQL expressions verbatim.  Full LAG SQL oracle in
    TestTailQueryOracles."""
    from ..ops.relational import auto_group_agg

    ev = _t(sf_dir, "events", ["event_type", "ts"])
    wk = 7 * 86_400_000_000

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        w = (
            b["ts"].to_numpy().astype("datetime64[us]").astype("int64") // wk
        )
        out = pd.DataFrame({"event_type": b["event_type"], "week": w})
        return (
            out.groupby(["event_type", "week"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    red = auto_group_agg(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "week"],
        {"n": ("n", "sum")},
    )
    df = red if isinstance(red, pd.DataFrame) else red.to_pandas()
    df = df.sort_values(["event_type", "week"]).reset_index(drop=True)
    df["n"] = df["n"].astype("int64")
    prev = df.groupby("event_type")["n"].shift(1)
    nf = df["n"].to_numpy(dtype="float64")
    pf = prev.to_numpy(dtype="float64")
    df["delta"] = nf - pf  # NaN on each type's first week, like LAG
    df["pct_change"] = (nf - pf) / pf
    return df


def q_token_chi2_en(sf_dir: str) -> pd.DataFrame:
    """Top-30 tokens most associated with lang='en' by the χ²
    document-presence contingency (`ops/selection.token_chi2` — MRS IIR
    §13.5.2 term selection).  Per-batch distinct-containment combiners
    into the size-aware finish; χ² is one IEEE expression over four
    exact int64 counts, so the full SQL oracle matches to the bit
    (ROUND 6 both sides).  Oracle in TestTailQueryOracles."""
    from ..ops.selection import token_chi2

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"])
    out = token_chi2(docs, class_col="lang", class_value="en", k=30)
    out["chi2"] = _round_half_away(out["chi2"], 6)
    return out


def q_value_autocorr_by_user(sf_dir: str) -> pd.DataFrame:
    """Per-user lag-1 autocorrelation of value over the (ts, event_id)
    timeline (`ops/profile.grouped_autocorr` — the exact scaled-integer
    moment contract over LAG-paired values).  One keyed exchange + a
    cython shift per shard; the final doubles repeat the SQL CORR
    expression verbatim.  Full LAG+moments SQL oracle in
    TestTailQueryOracles."""
    from ..ops.profile import grouped_autocorr

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    return grouped_autocorr(
        ev,
        "value",
        ["user_id"],
        order_col="ts",
        tie_col="event_id",
        lag=1,
    )


def q_nb_lang_predict(sf_dir: str) -> pd.DataFrame:
    """Multinomial Naive Bayes language prediction (`ops/nb.py` — the
    count-exact classifier: the model IS two integer count tables, so
    training AND per-document log-posterior scoring are SQL-mirrorable).
    Train on documents (lang as label), score the same corpus; pred =
    argmax class with ties to the smallest label, score = winning log
    posterior (ROUND 2 both sides — term sums add in token position
    order, SUM(term ORDER BY pos) in the mirror).  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.nb import nb_fit, nb_predict

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"])
    model = nb_fit(docs, text_col="text", label_col="lang")
    out = nb_predict(docs, model, id_col="doc_id", text_col="text", alpha=1.0)
    out["score"] = _round_half_away(out["score"], 2)
    return out


def q_sqlite_events(sf_dir: str) -> pd.DataFrame:
    """SQLite source + sink roundtrip (`sources/sqlite_io.py` — the
    embedded-database interchange format; content-keyed per-block shards,
    rowid-range parallel reads).  Events roundtrip through a shard
    directory — REAL is IEEE double and timestamps ride the
    ``_opr_schema`` side table as epoch microseconds, so floats AND
    timestamps roundtrip exactly — then the per-type count / cents-sum /
    ts-extrema aggregate must equal SQL over the original parquet.  Full
    SQL oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.sqlite_io import read_sqlite, write_sqlite_dataset

    ev = _t(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    with tempfile.TemporaryDirectory(prefix="sqlite_events_") as td:
        write_sqlite_dataset(ev, td)
        back = read_sqlite(td, columns=["ts", "event_type", "value"])
        partials = back.map_batches(
            lambda b: pd.DataFrame(
                {"event_type": b["event_type"], "c": _cents(b["value"]),
                 "ts": b["ts"]}
            ).groupby("event_type", as_index=False).agg(
                n_events=("c", "size"), sum_c=("c", "sum"),
                min_ts=("ts", "min"), max_ts=("ts", "max"),
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["event_type"],
            {"n_events": ("n_events", "sum"), "sum_c": ("sum_c", "sum"),
             "min_ts": ("min_ts", "min"), "max_ts": ("max_ts", "max")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = out["sum_c"].astype("float64") / 100.0
    return (
        out.drop(columns="sum_c").sort_values("event_type").reset_index(drop=True)
    )


def q_events_hive_scan(sf_dir: str) -> pd.DataFrame:
    """Hive-partitioned layout + categorical partition pruning
    (`ops/layout.hive_write`/`hive_pruned_read` — the ``col=value/``
    directory contract Spark/Hive/Trino write): events land partitioned
    by (event_type, dow); the scan for one (type, day) opens ONLY that
    directory's files — the skip is asserted in-query — and the per-user
    count/cents aggregate over the pruned read must equal the SQL filter
    over the original parquet.  Full SQL oracle in
    TestTailQueryOracles."""
    import tempfile

    from ..ops.layout import hive_pruned_read, hive_write
    from ..ops.relational import auto_group_agg

    ev = _t(sf_dir, "events", ["event_id", "ts", "user_id", "event_type",
                               "value"])

    def add_dow(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        us = b["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        b["dow"] = (us // 86_400_000_000) % 7
        return b

    with tempfile.TemporaryDirectory(prefix="hive_events_") as td:
        hive_write(ev.map_batches(add_dow, batch_format="pandas"),
                   ["event_type", "dow"], td)
        back, opened, total = hive_pruned_read(
            td, {"event_type": "click", "dow": 3},
            columns=["user_id", "value"],
        )
        assert opened < total, "partition pruning must skip files"
        partials = back.map_batches(
            lambda b: pd.DataFrame(
                {"user_id": b["user_id"], "c": _cents(b["value"])}
            ).groupby("user_id", as_index=False).agg(
                n_events=("c", "size"), sum_c=("c", "sum")
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials, ["user_id"],
            {"n_events": ("n_events", "sum"), "sum_c": ("sum_c", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = out["sum_c"].astype("float64") / 100.0
    return (
        out.drop(columns="sum_c").sort_values("user_id").reset_index(drop=True)
    )


def q_event_rate_changepoint(sf_dir: str) -> pd.DataFrame:
    """Per-type CUSUM change point over the hourly event-rate series
    (`ops/drift.cusum_changepoint` — Page 1954 retrospective form): the
    bucket maximizing |S_k − (k/K)·S_K| over exact integer prefix sums.
    Count combiners into the size-aware finish; the scan runs on the
    report-dim table.  Full window-function SQL oracle in
    TestTailQueryOracles."""
    from ..ops.drift import cusum_changepoint

    ev = _t(sf_dir, "events", ["event_type", "ts"])
    return cusum_changepoint(ev, group_col="event_type", ts_col="ts")


def q_value_winsor_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-type winsorized values (`ops/profile.grouped_winsorize`): clip
    into [quantile_disc(0.05), quantile_disc(0.95)] of the type — both
    cutoffs selected by the exact position rule, so every output is a
    copied data value.  Two percentile exchanges + a broadcast map-only
    clip.  Full ROW_NUMBER-position SQL oracle in TestTailQueryOracles."""
    from ..ops.profile import grouped_winsorize

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_winsorize(
        ev, ["event_type"], "value", q_lo=0.05, q_hi=0.95,
        keep_cols=["event_id"],
    )
    return out[["event_id", "event_type", "value", "winsorized"]]


def q_orders_benford(sf_dir: str) -> pd.DataFrame:
    """Benford first-digit audit over order totals
    (`ops/validate.benford_audit` — the fabricated-data / unit-mixing
    screen): leading digit of the exact integer cents vs the Benford
    expectation, per-digit χ² term; digit from the integer's decimal
    string (engine-neutral), expected/term single IEEE expressions.
    Full generate_series SQL oracle in TestTailQueryOracles."""
    from ..ops.validate import benford_audit

    orders = _t(sf_dir, "orders", ["o_totalprice"])
    out = benford_audit(orders, "o_totalprice")
    # ROUND 6 both sides: DuckDB's optimizer reassociates the recomputed
    # inline expression by a few ulps (measured ~1e-11 relative)
    out["expected"] = _round_half_away(out["expected"], 6)
    out["chi2_term"] = _round_half_away(out["chi2_term"], 6)
    return out


def q_user_overlap_hll(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct-user overlap between click and view events
    (`ops/sketch.hll_set_estimates` — register-max union is EXACTLY the
    union's HLL; intersection by inclusion–exclusion).  Zero exchanges;
    two register arrays meet on the driver.  Rows-only: each estimate is
    asserted within 5 % of the exact distributed answer in-query
    (union/|A|/|B| carry the single-sketch bound; the intersection
    inherits the compounded bound on this high-overlap pair)."""
    from ..ops.relational import distinct_sorted
    from ..ops.sketch import hll_set_estimates

    ev = _t(sf_dir, "events", ["user_id", "event_type"])
    clicks = ev.filter(expr="event_type == 'click'")
    views = ev.filter(expr="event_type == 'view'")
    est = hll_set_estimates(clicks, views, "user_id", p=14)

    def exact_distinct(ds):
        return len(distinct_sorted(ds, "user_id"))

    na, nb = exact_distinct(clicks), exact_distinct(views)
    both = _t(sf_dir, "events", ["user_id", "event_type"]).filter(
        expr="event_type == 'click' or event_type == 'view'"
    )
    nu = exact_distinct(both)
    ni = na + nb - nu
    for got, want in ((est["n_a"], na), (est["n_b"], nb),
                      (est["n_union"], nu), (est["n_intersect"], ni)):
        assert want == 0 or abs(got - want) / want <= 0.05, (got, want)
    return pd.DataFrame(
        [{"n_a": est["n_a"], "n_b": est["n_b"], "n_union": est["n_union"],
          "n_intersect": est["n_intersect"], "jaccard": est["jaccard"]}]
    )


def q_html_meta_docs(sf_dir: str) -> pd.DataFrame:
    """Head-metadata extraction (`ops/boilerplate.extract_html_meta` —
    title / meta-description / canonical link, the signals a crawl mines
    before body extraction): documents wrap into synthesized pages whose
    head tags are pure functions of the row (a fifth of pages MISSING
    the canonical tag — NULL must surface), the extractor's RE2 kernels
    must recover them exactly as the SQL regexp_extract mirror.  Full
    SQL oracle in TestTailQueryOracles."""
    from ..ops.boilerplate import extract_html_meta

    docs = _t(sf_dir, "documents", ["doc_id", "lang", "source", "text"])

    def pagegen(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].astype(str)
        title = "Doc " + ids + ": " + b["lang"].fillna("")
        canon = "https://example.org/" + b["lang"].fillna("") + "/" + ids
        esc = (
            b["text"].fillna("").str[:200]
            .str.replace("&", "&amp;", regex=False)
            .str.replace("<", "&lt;", regex=False)
            .str.replace(">", "&gt;", regex=False)
        )
        link = np.where(
            (b["doc_id"] % 5 == 0).to_numpy(),
            "",
            '<link rel="canonical" href="' + canon + '">',
        )
        html = (
            "<html><head><title>" + title + "</title>"
            '<meta name="description" content="' + b["source"].fillna("")
            + '">' + pd.Series(link, index=b.index)
            + "</head><body><p>" + esc + "</p></body></html>"
        )
        return pd.DataFrame({"doc_id": b["doc_id"], "html": html})

    out = extract_html_meta(
        docs.map_batches(pagegen, batch_format="pandas")
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_customer_linkage_fs(sf_dir: str) -> pd.DataFrame:
    """Fellegi–Sunter probabilistic record linkage (`ops/linkage.py` —
    EM over exact agreement-pattern counts, Winkler's grouped-EM scale
    shape): every customer gets a deterministic dirty twin (name case
    flipped; segment corrupted for a third), candidate pairs = each
    record vs its own twin (true matches) and vs the NEXT record's twin
    (non-matches); the unsupervised fit must separate them — asserted
    in-query (posterior > 0.9 on every true pair, < 0.1 on every false
    pair).  Rows-only (EM weights aren't SQL); pinned by
    TestFsLinkage."""
    from ..ops.linkage import fs_fit, fs_score

    cust = _t(
        sf_dir, "customer",
        ["c_custkey", "c_name", "c_nationkey", "c_mktsegment"],
    ).to_pandas().sort_values("c_custkey").reset_index(drop=True)

    def twin(row_df: pd.DataFrame) -> pd.DataFrame:
        t = row_df.copy()
        t["c_name"] = t["c_name"].str.upper()  # still equal casefolded
        corrupt = (t["c_custkey"] % 3 == 0).to_numpy()
        t.loc[corrupt, "c_mktsegment"] = "CORRUPTED"
        return t

    tw = twin(cust)
    nxt = tw.iloc[(np.arange(len(tw)) + 1) % len(tw)].reset_index(drop=True)

    def agree(a: pd.DataFrame, b: pd.DataFrame, label: str) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": label,
                "a_key": a["c_custkey"].to_numpy(),
                "b_key": b["c_custkey"].to_numpy(),
                "name_eq": (
                    a["c_name"].str.lower().to_numpy()
                    == b["c_name"].str.lower().to_numpy()
                ),
                "nation_eq": (
                    a["c_nationkey"].to_numpy() == b["c_nationkey"].to_numpy()
                ),
                "seg_eq": (
                    a["c_mktsegment"].to_numpy()
                    == b["c_mktsegment"].to_numpy()
                ),
            }
        )

    pairs = pd.concat(
        [agree(cust, tw, "match"), agree(cust, nxt, "nonmatch")],
        ignore_index=True,
    )
    ds = rd.from_pandas(pairs).repartition(8)
    model = fs_fit(ds, ["name_eq", "nation_eq", "seg_eq"])
    scored = fs_score(ds, model, keep_cols=["kind", "a_key", "b_key"])
    post_m = scored.loc[scored["kind"] == "match", "posterior"]
    post_n = scored.loc[scored["kind"] == "nonmatch", "posterior"]
    assert (post_m > 0.9).all(), "true pairs must score as matches"
    assert (post_n < 0.1).all(), "false pairs must score as non-matches"
    return scored.sort_values(["kind", "a_key"]).reset_index(drop=True)


def q_value_gini_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact per-type Gini concentration of event values
    (`ops/profile.grouped_gini` — the inequality/dominance readout):
    2·Σ i·x / (n·Σx) − (n+1)/n over exact int64 rank·cents sums (ties
    commute).  One keyed exchange + one mergesort per shard.  Full
    ROW_NUMBER SQL oracle in TestTailQueryOracles."""
    from ..ops.profile import grouped_gini

    ev = _t(sf_dir, "events", ["event_type", "value"])
    return grouped_gini(ev, ["event_type"], "value")


def q_event_props_stats(sf_dir: str) -> pd.DataFrame:
    """JSON scalar-field extraction over the events `props` column
    (`functions/jsonfield.json_scalar_field` — one RE2 kernel per batch,
    zero per-row Python; the WAT/telemetry scan shape), then a per-type
    exact integer aggregate over the extracted field.  Full
    json_extract SQL oracle in TestTailQueryOracles."""
    from ..functions.jsonfield import json_scalar_field
    from ..ops.relational import auto_group_agg

    ev = _t(sf_dir, "events", ["event_type", "props"])
    ext = json_scalar_field(ev, "props", "k", kind="int")
    partials = ext.map_batches(
        lambda b: b.groupby("event_type", as_index=False).agg(
            n=("k", "size"), sum_k=("k", "sum"),
            min_k=("k", "min"), max_k=("k", "max"),
        ),
        batch_format="pandas",
    )
    out = auto_group_agg(
        partials, ["event_type"],
        {"n": ("n", "sum"), "sum_k": ("sum_k", "sum"),
         "min_k": ("min_k", "min"), "max_k": ("max_k", "max")},
    )
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    for c in ("n", "sum_k", "min_k", "max_k"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def q_user_daily_streak(sf_dir: str) -> pd.DataFrame:
    """Longest consecutive-day activity streak per user
    (`ops/windows.grouped_max_streak` — the gaps-and-islands rank trick
    over distinct active days; distinct combiners shrink the exchange to
    the activity grid).  Full ROW_NUMBER SQL oracle in
    TestTailQueryOracles."""
    from ..ops.windows import grouped_max_streak

    ev = _t(sf_dir, "events", ["user_id", "ts"])
    return grouped_max_streak(ev, ["user_id"], ts_col="ts")


def q_user_type_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-user Shannon entropy of the event-type mix
    (`ops/profile.grouped_cat_entropy` — the behavior-diversity
    readout): exact (user, type) counts, terms summed in type order,
    ROUND 6 both sides.  Full ordered-SUM SQL oracle in
    TestTailQueryOracles."""
    from ..ops.profile import grouped_cat_entropy

    ev = _t(sf_dir, "events", ["user_id", "event_type"])
    out = grouped_cat_entropy(ev, ["user_id"], "event_type")
    out["entropy"] = _round_half_away(out["entropy"], 6)
    return out


def q_containment_pairs(sf_dir: str) -> pd.DataFrame:
    """Asymmetric shingle containment (Broder 1997's second resemblance
    measure; `ops/dedup.ngram_containment_pairs` — the syndication /
    quotation detector Jaccard misses): pairs where either direction's
    |S(A)∩S(B)|/|S(A)| clears 0.6, both directions reported.  Shares the
    jaccard pair core (one shingle-shard exchange + one pair reduce).
    Full SQL oracle in TestTailQueryOracles."""
    from ..ops.dedup import ngram_containment_pairs

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = ngram_containment_pairs(ds, "text", "doc_id", k=3, threshold=0.6)
    out = out.copy()
    out["cont_a_in_b"] = _round_half_away(out["cont_a_in_b"], 4)
    out["cont_b_in_a"] = _round_half_away(out["cont_b_in_a"], 4)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out


def q_value_trimmed_mean_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-type trimmed mean of event values
    (`ops/profile.grouped_trimmed_mean`): mean inside
    [quantile_disc(0.05), quantile_disc(0.95)] — cutoffs by the exact
    position rule, the in-range sum exact integer cents, the final
    double one mirrored division.  Full ROW_NUMBER-position SQL oracle
    in TestTailQueryOracles."""
    from ..ops.profile import grouped_trimmed_mean

    ev = _t(sf_dir, "events", ["event_type", "value"])
    return grouped_trimmed_mean(
        ev, ["event_type"], "value", q_lo=0.05, q_hi=0.95
    )


def q_orders_delete_keys(sf_dir: str) -> pd.DataFrame:
    """Key-deletion over a partitioned merge target
    (`ops/upsert.delete_keys` — the GDPR/takedown erasure primitive):
    orders land in a hash-partitioned target, every seventh orderkey is
    deleted (only its partitions rewrite; a rerun deletes zero — the
    idempotence is asserted in-query), and the surviving per-status
    aggregate must equal the SQL anti-filter over the original parquet.
    Full SQL oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..ops.upsert import delete_keys, read_merge_target, write_merge_target

    orders = _t(sf_dir, "orders",
                ["o_orderkey", "o_orderstatus", "o_totalprice"])
    with tempfile.TemporaryDirectory(prefix="delete_keys_") as td:
        write_merge_target(orders, td, "o_orderkey", n_partitions=16)
        victims = orders.map_batches(
            lambda b: b[(b["o_orderkey"] % 7 == 3)][["o_orderkey"]],
            batch_format="pandas",
        )
        rep = delete_keys(td, victims, "o_orderkey", n_partitions=16)
        assert int(rep["n_deleted"].sum()) > 0
        rep2 = delete_keys(td, victims, "o_orderkey", n_partitions=16)
        assert int(rep2["n_deleted"].sum()) == 0, "delete must be idempotent"
        back = read_merge_target(td, columns=["o_orderstatus", "o_totalprice"])
        partials = back.map_batches(
            lambda b: pd.DataFrame(
                {"o_orderstatus": b["o_orderstatus"],
                 "c": _cents(b["o_totalprice"])}
            ).groupby("o_orderstatus", as_index=False).agg(
                n_orders=("c", "size"), sum_c=("c", "sum")
            ),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials, ["o_orderstatus"],
            {"n_orders": ("n_orders", "sum"), "sum_c": ("sum_c", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_orders"] = out["n_orders"].astype("int64")
    out["sum_price"] = out["sum_c"].astype("float64") / 100.0
    return (
        out.drop(columns="sum_c").sort_values("o_orderstatus")
        .reset_index(drop=True)
    )


def q_training_mix_chunks(sf_dir: str) -> pd.DataFrame:
    """The one-call training-mixture composition
    (`pipelines/mixture.prepare_training_mix`): en docs upweighted 2×,
    every source token-budgeted, seeded epoch order, 512-token packing.
    Rows-only (the stage chain is pinned by TestPrepareTrainingMix's
    naive-reference equality); the packing invariant — chunk ids tile
    the selected token stream — is asserted in-query."""
    from ..pipelines.mixture import prepare_training_mix

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
        lambda b: b.rename(columns={"lang": "source"}), batch_format="pandas"
    )
    ch = prepare_training_mix(
        docs,
        weights={"en": 2.0, "de": 1.0, "fr": 1.0, "es": 1.0, "zh": 1.0},
        budgets={"en": 20_000, "de": None, "fr": None, "es": None,
                 "zh": None},
        seed=11,
        chunk_tokens=512,
    )
    out = ch.to_pandas().sort_values("chunk_id").reset_index(drop=True)
    assert (out["chunk_id"].to_numpy() == np.arange(len(out))).all(), (
        "chunk ids must tile the packed stream densely"
    )
    assert int(out["n_items"].sum()) > 0
    return out[["chunk_id", "n_items"]]


def q_t5_corrupted_docs(sf_dir: str) -> pd.DataFrame:
    """T5 span corruption over documents (`ops/augment.t5_span_corrupt`).
    Rows-only; the defining invariant — interleaving the sentinel input
    with the target spans recovers the ORIGINAL text exactly — is
    asserted in-query for every document (pinned in depth by
    TestT5SpanCorrupt)."""
    import re

    from ..ops.augment import t5_span_corrupt

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    out = (
        t5_span_corrupt(docs, seed=13)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    sent = re.compile(r"<extra_id_\d+>")
    for _, r in out.iterrows():
        spans, cur = {}, None
        for t in (r["target_text"].split(" ") if r["target_text"] else []):
            if sent.fullmatch(t):
                cur = t
                spans[cur] = []
            else:
                spans[cur].append(t)
        rebuilt = []
        for t in r["corrupted_text"].split(" "):
            rebuilt.extend(spans[t]) if sent.fullmatch(t) else rebuilt.append(t)
        assert " ".join(rebuilt) == r["text"].lower(), r["doc_id"]
    out["n_sentinels"] = out["corrupted_text"].str.count("<extra_id_")
    return out[["doc_id", "n_sentinels"]]


def q_event_type_kappa(sf_dir: str) -> pd.DataFrame:
    """Cohen's κ between event_type and a deterministically-degraded
    second rater (every fourth event relabeled 'click') —
    `ops/eval.cohens_kappa` over exact confusion counts; every double a
    mirrored expression over int64 sums (the class-product partial sums
    stay exact integers, so SQL's unordered SUM agrees bitwise).  Full
    SQL oracle in TestTailQueryOracles."""
    from ..ops.eval import cohens_kappa

    ev = _t(sf_dir, "events", ["event_id", "event_type"])

    def raters(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[b["event_type"].notna()]
        bb = np.where(
            (sub["event_id"] % 4 == 0).to_numpy(), "click",
            sub["event_type"].to_numpy(),
        )
        return pd.DataFrame({"a": sub["event_type"].to_numpy(), "b": bb})

    res = cohens_kappa(ev.map_batches(raters, batch_format="pandas"), "a", "b")
    return pd.DataFrame([res])[["kappa", "p_o", "p_e", "n"]]


def q_doc_sections(sf_dir: str) -> pd.DataFrame:
    """Heading-based sectioning (`ops/boilerplate.split_sections` — the
    chapter/section segmentation between extraction and chunking):
    documents wrap into pages with an intro paragraph, an ``<h1>`` and,
    for every third doc, an ``<h2>`` subsection; the splitter must
    recover (section_idx, heading, section length) exactly as the SQL
    sentinel-arithmetic mirror.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.boilerplate import split_sections

    docs = _t(sf_dir, "documents", ["doc_id", "lang", "text"])

    def pagegen(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].astype(str)
        esc = (
            b["text"].fillna("").str[:80]
            .str.replace("&", "&amp;", regex=False)
            .str.replace("<", "&lt;", regex=False)
            .str.replace(">", "&gt;", regex=False)
        )
        sub = np.where(
            (b["doc_id"] % 3 == 0).to_numpy(),
            '<h2 class="s">Sub ' + ids + "</h2><p>details here</p>",
            "",
        )
        html = (
            "<html><body><p>intro " + esc + "</p>"
            "<h1>Title " + ids + ": " + b["lang"].fillna("") + "</h1>"
            "<p>main body for " + ids + "</p>"
            + pd.Series(sub, index=b.index)
            + "</body></html>"
        )
        return pd.DataFrame({"doc_id": b["doc_id"], "html": html})

    out = (
        split_sections(docs.map_batches(pagegen, batch_format="pandas"))
        .to_pandas()
    )
    out["sec_chars"] = out["section_text"].str.len().astype("int64")
    return (
        out[["doc_id", "section_idx", "heading", "sec_chars"]]
        .sort_values(["doc_id", "section_idx"]).reset_index(drop=True)
    )


def q_pdf_chapter_outline(sf_dir: str) -> pd.DataFrame:
    """PDF outline (bookmark) extraction (`stages/pdf.pdf_outline` —
    ISO 32000-1 §12.3.3, the chapter structure the reference's
    page-to-chapter segmentation reads): deterministic multi-chapter
    PDFs built per document row, outlines parsed back DISTRIBUTED
    (map-only over the blob column).  Rows-only; the exact expected
    (level, title, page) table is asserted in-query — the fixture IS
    the oracle (pinned by TestPdfOutline incl. objstm layouts)."""
    from ..sources.pdfgen import make_pdf
    from ..stages.pdf import pdf_outline

    docs = _t(sf_dir, "documents", ["doc_id", "lang"]).filter(
        expr="doc_id < 40"
    )

    def build(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for d, lang in zip(b["doc_id"], b["lang"]):
            n_ch = 2 + int(d) % 3
            pages, outline = [], []
            for c in range(n_ch):
                outline.append((1, f"Chapter {c} of {d} ({lang})", len(pages)))
                pages.append(
                    [{"text": f"doc {d} ch {c}", "x": 72, "y": 90, "size": 12}]
                )
                if c == 0:
                    outline.append((2, f"Intro {d}", len(pages)))
                    pages.append(
                        [{"text": f"intro {d}", "x": 72, "y": 90, "size": 11}]
                    )
            rows.append(
                {"doc_id": int(d), "lang": lang,
                 "blob": make_pdf(pages, outline=outline)}
            )
        return pd.DataFrame(rows)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for d, blob in zip(b["doc_id"], b["blob"]):
            for e in pdf_outline(bytes(blob)):
                out.append({"doc_id": int(d), **e})
        return pd.DataFrame(
            out, columns=["doc_id", "level", "title", "page_index"]
        )

    got = (
        docs.map_batches(build, batch_format="pandas")
        .map_batches(extract, batch_format="pandas")
        .to_pandas()
        .sort_values(["doc_id", "page_index"]).reset_index(drop=True)
    )
    # the fixture is the oracle: every doc's outline must round-trip
    for d, grp in got.groupby("doc_id"):
        n_ch = 2 + int(d) % 3
        assert len(grp) == n_ch + 1, d
        assert grp["title"].iloc[0].startswith("Chapter 0"), d
        assert (grp["level"] == 1).sum() == n_ch
        assert grp["page_index"].tolist() == list(range(n_ch + 1))
    assert got["doc_id"].nunique() == 40
    return got


def q_value_trend_by_user(sf_dir: str) -> pd.DataFrame:
    """Mann–Kendall trend + Theil–Sen slope per user over the
    (ts, event_id)-ordered value timeline (`ops/drift.grouped_trend` —
    S and the tie-corrected variance numerator are exact integers, z one
    mirrored IEEE expression, the Sen median the exact quantile_cont
    lerp over single-division pair slopes).  One keyed exchange; the
    O(n²) pair expansion runs vectorized across all keys per shard.
    Users with a single observation drop (no pairs on either side).
    Full self-join SQL oracle in TestTailQueryOracles."""
    from ..ops.drift import grouped_trend

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = grouped_trend(
        ev, "value", ["user_id"], order_col="ts", tie_col="event_id"
    )
    return out[out["n"] >= 2].reset_index(drop=True)


def q_value_ks_by_dow(sf_dir: str) -> pd.DataFrame:
    """Exact two-sample Kolmogorov–Smirnov D per day-of-week
    (`ops/drift.ks_two_sample` — the distribution-level drift readout):
    click vs view value CDFs compared within each dow cell; the
    numerator max |c_a·n_b − c_b·n_a| is an exact int64 over the
    distinct-value grid, D one final double division — a window-cumsum
    SQL oracle hashes identically.  Full SQL oracle in
    TestTailQueryOracles."""
    from ..ops.drift import ks_two_sample

    ev = _t(sf_dir, "events", ["event_type", "value", "ts"])

    def add_dow(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["ts"].notna()]  # NaT would alias into a real dow bucket
        d = (
            b["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // 86400000000
        ) % 7
        return pd.DataFrame(
            {"dow": d, "event_type": b["event_type"], "value": b["value"]}
        )

    return ks_two_sample(
        ev.map_batches(add_dow, batch_format="pandas"),
        "value",
        "event_type",
        "click",
        "view",
        ["dow"],
    )


def q_value_skewkurt_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact per-type skewness + excess kurtosis
    (`ops/profile.grouped_skewkurt` — third/fourth power sums carried as
    TWO int64 limbs through the size-aware finish, central-moment
    numerators reassembled as exact Python integers, skew/kurt each one
    final IEEE expression).  The SQL oracle carries the same sums in
    HUGEINT — bitwise equal.  scale=10: sf0.1 values reach ~5000 and
    the fourth-power int64 domain caps |v·scale| at 55108 (skew/kurt
    are scale-invariant beyond the 0.1-unit rounding both engines
    share).  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.profile import grouped_skewkurt

    ev = _t(sf_dir, "events", ["event_type", "value"])
    return grouped_skewkurt(ev, "value", ["event_type"], scale=10)


def _bleu_pairs(sf_dir: str) -> rd.Dataset:
    """Deterministic candidate/reference pairs for the generation-eval
    queries: candidate = the doc's first-10-raw-token prefix prepended
    to the full text (duplicated prefix grams overflow the reference
    counts, so the CLIPPING rule actually bites), reference = the text
    itself.  Built with Arrow list kernels; the SQL mirror repeats the
    identical slice-and-concat."""
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def build(b: pd.DataFrame) -> pd.DataFrame:
        txt = pa.array(b["text"].fillna(""), pa.string())
        toks = pc.split_pattern(txt, pattern=" ")
        prefix = pc.binary_join(pc.list_slice(toks, 0, 10), " ")
        cand = pc.binary_join_element_wise(prefix, txt, " ")
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "cand": cand.to_pandas().to_numpy(dtype=object),
                "ref": b["text"].to_numpy(),
            }
        )

    return docs.map_batches(build, batch_format="pandas")


def q_docs_bleu(sf_dir: str) -> pd.DataFrame:
    """Corpus BLEU (Papineni 2002, `ops/eval.bleu_corpus`) of the
    prefix-duplicated candidate against the original text: pooled
    clipped n-gram precisions p1..p4 from exact int64 combiner sums,
    brevity penalty and the geometric mean each one mirrored IEEE
    expression.  Full list-comprehension SQL oracle in
    TestTailQueryOracles."""
    from ..ops.eval import bleu_corpus

    return bleu_corpus(_bleu_pairs(sf_dir), "cand", "ref", max_n=4)


def q_docs_rouge2(sf_dir: str) -> pd.DataFrame:
    """Per-document ROUGE-2 (Lin 2004, `ops/eval.rouge_n`) of the same
    candidate construction: clipped bigram matches, precision / recall /
    F1 per doc — exact integers plus single mirrored float expressions,
    map-only.  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.eval import rouge_n

    return rouge_n(_bleu_pairs(sf_dir), "doc_id", "cand", "ref", n=2)


def q_link_adamic_adar(sf_dir: str) -> pd.DataFrame:
    """Common-neighbors + Adamic–Adar link prediction over a synthesized
    doc link graph (`ops/graph.link_prediction_scores` — wedge self-merge
    per center shard, one (u, v)-hash exchange where existing edges drop
    and each pair's 1/ln(deg) terms reduce co-located).  Edges i → (7i)
    mod 500 give varied degrees; aa ROUND 6 both sides (the reduceat
    accumulator ulp).  Full three-way self-join SQL oracle in
    TestTailQueryOracles."""
    from ..ops.graph import link_prediction_scores

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy() % 500
        return pd.DataFrame(
            {
                "src": np.concatenate([ids, ids]),
                "dst": np.concatenate([(ids * 7) % 500, (ids + 1) % 500]),
            }
        )

    out = link_prediction_scores(
        docs.map_batches(links, batch_format="pandas"), "src", "dst"
    )
    out["aa"] = _round_half_away(out["aa"], 6)
    return out


def q_hybrid_rrf_top10(sf_dir: str) -> pd.DataFrame:
    """Reciprocal-rank fusion of two retrieval lists over the documents
    corpus (`ops/search.rrf_fuse` — Cormack 2009, k=60): list A = BM25
    top-20 for the fixed query (the oracled `bm25_topk`), list B = raw
    query-term-frequency top-20 (no idf/length norm — a deliberately
    different lexical view).  Fusion sees only ranks; the fused score is
    the fixed two-term coalesce expression, bitwise SQL-mirrorable.
    Full SQL oracle in TestTailQueryOracles."""
    from ..functions.textscan import flat_tokens_nonempty
    from ..ops.search import bm25_topk, rrf_fuse

    terms = ("table", "scan", "merge", "window")
    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    a = bm25_topk(ds, " ".join(terms), id_col="doc_id", text_col="text", k=20)
    a["rk"] = np.arange(1, len(a) + 1, dtype="int64")

    def tf_prune(b: pd.DataFrame) -> pd.DataFrame:
        flat, doc_of = flat_tokens_nonempty(b["text"])
        tf = np.zeros(len(b), dtype="int64")
        for t in terms:
            np.add.at(tf, doc_of[flat == t], 1)
        out = pd.DataFrame({"doc_id": b["doc_id"].to_numpy(), "tf": tf})
        out = out[out["tf"] > 0]
        return out.sort_values(["tf", "doc_id"], ascending=[False, True]).head(20)

    bt = ds.map_batches(tf_prune, batch_format="pandas").to_pandas()
    bt = bt.sort_values(["tf", "doc_id"], ascending=[False, True]).head(20)
    bt["rk"] = np.arange(1, len(bt) + 1, dtype="int64")

    fused = rrf_fuse(a, bt, on=["doc_id"], rank_col="rk", k=60)
    return fused.head(10).reset_index(drop=True)


def q_xml_docs(sf_dir: str) -> pd.DataFrame:
    """XML source + sink roundtrip (`sources/xml_io.py` — the remaining
    row-framed interchange format, JSONL's directory contract: content-
    keyed idempotent shards, atomic publish, schema attribute pinning
    exact dtypes): documents write to gzipped XML shards and parse back;
    the per-lang doc-count / char-sum aggregate over the ROUNDTRIPPED
    data must equal SQL over the original parquet — write+read fidelity
    through escaping, not just the reduce.  Full SQL oracle in
    TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.xml_io import read_xml, write_xml_dataset

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    with tempfile.TemporaryDirectory(prefix="xml_docs_") as td:
        files = write_xml_dataset(docs, td, compress=True)
        assert files, "XML sink wrote no shards"
        back = read_xml(files, columns=["text", "lang", "n_chars"])
        partials = back.map_batches(
            lambda b: b.assign(l=b["text"].fillna("").str.len())
            .groupby("lang", as_index=False)
            .agg(n_docs=("l", "size"), sum_len=("l", "sum"),
                 sum_chars=("n_chars", "sum")),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["lang"],
            {"n_docs": ("n_docs", "sum"), "sum_len": ("sum_len", "sum"),
             "sum_chars": ("sum_chars", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    for c in ("n_docs", "sum_len", "sum_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def q_wiki_dump_docs(sf_dir: str) -> pd.DataFrame:
    """Foreign-XML (MediaWiki-dump-shaped) ingestion
    (`sources/xml_io.read_xml(record_tag=...)` — the namespace-blind
    nested-path parse that reads the public wiki exports): each block of
    documents renders into one ``<mediawiki><page>…`` dump file with
    escaped text, the dump parses back through the foreign route, and
    the per-lang page-count / text-length aggregate must equal SQL over
    the original parquet.  Full SQL oracle in TestTailQueryOracles."""
    import tempfile

    from ..ops.relational import auto_group_agg
    from ..sources.xml_io import _esc, read_xml

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"])

    def render(b: pd.DataFrame, td: str) -> pd.DataFrame:
        import hashlib
        import os

        t = _esc(b["text"].fillna("").astype(object).astype(str))
        la = _esc(b["lang"].fillna("").astype(object).astype(str))
        pages = (
            "  <page><title>doc "
            + b["doc_id"].astype("int64").astype(str)
            + "</title><lang>"
            + la.to_numpy(dtype=object)
            + "</lang><revision><id>1</id><text>"
            + t.to_numpy(dtype=object)
            + "</text></revision></page>"
        )
        payload = (
            '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n'
            + "\n".join(pages.tolist())
            + "\n</mediawiki>\n"
        ).encode("utf-8")
        key = hashlib.sha1(payload).hexdigest()[:16]
        path = os.path.join(td, f"dump-{key}.xml")
        tmp = path + f".tmp-{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
        return pd.DataFrame({"path": [path]})

    with tempfile.TemporaryDirectory(prefix="wiki_dump_") as td:
        paths = (
            docs.map_batches(
                lambda b, _td=td: render(b, _td), batch_format="pandas"
            )
            .to_pandas()["path"]
            .tolist()
        )
        back = read_xml(
            sorted(paths),
            record_tag="page",
            fields={"lang": "lang", "text": "revision/text"},
        )
        partials = back.map_batches(
            lambda b: b.assign(l=b["text"].fillna("").str.len())
            .groupby("lang", as_index=False)
            .agg(n_pages=("l", "size"), sum_len=("l", "sum")),
            batch_format="pandas",
        )
        out = auto_group_agg(
            partials,
            ["lang"],
            {"n_pages": ("n_pages", "sum"), "sum_len": ("sum_len", "sum")},
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
    out["n_pages"] = out["n_pages"].astype("int64")
    out["sum_len"] = out["sum_len"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def q_token_zipf_fit(sf_dir: str) -> pd.DataFrame:
    """Zipf rank–frequency fit over the documents vocabulary
    (`ops/textstats.zipf_fit` — ONE token-count reduce, exchange-route
    local prune, k-dim OLS of ln(freq) on ln(rank) with sequential libm
    sums).  slope/intercept/r2 ROUND 6 both sides (DuckDB's ordered SUM
    re-associates ~1e-13).  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.textstats import zipf_fit

    docs = _t(sf_dir, "documents", ["text"])
    out = zipf_fit(docs, "text", top_k=500)
    for c in ("slope", "intercept", "r2"):
        out[c] = _round_half_away(out[c], 6)
    return out


def q_customer_jw_pairs(sf_dir: str) -> pd.DataFrame:
    """Jaro–Winkler name similarity over deterministic customer pairs
    (`functions/score.jaro_winkler` — Winkler 1990 with the US-Census
    0.7 boost threshold, fuzz-verified against DuckDB's native
    ``jaro_winkler_similarity`` which IS the oracle): consecutive
    custkeys pair via one (custkey//2)-keyed combiner exchange, the
    scorer runs map-side on the pair table.  jw ROUND 6 both sides.
    Full SQL oracle in TestTailQueryOracles."""
    from ..functions.score import jaro_winkler_batch
    from ..ops.relational import auto_group_agg

    cust = _t(sf_dir, "customer", ["c_custkey", "c_name"])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        k = b["c_custkey"].to_numpy()
        even = (k % 2) == 0
        return pd.DataFrame(
            {
                "pair_id": k // 2,
                "name_a": b["c_name"].where(pd.Series(even, index=b.index)),
                "name_b": b["c_name"].where(~pd.Series(even, index=b.index)),
            }
        )

    pairs = auto_group_agg(
        cust.map_batches(tag, batch_format="pandas"),
        ["pair_id"],
        {"name_a": ("name_a", "first"), "name_b": ("name_b", "first")},
    )
    if not isinstance(pairs, pd.DataFrame):
        pairs = pairs.to_pandas()
    pairs = pairs[pairs["name_a"].notna() & pairs["name_b"].notna()]
    out = pd.DataFrame(
        {
            "custkey_a": (pairs["pair_id"].to_numpy() * 2).astype("int64"),
            "name_a": pairs["name_a"].to_numpy(),
            "name_b": pairs["name_b"].to_numpy(),
        }
    )
    out["jw"] = _round_half_away(
        pd.Series(jaro_winkler_batch(pairs["name_a"].to_numpy(),
                                     pairs["name_b"].to_numpy())),
        6,
    ).to_numpy()
    return out.sort_values("custkey_a").reset_index(drop=True)


def q_heaps_vocab_fit(sf_dir: str) -> pd.DataFrame:
    """Heaps'-law vocabulary-growth fit over the documents corpus
    (`ops/textstats.heaps_fit` — V(n) by first-global-position counting:
    per-doc first positions + the packer's ordered prefix sum + one
    token-min reduce, NO sequential scan; OLS at power-of-two
    checkpoints).  beta/ln_k/r2 ROUND 6 both sides.  Full window-cumsum
    SQL oracle in TestTailQueryOracles."""
    from ..ops.textstats import heaps_fit

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    fit, _curve = heaps_fit(docs, "doc_id", "text")
    for c in ("beta", "ln_k", "r2"):
        fit[c] = _round_half_away(fit[c], 6)
    return fit


def q_link_communities(sf_dir: str) -> pd.DataFrame:
    """Label-propagation community detection over a planted clique graph
    (`ops/graph.label_propagation_communities` — Raghavan 2007 in the
    deterministic synchronous form, the pagerank per-round scale shape).
    Six 10-cliques with single bridge edges; rows-only — exact clique
    recovery (each clique one label, six distinct labels) asserted
    in-query; machinery pinned by TestLabelPropagation."""
    from ..ops.graph import label_propagation_communities

    docs = _t(sf_dir, "documents", ["doc_id"])

    def links(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].to_numpy() % 60
        base = (i // 10) * 10
        off = i - base
        rows = []
        for d in range(1, 10):  # all within-clique pairs (i, i+d)
            m = off + d < 10
            rows.append(pd.DataFrame({"src": i[m], "dst": i[m] + d}))
        bridges = pd.DataFrame(
            {"src": [9, 19, 29, 39, 49], "dst": [10, 20, 30, 40, 50]}
        )
        return pd.concat(rows + [bridges], ignore_index=True)

    out = label_propagation_communities(
        docs.map_batches(links, batch_format="pandas"), "src", "dst"
    )
    assert out.attrs["converged"], "LPA did not converge on the clique graph"
    comm = out.set_index("node")["community"]
    labs = set()
    for c in range(6):
        members = set(comm.loc[list(range(c * 10, c * 10 + 10))])
        assert len(members) == 1, f"clique {c} split: {members}"
        labs |= members
    assert len(labs) == 6, f"cliques merged: {labs}"
    out["community"] = out["community"].astype("int64")
    out["node"] = out["node"].astype("int64")
    return out


def q_balanced_mix_docs(sf_dir: str) -> pd.DataFrame:
    """Two-marginal IPF-raked corpus balance (`ops/mix.ipf_balance` —
    Deming & Stephan 1940: per-cell keep rates a_r·b_c fitted so the
    expected sample hits a target LANGUAGE marginal and a target
    SOURCE-bucket marginal simultaneously; one cell-count reduce +
    map-only salted-hash draw).  Rows-only — the plan's expected
    marginals are asserted EXACT in-query and the realized sample's
    within sampling tolerance; machinery pinned by TestIpfBalance."""
    from ..ops.mix import ipf_balance

    docs = _t(sf_dir, "documents", ["doc_id", "lang", "source"])

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        num = b["source"].str.extract(r"(\d+)$")[0].fillna("0").astype(int)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "src_bucket": np.where(num % 2 == 0, "even", "odd"),
            }
        )

    rt = {"en": 0.3, "fr": 0.2, "de": 0.2, "es": 0.15, "zh": 0.15}
    ct = {"even": 0.55, "odd": 0.45}
    sampled, plan = ipf_balance(
        docs.map_batches(bucket, batch_format="pandas"),
        "lang",
        "src_bucket",
        rt,
        ct,
        id_col="doc_id",
        seed=11,
    )
    tot = plan["expect_kept"].sum()
    rm = plan.groupby("lang")["expect_kept"].sum() / tot
    cm = plan.groupby("src_bucket")["expect_kept"].sum() / tot
    assert max(abs(rm[k] - v) for k, v in rt.items()) < 1e-8, rm.to_dict()
    assert max(abs(cm[k] - v) for k, v in ct.items()) < 1e-8, cm.to_dict()
    assert plan["rate"].max() <= 1.0 + 1e-12
    out = sampled.to_pandas()
    assert out["doc_id"].is_unique and len(out) > 0
    ar = out["lang"].value_counts(normalize=True)
    ac = out["src_bucket"].value_counts(normalize=True)
    assert max(abs(ar.get(k, 0.0) - v) for k, v in rt.items()) < 0.12
    assert max(abs(ac.get(k, 0.0) - v) for k, v in ct.items()) < 0.12
    return out.sort_values("doc_id").reset_index(drop=True)


def q_part_soundex_blocks(sf_dir: str) -> pd.DataFrame:
    """Soundex phonetic blocking over part names
    (`functions/phonetic.soundex_batch` — the NARA coding as a fixed
    translate+regexp chain, classic-vector-pinned, every step a pandas
    C string kernel): key each part's first name word, then block
    sizes (parts per key, distinct words per key) via count combiners.
    The oracle repeats the IDENTICAL chain in SQL (per-digit run
    collapse — RE2 has no backreferences).  Full SQL oracle in
    TestTailQueryOracles."""
    from ..functions.phonetic import soundex_batch
    from ..ops.relational import auto_group_agg

    parts = _t(sf_dir, "part", ["p_partkey", "p_name"])

    def key(b: pd.DataFrame) -> pd.DataFrame:
        w = b["p_name"].fillna("").str.extract(r"^(\S+)")[0].fillna("")
        return pd.DataFrame({"sdx": soundex_batch(w), "word": w})

    keyed = parts.map_batches(key, batch_format="pandas")
    n_parts = auto_group_agg(
        keyed.map_batches(
            lambda b: b.groupby("sdx", as_index=False).size().rename(
                columns={"size": "n"}
            ),
            batch_format="pandas",
        ),
        ["sdx"],
        {"n_parts": ("n", "sum")},
    )
    pairs = auto_group_agg(
        keyed.map_batches(
            lambda b: b.drop_duplicates().assign(one=1), batch_format="pandas"
        ),
        ["sdx", "word"],
        {"one": ("one", "max")},
    )
    if not isinstance(n_parts, pd.DataFrame):
        n_parts = n_parts.to_pandas()
    if not isinstance(pairs, pd.DataFrame):
        pairs = pairs.to_pandas()
    words = pairs.groupby("sdx", as_index=False).size().rename(
        columns={"size": "n_words"}
    )
    out = n_parts.merge(words, on="sdx")
    out["n_parts"] = out["n_parts"].astype("int64")
    out["n_words"] = out["n_words"].astype("int64")
    return out.sort_values("sdx").reset_index(drop=True)


def q_lang_source_assoc(sf_dir: str) -> pd.DataFrame:
    """Categorical association profile between documents.lang and
    documents.source (`ops/profile.cat_association` — mutual
    information, marginal entropies, χ² and Cramér's V from ONE exact
    contingency reduce; every term a pure function of four counts in
    mirrored cell order).  Floats ROUND 6 both sides.  Full SQL oracle
    in TestTailQueryOracles."""
    from ..ops.profile import cat_association

    docs = _t(sf_dir, "documents", ["lang", "source"])
    out = cat_association(docs, "lang", "source")
    for c in ("mi_bits", "h_x", "h_y", "chi2", "cramers_v"):
        out[c] = _round_half_away(out[c], 6)
    return out


def q_order_score_isotonic(sf_dir: str) -> pd.DataFrame:
    """Isotonic (PAV) score calibration over the scored orders
    (`ops/eval.isotonic_calibration` — exact integer bucket pooling, the
    bucket-grid isotonic-WLS optimum).  Rows-only (PAV is iterative
    pooling, not monotone SQL); the monotonicity, exact
    total-preservation and never-worse-than-raw SSE invariants are
    asserted in-query; machinery pinned by TestIsotonicCalibration."""
    from ..ops.eval import isotonic_calibration

    ds = _t(sf_dir, "orders", ["o_totalprice", "o_orderstatus"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "score": b["o_totalprice"] / 500_000.0,
                "label": (b["o_orderstatus"] == "F").astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    out = isotonic_calibration(ds, "score", "label", n_buckets=20)
    cal = out["calibrated_p"].to_numpy()
    assert (np.diff(cal) >= -1e-15).all(), "isotonic fit not monotone"
    assert (
        abs(float((out["calibrated_p"] * out["n"]).sum()) - float(out["pos"].sum()))
        < 1e-6
    ), "PAV lost total positive mass"
    w = out["n"].to_numpy(dtype="float64")
    raw = out["raw_rate"].to_numpy()
    sse_iso = float((w * (cal - raw) ** 2).sum())
    # the isotonic fit is the weighted-L2 projection: its SSE to the raw
    # rates can never exceed that of ANY monotone curve; the constant
    # overall rate is one such curve
    const = float(out["pos"].sum()) / float(out["n"].sum())
    sse_const = float((w * (const - raw) ** 2).sum())
    assert sse_iso <= sse_const + 1e-9
    out["mean_score"] = _round_half_away(out["mean_score"], 6)
    out["raw_rate"] = _round_half_away(out["raw_rate"], 6)
    out["calibrated_p"] = _round_half_away(out["calibrated_p"], 6)
    return out


_HN_QUERIES = {
    "q1": "table scan merge window",
    "q2": "hash join index",
    "q3": "vector stream sort",
}


def q_hard_negatives_top3(sf_dir: str) -> pd.DataFrame:
    """BM25 hard-negative mining for a three-query batch
    (`ops/search.mine_hard_negatives` over `bm25_multi_topk` — the DPR
    recipe: positives = each query's rank-1 document, negatives = the
    next three ranks, all from ONE union-term corpus scan that is
    bit-identical to per-query `bm25_topk`).  Full SQL oracle (one
    scoring CTE per query, FIRST_VALUE positive, ROW_NUMBER ranks) in
    TestTailQueryOracles."""
    from ..ops.search import bm25_multi_topk, mine_hard_negatives

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    top1 = bm25_multi_topk(ds, _HN_QUERIES, k=1)
    pairs = pd.DataFrame(
        {
            "query_id": sorted(_HN_QUERIES),
            "query_text": [_HN_QUERIES[q] for q in sorted(_HN_QUERIES)],
            "pos_id": [
                top1[top1["query_id"] == q]["doc_id"].iloc[0]
                for q in sorted(_HN_QUERIES)
            ],
        }
    )
    neg = mine_hard_negatives(ds, pairs, n_neg=3)
    neg["score"] = _round_half_away(neg["score"], 6)
    return neg.reset_index(drop=True)


def q_part_entity_resolution(sf_dir: str) -> pd.DataFrame:
    """End-to-end entity resolution (`ops/er.resolve_entities` — Soundex
    + length blocking -> in-block Jaro-Winkler pairs -> connected
    components) over part names with planted dirty twins: every part
    whose key is divisible by 5 gains a vowel-typo twin (vowels code to
    0 and the substitution keeps the length, so the twin stays in its
    original's block under BOTH blocking keys).  INPUT IS CAPPED at the
    first 2000 keys: the fixture's p_name column is template-generated
    from 8 first words (fixture-domains note), so its JW similarity
    graph is DENSE — at sf0.1 the uncapped query generated ~5M edges
    and 400+ s of label propagation (the round-4 bench killer) while
    verifying nothing extra; the cap keeps the same planted checks at
    every sf.  Rows-only; asserted in-query: every twin resolves to its
    ORIGINAL's entity and exact-duplicate names share one entity.
    Machinery pinned by TestEntityResolution (realistic names,
    precision + recall + block-independence)."""
    from ..ops.er import resolve_entities

    parts = _t(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda b: b[b["p_partkey"] < 2000], batch_format="pandas"
    )

    def with_twins(b: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame(
            {"id": b["p_partkey"].astype("int64"),
             "name": b["p_name"].fillna("")}
        )
        tw = b[b["p_partkey"] % 5 == 0]
        twins = pd.DataFrame(
            {
                "id": tw["p_partkey"].astype("int64") + 1_000_000,
                # vowel typo PAST the first character: soundex keeps the
                # first letter verbatim and length is preserved, so the
                # twin stays in-block under soundex AND length keys
                "name": tw["p_name"].fillna("").str[:1]
                + tw["p_name"].fillna("").str[1:].str.replace(
                    "o", "u", n=1, regex=False
                ),
            }
        )
        return pd.concat([base, twins], ignore_index=True)

    recs = parts.map_batches(with_twins, batch_format="pandas")
    out = resolve_entities(recs, "id", "name", threshold=0.85)
    ent = out.set_index("id")["entity_id"]
    # twins join their originals
    names = parts.to_pandas()
    for _, r in names[names["p_partkey"] % 5 == 0].iterrows():
        k = int(r["p_partkey"])
        assert ent[k + 1_000_000] == ent[k], (k, r["p_name"])
    # exact-duplicate names share one entity
    dup = names.groupby("p_name")["p_partkey"].apply(list)
    for nm, ks in dup.items():
        es = {ent[int(k)] for k in ks}
        assert len(es) == 1, (nm, es)
    return out


def q_doc_topic_segments(sf_dir: str) -> pd.DataFrame:
    """TextTiling topic segmentation (Hearst 1997,
    `ops/boilerplate.text_tiling`) over synthesized two-topic documents:
    each real doc's text concatenates with a disjoint-vocabulary second
    half, and the detected boundary must land within one pseudo-sentence
    (w tokens) of the true junction for ≥ 90 % of docs — asserted
    in-query.  Rows-only (valley detection is iterative); machinery
    pinned by TestTextTiling."""
    from ..ops.boilerplate import text_tiling

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr="doc_id < 200"
    )

    def two_topic(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        # second topic: the same token stream remapped to a disjoint
        # vocabulary (suffixing every token); both topics repeated 4x
        # so short fixture docs still span enough pseudo-sentences
        second = t.str.split().map(
            lambda ws: " ".join(w + "qq" for w in ws)
        )
        first4 = (t + " ").str.repeat(4).str.strip()
        second4 = (second + " ").str.repeat(4).str.strip()
        junction = (4 * t.str.split().str.len()).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "text": first4 + " " + second4,
                "junction": junction,
            }
        )

    built = docs.map_batches(two_topic, batch_format="pandas")
    segs = text_tiling(built, "doc_id", "text", w=10, k=4).to_pandas()
    truth = built.to_pandas()[["doc_id", "junction"]]
    hits = 0
    for _, r in truth.iterrows():
        bounds = (
            segs[segs["doc_id"] == r["doc_id"]]
            .sort_values("seg_idx")["start_tok"].tolist()[1:]
        )
        if any(abs(b - int(r["junction"])) <= 10 for b in bounds):
            hits += 1
    assert hits >= int(0.9 * len(truth)), (hits, len(truth))
    return segs.drop(columns=["seg_text"]).sort_values(
        ["doc_id", "seg_idx"]
    ).reset_index(drop=True)


def q_stemmed_token_counts(sf_dir: str) -> pd.DataFrame:
    """Porter-stemmed vocabulary counts (`functions/stem.porter_stem` —
    the 1980 suffix-stripping rules, paper-vector-pinned; stems applied
    through a per-batch DISTINCT-token lookup so the rule walk is
    vocabulary-sized, then one (stem, n, surfaces) reduce).  Rows-only
    (Porter isn't SQL); token-count CONSERVATION vs the raw corpus is
    asserted in-query; rules pinned by TestPorterStemmer."""
    from ..functions.textscan import flat_tokens_nonempty
    from ..functions.stem import porter_stem_batch
    from ..ops.relational import auto_group_agg

    docs = _t(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        flat, _ = flat_tokens_nonempty(b["text"])
        s = pd.Series(flat, dtype=object)
        stems = porter_stem_batch(s)
        g = pd.DataFrame({"stem": stems, "surface": s}).groupby(
            ["stem", "surface"], as_index=False
        ).size()
        g["n"] = g["size"].astype("int64")
        return g[["stem", "surface", "n"]]

    red = auto_group_agg(
        docs.map_batches(partial, batch_format="pandas"),
        ["stem", "surface"],
        {"n": ("n", "sum")},
    )
    if not isinstance(red, pd.DataFrame):
        red = red.to_pandas()
    out = red.groupby("stem", as_index=False).agg(
        n_tokens=("n", "sum"), n_surfaces=("surface", "nunique")
    )
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["n_surfaces"] = out["n_surfaces"].astype("int64")
    # conservation: stemming moves tokens between buckets, never loses
    import duckdb

    tot = duckdb.connect().execute(
        "SELECT CAST(SUM(len(list_filter(string_split(lower(text), ' '), "
        "t -> t <> ''))) AS BIGINT) FROM read_parquet(?)",
        [f"{sf_dir}/documents.parquet"],
    ).fetchone()[0]
    assert int(out["n_tokens"].sum()) == int(tot), (
        int(out["n_tokens"].sum()), int(tot)
    )
    return out.sort_values("stem").reset_index(drop=True)


def q_ql_top10(sf_dir: str) -> pd.DataFrame:
    """Dirichlet-smoothed query-likelihood retrieval
    (`ops/search.ql_topk` — Zhai & Lafferty 2001, the language-modeling
    ranker next to BM25: Σ ln((tf + μ·cf/|C|)/(dl + μ)) in query-term
    order; every doc scores, local-prune top-k).  score ROUND 6 both
    sides (array ln).  Full SQL oracle in TestTailQueryOracles."""
    from ..ops.search import ql_topk

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = ql_topk(ds, "table scan merge window", k=10, mu=2000.0)
    out["score"] = _round_half_away(out["score"], 6)
    return out[["doc_id", "score"]].reset_index(drop=True)


def q_user_survival_curve(sf_dir: str) -> pd.DataFrame:
    """Kaplan–Meier user-lifetime curve (`ops/survival.kaplan_meier` —
    censoring-aware retention: a user whose last event falls inside the
    final day of the observation window is CENSORED, not churned):
    duration = whole hours between the user's first and last events;
    the curve's n_risk/d/censored are exact integer window counts and
    surv mirrors EXP(SUM(ln(1 − d/n)) OVER (ORDER BY t)) — ROUND 6.
    Full SQL oracle in TestTailQueryOracles."""
    from ..ops.survival import kaplan_meier

    ev = _t(sf_dir, "events", ["user_id", "ts"])

    def durations(b: pd.DataFrame) -> pd.DataFrame:
        # NaT would int64-cast to INT64_MIN and corrupt the min/max; the
        # SQL oracle's MIN/MAX skip NULLs — drop them (house convention)
        b = b[~b["ts"].isna()]
        us = b["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        g = pd.DataFrame({"u": b["user_id"], "ts": us}).groupby(
            "u", as_index=False
        ).agg(first=("ts", "min"), last=("ts", "max"))
        return g

    from ..ops.relational import auto_group_agg

    per_user = auto_group_agg(
        ev.map_batches(durations, batch_format="pandas"),
        ["u"],
        {"first": ("first", "min"), "last": ("last", "max")},
    )
    if not isinstance(per_user, pd.DataFrame):
        per_user = per_user.to_pandas()
    horizon = int(per_user["last"].max())
    rows = pd.DataFrame(
        {
            "dur_h": ((per_user["last"] - per_user["first"]) // 3_600_000_000)
            .astype("int64"),
            "observed": (
                per_user["last"] < horizon - 86_400_000_000
            ).astype("int64"),
        }
    )
    out = kaplan_meier(rd.from_pandas(rows), "dur_h", "observed")
    out["surv"] = _round_half_away(out["surv"], 6)
    out["t"] = out["t"].astype("int64")
    return out


def q_folded_docs(sf_dir: str) -> pd.DataFrame:
    """Accent folding (`functions/unicode.fold_diacritics` — NFD +
    drop-Mn, probe-verified ≡ DuckDB ``strip_accents``): every 'a' in
    the text is accented to 'á' first (the fixture is ASCII), then the
    fold must restore it; per-lang count + summed folded length over
    the roundtripped column.  Full strip_accents SQL oracle in
    TestTailQueryOracles."""
    from ..functions.unicode import fold_diacritics
    from ..ops.relational import auto_group_agg

    docs = _t(sf_dir, "documents", ["text", "lang"])

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        accented = b["text"].fillna("").str.replace("a", "á", regex=False)
        folded = fold_diacritics(accented)
        return pd.DataFrame(
            {"lang": b["lang"],
             "l": folded.str.len().astype("int64"),
             "same": (folded == b["text"].fillna("")).astype("int64")}
        ).groupby("lang", as_index=False).agg(
            n_docs=("l", "size"), sum_len=("l", "sum"),
            n_restored=("same", "sum"),
        )

    out = auto_group_agg(
        docs.map_batches(fold, batch_format="pandas"),
        ["lang"],
        {"n_docs": ("n_docs", "sum"), "sum_len": ("sum_len", "sum"),
         "n_restored": ("n_restored", "sum")},
    )
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    for c in ("n_docs", "sum_len", "n_restored"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def q_doc_cdc_chunks(sf_dir: str) -> pd.DataFrame:
    """Content-defined chunking over synthesized large blobs
    (`ops/cdc.content_defined_chunks` — Rabin-boundary segmentation:
    chunk hashes survive a mid-blob edit where fixed-size chunking
    loses the whole suffix): each doc's text repeats to ~60 KB; docs
    with key % 4 == 0 also get a MUTANT twin with bytes inserted at the
    middle.  Rows-only; asserted in-query: exact coverage/contiguity
    per blob and ≥ 70 % chunk-hash overlap between every mutant and its
    original.  Machinery pinned by TestContentDefinedChunks."""
    from ..ops.cdc import content_defined_chunks

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr="doc_id < 80"
    )

    def blobs(b: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        rows = []
        for rid, text in zip(b["doc_id"], b["text"]):
            # counter-mode SHA expansion keyed by the doc text: 60 KB of
            # deterministic content with UNIQUE windows (a *periodic*
            # blob is intrinsically CDC-degenerate — identical windows
            # share one boundary decision; that is the algorithm's
            # content-defined contract, not a defect, but it makes a
            # useless fixture)
            key = (text or "").encode("utf-8")
            blob = b"".join(
                hashlib.sha256(key + i.to_bytes(4, "little")).digest()
                for i in range(60_000 // 32)
            )
            rows.append({"doc_id": int(rid), "blob": blob})
            if int(rid) % 4 == 0:
                mid = len(blob) // 2
                rows.append(
                    {
                        "doc_id": int(rid) + 1_000_000,
                        "blob": blob[:mid] + b"[EDITED-SPAN]" * 4 + blob[mid:],
                    }
                )
        return pd.DataFrame(rows, columns=["doc_id", "blob"])

    built = docs.map_batches(blobs, batch_format="pandas")
    # boundary density matters for the resilience assert: at avg 4096 /
    # max 16384 one sf0.1 blob ran 32 KB without a gear trigger, so its
    # leading chunks were MAX-SIZE-FORCED — positional, not content-
    # defined — and the mid-blob insertion shifted every one of them
    # (overlap 0.67 < 0.70, sf0.1-only).  Denser params keep worst-case
    # overlap ≥ 0.89 at both fixture scales (measured).
    out = content_defined_chunks(
        built, "doc_id", "blob", min_size=512, avg_size=2048,
        max_size=8192,
    ).to_pandas()
    # coverage + contiguity per blob
    for rid, g in out.groupby("doc_id"):
        g = g.sort_values("chunk_idx")
        assert g["start"].iloc[0] == 0
        assert (
            g["start"].iloc[1:].to_numpy()
            == (g["start"] + g["length"]).iloc[:-1].to_numpy()
        ).all(), rid
    # mutant resilience
    ids = set(out["doc_id"])
    for rid in sorted(i for i in ids if i >= 1_000_000):
        orig = rid - 1_000_000
        ha = set(out[out["doc_id"] == orig]["chunk_hash"])
        hb = set(out[out["doc_id"] == rid]["chunk_hash"])
        assert len(ha & hb) / max(1, len(ha)) >= 0.7, rid
    return out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


def q_rm3_expanded_top10(sf_dir: str) -> pd.DataFrame:
    """RM3 pseudo-relevance feedback (`ops/search.rm3_expand` — the
    relevance-model expansion completing the retrieval family: QL
    feedback pass → RM1 term distribution over the top-k docs → λ
    interpolation → weighted-QL rerank).  Rows-only (two-stage exp-
    weighted expansion); asserted in-query: the original query terms
    ride the expansion, weights normalize and descend, and the rerank
    is deterministic.  Naive-reference equality pinned by TestRm3."""
    from ..ops.search import rm3_expand

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    terms, reranked = rm3_expand(
        ds, "table scan merge window", k_feedback=8, n_expansion=8,
        lam=0.5, k=10,
    )
    tset = set(terms["term"])
    assert {"table", "scan", "merge", "window"} <= tset
    w = terms["weight"].to_numpy()
    assert (w[:-1] >= w[1:]).all() and (w > 0).all()
    s = reranked["score"].to_numpy()
    assert (s[:-1] >= s[1:]).all() and len(reranked) == 10
    out = reranked.copy()
    out["score"] = _round_half_away(out["score"], 6)
    return out[["doc_id", "score"]]


def q_value_mean_ci_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-type bootstrap CI for the mean value
    (`ops/profile.grouped_bootstrap_ci` — the Poisson bootstrap,
    Chamandy 2012: per-replica Poisson(1) weights from salted-id
    hashes, one fixed-width combiner row per group-batch, percentile
    endpoints driver-side).  Rows-only (hashed resampling isn't SQL);
    asserted in-query: every exact mean lies inside its interval and
    the exact means equal the plain grouped means; coverage/width
    properties pinned by TestBootstrapCi."""
    from ..ops.profile import grouped_bootstrap_ci

    ev = _t(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_bootstrap_ci(
        ev, "value", ["event_type"], id_col="event_id",
        n_replicas=200, seed=7,
    )
    assert (
        (out["ci_lo"] <= out["mean_v"]) & (out["mean_v"] <= out["ci_hi"])
    ).all()
    assert (out["ci_hi"] > out["ci_lo"]).all()
    import duckdb

    want = duckdb.connect().execute(
        "SELECT event_type, AVG(value) AS m FROM read_parquet(?) "
        "WHERE value IS NOT NULL GROUP BY event_type ORDER BY event_type",
        [f"{sf_dir}/events.parquet"],
    ).df()
    np.testing.assert_allclose(
        out.sort_values("event_type")["mean_v"].to_numpy(),
        want["m"].to_numpy(),
        rtol=1e-9,
    )
    for c in ("mean_v", "ci_lo", "ci_hi"):
        out[c] = _round_half_away(out[c], 6)
    return out


def q_cumulative_users_by_day(sf_dir: str) -> pd.DataFrame:
    """Cumulative distinct users by day
    (`ops/sketch.hll_cumulative_distinct` — register-max IS sketch
    union, so one fixed-size partial per (bucket, batch) yields the
    whole growth curve).  Rows-only (probabilistic); asserted in-query:
    every cumulative estimate within 5 % of the exact distributed
    answer and the curve is monotone; machinery pinned by
    TestHllCumulativeDistinct."""
    import duckdb

    from ..ops.sketch import hll_cumulative_distinct

    ev = _t(sf_dir, "events", ["ts", "user_id"])
    out = hll_cumulative_distinct(
        ev, "ts", "user_id", bucket_us=86_400_000_000
    )
    exact = duckdb.connect().execute(
        "WITH e AS (SELECT epoch_us(ts) // 86400000000 AS b, user_id "
        "FROM read_parquet(?) WHERE ts IS NOT NULL), "
        "f AS (SELECT user_id, MIN(b) AS fb FROM e GROUP BY user_id), "
        "g AS (SELECT fb, CAST(COUNT(*) AS BIGINT) AS n FROM f GROUP BY fb), "
        "d AS (SELECT DISTINCT b FROM e) "
        "SELECT d.b, CAST(SUM(g.n) AS BIGINT) AS cum FROM d "
        "LEFT JOIN g ON g.fb <= d.b GROUP BY d.b ORDER BY d.b",
        [f"{sf_dir}/events.parquet"],
    ).df()
    got = out.sort_values("bucket").reset_index(drop=True)
    assert got["bucket"].tolist() == exact["b"].tolist()
    rel = np.abs(
        got["est_cumulative"].to_numpy() / exact["cum"].to_numpy() - 1
    )
    assert rel.max() < 0.05, rel.max()
    assert (np.diff(got["est_cumulative"].to_numpy()) >= -1e-9).all()
    got["est_in_bucket"] = _round_half_away(got["est_in_bucket"], 2)
    got["est_cumulative"] = _round_half_away(got["est_cumulative"], 2)
    return got


# ===========================================================================
# Registry + SQL oracles
# ===========================================================================
# The registry is the one list of queries; tests, bench.py and the docs
# derive theirs from it (tests/test_registry.py holds them to it):
# - Order matters: the correctness gate runs only the FIRST 50 entries,
#   so the flagship pipelines and the SQL-oracled gate queries come first.
# - Every entry has an oracle: an ORACLE_SQL query, or, when its result is
#   not SQL-expressible (floats, learned models, sketches), invariants
#   asserted in-query plus the pytest class PINNED_BY names.
# - An ORACLE_SQL entry past position 50 is DuckDB-compared by
#   tests/test_ops.py::TestTailQueryOracles.
# - TRACKED is the slice bench.py times by default; `--extras` times the rest.
QUERIES = {
    # -- flagship extraction / curation / catalog / multimodal pipelines --
    "extract_docs": q_extract_docs,
    "extract_pdf_docs": q_extract_pdf_docs,
    "extract_pages": q_extract_pages,
    "curate_corpus": q_curate_corpus,
    "catalog_ingest": q_catalog_ingest,
    "image_features": q_image_features,
    "video_frame_features": q_video_frame_features,
    "audio_features": q_audio_features,
    # -- oracled text / dedup / relational / window / embedding queries --
    "doc_stats_by_source": q_doc_stats_by_source,
    "word_count_per_doc": q_word_count_per_doc,
    "bpe_token_count": q_bpe_token_count,
    "lang_distribution": q_lang_distribution,
    "top10_longest_en": q_top10_longest_en,
    "quality_stats": q_quality_stats,
    "repetition_stats": q_repetition_stats,
    "exact_dedup_docs": q_exact_dedup_docs,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "near_dedup_docs": q_near_dedup_docs,
    "repeated_paragraphs": q_repeated_paragraphs,
    "strip_repeated_paragraphs": q_strip_repeated_paragraphs,
    "orders_by_segment": q_orders_by_segment,
    "colocated_orders_join": q_colocated_orders_join,
    "lineitem_join_revenue": q_lineitem_join_revenue,
    "tpch_q1": q_tpch_q1,
    "top_orders_revenue": q_top_orders_revenue,
    "revenue_by_nation": q_revenue_by_nation,
    "customers_with_orders_by_nation": q_customers_with_orders_by_nation,
    "customers_without_orders": q_customers_without_orders,
    "top10_orders": q_top10_orders,
    "orders_page3": q_orders_page3,
    "distinct_event_types": q_distinct_event_types,
    "events_hourly": q_events_hourly,
    "events_hopping": q_events_hopping,
    "event_sessions": q_event_sessions,
    "events_json_k": q_events_json_k,
    "median_value_by_type": q_median_value_by_type,
    "running_totals": q_running_totals,
    "asof_last_signup": q_asof_last_signup,
    "distinct_users_by_type": q_distinct_users_by_type,
    "knn_cosine_top10": q_knn_cosine_top10,
    "embedding_cosine_pairs": q_embedding_cosine_pairs,
    "embedding_near_dup_pairs": q_embedding_near_dup_pairs,
    "fuzzy_join_typos": q_fuzzy_join_typos,
    "customer_slugs": q_customer_slugs,
    "hijri_order_years": q_hijri_order_years,
    "pushdown_filter_read": q_pushdown_filter_read,
    "first_error_event": q_first_error_event,
    "pack_sequences": q_pack_sequences,
    "decontaminate_docs": q_decontaminate_docs,
    "stratified_sample": q_stratified_sample,
    # ---- position > 50: past the correctness gate's query cap ----
    "minhash_dup_pairs": q_minhash_dup_pairs,
    "simhash_signatures": q_simhash_signatures,
    "doc_fingerprints": q_doc_fingerprints,
    "bpe_vocab_token_count": q_bpe_vocab_token_count,
    "knn_ivf_top10": q_knn_ivf_top10,
    "knn_lsh_top10": q_knn_lsh_top10,
    "approx_median_value_by_type": q_approx_median_value_by_type,
    "lineitem_join_revenue_exchange": q_lineitem_join_revenue_exchange,
    "rasterize_pdf_pages": q_rasterize_pdf_pages,
    "langid_pred": q_langid_pred,
    "url_canonical_dedup": q_url_canonical_dedup,
    "dataset_split": q_dataset_split,
    "union_sources": q_union_sources,
    "pii_redact": q_pii_redact,
    "top3_docs_per_lang": q_top3_docs_per_lang,
    "token_df": q_token_df,
    "error_blast_radius": q_error_blast_radius,
    "epoch_shuffle": q_epoch_shuffle,
    "source_mixture": q_source_mixture,
    "lm_perplexity": q_lm_perplexity,
    "training_chunks": q_training_chunks,
    "dup_span_stats": q_dup_span_stats,
    "strip_dup_spans": q_strip_dup_spans,
    "ccnet_ppl_buckets": q_ccnet_ppl_buckets,
    "approx_distinct_users": q_approx_distinct_users,
    "top_tokens_sketch": q_top_tokens_sketch,
    "merge_volumes": q_merge_volumes,
    "gopher_quality": q_gopher_quality,
    "bm25_top10": q_bm25_top10,
    "compression_ratio": q_compression_ratio,
    "semdedup_embeddings": q_semdedup_embeddings,
    "c4_clean": q_c4_clean,
    "c4_span_dedup": q_c4_span_dedup,
    "dsir_select": q_dsir_select,
    "quality_classifier": q_quality_classifier,
    "dedup_doc_lines": q_dedup_doc_lines,
    "incremental_dedup": q_incremental_dedup,
    "incremental_near_dedup": q_incremental_near_dedup,
    "knn_pq_top10": q_knn_pq_top10,
    "knn_ivf_pq_top10": q_knn_ivf_pq_top10,
    "bpe_train_token_count": q_bpe_train_token_count,
    "token_budget_mix": q_token_budget_mix,
    "event_gaps": q_event_gaps,
    "rolling_1h_value": q_rolling_1h_value,
    "custdist_left_join": q_custdist_left_join,
    "orders_rollup": q_orders_rollup,
    "full_outer_orders": q_full_outer_orders,
    "orders_pivot": q_orders_pivot,
    "custkey_set_ops": q_custkey_set_ops,
    "stratified_k_sample": q_stratified_k_sample,
    "late_orders_by_priority": q_late_orders_by_priority,
    "documents_profile": q_documents_profile,
    "unigram_token_count": q_unigram_token_count,
    "knn_join_top5": q_knn_join_top5,
    "value_rank_in_type": q_value_rank_in_type,
    "temperature_mix": q_temperature_mix,
    "url_quality_filter": q_url_quality_filter,
    "orders_cube": q_orders_cube,
    "event_value_ntile": q_event_value_ntile,
    "first_last_event_per_user": q_first_last_event_per_user,
    "value_percentiles_by_type": q_value_percentiles_by_type,
    "mode_priority_by_status": q_mode_priority_by_status,
    "orders_price_histogram": q_orders_price_histogram,
    "running_value_by_user": q_running_value_by_user,
    "rolling3_value_by_user": q_rolling3_value_by_user,
    "value_pctrank_in_type": q_value_pctrank_in_type,
    "pctcont_value_by_type": q_pctcont_value_by_type,
    "tpch_q3_shipping": q_tpch_q3_shipping,
    "tpch_q10_returned": q_tpch_q10_returned,
    "simhash_near_dup_docs": q_simhash_near_dup_docs,
    "value_stddev_by_type": q_value_stddev_by_type,
    "qty_discount_corr": q_qty_discount_corr,
    "user_event_seq": q_user_event_seq,
    "lineitem_unpivot": q_lineitem_unpivot,
    "orders_grouping_sets": q_orders_grouping_sets,
    "weighted_doc_sample": q_weighted_doc_sample,
    "merge_upsert_orders": q_merge_upsert_orders,
    "clustered_range_scan": q_clustered_range_scan,
    "centered_roll_value_by_user": q_centered_roll_value_by_user,
    "embedding_unnest": q_embedding_unnest,
    "tpch_q6_forecast": q_tpch_q6_forecast,
    "link_pagerank": q_link_pagerank,
    "cm_user_freq": q_cm_user_freq,
    "zorder_box_scan": q_zorder_box_scan,
    "weighted_lang_sample": q_weighted_lang_sample,
    "url_prefix_scan": q_url_prefix_scan,
    "tpch_q14_promo": q_tpch_q14_promo,
    "tpch_q15_top_supplier": q_tpch_q15_top_supplier,
    "tpch_q18_large_orders": q_tpch_q18_large_orders,
    "versioned_upsert_orders": q_versioned_upsert_orders,
    "clustered_merge_join_revenue": q_clustered_merge_join_revenue,
    "value_share_in_type": q_value_share_in_type,
    "warc_extract_docs": q_warc_extract_docs,
    "crawl_snapshot_diff": q_crawl_snapshot_diff,
    "host_links": q_host_links,
    "nfc_normalized_docs": q_nfc_normalized_docs,
    "tpch_q7_volume": q_tpch_q7_volume,
    "tpch_q19_disjunctive": q_tpch_q19_disjunctive,
    "tpch_q22_balance": q_tpch_q22_balance,
    "robots_filtered_urls": q_robots_filtered_urls,
    "card_pii_stats": q_card_pii_stats,
    "event_key_skew": q_event_key_skew,
    "orders_footer_stats": q_orders_footer_stats,
    "script_ratio_docs": q_script_ratio_docs,
    "doc_sliding_windows": q_doc_sliding_windows,
    "crawl_increments": q_crawl_increments,
    "embedding_pca_top2": q_embedding_pca_top2,
    "orders_expectations": q_orders_expectations,
    "bloom_point_lookup": q_bloom_point_lookup,
    "tpch_q5_local_supplier": q_tpch_q5_local_supplier,
    "tpch_q8_market_share": q_tpch_q8_market_share,
    "tpch_q12_late_shipments": q_tpch_q12_late_shipments,
    "tpch_q17_small_quantity": q_tpch_q17_small_quantity,
    "tpch_q21_waiting_suppliers": q_tpch_q21_waiting_suppliers,
    "bm25_indexed_top10": q_bm25_indexed_top10,
    "bm25_incremental_top10": q_bm25_incremental_top10,
    "event_funnel": q_event_funnel,
    "link_hits": q_link_hits,
    "link_triangles": q_link_triangles,
    "jsonl_docs": q_jsonl_docs,
    "main_content_docs": q_main_content_docs,
    "incremental_event_stats": q_incremental_event_stats,
    "csv_events": q_csv_events,
    "running_max_value_by_user": q_running_max_value_by_user,
    "custkey_multiset_ops": q_custkey_multiset_ops,
    "ipc_docs": q_ipc_docs,
    "orc_events": q_orc_events,
    "anchor_texts": q_anchor_texts,
    "char_entropy_docs": q_char_entropy_docs,
    "doc_top_tfidf": q_doc_top_tfidf,
    "bloom_strip_paragraphs": q_bloom_strip_paragraphs,
    "tfrecord_docs": q_tfrecord_docs,
    "avro_docs": q_avro_docs,
    "readability_docs": q_readability_docs,
    "link_clustering": q_link_clustering,
    "token_drift_en_rest": q_token_drift_en_rest,
    "tpch_q2_min_cost_supplier": q_tpch_q2_min_cost_supplier,
    "tpch_q4_order_priority": q_tpch_q4_order_priority,
    "tpch_q9_product_profit": q_tpch_q9_product_profit,
    "tpch_q11_important_stock": q_tpch_q11_important_stock,
    "tpch_q16_supplier_relationship": q_tpch_q16_supplier_relationship,
    "tpch_q20_promotion_parts": q_tpch_q20_promotion_parts,
    "order_status_confusion": q_order_status_confusion,
    "order_score_pr": q_order_score_pr,
    "order_score_auc": q_order_score_auc,
    "order_score_calibration": q_order_score_calibration,
    "pareto_orders": q_pareto_orders,
    "price_qty_linreg_by_flag": q_price_qty_linreg_by_flag,
    "event_transition_probs": q_event_transition_probs,
    "user_activity_windows": q_user_activity_windows,
    "event_value_fill": q_event_value_fill,
    "link_bfs_reach": q_link_bfs_reach,
    "user_retention_cohorts": q_user_retention_cohorts,
    "event_pair_lift": q_event_pair_lift,
    "doc_pmi_bigrams": q_doc_pmi_bigrams,
    "crawl_frontier_order": q_crawl_frontier_order,
    "event_value_decay": q_event_value_decay,
    "orders_global_rownum": q_orders_global_rownum,
    "value_ab_welch": q_value_ab_welch,
    "value_outliers_by_type": q_value_outliers_by_type,
    "events_hourly_dense": q_events_hourly_dense,
    "value_zscore_by_type": q_value_zscore_by_type,
    "user_golden_record": q_user_golden_record,
    "events_wow_change": q_events_wow_change,
    "token_chi2_en": q_token_chi2_en,
    "value_autocorr_by_user": q_value_autocorr_by_user,
    "nb_lang_predict": q_nb_lang_predict,
    "sqlite_events": q_sqlite_events,
    "events_hive_scan": q_events_hive_scan,
    "event_rate_changepoint": q_event_rate_changepoint,
    "value_winsor_by_type": q_value_winsor_by_type,
    "orders_benford": q_orders_benford,
    "html_meta_docs": q_html_meta_docs,
    "value_gini_by_type": q_value_gini_by_type,
    "event_props_stats": q_event_props_stats,
    "user_daily_streak": q_user_daily_streak,
    "user_type_entropy": q_user_type_entropy,
    "containment_pairs": q_containment_pairs,
    "value_trimmed_mean_by_type": q_value_trimmed_mean_by_type,
    "orders_delete_keys": q_orders_delete_keys,
    "training_mix_chunks": q_training_mix_chunks,
    "t5_corrupted_docs": q_t5_corrupted_docs,
    "event_type_kappa": q_event_type_kappa,
    "doc_sections": q_doc_sections,
    "value_trend_by_user": q_value_trend_by_user,
    "value_ks_by_dow": q_value_ks_by_dow,
    "value_skewkurt_by_type": q_value_skewkurt_by_type,
    "docs_bleu": q_docs_bleu,
    "docs_rouge2": q_docs_rouge2,
    "link_adamic_adar": q_link_adamic_adar,
    "hybrid_rrf_top10": q_hybrid_rrf_top10,
    "xml_docs": q_xml_docs,
    "wiki_dump_docs": q_wiki_dump_docs,
    "token_zipf_fit": q_token_zipf_fit,
    "customer_jw_pairs": q_customer_jw_pairs,
    "heaps_vocab_fit": q_heaps_vocab_fit,
    "link_communities": q_link_communities,
    "balanced_mix_docs": q_balanced_mix_docs,
    "part_soundex_blocks": q_part_soundex_blocks,
    "lang_source_assoc": q_lang_source_assoc,
    "order_score_isotonic": q_order_score_isotonic,
    "hard_negatives_top3": q_hard_negatives_top3,
    "part_entity_resolution": q_part_entity_resolution,
    "doc_topic_segments": q_doc_topic_segments,
    "stemmed_token_counts": q_stemmed_token_counts,
    "ql_top10": q_ql_top10,
    "user_survival_curve": q_user_survival_curve,
    "folded_docs": q_folded_docs,
    "doc_cdc_chunks": q_doc_cdc_chunks,
    "rm3_expanded_top10": q_rm3_expanded_top10,
    "value_mean_ci_by_type": q_value_mean_ci_by_type,
    "cumulative_users_by_day": q_cumulative_users_by_day,
    "pdf_chapter_outline": q_pdf_chapter_outline,
    "customer_linkage_fs": q_customer_linkage_fs,
    "user_overlap_hll": q_user_overlap_hll,
    "langid_trained": q_langid_trained,
    "leakage_free_split": q_leakage_free_split,
    "link_kcore": q_link_kcore,
    "rag_passage_search": q_rag_passage_search,
    "text_embed_knn": q_text_embed_knn,
    "approx_distinct_users_by_type": q_approx_distinct_users_by_type,
    "image_near_dups": q_image_near_dups,
    "audio_near_dups": q_audio_near_dups,
    "video_near_dups": q_video_near_dups,
}

TRACKED = (
    "tpch_q1",
    "lineitem_join_revenue",
    "orders_by_segment",
    "top_orders_revenue",
    "events_hourly",
    "event_sessions",
    "exact_dedup_docs",
    "minhash_dup_pairs",
    "knn_cosine_top10",
    "word_count_per_doc",
    "near_dedup_docs",
    "stratified_sample",
)

PINNED_BY = {
    "extract_docs": "TestPipelineGolden",
    "extract_pdf_docs": "TestPdfPipeline",
    "extract_pages": "TestPageIdx",
    "catalog_ingest": "TestCatalog",
    "image_features": "TestMultimodal",
    "video_frame_features": "TestMultimodal",
    "audio_features": "TestAudio",
    "minhash_dup_pairs": "TestDedup",
    "simhash_signatures": "TestDedup",
    "doc_fingerprints": "TestTextStats",
    "bpe_vocab_token_count": "TestBpeProps",
    "knn_ivf_top10": "TestIVF",
    "knn_lsh_top10": "TestSimilarity",
    "approx_median_value_by_type": "TestQuantileSketch",
    "rasterize_pdf_pages": "TestPdfPipeline",
    "langid_pred": "TestTextStats",
    "approx_distinct_users": "TestSketchQueries",
    "top_tokens_sketch": "TestSketchQueries",
    "merge_volumes": "TestMergeDocuments",
    "compression_ratio": "TestCompressionRatio",
    "semdedup_embeddings": "TestKmeansSemdedup",
    "c4_span_dedup": "TestC4SpanDedup",
    "dsir_select": "TestDsir",
    "quality_classifier": "TestLogregClassifier",
    "incremental_dedup": "TestIncrementalDedup",
    "incremental_near_dedup": "TestIncrementalMinhash",
    "knn_pq_top10": "TestProductQuant",
    "knn_ivf_pq_top10": "TestIvfPq",
    "bpe_train_token_count": "TestBpeTrainDistributed",
    "unigram_token_count": "TestUnigram",
    "simhash_near_dup_docs": "TestSimhashNearDup",
    "link_pagerank": "TestGraph",
    "cm_user_freq": "TestCountMin",
    "warc_extract_docs": "TestWarcSource",
    "crawl_increments": "TestCrawlIngestPipeline",
    "embedding_pca_top2": "TestPca",
    "link_hits": "TestHits",
    "training_mix_chunks": "TestPrepareTrainingMix",
    "t5_corrupted_docs": "TestT5SpanCorrupt",
    "link_communities": "TestLabelPropagation",
    "balanced_mix_docs": "TestIpfBalance",
    "order_score_isotonic": "TestIsotonicCalibration",
    "part_entity_resolution": "TestEntityResolution",
    "doc_topic_segments": "TestTextTiling",
    "stemmed_token_counts": "TestPorterStemmer",
    "doc_cdc_chunks": "TestContentDefinedChunks",
    "rm3_expanded_top10": "TestRm3",
    "value_mean_ci_by_type": "TestBootstrapCi",
    "cumulative_users_by_day": "TestHllCumulativeDistinct",
    "pdf_chapter_outline": "TestPdfOutline",
    "customer_linkage_fs": "TestFsLinkage",
    "user_overlap_hll": "TestHllSetEstimates",
    "langid_trained": "TestSoftmaxLangid",
    "leakage_free_split": "TestLeakageFreeSplit",
    "link_kcore": "TestKcore",
    "rag_passage_search": "TestRagPipeline",
    "text_embed_knn": "TestHashedEmbed",
    "approx_distinct_users_by_type": "TestHLL",
    "image_near_dups": "TestImageNearDup",
    "audio_near_dups": "TestAudioNearDup",
    "video_near_dups": "TestVideoNearDup",
}

# Julian-day + hijri-year arithmetic as SQL (positive operands only, so
# DuckDB's truncating // equals floor): mirrors functions/hijri.py.
_HIJRI_SQL = """
WITH g AS (
  SELECT o_orderkey, year(o_orderdate) AS gy FROM orders
), jd AS (
  SELECT o_orderkey,
         1 + (153 * 10 + 2) // 5 + 365 * (gy + 4799) + (gy + 4799) // 4
           - (gy + 4799) // 100 + (gy + 4799) // 400 - 32045 AS j
  FROM g
)
SELECT o_orderkey, CAST((30 * (j - 1948440) + 10646) // 10631 AS BIGINT) AS hijri_year FROM jd
"""

_NGRAM_JACCARD_SQL = """
WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
), grams AS (
  SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS g
  FROM toks a
  JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  JOIN toks c ON a.doc_id = c.doc_id AND c.i = a.i + 2
), short AS (
  -- docs with fewer than 3 tokens shingle to the whole text
  SELECT doc_id, text AS g FROM documents
  WHERE len(string_split(text, ' ')) < 3
), allg AS (
  SELECT * FROM grams UNION ALL SELECT * FROM short
), sizes AS (
  SELECT doc_id, COUNT(*) AS sz FROM allg GROUP BY doc_id
), posting AS (
  -- stop-shingle cap: shingles shared by > 1000 docs are excluded from the
  -- intersection on BOTH engines (the Ray op's max_posting skew control)
  SELECT g FROM allg GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 1000
), inter AS (
  SELECT x.doc_id AS id_a, y.doc_id AS id_b, COUNT(*) AS n_inter
  FROM allg x
  JOIN posting p ON p.g = x.g
  JOIN allg y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY x.doc_id, y.doc_id
)
SELECT id_a, id_b,
       ROUND(CAST(n_inter AS DOUBLE) / (sa.sz + sb.sz - n_inter), 4) AS jaccard
FROM inter
JOIN sizes sa ON sa.doc_id = id_a
JOIN sizes sb ON sb.doc_id = id_b
WHERE CAST(n_inter AS DOUBLE) / (sa.sz + sb.sz - n_inter) >= 0.5
"""

# Chunk-dedup oracles: paragraphs = '\n\n'-split parts of text + the two
# appended footers; a paragraph counts when its stripped form has >= 3
# whitespace tokens; repeated = present in >= 10 distinct docs.  DuckDB
# string literals don't interpret backslash escapes -> chr(10) newlines.
_PARA_NL2 = "chr(10) || chr(10)"
_PARA_WS = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
_PARA_DOCS = f"""
  SELECT doc_id,
         text || {_PARA_NL2} || 'Subscribe to our newsletter | Terms of service apply'
              || {_PARA_NL2} || 'Site ' || CAST(doc_id % 7 AS VARCHAR)
              || ' portal - all rights reserved worldwide' AS text
  FROM documents
"""

_REPEATED_PARAS_SQL = f"""
WITH docs AS ({_PARA_DOCS}
), parts AS (
  SELECT doc_id, unnest(string_split(text, {_PARA_NL2})) AS p FROM docs
), paras AS (
  SELECT DISTINCT doc_id, trim(p, {_PARA_WS}) AS para_text FROM parts
)
SELECT para_text, COUNT(DISTINCT doc_id) AS n_docs
FROM paras
WHERE len(regexp_extract_all(para_text, '\\S+')) >= 3
GROUP BY para_text
HAVING COUNT(DISTINCT doc_id) >= 10
"""

_STRIP_PARAS_SQL = f"""
WITH docs AS ({_PARA_DOCS}
), parts AS (
  SELECT doc_id, unnest(string_split(text, {_PARA_NL2})) AS p,
         generate_subscripts(string_split(text, {_PARA_NL2}), 1) AS i
  FROM docs
), trimmed AS (
  SELECT doc_id, p, i, trim(p, {_PARA_WS}) AS tp,
         len(regexp_extract_all(trim(p, {_PARA_WS}), '\\S+')) AS nw
  FROM parts
), rep AS (
  SELECT tp FROM (SELECT DISTINCT doc_id, tp FROM trimmed WHERE nw >= 3)
  GROUP BY tp HAVING COUNT(*) >= 10
), kept AS (
  SELECT doc_id, string_agg(p, {_PARA_NL2} ORDER BY i) AS s
  FROM trimmed
  WHERE NOT (nw >= 3 AND tp IN (SELECT tp FROM rep))
  GROUP BY doc_id
)
SELECT d.doc_id, CAST(length(COALESCE(k.s, '')) AS BIGINT) AS n_chars_stripped
FROM (SELECT DISTINCT doc_id FROM docs) d
LEFT JOIN kept k USING (doc_id)
"""

_SESSIONS_SQL = """
WITH d AS (
  SELECT user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s
  FROM events
), s AS (
  SELECT user_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM d
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       MIN(ts) AS session_start, MAX(ts) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM s GROUP BY user_id, session_id
"""

# add-0.5 bigram LM trained on doc_id%10<3 (ops/lm.py mirror) — shared by
# lm_perplexity and the ccnet_ppl_buckets window over it
_LM_PPL_SQL = (
    "WITH tr AS (SELECT list_filter(regexp_split_to_array(lower(text), '\\s+'), "
    "t -> t <> '') AS ts FROM documents WHERE doc_id % 10 < 3), "
    "trbg AS (SELECT ts[u.i] || ' ' || ts[u.i+1] AS bg FROM tr, "
    "UNNEST(generate_series(1, len(ts)-1)) AS u(i)), "
    "cb AS (SELECT bg, count(*) AS cb FROM trbg GROUP BY bg), "
    "tru AS (SELECT u.w FROM tr, UNNEST(tr.ts) AS u(w)), "
    "cu AS (SELECT w, count(*) AS cu FROM tru GROUP BY w), "
    "v AS (SELECT count(*) AS v FROM cu), "
    "sc AS (SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '\\s+'), "
    "t -> t <> '') AS ts FROM documents), "
    "scbg AS (SELECT doc_id, ts[u.i] AS w1, ts[u.i] || ' ' || ts[u.i+1] AS bg "
    "FROM sc, UNNEST(generate_series(1, len(ts)-1)) AS u(i)), "
    "j AS (SELECT s.doc_id, -ln((COALESCE(cb.cb, 0) + 0.5) / "
    "(COALESCE(cu.cu, 0) + 0.5 * v.v)) AS nll "
    "FROM scbg s LEFT JOIN cb USING (bg) LEFT JOIN cu ON s.w1 = cu.w CROSS JOIN v) "
    "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams, avg(nll) AS avg_nll "
    "FROM j GROUP BY doc_id"
)

ORACLE_SQL = {
    "doc_stats_by_source": (
        "SELECT source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
        "ROUND(CAST(SUM(n_chars) AS DOUBLE) / COUNT(*), 4) AS avg_chars "
        "FROM documents GROUP BY source"
    ),
    "word_count_per_doc": (
        "SELECT doc_id, CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) "
        "AS total_words FROM documents"
    ),
    "bpe_token_count": (
        "SELECT doc_id, CAST(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^ A-Za-z0-9]')) "
        "AS BIGINT) AS n_bpe_tokens FROM documents"
    ),
    "lang_distribution": "SELECT lang, COUNT(*) AS n_docs FROM documents GROUP BY lang",
    "top10_longest_en": (
        "SELECT doc_id, n_chars FROM documents WHERE lang = 'en' "
        "ORDER BY n_chars DESC, doc_id LIMIT 10"
    ),
    "quality_stats": (
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars_calc, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_ws_tokens, "
        "ROUND(CAST(length(text) AS DOUBLE) / GREATEST(len(string_split(text, ' ')), 1), 4) "
        "AS chars_per_token FROM documents"
    ),
    "repetition_stats": (
        "WITH t AS (SELECT doc_id, string_split(text, chr(10)) AS lines, "
        "list_filter(regexp_split_to_array(text, '[ \n]'), x -> x <> '') AS words "
        "FROM documents) "
        "SELECT doc_id, CAST(len(lines) AS BIGINT) AS n_lines, "
        "CAST(len(list_distinct(lines)) AS BIGINT) AS n_distinct_lines, "
        "ROUND((len(lines) - len(list_distinct(lines))) / CAST(GREATEST(len(lines), 1) AS DOUBLE), 6) AS dup_line_frac, "
        "ROUND(COALESCE(list_sum(list_transform(words, x -> length(x))), 0) / CAST(GREATEST(len(words), 1) AS DOUBLE), 6) AS mean_word_len "
        "FROM t ORDER BY doc_id"
    ),
    "url_canonical_dedup": (
        "WITH u AS (SELECT doc_id, 'site' || CAST((doc_id // 4) % 7 AS VARCHAR) AS src, CASE doc_id % 4 "
        "WHEN 0 THEN 'HTTPS://WWW.' || src || '.com:443/doc/' || CAST(doc_id // 4 AS VARCHAR) || '/?b=2&a=1&utm_source=x#top' "
        "WHEN 1 THEN 'https://' || src || '.com/doc/' || CAST(doc_id // 4 AS VARCHAR) || '?a=1&b=2' "
        "WHEN 2 THEN 'https://www.' || src || '.com/doc/' || CAST(doc_id // 4 AS VARCHAR) || '/#sec' "
        "ELSE 'HTTPS://' || src || '.COM:443/doc/' || CAST(doc_id // 4 AS VARCHAR) || '?utm_campaign=z&a=1&b=2' END AS url "
        "FROM documents), "
        "s AS (SELECT doc_id, regexp_replace(url, '#.*$', '') AS nofrag FROM u), "
        "p AS (SELECT doc_id, "
        "lower(CASE WHEN strpos(nofrag, '?') > 0 THEN substr(nofrag, 1, strpos(nofrag, '?') - 1) ELSE nofrag END) AS rawbase, "
        "CASE WHEN strpos(nofrag, '?') > 0 THEN substr(nofrag, strpos(nofrag, '?') + 1) ELSE '' END AS q FROM s), "
        "c AS (SELECT doc_id, "
        "rtrim(regexp_replace(regexp_replace(rawbase, '^(https?://)www\\.', '\\1'), "
        "'^(https?://[^/:]+):(443|80)(/|$)', '\\1\\3'), '/') AS base, "
        "array_to_string(list_sort(list_filter(string_split(q, '&'), "
        "x -> x <> '' AND NOT starts_with(x, 'utm_'))), '&') AS sq FROM p) "
        "SELECT base || CASE WHEN sq <> '' THEN '?' || sq ELSE '' END AS canonical_url, "
        "COUNT(*) AS n_variants, MIN(doc_id) AS min_doc_id "
        "FROM c GROUP BY 1 ORDER BY 1"
    ),
    "exact_dedup_docs": (
        "SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dups FROM documents GROUP BY text"
    ),
    "ngram_jaccard_pairs": _NGRAM_JACCARD_SQL,
    "repeated_paragraphs": _REPEATED_PARAS_SQL,
    "strip_repeated_paragraphs": _STRIP_PARAS_SQL,
    # bloom route == exact route at the sized m_bits (asserted in-query),
    # so it carries the identical full oracle
    "bloom_strip_paragraphs": _STRIP_PARAS_SQL,
    # money sums use exact integer cents (FLOOR(x*100+0.5)) so parallel
    # partial sums agree bit-for-bit with DuckDB's sequential sum
    "colocated_orders_join": (
        "SELECT c_mktsegment, COUNT(*) AS n_orders, "
        "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 AS revenue "
        "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment"
    ),
    "orders_by_segment": (
        "SELECT c_mktsegment, COUNT(*) AS n_orders, "
        "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 AS revenue "
        "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment"
    ),
    "lineitem_join_revenue_exchange": (
        "SELECT o_orderpriority, COUNT(*) AS n_items, "
        "CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) "
        "AS DOUBLE) / 100 AS revenue "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate < TIMESTAMP '1996-01-01' GROUP BY o_orderpriority"
    ),
    "lineitem_join_revenue": (
        "SELECT o_orderpriority, COUNT(*) AS n_items, "
        "CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) "
        "AS DOUBLE) / 100 AS revenue "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate < TIMESTAMP '1996-01-01' GROUP BY o_orderpriority"
    ),
    "tpch_q1": (
        "SELECT l_returnflag, l_linestatus, "
        "CAST(SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 AS sum_qty, "
        "CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
        "AS sum_base_price, "
        "CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) "
        "AS DOUBLE) / 100 AS sum_disc_price, "
        "COUNT(*) AS n, "
        "ROUND(CAST(SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
        "/ COUNT(*), 4) AS avg_qty "
        "FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02' "
        "GROUP BY l_returnflag, l_linestatus"
    ),
    "top_orders_revenue": (
        "SELECT l_orderkey, "
        "CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) "
        "AS DOUBLE) / 100 AS revenue, "
        "ANY_VALUE(o_orderpriority) AS o_orderpriority "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "GROUP BY l_orderkey ORDER BY revenue DESC, l_orderkey LIMIT 10"
    ),
    "revenue_by_nation": (
        "SELECT n_name, "
        "CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) "
        "AS DOUBLE) / 100 AS revenue "
        "FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
        "JOIN nation ON c_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey "
        "WHERE r_name = 'ASIA' AND o_orderdate >= TIMESTAMP '1996-01-01' "
        "AND o_orderdate < TIMESTAMP '1997-01-01' "
        "GROUP BY n_name"
    ),
    "customers_with_orders_by_nation": (
        "SELECT c_nationkey, COUNT(*) AS n_customers FROM customer "
        "WHERE c_custkey IN (SELECT o_custkey FROM orders) GROUP BY c_nationkey"
    ),
    "customers_without_orders": (
        "SELECT c_custkey, c_nationkey FROM customer "
        "WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)"
    ),
    "top10_orders": (
        "SELECT o_orderkey, o_totalprice FROM orders "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
    ),
    "orders_page3": (
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
        "ORDER BY o_orderkey LIMIT 20 OFFSET 40"
    ),
    "distinct_event_types": "SELECT DISTINCT event_type FROM events",
    "events_hourly": (
        "SELECT user_id, date_trunc('hour', ts) AS bucket, COUNT(*) AS n_events, "
        "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 AS sum_value "
        "FROM events GROUP BY user_id, date_trunc('hour', ts)"
    ),
    "event_sessions": _SESSIONS_SQL,
    "events_hopping": (
        "SELECT user_id, date_trunc('hour', ts) - (h.h * INTERVAL 1 HOUR) AS window_start, "
        "COUNT(*) AS n_events, "
        "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 AS sum_value "
        "FROM events CROSS JOIN (VALUES (0), (1)) AS h(h) "
        "GROUP BY user_id, window_start"
    ),
    "events_json_k": (
        "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k FROM events"
    ),
    "median_value_by_type": (
        "SELECT event_type, ROUND(median(value), 4) AS median_value "
        "FROM events GROUP BY event_type"
    ),
    "running_totals": (
        "SELECT event_id, user_id, "
        "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS DOUBLE) / 100 "
        "AS running_value FROM events"
    ),
    "asof_last_signup": (
        "SELECT e.event_id, CAST(s.signup_id AS DOUBLE) AS signup_id "
        "FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'error') e "
        "ASOF LEFT JOIN (SELECT event_id AS signup_id, user_id, ts FROM events "
        "WHERE event_type = 'signup') s "
        "ON e.user_id = s.user_id AND e.ts >= s.ts"
    ),
    "distinct_users_by_type": (
        "SELECT event_type, COUNT(DISTINCT user_id) AS n_users FROM events GROUP BY event_type"
    ),
    # CAST to DOUBLE[] so DuckDB computes cosine in float64 like numpy
    "knn_cosine_top10": (
        "SELECT e.vec_id, ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
        "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)), 4) AS cosine "
        "FROM embeddings e WHERE e.vec_id <> 0 "
        "ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
        "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)) DESC, "
        "e.vec_id LIMIT 10"
    ),
    "embedding_cosine_pairs": (
        "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
        "ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
        "CAST(b.embedding AS DOUBLE[])), 4) AS cosine "
        "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
        "WHERE a.vec_id < 1500 AND b.vec_id < 1500 "
        "AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
        "CAST(b.embedding AS DOUBLE[])) >= 0.4"
    ),
    "fuzzy_join_typos": (
        "WITH sub AS (SELECT p_partkey, p_name FROM part WHERE p_partkey < 400), "
        "typos AS (SELECT p_partkey AS id_r, "
        "substr(p_name, 1, p_partkey % length(p_name)) || '#' || "
        "substr(p_name, (p_partkey % length(p_name)) + 2) AS name FROM sub) "
        "SELECT a.p_partkey AS id_l, t.id_r, "
        "CAST(levenshtein(a.p_name, t.name) AS BIGINT) AS lev_dist "
        "FROM sub a JOIN typos t ON levenshtein(a.p_name, t.name) <= 2"
    ),
    "embedding_near_dup_pairs": (
        "WITH aug AS ("
        "SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings "
        "UNION ALL "
        "SELECT vec_id + 100000, list_transform(CAST(embedding AS DOUBLE[]), x -> x * 0.7) "
        "FROM embeddings) "
        "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
        "ROUND(list_cosine_similarity(a.e, b.e), 4) AS cosine "
        "FROM aug a JOIN aug b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(a.e, b.e) >= 0.95"
    ),
    "customer_slugs": (
        "SELECT c_custkey, trim(lower(regexp_replace(c_name, '[^a-zA-Z0-9]+', '-', 'g')), '-') "
        "AS slug FROM customer"
    ),
    "hijri_order_years": _HIJRI_SQL,
    "pushdown_filter_read": (
        "SELECT o_orderkey, o_totalprice, o_orderpriority FROM orders "
        "WHERE o_orderpriority = '1-URGENT' AND o_totalprice > 200000.0"
    ),
    "first_error_event": (
        "SELECT event_id, ts FROM events WHERE event_type = 'error' "
        "ORDER BY ts, event_id LIMIT 1"
    ),
    "dataset_split": (
        "SELECT CASE WHEN doc_id % 10 < 8 THEN 'train' "
        "WHEN doc_id % 10 = 8 THEN 'val' ELSE 'test' END AS split, "
        "COUNT(*) AS n_docs FROM documents GROUP BY 1"
    ),
    "union_sources": (
        "SELECT lang, COUNT(*) AS n_docs FROM ("
        "SELECT doc_id, lang FROM documents WHERE lang = 'en' "
        "UNION ALL SELECT doc_id, lang FROM documents WHERE lang = 'es') GROUP BY lang"
    ),
    "stratified_sample": (
        "SELECT doc_id, lang FROM documents WHERE "
        "(doc_id * 2654435761) % 4294967296 < "
        "CASE lang WHEN 'en' THEN CAST(0.5 * 4294967296 AS BIGINT) "
        "WHEN 'es' THEN CAST(0.2 * 4294967296 AS BIGINT) ELSE 0 END"
    ),
    "pack_sequences": (
        "WITH tc AS ("
        "SELECT doc_id, CAST(len(regexp_extract_all(text, "
        "'[A-Za-z]+|[0-9]+|[^ A-Za-z0-9]')) AS BIGINT) AS n_tokens FROM documents"
        "), pref AS ("
        "SELECT doc_id, n_tokens, CAST(COALESCE(SUM(n_tokens) OVER ("
        "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING"
        "), 0) AS BIGINT) AS start_tok FROM tc) "
        "SELECT doc_id, n_tokens, start_tok, start_tok // 512 AS chunk_id FROM pref"
    ),
    "decontaminate_docs": (
        # gram convention mirrors _NGRAM_JACCARD_SQL (single-space split,
        # short docs shingle to the whole text, per-doc DISTINCT), n = 4
        "WITH toks AS ("
        "SELECT doc_id, unnest(string_split(text, ' ')) AS w, "
        "generate_subscripts(string_split(text, ' '), 1) AS i FROM documents"
        "), grams AS ("
        "SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w || ' ' || d.w AS g "
        "FROM toks a "
        "JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1 "
        "JOIN toks c ON a.doc_id = c.doc_id AND c.i = a.i + 2 "
        "JOIN toks d ON a.doc_id = d.doc_id AND d.i = a.i + 3"
        "), short AS ("
        "SELECT doc_id, text AS g FROM documents "
        "WHERE len(string_split(text, ' ')) < 4"
        "), allg AS (SELECT * FROM grams UNION ALL SELECT * FROM short), "
        "evalg AS (SELECT DISTINCT g FROM allg WHERE doc_id % 97 = 0) "
        "SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_shared_grams "
        "FROM allg t JOIN evalg e ON t.g = e.g "
        "WHERE t.doc_id % 97 <> 0 GROUP BY t.doc_id"
    ),
    "pii_redact": (
        # same synthetic augmentation as q_pii_redact, then the PII_RULES
        # patterns verbatim (DuckDB's regexp engine is RE2, like Arrow's)
        "WITH aug AS ("
        "SELECT doc_id, text "
        "|| CASE WHEN doc_id % 3 = 0 THEN ' Contact user' || doc_id "
        "|| '@mail-example.com now.' ELSE '' END "
        "|| CASE WHEN doc_id % 5 = 0 THEN ' Call 555-' "
        "|| lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || ' today.' ELSE '' END "
        "|| CASE WHEN doc_id % 7 = 0 THEN ' Origin 10.' || (doc_id % 256) "
        "|| '.' || ((doc_id * 7) % 256) || '.1 logged.' ELSE '' END AS t "
        "FROM documents) "
        # sequential semantics: each rule counts on the text as the
        # previous rules left it (r1 = after email, r2 = after phone)
        ", r1 AS (SELECT doc_id, t, regexp_replace(t, "
        "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t1 "
        "FROM aug), r2 AS (SELECT doc_id, t, t1, regexp_replace(t1, "
        "'\\b555-[0-9]{4}\\b', '<PHONE>', 'g') AS t2 FROM r1) "
        "SELECT doc_id, "
        "CAST(len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) "
        "+ len(regexp_extract_all(t1, '\\b555-[0-9]{4}\\b')) "
        "+ len(regexp_extract_all(t2, '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b')) "
        "AS BIGINT) AS n_pii, "
        "regexp_replace(t2, "
        "'\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b', '<IP>', 'g') "
        "AS redacted_text FROM r2"
    ),
    "top3_docs_per_lang": (
        "SELECT lang, doc_id, n_chars, rk FROM ("
        "SELECT lang, doc_id, n_chars, CAST(row_number() OVER ("
        "PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rk "
        "FROM documents) WHERE rk <= 3"
    ),
    "token_df": (
        "SELECT token, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM ("
        "SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents) "
        "GROUP BY token HAVING COUNT(DISTINCT doc_id) >= 25"
    ),
    "error_blast_radius": (
        "SELECT i.event_id AS err_id, CAST(COUNT(*) AS BIGINT) AS n_nearby "
        "FROM events i JOIN events e "
        "ON e.ts >= i.ts - INTERVAL 5 MINUTE AND e.ts < i.ts + INTERVAL 5 MINUTE "
        "WHERE i.event_type = 'error' GROUP BY i.event_id"
    ),
    "epoch_shuffle": (
        # ((k*m1 mod 2^32 + seed) * m2) mod 2^32 — for keys below ~3.47e9
        # (k*m1 < 2^63, true of this corpus's ids) every intermediate fits
        # BIGINT, so SQL arithmetic mirrors the numpy wrap exactly
        "WITH sk AS (SELECT doc_id, "
        "CAST(((doc_id * 2654435761) % 4294967296 + 7) * 1597334677 % 4294967296 "
        "AS BIGINT) AS shuffle_key FROM documents) "
        "SELECT doc_id, shuffle_key, "
        "CAST(row_number() OVER (ORDER BY shuffle_key) - 1 AS BIGINT) AS pos FROM sk"
    ),
    "source_mixture": (
        # copies = floor(w) + (mix32(doc_id, 11) < floor(frac(w) * 2^32));
        # the chosen fracs (0.5, 0.25) are exact doubles, so FLOOR makes
        # the SQL and numpy comparisons bit-identical
        "WITH w AS (SELECT source, CAST(CASE CAST(substr(source, 4) AS BIGINT) % 4 "
        "WHEN 0 THEN 2.5 WHEN 1 THEN 1.0 WHEN 2 THEN 0.25 ELSE 0.0 END AS DOUBLE) AS wt "
        "FROM (SELECT DISTINCT source FROM documents)), "
        "c AS (SELECT d.doc_id, d.source, CAST(FLOOR(w.wt) AS BIGINT) "
        "+ CASE WHEN CAST(((d.doc_id * 2654435761) % 4294967296 + 11) "
        "* 1597334677 % 4294967296 AS DOUBLE) "
        "< FLOOR((w.wt - FLOOR(w.wt)) * 4294967296.0) THEN 1 ELSE 0 END AS copies "
        "FROM documents d JOIN w USING (source)) "
        "SELECT c.doc_id, c.source, CAST(u.copy_idx AS BIGINT) AS copy_idx "
        "FROM c, UNNEST(generate_series(0, c.copies - 1)) AS u(copy_idx)"
    ),
    # avg(ln) is float-order-sensitive, so the pytest oracle compares
    # with rtol, not the exact hash gate (query sits past the driver cap)
    "lm_perplexity": _LM_PPL_SQL,
    "ccnet_ppl_buckets": (
        # CCNet §3.3 head/middle/tail: per-language rank terciles over
        # the bigram-LM score.  Bucket indices are integer window math
        # over the rank of ROUND(avg_nll, 9) — rounding collapses the
        # ulp-level differences of cross-engine (and parallel-order)
        # float summation into identical ties, broken by doc_id on both
        # engines, so the label assignment is exact.
        f"WITH s AS ({_LM_PPL_SQL}), "
        "l AS (SELECT s.doc_id, d.lang, s.avg_nll FROM s "
        "JOIN documents d ON s.doc_id = d.doc_id), "
        "r AS (SELECT doc_id, lang, "
        "row_number() OVER (PARTITION BY lang ORDER BY round(avg_nll, 9), doc_id) - 1 AS rk, "
        "COUNT(*) OVER (PARTITION BY lang) AS n FROM l) "
        "SELECT doc_id, lang, CASE (3 * rk) // n WHEN 0 THEN 'head' "
        "WHEN 1 THEN 'middle' ELSE 'tail' END AS ppl_bucket FROM r"
    ),
    "training_chunks": (
        # the full layout composition: epoch shuffle (seed 7) -> exclusive
        # token prefix sum in shuffled order -> chunk = start // 1024 ->
        # in-order text assembly.  All-integer + string: exact mirror.
        "WITH sk AS (SELECT doc_id, text, "
        "CAST(((doc_id * 2654435761) % 4294967296 + 7) * 1597334677 % 4294967296 "
        "AS BIGINT) AS shuffle_key FROM documents), "
        "ord AS (SELECT doc_id, text, "
        "row_number() OVER (ORDER BY shuffle_key) - 1 AS pos FROM sk), "
        "tok AS (SELECT doc_id, text, pos, "
        "len(list_filter(regexp_split_to_array(lower(text), '\\s+'), t -> t <> '')) "
        "AS n_tokens FROM ord), "
        "cum AS (SELECT doc_id, text, pos, COALESCE(SUM(n_tokens) OVER "
        "(ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
        "AS start_tok FROM tok) "
        "SELECT CAST(start_tok // 1024 AS BIGINT) AS chunk_id, "
        "CAST(count(*) AS BIGINT) AS n_items, "
        "string_agg(text, chr(10) ORDER BY pos) AS chunk_text "
        "FROM cum GROUP BY 1"
    ),
    "dup_span_stats": (
        # ExactSubstr stats: 8-token windows (slice pos:pos+7 is 1-based
        # inclusive = 8 tokens), duplicated = content count >= 2 corpus-
        # wide, n_dup_tokens = distinct covered token positions.  Groups
        # by the window STRING; the op groups by its hash.
        "WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents), "
        "winpos AS (SELECT doc_id, t, unnest(generate_series(1, len(t) - 7)) AS pos "
        "FROM toks), "
        "grams AS (SELECT doc_id, pos, array_to_string(t[pos:pos+7], ' ') AS g "
        "FROM winpos), "
        "dupg AS (SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2), "
        "marked AS (SELECT doc_id, pos, (g IN (SELECT g FROM dupg)) AS is_dup "
        "FROM grams), "
        "cover AS (SELECT doc_id, COUNT(DISTINCT p) AS n_dup_tokens FROM "
        "(SELECT doc_id, unnest(generate_series(pos, pos + 7)) AS p "
        "FROM marked WHERE is_dup) GROUP BY doc_id), "
        "agg AS (SELECT doc_id, COUNT(*) AS n_windows, "
        "SUM(CASE WHEN is_dup THEN 1 ELSE 0 END) AS n_dup_windows "
        "FROM marked GROUP BY doc_id) "
        "SELECT d.doc_id, CAST(COALESCE(a.n_windows, 0) AS BIGINT) AS n_windows, "
        "CAST(COALESCE(a.n_dup_windows, 0) AS BIGINT) AS n_dup_windows, "
        "CAST(COALESCE(c.n_dup_tokens, 0) AS BIGINT) AS n_dup_tokens "
        "FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id "
        "LEFT JOIN cover c ON d.doc_id = c.doc_id"
    ),
    "strip_dup_spans": (
        # ExactSubstr cut: drop every token position covered by a
        # duplicated window, string_agg the survivors in order.
        "WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents), "
        "winpos AS (SELECT doc_id, t, unnest(generate_series(1, len(t) - 7)) AS pos "
        "FROM toks), "
        "grams AS (SELECT doc_id, pos, array_to_string(t[pos:pos+7], ' ') AS g "
        "FROM winpos), "
        "dupg AS (SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2), "
        "covered AS (SELECT DISTINCT doc_id, p FROM "
        "(SELECT doc_id, unnest(generate_series(pos, pos + 7)) AS p "
        "FROM grams WHERE g IN (SELECT g FROM dupg))), "
        "tokpos AS (SELECT doc_id, unnest(t) AS tok, generate_subscripts(t, 1) AS tp "
        "FROM toks), "
        "kept AS (SELECT tokpos.doc_id, tok, tp FROM tokpos "
        "LEFT JOIN covered ON covered.doc_id = tokpos.doc_id AND covered.p = tokpos.tp "
        "WHERE covered.p IS NULL), "
        "agg AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY tp) AS text "
        "FROM kept GROUP BY doc_id) "
        "SELECT d.doc_id, COALESCE(a.text, '') AS text "
        "FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id"
    ),
    "gopher_quality": (
        # Each signal mirrors the Arrow RE2 kernel pattern-for-pattern
        # (DuckDB's regex engine is RE2 too).  The pass flag compares the
        # UNROUNDED doubles, exactly like the Ray side.
        "WITH base AS (SELECT doc_id, text, "
        r"regexp_extract_all(text, '\S+') AS toks, "
        "string_split(text, chr(10)) AS lines FROM documents), "
        "w AS (SELECT doc_id, text, lines, "
        "CAST(len(toks) AS BIGINT) AS n_words, "
        "CAST(list_sum(list_transform(toks, t -> length(t))) AS DOUBLE) "
        "/ GREATEST(len(toks), 1) AS mwl, "
        r"CAST(len(regexp_extract_all(text, '#|\.\.\.|…')) AS DOUBLE) "
        "/ GREATEST(len(toks), 1) AS swr, "
        r"CAST(len(list_filter(toks, t -> regexp_matches(t, '\p{L}'))) AS DOUBLE) "
        "/ GREATEST(len(toks), 1) AS awf, "
        r"CAST(len(list_filter(lines, l -> regexp_matches(l, '^\s*[•‣▪*-]'))) "
        "AS DOUBLE) / GREATEST(len(lines), 1) AS blf, "
        r"CAST(len(list_filter(lines, l -> regexp_matches(l, '(\.\.\.|…)\s*$'))) "
        "AS DOUBLE) / GREATEST(len(lines), 1) AS elf, "
        "CAST("
        + " + ".join(
            rf"CASE WHEN regexp_matches(lower(text), '\b{w}\b') THEN 1 ELSE 0 END"
            for w in ("the", "be", "to", "of", "and", "that", "have", "with")
        )
        + " AS BIGINT) AS n_required_words, "
        # dup-line fraction over NON-EMPTY lines (repeated content lines,
        # not blank paragraph separators) — mirrors
        # add_repetition_stats(ignore_empty_lines=True) in the gate
        "CAST(len(list_filter(lines, l -> l <> '')) "
        "- len(list_distinct(list_filter(lines, l -> l <> ''))) AS DOUBLE) "
        "/ GREATEST(len(list_filter(lines, l -> l <> '')), 1) AS dlf "
        "FROM base) "
        "SELECT doc_id, n_words, ROUND(mwl, 6) AS mean_word_len_ws, "
        "ROUND(swr, 6) AS symbol_word_ratio, ROUND(blf, 6) AS bullet_line_frac, "
        "ROUND(elf, 6) AS ellipsis_line_frac, ROUND(awf, 6) AS alpha_word_frac, "
        "n_required_words, ROUND(dlf, 6) AS dup_line_frac, "
        "CAST(CASE WHEN n_words BETWEEN 50 AND 100000 AND mwl BETWEEN 3 AND 10 "
        "AND swr <= 0.1 AND blf <= 0.9 AND elf <= 0.3 AND awf >= 0.8 "
        "AND n_required_words >= 2 AND dlf <= 0.30 THEN 1 ELSE 0 END AS BIGINT) "
        "AS gopher_pass FROM w ORDER BY doc_id"
    ),
    "bm25_top10": (
        # BM25 (Lucene idf, (k1+1) numerator omitted on both sides) for
        # the fixed query terms; tokenization = string_split(lower, ' ')
        # with empties kept in dl, exactly the Ray projection.  The
        # per-doc term sum adds left-to-right in the same term order.
        "WITH tok AS (SELECT doc_id, "
        "CAST(len(string_split(lower(text), ' ')) AS DOUBLE) AS dl, "
        + ", ".join(
            f"CAST(len(list_filter(string_split(lower(text), ' '), "
            f"t -> t = '{term}')) AS DOUBLE) AS tf_{j}"
            for j, term in enumerate(("table", "scan", "merge", "window"))
        )
        + " FROM documents), "
        "stats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n, "
        "SUM(dl) / COUNT(*) AS avgdl, "
        + ", ".join(
            f"CAST(SUM(CASE WHEN tf_{j} > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_{j}"
            for j in range(4)
        )
        + " FROM tok), "
        "scored AS (SELECT doc_id, "
        + " + ".join(
            f"ln(1 + (n - df_{j} + 0.5) / (df_{j} + 0.5)) * tf_{j} "
            f"/ (tf_{j} + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))"
            for j in range(4)
        )
        + " AS score FROM tok, stats) "
        "SELECT doc_id, ROUND(score, 6) AS score FROM scored WHERE score > 0 "
        "ORDER BY score DESC, doc_id LIMIT 10"
    ),
    "c4_clean": (
        # C4 line rules mirrored pattern-for-pattern (RE2 on both engines):
        # terminal punctuation, >= 5 \S+ words, no "javascript" word;
        # page rules: >= 3 sentence-enders in the CLEANED text, no
        # "lorem ipsum" (casefolded), no "{".
        "WITH structured AS (SELECT doc_id, "
        + _C4_STRUCTURE_SQL
        + " AS text FROM documents), "
        "kept AS (SELECT doc_id, text, "
        "list_filter(string_split(text, chr(10)), l -> "
        "regexp_matches(l, '[.!?\"]\\s*$') "
        "AND len(regexp_extract_all(l, '\\S+')) >= 5 "
        "AND NOT regexp_matches(l, '(?i)\\bjavascript\\b')) AS klines "
        "FROM structured), "
        # array_to_string on an EMPTY list is NULL in DuckDB, not '' --
        # coalesce to match the Ray side's empty string
        "built AS (SELECT doc_id, text, "
        "COALESCE(array_to_string(klines, chr(10)), '') AS c4_text, "
        "CAST(len(klines) AS BIGINT) AS c4_n_lines_kept, "
        "CAST(len(regexp_extract_all(COALESCE(array_to_string(klines, "
        "chr(10)), ''), '[.!?]')) AS BIGINT) AS c4_n_sentences FROM kept) "
        "SELECT doc_id, c4_text, c4_n_lines_kept, c4_n_sentences, "
        "CAST(CASE WHEN c4_n_sentences >= 3 "
        "AND NOT contains(lower(text), 'lorem ipsum') "
        "AND NOT contains(text, '{') THEN 1 ELSE 0 END AS BIGINT) AS c4_pass "
        "FROM built ORDER BY doc_id"
    ),
    "dedup_doc_lines": (
        # same structure injection + planted repeat of line 0, then keep
        # each line's first occurrence per doc in original order
        "WITH structured AS (SELECT doc_id, "
        + _C4_STRUCTURE_SQL
        + " AS text FROM documents), "
        "planted AS (SELECT doc_id, text || chr(10) || "
        "string_split(text, chr(10))[1] || chr(10) || "
        "string_split(text, chr(10))[1] AS text FROM structured), "
        "exploded AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS line, "
        "generate_subscripts(string_split(text, chr(10)), 1) AS i FROM planted), "
        "firsts AS (SELECT doc_id, line, i, "
        "row_number() OVER (PARTITION BY doc_id, line ORDER BY i) AS rn FROM exploded) "
        "SELECT doc_id, string_agg(line, chr(10) ORDER BY i) AS clean_text, "
        "CAST(length(string_agg(line, chr(10) ORDER BY i)) AS BIGINT) AS n_clean_chars "
        "FROM firsts WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id"
    ),
    "token_budget_mix": (
        # the shuffle_hash arithmetic (seed 13) + one window function:
        # keep while the per-source running token total fits the budget
        # formula (srcN -> 200*(1+N%4); every fifth source excluded)
        "WITH t AS (SELECT doc_id, source, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens, "
        "CAST(((doc_id * 2654435761) % 4294967296 + 13) * 1597334677 "
        "% 4294967296 AS BIGINT) AS sk, "
        "CAST(substr(source, 4) AS INT) AS num FROM documents), "
        "c AS (SELECT doc_id, source, n_tokens, num, "
        "CAST(SUM(n_tokens) OVER (PARTITION BY source ORDER BY sk) AS BIGINT) "
        "AS cum_tokens FROM t) "
        "SELECT doc_id, source, n_tokens, cum_tokens FROM c "
        "WHERE cum_tokens <= CASE WHEN num % 5 = 0 THEN 0 "
        "ELSE 200 * (1 + num % 4) END ORDER BY doc_id"
    ),
    "event_gaps": (
        "WITH w AS (SELECT event_id, user_id, ts, "
        "LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts, "
        "COALESCE(LEAD(event_id) OVER (PARTITION BY user_id ORDER BY ts, event_id), -1) "
        "AS next_id FROM events) "
        "SELECT event_id, user_id, "
        "date_diff('microsecond', prev_ts, ts) AS gap_us, next_id "
        "FROM w WHERE prev_ts IS NOT NULL"
    ),
    "custdist_left_join": (
        # TPC-H Q13 shape: zero-order customers kept by the LEFT OUTER join
        "WITH per_cust AS (SELECT c_custkey, COUNT(o_orderkey) AS c_count "
        "FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey "
        "AND o_orderpriority <> '1-URGENT' GROUP BY c_custkey) "
        "SELECT c_count, COUNT(*) AS custdist FROM per_cust "
        "GROUP BY c_count ORDER BY custdist DESC, c_count DESC"
    ),
    "full_outer_orders": (
        "WITH c AS (SELECT c_custkey, c_nationkey FROM customer WHERE c_custkey % 3 = 0), "
        "o AS (SELECT o_custkey AS c_custkey, COUNT(*) AS n_ord FROM orders GROUP BY o_custkey) "
        "SELECT CASE WHEN c.c_nationkey IS NULL THEN 'order_only' "
        "WHEN o.n_ord IS NULL THEN 'cust_only' ELSE 'both' END AS side, "
        "COUNT(*) AS n_rows FROM c FULL OUTER JOIN o USING (c_custkey) GROUP BY side"
    ),
    "late_orders_by_priority": (
        # correlated EXISTS, rewritten Ray-side as max-per-key semi-join
        "SELECT o_orderpriority, COUNT(*) AS n_late FROM orders o "
        "WHERE EXISTS (SELECT 1 FROM lineitem l "
        "WHERE l.l_orderkey = o.o_orderkey "
        "AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY) "
        "GROUP BY o_orderpriority"
    ),
    "rolling_1h_value": (
        # pre-collapse ts peers (RANGE frames give peers identical window
        # values, so the collapse is lossless), then the RANGE window; the
        # window sum rides exact integer cents on both engines
        "WITH e AS (SELECT user_id, ts, COUNT(*) AS n_at_ts, "
        "SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS cents "
        "FROM events GROUP BY user_id, ts) "
        "SELECT user_id, ts, n_at_ts, "
        "CAST(SUM(n_at_ts) OVER w AS BIGINT) AS roll_n, "
        "CAST(SUM(cents) OVER w AS DOUBLE) / 100 AS roll_value "
        "FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts "
        "RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)"
    ),
    "documents_profile": (
        "SELECT 'doc_id' AS col, CAST(MIN(doc_id) AS VARCHAR) AS min_v, "
        "CAST(MAX(doc_id) AS VARCHAR) AS max_v, "
        "COUNT(*) - COUNT(doc_id) AS n_null, COUNT(*) AS n_rows FROM documents "
        "UNION ALL SELECT 'lang', MIN(lang), MAX(lang), "
        "COUNT(*) - COUNT(lang), COUNT(*) FROM documents "
        "UNION ALL SELECT 'n_chars', CAST(MIN(n_chars) AS VARCHAR), "
        "CAST(MAX(n_chars) AS VARCHAR), COUNT(*) - COUNT(n_chars), COUNT(*) "
        "FROM documents "
        "UNION ALL SELECT 'source', MIN(source), MAX(source), "
        "COUNT(*) - COUNT(source), COUNT(*) FROM documents"
    ),
    "orders_pivot": (
        "SELECT o_orderpriority, "
        "COUNT(CASE WHEN o_orderstatus = 'F' THEN 1 END) AS n_F, "
        "COUNT(CASE WHEN o_orderstatus = 'O' THEN 1 END) AS n_O, "
        "COUNT(CASE WHEN o_orderstatus = 'P' THEN 1 END) AS n_P "
        "FROM orders GROUP BY o_orderpriority"
    ),
    "custkey_set_ops": (
        "SELECT 'intersect' AS op, custkey FROM "
        "(SELECT o_custkey AS custkey FROM orders INTERSECT "
        "SELECT c_custkey FROM customer WHERE c_acctbal > 5000) "
        "UNION ALL "
        "SELECT 'except' AS op, custkey FROM "
        "(SELECT o_custkey AS custkey FROM orders EXCEPT "
        "SELECT c_custkey FROM customer WHERE c_acctbal > 5000)"
    ),
    "stratified_k_sample": (
        # the token_budget_mix shuffle-hash arithmetic (seed 13) + one
        # row_number window per language
        "WITH t AS (SELECT doc_id, lang, "
        "CAST(((doc_id * 2654435761) % 4294967296 + 13) * 1597334677 "
        "% 4294967296 AS BIGINT) AS sk FROM documents) "
        "SELECT doc_id, lang, sk, CAST(row_number() OVER "
        "(PARTITION BY lang ORDER BY sk) AS BIGINT) AS rk "
        "FROM t QUALIFY rk <= 3"
    ),
    "orders_rollup": (
        # CAST the sum: DuckDB's SUM(BIGINT) is HUGEINT, which pandas
        # renders as float64 — the value-hash gate compares strings
        "SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n_orders, "
        "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_cents "
        "FROM orders GROUP BY ROLLUP (o_orderstatus, o_orderpriority)"
    ),
    "knn_join_top5": (
        # batch top-k vector join; both engines rank on the unrounded
        # float64 cosine (the knn_cosine_top10 precedent), ties broken by
        # vec_id, display value rounded at 4dp
        "WITH l AS (SELECT vec_id AS q_id, CAST(embedding AS DOUBLE[]) AS e "
        "FROM embeddings WHERE vec_id < 20), "
        "r AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e "
        "FROM embeddings WHERE vec_id >= 20), "
        "s AS (SELECT l.q_id, r.vec_id, "
        "list_cosine_similarity(l.e, r.e) AS c FROM l CROSS JOIN r), "
        "rk AS (SELECT q_id, vec_id, c, ROW_NUMBER() OVER "
        "(PARTITION BY q_id ORDER BY c DESC, vec_id) AS rk FROM s) "
        "SELECT q_id, vec_id, ROUND(c, 4) AS cosine, CAST(rk AS BIGINT) AS rk "
        "FROM rk WHERE rk <= 5"
    ),
    "value_rank_in_type": (
        "SELECT event_id, event_type, value, "
        "CAST(RANK() OVER w AS BIGINT) AS rnk, "
        "CAST(DENSE_RANK() OVER w AS BIGINT) AS drnk "
        "FROM events WINDOW w AS (PARTITION BY event_type ORDER BY value DESC)"
    ),
    "temperature_mix": (
        # keep rate r_l = (n_min/n_l)^(1-alpha), alpha=0.5: counts are
        # exact integers, the division is one correctly-rounded double
        # op, and POWER is the same libm pow in numpy and DuckDB, so
        # floor(r * 2^32) is bit-identical; the draw is the shared
        # shuffle-hash arithmetic mirror (seed 13)
        "WITH c AS (SELECT source, COUNT(*) AS n FROM documents GROUP BY source), "
        "m AS (SELECT MIN(n) AS mn FROM c), "
        "r AS (SELECT c.source, FLOOR(POWER(CAST(m.mn AS DOUBLE) / "
        "CAST(c.n AS DOUBLE), 0.5) * 4294967296.0) AS thr FROM c, m) "
        "SELECT d.doc_id, d.source FROM documents d JOIN r USING (source) "
        "WHERE CAST(((d.doc_id * 2654435761) % 4294967296 + 13) "
        "* 1597334677 % 4294967296 AS DOUBLE) < r.thr"
    ),
    "url_quality_filter": (
        # synthesized URLs (5 deterministic classes per doc_id), then the
        # RefinedWeb gate: host (www-stripped) not blocklisted AND the
        # integer word score < 90; occurrences via the non-overlapping
        # (len - len(replace))/len(word) identity = pandas str.count
        "WITH u AS (SELECT doc_id, CASE doc_id % 5 "
        "WHEN 0 THEN 'https://site' || (doc_id // 5) || '.com/article/' || (doc_id // 5) "
        "WHEN 1 THEN 'https://freebet-casino.com/promo/' || (doc_id // 5) "
        "WHEN 2 THEN 'https://site' || (doc_id // 5) || '.com/free-download/' || (doc_id // 5) "
        "WHEN 3 THEN 'https://news' || (doc_id // 5) || '.com/casino-webcam/' || (doc_id // 5) "
        "ELSE 'https://blog' || (doc_id // 5) || '.net/torrent-free-fun/' || (doc_id // 5) "
        "END AS url FROM documents), "
        "s AS (SELECT doc_id, url, lower(url) AS lu, "
        "regexp_replace(regexp_extract(lower(url), '^https?://([^/:?#]+)', 1), "
        "'^www\\.', '') AS host FROM u), "
        "sc AS (SELECT doc_id, url, host, CAST("
        "(length(lu) - length(replace(lu, 'casino', ''))) / 6 * 50 + "
        "(length(lu) - length(replace(lu, 'webcam', ''))) / 6 * 50 + "
        "(length(lu) - length(replace(lu, 'torrent', ''))) / 7 * 40 + "
        "(length(lu) - length(replace(lu, 'sex', ''))) / 3 * 60 + "
        "(length(lu) - length(replace(lu, 'free', ''))) / 4 * 25 + "
        "(length(lu) - length(replace(lu, 'download', ''))) / 8 * 25 "
        "AS BIGINT) AS url_score FROM s) "
        "SELECT doc_id, url, url_score FROM sc "
        "WHERE url_score < 90 AND host NOT IN ('freebet-casino.com', 'spam-mall.net') "
        "AND NOT (host LIKE '%.freebet-casino.com' OR host LIKE '%.spam-mall.net')"
    ),
    "orders_cube": (
        "SELECT o_orderstatus, o_orderpriority, "
        "CAST(COUNT(o_totalprice) AS BIGINT) AS n_orders, "
        "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
        "AS total_price "
        "FROM orders GROUP BY CUBE (o_orderstatus, o_orderpriority)"
    ),
    "event_value_ntile": (
        "SELECT event_id, event_type, value, "
        "CAST(NTILE(4) OVER (PARTITION BY event_type ORDER BY value, event_id) "
        "AS BIGINT) AS nt FROM events"
    ),
    "first_last_event_per_user": (
        "WITH f AS (SELECT user_id, ts, event_id, value, ROW_NUMBER() OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS rn FROM events), "
        "l AS (SELECT user_id, ts, event_id, value, ROW_NUMBER() OVER "
        "(PARTITION BY user_id ORDER BY ts DESC, event_id) AS rn FROM events) "
        "SELECT user_id, 'first' AS which, ts, event_id, value FROM f WHERE rn = 1 "
        "UNION ALL "
        "SELECT user_id, 'last' AS which, ts, event_id, value FROM l WHERE rn = 1"
    ),
    "value_percentiles_by_type": (
        # the quantile_disc position rule: element at max(1, ceil(q*m));
        # ceil(q*m) is the same IEEE double multiply in numpy and DuckDB,
        # and selecting by POSITION makes value ties irrelevant
        "WITH r AS (SELECT event_type, value, "
        "ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY value) AS rn, "
        "COUNT(*) OVER (PARTITION BY event_type) AS m FROM events) "
        "SELECT event_type, q, value FROM r "
        "CROSS JOIN (SELECT UNNEST([0.25, 0.5, 0.9]) AS q) qs "
        "WHERE rn = GREATEST(1, CEIL(q * m))"
    ),
    "mode_priority_by_status": (
        "WITH c AS (SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n "
        "FROM orders GROUP BY 1, 2) "
        "SELECT o_orderstatus, o_orderpriority, CAST(n AS BIGINT) AS n FROM c "
        "QUALIFY ROW_NUMBER() OVER "
        "(PARTITION BY o_orderstatus ORDER BY n DESC, o_orderpriority) = 1"
    ),
    "orders_price_histogram": (
        # identical IEEE arithmetic: w = (500000-0)/20 = 25000.0 exactly;
        # LEAST absorbs the one-ulp top-edge case like the numpy side
        "SELECT o_orderstatus, "
        "CAST(LEAST(FLOOR((o_totalprice - 0.0) / 25000.0), 19) AS BIGINT) AS bin, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM orders "
        "WHERE o_totalprice >= 0.0 AND o_totalprice < 500000.0 "
        "GROUP BY 1, 2"
    ),
    "running_value_by_user": (
        # integer-cents running sum (associative), displayed /100.0
        "SELECT user_id, ts, event_id, "
        "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS DOUBLE) / 100 AS running_value "
        "FROM events"
    ),
    "rolling3_value_by_user": (
        "SELECT user_id, ts, event_id, "
        "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS DOUBLE) / 100 "
        "AS roll_value FROM events"
    ),
    "value_pctrank_in_type": (
        "SELECT event_id, event_type, value, "
        "PERCENT_RANK() OVER w AS prnk, CUME_DIST() OVER w AS cume "
        "FROM events WINDOW w AS (PARTITION BY event_type ORDER BY value)"
    ),
    "pctcont_value_by_type": (
        "SELECT event_type, 0.25 AS q, quantile_cont(value, 0.25) AS value "
        "FROM events GROUP BY event_type UNION ALL "
        "SELECT event_type, 0.5 AS q, quantile_cont(value, 0.5) AS value "
        "FROM events GROUP BY event_type UNION ALL "
        "SELECT event_type, 0.9 AS q, quantile_cont(value, 0.9) AS value "
        "FROM events GROUP BY event_type"
    ),
    "tpch_q3_shipping": (
        "WITH li AS (SELECT l_orderkey, "
        "CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT) "
        "AS rev_c FROM lineitem WHERE l_shipdate > TIMESTAMP '1995-03-15'), "
        "o AS (SELECT o_orderkey, o_orderdate, o_orderpriority FROM orders "
        "JOIN customer ON o_custkey = c_custkey "
        "WHERE c_mktsegment = 'BUILDING' AND o_orderdate < TIMESTAMP '1995-03-15') "
        "SELECT o_orderkey, o_orderdate, o_orderpriority, "
        "CAST(SUM(rev_c) AS DOUBLE) / 100 AS revenue "
        "FROM li JOIN o ON li.l_orderkey = o.o_orderkey "
        "GROUP BY o_orderkey, o_orderdate, o_orderpriority "
        "ORDER BY SUM(rev_c) DESC, o_orderdate, o_orderkey LIMIT 10"
    ),
    "tpch_q10_returned": (
        "WITH li AS (SELECT l_orderkey, "
        "CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT) "
        "AS rev_c FROM lineitem WHERE l_returnflag = 'R'), "
        "pc AS (SELECT o_custkey, SUM(rev_c) AS rc FROM li "
        "JOIN orders ON l_orderkey = o_orderkey GROUP BY o_custkey) "
        "SELECT c_custkey, c_name, CAST(rc AS DOUBLE) / 100 AS revenue "
        "FROM pc JOIN customer ON o_custkey = c_custkey "
        "ORDER BY rc DESC, c_custkey LIMIT 20"
    ),
    "value_stddev_by_type": (
        # integer-cents Σv/Σv² (half-away rounding = the op's _scaled_int),
        # final doubles repeat the op's IEEE sequence verbatim; v*v and
        # the sums CAST to BIGINT (DuckDB SUM(BIGINT) is HUGEINT)
        "WITH c AS (SELECT event_type, "
        "CAST(CASE WHEN value >= 0 THEN FLOOR(value * 100 + 0.5) "
        "ELSE -FLOOR(-value * 100 + 0.5) END AS BIGINT) AS v FROM events), "
        "a AS (SELECT event_type, COUNT(*) AS n, CAST(SUM(v) AS BIGINT) AS s, "
        "CAST(SUM(v * v) AS BIGINT) AS s2 FROM c GROUP BY event_type) "
        "SELECT event_type, n, "
        "(CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / 100.0 AS mean_v, "
        "CASE WHEN n > 1 THEN ((CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * "
        "CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0)) "
        "/ 10000.0 END AS var_v, "
        "CASE WHEN n > 1 THEN SQRT(((CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * "
        "CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0)) "
        "/ 10000.0) END AS stddev_v "
        "FROM a"
    ),
    "qty_discount_corr": (
        # scaled-integer cross-moment sums (x = quantity*100, y =
        # discount*100, both non-negative in TPC-H), identical final
        # double expression incl. the sqrt rounding
        "WITH c AS (SELECT l_returnflag, "
        "CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT) AS x, "
        "CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT) AS y FROM lineitem), "
        "a AS (SELECT l_returnflag, COUNT(*) AS n, "
        "CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy, "
        "CAST(SUM(x * y) AS BIGINT) AS sxy, CAST(SUM(x * x) AS BIGINT) AS sxx, "
        "CAST(SUM(y * y) AS BIGINT) AS syy FROM c GROUP BY l_returnflag) "
        "SELECT l_returnflag, n, "
        "CASE WHEN n > 1 THEN (CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * "
        "CAST(sy AS DOUBLE) / CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0) "
        "/ 10000.0 END AS covar_xy, "
        "CASE WHEN n > 1 AND SQRT(CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * "
        "CAST(sx AS DOUBLE) / CAST(n AS DOUBLE)) * SQRT(CAST(syy AS DOUBLE) - "
        "CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) / CAST(n AS DOUBLE)) > 0.0 "
        "THEN (CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE) "
        "/ CAST(n AS DOUBLE)) / (SQRT(CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) "
        "* CAST(sx AS DOUBLE) / CAST(n AS DOUBLE)) * SQRT(CAST(syy AS DOUBLE) "
        "- CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) / CAST(n AS DOUBLE))) "
        "END AS corr_xy "
        "FROM a"
    ),
    "user_event_seq": (
        "SELECT user_id, "
        "string_agg(event_type, ',' ORDER BY ts, event_id) AS types_seq "
        "FROM events GROUP BY user_id"
    ),
    "lineitem_unpivot": (
        "SELECT l_orderkey, l_linenumber, m AS measure, v AS val "
        "FROM (SELECT l_orderkey, l_linenumber, 'l_quantity' AS m, "
        "l_quantity AS v FROM lineitem UNION ALL "
        "SELECT l_orderkey, l_linenumber, 'l_extendedprice', l_extendedprice "
        "FROM lineitem UNION ALL "
        "SELECT l_orderkey, l_linenumber, 'l_discount', l_discount "
        "FROM lineitem UNION ALL "
        "SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem) "
        "WHERE l_orderkey < 3000"
    ),
    "orders_grouping_sets": (
        "SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n_orders, "
        "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) "
        "AS sum_cents FROM orders GROUP BY GROUPING SETS "
        "((o_orderstatus, o_orderpriority), (o_orderpriority), ())"
    ),
    "weighted_doc_sample": (
        # Efraimidis-Spirakis keys: u from the shared shuffle-hash
        # arithmetic (seed 7), POWER is the same libm pow in numpy and
        # DuckDB (the temperature_mix precedent), ties by doc_id
        "SELECT doc_id, n_chars FROM documents WHERE n_chars > 0 "
        "ORDER BY POWER((CAST(((doc_id * 2654435761) % 4294967296 + 7) "
        "* 1597334677 % 4294967296 AS DOUBLE) + 0.5) / 4294967296.0, "
        "1.0 / n_chars) DESC, doc_id LIMIT 100"
    ),
    "merge_upsert_orders": (
        # MERGE semantics as anti+union: unchanged base rows, the
        # updated 10%, the inserted 1% (same double arithmetic)
        "WITH upd AS (SELECT o_orderkey, o_totalprice + 1000.0 AS o_totalprice, "
        "'U' AS o_orderstatus FROM orders WHERE o_orderkey % 10 = 0), "
        "nw AS (SELECT o_orderkey + 10000000 AS o_orderkey, "
        "1.0 AS o_totalprice, 'N' AS o_orderstatus FROM orders "
        "WHERE o_orderkey % 100 = 0), "
        "base AS (SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders "
        "WHERE o_orderkey % 10 != 0) "
        "SELECT * FROM base UNION ALL SELECT * FROM upd UNION ALL "
        "SELECT * FROM nw"
    ),
    "clustered_range_scan": (
        "SELECT o_orderstatus, COUNT(*) AS n_orders, "
        "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) "
        "AS sum_cents FROM orders "
        "WHERE o_totalprice BETWEEN 100000.0 AND 150000.0 "
        "GROUP BY o_orderstatus"
    ),
    "centered_roll_value_by_user": (
        "SELECT user_id, ts, event_id, "
        "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS DOUBLE) / 100 "
        "AS roll_value FROM events"
    ),
    "embedding_unnest": (
        "SELECT vec_id, generate_subscripts(embedding, 1) AS pos, "
        "unnest(embedding) AS x FROM embeddings WHERE vec_id < 50"
    ),
    "tpch_q14_promo": (
        "WITH j AS (SELECT CAST(FLOOR(l_extendedprice * (1 - l_discount) "
        "* 100 + 0.5) AS BIGINT) AS rev_c, p_type FROM lineitem "
        "JOIN part ON l_partkey = p_partkey "
        "WHERE l_shipdate >= DATE '1996-03-01' AND l_shipdate < DATE '1996-04-01') "
        "SELECT 100.0 * CAST(SUM(CASE WHEN p_type = 'PROMO' THEN rev_c "
        "ELSE 0 END) AS DOUBLE) / CAST(SUM(rev_c) AS DOUBLE) AS promo_revenue "
        "FROM j"
    ),
    "tpch_q15_top_supplier": (
        "WITH r AS (SELECT l_suppkey, CAST(SUM(CAST(FLOOR(l_extendedprice "
        "* (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS rev_c "
        "FROM lineitem WHERE l_shipdate >= DATE '1996-01-01' "
        "AND l_shipdate < DATE '1996-04-01' GROUP BY l_suppkey) "
        "SELECT s_suppkey, s_name, CAST(rev_c AS DOUBLE) / 100 AS total_revenue "
        "FROM r JOIN supplier ON l_suppkey = s_suppkey "
        "WHERE rev_c = (SELECT MAX(rev_c) FROM r) ORDER BY s_suppkey"
    ),
    "tpch_q18_large_orders": (
        "WITH q AS (SELECT l_orderkey, CAST(SUM(CAST(FLOOR(l_quantity * 100 "
        "+ 0.5) AS BIGINT)) AS BIGINT) AS qty_c FROM lineitem GROUP BY l_orderkey) "
        "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, "
        "CAST(qty_c AS DOUBLE) / 100 AS sum_qty "
        "FROM q JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey WHERE qty_c > 30000 "
        "ORDER BY CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) DESC, "
        "o_orderdate, o_orderkey LIMIT 100"
    ),
    "value_share_in_type": (
        # integer-cents totals (exact on both engines), one double
        # division; plain FLOOR(v*100+0.5) mirrors _cents exactly —
        # including its half-UP behavior on negatives (every other
        # events-value oracle uses the same form)
        "SELECT event_id, event_type, "
        "CAST(CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS DOUBLE) / "
        "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) "
        "OVER (PARTITION BY event_type) AS DOUBLE) AS share "
        "FROM events"
    ),
    "clustered_merge_join_revenue": (
        "SELECT o_orderstatus, COUNT(*) AS n_items, "
        "CAST(SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT) "
        "AS sum_qty_c FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "GROUP BY o_orderstatus"
    ),
    "versioned_upsert_orders": (
        # identical final state to merge_upsert_orders (the change set
        # is the same; only the storage layout differs)
        "WITH upd AS (SELECT o_orderkey, o_totalprice + 1000.0 AS o_totalprice, "
        "'U' AS o_orderstatus FROM orders WHERE o_orderkey % 10 = 0), "
        "nw AS (SELECT o_orderkey + 10000000 AS o_orderkey, "
        "1.0 AS o_totalprice, 'N' AS o_orderstatus FROM orders "
        "WHERE o_orderkey % 100 = 0), "
        "base AS (SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders "
        "WHERE o_orderkey % 10 != 0) "
        "SELECT * FROM base UNION ALL SELECT * FROM upd UNION ALL "
        "SELECT * FROM nw"
    ),
    "url_prefix_scan": (
        # same url synthesis as url_quality_filter; prefix scan == LIKE
        # 'prefix%' (the prefix contains no LIKE wildcards)
        "WITH u AS (SELECT doc_id, CASE doc_id % 5 "
        "WHEN 0 THEN 'https://site' || (doc_id // 5) || '.com/article/' || (doc_id // 5) "
        "WHEN 1 THEN 'https://freebet-casino.com/promo/' || (doc_id // 5) "
        "WHEN 2 THEN 'https://site' || (doc_id // 5) || '.com/free-download/' || (doc_id // 5) "
        "WHEN 3 THEN 'https://news' || (doc_id // 5) || '.com/casino-webcam/' || (doc_id // 5) "
        "ELSE 'https://blog' || (doc_id // 5) || '.net/torrent-free-fun/' || (doc_id // 5) "
        "END AS url FROM documents) "
        "SELECT doc_id, url FROM u WHERE url LIKE 'https://site1%'"
    ),
    "weighted_lang_sample": (
        # per-language Efraimidis-Spirakis draws: the shared shuffle-hash
        # arithmetic (seed 11) + POWER keys, ROW_NUMBER within language
        "SELECT lang, doc_id, n_chars, CAST(rk AS BIGINT) AS rk FROM ("
        "SELECT lang, doc_id, n_chars, ROW_NUMBER() OVER ("
        "PARTITION BY lang ORDER BY POWER((CAST(((doc_id * 2654435761) "
        "% 4294967296 + 11) * 1597334677 % 4294967296 AS DOUBLE) + 0.5) "
        "/ 4294967296.0, 1.0 / n_chars) DESC, doc_id) AS rk "
        "FROM documents WHERE n_chars > 0) WHERE rk <= 20"
    ),
    "zorder_box_scan": (
        "SELECT l_returnflag, COUNT(*) AS n_items, "
        "CAST(SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT) "
        "AS sum_qty_c FROM lineitem "
        "WHERE l_extendedprice BETWEEN 20000.0 AND 40000.0 "
        "AND l_quantity BETWEEN 10.0 AND 30.0 "
        "GROUP BY l_returnflag"
    ),
    "tpch_q6_forecast": (
        # cents x whole-percent discount = exact integer sum; one final
        # double division on both engines
        "SELECT CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) * "
        "CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 10000.0 "
        "AS revenue FROM lineitem "
        "WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01' "
        "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
    ),
    "bloom_point_lookup": (
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice "
        "FROM orders WHERE o_orderkey IN (11, 222, 333, 444, 1055)"
    ),
    "orders_expectations": (
        "SELECT * FROM ("
        "SELECT 1 AS rule_idx, 'o_orderkey' AS \"column\", 'unique' AS rule, "
        "CAST(COUNT(*) - COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_violations, "
        "CAST((SELECT MIN(k) FROM (SELECT o_orderkey AS k FROM orders "
        "GROUP BY o_orderkey HAVING COUNT(*) > 1)) AS VARCHAR) AS example FROM orders "
        "UNION ALL "
        "SELECT 2, 'o_custkey', 'unique', "
        "CAST(COUNT(*) - COUNT(DISTINCT o_custkey) AS BIGINT), "
        "CAST((SELECT MIN(k) FROM (SELECT o_custkey AS k FROM orders "
        "GROUP BY o_custkey HAVING COUNT(*) > 1)) AS VARCHAR) FROM orders "
        "UNION ALL "
        "SELECT 3, 'o_custkey', 'in_range', "
        "CAST(COUNT(*) FILTER (o_custkey < 0 OR o_custkey > 100) AS BIGINT), "
        "CAST(MIN(CASE WHEN o_custkey < 0 OR o_custkey > 100 THEN o_custkey END) "
        "AS VARCHAR) FROM orders "
        "UNION ALL "
        "SELECT 4, 'o_orderpriority', 'in_set', "
        "CAST(COUNT(*) FILTER (o_orderpriority NOT IN "
        "('1-URGENT','2-HIGH','3-MEDIUM','4-NOT SPECIFIED')) AS BIGINT), "
        "MIN(CASE WHEN o_orderpriority NOT IN "
        "('1-URGENT','2-HIGH','3-MEDIUM','4-NOT SPECIFIED') "
        "THEN o_orderpriority END) FROM orders "
        "UNION ALL "
        "SELECT 5, 'o_orderstatus', 'matches', "
        "CAST(COUNT(*) FILTER (NOT regexp_full_match(o_orderstatus, '[OF]')) AS BIGINT), "
        "MIN(CASE WHEN NOT regexp_full_match(o_orderstatus, '[OF]') "
        "THEN o_orderstatus END) FROM orders "
        "UNION ALL "
        "SELECT 6, 'o_orderdate', 'not_null', "
        "CAST(COUNT(*) FILTER (o_orderdate IS NULL) AS BIGINT), NULL FROM orders"
        ") ORDER BY rule_idx"
    ),
    "crawl_snapshot_diff": (
        # the two snapshots are pure functions of the documents table; the
        # diff is the FULL OUTER JOIN with the unchanged class dropped
        "WITH o AS (SELECT doc_id, text FROM documents WHERE doc_id % 11 <> 3), "
        "n AS (SELECT doc_id, CASE WHEN doc_id % 7 = 0 THEN text || ' v2' "
        "ELSE text END AS text FROM documents WHERE doc_id % 13 <> 5) "
        "SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id, "
        "CASE WHEN o.doc_id IS NULL THEN 'added' "
        "WHEN n.doc_id IS NULL THEN 'removed' ELSE 'changed' END AS change "
        "FROM o FULL OUTER JOIN n ON o.doc_id = n.doc_id "
        "WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.text <> n.text"
    ),
    "host_links": (
        # the link-bearing pages are a pure function of doc_id (mirrored
        # from q_host_links); extraction = regexp_extract_all per quote
        # style, host classification per the op's resolution rules
        "WITH pages AS (SELECT "
        "'https://h' || CAST(doc_id % 13 AS VARCHAR) || '.example/p/' || CAST(doc_id AS VARCHAR) AS url, "
        "'<html><body><p>intro</p><a href=\"https://h' || CAST((doc_id*3+1) % 17 AS VARCHAR) || '.example/a\">x</a>' "
        "|| CASE WHEN doc_id % 4 = 0 THEN '<a href=''//h' || CAST((doc_id*5+2) % 17 AS VARCHAR) || '.example/b''>y</a>' ELSE '' END "
        "|| CASE WHEN doc_id % 3 = 0 THEN '<a href=\"/local/page\">z</a>' ELSE '' END "
        "|| CASE WHEN doc_id % 6 = 0 THEN '<a href=\"mailto:a@b.c\">m</a>' ELSE '' END "
        "|| '</body></html>' AS html FROM documents), "
        "links AS ("
        "SELECT url, unnest(regexp_extract_all(html, 'href\\s*=\\s*\"([^\"]*)\"', 1)) AS l FROM pages "
        "UNION ALL "
        "SELECT url, unnest(regexp_extract_all(html, 'href\\s*=\\s*''([^'']*)''', 1)) AS l FROM pages), "
        "cls AS (SELECT regexp_extract(url, '^[a-z]+://([^/:?#]+)', 1) AS src_host, "
        "CASE WHEN lower(l) LIKE 'http://%' OR lower(l) LIKE 'https://%' "
        "THEN regexp_extract(l, '^[a-z]+://([^/:?#]+)', 1) "
        "WHEN l LIKE '//%' THEN regexp_extract(l, '^//([^/:?#]+)', 1) "
        "WHEN lower(l) LIKE '#%' OR lower(l) LIKE 'mailto:%' OR lower(l) LIKE 'javascript:%' THEN NULL "
        "ELSE regexp_extract(url, '^[a-z]+://([^/:?#]+)', 1) END AS dst_host FROM links) "
        "SELECT src_host, dst_host, CAST(COUNT(*) AS BIGINT) AS n_links FROM cls "
        "WHERE dst_host IS NOT NULL AND dst_host <> '' GROUP BY src_host, dst_host"
    ),
    "tpch_q7_volume": (
        "WITH pair AS (SELECT n_nationkey, n_name FROM nation "
        "WHERE n_name IN ('NATION_3', 'NATION_7')), "
        "li AS (SELECT l_orderkey, l_suppkey, year(l_shipdate) AS l_year, "
        "CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT) AS rev_c "
        "FROM lineitem WHERE l_shipdate BETWEEN TIMESTAMP '1996-01-01' "
        "AND TIMESTAMP '1997-12-31'), "
        "o AS (SELECT o_orderkey, c_nationkey FROM orders "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN pair pc ON c_nationkey = pc.n_nationkey), "
        "s AS (SELECT s_suppkey, s_nationkey FROM supplier "
        "JOIN pair ps ON s_nationkey = ps.n_nationkey) "
        "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, l_year, "
        "CAST(SUM(rev_c) AS DOUBLE) / 100 AS revenue "
        "FROM li JOIN s ON li.l_suppkey = s.s_suppkey "
        "JOIN o ON li.l_orderkey = o.o_orderkey "
        "JOIN nation n1 ON s.s_nationkey = n1.n_nationkey "
        "JOIN nation n2 ON o.c_nationkey = n2.n_nationkey "
        "WHERE s.s_nationkey <> o.c_nationkey "
        "GROUP BY n1.n_name, n2.n_name, l_year"
    ),
    "tpch_q19_disjunctive": (
        "SELECT CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) "
        "AS BIGINT)) AS DOUBLE) / 100 AS revenue "
        "FROM lineitem JOIN part ON p_partkey = l_partkey WHERE "
        "(p_brand = 'Brand#12' AND p_size BETWEEN 10 AND 30 AND l_quantity BETWEEN 1 AND 20) "
        "OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 40 AND l_quantity BETWEEN 10 AND 35) "
        "OR (p_brand = 'Brand#15' AND p_size BETWEEN 5 AND 50 AND l_quantity BETWEEN 20 AND 50)"
    ),
    "tpch_q22_balance": (
        "WITH avgc AS (SELECT SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)) AS s, "
        "COUNT(*) AS n FROM customer WHERE c_acctbal > 0.0), "
        "rich AS (SELECT c_custkey, c_nationkey, "
        "CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS acct_c "
        "FROM customer, avgc WHERE CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) * n > s "
        "AND c_custkey NOT IN (SELECT o_custkey FROM orders "
        "WHERE o_orderdate >= TIMESTAMP '2000-01-01')) "
        "SELECT CAST(c_nationkey AS BIGINT) AS cntrycode, "
        "CAST(COUNT(*) AS BIGINT) AS numcust, "
        "CAST(SUM(acct_c) AS DOUBLE) / 100 AS totacctbal "
        "FROM rich GROUP BY c_nationkey"
    ),
    "doc_sliding_windows": (
        # whitespace tokens; starts every 20; 1-indexed inclusive
        # list_slice mirrors tokens[start : start+40]
        "WITH toks AS (SELECT doc_id, "
        "list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS ts "
        "FROM documents), "
        "w AS (SELECT doc_id, ts, u.s AS start FROM toks, "
        "UNNEST(generate_series(0, len(ts) - 1, 20)) AS u(s) WHERE len(ts) > 0) "
        "SELECT doc_id, CAST(start / 20 AS BIGINT) AS win_idx, "
        "array_to_string(list_slice(ts, start + 1, start + 40), ' ') AS win_text, "
        "CAST(LEAST(40, len(ts) - start) AS BIGINT) AS n_tokens FROM w"
    ),
    "script_ratio_docs": (
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars, "
        "ROUND(CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS DOUBLE) "
        "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END, 4) AS latin_ratio, "
        "ROUND(CAST(len(regexp_extract_all(text, '[0-9]')) AS DOUBLE) "
        "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END, 4) AS digit_ratio, "
        "ROUND(CAST(len(regexp_extract_all(text, '[\\x{0600}-\\x{06FF}]')) AS DOUBLE) "
        "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END, 4) AS arabic_ratio, "
        "ROUND(CAST(len(regexp_extract_all(text, '[\\x{0400}-\\x{04FF}]')) AS DOUBLE) "
        "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END, 4) AS cyrillic_ratio, "
        "ROUND(CAST(len(regexp_extract_all(text, '[\\x{4E00}-\\x{9FFF}]')) AS DOUBLE) "
        "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END, 4) AS cjk_ratio "
        "FROM documents"
    ),
    "orders_footer_stats": (
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_rows, "
        "MIN(o_totalprice) AS min_price, MAX(o_totalprice) AS max_price, "
        "MIN(o_orderdate) AS min_date, MAX(o_orderdate) AS max_date FROM orders"
    ),
    "event_key_skew": (
        "WITH c AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS count "
        "FROM events GROUP BY user_id), "
        "t AS (SELECT CAST(SUM(count) AS BIGINT) AS n_rows, "
        "CAST(COUNT(*) AS BIGINT) AS n_keys FROM c) "
        "SELECT user_id, count, n_rows, n_keys FROM c, t "
        "ORDER BY count DESC, user_id LIMIT 10"
    ),
    "card_pii_stats": (
        # identical RE2 candidate pattern; Luhn as a digit-list lambda —
        # doubling from the right excluding the check digit:
        # (length - i) % 2 = 1  <=>  even position from the right
        "WITH aug AS (SELECT doc_id, text || "
        "CASE WHEN doc_id % 5 = 0 THEN ' pay 4111-1111-1111-1111 today' ELSE '' END || "
        "CASE WHEN doc_id % 7 = 0 THEN ' ref 1234 5678 9012 3456 code' ELSE '' END AS text "
        "FROM documents), "
        "cand AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\b\\d(?:[ -]?\\d){12,18}\\b')) AS m FROM aug), "
        "d2 AS (SELECT doc_id, regexp_replace(m, '[ -]', '', 'g') AS ds FROM cand "
        "WHERE length(regexp_replace(m, '[ -]', '', 'g')) BETWEEN 13 AND 19), "
        "luhn AS (SELECT doc_id, ds, "
        "list_sum(list_transform(generate_series(1, length(ds)), i -> "
        "CASE WHEN (length(ds) - i) % 2 = 1 THEN "
        "CASE WHEN 2 * CAST(substr(ds, i, 1) AS INTEGER) > 9 "
        "THEN 2 * CAST(substr(ds, i, 1) AS INTEGER) - 9 "
        "ELSE 2 * CAST(substr(ds, i, 1) AS INTEGER) END "
        "ELSE CAST(substr(ds, i, 1) AS INTEGER) END)) AS s FROM d2) "
        "SELECT a.doc_id, CAST(COUNT(l.ds) AS BIGINT) AS n_card_candidates, "
        "CAST(COUNT(l.ds) FILTER (l.s % 10 = 0) AS BIGINT) AS n_cards "
        "FROM aug a LEFT JOIN luhn l USING (doc_id) GROUP BY a.doc_id"
    ),
    "robots_filtered_urls": (
        # the rule table below IS what parse_robots_rules extracts from the
        # fixture robots.txt; decision = longest prefix, Allow wins ties
        "WITH urls AS (SELECT doc_id, "
        "'h' || CAST(doc_id % 13 AS VARCHAR) || '.example' AS host, "
        "'/' || CASE doc_id % 4 WHEN 0 THEN 'private/' WHEN 1 THEN 'public/' "
        "WHEN 2 THEN 'tmp/x' ELSE '' END || 'p' || CAST(doc_id AS VARCHAR) AS path, "
        "'https://h' || CAST(doc_id % 13 AS VARCHAR) || '.example/' || "
        "CASE doc_id % 4 WHEN 0 THEN 'private/' WHEN 1 THEN 'public/' "
        "WHEN 2 THEN 'tmp/x' ELSE '' END || 'p' || CAST(doc_id AS VARCHAR) AS url "
        "FROM documents), "
        "rules AS (SELECT 'h' || CAST(k AS VARCHAR) || '.example' AS host, "
        "r.allow, r.prefix FROM "
        "(SELECT DISTINCT doc_id % 13 AS k FROM documents WHERE (doc_id % 13) % 2 = 0) h, "
        "(VALUES (FALSE, '/private/'), (TRUE, '/private/p1'), (FALSE, '/tmp')) "
        "r(allow, prefix)), "
        "m AS (SELECT u.doc_id, r.allow, length(r.prefix) AS l FROM urls u "
        "JOIN rules r ON u.host = r.host "
        "AND left(u.path, length(r.prefix)) = r.prefix), "
        "best AS (SELECT doc_id, allow FROM "
        "(SELECT doc_id, allow, ROW_NUMBER() OVER "
        "(PARTITION BY doc_id ORDER BY l DESC, allow DESC) AS rn FROM m) WHERE rn = 1) "
        "SELECT u.doc_id, u.url FROM urls u LEFT JOIN best b USING (doc_id) "
        "WHERE COALESCE(b.allow, TRUE)"
    ),
    "nfc_normalized_docs": (
        "SELECT doc_id, "
        "nfc_normalize(text || ' cafe' || chr(769) || ' u' || chr(776) || 'ber') AS text_nfc, "
        "CAST(length(nfc_normalize(text || ' cafe' || chr(769) || ' u' || chr(776) || 'ber')) AS BIGINT) "
        "AS n_chars_nfc FROM documents"
    ),
    "tpch_q5_local_supplier": (
        "WITH nr AS (SELECT n_nationkey, n_name FROM nation "
        "JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'EUROPE') "
        "SELECT n_name, CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) "
        "* 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 AS revenue "
        "FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN nr ON s_nationkey = nr.n_nationkey "
        "WHERE c_nationkey = s_nationkey "
        "AND o_orderdate >= TIMESTAMP '1996-01-01' "
        "AND o_orderdate < TIMESTAMP '1998-01-01' "
        "GROUP BY n_name"
    ),
    "tpch_q8_market_share": (
        "WITH nr AS (SELECT n_nationkey FROM nation "
        "JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'AMERICA'), "
        "rev AS (SELECT year(o_orderdate) AS o_year, s_nationkey, "
        "CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT) AS rev_c "
        "FROM lineitem JOIN part ON p_partkey = l_partkey AND p_type = 'PROMO' "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nr ON c_nationkey = nr.n_nationkey "
        "WHERE o_orderdate BETWEEN TIMESTAMP '1996-01-01' "
        "AND TIMESTAMP '1997-12-31') "
        "SELECT o_year, ROUND(CAST(SUM(CASE WHEN s_nationkey = 19 THEN rev_c "
        "ELSE 0 END) AS DOUBLE) / SUM(rev_c), 6) AS mkt_share "
        "FROM rev GROUP BY o_year"
    ),
    "tpch_q12_late_shipments": (
        "SELECT l_linestatus, "
        "CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') "
        "THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count, "
        "CAST(SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH') "
        "THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate > o_orderdate + INTERVAL 60 DAY "
        "GROUP BY l_linestatus"
    ),
    "tpch_q17_small_quantity": (
        "WITH li AS (SELECT l_partkey, "
        "CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT) AS q_c, "
        "CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS price_c "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "AND p_brand = 'Brand#11'), "
        "a AS (SELECT l_partkey, SUM(q_c) AS sq, COUNT(*) AS nq "
        "FROM li GROUP BY l_partkey) "
        "SELECT ROUND(CAST(SUM(price_c) AS DOUBLE) / 100 / 7, 4) AS avg_yearly "
        "FROM li JOIN a USING (l_partkey) WHERE li.q_c * 5 * a.nq < a.sq"
    ),
    "event_funnel": (
        "WITH s1 AS (SELECT user_id, MIN(ts) AS t1 FROM events "
        "WHERE event_type = 'view' GROUP BY user_id), "
        "s2 AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e "
        "JOIN s1 USING (user_id) WHERE e.event_type = 'click' "
        "AND e.ts > s1.t1 AND e.ts <= s1.t1 + INTERVAL 12 HOUR "
        "GROUP BY e.user_id), "
        "s3 AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e "
        "JOIN s2 USING (user_id) JOIN s1 USING (user_id) "
        "WHERE e.event_type = 'purchase' AND e.ts > s2.t2 "
        "AND e.ts <= s1.t1 + INTERVAL 12 HOUR GROUP BY e.user_id) "
        "SELECT s1.user_id, CAST(CASE WHEN t3 IS NOT NULL THEN 3 "
        "WHEN t2 IS NOT NULL THEN 2 ELSE 1 END AS BIGINT) AS stage, "
        "t1 AS t_first, COALESCE(t3, t2, t1) AS t_stage "
        "FROM s1 LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)"
    ),
    "tpch_q21_waiting_suppliers": (
        "WITH lo AS (SELECT l_orderkey, l_suppkey, "
        "(l_shipdate > o_orderdate + INTERVAL 90 DAY) AS late "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE o_orderstatus = 'F'), "
        "per AS (SELECT l_orderkey, COUNT(DISTINCT l_suppkey) AS ns, "
        "COUNT(DISTINCT CASE WHEN late THEN l_suppkey END) AS nl, "
        "MAX(CASE WHEN late THEN l_suppkey END) AS late_supp "
        "FROM lo GROUP BY l_orderkey) "
        "SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait "
        "FROM per JOIN supplier ON late_supp = s_suppkey "
        "WHERE ns > 1 AND nl = 1 GROUP BY s_name"
    ),
    # rows-only (no SQL equivalent): minhash_dup_pairs, simhash_signatures,
    # doc_fingerprints, langid_pred, knn_lsh_top10, extract_docs,
    # compression_ratio (no zlib in SQL; direct-zlib pytest equivalence),
    # c4_span_dedup (corpus-level 3-sentence-span dedup; naive-reference
    # pytest equality in TestC4SpanDedup), warc_extract_docs (container
    # format parse; parquet-route byte-identity asserted in-query)
}

# the indexed route is bit-identical to the full scan (TestBm25Index), so
# it carries the same oracle text
ORACLE_SQL["bm25_indexed_top10"] = ORACLE_SQL["bm25_top10"]
ORACLE_SQL["bm25_incremental_top10"] = ORACLE_SQL["bm25_top10"]

# Triangle count: the edge synthesis (ring + chords mod 1000) is integer
# arithmetic, so the canonical-distinct edge set and the three-way
# self-join mirror ops/graph.triangle_count exactly — for triangle
# {x<y<z} the join picks e1=(x,y), e2=(x,z), e3=(y,z) exactly once.
ORACLE_SQL["link_triangles"] = (
    "WITH links AS ("
    "SELECT doc_id % 1000 AS src, (doc_id + 1) % 1000 AS dst FROM documents "
    "UNION ALL "
    "SELECT doc_id % 1000, (doc_id + 2) % 1000 FROM documents"
    "), e AS ("
    "SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b "
    "FROM links WHERE src <> dst"
    ") "
    "SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles "
    "FROM e e1 "
    "JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b "
    "JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b"
)

# Per-node clustering coefficient: same edge synthesis as link_triangles,
# per-corner triangle counts from the identical three-way self-join, and
# the identical float expression 2.0*t/(d*(d-1.0)); ROUND 6 both sides.
ORACLE_SQL["link_clustering"] = (
    "WITH links AS ("
    "SELECT doc_id % 1000 AS src, (doc_id + 1) % 1000 AS dst FROM documents "
    "UNION ALL "
    "SELECT doc_id % 1000, (doc_id + 2) % 1000 FROM documents"
    "), e AS ("
    "SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b "
    "FROM links WHERE src <> dst"
    "), deg AS ("
    "SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM "
    "(SELECT a AS node FROM e UNION ALL SELECT b AS node FROM e) GROUP BY node"
    "), tri AS ("
    "SELECT e1.a AS x, e1.b AS y, e2.b AS z "
    "FROM e e1 "
    "JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b "
    "JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b"
    "), tc AS ("
    "SELECT node, CAST(COUNT(*) AS BIGINT) AS triangles FROM "
    "(SELECT x AS node FROM tri UNION ALL SELECT y FROM tri "
    "UNION ALL SELECT z FROM tri) GROUP BY node"
    ") "
    "SELECT d.node, d.deg, CAST(coalesce(tc.triangles, 0) AS BIGINT) AS triangles, "
    "ROUND(CASE WHEN d.deg >= 2 THEN "
    "2.0 * coalesce(tc.triangles, 0) / (d.deg * (d.deg - 1.0)) "
    "ELSE 0.0 END, 6) AS cc "
    "FROM deg d LEFT JOIN tc USING (node)"
)

# Token drift: identical tokenization (lower + single-space split, ''
# dropped) and the identical JS-term float expression in the identical
# operand order — each term is order-free, so the mirror is bit-exact;
# selection uses the full-precision term in both engines, ROUND 6 after.
ORACLE_SQL["token_drift_en_rest"] = (
    "WITH ta AS (SELECT unnest(string_split(lower(coalesce(text, '')), ' ')) AS token "
    "FROM documents WHERE lang = 'en'), "
    "tb AS (SELECT unnest(string_split(lower(coalesce(text, '')), ' ')) AS token "
    "FROM documents WHERE lang <> 'en'), "
    "ca AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n_a FROM ta "
    "WHERE token <> '' GROUP BY token), "
    "cb AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n_b FROM tb "
    "WHERE token <> '' GROUP BY token), "
    "tot AS (SELECT CAST((SELECT SUM(n_a) FROM ca) AS DOUBLE) AS sa, "
    "CAST((SELECT SUM(n_b) FROM cb) AS DOUBLE) AS sb), "
    "j AS (SELECT coalesce(ca.token, cb.token) AS token, "
    "coalesce(n_a, 0) AS n_a, coalesce(n_b, 0) AS n_b "
    "FROM ca FULL OUTER JOIN cb USING (token)), "
    "t AS (SELECT token, n_a, n_b, "
    "(CASE WHEN n_a > 0 THEN 0.5 * (n_a / sa) * "
    "log2((n_a / sa) / (0.5 * (n_a / sa + n_b / sb))) ELSE 0.0 END) + "
    "(CASE WHEN n_b > 0 THEN 0.5 * (n_b / sb) * "
    "log2((n_b / sb) / (0.5 * (n_a / sa + n_b / sb))) ELSE 0.0 END) AS term "
    "FROM j, tot) "
    "SELECT token, n_a, n_b, ROUND(term, 6) AS js_term "
    "FROM t ORDER BY term DESC, token LIMIT 20"
)

# JSONL roundtrip: the aggregate runs over write->read roundtripped data,
# the oracle over the original parquet — equality proves sink+source
# fidelity (length() and pandas str.len both count code points).
ORACLE_SQL["jsonl_docs"] = (
    "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(length(coalesce(text, ''))) AS BIGINT) AS sum_len "
    "FROM documents GROUP BY source"
)

# TFRecord roundtrip: same fidelity contract as jsonl_docs — the Ray
# aggregate runs over data that went through tf.train.Example encode +
# masked-CRC framing and back; the id sum exercises int64 features.
ORACLE_SQL["tfrecord_docs"] = (
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(length(coalesce(text, ''))) AS BIGINT) AS sum_len, "
    "CAST(SUM(doc_id) AS BIGINT) AS sum_ids "
    "FROM documents GROUP BY lang"
)

# Readability: identical RE2 counts (words/sentence-runs/vowel-group
# runs) and the published Flesch / Flesch-Kincaid expressions in the
# identical operand order; ROUND 4 both sides absorbs the division ULP.
ORACLE_SQL["readability_docs"] = (
    "WITH c AS (SELECT doc_id, "
    "CAST(len(regexp_extract_all(coalesce(text, ''), '\\S+')) AS BIGINT) AS n_words, "
    "CAST(len(regexp_extract_all(coalesce(text, ''), '[.!?]+')) AS BIGINT) AS n_sentences, "
    "CAST(len(regexp_extract_all(coalesce(text, ''), '[aeiouyAEIOUY]+')) AS BIGINT) AS n_syllables "
    "FROM documents) "
    "SELECT doc_id, n_words, n_sentences, n_syllables, "
    "ROUND(CASE WHEN n_words = 0 THEN 0.0 ELSE "
    "206.835 - 1.015 * (CAST(n_words AS DOUBLE) / GREATEST(n_sentences, 1)) "
    "- 84.6 * (CAST(n_syllables AS DOUBLE) / n_words) END, 4) AS flesch_ease, "
    "ROUND(CASE WHEN n_words = 0 THEN 0.0 ELSE "
    "0.39 * (CAST(n_words AS DOUBLE) / GREATEST(n_sentences, 1)) "
    "+ 11.8 * (CAST(n_syllables AS DOUBLE) / n_words) - 15.59 END, 4) AS fk_grade "
    "FROM c"
)

# Avro OCF roundtrip: same fidelity contract, grouped by source (the
# data crossed zigzag varints + deflate blocks + sync-verified framing).
ORACLE_SQL["avro_docs"] = (
    "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(length(coalesce(text, ''))) AS BIGINT) AS sum_len, "
    "CAST(SUM(doc_id) AS BIGINT) AS sum_ids "
    "FROM documents GROUP BY source"
)

# Main-content extraction: the synthesized page's chrome (3-word nav at
# link density ~1, footer likewise) always fails the block rule and the
# escaped one-paragraph content block roundtrips exactly, so kept-block
# count and main-text words are pure functions of the raw text.
ORACLE_SQL["main_content_docs"] = (
    "WITH w AS (SELECT doc_id, CAST(len(list_filter("
    "regexp_split_to_array(coalesce(text, ''), '\\s+'), x -> x <> '')) "
    "AS BIGINT) AS tw FROM documents) "
    "SELECT doc_id, "
    "CAST(CASE WHEN tw >= 10 THEN 1 ELSE 0 END AS BIGINT) AS n_blocks_kept, "
    "CAST(CASE WHEN tw >= 10 THEN tw ELSE 0 END AS BIGINT) AS main_words "
    "FROM w"
)

# Incremental aggregate maintenance: after both increments fold in, the
# persisted table must equal one plain GROUP BY over all events (cents
# mirror for the money sum).
ORACLE_SQL["incremental_event_stats"] = (
    "SELECT event_type, "
    "CAST(COUNT(event_id) AS BIGINT) AS n_events, "
    "CAST(MIN(event_id) AS BIGINT) AS min_event_id, "
    "CAST(MAX(event_id) AS BIGINT) AS max_event_id, "
    "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
    "AS sum_value "
    "FROM events GROUP BY event_type"
)

# CSV roundtrip: the aggregate runs over write->read roundtripped integer
# cents, the oracle over the original parquet.
ORACLE_SQL["csv_events"] = (
    "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events, "
    "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
    "AS sum_value "
    "FROM events GROUP BY event_type"
)

# Running max: selection window, exact at any dtype (cents kept for the
# shared display convention).
ORACLE_SQL["running_max_value_by_user"] = (
    "SELECT user_id, ts, event_id, "
    "CAST(MAX(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS UNBOUNDED PRECEDING) AS DOUBLE) / 100 AS peak_value "
    "FROM events"
)

# Anchor-text corpus: the link-bearing pages are a pure function of doc_id
# (mirrored from q_anchor_texts); extraction = TWO regexp_extract_all
# passes per quote style (href group 1, text group 2 — positional
# multi-unnest zips them), whitespace collapse with the explicit ASCII
# class both engines share, host classification per the op's rules.
_ANCHOR_PAGES = (
    "SELECT 'https://h' || CAST(doc_id % 13 AS VARCHAR) || '.example/p/' || CAST(doc_id AS VARCHAR) AS url, "
    "'<html><body><a href=\"https://h' || CAST((doc_id*3+1) % 17 AS VARCHAR) || '.example/a\">Guide to topic ' || CAST((doc_id*7) % 23 AS VARCHAR) || '</a>' "
    "|| CASE WHEN doc_id % 4 = 0 THEN '<a href=''//h' || CAST((doc_id*5+2) % 17 AS VARCHAR) || '.example/b''>  spaced' || chr(9) || ' anchor ' || CAST(doc_id % 5 AS VARCHAR) || '  </a>' ELSE '' END "
    "|| CASE WHEN doc_id % 3 = 0 THEN '<a href=\"/local/page\">local link</a>' ELSE '' END "
    "|| CASE WHEN doc_id % 6 = 0 THEN '<a href=\"mailto:a@b.c\">mail me</a>' ELSE '' END "
    "|| CASE WHEN doc_id % 5 = 0 THEN '<a href=\"https://h1.example/e\"></a>' ELSE '' END "
    "|| CASE WHEN doc_id % 7 = 0 THEN '<a href=\"https://h2.example/n\"><b>bold</b></a>' ELSE '' END "
    "|| '</body></html>' AS html FROM documents"
)
ORACLE_SQL["anchor_texts"] = (
    f"WITH pages AS ({_ANCHOR_PAGES}), "
    "m AS ("
    "SELECT url, "
    "unnest(regexp_extract_all(html, '<a\\s[^>]*?href\\s*=\\s*\"([^\"]*)\"[^>]*>([^<]*)</a>', 1)) AS href, "
    "unnest(regexp_extract_all(html, '<a\\s[^>]*?href\\s*=\\s*\"([^\"]*)\"[^>]*>([^<]*)</a>', 2)) AS txt "
    "FROM pages "
    "UNION ALL "
    "SELECT url, "
    "unnest(regexp_extract_all(html, '<a\\s[^>]*?href\\s*=\\s*''([^'']*)''[^>]*>([^<]*)</a>', 1)) AS href, "
    "unnest(regexp_extract_all(html, '<a\\s[^>]*?href\\s*=\\s*''([^'']*)''[^>]*>([^<]*)</a>', 2)) AS txt "
    "FROM pages), "
    "cls AS (SELECT "
    "CASE WHEN lower(href) LIKE 'http://%' OR lower(href) LIKE 'https://%' "
    "THEN regexp_extract(href, '^[a-zA-Z]+://([^/:?#]+)', 1) "
    "WHEN href LIKE '//%' THEN regexp_extract(href, '^//([^/:?#]+)', 1) "
    "WHEN lower(href) LIKE '#%' OR lower(href) LIKE 'mailto:%' OR lower(href) LIKE 'javascript:%' THEN NULL "
    "ELSE regexp_extract(url, '^[a-zA-Z]+://([^/:?#]+)', 1) END AS dst_host, "
    "trim(regexp_replace(txt, '[ \\t\\r\\n\\f\\v]+', ' ', 'g'), ' ') AS anchor "
    "FROM m) "
    "SELECT dst_host, anchor, CAST(COUNT(*) AS BIGINT) AS n_links FROM cls "
    "WHERE dst_host IS NOT NULL AND dst_host <> '' AND anchor <> '' "
    "GROUP BY dst_host, anchor"
)

# Top-k TF-IDF keywords: identical integer (tf, df, N) on both engines,
# identical score expression tf * ln(N / df) (the bm25 ln-bit-identity
# precedent), ordering total via the token tiebreak; output score ROUND 6.
ORACLE_SQL["doc_top_tfidf"] = (
    "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS token "
    "FROM documents), "
    "tf AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf FROM tok "
    "GROUP BY doc_id, token), "
    "df AS (SELECT token, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY token), "
    "n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents), "
    "s AS (SELECT tf.doc_id, tf.token, tf.tf, "
    "CAST(tf.tf AS DOUBLE) * ln(n.n / CAST(df.df AS DOUBLE)) AS score "
    "FROM tf JOIN df USING (token) CROSS JOIN n), "
    "r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id "
    "ORDER BY score DESC, token ASC) AS rk FROM s) "
    "SELECT doc_id, token, tf, ROUND(score, 6) AS tfidf, CAST(rk AS BIGINT) AS rk "
    "FROM r WHERE rk <= 3"
)

# Character entropy: identical integer per-(doc, codepoint) counts on both
# engines ('(?s).' matches one codepoint incl. newlines; utf-32 reinterpret
# on the Ray side), identical closed form H = log2(L) - sum(c*log2 c)/L,
# ROUND 4 absorbs the summation-order ULP.
ORACLE_SQL["char_entropy_docs"] = (
    "WITH c AS (SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), '(?s).')) AS ch "
    "FROM documents), "
    "f AS (SELECT doc_id, ch, CAST(COUNT(*) AS DOUBLE) AS cnt FROM c GROUP BY doc_id, ch), "
    "a AS (SELECT doc_id, SUM(cnt) AS n, CAST(COUNT(*) AS BIGINT) AS nd, "
    "SUM(cnt * log2(cnt)) AS s FROM f GROUP BY doc_id) "
    "SELECT d.doc_id, coalesce(a.nd, 0) AS n_distinct_chars, "
    "ROUND(CAST(CASE WHEN a.n > 0 THEN log2(a.n) - a.s / a.n ELSE 0 END AS DOUBLE), 4) "
    "AS char_entropy "
    "FROM documents d LEFT JOIN a USING (doc_id)"
)

# Arrow IPC roundtrip: the aggregate runs over write->read roundtripped
# data (with read-time projection), the oracle over the original parquet —
# equality proves sink+source fidelity (length() and pandas str.len both
# count code points).
ORACLE_SQL["ipc_docs"] = (
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(length(coalesce(text, ''))) AS BIGINT) AS sum_len "
    "FROM documents GROUP BY lang"
)

# ORC roundtrip: integer cents before the roundtrip (shared convention),
# min/max ids exercise ORC's integer streams end to end.
ORACLE_SQL["orc_events"] = (
    "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events, "
    "CAST(MIN(event_id) AS BIGINT) AS min_event_id, "
    "CAST(MAX(event_id) AS BIGINT) AS max_event_id, "
    "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
    "AS sum_value "
    "FROM events GROUP BY event_type"
)

# Bag-semantics set ops: INTERSECT ALL / EXCEPT ALL mirrored literally.
ORACLE_SQL["custkey_multiset_ops"] = (
    "WITH i AS (SELECT o_custkey AS custkey FROM orders "
    "INTERSECT ALL SELECT c_custkey FROM customer), "
    "e AS (SELECT o_custkey AS custkey FROM orders "
    "EXCEPT ALL SELECT c_custkey FROM customer) "
    "SELECT 'intersect' AS op, custkey FROM i "
    "UNION ALL SELECT 'except' AS op, custkey FROM e"
)

# The remaining TPC-H queries (Q2/Q4/Q9/Q11/Q16/Q20) — the fixture has no
# partsupp table, so BOTH engines derive the identical one from lineitem
# (min/max over exact integer cents are order-free; see
# _derived_partsupp).  Shared CTE, verbatim in each oracle:
_PS_CTE = (
    "ps AS (SELECT l_partkey AS ps_partkey, l_suppkey AS ps_suppkey, "
    "MIN(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS cost_c, "
    "MAX(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) AS avail_c "
    "FROM lineitem GROUP BY 1, 2)"
)

ORACLE_SQL["tpch_q2_min_cost_supplier"] = (
    "WITH " + _PS_CTE + ", "
    "es AS (SELECT s_suppkey, s_name, s_acctbal, n_name FROM supplier "
    "JOIN nation ON s_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'ASIA'), "
    "pp AS (SELECT p_partkey, p_brand FROM part "
    "WHERE p_size BETWEEN 10 AND 30 AND p_type = 'PROMO'), "
    "j AS (SELECT * FROM ps JOIN es ON ps_suppkey = s_suppkey "
    "JOIN pp ON ps_partkey = p_partkey), "
    "m AS (SELECT ps_partkey AS pk, MIN(cost_c) AS mc FROM j GROUP BY 1) "
    "SELECT s_acctbal, s_name, n_name, ps_partkey AS p_partkey, p_brand, "
    "CAST(cost_c AS DOUBLE) / 100 AS ps_supplycost "
    "FROM j JOIN m ON ps_partkey = pk AND cost_c = mc"
)

ORACLE_SQL["tpch_q4_order_priority"] = (
    "SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count "
    "FROM orders WHERE o_orderdate >= TIMESTAMP '1996-01-01' "
    "AND o_orderdate < TIMESTAMP '1996-04-01' "
    "AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey "
    "AND l_shipdate > o_orderdate + INTERVAL 30 DAY) "
    "GROUP BY o_orderpriority"
)

ORACLE_SQL["tpch_q9_product_profit"] = (
    "WITH " + _PS_CTE + ", "
    "li AS (SELECT l_partkey, l_suppkey, l_orderkey, "
    "CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT) AS rev_c, "
    "CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT) AS qty_c "
    "FROM lineitem JOIN part ON l_partkey = p_partkey "
    "WHERE p_name LIKE '%widget%') "
    "SELECT n_name AS nation, "
    "CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year, "
    "CAST(SUM(rev_c * 100 - cost_c * qty_c) AS DOUBLE) / 10000 AS profit "
    "FROM li JOIN orders ON l_orderkey = o_orderkey "
    "JOIN ps ON l_partkey = ps_partkey AND l_suppkey = ps_suppkey "
    "JOIN supplier ON l_suppkey = s_suppkey "
    "JOIN nation ON s_nationkey = n_nationkey GROUP BY 1, 2"
)

ORACLE_SQL["tpch_q11_important_stock"] = (
    "WITH " + _PS_CTE + ", "
    "es AS (SELECT s_suppkey FROM supplier "
    "JOIN nation ON s_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'ASIA'), "
    "v AS (SELECT ps_partkey, SUM(cost_c * avail_c) AS value_e4 "
    "FROM ps JOIN es ON ps_suppkey = s_suppkey GROUP BY 1), "
    "tot AS (SELECT SUM(value_e4) AS t, COUNT(*) AS c FROM v) "
    "SELECT ps_partkey, CAST(value_e4 AS DOUBLE) / 10000 AS stock_value "
    "FROM v, tot WHERE value_e4 * c > 2 * t"
)

ORACLE_SQL["tpch_q16_supplier_relationship"] = (
    "WITH " + _PS_CTE + " "
    "SELECT p_brand, p_type, p_size, "
    "CAST(COUNT(DISTINCT ps_suppkey) AS BIGINT) AS supplier_cnt "
    "FROM ps JOIN part ON ps_partkey = p_partkey "
    "WHERE p_brand <> 'Brand#5' AND p_type <> 'PROMO' "
    "AND p_size IN (1, 4, 7, 10, 13, 16, 19, 22, 25) "
    "AND ps_suppkey NOT IN "
    "(SELECT s_suppkey FROM supplier WHERE s_acctbal < 2000) "
    "GROUP BY 1, 2, 3"
)

ORACLE_SQL["tpch_q20_promotion_parts"] = (
    "WITH " + _PS_CTE + ", "
    "shipped AS (SELECT l_partkey, l_suppkey, "
    "SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) AS qty96_c "
    "FROM lineitem WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
    "AND l_shipdate < TIMESTAMP '1997-01-01' GROUP BY 1, 2) "
    "SELECT s_name, ps_partkey AS p_partkey FROM ps "
    "JOIN shipped ON ps_partkey = l_partkey AND ps_suppkey = l_suppkey "
    "JOIN part ON ps_partkey = p_partkey "
    "JOIN supplier ON ps_suppkey = s_suppkey "
    "WHERE p_name LIKE 'cold%' AND 2 * avail_c > 3 * qty96_c"
)

# Distributed model-eval family (ops/eval.py) over the scored orders.
# Shared binning CTE: bucket = clip(floor(score / width), 0, n-1) — the
# identical double ops both engines run (width = (hi-lo)/n exactly).
_EVAL_HIST_CTE = (
    "s AS (SELECT o_totalprice AS score, "
    "CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END AS y FROM orders), "
    "b AS (SELECT LEAST(GREATEST(CAST(FLOOR(score / 25000.0) AS BIGINT), 0), 19) "
    "AS bucket, y FROM s), "
    "h0 AS (SELECT bucket, CAST(SUM(y) AS BIGINT) AS n_pos, "
    "CAST(SUM(1 - y) AS BIGINT) AS n_neg FROM b GROUP BY 1), "
    "h AS (SELECT r.bucket, COALESCE(n_pos, 0) AS n_pos, "
    "COALESCE(n_neg, 0) AS n_neg "
    "FROM (SELECT CAST(range AS BIGINT) AS bucket FROM range(20)) r "
    "LEFT JOIN h0 ON r.bucket = h0.bucket), "
    "c AS (SELECT bucket, n_pos, n_neg, "
    "CAST(SUM(n_pos) OVER (ORDER BY bucket "
    "ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS BIGINT) AS tp, "
    "CAST(SUM(n_neg) OVER (ORDER BY bucket "
    "ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS BIGINT) AS fp, "
    "CAST(COALESCE(SUM(n_neg) OVER (ORDER BY bucket "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) "
    "AS cum_neg_below, "
    "CAST((SELECT SUM(y) FROM s) AS BIGINT) AS p_tot, "
    "CAST((SELECT SUM(1 - y) FROM s) AS BIGINT) AS n_tot FROM h)"
)

ORACLE_SQL["order_status_confusion"] = (
    "SELECT o_orderstatus, "
    "CASE WHEN o_totalprice >= 300000 THEN 'F' "
    "WHEN o_totalprice >= 150000 THEN 'O' ELSE 'P' END AS pred, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM orders GROUP BY 1, 2"
)

ORACLE_SQL["order_score_pr"] = (
    "WITH " + _EVAL_HIST_CTE + " "
    "SELECT bucket, bucket * 25000.0 AS threshold, tp, fp, "
    "p_tot - tp AS fn, "
    "CASE WHEN tp + fp > 0 THEN CAST(tp AS DOUBLE) / (tp + fp) "
    "ELSE 1.0 END AS precision, "
    "CAST(tp AS DOUBLE) / p_tot AS recall FROM c"
)

ORACLE_SQL["order_score_auc"] = (
    "WITH " + _EVAL_HIST_CTE + " "
    "SELECT CAST(SUM(n_pos * (2 * cum_neg_below + n_neg)) AS DOUBLE) / "
    "(2 * ANY_VALUE(p_tot) * ANY_VALUE(n_tot)) AS auc FROM c"
)

ORACLE_SQL["order_score_calibration"] = (
    "WITH s AS (SELECT o_totalprice / 500000.0 AS score, "
    "CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END AS y FROM orders), "
    "b AS (SELECT LEAST(GREATEST(CAST(FLOOR(score / 0.1) AS BIGINT), 0), 9) "
    "AS bucket, y, "
    "CAST(FLOOR(score * 1000000.0 + 0.5) AS BIGINT) AS score_u FROM s) "
    "SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(score_u) AS DOUBLE) / 1000000.0 / COUNT(*) AS mean_score, "
    "CAST(SUM(y) AS DOUBLE) / COUNT(*) AS frac_pos "
    "FROM b GROUP BY bucket"
)

# Pareto frontier: the NOT-EXISTS-dominator definition — duplicates of a
# frontier point survive (neither dominates the other), exactly the
# operator's tie rule.
ORACLE_SQL["pareto_orders"] = (
    "SELECT a.o_orderkey, a.o_totalprice, a.o_orderdate FROM orders a "
    "WHERE NOT EXISTS (SELECT 1 FROM orders b "
    "WHERE b.o_totalprice >= a.o_totalprice "
    "AND b.o_orderdate <= a.o_orderdate "
    "AND (b.o_totalprice > a.o_totalprice "
    "OR b.o_orderdate < a.o_orderdate))"
)

# Grouped OLS: the identical sufficient-statistic expression as
# ops/profile.grouped_linreg — exact int sums cast to double once, then
# the verbatim slope/intercept/r2 formulas (not DuckDB's regr_* functions,
# whose float accumulation order differs).
ORACLE_SQL["price_qty_linreg_by_flag"] = (
    "WITH s AS (SELECT l_returnflag, "
    "CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT) AS x, "
    "CAST(FLOOR(l_extendedprice * 1 + 0.5) AS BIGINT) AS y FROM lineitem), "
    "a AS (SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(x) AS DOUBLE) AS sx, CAST(SUM(y) AS DOUBLE) AS sy, "
    "CAST(SUM(x * y) AS DOUBLE) AS sxy, "
    "CAST(SUM(x * x) AS DOUBLE) AS sxx, "
    "CAST(SUM(y * y) AS DOUBLE) AS syy FROM s GROUP BY 1), "
    "b AS (SELECT l_returnflag, n, sx, sy, "
    "(sxy - sx * sy / n) AS num, (sxx - sx * sx / n) AS denx, "
    "(syy - sy * sy / n) AS deny FROM a) "
    "SELECT l_returnflag, n, "
    "CASE WHEN n > 1 AND denx > 0 THEN num / denx * (100.0 / 1.0) "
    "ELSE NULL END AS slope, "
    "CASE WHEN n > 1 AND denx > 0 THEN (sy - num / denx * sx) / n / 1.0 "
    "ELSE NULL END AS intercept, "
    "CASE WHEN n > 1 AND denx > 0 AND deny > 0 "
    "THEN num * num / (denx * deny) ELSE NULL END AS r2 FROM b"
)

# Markov transitions: LEAD window over non-null states per user; prob is
# the identical single division of exact int64 counts on both engines.
ORACLE_SQL["event_transition_probs"] = (
    "WITH e AS (SELECT user_id, event_type, ts, event_id FROM events "
    "WHERE event_type IS NOT NULL), "
    "s AS (SELECT event_type AS from_state, "
    "LEAD(event_type) OVER (PARTITION BY user_id "
    "ORDER BY ts, event_id) AS to_state FROM e), "
    "c AS (SELECT from_state, to_state, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM s WHERE to_state IS NOT NULL GROUP BY 1, 2) "
    "SELECT from_state, to_state, n, "
    "CAST(n AS DOUBLE) / CAST(SUM(n) OVER "
    "(PARTITION BY from_state) AS BIGINT) AS prob FROM c"
)

# Gaps-and-islands: the window-cummax mirror of coalesce_intervals —
# prev_max over (start, end)-ordered rows, island starts where
# start > prev_max, islands aggregated.  Exact integer microseconds.
ORACLE_SQL["user_activity_windows"] = (
    "WITH i AS (SELECT user_id, epoch_us(ts) AS s, "
    "epoch_us(ts) + 1800000000 AS e FROM events), "
    "w AS (SELECT user_id, s, e, MAX(e) OVER (PARTITION BY user_id "
    "ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
    "AS prev_max FROM i), "
    "f AS (SELECT user_id, s, e, CASE WHEN prev_max IS NULL "
    "OR s > prev_max THEN 1 ELSE 0 END AS ni FROM w), "
    "g AS (SELECT user_id, s, e, SUM(ni) OVER (PARTITION BY user_id "
    "ORDER BY s, e ROWS UNBOUNDED PRECEDING) AS island FROM f) "
    "SELECT user_id, MIN(s) AS start_us, MAX(e) AS end_us, "
    "CAST(COUNT(*) AS BIGINT) AS n_merged FROM g GROUP BY user_id, island"
)

# Grouped NULL fill: LAST_VALUE IGNORE NULLS over the identical masked
# column — values copied, never computed, so floats hash exactly.
ORACLE_SQL["event_value_fill"] = (
    "WITH v AS (SELECT user_id, ts, event_id, "
    "CASE WHEN event_id % 5 = 0 THEN NULL ELSE value END AS value "
    "FROM events) "
    "SELECT event_id, user_id, LAST_VALUE(value IGNORE NULLS) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS UNBOUNDED PRECEDING) AS value FROM v"
)

# BFS: recursive CTE enumerating (node, dist) pairs up to the same
# max_hops bound; MIN(dist) per node IS the breadth-first distance.
# Edge synthesis repeats q_link_bfs_reach's integer arithmetic.
ORACLE_SQL["link_bfs_reach"] = (
    "WITH RECURSIVE e AS ("
    "SELECT doc_id % 1000 AS src, (doc_id % 1000 + 1) % 1000 AS dst "
    "FROM documents UNION ALL "
    "SELECT doc_id % 1000, (doc_id % 1000 + 7) % 1000 FROM documents), "
    "d(node, dist) AS ("
    "SELECT CAST(0 AS BIGINT), CAST(0 AS BIGINT) "
    "UNION "
    "SELECT e.dst, d.dist + 1 FROM d JOIN e ON e.src = d.node "
    "WHERE d.dist < 30) "
    "SELECT node, MIN(dist) AS dist FROM d GROUP BY node"
)

# Cohort retention: first-day MIN per user, day offsets by integer floor
# division of epoch microseconds, exact COUNT(DISTINCT) cells.
ORACLE_SQL["user_retention_cohorts"] = (
    "WITH p AS (SELECT user_id, epoch_us(ts) // 86400000000 AS d "
    "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
    "f AS (SELECT user_id, MIN(d) AS cohort FROM p GROUP BY user_id) "
    'SELECT f.cohort, p.d - f.cohort AS "offset", '
    "CAST(COUNT(DISTINCT p.user_id) AS BIGINT) AS n_keys "
    "FROM p JOIN f ON p.user_id = f.user_id GROUP BY 1, 2"
)

# Pair co-occurrence: DISTINCT (basket, item) set semantics, canonical
# a<b self-join, and support/lift expressions repeated operand-for-
# operand by ops/assoc.pair_cooccurrence.
ORACLE_SQL["event_pair_lift"] = (
    "WITH b AS (SELECT DISTINCT user_id, event_type FROM events "
    "WHERE user_id IS NOT NULL AND event_type IS NOT NULL), "
    "n AS (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS nb FROM b), "
    "c AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS ni "
    "FROM b GROUP BY 1), "
    "p AS (SELECT x.event_type AS item_a, y.event_type AS item_b, "
    "CAST(COUNT(*) AS BIGINT) AS n_pair FROM b x JOIN b y "
    "ON x.user_id = y.user_id AND x.event_type < y.event_type "
    "GROUP BY 1, 2) "
    "SELECT p.item_a, p.item_b, p.n_pair, ca.ni AS n_a, cb.ni AS n_b, "
    "CAST(p.n_pair AS DOUBLE) / n.nb AS support, "
    "CAST(p.n_pair AS DOUBLE) * n.nb / (CAST(ca.ni AS DOUBLE) * cb.ni) "
    "AS lift FROM p CROSS JOIN n "
    "JOIN c ca ON ca.event_type = p.item_a "
    "JOIN c cb ON cb.event_type = p.item_b"
)

# PMI collocations: the corpus' oracled tokenization (lower + split on
# single spaces, empties dropped), adjacency over re-numbered kept
# tokens, and ln() over the identical double expression; ROUND 6 both
# sides absorbs the ln ULP.
ORACLE_SQL["doc_pmi_bigrams"] = (
    "WITH raw AS (SELECT doc_id, "
    "unnest(string_split(lower(text), ' ')) AS tok, "
    "generate_subscripts(string_split(lower(text), ' '), 1) AS pos "
    "FROM documents), "
    "t AS (SELECT doc_id, tok, pos FROM raw WHERE tok <> ''), "
    "s AS (SELECT doc_id, tok, ROW_NUMBER() OVER "
    "(PARTITION BY doc_id ORDER BY pos) AS rn FROM t), "
    "bg AS (SELECT a.tok AS x, b.tok AS y, "
    "CAST(COUNT(*) AS BIGINT) AS n_xy FROM s a JOIN s b "
    "ON a.doc_id = b.doc_id AND b.rn = a.rn + 1 GROUP BY 1, 2), "
    "u AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS n FROM t GROUP BY 1), "
    "tots AS (SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM t) AS n_tok, "
    "(SELECT CAST(COALESCE(SUM(n_xy), 0) AS BIGINT) FROM bg) AS n_big) "
    "SELECT bg.x, bg.y, bg.n_xy, ux.n AS n_x, uy.n AS n_y, "
    "ROUND(LN(CAST(bg.n_xy AS DOUBLE) * tots.n_tok * tots.n_tok / "
    "(CAST(tots.n_big AS DOUBLE) * ux.n * uy.n)), 6) AS pmi "
    "FROM bg CROSS JOIN tots "
    "JOIN u ux ON ux.tok = bg.x JOIN u uy ON uy.tok = bg.y "
    "WHERE bg.n_xy >= 25"
)

# Crawl-frontier politeness interleave: the two-level ROW_NUMBER window
# ops/frontier.politeness_order decomposes into exchanges + a prefix
# table; synthesis is pure integer/string arithmetic.
# Decay window: the LAG-chain mirror of grouped_decay_window — every
# numerator/denominator term COALESCEd exactly as the op masks it,
# additions left-associated in the same order.
ORACLE_SQL["event_value_decay"] = (
    "WITH w AS (SELECT user_id, event_id, value, "
    "LAG(value, 1) OVER win AS l1, LAG(value, 2) OVER win AS l2, "
    "LAG(value, 3) OVER win AS l3 FROM events "
    "WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id)) "
    "SELECT event_id, user_id, "
    "(COALESCE(1.0 * value, 0) + COALESCE(0.5 * l1, 0) "
    "+ COALESCE(0.25 * l2, 0) + COALESCE(0.125 * l3, 0)) / "
    "(CASE WHEN value IS NULL THEN 0 ELSE 1.0 END "
    "+ CASE WHEN l1 IS NULL THEN 0 ELSE 0.5 END "
    "+ CASE WHEN l2 IS NULL THEN 0 ELSE 0.25 END "
    "+ CASE WHEN l3 IS NULL THEN 0 ELSE 0.125 END) AS decay FROM w"
)

# Welch t-test: the value_stddev_by_type integer-cents moment mirror
# per (dow, variant), n>1 gate, then t / df each repeating the op's
# IEEE expression verbatim (va+vb recomputed in SQL = same operands,
# bit-identical).
ORACLE_SQL["value_ab_welch"] = (
    "WITH c AS (SELECT (epoch_us(ts) // 86400000000) % 7 AS dow, "
    "event_type, CAST(CASE WHEN value >= 0 THEN FLOOR(value * 100 + 0.5) "
    "ELSE -FLOOR(-value * 100 + 0.5) END AS BIGINT) AS v FROM events "
    "WHERE event_type IN ('click', 'view')), "
    "a AS (SELECT dow, event_type, COUNT(*) AS n, "
    "CAST(SUM(v) AS BIGINT) AS s, CAST(SUM(v * v) AS BIGINT) AS s2 "
    "FROM c GROUP BY 1, 2), "
    "e AS (SELECT dow, event_type, n, "
    "(CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / 100.0 AS mean_v, "
    "((CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / "
    "CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0)) / 10000.0 AS var_v "
    "FROM a WHERE n > 1), "
    "j AS (SELECT x.dow, x.n AS n_a, y.n AS n_b, "
    "x.mean_v AS mean_a, y.mean_v AS mean_b, "
    "x.var_v / CAST(x.n AS DOUBLE) AS va, "
    "y.var_v / CAST(y.n AS DOUBLE) AS vb, "
    "CAST(x.n AS DOUBLE) AS naf, CAST(y.n AS DOUBLE) AS nbf "
    "FROM e x JOIN e y ON x.dow = y.dow "
    "AND x.event_type = 'click' AND y.event_type = 'view') "
    "SELECT dow, CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b, "
    "mean_a, mean_b, (mean_a - mean_b) / SQRT(va + vb) AS t, "
    "((va + vb) * (va + vb)) / "
    "((va * va) / (naf - 1.0) + (vb * vb) / (nbf - 1.0)) AS df FROM j"
)

# MAD outliers: median and MAD both by the quantile_disc position rule
# (the value_percentiles_by_type mirror), deviations/threshold pure
# comparisons of identically-derived doubles.
ORACLE_SQL["value_outliers_by_type"] = (
    "WITH v AS (SELECT event_id, event_type, value FROM events "
    "WHERE event_type IS NOT NULL AND value IS NOT NULL), "
    "m AS (SELECT event_type, value AS med FROM ("
    "SELECT event_type, value, ROW_NUMBER() OVER "
    "(PARTITION BY event_type ORDER BY value) AS rn, "
    "COUNT(*) OVER (PARTITION BY event_type) AS m FROM v) "
    "WHERE rn = GREATEST(1, CEIL(0.5 * m))), "
    "d AS (SELECT v.event_id, v.event_type, v.value, m.med, "
    "ABS(v.value - m.med) AS dd FROM v JOIN m USING (event_type)), "
    "md AS (SELECT event_type, dd AS mad FROM ("
    "SELECT event_type, dd, ROW_NUMBER() OVER "
    "(PARTITION BY event_type ORDER BY dd) AS rn, "
    "COUNT(*) OVER (PARTITION BY event_type) AS m FROM d) "
    "WHERE rn = GREATEST(1, CEIL(0.5 * m))) "
    "SELECT d.event_id, d.event_type, d.value, d.med, md.mad "
    "FROM d JOIN md USING (event_type) WHERE d.dd > 1.8 * md.mad"
)

# Densified hourly series: generate_series over each key's [min, max]
# hour span LEFT JOIN the exact counts, COALESCE 0 — the
# densify_buckets contract verbatim.
ORACLE_SQL["events_hourly_dense"] = (
    "WITH c AS (SELECT event_type, epoch_us(ts) // 3600000000 AS b, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM events "
    "WHERE event_type IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2), "
    "r AS (SELECT event_type, MIN(b) AS mn, MAX(b) AS mx "
    "FROM c GROUP BY 1), "
    "g AS (SELECT event_type, UNNEST(generate_series(mn, mx)) AS b "
    "FROM r) "
    "SELECT g.event_type, g.b AS bucket, COALESCE(c.n, 0) AS n "
    "FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b"
)

# Z-score standardization: the value_stddev_by_type moments CTE joined
# back onto the raw rows; (value - mean)/stddev over identically-derived
# doubles, NULL-gated on stddev > 0.
ORACLE_SQL["value_zscore_by_type"] = (
    "WITH c AS (SELECT event_type, "
    "CAST(CASE WHEN value >= 0 THEN FLOOR(value * 100 + 0.5) "
    "ELSE -FLOOR(-value * 100 + 0.5) END AS BIGINT) AS v FROM events "
    "WHERE event_type IS NOT NULL AND value IS NOT NULL), "
    "a AS (SELECT event_type, COUNT(*) AS n, CAST(SUM(v) AS BIGINT) AS s, "
    "CAST(SUM(v * v) AS BIGINT) AS s2 FROM c GROUP BY event_type), "
    "e AS (SELECT event_type, "
    "(CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / 100.0 AS mean_v, "
    "CASE WHEN n > 1 THEN SQRT(((CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * "
    "CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0)) "
    "/ 10000.0) END AS sd FROM a) "
    "SELECT ev.event_id, ev.event_type, ev.value, "
    "CASE WHEN e.sd > 0 THEN (ev.value - e.mean_v) / e.sd END AS scaled "
    "FROM events ev JOIN e USING (event_type) "
    "WHERE ev.event_type IS NOT NULL AND ev.value IS NOT NULL"
)

# Golden record: FIRST(col ORDER BY ... DESC) FILTER non-null per
# column — pandas groupby().last() IS this survivorship rule; values
# copied, never computed.
ORACLE_SQL["user_golden_record"] = (
    "WITH m AS (SELECT user_id, ts, event_id, "
    "CASE WHEN event_id % 4 = 0 THEN NULL ELSE value END AS value, "
    "CASE WHEN event_id % 5 = 0 THEN NULL ELSE event_type END AS et "
    "FROM events) "
    "SELECT user_id, "
    "FIRST(value ORDER BY ts DESC, event_id DESC) "
    "FILTER (WHERE value IS NOT NULL) AS last_value, "
    "FIRST(et ORDER BY ts DESC, event_id DESC) "
    "FILTER (WHERE et IS NOT NULL) AS last_type, "
    "CAST(COUNT(*) AS BIGINT) AS n_rows FROM m GROUP BY user_id"
)

# Week-over-week deltas: LAG over the exact weekly counts; delta/pct
# repeat the repo's float expressions (nullable BIGINT deltas surface
# as doubles in both engines' frames).
ORACLE_SQL["events_wow_change"] = (
    "WITH c AS (SELECT event_type, epoch_us(ts) // 604800000000 AS week, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1, 2) "
    "SELECT event_type, week, n, "
    "n - LAG(n) OVER (PARTITION BY event_type ORDER BY week) AS delta, "
    "(CAST(n AS DOUBLE) - LAG(n) OVER "
    "(PARTITION BY event_type ORDER BY week)) / LAG(n) OVER "
    "(PARTITION BY event_type ORDER BY week) AS pct_change FROM c"
)

# Global ROW_NUMBER: the one-window mirror of global_row_number's
# range-exchange + prefix-offset decomposition.
ORACLE_SQL["orders_global_rownum"] = (
    "SELECT o_orderkey, o_totalprice, ROW_NUMBER() OVER "
    "(ORDER BY o_totalprice, o_orderkey) AS rn FROM orders"
)

ORACLE_SQL["crawl_frontier_order"] = (
    "WITH f AS (SELECT 'h' || CAST(doc_id % 37 AS VARCHAR) AS host, "
    "'u' || CAST(doc_id AS VARCHAR) AS url, n_chars AS pri "
    "FROM documents), "
    "r AS (SELECT host, url, pri, ROW_NUMBER() OVER "
    "(PARTITION BY host ORDER BY pri DESC, url) AS r FROM f) "
    "SELECT host, url, pri, r, "
    "ROW_NUMBER() OVER (ORDER BY r, host) AS pos FROM r"
)

# χ² token–class association: document-level DISTINCT containment per
# token on each side of the lang='en' split; χ² = N(ad−bc)²/(marginal
# product) — one IEEE expression over four exact BIGINT counts, operand
# order mirrored; zero-marginal tokens dropped on both sides.  Ties rank
# by ascending token.
ORACLE_SQL["token_chi2_en"] = (
    "WITH d AS (SELECT doc_id, (lang = 'en') AS inc, "
    "string_split(lower(text), ' ') AS toks FROM documents), "
    "t AS (SELECT doc_id, inc, unnest(toks) AS token FROM d), "
    "u AS (SELECT DISTINCT doc_id, inc, token FROM t WHERE token <> ''), "
    "c AS (SELECT token, "
    "CAST(SUM(CASE WHEN inc THEN 1 ELSE 0 END) AS BIGINT) AS df_in, "
    "CAST(SUM(CASE WHEN inc THEN 0 ELSE 1 END) AS BIGINT) AS df_out "
    "FROM u GROUP BY token), "
    "tot AS (SELECT CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) "
    "AS DOUBLE) AS n_class, "
    "CAST(SUM(CASE WHEN lang = 'en' THEN 0 ELSE 1 END) AS DOUBLE) "
    "AS n_rest FROM documents), "
    "s AS (SELECT token, df_in, df_out, "
    "(n_class + n_rest) * ((CAST(df_in AS DOUBLE) * (n_rest - "
    "CAST(df_out AS DOUBLE)) - CAST(df_out AS DOUBLE) * (n_class - "
    "CAST(df_in AS DOUBLE))) * (CAST(df_in AS DOUBLE) * (n_rest - "
    "CAST(df_out AS DOUBLE)) - CAST(df_out AS DOUBLE) * (n_class - "
    "CAST(df_in AS DOUBLE)))) / ((CAST(df_in AS DOUBLE) + "
    "CAST(df_out AS DOUBLE)) * ((n_class - CAST(df_in AS DOUBLE)) + "
    "(n_rest - CAST(df_out AS DOUBLE))) * (CAST(df_in AS DOUBLE) + "
    "(n_class - CAST(df_in AS DOUBLE))) * (CAST(df_out AS DOUBLE) + "
    "(n_rest - CAST(df_out AS DOUBLE)))) AS chi2, "
    "(CAST(df_in AS DOUBLE) + CAST(df_out AS DOUBLE)) * ((n_class - "
    "CAST(df_in AS DOUBLE)) + (n_rest - CAST(df_out AS DOUBLE))) * "
    "(CAST(df_in AS DOUBLE) + (n_class - CAST(df_in AS DOUBLE))) * "
    "(CAST(df_out AS DOUBLE) + (n_rest - CAST(df_out AS DOUBLE))) "
    "AS denom FROM c, tot) "
    "SELECT token, ROUND(chi2, 6) AS chi2, df_in, df_out FROM s "
    "WHERE denom > 0 ORDER BY chi2 DESC, token LIMIT 30"
)

# Lag-1 autocorrelation per user: LAG over the non-null (ts, event_id)
# value timeline, then the exact integer-cents moment CTE; the acf
# expression repeats grouped_autocorr's float operand order verbatim.
ORACLE_SQL["value_autocorr_by_user"] = (
    "WITH v AS (SELECT user_id, ts, event_id, "
    "CAST(CASE WHEN value >= 0 THEN FLOOR(value * 100 + 0.5) "
    "ELSE -FLOOR(-value * 100 + 0.5) END AS BIGINT) AS x FROM events "
    "WHERE value IS NOT NULL), "
    "p AS (SELECT user_id, x, LAG(x, 1) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id) AS y FROM v), "
    "q AS (SELECT user_id, x, y FROM p WHERE y IS NOT NULL), "
    "a AS (SELECT user_id, COUNT(*) AS n, CAST(SUM(x) AS BIGINT) AS sx, "
    "CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * y) AS BIGINT) AS sxy, "
    "CAST(SUM(x * x) AS BIGINT) AS sxx, "
    "CAST(SUM(y * y) AS BIGINT) AS syy FROM q GROUP BY user_id) "
    "SELECT user_id, CAST(n AS BIGINT) AS n_pairs, "
    "CASE WHEN n > 1 AND SQRT(CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * "
    "CAST(sx AS DOUBLE) / CAST(n AS DOUBLE)) * "
    "SQRT(CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) "
    "/ CAST(n AS DOUBLE)) > 0 THEN "
    "(CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE) "
    "/ CAST(n AS DOUBLE)) / "
    "(SQRT(CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE) "
    "/ CAST(n AS DOUBLE)) * "
    "SQRT(CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) "
    "/ CAST(n AS DOUBLE))) END AS acf FROM a"
)

# Multinomial NB language prediction: exact (label, token) occurrence
# counts + label doc/token totals + corpus V; per-(doc, class) score =
# ln(prior) + SUM(ln((COALESCE(n,0)+1.0)/denom) ORDER BY pos) — the term
# sum adds in token position order exactly as the Ray side's reduceat;
# argmax via ROW_NUMBER (score DESC, label ASC), score ROUND 2.
ORACLE_SQL["nb_lang_predict"] = (
    "WITH d AS (SELECT doc_id, lang, string_split(lower(text), ' ') "
    "AS toks FROM documents), "
    "t0 AS (SELECT doc_id, lang, unnest(toks) AS token, "
    "generate_subscripts(toks, 1) AS pos FROM d), "
    "t AS (SELECT * FROM t0 WHERE token <> ''), "
    "c AS (SELECT lang AS label, token, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM t GROUP BY 1, 2), "
    "lab AS (SELECT lang AS label, CAST(COUNT(*) AS BIGINT) AS n_docs "
    "FROM documents GROUP BY lang), "
    "ltok AS (SELECT lang AS label, CAST(COUNT(*) AS BIGINT) AS n_tokens "
    "FROM t GROUP BY lang), "
    "v AS (SELECT CAST(COUNT(DISTINCT token) AS DOUBLE) AS v FROM t), "
    "nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents), "
    "cls AS (SELECT lab.label, "
    "ln(CAST(lab.n_docs AS DOUBLE) / nn.n) AS ln_prior, "
    "CAST(COALESCE(ltok.n_tokens, 0) AS DOUBLE) + 1.0 * v.v AS denom "
    "FROM lab LEFT JOIN ltok USING (label) CROSS JOIN v CROSS JOIN nn), "
    "terms AS (SELECT t.doc_id, t.pos, cls.label, cls.ln_prior, "
    "ln((CAST(COALESCE(c.n, 0) AS DOUBLE) + 1.0) / cls.denom) AS term "
    "FROM t CROSS JOIN cls LEFT JOIN c "
    "ON c.label = cls.label AND c.token = t.token), "
    "agg AS (SELECT doc_id, label, ANY_VALUE(ln_prior) AS ln_prior, "
    "SUM(term ORDER BY pos) AS s FROM terms GROUP BY doc_id, label), "
    "sc AS (SELECT d2.doc_id, cls.label, "
    "cls.ln_prior + COALESCE(a.s, 0.0) AS score "
    "FROM (SELECT doc_id FROM documents) d2 CROSS JOIN cls "
    "LEFT JOIN agg a ON a.doc_id = d2.doc_id AND a.label = cls.label) "
    "SELECT doc_id, label AS pred, ROUND(score, 2) AS score FROM sc "
    "QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id "
    "ORDER BY score DESC, label) = 1"
)

# SQLite roundtrip: REAL is IEEE double and ts rides as epoch us, so the
# aggregate over roundtripped data must equal SQL over the original
# parquet exactly (the csv_events contract plus timestamp extrema).
ORACLE_SQL["sqlite_events"] = (
    "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events, "
    "MIN(ts) AS min_ts, MAX(ts) AS max_ts, "
    "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
    "AS sum_value "
    "FROM events GROUP BY event_type"
)

# Hive partition scan: the (event_type, dow) equality filter mirrored as
# a WHERE over the original parquet; dow arithmetic is engine-neutral
# integer epoch-us division.
ORACLE_SQL["events_hive_scan"] = (
    "SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events, "
    "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE) / 100 "
    "AS sum_value FROM events "
    "WHERE event_type = 'click' "
    "AND (epoch_us(ts) // 86400000000) % 7 = 3 "
    "GROUP BY user_id"
)

# CUSUM change point: window prefix sums over exact hourly counts; the
# deviation expression repeats cusum_changepoint's operand order; ties
# to the earliest bucket.
ORACLE_SQL["event_rate_changepoint"] = (
    "WITH c AS (SELECT event_type, epoch_us(ts) // 3600000000 AS b, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM events "
    "WHERE event_type IS NOT NULL AND ts IS NOT NULL GROUP BY 1, 2), "
    "o AS (SELECT event_type, b, "
    "ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY b) AS k, "
    "SUM(n) OVER (PARTITION BY event_type ORDER BY b) AS sk, "
    "COUNT(*) OVER (PARTITION BY event_type) AS kk, "
    "SUM(n) OVER (PARTITION BY event_type) AS tot FROM c), "
    "d AS (SELECT event_type, b, "
    "ABS(CAST(sk AS DOUBLE) - (CAST(k AS DOUBLE) / CAST(kk AS DOUBLE)) "
    "* CAST(tot AS DOUBLE)) AS cusum, kk, tot FROM o) "
    "SELECT event_type, b AS cp_bucket, cusum, "
    "CAST(kk AS BIGINT) AS n_buckets, CAST(tot AS BIGINT) AS total "
    "FROM d QUALIFY ROW_NUMBER() OVER (PARTITION BY event_type "
    "ORDER BY cusum DESC, b) = 1"
)

# Winsorization: both cutoffs by the quantile_disc position rule
# (the value_percentiles_by_type mirror); the clip is LEAST/GREATEST
# over copied data values.
ORACLE_SQL["value_winsor_by_type"] = (
    "WITH v AS (SELECT event_id, event_type, value FROM events "
    "WHERE event_type IS NOT NULL AND value IS NOT NULL), "
    "r AS (SELECT event_type, value, ROW_NUMBER() OVER "
    "(PARTITION BY event_type ORDER BY value) AS rn, "
    "COUNT(*) OVER (PARTITION BY event_type) AS m FROM v), "
    "lo AS (SELECT event_type, value AS lo FROM r "
    "WHERE rn = GREATEST(1, CEIL(0.05 * m))), "
    "hi AS (SELECT event_type, value AS hi FROM r "
    "WHERE rn = GREATEST(1, CEIL(0.95 * m))) "
    "SELECT v.event_id, v.event_type, v.value, "
    "LEAST(GREATEST(v.value, lo.lo), hi.hi) AS winsorized "
    "FROM v JOIN lo USING (event_type) JOIN hi USING (event_type)"
)

# Benford audit: leading digit of the exact integer cents via the
# decimal string; expected/term repeat benford_audit's expressions over
# exact counts; all nine digits via generate_series LEFT JOIN.
ORACLE_SQL["orders_benford"] = (
    "WITH c AS (SELECT CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) "
    "AS v FROM orders WHERE o_totalprice IS NOT NULL), "
    "o AS (SELECT CAST(substr(CAST(v AS VARCHAR), 1, 1) AS BIGINT) "
    "AS digit, CAST(COUNT(*) AS BIGINT) AS n FROM c WHERE v > 0 "
    "GROUP BY 1), "
    "g AS (SELECT UNNEST(generate_series(1, 9)) AS digit), "
    "j AS (SELECT g.digit, CAST(COALESCE(o.n, 0) AS BIGINT) AS n "
    "FROM g LEFT JOIN o USING (digit)), "
    "t AS (SELECT CAST(SUM(n) AS DOUBLE) AS total FROM j), "
    "e AS (SELECT j.digit, j.n, "
    "t.total * (LN(1.0 + 1.0 / CAST(j.digit AS DOUBLE)) / LN(10.0)) "
    "AS expected FROM j, t) "
    "SELECT digit, n, ROUND(expected, 6) AS expected, "
    "ROUND((CAST(n AS DOUBLE) - expected) * (CAST(n AS DOUBLE) - expected) "
    "/ expected, 6) AS chi2_term FROM e"
)

# Head-metadata extraction: page synthesis mirrored as string concat,
# then the extractor's primary patterns as regexp_extract group 1
# (RE2 both engines); the missing canonical fifth yields NULL.
ORACLE_SQL["html_meta_docs"] = (
    "WITH pages AS (SELECT doc_id, "
    "'<html><head><title>Doc ' || CAST(doc_id AS VARCHAR) || ': ' || "
    "COALESCE(lang, '') || '</title>' || "
    "'<meta name=\"description\" content=\"' || COALESCE(source, '') || "
    "'\">' || "
    "CASE WHEN doc_id % 5 = 0 THEN '' ELSE "
    "'<link rel=\"canonical\" href=\"https://example.org/' || "
    "COALESCE(lang, '') || '/' || CAST(doc_id AS VARCHAR) || '\">' END || "
    "'</head><body><p>' || replace(replace(replace("
    "substr(COALESCE(text, ''), 1, 200), '&', '&amp;'), '<', '&lt;'), "
    "'>', '&gt;') || '</p></body></html>' AS html FROM documents) "
    "SELECT doc_id, "
    "NULLIF(regexp_extract(html, '(?is)<title[^>]*>(.*?)</title>', 1), "
    "'') AS title, "
    "NULLIF(regexp_extract(html, "
    "'(?is)<meta\\s[^>]*name\\s*=\\s*[\"'']description[\"''][^>]*"
    "content\\s*=\\s*[\"'']([^\"'']*)[\"'']', 1), '') AS description, "
    "NULLIF(regexp_extract(html, "
    "'(?is)<link\\s[^>]*rel\\s*=\\s*[\"'']canonical[\"''][^>]*"
    "href\\s*=\\s*[\"'']([^\"'']*)[\"'']', 1), '') AS canonical "
    "FROM pages"
)

# Gini concentration: ROW_NUMBER rank x exact cents; the final double
# repeats grouped_gini's expression verbatim; zero-sum/single-row NULL.
ORACLE_SQL["value_gini_by_type"] = (
    "WITH c AS (SELECT event_type, "
    "CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS x FROM events "
    "WHERE event_type IS NOT NULL AND value IS NOT NULL), "
    "r AS (SELECT event_type, x, ROW_NUMBER() OVER "
    "(PARTITION BY event_type ORDER BY x) AS rn FROM c), "
    "a AS (SELECT event_type, COUNT(*) AS n, CAST(SUM(x) AS BIGINT) AS sx, "
    "CAST(SUM(rn * x) AS BIGINT) AS srx FROM r GROUP BY event_type) "
    "SELECT event_type, CAST(n AS BIGINT) AS n, "
    "CASE WHEN sx > 0 AND n > 1 THEN "
    "(2.0 * CAST(srx AS DOUBLE)) / (CAST(n AS DOUBLE) * CAST(sx AS DOUBLE)) "
    "- (CAST(n AS DOUBLE) + 1.0) / CAST(n AS DOUBLE) END AS gini FROM a"
)

# JSON field extraction: the RE2 kernel's contract must agree with real
# json_extract on the flat props shape — the oracle proves it on data.
ORACLE_SQL["event_props_stats"] = (
    "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(CAST(props->>'$.k' AS BIGINT)) AS BIGINT) AS sum_k, "
    "CAST(MIN(CAST(props->>'$.k' AS BIGINT)) AS BIGINT) AS min_k, "
    "CAST(MAX(CAST(props->>'$.k' AS BIGINT)) AS BIGINT) AS max_k "
    "FROM events GROUP BY event_type"
)

# Longest streak: the classic bucket − ROW_NUMBER island key over each
# user's distinct active days.
ORACLE_SQL["user_daily_streak"] = (
    "WITH d AS (SELECT DISTINCT user_id, "
    "epoch_us(ts) // 86400000000 AS b FROM events "
    "WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
    "r AS (SELECT user_id, b, b - ROW_NUMBER() OVER "
    "(PARTITION BY user_id ORDER BY b) AS grp FROM d), "
    "c AS (SELECT user_id, grp, COUNT(*) AS len FROM r GROUP BY 1, 2) "
    "SELECT user_id, CAST(MAX(len) AS BIGINT) AS max_streak FROM c "
    "GROUP BY user_id"
)

# Categorical entropy: exact (user, type) counts; term = -(n/N)·log2(n/N)
# summed ORDER BY type (matching reduceat's sequential order); ROUND 6
# absorbs the engines' grouped-accumulator ulps.
ORACLE_SQL["user_type_entropy"] = (
    "WITH c AS (SELECT user_id, event_type, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM events "
    "WHERE user_id IS NOT NULL AND event_type IS NOT NULL "
    "GROUP BY 1, 2), "
    "t AS (SELECT user_id, CAST(SUM(n) AS DOUBLE) AS tot, "
    "CAST(SUM(n) AS BIGINT) AS ni, CAST(COUNT(*) AS BIGINT) AS n_cats "
    "FROM c GROUP BY user_id), "
    "e AS (SELECT c.user_id, c.event_type, "
    "-((CAST(c.n AS DOUBLE) / t.tot) * "
    "log2(CAST(c.n AS DOUBLE) / t.tot)) AS term "
    "FROM c JOIN t USING (user_id)), "
    "h AS (SELECT user_id, SUM(term ORDER BY event_type) AS hh "
    "FROM e GROUP BY user_id) "
    "SELECT t.user_id, t.ni AS n, t.n_cats, ROUND(h.hh, 6) AS entropy "
    "FROM t JOIN h USING (user_id)"
)

# Containment pairs: the jaccard oracle's CTEs with the asymmetric
# finish — n/size per direction, either direction clearing 0.6.
ORACLE_SQL["containment_pairs"] = """
WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
), grams AS (
  SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS g
  FROM toks a
  JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  JOIN toks c ON a.doc_id = c.doc_id AND c.i = a.i + 2
), short AS (
  SELECT doc_id, text AS g FROM documents
  WHERE len(string_split(text, ' ')) < 3
), allg AS (
  SELECT * FROM grams UNION ALL SELECT * FROM short
), sizes AS (
  SELECT doc_id, COUNT(*) AS sz FROM allg GROUP BY doc_id
), posting AS (
  SELECT g FROM allg GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 1000
), inter AS (
  SELECT x.doc_id AS id_a, y.doc_id AS id_b, COUNT(*) AS n_inter
  FROM allg x
  JOIN posting p ON p.g = x.g
  JOIN allg y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY x.doc_id, y.doc_id
)
SELECT id_a, id_b,
       ROUND(CAST(n_inter AS DOUBLE) / sa.sz, 4) AS cont_a_in_b,
       ROUND(CAST(n_inter AS DOUBLE) / sb.sz, 4) AS cont_b_in_a
FROM inter
JOIN sizes sa ON sa.doc_id = id_a
JOIN sizes sb ON sb.doc_id = id_b
WHERE CAST(n_inter AS DOUBLE) / sa.sz >= 0.6
   OR CAST(n_inter AS DOUBLE) / sb.sz >= 0.6
"""

# Trimmed mean: the value_winsor_by_type percentile CTEs, then exact
# integer-cents sum over the in-range values and one mirrored division.
ORACLE_SQL["value_trimmed_mean_by_type"] = (
    "WITH v AS (SELECT event_type, value FROM events "
    "WHERE event_type IS NOT NULL AND value IS NOT NULL), "
    "r AS (SELECT event_type, value, ROW_NUMBER() OVER "
    "(PARTITION BY event_type ORDER BY value) AS rn, "
    "COUNT(*) OVER (PARTITION BY event_type) AS m FROM v), "
    "lo AS (SELECT event_type, value AS lo FROM r "
    "WHERE rn = GREATEST(1, CEIL(0.05 * m))), "
    "hi AS (SELECT event_type, value AS hi FROM r "
    "WHERE rn = GREATEST(1, CEIL(0.95 * m))), "
    "a AS (SELECT v.event_type, COUNT(*) AS n, "
    "CAST(SUM(CASE WHEN v.value >= lo.lo AND v.value <= hi.hi "
    "THEN 1 ELSE 0 END) AS BIGINT) AS n_kept, "
    "CAST(SUM(CASE WHEN v.value >= lo.lo AND v.value <= hi.hi THEN "
    "CAST(CASE WHEN v.value >= 0 THEN FLOOR(v.value * 100 + 0.5) "
    "ELSE -FLOOR(-v.value * 100 + 0.5) END AS BIGINT) ELSE 0 END) "
    "AS BIGINT) AS s "
    "FROM v JOIN lo USING (event_type) JOIN hi USING (event_type) "
    "GROUP BY v.event_type) "
    "SELECT event_type, CAST(n AS BIGINT) AS n, n_kept, "
    "CASE WHEN n_kept > 0 THEN (CAST(s AS DOUBLE) / "
    "CAST(n_kept AS DOUBLE)) / 100.0 END AS trimmed_mean FROM a"
)

# Key deletion: the surviving aggregate mirrors the anti-filter.
ORACLE_SQL["orders_delete_keys"] = (
    "SELECT o_orderstatus, CAST(COUNT(*) AS BIGINT) AS n_orders, "
    "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS DOUBLE) "
    "/ 100 AS sum_price FROM orders "
    "WHERE NOT (o_orderkey % 7 = 3) GROUP BY o_orderstatus"
)

# Cohen's kappa: exact confusion counts; p_o/p_e/kappa repeat
# cohens_kappa's expressions (class-product partials are exact ints —
# unordered SUM safe).
ORACLE_SQL["event_type_kappa"] = (
    "WITH m AS (SELECT event_type AS a, "
    "CASE WHEN event_id % 4 = 0 THEN 'click' ELSE event_type END AS b "
    "FROM events WHERE event_type IS NOT NULL), "
    "c AS (SELECT a, b, CAST(COUNT(*) AS BIGINT) AS n FROM m GROUP BY 1, 2), "
    "tot AS (SELECT CAST(SUM(n) AS DOUBLE) AS nn, "
    "CAST(SUM(n) AS BIGINT) AS ni FROM c), "
    "d AS (SELECT CAST(COALESCE(SUM(n) FILTER (WHERE a = b), 0) AS DOUBLE) "
    "AS diag FROM c), "
    "r AS (SELECT a AS cls, CAST(SUM(n) AS BIGINT) AS rn FROM c GROUP BY a), "
    "co AS (SELECT b AS cls, CAST(SUM(n) AS BIGINT) AS cn FROM c GROUP BY b), "
    "pe AS (SELECT CAST(SUM(CAST(COALESCE(r.rn, 0) * COALESCE(co.cn, 0) "
    "AS DOUBLE)) AS DOUBLE) AS pe_num "
    "FROM r FULL JOIN co USING (cls)) "
    "SELECT CASE WHEN pe.pe_num / (tot.nn * tot.nn) < 1.0 THEN "
    "(d.diag / tot.nn - pe.pe_num / (tot.nn * tot.nn)) "
    "/ (1.0 - pe.pe_num / (tot.nn * tot.nn)) END AS kappa, "
    "d.diag / tot.nn AS p_o, "
    "pe.pe_num / (tot.nn * tot.nn) AS p_e, tot.ni AS n "
    "FROM tot, d, pe"
)

# Heading sectioning: the sentinel arithmetic mirrored — open tags to
# chr(1), close tags to chr(2), split + strpos/substr (character
# semantics both engines); preamble keeps NULL heading.
ORACLE_SQL["doc_sections"] = (
    "WITH pages AS (SELECT doc_id, "
    "'<html><body><p>intro ' || replace(replace(replace("
    "substr(COALESCE(text, ''), 1, 80), '&', '&amp;'), '<', '&lt;'), "
    "'>', '&gt;') || '</p>' || "
    "'<h1>Title ' || CAST(doc_id AS VARCHAR) || ': ' || "
    "COALESCE(lang, '') || '</h1>' || "
    "'<p>main body for ' || CAST(doc_id AS VARCHAR) || '</p>' || "
    "CASE WHEN doc_id % 3 = 0 THEN "
    "'<h2 class=\"s\">Sub ' || CAST(doc_id AS VARCHAR) || "
    "'</h2><p>details here</p>' ELSE '' END || '</body></html>' AS html "
    "FROM documents), "
    "marked AS (SELECT doc_id, regexp_replace(regexp_replace(html, "
    "'(?is)<h[12][^>]*>', chr(1), 'g'), '(?is)</h[12]\\s*>', chr(2), 'g') "
    "AS m FROM pages), "
    "parts AS (SELECT doc_id, "
    "unnest(string_split(m, chr(1))) AS piece, "
    "generate_subscripts(string_split(m, chr(1)), 1) - 1 AS section_idx "
    "FROM marked), "
    "sp AS (SELECT doc_id, section_idx, piece, "
    "strpos(piece, chr(2)) AS cut FROM parts), "
    "sec AS (SELECT doc_id, section_idx, "
    "CASE WHEN section_idx = 0 THEN NULL "
    "WHEN cut > 0 THEN substr(piece, 1, cut - 1) ELSE piece END AS heading, "
    "CASE WHEN section_idx = 0 THEN piece "
    "WHEN cut > 0 THEN substr(piece, cut + 1) ELSE '' END AS body "
    "FROM sp) "
    "SELECT doc_id, section_idx, heading, "
    "CAST(length(body) AS BIGINT) AS sec_chars FROM sec "
    "WHERE NOT (section_idx = 0 AND NOT regexp_matches(body, '\\S'))"
)

# Mann–Kendall + Theil–Sen per user: i<j pairs in (ts, event_id) order
# via a self-join; S = SUM(SIGN(dv)) exact BIGINT, tie term from per-
# (user, value) counts, var = CAST(num AS DOUBLE)/18, z the verbatim
# CASE expression, sen = quantile_cont(slope, 0.5) (the verified
# two-products lerp) over single-division pair slopes on epoch_us.
ORACLE_SQL["value_trend_by_user"] = (
    "WITH e AS (SELECT user_id, ts, event_id, value FROM events "
    "WHERE value IS NOT NULL AND ts IS NOT NULL), "
    "p AS (SELECT a.user_id, "
    "CAST(SIGN(b.value - a.value) AS BIGINT) AS sgn, "
    "b.value - a.value AS dv, "
    "epoch_us(b.ts) - epoch_us(a.ts) AS dt "
    "FROM e a JOIN e b ON a.user_id = b.user_id "
    "AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))), "
    "s AS (SELECT user_id, CAST(SUM(sgn) AS BIGINT) AS s FROM p "
    "GROUP BY user_id), "
    "vc AS (SELECT user_id, value, CAST(COUNT(*) AS BIGINT) AS t "
    "FROM e GROUP BY user_id, value), "
    "tt AS (SELECT user_id, CAST(SUM(t * (t - 1) * (2 * t + 5)) AS BIGINT) "
    "AS tt FROM vc GROUP BY user_id), "
    "nn AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM e "
    "GROUP BY user_id), "
    "sen AS (SELECT user_id, quantile_cont(dv / CAST(dt AS DOUBLE), 0.5) "
    "AS sen_slope FROM p WHERE dt <> 0 GROUP BY user_id) "
    "SELECT nn.user_id, nn.n, s.s, "
    "CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - tt.tt AS DOUBLE) / 18 "
    "AS var_s, "
    "CASE WHEN CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - tt.tt AS DOUBLE) "
    "/ 18 > 0 THEN (CASE WHEN s.s > 0 THEN (CAST(s.s AS DOUBLE) - 1) / "
    "SQRT(CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - tt.tt AS DOUBLE) / 18) "
    "WHEN s.s < 0 THEN (CAST(s.s AS DOUBLE) + 1) / "
    "SQRT(CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - tt.tt AS DOUBLE) / 18) "
    "ELSE 0.0 END) END AS z, "
    "sen.sen_slope "
    "FROM nn JOIN s USING (user_id) JOIN tt USING (user_id) "
    "LEFT JOIN sen USING (user_id) WHERE nn.n >= 2"
)

# KS two-sample per dow: per-(dow, value) side counts, window cumsums in
# value order (cumulative counts include tied peers = right-continuous
# ECDF), exact integer numerator max, ONE final double division.
ORACLE_SQL["value_ks_by_dow"] = (
    "WITH e AS (SELECT (epoch_us(ts) // 86400000000) % 7 AS dow, "
    "event_type, value FROM events WHERE value IS NOT NULL "
    "AND ts IS NOT NULL "  # engine drops NaT rows; mirror it
    "AND event_type IN ('click', 'view')), "
    "c AS (SELECT dow, value, "
    "CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) "
    "AS da, "
    "CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) "
    "AS db FROM e GROUP BY dow, value), "
    "w AS (SELECT dow, value, "
    "SUM(da) OVER (PARTITION BY dow ORDER BY value) AS ca, "
    "SUM(db) OVER (PARTITION BY dow ORDER BY value) AS cb, "
    "SUM(da) OVER (PARTITION BY dow) AS na, "
    "SUM(db) OVER (PARTITION BY dow) AS nb FROM c) "
    "SELECT dow, CAST(MAX(na) AS BIGINT) AS n_a, "
    "CAST(MAX(nb) AS BIGINT) AS n_b, "
    "CAST(MAX(ABS(ca * nb - cb * na)) AS DOUBLE) / "
    "CAST(MAX(na) * MAX(nb) AS DOUBLE) AS d "
    "FROM w GROUP BY dow HAVING MAX(na) > 0 AND MAX(nb) > 0"
)

# Skew/kurt per event type: HUGEINT power sums mirror the engine's
# two-limb exact integers; A2/A3/A4 in HUGEINT, final doubles verbatim
# (POWER(x, 1.5) probe-verified bitwise against Python's **1.5).
ORACLE_SQL["value_skewkurt_by_type"] = (
    "WITH v AS (SELECT event_type, "
    "CAST(CASE WHEN value >= 0 THEN FLOOR(value * 10 + 0.5) "
    "ELSE -FLOOR(-value * 10 + 0.5) END AS HUGEINT) AS x FROM events "
    "WHERE value IS NOT NULL), "
    "a AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n, "
    "SUM(x) AS s1, SUM(x * x) AS s2, SUM(x * x * x) AS s3, "
    "SUM(x * x * x * x) AS s4 FROM v GROUP BY event_type), "
    "c AS (SELECT event_type, n, "
    "n * s2 - s1 * s1 AS a2, "
    "n * n * s3 - 3 * n * s2 * s1 + 2 * s1 * s1 * s1 AS a3, "
    "n * n * n * s4 - 4 * n * n * s3 * s1 + 6 * n * s2 * s1 * s1 "
    "- 3 * s1 * s1 * s1 * s1 AS a4 FROM a) "
    "SELECT event_type, CAST(n AS BIGINT) AS n, "
    "CASE WHEN n >= 2 AND a2 > 0 THEN "
    "CAST(a3 AS DOUBLE) / POWER(CAST(a2 AS DOUBLE), 1.5) END AS skew_v, "
    "CASE WHEN n >= 2 AND a2 > 0 THEN "
    "CAST(a4 AS DOUBLE) / (CAST(a2 AS DOUBLE) * CAST(a2 AS DOUBLE)) - 3.0 "
    "END AS kurt_v FROM c"
)

# Corpus BLEU: identical candidate construction (raw-token [1:10] prefix
# || ' ' || text), list-comprehension n-grams over the filtered lowered
# tokens, clipped LEAST sums per (doc, n), pooled exact integers, then
# the verbatim bp/geometric-mean expression (ln sum in n order).
_BLEU_TOK_CTE = (
    "WITH base AS (SELECT doc_id, text, "
    "array_to_string(string_split(text, ' ')[1:10], ' ') || ' ' || text "
    "AS cand FROM documents), "
    "tok AS (SELECT doc_id, "
    "list_filter(string_split(lower(cand), ' '), t -> t <> '') AS lc, "
    "list_filter(string_split(lower(text), ' '), t -> t <> '') AS lr "
    "FROM base), "
)
ORACLE_SQL["docs_bleu"] = (
    _BLEU_TOK_CTE +
    "ns AS (SELECT unnest(generate_series(1, 4)) AS n), "
    "cg AS (SELECT doc_id, n, unnest(list_transform("
    "generate_series(1, greatest(len(lc) - n + 1, 0)), "
    "i -> array_to_string(lc[i:i+n-1], ' '))) AS gram "
    "FROM tok CROSS JOIN ns), "
    "rg AS (SELECT doc_id, n, unnest(list_transform("
    "generate_series(1, greatest(len(lr) - n + 1, 0)), "
    "i -> array_to_string(lr[i:i+n-1], ' '))) AS gram "
    "FROM tok CROSS JOIN ns), "
    "cc AS (SELECT doc_id, n, gram, CAST(COUNT(*) AS BIGINT) AS c "
    "FROM cg GROUP BY doc_id, n, gram), "
    "rc AS (SELECT doc_id, n, gram, CAST(COUNT(*) AS BIGINT) AS c "
    "FROM rg GROUP BY doc_id, n, gram), "
    "mm AS (SELECT cc.n, CAST(SUM(LEAST(cc.c, rc.c)) AS BIGINT) AS m "
    "FROM cc JOIN rc ON cc.doc_id = rc.doc_id AND cc.n = rc.n "
    "AND cc.gram = rc.gram GROUP BY cc.n), "
    "tt AS (SELECT n, CAST(SUM(c) AS BIGINT) AS t FROM cc GROUP BY n), "
    "pv AS (SELECT tt.n, COALESCE(mm.m, 0) AS m, tt.t, "
    "CAST(COALESCE(mm.m, 0) AS DOUBLE) / CAST(tt.t AS DOUBLE) AS p "
    "FROM tt LEFT JOIN mm USING (n)), "
    "lens AS (SELECT CAST(SUM(len(lc)) AS BIGINT) AS c_len, "
    "CAST(SUM(len(lr)) AS BIGINT) AS r_len FROM tok), "
    "wide AS (SELECT MAX(CASE WHEN n = 1 THEN p END) AS p1, "
    "MAX(CASE WHEN n = 2 THEN p END) AS p2, "
    "MAX(CASE WHEN n = 3 THEN p END) AS p3, "
    "MAX(CASE WHEN n = 4 THEN p END) AS p4, "
    "CAST(MIN(m) AS BIGINT) AS min_m, CAST(COUNT(*) AS BIGINT) AS seen "
    "FROM pv) "
    "SELECT lens.c_len, lens.r_len, wide.p1, wide.p2, wide.p3, wide.p4, "
    "CASE WHEN lens.c_len >= lens.r_len THEN 1.0 "
    "ELSE EXP(1.0 - CAST(lens.r_len AS DOUBLE) / CAST(lens.c_len AS DOUBLE)) "
    "END AS bp, "
    "CASE WHEN wide.min_m = 0 OR wide.seen < 4 THEN 0.0 "
    "ELSE (CASE WHEN lens.c_len >= lens.r_len THEN 1.0 "
    "ELSE EXP(1.0 - CAST(lens.r_len AS DOUBLE) / CAST(lens.c_len AS DOUBLE)) "
    "END) * EXP((ln(wide.p1) + ln(wide.p2) + ln(wide.p3) + ln(wide.p4)) "
    "/ 4.0) END AS bleu "
    "FROM lens CROSS JOIN wide"
)

# Per-doc ROUGE-2: clipped bigram LEAST sums per doc, precision /
# recall / F1 verbatim float expressions (2*p*r/(p+r) left-assoc).
ORACLE_SQL["docs_rouge2"] = (
    _BLEU_TOK_CTE +
    "cg AS (SELECT doc_id, unnest(list_transform("
    "generate_series(1, greatest(len(lc) - 1, 0)), "
    "i -> array_to_string(lc[i:i+1], ' '))) AS gram FROM tok), "
    "rg AS (SELECT doc_id, unnest(list_transform("
    "generate_series(1, greatest(len(lr) - 1, 0)), "
    "i -> array_to_string(lr[i:i+1], ' '))) AS gram FROM tok), "
    "cc AS (SELECT doc_id, gram, CAST(COUNT(*) AS BIGINT) AS c "
    "FROM cg GROUP BY doc_id, gram), "
    "rc AS (SELECT doc_id, gram, CAST(COUNT(*) AS BIGINT) AS c "
    "FROM rg GROUP BY doc_id, gram), "
    "mm AS (SELECT cc.doc_id, CAST(SUM(LEAST(cc.c, rc.c)) AS BIGINT) AS m "
    "FROM cc JOIN rc ON cc.doc_id = rc.doc_id AND cc.gram = rc.gram "
    "GROUP BY cc.doc_id), "
    "tc AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS t FROM cc "
    "GROUP BY doc_id), "
    "tr AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS t FROM rc "
    "GROUP BY doc_id), "
    "j AS (SELECT tok.doc_id, COALESCE(mm.m, 0) AS matches, "
    "COALESCE(tc.t, 0) AS cand_n, COALESCE(tr.t, 0) AS ref_n "
    "FROM tok LEFT JOIN mm USING (doc_id) LEFT JOIN tc USING (doc_id) "
    "LEFT JOIN tr USING (doc_id)) "
    "SELECT doc_id, matches, cand_n, ref_n, "
    "CASE WHEN cand_n > 0 THEN CAST(matches AS DOUBLE) / "
    "CAST(cand_n AS DOUBLE) END AS rouge_p, "
    "CASE WHEN ref_n > 0 THEN CAST(matches AS DOUBLE) / "
    "CAST(ref_n AS DOUBLE) END AS rouge_r, "
    "CASE WHEN cand_n > 0 AND ref_n > 0 THEN "
    "CASE WHEN CAST(matches AS DOUBLE) / CAST(cand_n AS DOUBLE) + "
    "CAST(matches AS DOUBLE) / CAST(ref_n AS DOUBLE) > 0 THEN "
    "2.0 * (CAST(matches AS DOUBLE) / CAST(cand_n AS DOUBLE)) * "
    "(CAST(matches AS DOUBLE) / CAST(ref_n AS DOUBLE)) / "
    "(CAST(matches AS DOUBLE) / CAST(cand_n AS DOUBLE) + "
    "CAST(matches AS DOUBLE) / CAST(ref_n AS DOUBLE)) ELSE 0.0 END "
    "END AS rouge_f1 FROM j"
)

# Adamic–Adar / common neighbors: identical edge arithmetic, canonical
# LEAST/GREATEST dedup, wedge self-join with the same degree cap,
# NOT-EXISTS adjacency filter, ordered ln sum ROUND 6 (reduceat ulp).
ORACLE_SQL["link_adamic_adar"] = (
    "WITH ids AS (SELECT DISTINCT doc_id % 500 AS i FROM documents), "
    "raw AS (SELECT i AS s, (i * 7) % 500 AS d FROM ids "
    "UNION ALL SELECT i, (i + 1) % 500 FROM ids), "
    "e AS (SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b "
    "FROM raw WHERE s <> d), "
    "adj AS (SELECT a AS w, b AS x FROM e UNION ALL SELECT b, a FROM e), "
    "deg AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS dw FROM adj GROUP BY w), "
    "wed AS (SELECT a1.x AS u, a2.x AS v, a1.w, deg.dw "
    "FROM adj a1 JOIN adj a2 ON a1.w = a2.w AND a1.x < a2.x "
    "JOIN deg ON deg.w = a1.w WHERE deg.dw <= 10000), "
    "ne AS (SELECT u, v, w, dw FROM wed WHERE NOT EXISTS "
    "(SELECT 1 FROM e WHERE e.a = wed.u AND e.b = wed.v)) "
    "SELECT u, v, CAST(COUNT(*) AS BIGINT) AS cn, "
    "ROUND(SUM(1.0 / ln(CAST(dw AS DOUBLE)) ORDER BY w), 6) AS aa "
    "FROM ne GROUP BY u, v"
)

# RRF fusion: the bm25_top10 scoring CTE (same terms, same operand
# order) ranked to 20, a tf-count second ranker, full outer join,
# fixed coalesce expression, top 10 by (score DESC, doc_id).
ORACLE_SQL["hybrid_rrf_top10"] = (
    "WITH tok AS (SELECT doc_id, "
    "CAST(len(string_split(lower(text), ' ')) AS DOUBLE) AS dl, "
    + ", ".join(
        f"CAST(len(list_filter(string_split(lower(text), ' '), "
        f"t -> t = '{term}')) AS DOUBLE) AS tf_{j}"
        for j, term in enumerate(("table", "scan", "merge", "window"))
    )
    + " FROM documents), "
    "stats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n, "
    "SUM(dl) / COUNT(*) AS avgdl, "
    + ", ".join(
        f"CAST(SUM(CASE WHEN tf_{j} > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_{j}"
        for j in range(4)
    )
    + " FROM tok), "
    "scored AS (SELECT doc_id, "
    + " + ".join(
        f"ln(1 + (n - df_{j} + 0.5) / (df_{j} + 0.5)) * tf_{j} "
        f"/ (tf_{j} + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))"
        for j in range(4)
    )
    + " AS score FROM tok, stats), "
    "ra AS (SELECT doc_id, CAST(ROW_NUMBER() OVER "
    "(ORDER BY score DESC, doc_id) AS BIGINT) AS rka FROM scored "
    "WHERE score > 0 QUALIFY rka <= 20), "
    "tfr AS (SELECT doc_id, CAST(tf_0 + tf_1 + tf_2 + tf_3 AS BIGINT) "
    "AS tf FROM tok WHERE tf_0 + tf_1 + tf_2 + tf_3 > 0), "
    "rb AS (SELECT doc_id, CAST(ROW_NUMBER() OVER "
    "(ORDER BY tf DESC, doc_id) AS BIGINT) AS rkb FROM tfr "
    "QUALIFY rkb <= 20), "
    "f AS (SELECT COALESCE(ra.doc_id, rb.doc_id) AS doc_id, "
    "COALESCE(1.0 / (60 + ra.rka), 0.0) + "
    "COALESCE(1.0 / (60 + rb.rkb), 0.0) AS rrf_score, "
    "CAST(CASE WHEN ra.rka IS NULL THEN 0 ELSE 1 END AS BIGINT) AS in_a, "
    "CAST(CASE WHEN rb.rkb IS NULL THEN 0 ELSE 1 END AS BIGINT) AS in_b "
    "FROM ra FULL OUTER JOIN rb ON ra.doc_id = rb.doc_id) "
    "SELECT doc_id, rrf_score, in_a, in_b FROM f "
    "ORDER BY rrf_score DESC, doc_id LIMIT 10"
)

# XML roundtrip: the reduce over write->read data vs the original rows.
ORACLE_SQL["xml_docs"] = (
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(length(text)) AS BIGINT) AS sum_len, "
    "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
    "FROM documents GROUP BY lang"
)

# Foreign wiki-dump route: escaped render -> namespace-blind nested
# parse must restore text verbatim.
ORACLE_SQL["wiki_dump_docs"] = (
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_pages, "
    "CAST(SUM(length(text)) AS BIGINT) AS sum_len "
    "FROM documents GROUP BY lang"
)

# Zipf fit: identical tokenization and rank order, ordered ln sums,
# the verbatim OLS expressions, ROUND 6 (ordered-SUM reassociation).
ORACLE_SQL["token_zipf_fit"] = (
    "WITH t AS (SELECT unnest(string_split(lower(text), ' ')) AS token "
    "FROM documents), "
    "c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM t "
    "WHERE token <> '' GROUP BY token), "
    "r AS (SELECT token, n, CAST(ROW_NUMBER() OVER "
    "(ORDER BY n DESC, token) AS BIGINT) AS rk FROM c QUALIFY rk <= 500), "
    "s AS (SELECT CAST(COUNT(*) AS DOUBLE) AS kn, "
    "CAST(MAX(CASE WHEN rk = 1 THEN n END) AS BIGINT) AS n1, "
    "CAST(COUNT(*) AS BIGINT) AS k, "
    "SUM(ln(CAST(rk AS DOUBLE)) ORDER BY rk) AS sx, "
    "SUM(ln(CAST(n AS DOUBLE)) ORDER BY rk) AS sy, "
    "SUM(ln(CAST(rk AS DOUBLE)) * ln(CAST(n AS DOUBLE)) ORDER BY rk) AS sxy, "
    "SUM(ln(CAST(rk AS DOUBLE)) * ln(CAST(rk AS DOUBLE)) ORDER BY rk) AS sxx, "
    "SUM(ln(CAST(n AS DOUBLE)) * ln(CAST(n AS DOUBLE)) ORDER BY rk) AS syy "
    "FROM r) "
    "SELECT k, n1, "
    "ROUND((kn * sxy - sx * sy) / (kn * sxx - sx * sx), 6) AS slope, "
    "ROUND((sy - ((kn * sxy - sx * sy) / (kn * sxx - sx * sx)) * sx) / kn, 6) "
    "AS intercept, "
    "ROUND(((kn * sxy - sx * sy) * (kn * sxy - sx * sy)) / "
    "((kn * sxx - sx * sx) * (kn * syy - sy * sy)), 6) AS r2 FROM s"
)

# Jaro-Winkler pairs: DuckDB's native scorer is the oracle (our scorer
# fuzz-verified against it, 0/5000 beyond 1e-12); ROUND 6 both sides.
ORACLE_SQL["customer_jw_pairs"] = (
    "SELECT a.c_custkey AS custkey_a, a.c_name AS name_a, "
    "b.c_name AS name_b, "
    "ROUND(jaro_winkler_similarity(a.c_name, b.c_name), 6) AS jw "
    "FROM customer a JOIN customer b ON b.c_custkey = a.c_custkey + 1 "
    "WHERE a.c_custkey % 2 = 0"
)

# Heaps fit: renumbered local positions (the PMI adjacency rule), doc
# offsets by window cumsum, per-token MIN global first position,
# power-of-two checkpoints, ordered-sum OLS ROUND 6.
ORACLE_SQL["heaps_vocab_fit"] = (
    "WITH t0 AS (SELECT doc_id, "
    "unnest(string_split(lower(text), ' ')) AS token, "
    "generate_subscripts(string_split(lower(text), ' '), 1) AS pos "
    "FROM documents), "
    "t AS (SELECT doc_id, token, CAST(ROW_NUMBER() OVER "
    "(PARTITION BY doc_id ORDER BY pos) - 1 AS BIGINT) AS lpos "
    "FROM t0 WHERE token <> ''), "
    "dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM t "
    "GROUP BY doc_id), "
    "offs AS (SELECT doc_id, SUM(n) OVER (ORDER BY doc_id) - n AS start "
    "FROM dl), "
    "fp AS (SELECT token, MIN(o.start + t.lpos) AS fp FROM t "
    "JOIN offs o USING (doc_id) GROUP BY token), "
    "tot AS (SELECT CAST(SUM(n) AS BIGINT) AS nn FROM dl), "
    "js AS (SELECT unnest(generate_series(3, 62)) AS j), "
    "cp AS (SELECT CAST(power(2, j) AS BIGINT) AS n FROM js, tot "
    "WHERE CAST(power(2, j) AS BIGINT) < nn "
    "UNION SELECT nn FROM tot), "
    "v AS (SELECT cp.n, CAST((SELECT COUNT(*) FROM fp "
    "WHERE fp.fp < cp.n) AS BIGINT) AS v FROM cp), "
    "s AS (SELECT CAST(COUNT(*) AS DOUBLE) AS kn, "
    "SUM(ln(CAST(n AS DOUBLE)) ORDER BY n) AS sx, "
    "SUM(ln(CAST(v AS DOUBLE)) ORDER BY n) AS sy, "
    "SUM(ln(CAST(n AS DOUBLE)) * ln(CAST(v AS DOUBLE)) ORDER BY n) AS sxy, "
    "SUM(ln(CAST(n AS DOUBLE)) * ln(CAST(n AS DOUBLE)) ORDER BY n) AS sxx, "
    "SUM(ln(CAST(v AS DOUBLE)) * ln(CAST(v AS DOUBLE)) ORDER BY n) AS syy "
    "FROM v WHERE v > 0) "
    "SELECT tot.nn AS n_total, "
    "(SELECT v FROM v WHERE v.n = tot.nn) AS v_total, "
    "ROUND((kn * sxy - sx * sy) / (kn * sxx - sx * sx), 6) AS beta, "
    "ROUND((sy - ((kn * sxy - sx * sy) / (kn * sxx - sx * sx)) * sx) / kn, "
    "6) AS ln_k, "
    "ROUND(((kn * sxy - sx * sy) * (kn * sxy - sx * sy)) / "
    "((kn * sxx - sx * sx) * (kn * syy - sy * sy)), 6) AS r2 "
    "FROM s, tot"
)

# Soundex blocks: the identical translate+regexp chain (per-digit run
# collapse — RE2 backreference-free) over the first p_name word.
_SDX_COLL = "coded"
for _d in "0123456":
    _SDX_COLL = (
        f"regexp_replace({_SDX_COLL}, '{_d}{_d}+', '{_d}', 'g')"
    )
ORACLE_SQL["part_soundex_blocks"] = (
    "WITH w AS (SELECT COALESCE(regexp_extract(p_name, '^(\\S+)', 1), '') "
    "AS word FROM part), "
    "u AS (SELECT word, upper(regexp_replace(word, '[^A-Za-z]', '', 'g')) "
    "AS up FROM w), "
    "t AS (SELECT word, up, substr(up, 1, 1) || "
    "regexp_replace(substr(up, 2), '[HW]', '', 'g') AS hw FROM u), "
    "c AS (SELECT word, up, translate(hw, "
    "'AEIOUYBFPVCGJKQSXZDTLMNR', '000000111122222222334556') AS coded "
    "FROM t), "
    "k AS (SELECT word, up, " + _SDX_COLL + " AS coll FROM c), "
    "sx AS (SELECT word, CASE WHEN up = '' THEN '' ELSE "
    "substr(up, 1, 1) || substr(replace(substr(coll, 2), '0', '') "
    "|| '000', 1, 3) END AS sdx FROM k) "
    "SELECT sdx, CAST(COUNT(*) AS BIGINT) AS n_parts, "
    "CAST(COUNT(DISTINCT word) AS BIGINT) AS n_words FROM sx GROUP BY sdx"
)

# lang x source association: exact contingency counts, every float a
# mirrored expression over (n_xy, n_x, n_y, n) in cell/category order,
# ROUND 6 (ordered-SUM reassociation).
ORACLE_SQL["lang_source_assoc"] = (
    "WITH c AS (SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM documents WHERE lang IS NOT NULL AND source IS NOT NULL "
    "GROUP BY lang, source), "
    "nx AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS nx FROM c GROUP BY lang), "
    "ny AS (SELECT source, CAST(SUM(n) AS BIGINT) AS ny FROM c "
    "GROUP BY source), "
    "tot AS (SELECT CAST(SUM(n) AS DOUBLE) AS nf, "
    "CAST(SUM(n) AS BIGINT) AS n FROM c), "
    "mi AS (SELECT SUM((CAST(c.n AS DOUBLE) / nf) * "
    "log2(CAST(c.n AS DOUBLE) * nf / (CAST(nx.nx AS DOUBLE) * "
    "CAST(ny.ny AS DOUBLE))) ORDER BY c.lang, c.source) AS mi_bits, "
    "nf + SUM((CAST(c.n AS DOUBLE) - CAST(nx.nx AS DOUBLE) * "
    "CAST(ny.ny AS DOUBLE) / nf) * (CAST(c.n AS DOUBLE) - "
    "CAST(nx.nx AS DOUBLE) * CAST(ny.ny AS DOUBLE) / nf) / "
    "(CAST(nx.nx AS DOUBLE) * CAST(ny.ny AS DOUBLE) / nf) - "
    "CAST(nx.nx AS DOUBLE) * CAST(ny.ny AS DOUBLE) / nf "
    "ORDER BY c.lang, c.source) AS chi2 "
    "FROM c JOIN nx USING (lang) JOIN ny USING (source) CROSS JOIN tot "
    "GROUP BY nf), "
    "hx AS (SELECT SUM(-(CAST(nx AS DOUBLE) / nf) * "
    "log2(CAST(nx AS DOUBLE) / nf) ORDER BY lang) AS h_x, "
    "CAST(COUNT(*) AS BIGINT) AS r FROM nx CROSS JOIN tot), "
    "hy AS (SELECT SUM(-(CAST(ny AS DOUBLE) / nf) * "
    "log2(CAST(ny AS DOUBLE) / nf) ORDER BY source) AS h_y, "
    "CAST(COUNT(*) AS BIGINT) AS cc FROM ny CROSS JOIN tot) "
    "SELECT tot.n, ROUND(mi.mi_bits, 6) AS mi_bits, "
    "ROUND(hx.h_x, 6) AS h_x, ROUND(hy.h_y, 6) AS h_y, "
    "ROUND(mi.chi2, 6) AS chi2, "
    "CASE WHEN LEAST(hx.r, hy.cc) > 1 THEN "
    "ROUND(SQRT(mi.chi2 / (tot.nf * (LEAST(hx.r, hy.cc) - 1))), 6) END "
    "AS cramers_v FROM tot, mi, hx, hy"
)

# Hard negatives: the bm25 scoring CTE per query (identical idf/tf
# expressions and term order), FIRST_VALUE positive, ranks 2..4.
def _hn_block(qid: str, terms: list[str]) -> str:
    tok = (
        "SELECT doc_id, "
        "CAST(len(string_split(lower(text), ' ')) AS DOUBLE) AS dl, "
        + ", ".join(
            f"CAST(len(list_filter(string_split(lower(text), ' '), "
            f"t -> t = '{t}')) AS DOUBLE) AS tf_{j}"
            for j, t in enumerate(terms)
        )
        + " FROM documents"
    )
    stats = (
        "SELECT CAST(COUNT(*) AS DOUBLE) AS n, SUM(dl) / COUNT(*) AS avgdl, "
        + ", ".join(
            f"CAST(SUM(CASE WHEN tf_{j} > 0 THEN 1 ELSE 0 END) AS DOUBLE) "
            f"AS df_{j}"
            for j in range(len(terms))
        )
        + f" FROM tok_{qid}"
    )
    score = " + ".join(
        f"ln(1 + (n - df_{j} + 0.5) / (df_{j} + 0.5)) * tf_{j} "
        f"/ (tf_{j} + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))"
        for j in range(len(terms))
    )
    return (
        f"tok_{qid} AS ({tok}), st_{qid} AS ({stats}), "
        f"sc_{qid} AS (SELECT doc_id, {score} AS score "
        f"FROM tok_{qid}, st_{qid}), "
        f"rk_{qid} AS (SELECT '{qid}' AS query_id, doc_id, score, "
        "CAST(ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS BIGINT) "
        "AS rn, FIRST_VALUE(doc_id) OVER (ORDER BY score DESC, doc_id) "
        f"AS pos_id FROM sc_{qid} WHERE score > 0)"
    )


ORACLE_SQL["hard_negatives_top3"] = (
    "WITH "
    + ", ".join(
        _hn_block(q, [t for t in dict.fromkeys(_HN_QUERIES[q].split(" ")) if t])
        for q in sorted(_HN_QUERIES)
    )
    + " SELECT query_id, pos_id, doc_id, CAST(rn - 1 AS BIGINT) AS neg_rank, "
    "ROUND(score, 6) AS score FROM ("
    + " UNION ALL ".join(f"SELECT * FROM rk_{q}" for q in sorted(_HN_QUERIES))
    + ") WHERE rn BETWEEN 2 AND 4"
)

# Query likelihood (Dirichlet mu=2000): identical tf/dl projection and
# term-order ln sum; every doc scores; ROUND 6.
ORACLE_SQL["ql_top10"] = (
    "WITH tok AS (SELECT doc_id, "
    "CAST(len(string_split(lower(text), ' ')) AS DOUBLE) AS dl, "
    + ", ".join(
        f"CAST(len(list_filter(string_split(lower(text), ' '), "
        f"t -> t = '{term}')) AS DOUBLE) AS tf_{j}"
        for j, term in enumerate(("table", "scan", "merge", "window"))
    )
    + " FROM documents), "
    "stats AS (SELECT SUM(dl) AS ct, "
    + ", ".join(f"SUM(tf_{j}) AS cf_{j}" for j in range(4))
    + " FROM tok), "
    "scored AS (SELECT doc_id, "
    + " + ".join(
        f"ln((tf_{j} + 2000.0 * (cf_{j} / ct)) / (dl + 2000.0))"
        for j in range(4)
    )
    + " AS score FROM tok, stats) "
    "SELECT doc_id, ROUND(score, 6) AS score FROM scored "
    "ORDER BY score DESC, doc_id LIMIT 10"
)

# Kaplan-Meier over per-user event-span hours with 24h-edge censoring:
# exact integer risk sets via window cumsums, surv = EXP(SUM(ln ORDER
# BY t)) ROUND 6.
ORACLE_SQL["user_survival_curve"] = (
    "WITH pu AS (SELECT user_id, epoch_us(MIN(ts)) AS f, "
    "epoch_us(MAX(ts)) AS l FROM events GROUP BY user_id), "
    "hz AS (SELECT MAX(l) AS h FROM pu), "
    "r AS (SELECT (l - f) // 3600000000 AS t, "
    "CASE WHEN l < h - 86400000000 THEN 1 ELSE 0 END AS ev "
    "FROM pu, hz), "
    "g AS (SELECT t, CAST(SUM(ev) AS BIGINT) AS d, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM r GROUP BY t), "
    "w AS (SELECT t, d, n, "
    "CAST((SELECT SUM(n) FROM g) - "
    "COALESCE(SUM(n) OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING "
    "AND 1 PRECEDING), 0) AS BIGINT) AS n_risk FROM g) "
    "SELECT CAST(t AS BIGINT) AS t, n_risk, d, "
    "CAST(n - d AS BIGINT) AS censored, "
    "ROUND(EXP(SUM(CASE WHEN d > 0 THEN "
    "ln(1 - CAST(d AS DOUBLE) / CAST(n_risk AS DOUBLE)) ELSE 0.0 END) "
    "OVER (ORDER BY t)), 6) AS surv FROM w ORDER BY t"
)

# Accent folding: strip_accents over the accented text must restore it.
ORACLE_SQL["folded_docs"] = (
    "WITH f AS (SELECT lang, "
    "strip_accents(replace(text, 'a', chr(225))) AS folded, text "
    "FROM documents) "
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(length(folded)) AS BIGINT) AS sum_len, "
    "CAST(SUM(CASE WHEN folded = text THEN 1 ELSE 0 END) AS BIGINT) "
    "AS n_restored FROM f GROUP BY lang"
)

# ---------------------------------------------------------------------------
# Round-5 partial oracles (verdict item #7): sidecar-bridged SQL recompute
# of everything downstream of a pytest-pinned intermediate — see
# _write_oracle_sidecar.
# ---------------------------------------------------------------------------
# near_dedup_docs: DuckDB recomputes CLUSTER RESOLUTION from the minhash
# pair list — symmetric closure via recursive CTE, cluster label = min
# reachable member, keep exactly the label row per cluster plus every
# unclustered document.
ORACLE_SQL["near_dedup_docs"] = (
    "WITH RECURSIVE pairs AS (SELECT id_a, id_b FROM "
    "read_parquet('/tmp/ocr_oracle_sidecars/near_dedup_pairs.parquet')), "
    "edges AS (SELECT id_a AS a, id_b AS b FROM pairs "
    "UNION SELECT id_b, id_a FROM pairs), "
    "reach(a, b) AS (SELECT a, b FROM edges "
    "UNION SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a), "
    "cl AS (SELECT a AS doc_id, LEAST(a, MIN(b)) AS cluster "
    "FROM reach GROUP BY a) "
    "SELECT d.doc_id FROM documents d LEFT JOIN cl ON d.doc_id = cl.doc_id "
    "WHERE cl.doc_id IS NULL OR cl.cluster = d.doc_id ORDER BY d.doc_id"
)

# curate_corpus: DuckDB recomputes the gate+dedup suffix from the gated
# prefix sidecar — exact dedup = min-url winner + n_dups per distinct
# extracted_text; near-dup cluster resolution = recursive-CTE components
# over the pair sidecar with the min-member representative kept.
ORACLE_SQL["curate_corpus"] = (
    "WITH RECURSIVE g AS (SELECT * FROM "
    "read_parquet('/tmp/ocr_oracle_sidecars/curate_gated.parquet')), "
    "wtab AS (SELECT extracted_text, MIN(url) AS wurl, "
    "CAST(COUNT(*) AS BIGINT) AS n_dups FROM g GROUP BY extracted_text), "
    "ded AS (SELECT g.url, g.n_pages, g.total_words, g.pred_lang, "
    "g.split, w.n_dups FROM g JOIN wtab w "
    "ON g.extracted_text = w.extracted_text AND g.url = w.wurl), "
    "pairs AS (SELECT id_a, id_b FROM "
    "read_parquet('/tmp/ocr_oracle_sidecars/curate_pairs.parquet')), "
    "edges AS (SELECT id_a AS a, id_b AS b FROM pairs "
    "UNION SELECT id_b, id_a FROM pairs), "
    "reach(a, b) AS (SELECT a, b FROM edges "
    "UNION SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a), "
    "cl AS (SELECT a AS url, LEAST(a, MIN(b)) AS cluster "
    "FROM reach GROUP BY a) "
    "SELECT d.url, d.n_pages, d.total_words, d.pred_lang, d.split, "
    "d.n_dups FROM ded d LEFT JOIN cl ON d.url = cl.url "
    "WHERE cl.url IS NULL OR cl.cluster = d.url ORDER BY d.url"
)
