"""Distributed BM25 retrieval (Robertson/Okapi, the Lucene-default
scoring) over a text column — the lexical sibling of ops/similarity.py's
embedding ANN.

Reference scope parity: the reference notifies a search indexer per
ingest (apps/web/src/lib/usul-pipeline.ts:187-204) and serves keyword
search over the indexed corpus; this module is the batch analogue for
corpus-scale retrieval inside the engine itself.

Scale shape: ONE tokenize pass projects each document to
(id, doc_len, tf per query term) — a narrow all-integer table that is
materialized once and reused for both the global statistics and the
scoring pass (the train-once/score-many pin, same rationale as
ops/lm.py).  Corpus statistics (N, avg doc len, per-term df) reduce
from per-batch partials map-only; the driver sees one tiny row per
block.  Scoring is then map-only against the broadcast idf table, and
top-k uses the local-prune pattern (k rows per batch leave each task).
Raw tokens never cross an exchange; there are ZERO all-to-all shuffles.
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .exchange import _hash_labels, exchange
from .relational import bucketed_hash_join
from .similarity import _index_units


def _query_terms(query: str) -> list[str]:
    """Distinct non-empty lowercased single-space tokens, first-seen
    order (the corpus tokenization below splits the same way)."""
    seen: dict[str, None] = {}
    for t in query.lower().split(" "):
        if t:
            seen.setdefault(t, None)
    return list(seen)


def bm25_project(
    ds: rd.Dataset,
    terms: list[str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Per-document projection (id, dl, tf_0..tf_{T-1}) for the given
    query terms.  Tokenization = lowercase + split on single spaces
    (exactly DuckDB ``string_split(lower(text), ' ')`` — the corpus'
    oracled tokenization, see token_df); dl counts every segment,
    empties included, so both engines agree on boundary whitespace."""

    def project(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern(pc.utf8_lower(col), pattern=" ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        offs = toks.offsets.to_numpy().astype(np.int64) - toks.offsets[0].as_py()
        dl = offs[1:] - offs[:-1]
        out = pa.table({id_col: batch.column(id_col), "dl": pa.array(dl, pa.int64())})
        for j, term in enumerate(terms):
            hits = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            cums = np.concatenate([[0], np.cumsum(hits.astype(np.int64))])
            tf = cums[offs[1:]] - cums[offs[:-1]]
            out = out.append_column(f"tf_{j}", pa.array(tf, pa.int64()))
        return out

    return ds.map_batches(project, batch_format="pyarrow")


def bm25_topk(
    ds: rd.Dataset,
    query: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """Top-k documents by BM25 score for ``query``.

    idf = ln(1 + (N - df + 0.5)/(df + 0.5))  (Lucene's non-negative form)
    score(d) = sum_t idf_t * tf / (tf + k1*(1 - b + b*dl/avgdl))
    (the (k1+1) numerator constant is omitted, as in Lucene — it scales
    every document identically and changes no ranking).

    Ties rank by ascending id for a deterministic result."""
    terms = _query_terms(query)
    if not terms:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")})
    proj = bm25_project(ds, terms, id_col=id_col, text_col=text_col).materialize()

    tf_cols = [f"tf_{j}" for j in range(len(terms))]

    def partial(bdf: pd.DataFrame) -> pd.DataFrame:
        row = {"n": np.int64(len(bdf)), "sum_dl": bdf["dl"].to_numpy().sum()}
        for c in tf_cols:
            row[f"df_{c}"] = np.int64((bdf[c].to_numpy() > 0).sum())
        return pd.DataFrame([row])

    stats = proj.map_batches(partial, batch_format="pandas").to_pandas()
    # an all-empty input can skip the partial fn entirely -> column-less frame
    n_docs = int(stats["n"].sum()) if "n" in stats.columns else 0
    if n_docs == 0:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")})
    avgdl = float(stats["sum_dl"].sum()) / n_docs
    idf = np.array(
        [
            math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for df in (int(stats[f"df_{c}"].sum()) for c in tf_cols)
        ],
        dtype=np.float64,
    )

    def score_prune(bdf: pd.DataFrame) -> pd.DataFrame:
        dl = bdf["dl"].to_numpy().astype(np.float64)
        denom_tail = k1 * (1.0 - b + b * dl / avgdl)
        score = np.zeros(len(bdf), dtype=np.float64)
        for j, c in enumerate(tf_cols):
            tf = bdf[c].to_numpy().astype(np.float64)
            score += idf[j] * tf / np.maximum(tf + denom_tail, 1e-300)
        out = pd.DataFrame({id_col: bdf[id_col], "score": score})
        out = out[out["score"] > 0.0]
        # local prune: only k candidates leave each batch
        return out.sort_values(["score", id_col], ascending=[False, True]).head(k)

    pruned = proj.map_batches(score_prune, batch_format="pandas").to_pandas()
    if pruned.empty:
        return pd.DataFrame(
            {id_col: pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")}
        )
    return (
        pruned.sort_values(["score", id_col], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )

# ---------------------------------------------------------------------------
# Persisted inverted index — partition-pruned lexical search
# ---------------------------------------------------------------------------
# The lexical sibling of the IVF-PQ layout in ops/similarity.py: the build
# pass hash-partitions postings by TOKEN so a search opens only the
# ``shard=N/`` parquet directories holding its query terms' postings — at
# a 10^12-document corpus the read cost is per-term posting lists, never a
# corpus scan.  Postings denormalize the document length (8 bytes/row) so
# scoring needs NO join back to a corpus-sized doc-length table.


def _term_shards(terms: list[str], n_shards: int) -> list[int]:
    """Shard id per term via THE house label hash (_hash_labels), so the
    query side always agrees with the build side."""
    df = pd.DataFrame({"token": pd.Series(terms, dtype="object")})
    return _hash_labels(df, ["token"], n_shards).astype(int).tolist()


def _postings_fn(id_col: str, text_col: str, n_shards: int):
    """Batch -> (token, id, tf, dl, shard) posting rows.  A document
    lives in exactly one row, so a pair's tf is complete within its
    batch — postings need no cross-batch merge."""

    def postings(batch: pa.Table) -> pd.DataFrame:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern(pc.utf8_lower(col), pattern=" ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten().to_pandas().to_numpy(dtype=object)
        offs = toks.offsets.to_numpy().astype(np.int64) - toks.offsets[0].as_py()
        dl = offs[1:] - offs[:-1]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(ids), dtype=np.int64), dl)
        t = pd.DataFrame({"token": flat, "__di": doc_idx})
        t = t[t["token"] != ""]
        g = t.groupby(["__di", "token"], as_index=False).size()
        out = pd.DataFrame(
            {
                "token": g["token"],
                id_col: ids[g["__di"].to_numpy()],
                "tf": g["size"].astype("int64"),
                "dl": dl[g["__di"].to_numpy()].astype("int64"),
            }
        )
        out["shard"] = _hash_labels(out, ["token"], n_shards).astype("int64")
        return out

    return postings


def _stats_fn(text_col: str):
    def stats_partial(batch: pa.Table) -> pd.DataFrame:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern(pc.utf8_lower(col), pattern=" ")
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        return pd.DataFrame({"n": [len(batch)], "sum_dl": [int(n_tok.sum())]})

    return stats_partial


def build_bm25_index(
    ds: rd.Dataset,
    out_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int = 32,
) -> dict:
    """Build a persisted token-hash-partitioned inverted index.

    Layout: ``shard=N/*.parquet`` with rows (token, doc_id, tf, dl) —
    one row per distinct (token, document) pair, document length
    denormalized in — plus ``stats.json`` (n_docs, sum_dl, n_shards),
    written LAST as the atomic commit marker (a reader that finds no
    stats.json treats the index as absent, so a killed build is
    invisible; rebuilding over the same dir republishes the marker).

    Scale shape: tokenization and (token, doc) tf-counting are one
    vectorized pass per batch (a document lives in exactly one row, so a
    pair's tf is complete within its batch — postings need no cross-batch
    merge); the only exchange is the shard write itself.  Corpus stats
    reduce from fixed-size per-batch partials."""
    import shutil

    tmp_stats = os.path.join(out_dir, "stats.json.tmp")
    final_stats = os.path.join(out_dir, "stats.json")
    os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(final_stats):
        os.remove(final_stats)  # invalidate any previous generation first
    for d in glob.glob(os.path.join(out_dir, "shard=*")):
        shutil.rmtree(d)  # stale postings must not survive into the rebuild

    ds.map_batches(
        _postings_fn(id_col, text_col, n_shards), batch_format="pyarrow"
    ).write_parquet(out_dir, partition_cols=["shard"])

    st = ds.map_batches(_stats_fn(text_col), batch_format="pyarrow").to_pandas()
    stats = {
        "n_docs": int(st["n"].sum()) if "n" in st.columns else 0,
        "sum_dl": int(st["sum_dl"].sum()) if "sum_dl" in st.columns else 0,
        "n_shards": int(n_shards),
        "id_col": id_col,
    }
    with open(tmp_stats, "w") as f:
        json.dump(stats, f)
    os.replace(tmp_stats, final_stats)  # atomic publish
    return stats


def bm25_search_index(
    index_dir: str,
    query: str,
    *,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """Top-k BM25 over a persisted inverted index, reading ONLY the
    ``shard=N/`` directories that can hold the query's terms (partition
    pruning — the point of the layout).  Scoring matches ``bm25_topk``
    exactly: identical idf / avgdl arithmetic, and each document's
    per-term contributions are summed in QUERY-TERM ORDER inside one
    doc-hash shard (every contribution of a doc colocates there), so the
    float result is bit-identical to the full-scan path
    (equivalence-tested in TestBm25Index)."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    id_col = stats.get("id_col", "doc_id")
    empty = pd.DataFrame(
        {id_col: pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")}
    )
    terms = _query_terms(query)
    if not terms or stats["n_docs"] == 0:
        return empty
    n_docs, avgdl = stats["n_docs"], stats["sum_dl"] / stats["n_docs"]
    shards = sorted(set(_term_shards(terms, stats["n_shards"])))
    files = [
        f
        for s in shards
        for f in sorted(glob.glob(os.path.join(index_dir, f"shard={s}", "*.parquet")))
    ]
    if not files:
        return empty
    return _score_posting_files(
        files, terms, n_docs=n_docs, avgdl=avgdl, id_col=id_col, k=k, k1=k1, b=b
    )


def _score_posting_files(
    files: list[str],
    terms: list[str],
    *,
    n_docs: int,
    avgdl: float,
    id_col: str,
    k: int,
    k1: float,
    b: float,
) -> pd.DataFrame:
    """The shared posting-file scoring core (full-index and incremental
    searches both call it, so their floats are bit-identical given the
    same posting rows and stats): arrow-side term filter, df reduce,
    per-doc contributions summed in QUERY-TERM ORDER inside one doc-hash
    shard, local-prune top-k."""
    empty = pd.DataFrame(
        {id_col: pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")}
    )
    term_j = {t: j for j, t in enumerate(terms)}
    term_arr = pa.array(terms, pa.string())
    # arrow-side filter keeps zero-row blocks string-typed (a pandas
    # object-dtype empty block trips Ray's block size estimator)
    post = rd.read_parquet(files, columns=["token", id_col, "tf", "dl"]).map_batches(
        lambda t: t.filter(pc.is_in(t.column("token"), value_set=term_arr)),
        batch_format="pyarrow",
    )

    def df_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("token").aggregate([("token", "count")])
        return g.rename_columns(["token", "size"])

    # pass 1: df per term (posting rows per term = docs containing it)
    dfc = post.map_batches(df_partial, batch_format="pyarrow").to_pandas()
    if "token" not in dfc.columns or dfc.empty:
        return empty
    dfc = dfc.groupby("token")["size"].sum()
    idf = np.zeros(len(terms), dtype=np.float64)
    for t, j in term_j.items():
        df_t = int(dfc.get(t, 0))
        idf[j] = math.log(1.0 + (n_docs - df_t + 0.5) / (df_t + 0.5))

    def contrib(t: pd.DataFrame) -> pd.DataFrame:
        j = t["token"].map(term_j).to_numpy(dtype=np.int64)
        tf = t["tf"].to_numpy(dtype=np.float64)
        dl = t["dl"].to_numpy(dtype=np.float64)
        denom_tail = k1 * (1.0 - b + b * dl / avgdl)
        return pd.DataFrame(
            {
                id_col: t[id_col],
                "__j": j,
                "__c": idf[j] * tf / np.maximum(tf + denom_tail, 1e-300),
            }
        )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "__j"], kind="stable")
        s = g.groupby(id_col, as_index=False, sort=True).agg(score=("__c", "sum"))
        s = s[s["score"] > 0.0]
        return s.sort_values(["score", id_col], ascending=[False, True]).head(k)

    pruned = exchange(
        post.map_batches(contrib, batch_format="pandas"), id_col, per_shard
    ).to_pandas()
    if pruned.empty:
        return empty
    return (
        pruned.sort_values(["score", id_col], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def top_tfidf_terms(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    min_df: int = 1,
    method: str = "auto",
) -> rd.Dataset | pd.DataFrame:
    """Per-document top-k TF-IDF terms — the classic keyword-extraction
    / document-summarization statistic (and the feature behind sparse
    retrieval embeddings): score(t, d) = tf(t, d) · ln(N / df(t)),
    deterministic tie-break (score DESC, token ASC) so the ranking is
    total and SQL-mirrorable.

    Scale shape: a composition of the house primitives, no new exchange
    machinery — per-batch (id, token, tf) combiner partials (tf is
    in-row exact, no cross-block merge needed), the mergeable
    `token_document_frequency` reduce for df, one size-aware join
    (token-keyed: broadcast while the vocabulary fits, bucketed
    exchange past it), a map-side score, and `grouped_top_k`'s
    local-prune finish (k rows per (doc, batch) leave each task).
    Tokenization is single-space split with empties kept — identical to
    token_document_frequency and the BM25 projection."""
    from .relational import auto_join, grouped_top_k
    from .textstats import token_document_frequency

    if k < 1:
        raise ValueError("top_tfidf_terms: k must be >= 1")
    docs = ds
    n_docs = docs.count()
    if n_docs == 0:
        return pd.DataFrame(
            {
                id_col: pd.Series([], dtype="int64"),
                "token": pd.Series([], dtype=object),
                "tf": pd.Series([], dtype="int64"),
                "tfidf": pd.Series([], dtype="float64"),
                "rk": pd.Series([], dtype="int64"),
            }
        )

    def tf_partial(b: pd.DataFrame) -> pd.DataFrame:
        pairs = (
            b[[id_col, text_col]]
            .assign(token=b[text_col].str.split(" "))
            .explode("token")[[id_col, "token"]]
        )
        out = pairs.groupby([id_col, "token"], as_index=False).size()
        return out.rename(columns={"size": "tf"})

    tf = docs.map_batches(tf_partial, batch_format="pandas")
    df_tab = token_document_frequency(
        docs, id_col=id_col, text_col=text_col, min_df=min_df
    )
    if isinstance(df_tab, pd.DataFrame):
        df_tab = rd.from_pandas(df_tab)
    joined = auto_join(
        tf,
        df_tab,
        "token",
        broadcast_threshold_rows=(
            0 if method == "bucketed" else 2_000_000
        ),
    )

    def score(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[id_col, "token", "tf"]].copy()
        # the exact expression the SQL oracle repeats: tf * ln(N / df)
        out["tfidf"] = out["tf"].to_numpy(dtype="float64") * np.log(
            float(n_docs) / b["df"].to_numpy(dtype="float64")
        )
        return out

    scored = joined.map_batches(score, batch_format="pandas")
    return grouped_top_k(
        scored, [id_col], "tfidf", k, descending=True, tie_col="token"
    )


# --------------------------------------------------------------------------
# incremental index maintenance
# --------------------------------------------------------------------------
def bm25_index_new_partitions(
    src_dir: str,
    index_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int = 32,
) -> dict:
    """Incrementally maintain a persisted BM25 inverted index off a
    source directory: each call (re)indexes exactly the source units
    that are NEW or CHANGED since the last call (fingerprints from
    `_index_units` — `run_with_manifest` outputs and plain parquet dirs
    both work) and skips the rest.

    Layout: ``parts/<unit>@<fp8>/shard=N/*.parquet`` — the unit's
    postings subtree is GENERATION-NAMED by its fingerprint hash, and
    the per-unit manifest (``_manifest/<unit>.json``, atomic
    ``os.replace``) records {generation, n_docs, sum_dl}; a reader opens
    exactly the generations its manifests name, so neither a torn build
    (subtree without manifest) nor a redo window (new subtree, old
    manifest -> reader still uses the OLD complete generation) is ever
    observable.  Old generations are removed after the manifest swap.
    Global stats (N, avgdl) are the sum of committed unit stats — df is
    per-term posting-row counts, which add across units because a doc
    lives in exactly one unit.

    ``config.json`` pins (n_shards, id_col, text_col) on first call and
    rejects drift — postings sharded under different configs would
    silently miss query terms."""
    import shutil

    units = _index_units(src_dir)
    os.makedirs(index_dir, exist_ok=True)
    cpath = os.path.join(index_dir, "config.json")
    cfg = {"n_shards": int(n_shards), "id_col": id_col, "text_col": text_col}
    if os.path.exists(cpath):
        with open(cpath) as f:
            have = json.load(f)
        if have != cfg:
            raise ValueError(
                f"bm25_index_new_partitions: config drift {have} != {cfg} — "
                "build a fresh index directory"
            )
    else:
        with open(cpath + ".tmp", "w") as f:
            json.dump(cfg, f, sort_keys=True)
        os.replace(cpath + ".tmp", cpath)

    man_dir = os.path.join(index_dir, "_manifest")
    os.makedirs(man_dir, exist_ok=True)
    done: dict[str, dict] = {}
    for p in glob.glob(os.path.join(man_dir, "*.json")):
        try:
            with open(p) as f:
                m = json.load(f)
            done[m["unit"]] = m
        except (json.JSONDecodeError, KeyError):
            continue

    def _committed(name: str, fp: str) -> bool:
        m = done.get(name)
        if m is None or m["fingerprint"] != fp:
            return False
        # a manifest whose generation subtree is gone (partial restore,
        # manual cleanup) must re-index, not be skipped forever while its
        # stats keep inflating N/avgdl
        return os.path.isdir(
            os.path.join(index_dir, "parts", f"{name}@{m['generation']}")
        )

    new = [(n, fs, fp) for n, fs, fp in units if not _committed(n, fp)]

    import hashlib as _hashlib

    rows = 0
    for name, files, fp in new:
        gen = _hashlib.sha1(fp.encode()).hexdigest()[:8]
        ds = rd.read_parquet(files, columns=[id_col, text_col])
        dest = os.path.join(index_dir, "parts", f"{name}@{gen}")
        tmp = dest + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        ds.map_batches(
            _postings_fn(id_col, text_col, n_shards), batch_format="pyarrow"
        ).write_parquet(tmp, partition_cols=["shard"])
        st = ds.map_batches(_stats_fn(text_col), batch_format="pyarrow").to_pandas()
        n_docs = int(st["n"].sum()) if "n" in st.columns else 0
        sum_dl = int(st["sum_dl"].sum()) if "sum_dl" in st.columns else 0
        if os.path.exists(dest):  # same generation rebuilt (idempotent rerun)
            shutil.rmtree(dest)
        os.rename(tmp, dest)
        mpath = os.path.join(man_dir, name + ".json")
        with open(mpath + ".tmp", "w") as f:
            json.dump(
                {
                    "unit": name,
                    "fingerprint": fp,
                    "generation": gen,
                    "n_docs": n_docs,
                    "sum_dl": sum_dl,
                },
                f,
                sort_keys=True,
            )
        os.replace(mpath + ".tmp", mpath)  # commit — readers switch here
        rows += n_docs
        # drop superseded generations now that the manifest points away
        for old in glob.glob(os.path.join(index_dir, "parts", f"{name}@*")):
            if os.path.basename(old) != f"{name}@{gen}":
                shutil.rmtree(old)
    return {
        "units": len(units),
        "indexed": len(new),
        "skipped": len(units) - len(new),
        "docs_indexed": rows,
    }


def bm25_search_incremental(
    index_dir: str,
    query: str,
    *,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """Top-k BM25 over an incrementally-maintained index: global stats
    sum over the COMMITTED unit manifests, and only the committed
    generations' query-term shard directories open (partition pruning in
    both dimensions).  Scoring runs the same `_score_posting_files` core
    as the one-shot index, so for identical corpus content the result is
    bit-identical to `build_bm25_index` + `bm25_search_index`
    (equivalence-tested)."""
    with open(os.path.join(index_dir, "config.json")) as f:
        cfg = json.load(f)
    id_col, n_shards = cfg["id_col"], cfg["n_shards"]
    empty = pd.DataFrame(
        {id_col: pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")}
    )
    mans = []
    for p in sorted(glob.glob(os.path.join(index_dir, "_manifest", "*.json"))):
        try:
            with open(p) as f:
                mans.append(json.load(f))
        except (json.JSONDecodeError, KeyError):
            continue
    terms = _query_terms(query)
    n_docs = sum(m["n_docs"] for m in mans)
    if not terms or not mans or n_docs == 0:
        return empty
    avgdl = sum(m["sum_dl"] for m in mans) / n_docs
    shards = sorted(set(_term_shards(terms, n_shards)))
    files = [
        f
        for m in mans
        for s in shards
        for f in sorted(
            glob.glob(
                os.path.join(
                    index_dir,
                    "parts",
                    f"{m['unit']}@{m['generation']}",
                    f"shard={s}",
                    "*.parquet",
                )
            )
        )
    ]
    if not files:
        return empty
    return _score_posting_files(
        files, terms, n_docs=n_docs, avgdl=avgdl, id_col=id_col, k=k, k1=k1, b=b
    )


def rrf_fuse(
    a: "pd.DataFrame | rd.Dataset",
    b: "pd.DataFrame | rd.Dataset",
    *,
    on: list[str],
    rank_col: str = "rk",
    k: int = 60,
) -> pd.DataFrame:
    """Reciprocal-rank fusion (Cormack, Clarke & Büttner 2009) of two
    ranked result lists — the standard hybrid-retrieval combiner for a
    lexical ranking (BM25) and a second ranking (dense ANN, tf, recency)
    over the same key space::

        rrf(d) = Σ_lists d∈list  1 / (k + rank_d)        (k = 60)

    ``on`` is the identity (``[doc_id]``, or ``[query_id, doc_id]`` for
    a whole query corpus fused in one call); each input holds one row
    per key with its 1-based ``rank_col``.  The score is the fixed
    two-term expression ``coalesce(1/(k+rk_a), 0) + coalesce(1/(k+rk_b),
    0)`` — left-associated, one term per list, so it is bit-identical to
    a SQL mirror and to any block structure.  Ties (equal fused score)
    order by ``on`` ascending in the returned frame.

    Scale shape: rank lists are top-k tables — report-dim by
    construction — so two pandas inputs fuse with one driver outer
    merge; Dataset inputs (per-query corpus fusion) route through ONE
    bucketed full-outer hash exchange on ``on`` and reduce map-side.
    Nothing rescores the corpus: fusion sees only ranks."""
    keys = list(on)

    def finish(m: pd.DataFrame) -> pd.DataFrame:
        ra = m["__rk_a"].to_numpy(dtype="float64")
        rb = m["__rk_b"].to_numpy(dtype="float64")
        ta = np.where(np.isnan(ra), 0.0, 1.0 / (float(k) + ra))
        tb = np.where(np.isnan(rb), 0.0, 1.0 / (float(k) + rb))
        out = m[keys].copy()
        out["rrf_score"] = ta + tb
        out["in_a"] = (~np.isnan(ra)).astype("int64")
        out["in_b"] = (~np.isnan(rb)).astype("int64")
        return out

    if isinstance(a, pd.DataFrame) and isinstance(b, pd.DataFrame):
        aa = a[keys + [rank_col]].rename(columns={rank_col: "__rk_a"})
        bb = b[keys + [rank_col]].rename(columns={rank_col: "__rk_b"})
        m = aa.merge(bb, on=keys, how="outer")
        out = finish(m)
    else:
        to_ds = (lambda x: rd.from_pandas(x) if isinstance(x, pd.DataFrame) else x)
        aa = to_ds(a).map_batches(
            lambda t: t[keys + [rank_col]].rename(columns={rank_col: "__rk_a"}),
            batch_format="pandas",
        )
        bb = to_ds(b).map_batches(
            lambda t: t[keys + [rank_col]].rename(columns={rank_col: "__rk_b"}),
            batch_format="pandas",
        )
        j = bucketed_hash_join(aa, bb, on=keys, how="outer")

        def fin_batch(t: pd.DataFrame) -> pd.DataFrame:
            for c in ("__rk_a", "__rk_b"):
                if c not in t.columns:
                    t = t.assign(**{c: np.nan})
            return finish(t)

        out = j.map_batches(fin_batch, batch_format="pandas").to_pandas()
    return out.sort_values(
        ["rrf_score", *keys], ascending=[False] + [True] * len(keys)
    ).reset_index(drop=True)


def bm25_multi_topk(
    ds: rd.Dataset,
    queries: dict[str, str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """Top-k BM25 for a WHOLE query set in ONE corpus scan — the batch
    form of `bm25_topk` (scoring q queries one at a time costs q scans;
    the union-term projection + per-batch multi-score pass costs one):
    the projection carries the union of all queries' terms, the df/N/
    avgdl stats reduce once, and each batch emits a local-pruned top-k
    PER QUERY — ≤ |queries|·k candidate rows leave any batch.  Scores
    are bit-identical to per-query `bm25_topk` (same idf table, same
    term-order sum).  Returns (query_id, id, score, rk) with ties
    ranked by ascending id."""
    qids = sorted(queries)
    per_q_terms = {q: _query_terms(queries[q]) for q in qids}
    union_terms: dict[str, None] = {}
    for q in qids:
        for t in per_q_terms[q]:
            union_terms.setdefault(t, None)
    terms = list(union_terms)
    if not terms:
        return pd.DataFrame(
            {"query_id": pd.Series(dtype="object"),
             id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64"),
             "rk": pd.Series(dtype="int64")}
        )
    proj = bm25_project(ds, terms, id_col=id_col, text_col=text_col).materialize()
    tf_cols = [f"tf_{j}" for j in range(len(terms))]

    def partial(bdf: pd.DataFrame) -> pd.DataFrame:
        row = {"n": np.int64(len(bdf)), "sum_dl": bdf["dl"].to_numpy().sum()}
        for c in tf_cols:
            row[f"df_{c}"] = np.int64((bdf[c].to_numpy() > 0).sum())
        return pd.DataFrame([row])

    stats = proj.map_batches(partial, batch_format="pandas").to_pandas()
    n_docs = int(stats["n"].sum()) if "n" in stats.columns else 0
    if n_docs == 0:
        return pd.DataFrame(
            {"query_id": pd.Series(dtype="object"),
             id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64"),
             "rk": pd.Series(dtype="int64")}
        )
    avgdl = float(stats["sum_dl"].sum()) / n_docs
    idf = {
        t: math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for t, df in (
            (terms[j], int(stats[f"df_{c}"].sum()))
            for j, c in enumerate(tf_cols)
        )
    }
    tidx = {t: j for j, t in enumerate(terms)}

    def score_prune(bdf: pd.DataFrame) -> pd.DataFrame:
        dl = bdf["dl"].to_numpy().astype(np.float64)
        denom_tail = k1 * (1.0 - b + b * dl / avgdl)
        outs = []
        for q in qids:
            score = np.zeros(len(bdf), dtype=np.float64)
            for t in per_q_terms[q]:  # the query's own term order
                tf = bdf[f"tf_{tidx[t]}"].to_numpy().astype(np.float64)
                score += idf[t] * tf / np.maximum(tf + denom_tail, 1e-300)
            sub = pd.DataFrame(
                {"query_id": q, id_col: bdf[id_col], "score": score}
            )
            sub = sub[sub["score"] > 0.0]
            outs.append(
                sub.sort_values(
                    ["score", id_col], ascending=[False, True]
                ).head(k)
            )
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            {"query_id": pd.Series(dtype="object"),
             id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )

    pruned = proj.map_batches(score_prune, batch_format="pandas").to_pandas()
    if pruned.empty:
        return pd.DataFrame(
            {"query_id": pd.Series(dtype="object"),
             id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64"),
             "rk": pd.Series(dtype="int64")}
        )
    out = (
        pruned.sort_values(
            ["query_id", "score", id_col], ascending=[True, False, True]
        )
        .groupby("query_id", sort=False)
        .head(k)
        .reset_index(drop=True)
    )
    out["rk"] = out.groupby("query_id", sort=False).cumcount() + 1
    return out


def mine_hard_negatives(
    ds: rd.Dataset,
    pairs: pd.DataFrame,
    *,
    query_col: str = "query_text",
    qid_col: str = "query_id",
    pos_col: str = "pos_id",
    id_col: str = "doc_id",
    text_col: str = "text",
    n_neg: int = 5,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """BM25 hard-negative mining (the DPR/contriever training-data
    recipe — Karpukhin 2020 §4.2: for each (query, positive) pair, the
    top-ranked NON-positive documents are the hard negatives a dense
    retriever trains against): one `bm25_multi_topk` scan retrieves
    k = n_neg + |positives| per query, the query's own positives drop,
    and the first ``n_neg`` survivors emit with their retrieval rank.
    Returns (query_id, pos_id, doc_id, neg_rank, score)."""
    qids = pairs[qid_col].tolist()
    if len(set(qids)) != len(qids):
        raise ValueError("mine_hard_negatives: duplicate query ids")
    queries = dict(zip(pairs[qid_col], pairs[query_col]))
    ranked = bm25_multi_topk(
        ds, queries, id_col=id_col, text_col=text_col,
        k=n_neg + 1, k1=k1, b=b,
    )
    pos = dict(zip(pairs[qid_col], pairs[pos_col]))
    ranked["__pos"] = ranked["query_id"].map(pos)
    neg = ranked[ranked[id_col] != ranked["__pos"]].copy()
    neg = neg.groupby("query_id", sort=False).head(n_neg)
    neg["neg_rank"] = neg.groupby("query_id", sort=False).cumcount() + 1
    neg["pos_id"] = neg["__pos"]
    return neg[
        ["query_id", "pos_id", id_col, "neg_rank", "score"]
    ].reset_index(drop=True)


def ql_topk(
    ds: rd.Dataset,
    query: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 10,
    mu: float = 2000.0,
) -> pd.DataFrame:
    """Top-k documents by Dirichlet-smoothed query likelihood (Ponte &
    Croft 1998 / Zhai & Lafferty 2001 — the language-modeling ranker
    next to BM25, a genuinely different lexical view for `rrf_fuse`)::

        score(d) = Σ_t ln( (tf_t,d + μ·cf_t/|C|) / (dl_d + μ) )

    with cf the corpus term frequency and |C| the corpus token total
    (dl counts every split segment, the bm25 projection's convention).
    Smoothing scores EVERY document (absent terms still contribute), so
    ranking needs no score>0 filter; ties rank by ascending id.

    Scale shape = `bm25_topk`: one (id, dl, tf…) projection
    (materialized — stats + scoring both read it), one fixed-width
    stats reduce (Σdl, Σtf_t), and a map-only scoring pass with a
    per-batch local top-k prune.  Term sums add in query-term order;
    mirrors ROUND scores (array ln — the documented np.log/libm ulp)."""
    terms = _query_terms(query)
    if not terms:
        return pd.DataFrame(
            {id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )
    proj = bm25_project(ds, terms, id_col=id_col, text_col=text_col).materialize()
    tf_cols = [f"tf_{j}" for j in range(len(terms))]

    def partial(bdf: pd.DataFrame) -> pd.DataFrame:
        row = {"sum_dl": bdf["dl"].to_numpy().sum()}
        for c in tf_cols:
            row[f"cf_{c}"] = np.int64(bdf[c].to_numpy().sum())
        return pd.DataFrame([row])

    stats = proj.map_batches(partial, batch_format="pandas").to_pandas()
    if "sum_dl" not in stats.columns or not len(stats):
        return pd.DataFrame(
            {id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )
    c_total = float(stats["sum_dl"].sum())
    if c_total <= 0:
        return pd.DataFrame(
            {id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )
    p_c = np.array(
        [float(stats[f"cf_{c}"].sum()) / c_total for c in tf_cols],
        dtype=np.float64,
    )

    def score_prune(bdf: pd.DataFrame) -> pd.DataFrame:
        dl = bdf["dl"].to_numpy().astype(np.float64)
        denom = dl + mu
        score = np.zeros(len(bdf), dtype=np.float64)
        for j, c in enumerate(tf_cols):
            tf = bdf[c].to_numpy().astype(np.float64)
            score += np.log((tf + mu * p_c[j]) / denom)
        out = pd.DataFrame({id_col: bdf[id_col], "score": score})
        return out.sort_values(
            ["score", id_col], ascending=[False, True]
        ).head(k)

    pruned = proj.map_batches(score_prune, batch_format="pandas").to_pandas()
    if pruned.empty:
        return pd.DataFrame(
            {id_col: pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )
    return (
        pruned.sort_values(["score", id_col], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def rm3_expand(
    ds: rd.Dataset,
    query: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k_feedback: int = 10,
    n_expansion: int = 10,
    lam: float = 0.5,
    mu: float = 2000.0,
    k: int = 10,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """RM3 pseudo-relevance feedback (Lavrenko & Croft 2001 relevance
    models; the RM3 interpolation of Abdul-Jaleel 2004) — the query-
    expansion stage completing the retrieval family (BM25 / QL / RRF /
    hard negatives): the top ``k_feedback`` documents of a first
    Dirichlet-QL pass act as pseudo-relevant, the relevance model

        p(t|R) ∝ Σ_{d ∈ F} p(t|d) · p(d|q),  p(d|q) ∝ exp(ql_score_d)

    picks ``n_expansion`` terms (ties by term), RM3 interpolates
    λ·p_orig + (1−λ)·p_RM1, and a second weighted-QL pass reranks the
    corpus with the expanded query::

        score(d) = Σ_t w_t · ln( (tf + μ·cf_t/|C|) / (dl + μ) )

    Scale shape: pass 1 = `ql_topk` (one projection + stats reduce);
    the feedback SET is k-sized, its term distributions come from one
    small id-filtered read (driver-side pandas — the report-dim rule);
    pass 2 = one more projection scan over the expanded term set with a
    local-prune top-k.  Returns (terms, reranked): terms = (term,
    weight) descending, reranked = (id, score) top-k."""
    base = ql_topk(
        ds, query, id_col=id_col, text_col=text_col, k=k_feedback, mu=mu
    )
    if base.empty:
        return (
            pd.DataFrame({"term": pd.Series(dtype="object"),
                          "weight": pd.Series(dtype="float64")}),
            base,
        )
    fb_ids = set(base[id_col].tolist())
    scores = dict(zip(base[id_col], base["score"]))
    # feedback docs' term distributions (k rows — driver-sized by rule)
    fb = ds.map_batches(
        lambda b: b[b[id_col].isin(fb_ids)][[id_col, text_col]],
        batch_format="pandas",
    ).to_pandas()
    smax = max(scores.values())
    rm1: dict[str, float] = {}
    for _, r in fb.iterrows():
        toks = [t for t in str(r[text_col] or "").lower().split(" ") if t]
        if not toks:
            continue
        pdq = float(np.exp(scores[r[id_col]] - smax))
        inv = pdq / len(toks)
        for t in toks:
            rm1[t] = rm1.get(t, 0.0) + inv
    z = sum(rm1.values())
    if z > 0:
        rm1 = {t: v / z for t, v in rm1.items()}
    qterms = _query_terms(query)
    p_orig = 1.0 / len(qterms) if qterms else 0.0
    top = sorted(rm1.items(), key=lambda kv: (-kv[1], kv[0]))[:n_expansion]
    weights: dict[str, float] = {}
    for t, v in top:
        weights[t] = (1.0 - lam) * v
    for t in qterms:
        weights[t] = weights.get(t, 0.0) + lam * p_orig
    terms = (
        pd.DataFrame(
            {"term": list(weights), "weight": list(weights.values())}
        )
        .sort_values(["weight", "term"], ascending=[False, True])
        .reset_index(drop=True)
    )
    # pass 2: weighted QL over the expanded term set
    tlist = terms["term"].tolist()
    wvec = terms["weight"].to_numpy(dtype="float64")
    proj = bm25_project(ds, tlist, id_col=id_col, text_col=text_col).materialize()
    tf_cols = [f"tf_{j}" for j in range(len(tlist))]

    def partial(bdf: pd.DataFrame) -> pd.DataFrame:
        row = {"sum_dl": bdf["dl"].to_numpy().sum()}
        for c in tf_cols:
            row[f"cf_{c}"] = np.int64(bdf[c].to_numpy().sum())
        return pd.DataFrame([row])

    stats = proj.map_batches(partial, batch_format="pandas").to_pandas()
    c_total = float(stats["sum_dl"].sum())
    p_c = np.array(
        [float(stats[f"cf_{c}"].sum()) / c_total for c in tf_cols]
    )

    def score_prune(bdf: pd.DataFrame) -> pd.DataFrame:
        dl = bdf["dl"].to_numpy().astype(np.float64)
        denom = dl + mu
        score = np.zeros(len(bdf), dtype=np.float64)
        for j, c in enumerate(tf_cols):
            tf = bdf[c].to_numpy().astype(np.float64)
            score += wvec[j] * np.log((tf + mu * p_c[j]) / denom)
        out = pd.DataFrame({id_col: bdf[id_col], "score": score})
        return out.sort_values(
            ["score", id_col], ascending=[False, True]
        ).head(k)

    pruned = proj.map_batches(score_prune, batch_format="pandas").to_pandas()
    reranked = (
        pruned.sort_values(["score", id_col], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    return terms, reranked
