"""Deduplication operators for large-scale training-data pipelines.

The reference only has exact dedup on unique keys (D1/D2,
packages/db/prisma/schema.prisma:38, create.ts:61-80); the near-dup family
(MinHash-LSH, SimHash, n-gram Jaccard, embedding cosine) is the standard
web-corpus extension the north rule's 10^12-doc scale requires.

Scale notes (each operator documents its shuffle; see COVERAGE.md
"Exchange inventory" for the full table):
  * exact: one shard-exchange reduce over a (hash, id, count) projection
    (never the content column); winner application by broadcast map or,
    for 10^12-row corpora, the bucketed join route.
  * minhash-LSH: batch-vectorized signatures -> (id, band, band_hash)
    explode -> shard-exchange self-merge for candidates -> verification
    by signature agreement (broadcast fetch or bucketed join).  No
    all-pairs anywhere; signatures never enter the exchange.
  * n-gram Jaccard: exact; shard-exchange over (id, shingle_hash, size),
    vectorized in-shard self-merge, distributed per-pair reduce.
    Quadratic only within a posting list — hot shingles capped
    (stop-shingle cut, mirrored in the SQL oracle).
  * chunk dedup: id-only shuffle, >= min_docs filtered before the driver.
  * embedding cosine: DEFAULT near-dup route is hyperplane-band LSH
    buckets + exact verification of the candidate pairs; the full-matrix
    broadcast remains only for dense low-threshold scans.
  * cluster resolution: driver union-find below pair-list scale,
    min-label propagation over Datasets above it.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import ray
import ray.data as rd

# module-top so pickle-by-value captures it (lazy relative imports fail in
# workers that can't import the package from disk)
from ..state.broadcast import cached_get
from .exchange import exchange
from .similarity import _hyperplanes, bucket_ids

# --------------------------------------------------------------------------
# Exact dedup (D1/D2)
# --------------------------------------------------------------------------
def _sha64(values) -> np.ndarray:
    """Vectorized 64-bit content hash (pandas siphash with its fixed
    default key — deterministic across processes; ~10x faster than
    per-item sha1 for the millions of shingles a corpus produces)."""
    arr = np.asarray(values, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(arr, categorize=False)


def exact_dedup(
    ds: rd.Dataset, content_col: str, id_col: str, *, winners: str = "broadcast"
) -> rd.Dataset:
    """Keep one representative row per distinct ``content_col`` value — the
    row with the minimum ``id_col`` (deterministic under any parallelism).
    Adds ``n_dups`` = group size.  Pattern: content-hash column in a
    vectorized map_batches, in-batch combiner, then one groupby.

    ``winners``: "broadcast" probes a driver-built {hash: (min_id, n)}
    map (right to ~10^8 distinct contents); "bucketed" joins the winner
    table back via the explicit bucketed exchange — nothing
    distinct-content-sized ever lands on the driver (the 10^12-row
    route; equivalence-tested)."""

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["__h"] = _sha64(batch[content_col].to_numpy()).astype("int64")
        # in-batch combiner: collapse duplicates early, carry partial counts
        out["n_dups"] = 1
        agg = {c: "first" for c in out.columns if c not in (id_col, "n_dups", "__h")}
        agg[id_col] = "min"
        agg["n_dups"] = "sum"
        return out.sort_values(id_col).groupby("__h", as_index=False).agg(agg)

    # materialized: consumed twice (winner aggregate + winner filter) and a
    # lazy Dataset would re-execute its whole lineage per consumption
    from .relational import auto_group_agg, sharded_group_agg

    hashed = ds.map_batches(add_hash, batch_format="pandas").materialize()
    # winner reduce over an id-only projection — the exchange moves
    # (hash, id, count) partials, never the content column; the shard
    # exchange beats Ray's native single-key aggregate ~2x here (measured
    # 0.9 s vs 2.0 s warm at sf0.1)
    winner_aggs = {"__min_id": (id_col, "min"), "__n": ("n_dups", "sum")}
    if winners == "bucketed":
        winners_ds = sharded_group_agg(
            hashed.select_columns(["__h", id_col, "n_dups"]), ["__h"], winner_aggs
        )
        # distributed winner application: join the winner table back on
        # the content hash (bucketed exchange), keep rows whose id IS the
        # group minimum — no driver-held winner map.  List columns (span
        # lineage etc.) ride the exchange frozen to bytes.
        from .relational import bucketed_hash_join, freeze_list_columns, thaw_list_columns

        frozen, spec = freeze_list_columns(hashed)
        joined = bucketed_hash_join(frozen, winners_ds, "__h", how="inner")

        def keep_bucketed(b: pd.DataFrame) -> pd.DataFrame:
            out = b[b[id_col] == b["__min_id"]].copy()
            out["n_dups"] = out["__n"].astype("int64")
            return out.drop(columns=["__h", "__min_id", "__n"])

        return thaw_list_columns(
            joined.map_batches(keep_bucketed, batch_format="pandas"), spec
        )

    # broadcast route: size-aware FINISH (auto_group_agg) — the combined
    # partials usually fit the driver probe at which point one vectorized
    # groupby replaces the ~1.3-2 s AllToAll exchange floor; past the
    # threshold the same call plans the hash-shard exchange
    win = auto_group_agg(
        hashed.select_columns(["__h", id_col, "n_dups"]), ["__h"], winner_aggs
    )
    winners = win if isinstance(win, pd.DataFrame) else win.to_pandas()
    win_ref = ray.put(
        (
            pd.Series(winners["__min_id"].to_numpy(), index=winners["__h"].to_numpy()),
            pd.Series(winners["__n"].to_numpy(), index=winners["__h"].to_numpy()),
        )
    )

    def keep_winners(batch: pd.DataFrame) -> pd.DataFrame:
        win_id, win_n = cached_get(win_ref)
        h = batch["__h"].to_numpy()
        mask = win_id.reindex(h).to_numpy() == batch[id_col].to_numpy()
        out = batch[mask].copy()
        out["n_dups"] = win_n.reindex(out["__h"].to_numpy()).to_numpy().astype("int64")
        return out.drop(columns=["__h"])

    # scale note: the winners map is |distinct contents| entries — broadcast
    # works to ~10^8; beyond that swap this probe for a bucketed join on __h.
    return hashed.map_batches(keep_winners, batch_format="pandas")


# --------------------------------------------------------------------------
# MinHash + LSH near-dup
# --------------------------------------------------------------------------
_MERSENNE = (1 << 61) - 1


def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _band_hashes(sig_mat: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """Vectorized band hashing: FNV-1a over each band's uint64 words plus a
    splitmix64 finalizer, one numpy pass over the whole (n, num_perm)
    signature matrix (band-hash VERSION 2 — replaces the per-(row, band)
    hashlib.sha1 loop; bucket IDS changed, bucket MEMBERSHIP did not:
    equal signature chunks still hash equal, so LSH candidate pairs are
    unchanged up to 2^-63 collisions).  Layout matches the caller's
    np.repeat(ids, bands) / np.tile(arange(bands), n) explode: entry
    ``r * bands + b`` is row r's band b."""
    chunks = np.ascontiguousarray(sig_mat, dtype=np.uint64).reshape(-1, rows_per_band)
    h = np.full(len(chunks), 0xCBF29CE484222325, dtype=np.uint64)
    for c in range(rows_per_band):
        h ^= chunks[:, c]
        h *= np.uint64(0x100000001B3)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(1)).astype(np.int64)


def _shingle_hashes_batch(texts, k: int, split_mode: str = "ws") -> list[np.ndarray]:
    """Word-k-gram hashes per text: ONE vectorized hash call over every
    gram of the batch (pd.util.hash_array per row cost ~30us of dispatch
    each), then per-row unique over the flat result.  ``split_mode="ws"``
    collapses whitespace runs (Python str.split — the right choice for
    near-dup robustness); ``"space"`` splits on single spaces keeping
    empty tokens, mirroring DuckDB ``string_split(text, ' ')`` exactly
    (the oracled ngram query)."""
    all_grams: list[str] = []
    counts: list[int] = []
    for text in texts:
        toks = text.split() if split_mode == "ws" else text.split(" ")
        if len(toks) < k:
            grams = [" ".join(toks)] if toks else []
        else:
            grams = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
        if not grams:
            counts.append(-1)
        else:
            counts.append(len(grams))
            all_grams.extend(grams)
    flat = _sha64(all_grams) if all_grams else np.empty(0, dtype=np.uint64)
    out: list[np.ndarray] = []
    pos = 0
    for c in counts:
        if c == -1:
            out.append(np.zeros(1, dtype=np.uint64))
        else:
            out.append(np.unique(flat[pos : pos + c]))
            pos += c
    return out


class _MinHashSig:
    """Per-batch minhash signatures (numpy-vectorized across permutations)."""

    def __init__(self, text_col: str, id_col: str, num_perm: int, shingle_k: int):
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.k = num_perm, shingle_k
        self.a, self.b = _minhash_params(num_perm)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = []
        shingles = _shingle_hashes_batch(list(batch[self.text_col]), self.k)
        for sh in shingles:
            # (num_perm, n_shingles) universal hash, min over shingles
            hv = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
            sigs.append(hv.min(axis=1))
        return pd.DataFrame({self.id_col: batch[self.id_col].to_numpy(), "sig": sigs})


def minhash_lsh_duplicates(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.8,
    verify: str = "broadcast",
    candidates: str = "auto",
    candidate_threshold_rows: int = 2_000_000,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Near-duplicate pairs via MinHash-LSH: shingle -> minhash -> band ->
    bucket groupby -> candidate pairs -> verify by signature agreement
    (fraction of equal minhash components estimates Jaccard).

    Returns a pandas DataFrame (id_a, id_b, est_jaccard), id_a < id_b.
    Candidate generation is one groupby over (band, band_hash) buckets.

    ``candidates``: "auto" probes the exploded (id, band, band_hash)
    table with ``limit(threshold+1)`` — when it fits, ONE driver-side
    vectorized self-merge replaces the hash-shard exchange (identical
    pairs: the merge keys are the same (band, bh) equality); above the
    threshold the exchange route runs.  ``"exchange"`` forces the scale
    route (equivalence-tested).

    ``verify``: "broadcast" fetches involved signatures via one broadcast
    id-set filter (right while the involved-id set fits the object store —
    near-dup-sized, far below the corpus); "bucketed" joins the pair list
    against the signature table with the explicit bucketed hash join
    twice (id_a, then id_b) — no driver-held id set, the path for when
    even the candidate pairs are corpus-scale (equivalence-tested).

    ``as_dataset=True`` forces the bucketed verify and returns the pair
    table as a DATASET — the qualifying pairs never land on the driver,
    composing with ``dedup_keep_representatives(clusters="auto"/"distributed")``
    for a fully driver-free dedup chain."""
    if as_dataset:
        verify = "bucketed"
    rows_per_band = num_perm // bands
    # materialized: consumed twice (band explode + verification fetch);
    # signatures are num_perm*8 bytes/row — tiny next to the text
    sig_ds = ds.map_batches(
        _MinHashSig(text_col, id_col, num_perm, shingle_k), batch_format="pandas"
    ).materialize()

    def explode_bands(batch: pd.DataFrame) -> pd.DataFrame:
        # candidate generation carries ONLY (id, band, band_hash) through the
        # shuffle — signatures stay out of the exchange (object-dtype sig
        # columns through a groupby cost more than the whole computation)
        n = len(batch)
        if n == 0:  # np.stack needs >= 1 array; keep the typed schema
            return pd.DataFrame(
                {
                    id_col: batch[id_col].iloc[:0],
                    "band": pd.Series(dtype="int64"),
                    "bh": pd.Series(dtype="int64"),
                }
            )
        ids = np.repeat(batch[id_col].to_numpy(), bands)
        band_ids = np.tile(np.arange(bands), n)
        sig_mat = np.stack([np.asarray(s, dtype=np.uint64) for s in batch["sig"]])
        bhs = _band_hashes(sig_mat, bands, rows_per_band)
        return pd.DataFrame({id_col: ids, "band": band_ids, "bh": bhs})

    exploded = sig_ds.map_batches(explode_bands, batch_format="pandas")

    # candidate pairs: shuffle a bounded shard label of ``bh`` (hash-shard
    # exchange, stages/reassemble.py pattern; a bucket never splits across
    # shards) instead of grouping per (band, bh) bucket — per-bucket
    # map_groups costs ~1.6 ms of Python per BUCKET (millions of buckets at
    # corpus scale); the in-shard self-merge is one vectorized pandas join
    # per shard.
    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # self-join within buckets of this shard: (band, bh) equality,
        # ordered pairs only; buckets are small by LSH design so the
        # within-bucket quadratic blowup is bounded
        m = g.merge(g, on=["band", "bh"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        out = m[[f"{id_col}_a", f"{id_col}_b"]].drop_duplicates()
        return out.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})

    empty = pd.DataFrame(
        {
            "id_a": pd.Series(dtype="int64"),
            "id_b": pd.Series(dtype="int64"),
            "est_jaccard": pd.Series(dtype="float64"),
        }
    )
    from .relational import probe_head

    cand_pairs = cand_ds = None
    if candidates == "auto":
        head = probe_head(exploded, candidate_threshold_rows)
        if head is not None:
            # the probe head IS the complete exploded table: one global
            # vectorized self-merge == the per-shard merges unioned
            cand_pairs = (
                shard_pairs(head)
                if head.shape[1] > 0
                else pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")})
            )
    if cand_pairs is None:
        cand_ds = exchange(exploded, "bh", shard_pairs)

    if verify == "bucketed" and cand_pairs is not None:
        if cand_pairs.empty:
            return rd.from_pandas(empty) if as_dataset else empty
        cand_ds = rd.from_pandas(cand_pairs)
    if verify == "bucketed":
        # fully distributed verification: candidate pairs NEVER land on
        # the driver — cross-shard dedupe via the shard-exchange reduce
        # (a pair found in two bands lives in two shards), then the pair
        # table joined against the signature table on id_a then id_b
        # (explicit bucketed exchange), signature agreement computed
        # inside map_batches; only qualifying pairs come back
        from .relational import bucketed_hash_join, sharded_group_agg

        dedup = sharded_group_agg(
            cand_ds, ["id_a", "id_b"], {"__n": ("id_a", "size")}
        ).materialize()
        if dedup.count() == 0:
            return rd.from_pandas(empty) if as_dataset else empty
        pairs_ds = dedup.map_batches(
            lambda b: b[["id_a", "id_b"]], batch_format="pandas"
        )
        # signatures travel the exchange as fixed-width BYTES (arrow
        # binary), not object-dtype ndarrays — the union's null-fill for
        # one-sided buckets would otherwise mix floats into the column
        sig_a = sig_ds.map_batches(
            lambda b: pd.DataFrame(
                {
                    "id_a": b[id_col],
                    "sig_a": [np.asarray(s, dtype=np.uint64).tobytes() for s in b["sig"]],
                }
            ),
            batch_format="pandas",
        )
        sig_b = sig_ds.map_batches(
            lambda b: pd.DataFrame(
                {
                    "id_b": b[id_col],
                    "sig_b": [np.asarray(s, dtype=np.uint64).tobytes() for s in b["sig"]],
                }
            ),
            batch_format="pandas",
        )
        j = bucketed_hash_join(pairs_ds, sig_a, "id_a", how="inner")
        j = bucketed_hash_join(j, sig_b, "id_b", how="inner")

        def score(b: pd.DataFrame) -> pd.DataFrame:
            if b.empty:
                return pd.DataFrame(
                    {
                        "id_a": pd.Series(dtype="int64"),
                        "id_b": pd.Series(dtype="int64"),
                        "est_jaccard": pd.Series(dtype="float64"),
                    }
                )
            # fixed-width signatures: one reshape + one vectorized compare
            A = np.frombuffer(b"".join(b["sig_a"]), dtype=np.uint64).reshape(len(b), num_perm)
            B = np.frombuffer(b"".join(b["sig_b"]), dtype=np.uint64).reshape(len(b), num_perm)
            est = (A == B).mean(axis=1)
            out = b[["id_a", "id_b"]].assign(est_jaccard=est)
            return out[out["est_jaccard"] >= threshold]

        scored = j.map_batches(score, batch_format="pandas")
        if as_dataset:
            return scored
        out = scored.to_pandas()
        if out.empty:
            return empty
        if pd.api.types.is_numeric_dtype(out["id_a"]):
            out["id_a"] = out["id_a"].astype("int64")
            out["id_b"] = out["id_b"].astype("int64")
        return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    # broadcast route: candidate pairs reduce to the driver (right while
    # the pair list is near-dup-sized), then fetch signatures of involved
    # ids only and compare component-wise.
    if cand_pairs is not None:
        pairs = cand_pairs
    else:
        cand = cand_ds.to_pandas()
        pairs = cand[["id_a", "id_b"]].drop_duplicates() if not cand.empty else cand
    if pairs.empty:
        return empty
    involved = frozenset(pairs["id_a"]) | frozenset(pairs["id_b"])
    inv_ref = ray.put(involved)

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch[id_col].isin(cached_get(inv_ref))]

    sig_small = sig_ds.map_batches(pick, batch_format="pandas").to_pandas()
    sig_map = {i: np.asarray(s, dtype=np.uint64) for i, s in zip(sig_small[id_col], sig_small["sig"])}
    est = np.array(
        [float(np.mean(sig_map[a] == sig_map[b])) for a, b in zip(pairs["id_a"], pairs["id_b"])]
    )
    out = pairs.assign(est_jaccard=est)
    out = out[out["est_jaccard"] >= threshold]
    if out.empty:
        return empty
    if pd.api.types.is_numeric_dtype(out["id_a"]):
        out["id_a"] = out["id_a"].astype("int64")
        out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# --------------------------------------------------------------------------
# SimHash
# --------------------------------------------------------------------------
def _simhash64_batch(texts) -> np.ndarray:
    """uint64 SimHash per text — batch-vectorized: hash EVERY token of
    the batch in one call, build one (n_tokens, 64) bit matrix, reduce
    per row with np.add.reduceat over the flattened token boundaries —
    no per-document numpy re-dispatch (was ~0.2 ms/doc of overhead)."""
    tok_lists = [t.split() for t in texts]
    counts = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists))
    out_h = np.zeros(len(tok_lists), dtype=np.uint64)
    flat = [w for ts in tok_lists for w in ts]
    if flat:
        th = _sha64(flat)
        bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int32)
        signed = 2 * bits - 1
        nz = counts > 0
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nz]
        sums = np.add.reduceat(signed, starts, axis=0)
        packed = np.packbits((sums > 0).astype(np.uint8), axis=1, bitorder="little")
        out_h[nz] = packed.view(np.uint64).ravel()
    return out_h


def simhash_buckets(ds: rd.Dataset, text_col: str, id_col: str, *, n_bands: int = 4) -> rd.Dataset:
    """64-bit SimHash per row + its 16-bit band keys.  Near-dups share at
    least one band value when hamming distance <= n_bands - 1 (pigeonhole);
    downstream: groupby a band column = candidate buckets, no all-pairs."""

    def sim(batch: pd.DataFrame) -> pd.DataFrame:
        out_h = _simhash64_batch(list(batch[text_col]))
        res = pd.DataFrame({id_col: batch[id_col].to_numpy(), "simhash": out_h})
        for b in range(n_bands):
            res[f"band{b}"] = (out_h >> np.uint64(b * 16)) & np.uint64(0xFFFF)
        return res

    # batch_size bounds the (tokens x 64) int32 bit matrix
    return ds.map_batches(sim, batch_format="pandas", batch_size=1024)


# byte-LUT popcount (numpy 1.x has no bitwise_count): view the uint64
# lanes as bytes, table-lookup each byte's bit count, sum per lane
_POPCNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    return _POPCNT8[x.view(np.uint8)].reshape(len(x), 8).sum(axis=1)


def simhash_near_dup_pairs(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    max_hamming: int = 3,
    n_bands: int = 4,
    max_posting: int = 1000,
    pairs_threshold_rows: int = 2_000_000,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """End-to-end SimHash near-duplicate pairs (Manku, Jain & Das Sarma
    2007, "Detecting near-duplicates for web crawling": split the
    fingerprint into bands; hamming distance <= n_bands - 1 forces at
    least one identical band by pigeonhole, so band-equality candidates
    have COMPLETE recall at that radius).  Returns ``(id_a, id_b,
    hamming)`` for every pair with XOR-popcount distance <=
    ``max_hamming`` that shares a non-skew band bucket.

    Scale shape: candidates and verification FUSE — the 64-bit
    fingerprint is 8 bytes, so unlike the MinHash route it rides the
    band exchange and each shard verifies its own candidates (one
    vectorized self-merge + XOR popcount; no signature join-back).
    Buckets holding more than ``max_posting`` ids are dropped before the
    merge (the `ngram_jaccard_pairs` skew control — a degenerate band
    value, e.g. all-empty documents, would otherwise go quadratic); the
    cross-band pair dedupe finishes size-aware (driver drop_duplicates
    below the probe threshold, one more shard exchange above)."""
    if not 0 <= max_hamming <= n_bands - 1:
        raise ValueError(
            f"pigeonhole guarantee needs 0 <= max_hamming <= n_bands-1 "
            f"= {n_bands - 1}, got {max_hamming}"
        )
    sig_ds = simhash_buckets(ds, text_col, id_col, n_bands=n_bands)
    band_cols = [f"band{b}" for b in range(n_bands)]

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: b[id_col].iloc[:0],
                    "sim": pd.Series(dtype="uint64"),
                    "bi": pd.Series(dtype="int64"),
                    "bv": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                id_col: np.tile(b[id_col].to_numpy(), n_bands),
                "sim": np.tile(b["simhash"].to_numpy(dtype=np.uint64), n_bands),
                "bi": np.repeat(np.arange(n_bands, dtype=np.int64), n),
                "bv": np.concatenate(
                    [b[c].to_numpy(dtype=np.int64) for c in band_cols]
                ),
            }
        )

    exploded = sig_ds.map_batches(explode, batch_format="pandas")

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": g[id_col].iloc[:0],
                "id_b": g[id_col].iloc[:0],
                "hamming": pd.Series(dtype="int64"),
            }
        )
        # skew control: a bucket is entirely within this shard, so the
        # in-shard posting count IS the global bucket size
        sizes = g.groupby(["bi", "bv"])[id_col].transform("size")
        g = g[sizes <= max_posting]
        if g.empty:
            return empty
        m = g.merge(g, on=["bi", "bv"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if m.empty:
            return empty
        x = m["sim_a"].to_numpy(dtype=np.uint64) ^ m["sim_b"].to_numpy(
            dtype=np.uint64
        )
        m = m.assign(hamming=_popcount64(x))
        m = m[m["hamming"] <= max_hamming]
        out = m[[f"{id_col}_a", f"{id_col}_b", "hamming"]].rename(
            columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"}
        )
        return out.drop_duplicates(["id_a", "id_b"])

    from .relational import probe_head, sharded_group_agg

    head = probe_head(exploded, pairs_threshold_rows)
    if head is not None:
        # the probe IS the complete exploded table: one global self-merge
        # == the per-shard merges unioned (buckets never split)
        pairs = (
            shard_pairs(head)
            if head.shape[1] > 0
            else pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "hamming": pd.Series(dtype="int64"),
                }
            )
        )
        pairs = pairs.drop_duplicates(["id_a", "id_b"])
        pairs["hamming"] = pairs["hamming"].astype("int64")
        pairs = pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)
        return rd.from_pandas(pairs) if as_dataset else pairs
    cand = exchange(exploded, ["bi", "bv"], shard_pairs)
    # cross-band dedupe: a pair found in two bands lives in two shards;
    # hamming is a pure function of the pair, so min == the single value
    deduped = sharded_group_agg(
        cand, ["id_a", "id_b"], {"hamming": ("hamming", "min")},
    )
    if as_dataset:
        return deduped
    out = deduped.to_pandas()
    if out.shape[1] == 0:
        # an empty Dataset to_pandas()-es COLUMNLESS (the probe_head
        # contract) — return the typed empty instead
        out = pd.DataFrame(
            {
                "id_a": pd.Series(dtype="object"),
                "id_b": pd.Series(dtype="object"),
                "hamming": pd.Series(dtype="int64"),
            }
        )
    out["hamming"] = out["hamming"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# --------------------------------------------------------------------------
# Exact n-gram Jaccard pairs (SQL-oracle-able)
# --------------------------------------------------------------------------
def _ngram_pair_counts(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    k: int,
    max_posting: int,
    split_mode: str,
):
    """Shared candidate core behind `ngram_jaccard_pairs` and
    `ngram_containment_pairs`: explode (shingle-hash, id, set_size) ->
    shingle-shard co-occurrence self-merge with the stop-shingle posting
    cap -> distributed per-pair (inter, size_a, size_b) reduce.  Returns
    the aggregated pair-counts Dataset; callers attach their metric
    finish map-side."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        shingles = _shingle_hashes_batch(list(batch[text_col]), k, split_mode)
        counts = np.fromiter((len(sh) for sh in shingles), dtype=np.int64, count=len(shingles))
        ids = np.repeat(batch[id_col].to_numpy(), counts)
        sizes = np.repeat(counts, counts)
        shs = (
            np.concatenate(shingles) if len(shingles) else np.empty(0, dtype=np.uint64)
        )
        return pd.DataFrame({id_col: ids, "sh": shs, "size": sizes})

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """One vectorized pass per SHARD (not per shingle): drop singleton
        and stop-shingle posting lists by a value_counts filter, self-merge
        on the shingle hash for ordered co-occurrence rows, pre-sum the
        per-pair intersection counts in-shard (combiner)."""
        counts = g["sh"].value_counts()
        keep = counts[(counts >= 2) & (counts <= max_posting)].index
        g = g[g["sh"].isin(keep)]
        empty = pd.DataFrame(
            {
                "id_a": pd.Series(dtype="int64"),
                "id_b": pd.Series(dtype="int64"),
                "inter": pd.Series(dtype="int64"),
                "size_a": pd.Series(dtype="int64"),
                "size_b": pd.Series(dtype="int64"),
            }
        )
        if g.empty:
            return empty
        m = g.merge(g, on="sh", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if m.empty:
            return empty
        part = m.groupby([f"{id_col}_a", f"{id_col}_b"], as_index=False).agg(
            inter=("sh", "size"), size_a=("size_a", "first"), size_b=("size_b", "first")
        )
        return part.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})

    from .relational import sharded_group_agg

    partials = exchange(
        ds.map_batches(explode, batch_format="pandas"),
        "sh",
        shard_pairs,
    )
    # distributed per-pair reduce (a pair's shingles spread over shards):
    # second hash-shard exchange, then the metric + threshold filter run
    # inside map_batches so only qualifying pairs reach the driver
    return sharded_group_agg(
        partials,
        ["id_a", "id_b"],
        {"inter": ("inter", "sum"), "size_a": ("size_a", "min"), "size_b": ("size_b", "min")},
    )


def ngram_jaccard_pairs(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    k: int = 3,
    threshold: float = 0.5,
    max_posting: int = 1000,
    split_mode: str = "space",
) -> pd.DataFrame:
    """Exact word-k-gram Jaccard similarity for every pair sharing at least
    one shingle: explode (shingle, id, set_size) -> groupby shingle ->
    pairwise rows per posting list -> groupby pair -> inter / union.
    Posting lists longer than ``max_posting`` are dropped (stop-shingles;
    logged in the n_dropped column semantics of the caller)."""
    agg = _ngram_pair_counts(
        ds, text_col, id_col, k=k, max_posting=max_posting, split_mode=split_mode
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        j = b["inter"] / (b["size_a"] + b["size_b"] - b["inter"])
        out = b.assign(jaccard=j)
        return out[out["jaccard"] >= threshold][["id_a", "id_b", "jaccard"]]

    out = agg.map_batches(finish, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ("id_a", "id_b")} | {"jaccard": pd.Series(dtype="float64")}
        )
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def ngram_containment_pairs(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    k: int = 3,
    threshold: float = 0.8,
    max_posting: int = 1000,
    split_mode: str = "space",
) -> pd.DataFrame:
    """ASYMMETRIC near-duplication — shingle containment (Broder 1997's
    second resemblance measure): ``cont(A in B) = |S(A) ∩ S(B)| / |S(A)|``.
    The syndication/quotation detector Jaccard misses: a short article
    fully embedded in a long page has tiny Jaccard but containment ≈ 1.
    Emits every candidate pair (same shingle-shard machinery and posting
    cap as `ngram_jaccard_pairs` — ONE shared core) where EITHER
    direction's containment clears ``threshold``, with both directions
    reported; exact over deduplicated shingle sets, SQL-mirrorable."""
    agg = _ngram_pair_counts(
        ds, text_col, id_col, k=k, max_posting=max_posting, split_mode=split_mode
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        ca = b["inter"] / b["size_a"]
        cb = b["inter"] / b["size_b"]
        out = b.assign(cont_a_in_b=ca, cont_b_in_a=cb)
        m = (out["cont_a_in_b"] >= threshold) | (out["cont_b_in_a"] >= threshold)
        return out[m][["id_a", "id_b", "cont_a_in_b", "cont_b_in_a"]]

    out = agg.map_batches(finish, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ("id_a", "id_b")}
            | {c: pd.Series(dtype="float64") for c in ("cont_a_in_b", "cont_b_in_a")}
        )
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# --------------------------------------------------------------------------
# Paragraph-level (chunk) dedup — repeated-boilerplate removal
# --------------------------------------------------------------------------
def repeated_paragraphs(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    sep: str = "\n\n",
    min_words: int = 3,
    min_docs: int = 2,
) -> pd.DataFrame:
    """Paragraphs occurring in >= min_docs distinct documents (the CCNet-
    style terminal/boilerplate detector, applied at chunk granularity).
    Returns (para_hash, n_docs, example_text), n_docs desc.

    Distributed end-to-end — nothing corpus-proportional touches the
    driver: explode paragraphs -> (para_hash, id) pairs deduped in-batch
    (a document lives in one row, so its paragraphs share a batch and the
    in-batch dedup makes pairs globally distinct) -> native
    ``groupby(para_hash).aggregate(Count)`` over an id-only projection (the
    shuffle moves 16 bytes/paragraph, not text) -> only the >= min_docs
    result (boilerplate-sized) lands on the driver; example texts are then
    fetched by a second map over the corpus filtered against the broadcast
    repeated-hash set (min() per hash for determinism)."""

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids, texts = [], []
        for i, text in zip(b[id_col], b[text_col]):
            for para in text.split(sep):
                p = para.strip()
                if len(p.split()) < min_words:
                    continue
                ids.append(i)
                texts.append(p)
        # ONE vectorized hash call over every paragraph of the batch
        # (hash_array costs ~30us of dispatch per call — per-document
        # calls dominated this stage).  signed-int64 view: a batch of
        # large uint64 hashes would otherwise infer a uint64 column in
        # some batches and int64 in others -> inconsistent block schemas
        # across the exchange.
        hashes = _sha64(texts).view(np.int64) if texts else np.empty(0, dtype=np.int64)
        out = pd.DataFrame({id_col: ids, "para_hash": hashes, "para_text": texts})
        return out.drop_duplicates(["para_hash", id_col])  # in-batch combiner

    empty = pd.DataFrame(
        {
            "para_hash": pd.Series(dtype="int64"),
            "n_docs": pd.Series(dtype="int64"),
            "example_text": pd.Series(dtype="object"),
        }
    )
    from .relational import sharded_group_agg

    exploded = ds.map_batches(explode, batch_format="pandas")
    rep = (
        sharded_group_agg(
            exploded.select_columns(["para_hash"]),
            ["para_hash"],
            {"n_docs": ("para_hash", "size")},
        )
        # filter BEFORE the driver: the distinct-paragraph count table is
        # corpus-proportional; only the >= min_docs (boilerplate-sized)
        # slice may land driver-side
        .map_batches(lambda b: b[b["n_docs"] >= min_docs], batch_format="pandas")
        .to_pandas()
    )
    if rep.empty:
        return empty
    bad_ref = ray.put(frozenset(int(h) for h in rep["para_hash"]))

    def pick_examples(b: pd.DataFrame) -> pd.DataFrame:
        bad = cached_get(bad_ref)
        hit = b[b["para_hash"].isin(bad)]
        # in-batch combiner: one candidate example per hash
        return hit.groupby("para_hash", as_index=False).agg(example_text=("para_text", "min"))

    examples = (
        exploded.select_columns(["para_hash", "para_text"])
        .map_batches(pick_examples, batch_format="pandas")
        .to_pandas()
        .groupby("para_hash", as_index=False)
        .agg(example_text=("example_text", "min"))
    )
    out = rep.merge(examples, on="para_hash", how="left")
    out["n_docs"] = out["n_docs"].astype("int64")
    return (
        out[["para_hash", "n_docs", "example_text"]]
        .sort_values(["n_docs", "para_hash"], ascending=[False, True])
        .reset_index(drop=True)
    )


def strip_repeated_paragraphs(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    sep: str = "\n\n",
    min_words: int = 3,
    min_docs: int = 2,
) -> rd.Dataset:
    """Remove paragraphs that repeat across >= min_docs documents from
    every document's text (broadcast the repeated-hash set, filter per
    row's paragraphs).  The cross-document boilerplate cleaner the page-
    level nav-strip heuristics can't catch."""
    repeated = repeated_paragraphs(
        ds, text_col, id_col, sep=sep, min_words=min_words, min_docs=min_docs
    )
    bad_ref = ray.put(frozenset(int(h) for h in repeated["para_hash"]))

    def strip(b: pd.DataFrame) -> pd.DataFrame:
        bad = cached_get(bad_ref)
        out = b.copy()
        # batch-vectorized: split every doc, hash ALL paragraphs in one
        # call, then reassemble per doc via offsets
        para_lists = [text.split(sep) for text in b[text_col]]
        flat = [p.strip() for paras in para_lists for p in paras]
        hashes = _sha64(flat).view(np.int64) if flat else np.empty(0, dtype=np.int64)
        new_texts = []
        pos = 0
        for paras in para_lists:
            keep = []
            for p in paras:
                sp, h = flat[pos], hashes[pos]
                pos += 1
                if len(sp.split()) >= min_words and int(h) in bad:
                    continue
                keep.append(p)
            new_texts.append(sep.join(keep))
        out[text_col] = new_texts
        return out

    return ds.map_batches(strip, batch_format="pandas")


def bloom_strip_repeated_paragraphs(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    sep: str = "\n\n",
    min_words: int = 3,
    min_docs: int = 2,
    m_bits: int = 1 << 24,
) -> rd.Dataset:
    """Fixed-memory approximate `strip_repeated_paragraphs` — the
    Dolma/CCNet counting-Bloom route (Soldaini et al. 2024 use the plain
    Bloom form): ZERO exchanges, no corpus-proportional state anywhere.

    Pass A streams one ``m_bits``-counter partial per block to the
    driver (np.bincount per probe, clipped to ``min_docs``, shipped as
    uint8 = m_bits bytes/block); partials merge by saturating add —
    ``min(cap, a+b)`` is associative and commutative, so the merged
    counters are block-structure independent TO THE BIT.  Each counter
    is >= the true distinct-doc count of every paragraph hashing to it
    (within-doc dedup is in-row exact), so thresholding at ``min_docs``
    and packing to a bitmap gives a probe structure that can NEVER miss
    a truly repeated paragraph; false positives over-strip at the
    counting-Bloom rate ~(k·n/m)^k (k=4) — size ``m_bits`` >= ~100x the
    distinct-paragraph count to make that negligible.  Pass B strips
    map-only against the broadcast bitmap (`ops.spans._bloom_test`, the
    same k-probe layout as the span-dedup Bloom route).

    Exact-route equivalence (large ``m_bits``) and the never-miss
    superset property are pytest-pinned."""
    from .spans import _BLOOM_K, _bloom_indices, _bloom_test

    if min_docs < 2 or min_docs > 200:
        raise ValueError("bloom_strip_repeated_paragraphs: need 2 <= min_docs <= 200")
    n_words = (max(m_bits, 64) + 63) // 64
    m_bits = n_words * 64

    def para_hashes(b: pd.DataFrame) -> tuple[list, list, np.ndarray]:
        """(per-row paragraph lists, flat stripped texts, flat hashes)."""
        para_lists = [text.split(sep) for text in b[text_col]]
        flat = [p.strip() for paras in para_lists for p in paras]
        hashes = (
            _sha64(flat).view(np.int64) if flat else np.empty(0, dtype=np.int64)
        )
        return para_lists, flat, hashes

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        para_lists, flat, hashes = para_hashes(b)
        # the gate + within-doc dedup the exact route applies: a counted
        # paragraph is (>= min_words) and counts once per document
        rows = np.repeat(np.arange(len(para_lists)), [len(p) for p in para_lists])
        ok = np.fromiter(
            (len(p.split()) >= min_words for p in flat), dtype=bool, count=len(flat)
        )
        df = pd.DataFrame({"r": rows[ok], "h": hashes[ok]}).drop_duplicates()
        gh = df["h"].to_numpy(dtype=np.int64)
        # scattered in-place adds — no per-probe m-sized temporaries.
        # The m-sized alloc is this stage's dominant cost (int64 was 8x
        # the footprint), so use the narrowest dtype that PROVABLY can't
        # wrap: one position receives at most the batch's total probe
        # count (k layers x len(gh) adds of 1), so uint16 is exact
        # whenever that total fits — true for every real m; tiny-m test
        # corpora that exceed it fall back to uint32 (never-miss is a
        # guarantee, not a probability).
        dtype = np.uint16 if _BLOOM_K * len(gh) < 65535 else np.uint32
        acc = np.zeros(m_bits, dtype=dtype)
        for idx in _bloom_indices(gh, m_bits):
            np.add.at(acc, idx.astype(np.int64), 1)
        np.minimum(acc, min_docs, out=acc)  # in-place: no second m-temp
        return pd.DataFrame({"counts": [acc.astype(np.uint8).tobytes()]})

    # Driver merge in-place with NO per-partial clip: each partial is
    # already clipped at min_docs, and min(a+b, cap) >= cap iff
    # a+b >= cap, so the escaping bitmap is identical either way —
    # int32 sums can't wrap below ~10M partials.  (This host page-faults
    # fresh allocations pathologically slowly, so every avoided m-sized
    # temporary is a measured win.)
    acc = np.zeros(m_bits, dtype=np.int32)
    # large batch_size bundles blocks into fewer count tasks — each
    # partial costs an m-counter alloc + an m-byte ship, so fewer,
    # fuller partials are strictly better (the corpus pass itself is
    # row-bounded either way)
    for batch in ds.map_batches(
        count_partial, batch_format="pandas", batch_size=16384
    ).iter_batches(batch_format="pandas"):
        for raw in batch["counts"]:
            np.add(acc, np.frombuffer(raw, dtype=np.uint8), out=acc)
    hot = acc >= min_docs
    bits = np.zeros(n_words, dtype=np.uint64)
    pos = np.nonzero(hot)[0].astype(np.uint64)
    np.bitwise_or.at(
        bits, (pos >> np.uint64(6)).astype(np.int64), np.uint64(1) << (pos & np.uint64(63))
    )
    bits_ref = ray.put(bits)

    def strip(b: pd.DataFrame) -> pd.DataFrame:
        bm = cached_get(bits_ref)
        out = b.copy()
        para_lists, flat, hashes = para_hashes(b)
        dup = _bloom_test(bm, hashes) if len(hashes) else np.zeros(0, dtype=bool)
        new_texts = []
        pos = 0
        for paras in para_lists:
            keep = []
            for p in paras:
                sp, is_dup = flat[pos], dup[pos]
                pos += 1
                if len(sp.split()) >= min_words and is_dup:
                    continue
                keep.append(p)
            new_texts.append(sep.join(keep))
        out[text_col] = new_texts
        return out

    return ds.map_batches(strip, batch_format="pandas")


# --------------------------------------------------------------------------
# Duplicate-cluster resolution (pairs -> clusters -> representatives)
# --------------------------------------------------------------------------
def dup_clusters(pairs: pd.DataFrame, *, id_a: str = "id_a", id_b: str = "id_b") -> pd.DataFrame:
    """Connected components over a near-dup pair list -> (id, cluster_id)
    with cluster_id = min member id (deterministic).

    The pair list is orders of magnitude smaller than the corpus (only
    near-dups), so union-find on the driver is the right tool here; if the
    pair set itself outgrew one machine, run rounds of min-label
    propagation: explode pairs both ways -> groupby(id).min(label) ->
    rebroadcast until fixpoint (ray_guide near-dup note)."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs[id_a], pairs[id_b]):
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by smaller id -> deterministic representative
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    ids = sorted(set(pairs[id_a]) | set(pairs[id_b]))
    return pd.DataFrame({"id": ids, "cluster_id": [find(i) for i in ids]})


def dup_clusters_distributed(
    pairs: rd.Dataset,
    *,
    id_a: str = "id_a",
    id_b: str = "id_b",
    max_rounds: int = 50,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Connected components by MIN-LABEL PROPAGATION over Ray Datasets —
    the scale path when even the near-dup PAIR LIST outgrows one machine
    (driver union-find in ``dup_clusters`` is right below that point;
    equivalence-tested against it).

    Each round: every edge proposes label(src) to dst — labels joined to
    edges via the BUCKETED hash exchange (nothing vertex-set-sized ever
    lands on the driver or the object store as one object), then a
    hash-shard min reduce updates the label table.  Convergence is
    detected distributedly and EXACTLY for any id dtype (ints or url
    strings): the per-shard reduce sees both the proposals and the
    current label of every id in the shard, so it emits a per-row
    0/1 ``__changed`` flag alongside the new min — the driver reduces
    one partial-sum int per block.  Converges in O(cluster diameter) rounds
    (near-dup clusters are shallow); chains deeper than ``max_rounds``
    raise RuntimeError rather than silently returning a non-converged
    (multi-representative) labeling.  Returns (id, cluster_id) with
    cluster_id = min member id, identical to ``dup_clusters``.

    ``as_dataset=True`` keeps the label table a DATASET end-to-end —
    nothing vertex-set-sized ever ``to_pandas()``-es to the driver (the
    convergence check already reduces one int per block); this is the
    route ``dedup_keep_representatives(clusters="auto")`` takes past its
    probe threshold, where the labels feed a bucketed anti-join instead
    of a broadcast loser set."""
    from .relational import bucketed_hash_join, sharded_group_agg

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": np.concatenate([b[id_a].to_numpy(), b[id_b].to_numpy()]),
                "dst": np.concatenate([b[id_b].to_numpy(), b[id_a].to_numpy()]),
            }
        )

    edges = pairs.map_batches(explode, batch_format="pandas").materialize()
    if edges.count() == 0:
        # a zero-row pair list has no vertices to label; downstream
        # exchanges on a block-less dataset have no schema to plan with
        empty = pd.DataFrame(
            {"id": pd.Series(dtype="int64"), "cluster_id": pd.Series(dtype="int64")}
        )
        return rd.from_pandas(empty) if as_dataset else empty
    # initial labels: label(v) = min neighbor-or-self id per vertex
    def init_labels(b: pd.DataFrame) -> pd.DataFrame:
        lab = np.minimum(b["src"].to_numpy(), b["dst"].to_numpy())
        return pd.DataFrame({"id": b["src"], "label": lab})

    labels = sharded_group_agg(
        edges.map_batches(init_labels, batch_format="pandas"),
        ["id"],
        {"label": ("label", "min")},
    ).materialize()

    def as_id(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"src": "id"})

    def to_proposal(b: pd.DataFrame) -> pd.DataFrame:
        # proposals vs current labels distinguished by __cur so the
        # per-shard reduce can flag changes; IDENTICAL columns on both
        # union sides (a one-sided shard never sees a missing column)
        return pd.DataFrame({"id": b["dst"], "label": b["label"], "__cur": 0})

    def project(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["id", "label"]].copy()
        out["__cur"] = 1
        return out

    def min_reduce(g: pd.DataFrame) -> pd.DataFrame:
        # new label = min over proposals-and-current; changed flag from
        # comparing against the current label (every id has exactly one:
        # init_labels covers every vertex) — exact for any id dtype
        gg = g.groupby("id", as_index=False)["label"].min()
        old = g.loc[g["__cur"] == 1, ["id", "label"]].rename(columns={"label": "__old"})
        m = gg.merge(old, on="id", how="left")
        m["__changed"] = (m["label"] != m["__old"]).astype("int64")
        return m[["id", "label", "__changed"]]

    def count_changed(ds: rd.Dataset) -> int:
        # distributed partial sums; the driver reduces one int per block
        parts = ds.map_batches(
            lambda b: pd.DataFrame({"s": [int(b["__changed"].sum())]}),
            batch_format="pandas",
        ).to_pandas()
        return int(parts["s"].sum())

    def drop_flag(b: pd.DataFrame) -> pd.DataFrame:
        return b[["id", "label"]]

    converged = False
    for _ in range(max_rounds):
        # label(src) attached to each edge via the bucketed exchange
        j = bucketed_hash_join(
            edges.map_batches(as_id, batch_format="pandas"),
            labels,
            "id",
            how="inner",
        )
        proposals = j.map_batches(to_proposal, batch_format="pandas")
        flagged = exchange(
            proposals.union(labels.map_batches(project, batch_format="pandas")),
            "id",
            min_reduce,
        ).materialize()
        labels = flagged.map_batches(drop_flag, batch_format="pandas")
        if count_changed(flagged) == 0:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"dup_clusters_distributed: no convergence after {max_rounds} rounds "
            "(a component's diameter exceeds max_rounds) — raise max_rounds; "
            "returning partial labels would keep multiple representatives per "
            "true cluster with no signal"
        )
    if as_dataset:
        # keep dtypes as the exchange produced them (string ids stay
        # strings); the driver never holds the vertex set
        return labels.map_batches(
            lambda b: b.rename(columns={"label": "cluster_id"}), batch_format="pandas"
        )
    out = labels.to_pandas().rename(columns={"label": "cluster_id"})
    out["id"] = out["id"].astype("int64")
    out["cluster_id"] = out["cluster_id"].astype("int64")
    return out.sort_values("id").reset_index(drop=True)


def _losers_pairs_df(pairs_df: pd.DataFrame) -> frozenset:
    comp = dup_clusters(pairs_df)
    return frozenset(comp.loc[comp["id"] != comp["cluster_id"], "id"])


def dedup_keep_representatives(
    ds: rd.Dataset,
    pairs: pd.DataFrame | rd.Dataset,
    id_col: str,
    *,
    clusters: str = "driver",
    driver_threshold_rows: int = 2_000_000,
) -> rd.Dataset:
    """Drop every near-dup cluster member except the minimum-id
    representative.  Composes with any pair source (minhash / simhash /
    ngram / cosine).

    ``clusters`` routes the component resolution:
      * "driver" — union-find on the driver, loser set broadcast
        (right while the pair list fits one machine).
      * "distributed" — min-label propagation over Datasets
        (``dup_clusters_distributed(as_dataset=True)``); labels never
        land on the driver, and the losers are dropped via the BUCKETED
        anti-join exchange instead of a broadcast set — the route for
        corpus-scale dup rates where the pair list / loser set are
        themselves corpus-sized.
      * "auto" — ``probe_head`` on the pair list (the house size-aware
        planner pattern): a pandas pair list or one under
        ``driver_threshold_rows`` takes the driver route (the probe IS
        the pair table, one execution); past the threshold the
        distributed route runs.  Routes are equivalence-tested."""
    from .relational import anti_join, probe_head

    if isinstance(pairs, pd.DataFrame) and pairs.empty:
        return ds
    if clusters == "auto":
        if isinstance(pairs, pd.DataFrame):
            clusters = "driver"
        else:
            head = probe_head(pairs, driver_threshold_rows)
            if head is not None:
                if head.shape[1] == 0 or head.empty:  # empty pair Dataset
                    return ds
                pairs = head
                clusters = "driver"
            else:
                clusters = "distributed"
        from .relational import _log_route

        _log_route("dedup_keep_representatives", clusters)
    if clusters == "distributed":
        pairs_ds = pairs if isinstance(pairs, rd.Dataset) else rd.from_pandas(pairs)
        # empty pair list -> nothing to drop (and a map-derived empty
        # Dataset has no schema for the exchange to plan over)
        if len(pairs_ds.limit(1).take_all()) == 0:
            return ds
        labels = dup_clusters_distributed(pairs_ds, as_dataset=True)

        def losers_only(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({id_col: b.loc[b["id"] != b["cluster_id"], "id"]})

        losers_ds = labels.map_batches(losers_only, batch_format="pandas")
        from .relational import freeze_list_columns, thaw_list_columns

        frozen, spec = freeze_list_columns(ds)
        kept = anti_join(frozen, losers_ds, id_col, method="bucketed")
        return thaw_list_columns(kept, spec)

    pairs_df = pairs.to_pandas() if isinstance(pairs, rd.Dataset) else pairs
    if pairs_df.empty:
        return ds
    ref = ray.put(_losers_pairs_df(pairs_df))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[~batch[id_col].isin(cached_get(ref))]

    return ds.map_batches(keep, batch_format="pandas")


# --------------------------------------------------------------------------
# Embedding cosine near-dup
# --------------------------------------------------------------------------
_EMPTY_COS_PAIRS = {
    "id_a": "int64",
    "id_b": "int64",
    "cosine": "float64",
}


def _cos_pairs_empty() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EMPTY_COS_PAIRS.items()})


def embedding_cosine_pairs(
    ds: rd.Dataset,
    emb_col: str,
    id_col: str,
    *,
    threshold: float = 0.95,
    method: str = "auto",
    n_bands: int = 24,
    band_bits: int = 16,
    seed: int = 5,
    candidate_threshold_rows: int = 2_000_000,
) -> pd.DataFrame:
    """Pairs with cosine similarity >= threshold.

    ``method="auto"`` routes by threshold: the DEFAULT near-dup regime
    (threshold >= 0.8) uses the LSH-BUCKETED path — random-hyperplane band
    signatures, one candidate-pair shuffle over (id, band, bucket), exact
    cosine verification of the (pair-set-sized) candidates; no full-matrix
    broadcast anywhere.  Low thresholds (< 0.8, where hyperplane buckets
    stop pruning — nearly every pair collides somewhere) use the exact
    blocked-matmul path against a broadcast normalized matrix, which is
    dense-output anyway at such thresholds.

    LSH recall: a pair agrees on one of ``n_bands`` bands of ``band_bits``
    sign bits with prob 1-(1-p^bits)^bands, p = 1 - acos(cos)/pi; at the
    defaults a 0.95-cosine pair is missed with ~1e-2 prob per band
    structure — raise n_bands for stricter recall; identical-direction
    vectors (true copies) are ALWAYS found (identical signatures)."""
    if method == "auto":
        method = "lsh" if threshold >= 0.8 else "exact"
    if method == "exact":
        return _cosine_pairs_exact(ds, emb_col, id_col, threshold=threshold)

    first = ds.take(1)
    if not first:
        return _cos_pairs_empty()
    dim = len(first[0][emb_col])
    planes = _hyperplanes(dim, n_bands * band_bits, seed)
    planes_ref = ray.put(planes)

    def sig(batch: pd.DataFrame) -> pd.DataFrame:
        pl = cached_get(planes_ref)
        m = np.stack(batch[emb_col].to_numpy()).astype(np.float64)
        n = len(batch)
        bhs = np.empty((n, n_bands), dtype=np.int64)
        for b in range(n_bands):
            band_planes = pl[b * band_bits : (b + 1) * band_bits]
            bhs[:, b] = bucket_ids(m, band_planes).astype(np.int64)
        out = pd.DataFrame(
            {
                id_col: np.repeat(batch[id_col].to_numpy(), n_bands),
                "band": np.tile(np.arange(n_bands), n),
                "bh": bhs.ravel(),
            }
        )
        return out

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["band", "bh"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        out = m[[f"{id_col}_a", f"{id_col}_b"]].drop_duplicates()
        return out.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})

    from .relational import probe_head

    sig_keys = ds.map_batches(sig, batch_format="pandas")
    # size-aware candidate route (same planner as minhash): when the
    # (id, band, bucket) table fits the probe, one driver self-merge
    # replaces the shard exchange — identical pairs
    head = probe_head(sig_keys, candidate_threshold_rows)
    pairs = None
    if head is not None:
        pairs = shard_pairs(head) if head.shape[1] > 0 else _cos_pairs_empty()[["id_a", "id_b"]]
    if pairs is None:
        pairs = (
            exchange(sig_keys, "bh", shard_pairs)
            .to_pandas()
            .drop_duplicates()
        )
    if pairs.empty:
        return _cos_pairs_empty()

    # exact verification: fetch ONLY involved embeddings (candidate pairs
    # are near-dup-sized, orders of magnitude below the corpus); at 10^12
    # rows swap this broadcast fetch for a bucketed join of pairs against
    # the embeddings on id.
    involved = frozenset(pairs["id_a"]) | frozenset(pairs["id_b"])
    inv_ref = ray.put(involved)

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch[id_col].isin(cached_get(inv_ref))][[id_col, emb_col]]

    emb = ds.map_batches(pick, batch_format="pandas").to_pandas()
    mat = np.stack(emb[emb_col].to_numpy()).astype(np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    pos = {i: r for r, i in enumerate(emb[id_col])}
    ia = np.fromiter((pos[i] for i in pairs["id_a"]), dtype=np.int64, count=len(pairs))
    ib = np.fromiter((pos[i] for i in pairs["id_b"]), dtype=np.int64, count=len(pairs))
    cos = np.einsum("ij,ij->i", mat[ia], mat[ib])
    out = pairs.assign(cosine=cos)
    out = out[out["cosine"] >= threshold]
    if out.empty:
        return _cos_pairs_empty()
    if pd.api.types.is_numeric_dtype(out["id_a"]):
        out = out.astype({"id_a": "int64", "id_b": "int64"})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _cosine_pairs_exact(
    ds: rd.Dataset, emb_col: str, id_col: str, *, threshold: float
) -> pd.DataFrame:
    """Exact all-pairs threshold scan: full normalized matrix broadcast
    once, one float64 matmul per batch.  The low-threshold route (output
    is dense anyway) and the ground truth the LSH path is tested against."""
    full = ds.select_columns([id_col, emb_col]).to_pandas().sort_values(id_col)
    ids = full[id_col].to_numpy()
    m = np.stack(full[emb_col].to_numpy()).astype(np.float64)
    m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, m))

    class Block:
        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            self.ids, self.m = cached_get(ref)
            q = np.stack(batch[emb_col].to_numpy()).astype(np.float64)
            q /= np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
            sims = q @ self.m.T
            qa, qb = np.nonzero(sims >= threshold)
            bids = batch[id_col].to_numpy()
            a, b, s = bids[qa], self.ids[qb], sims[qa, qb]
            keep = a < b  # dedupe + drop self-pairs
            return pd.DataFrame({"id_a": a[keep], "id_b": b[keep], "cosine": s[keep]})

    pairs = ds.map_batches(Block(), batch_format="pandas").to_pandas()
    if pairs.empty:
        return _cos_pairs_empty()
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def fingerprint_near_dup_pairs(
    ds: rd.Dataset,
    fp_col: str,
    id_col: str,
    *,
    max_hamming: int = 6,
    n_bands: int = 8,
    max_posting: int = 1000,
    pairs_threshold_rows: int = 2_000_000,
    within_col: str | None = None,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Banded hamming near-duplicate pairs over ANY 64-bit fingerprint
    column (image dHash/aHash, audio codes, rolling-hash digests — the
    Manku 2007 pigeonhole generalized beyond text SimHash, which keeps
    its own behavior-pinned 16-bit banding in `simhash_near_dup_pairs`):
    the fingerprint splits into ``n_bands`` disjoint ``64 // n_bands``-bit
    bands; hamming distance <= n_bands - 1 forces at least one identical
    band, so band-equality candidates have COMPLETE recall at that
    radius.  Returns ``(id_a, id_b, hamming)`` for pairs at XOR-popcount
    distance <= ``max_hamming`` sharing a non-skew band bucket.

    ``within_col`` restricts candidates to rows sharing that column's
    value (aligned video frame slots, per-language text, per-source
    partitions) — the group value joins the band key, so cross-group
    pairs never form and never cost candidate volume; the output then
    carries the group value as a third key column (one row per
    (id_a, id_b, group)), so per-group matches count separately.

    Scale shape = the SimHash route's (candidates and verification FUSE:
    the 8-byte fingerprint rides the band exchange, each shard verifies
    its own candidates with one vectorized self-merge + XOR popcount;
    ``max_posting`` drops degenerate buckets before the merge; the
    cross-band pair dedupe finishes size-aware)."""
    if 64 % n_bands != 0:
        raise ValueError(f"n_bands must divide 64, got {n_bands}")
    if not 0 <= max_hamming <= n_bands - 1:
        raise ValueError(
            f"pigeonhole guarantee needs 0 <= max_hamming <= n_bands-1 "
            f"= {n_bands - 1}, got {max_hamming}"
        )
    width = 64 // n_bands
    mask = np.uint64((1 << width) - 1)
    bucket_cols = ["bi", "bv"] + (["wc"] if within_col else [])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        if n == 0:
            out = pd.DataFrame(
                {
                    id_col: b[id_col].iloc[:0],
                    "fp": pd.Series(dtype="uint64"),
                    "bi": pd.Series(dtype="int64"),
                    "bv": pd.Series(dtype="int64"),
                }
            )
            if within_col:
                out["wc"] = b[within_col].iloc[:0]
            return out
        fp = b[fp_col].to_numpy().astype(np.uint64)
        out = pd.DataFrame(
            {
                id_col: np.tile(b[id_col].to_numpy(), n_bands),
                "fp": np.tile(fp, n_bands),
                "bi": np.repeat(np.arange(n_bands, dtype=np.int64), n),
                "bv": np.concatenate(
                    [
                        ((fp >> np.uint64(width * bi)) & mask).astype(np.int64)
                        for bi in range(n_bands)
                    ]
                ),
            }
        )
        if within_col:
            out["wc"] = np.tile(b[within_col].to_numpy(), n_bands)
        return out

    exploded = ds.map_batches(explode, batch_format="pandas")

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": g[id_col].iloc[:0],
                "id_b": g[id_col].iloc[:0],
                "hamming": pd.Series(dtype="int64"),
            }
        )
        if within_col:
            empty["wc"] = g["wc"].iloc[:0]
        sizes = g.groupby(bucket_cols)[id_col].transform("size")
        g = g[sizes <= max_posting]
        if g.empty:
            return empty
        m = g.merge(g, on=bucket_cols, suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if m.empty:
            return empty
        x = m["fp_a"].to_numpy(dtype=np.uint64) ^ m["fp_b"].to_numpy(
            dtype=np.uint64
        )
        m = m.assign(hamming=_popcount64(x))
        m = m[m["hamming"] <= max_hamming]
        cols = [f"{id_col}_a", f"{id_col}_b"] + (["wc"] if within_col else [])
        out = m[cols + ["hamming"]].rename(
            columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"}
        )
        return out.drop_duplicates(["id_a", "id_b"] + (["wc"] if within_col else []))

    from .relational import probe_head, sharded_group_agg

    pair_keys = ["id_a", "id_b"] + (["wc"] if within_col else [])

    def finalize(pairs: pd.DataFrame) -> pd.DataFrame:
        pairs["hamming"] = pairs["hamming"].astype("int64")
        if within_col:
            pairs = pairs.rename(columns={"wc": within_col})
        order = ["id_a", "id_b"] + ([within_col] if within_col else [])
        return pairs.sort_values(order).reset_index(drop=True)[
            order + ["hamming"]
        ]

    head = probe_head(exploded, pairs_threshold_rows)
    if head is not None:
        pairs = (
            shard_pairs(head)
            if head.shape[1] > 0
            else pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "hamming": pd.Series(dtype="int64"),
                    **({"wc": pd.Series(dtype="object")} if within_col else {}),
                }
            )
        )
        pairs = finalize(pairs.drop_duplicates(pair_keys))
        return rd.from_pandas(pairs) if as_dataset else pairs
    cand = exchange(exploded, bucket_cols, shard_pairs)
    deduped = sharded_group_agg(
        cand, pair_keys, {"hamming": ("hamming", "min")},
    )
    if as_dataset:
        if within_col:
            deduped = deduped.map_batches(
                lambda b: b.rename(columns={"wc": within_col}),
                batch_format="pandas",
            )
        return deduped
    out = deduped.to_pandas()
    if out.shape[1] == 0:
        # an empty Dataset to_pandas()-es COLUMNLESS (the probe_head
        # contract) — return the typed empty instead
        out = pd.DataFrame(
            {
                "id_a": pd.Series(dtype="object"),
                "id_b": pd.Series(dtype="object"),
                "hamming": pd.Series(dtype="int64"),
                **({"wc": pd.Series(dtype="object")} if within_col else {}),
            }
        )
    return finalize(out)
