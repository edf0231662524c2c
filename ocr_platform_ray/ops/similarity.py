"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k as the exact baseline: the query matrix is
broadcast once (``ray.put``), each batch does one numpy matmul and emits
its local top-k per query; the tiny candidate set reduces on the driver.
``knn_lsh`` is the scale path: random-hyperplane buckets searched with
multi-probe, trading recall for touching only matching buckets."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state.broadcast import cached_get


def _as_matrix(col) -> np.ndarray:
    m = np.stack([np.asarray(v, dtype=np.float64) for v in col])
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


class _BruteForceScore:
    def __init__(self, queries_ref, emb_col: str, id_col: str, k: int):
        self.q_ref = queries_ref
        self.emb_col, self.id_col, self.k = emb_col, id_col, k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        q = cached_get(self.q_ref)  # (n_queries, dim) normalized
        m = _as_matrix(batch[self.emb_col])
        sims = q @ m.T  # (n_queries, batch)
        ids = batch[self.id_col].to_numpy()
        k = min(self.k, sims.shape[1])
        idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        rows = {
            "query_idx": np.repeat(np.arange(sims.shape[0]), k),
            self.id_col: ids[idx].ravel(),
            "cosine": np.take_along_axis(sims, idx, axis=1).ravel(),
        }
        return pd.DataFrame(rows)


def knn_brute_force(
    ds: rd.Dataset,
    queries: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 10,
) -> pd.DataFrame:
    """Exact cosine top-k per query row.  Returns (query_idx, id, cosine)
    sorted by (query_idx, -cosine, id).  Per-batch local top-k means the
    driver-side reduce sees k x n_batches candidates, not the corpus."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    ref = ray.put(q)
    cand = ds.map_batches(
        _BruteForceScore(ref, emb_col, id_col, k), batch_format="pandas"
    ).to_pandas()
    out = (
        cand.sort_values(["query_idx", "cosine", id_col], ascending=[True, False, True])
        .groupby("query_idx", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )
    return out


class _JoinScore:
    """Per-batch exact scorer for ``knn_join``: one matmul of the
    broadcast (normalized) query matrix against the batch, local top-k
    per query — the exchange payload is <= n_queries x k rows per batch,
    never the corpus."""

    def __init__(self, q_ref, emb_col: str, right_id_col: str, q_out_col: str, k: int):
        self.q_ref = q_ref
        self.emb_col, self.right_id_col = emb_col, right_id_col
        self.q_out_col, self.k = q_out_col, k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        q_ids, q = cached_get(self.q_ref)  # (nq,), (nq, dim) normalized
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    self.q_out_col: pd.Series(dtype=q_ids.dtype),
                    self.right_id_col: batch[self.right_id_col],
                    "cosine": pd.Series(dtype="float64"),
                }
            )
        m = _as_matrix(batch[self.emb_col])
        sims = q @ m.T  # (nq, batch)
        ids = batch[self.right_id_col].to_numpy()
        k = min(self.k, sims.shape[1])
        idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        return pd.DataFrame(
            {
                self.q_out_col: np.repeat(q_ids, k),
                self.right_id_col: ids[idx].ravel(),
                "cosine": np.take_along_axis(sims, idx, axis=1).ravel(),
            }
        )


def knn_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    emb_col: str = "embedding",
    left_id_col: str = "vec_id",
    right_id_col: str = "vec_id",
    k: int = 10,
    q_out_col: str = "q_id",
    max_left_rows: int = 2_000_000,
    finish: str = "auto",
) -> rd.Dataset | pd.DataFrame:
    """Top-k VECTOR JOIN: for every row of ``left`` (the probe/query
    side), the ``k`` nearest rows of ``right`` by cosine — the batch
    form of `knn_brute_force` (retrieval eval sets, hard-negative
    mining, cross-corpus linking).  Output columns: ``(q_out_col,
    right_id_col, cosine, rk)`` with ``rk`` the dense 1-based rank per
    query, ties broken ascending by ``right_id_col`` — the SQL
    ``ROW_NUMBER() OVER (PARTITION BY q ORDER BY cosine DESC, id)``.

    Scale shape: broadcast-small-side (T2).  The probe side is collected
    ONCE and ships via ``ray.put`` (guarded by ``max_left_rows`` — a
    corpus-sized probe set should be chunked by the caller and the
    results unioned; each chunk is an independent map-only pass).  The
    corpus side streams through one ``map_batches`` matmul emitting
    local top-k partials, and the per-query global top-k finishes
    through ``grouped_top_k``'s size-aware planner (driver reduce when
    the nq x k x n_batches candidates fit, hash-shard exchange above) —
    the corpus embeddings themselves never move."""
    from .relational import grouped_top_k

    ldf = (
        left.select_columns([left_id_col, emb_col])
        .limit(max_left_rows + 1)
        .to_pandas()
    )
    if len(ldf) > max_left_rows:
        raise ValueError(
            f"knn_join probe side exceeds max_left_rows={max_left_rows}; "
            "chunk the probe set and union the per-chunk results"
        )
    q = np.stack([np.asarray(v, dtype=np.float64) for v in ldf[emb_col]])
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    q_ref = ray.put((ldf[left_id_col].to_numpy(), q))
    cand = right.map_batches(
        _JoinScore(q_ref, emb_col, right_id_col, q_out_col, k),
        batch_format="pandas",
    )
    return grouped_top_k(
        cand, [q_out_col], "cosine", k,
        descending=True, tie_col=right_id_col, finish=finish,
    )


def _hyperplanes(dim: int, n_planes: int, seed: int = 11) -> np.ndarray:
    rng = np.random.RandomState(seed)
    h = rng.randn(n_planes, dim)
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def bucket_ids(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes.T) > 0
    return (bits.astype(np.uint64) << np.arange(planes.shape[0], dtype=np.uint64)).sum(axis=1)


def knn_lsh(
    ds: rd.Dataset,
    queries: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 10,
    n_planes: int = 8,
    probe_bits: int = 1,
    dim: int | None = None,
) -> pd.DataFrame:
    """Approximate cosine top-k: random-hyperplane signature buckets; only
    rows whose bucket matches a query bucket (or differs in <= probe_bits
    bits, multi-probe) are scored.  Same output schema as knn_brute_force;
    recall < 1 by design — measure against the brute-force baseline."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    planes = _hyperplanes(q.shape[1] if dim is None else dim, n_planes)
    qb = bucket_ids(q, planes)
    # expand query buckets by multi-probe radius
    probe: set[int] = set(qb.tolist())
    if probe_bits >= 1:
        for b in qb.tolist():
            for bit in range(n_planes):
                probe.add(b ^ (1 << bit))
    # sorted ndarray so the worker-side membership test is one np.isin
    probe_ref = ray.put(np.array(sorted(probe), dtype=np.uint64))
    planes_ref = ray.put(planes)
    q_ref = ray.put(q)

    class Probe:
        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            self.probe = cached_get(probe_ref)
            self.planes = cached_get(planes_ref)
            self.q = cached_get(q_ref)
            m = _as_matrix(batch[emb_col])
            bk = bucket_ids(m, self.planes)
            mask = np.isin(bk, self.probe)
            if not mask.any():
                return pd.DataFrame({"query_idx": [], id_col: [], "cosine": []})
            m, ids = m[mask], batch[id_col].to_numpy()[mask]
            sims = self.q @ m.T
            kk = min(k, sims.shape[1])
            idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            return pd.DataFrame(
                {
                    "query_idx": np.repeat(np.arange(sims.shape[0]), kk),
                    id_col: ids[idx].ravel(),
                    "cosine": np.take_along_axis(sims, idx, axis=1).ravel(),
                }
            )

    cand = ds.map_batches(Probe(), batch_format="pandas").to_pandas()
    if cand.empty:
        return cand
    return (
        cand.sort_values(["query_idx", "cosine", id_col], ascending=[True, False, True])
        .groupby("query_idx", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN: coarse k-means cells, probe the nearest n_probe
# ---------------------------------------------------------------------------
def train_ivf_centroids(
    ds: rd.Dataset,
    *,
    emb_col: str = "embedding",
    n_cells: int = 16,
    n_iters: int = 10,
    sample_limit: int = 20000,
    seed: int = 23,
) -> np.ndarray:
    """Deterministic coarse quantizer: k-means on a size-capped SEEDED
    RANDOM sample (fixed seed init, fixed iteration count, cosine/IP
    metric on normalized vectors).  A head `limit()` sample would be
    biased whenever the input is ordered (by source, by time, …);
    `random_sample(frac, seed)` draws across all blocks.  Training stays
    driver-side because centroids are tiny."""
    n_total = ds.count()
    if n_total > sample_limit:
        frac = min(1.0, (1.5 * sample_limit) / n_total)  # oversample, then cap
        sampled = ds.random_sample(frac, seed=seed).limit(sample_limit)
    else:
        sampled = ds
    sample = _as_matrix(sampled.to_pandas()[emb_col])
    rng = np.random.RandomState(seed)
    cent = sample[rng.choice(len(sample), size=min(n_cells, len(sample)), replace=False)]
    for _ in range(n_iters):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                v = members.sum(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)
    return cent


def _index_units(src_dir: str) -> list[tuple[str, list[str], str]]:
    """Source units for incremental indexing: a ``run_with_manifest``
    output contributes one unit per committed ``part-*`` directory
    (fingerprint = its manifest's rows+url_crc32 — exact under redo);
    a plain parquet directory contributes one unit per fragment file
    (fingerprint = file size)."""
    import glob as _glob
    import json as _json
    import os

    units: list[tuple[str, list[str], str]] = []
    part_dirs = sorted(_glob.glob(os.path.join(src_dir, "part-*")))
    part_dirs = [d for d in part_dirs if os.path.isdir(d) and not d.endswith(".tmp")]
    if part_dirs:
        for d in part_dirs:
            name = os.path.basename(d)
            files = sorted(_glob.glob(os.path.join(d, "*.parquet")))
            mpath = os.path.join(src_dir, "_manifest", name + ".json")
            if os.path.exists(mpath):
                with open(mpath) as f:
                    m = _json.load(f)
                fp = f"crc:{m.get('url_crc32')}:rows:{m.get('rows')}"
            else:
                fp = "sizes:" + ",".join(str(os.path.getsize(f)) for f in files)
            units.append((name, files, fp))
        return units
    for f in sorted(_glob.glob(os.path.join(src_dir, "*.parquet"))):
        units.append(
            (os.path.splitext(os.path.basename(f))[0], [f], f"size:{os.path.getsize(f)}")
        )
    return units


def knn_ivf(
    ds: rd.Dataset,
    queries: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 10,
    n_cells: int = 16,
    n_probe: int = 4,
    centroids: np.ndarray | None = None,
) -> pd.DataFrame:
    """IVF ANN: assign every row to its nearest centroid cell, score only
    rows whose cell is among each query's ``n_probe`` nearest cells.  The
    centroid matrix is broadcast once; per batch this is two matmuls + a
    mask.  Same output schema as knn_brute_force; recall grows with
    n_probe/n_cells (measured against brute force in tests).

    Scale path note: at 10^12 rows the cell assignment becomes a persisted
    column (partition by cell at ingest) so probing reads only matching
    partitions; here the filter is computed on the fly."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    if centroids is None:
        centroids = train_ivf_centroids(ds, emb_col=emb_col, n_cells=n_cells)
    n_probe = min(n_probe, len(centroids))
    q_cells = np.argsort(-(q @ centroids.T), axis=1)[:, :n_probe]  # (nq, n_probe)
    probe_cells = frozenset(q_cells.ravel().tolist())
    cent_ref = ray.put(centroids)
    cells_ref = ray.put(probe_cells)
    q_ref = ray.put((q, q_cells))

    class CellProbe:
        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            cent = cached_get(cent_ref)
            cells = cached_get(cells_ref)
            qm, qc = cached_get(q_ref)
            m = _as_matrix(batch[emb_col])
            assign = np.argmax(m @ cent.T, axis=1)
            mask = np.isin(assign, list(cells))
            if not mask.any():
                return pd.DataFrame({"query_idx": [], id_col: [], "cosine": []})
            m, ids, assign = m[mask], batch[id_col].to_numpy()[mask], assign[mask]
            sims = qm @ m.T  # (nq, n_rows)
            out_q, out_id, out_cos = [], [], []
            for qi in range(sims.shape[0]):
                allowed = np.isin(assign, qc[qi])
                if not allowed.any():
                    continue
                s = sims[qi][allowed]
                rid = ids[allowed]
                kk = min(k, len(s))
                idx = np.argpartition(-s, kk - 1)[:kk]
                out_q.extend([qi] * kk)
                out_id.extend(rid[idx])
                out_cos.extend(s[idx])
            return pd.DataFrame({"query_idx": out_q, id_col: out_id, "cosine": out_cos})

    cand = ds.map_batches(CellProbe(), batch_format="pandas").to_pandas()
    if cand.empty:
        return cand
    return (
        cand.sort_values(["query_idx", "cosine", id_col], ascending=[True, False, True])
        .groupby("query_idx", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# Product quantization (Jegou et al. 2011, "Product Quantization for
# Nearest Neighbor Search") — the 100 TB embedding-storage shape: vectors
# compress to m bytes (dim x 8 bytes -> m), and queries score the CODES
# via per-subspace lookup tables (ADC), never touching raw vectors.
# --------------------------------------------------------------------------
def train_pq(
    ds: rd.Dataset,
    *,
    emb_col: str = "embedding",
    m: int = 8,
    n_codes: int = 256,
    n_iters: int = 10,
    sample_limit: int = 20000,
    seed: int = 29,
) -> np.ndarray:
    """Train per-subspace codebooks on a seeded size-capped sample (the
    train_ivf_centroids sampling rule): the normalized vectors split into
    ``m`` equal subspaces, each gets an L2 k-means with ``n_codes``
    centroids.  Returns the (m, n_codes, dim/m) codebook tensor
    (driver-side — m*256*dsub floats is tiny)."""
    n_total = ds.count()
    if n_total > sample_limit:
        frac = min(1.0, (1.5 * sample_limit) / n_total)
        sampled = ds.random_sample(frac, seed=seed).limit(sample_limit)
    else:
        sampled = ds
    sample = _as_matrix(sampled.to_pandas()[emb_col])
    dim = sample.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    rng = np.random.RandomState(seed)
    books = np.empty((m, min(n_codes, len(sample)), dsub), dtype=np.float64)
    for j in range(m):
        sub = sample[:, j * dsub : (j + 1) * dsub]
        cent = sub[rng.choice(len(sub), size=books.shape[1], replace=False)].copy()
        for _ in range(n_iters):
            # L2 assignment: argmin ||x-c||^2 = argmax (x.c - |c|^2/2)
            d = sub @ cent.T - 0.5 * (cent**2).sum(axis=1)[None, :]
            a = np.argmax(d, axis=1)
            for c in range(len(cent)):
                members = sub[a == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[j] = cent
    return books


def _pq_codes(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) uint8 code matrix: per subspace, L2-nearest codebook entry.

    The argmax rounds to 12 decimals first: BLAS matmul kernels vary
    with the MATRIX SHAPE, so an exact tie (duplicate centroids happen
    on low-entropy data) could otherwise break differently per block
    size — encoding must be a pure function of the vector."""
    n, m = mat.shape[0], books.shape[0]
    dsub = books.shape[2]
    codes = np.empty((n, m), dtype=np.uint8)
    for j in range(m):
        sub = mat[:, j * dsub : (j + 1) * dsub]
        d = sub @ books[j].T - 0.5 * (books[j] ** 2).sum(axis=1)[None, :]
        codes[:, j] = np.argmax(np.round(d, 12), axis=1).astype(np.uint8)
    return codes


def pq_encode(
    ds: rd.Dataset,
    codebooks: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Map-only encode: every row becomes (id, ``pq_code`` = m bytes).
    The codebook tensor broadcasts once via ``ray.put``; raw vectors
    never leave their block again — downstream search reads codes only
    (dim*8 bytes -> m bytes per vector, e.g. 64x at dim=64, m=8)."""
    ref = ray.put(np.ascontiguousarray(codebooks))

    def enc(b: pd.DataFrame) -> pd.DataFrame:
        books = cached_get(ref)
        if len(b) == 0:
            return pd.DataFrame({id_col: b[id_col].iloc[:0], "pq_code": pd.Series(dtype="object")})
        mat = _as_matrix(b[emb_col])
        codes = _pq_codes(mat, books)
        return pd.DataFrame(
            {id_col: b[id_col].to_numpy(), "pq_code": [r.tobytes() for r in codes]}
        )

    return ds.map_batches(enc, batch_format="pandas")


def knn_pq(
    codes_ds: rd.Dataset,
    queries: np.ndarray,
    codebooks: np.ndarray,
    *,
    id_col: str = "vec_id",
    k: int = 10,
) -> pd.DataFrame:
    """Approximate inner-product top-k over PQ codes (asymmetric distance
    computation): each query builds one (m, n_codes) lookup table of
    subspace inner products; a row's score is m table gathers summed —
    no vector math per row, codes never decode.  Same local top-k prune
    + driver finish as knn_brute_force; same output schema with
    ``adc_ip`` in place of ``cosine`` (recall < 1 by design — measured
    against the brute-force baseline in tests)."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    m, n_codes, dsub = codebooks.shape
    # (n_queries, m, n_codes) inner-product tables
    luts = np.einsum("qjd,jcd->qjc", q.reshape(len(q), m, dsub), codebooks)
    lut_ref = ray.put(np.ascontiguousarray(luts))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        tables = cached_get(lut_ref)
        n = len(b)
        if n == 0:
            return pd.DataFrame(
                {
                    "query_idx": pd.Series(dtype="int64"),
                    id_col: b[id_col].iloc[:0],
                    "adc_ip": pd.Series(dtype="float64"),
                }
            )
        codes = np.frombuffer(b"".join(b["pq_code"]), dtype=np.uint8).reshape(n, m)
        ids = b[id_col].to_numpy()
        out_rows = []
        j_idx = np.arange(m)
        for qi in range(tables.shape[0]):
            sims = tables[qi][j_idx[None, :], codes].sum(axis=1)  # (n,)
            kk = min(k, n)
            idx = np.argpartition(-sims, kk - 1)[:kk]
            out_rows.append(
                pd.DataFrame(
                    {"query_idx": qi, id_col: ids[idx], "adc_ip": sims[idx]}
                )
            )
        return pd.concat(out_rows, ignore_index=True)

    cand = codes_ds.map_batches(score, batch_format="pandas").to_pandas()
    return (
        cand.sort_values(["query_idx", "adc_ip", id_col], ascending=[True, False, True])
        .groupby("query_idx", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )


def build_ivf_pq_index(
    ds: rd.Dataset,
    out_dir: str,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_cells: int = 16,
    m: int = 16,
    n_codes: int = 256,
    centroids: np.ndarray | None = None,
    codebooks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """IVF-PQ — the canonical huge-corpus ANN composition: coarse
    centroids route queries to cells (partition-pruned READS), product
    quantization stores each vector as ``m`` bytes inside its cell.  One
    map pass assigns the cell AND encodes; the persisted layout is
    cell-partitioned parquet of (id, pq_code, cell_id) — raw vectors are
    not stored at all.  Returns (centroids, codebooks)."""
    import os

    if centroids is None:
        centroids = train_ivf_centroids(ds, emb_col=emb_col, n_cells=n_cells)
    if codebooks is None:
        codebooks = train_pq(ds, emb_col=emb_col, m=m, n_codes=n_codes)
    ref = ray.put((centroids, np.ascontiguousarray(codebooks)))

    def assign_encode(batch: pd.DataFrame) -> pd.DataFrame:
        cent, books = cached_get(ref)
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    id_col: batch[id_col].iloc[:0],
                    "pq_code": pd.Series(dtype="object"),
                    "cell_id": pd.Series(dtype="int64"),
                    "cell": pd.Series(dtype="int64"),
                }
            )
        mat = _as_matrix(batch[emb_col])
        cells = np.argmax(np.round(mat @ cent.T, 12), axis=1).astype(np.int64)
        codes = _pq_codes(mat, books)
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(),
                "pq_code": [r.tobytes() for r in codes],
                # partition_cols consumes "cell"; "cell_id" stays IN the
                # files so the probe can restrict rows per query
                "cell_id": cells,
                "cell": cells,
            }
        )

    encoded = ds.map_batches(assign_encode, batch_format="pandas")
    os.makedirs(out_dir, exist_ok=True)
    encoded.write_parquet(out_dir, partition_cols=["cell"])
    np.save(os.path.join(out_dir, "centroids.npy"), centroids)
    np.save(os.path.join(out_dir, "codebooks.npy"), codebooks)
    return centroids, codebooks


def knn_ivf_pq(
    index_dir: str,
    queries: np.ndarray,
    *,
    id_col: str = "vec_id",
    k: int = 10,
    n_probe: int = 4,
) -> pd.DataFrame:
    """ANN over a persisted IVF-PQ index: pick each query's ``n_probe``
    nearest cells, read ONLY those cell partitions' (id, code, cell)
    rows, ADC-score codes against per-query lookup tables restricted to
    the query's own probed cells.  With ``n_probe == n_cells`` this
    equals the full-scan ``knn_pq`` under the same codebooks
    (equivalence-tested); smaller probes trade recall for reads."""
    import glob as _glob
    import os

    centroids = np.load(os.path.join(index_dir, "centroids.npy"))
    books = np.load(os.path.join(index_dir, "codebooks.npy"))
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    n_probe = min(n_probe, len(centroids))
    q_cells = np.argsort(-(q @ centroids.T), axis=1)[:, :n_probe]
    probe_cells = sorted(set(q_cells.ravel().tolist()))
    files = [
        f
        for c in probe_cells
        for f in sorted(_glob.glob(os.path.join(index_dir, f"cell={c}", "*.parquet")))
    ]
    if not files:
        return pd.DataFrame({"query_idx": [], id_col: [], "adc_ip": []})
    mq, n_codes, dsub = books.shape
    luts = np.einsum("qjd,jcd->qjc", q.reshape(len(q), mq, dsub), books)
    ref = ray.put((np.ascontiguousarray(luts), q_cells))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        tables, qc = cached_get(ref)
        n = len(b)
        if n == 0:
            return pd.DataFrame(
                {
                    "query_idx": pd.Series(dtype="int64"),
                    id_col: b[id_col].iloc[:0],
                    "adc_ip": pd.Series(dtype="float64"),
                }
            )
        codes = np.frombuffer(b"".join(b["pq_code"]), dtype=np.uint8).reshape(n, mq)
        ids = b[id_col].to_numpy()
        cells = b["cell_id"].to_numpy()
        j_idx = np.arange(mq)
        out_rows = []
        for qi in range(tables.shape[0]):
            mask = np.isin(cells, qc[qi])
            if not mask.any():
                continue
            sims = tables[qi][j_idx[None, :], codes[mask]].sum(axis=1)
            kk = min(k, len(sims))
            idx = np.argpartition(-sims, kk - 1)[:kk]
            out_rows.append(
                pd.DataFrame(
                    {"query_idx": qi, id_col: ids[mask][idx], "adc_ip": sims[idx]}
                )
            )
        if not out_rows:
            return pd.DataFrame(
                {
                    "query_idx": pd.Series(dtype="int64"),
                    id_col: b[id_col].iloc[:0],
                    "adc_ip": pd.Series(dtype="float64"),
                }
            )
        return pd.concat(out_rows, ignore_index=True)

    cand = (
        rd.read_parquet(files, columns=[id_col, "pq_code", "cell_id"])
        .map_batches(score, batch_format="pandas")
        .to_pandas()
    )
    return (
        cand.sort_values(["query_idx", "adc_ip", id_col], ascending=[True, False, True])
        .groupby("query_idx", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )
