"""Distributed k-means over an embedding column, and SemDeDup semantic
near-deduplication (Abbas et al. 2023, arXiv:2303.09540) built on it.

Scale shape:
- ``kmeans_fit`` runs Lloyd iterations with MAP-SIDE partial sums: each
  iteration is one pass over the corpus where every batch emits k rows
  (cluster, count, vector sum); the driver reduces k x n_blocks tiny
  partials and updates k x dim centroids.  Vectors never cross an
  exchange; centroids broadcast via ``ray.put`` once per iteration.
- ``semdedup`` is the paper's trick made explicit: pairwise cosine
  comparison happens ONLY within a k-means cluster, never corpus-wide.
  Rows move exactly once through one hash-shard exchange on the cluster
  label (the ``sharded_group_agg`` house pattern — NOT per-group
  ``map_groups``, whose per-group Python overhead dominates at large k);
  each shard resolves its clusters with one G x G matmul + vectorized
  min-label propagation per cluster.  Choose k so corpus_size / k
  keeps G x G affordable (the paper uses k ~ sqrt-corpus-sized, e.g.
  50k clusters for LAION-440M).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state.broadcast import cached_get
from .exchange import exchange
from .similarity import _as_matrix


def _init_centroids(
    ds: rd.Dataset, emb_col: str, k: int, seed: int, sample_limit: int
) -> np.ndarray:
    """Seeded-random-sample init (the train_ivf_centroids sampling rule:
    a head limit() would bias toward the first blocks)."""
    n_total = ds.count()
    if n_total > sample_limit:
        frac = min(1.0, (1.5 * sample_limit) / n_total)
        sampled = ds.random_sample(frac, seed=seed).limit(sample_limit)
    else:
        sampled = ds
    sample = _as_matrix(sampled.to_pandas()[emb_col])
    return _farthest_point_init(sample, k, seed)


def _farthest_point_init(sample: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Greedy farthest-point init (deterministic k-means++ flavor): a
    plain random draw can seed two centroids inside one tight cluster,
    which Lloyd cannot escape."""
    rng = np.random.RandomState(seed)
    kk = min(k, len(sample))
    first = int(rng.randint(len(sample)))
    chosen = [first]
    best_sim = sample @ sample[first]
    for _ in range(kk - 1):
        nxt = int(np.argmin(best_sim))  # least similar to any chosen seed
        chosen.append(nxt)
        best_sim = np.maximum(best_sim, sample @ sample[nxt])
    return sample[chosen].copy()


def _lloyd_local(m: np.ndarray, cent: np.ndarray, n_iters: int) -> np.ndarray:
    """Lloyd iterations over an in-memory sample matrix — same update
    rule as the distributed pass (argmax assignment, ties to the lowest
    cluster id, empty clusters keep their centroid, spherical
    renormalize)."""
    kk = len(cent)
    for _ in range(n_iters):
        a = np.argmax(m @ cent.T, axis=1)
        counts = np.bincount(a, minlength=kk)
        sums = np.zeros((kk, m.shape[1]), dtype=np.float64)
        np.add.at(sums, a, m)
        new = cent.copy()
        nz = counts > 0
        norms = np.maximum(np.linalg.norm(sums[nz], axis=1), 1e-12)
        new[nz] = sums[nz] / norms[:, None]
        cent = new
    return cent


def kmeans_fit(
    ds: rd.Dataset,
    *,
    emb_col: str = "embedding",
    k: int = 16,
    n_iters: int = 10,
    seed: int = 23,
    init: np.ndarray | None = None,
    sample_limit: int = 20000,
    fit_rows: int | None = None,
) -> np.ndarray:
    """Spherical k-means (cosine / inner product on normalized vectors).
    Deterministic: seeded init, fixed iteration count, ties to the
    lowest cluster id (np.argmax).  Returns the (k, dim) centroid
    matrix.

    ``fit_rows=None`` (default) runs every Lloyd iteration over the FULL
    dataset — n_iters map passes with fixed-size (cluster, count, vsum)
    partials, the exact route tests pin.  ``fit_rows=N`` is the
    SAMPLED-FIT route (round-4 verdict item #4; the SemDeDup paper
    itself fits centroids on a sample): ONE seeded sample pass pulls at
    most N vectors, and the Lloyd iterations run locally on that matrix
    — corpus passes drop from n_iters to 1 regardless of n_iters.
    Centroids differ from the full fit only through sampling (same
    update rule); downstream assignment stays full + map-only either
    way."""
    if fit_rows is not None:
        n_total = ds.count()
        if n_total > fit_rows:
            # deterministic content-hash gate (the logreg_fit/
            # stratified_sample pattern): keep a vector iff
            # hash(bytes, seed-salt) < frac * 2^64 — stable under ANY
            # block structure or parallelism, unlike random_sample's
            # per-block RNG
            frac = min(1.0, (1.5 * fit_rows) / n_total)
            salt = f"kmeansfit{seed:07d}"[:16].ljust(16, "x")

            def gate(b: pd.DataFrame) -> pd.DataFrame:
                key = np.array(
                    [
                        np.asarray(v, dtype=np.float64).tobytes()
                        for v in b[emb_col]
                    ],
                    dtype=object,
                )
                h = pd.util.hash_array(key, hash_key=salt)
                # float compare (np.uint64(int) overflows past 2^63)
                keep = h.astype(np.float64) / float(2**64) < frac
                out = b[keep].copy()
                out["__h"] = h[keep]
                return out

            sample = ds.map_batches(gate, batch_format="pandas").to_pandas()
            # canonical order (Ray block order is run-dependent), bounded
            sample = sample.sort_values("__h", kind="mergesort").head(fit_rows)
        else:
            sample = ds.to_pandas()
        m = _as_matrix(sample[emb_col])
        cent = (
            np.asarray(init, dtype=np.float64)
            if init is not None
            else _farthest_point_init(m[:sample_limit], k, seed)
        )
        return _lloyd_local(m, cent, n_iters)
    cent = (
        np.asarray(init, dtype=np.float64)
        if init is not None
        else _init_centroids(ds, emb_col, k, seed, sample_limit)
    )
    kk = len(cent)

    for _ in range(n_iters):
        ref = ray.put(cent)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            if len(b) == 0:  # empty block: np.stack would raise
                return pd.DataFrame(
                    {
                        "cluster": pd.Series(dtype="int64"),
                        "count": pd.Series(dtype="int64"),
                        "vsum": pd.Series(dtype="object"),
                    }
                )
            c = cached_get(ref)
            m = _as_matrix(b[emb_col])
            a = np.argmax(m @ c.T, axis=1)
            counts = np.bincount(a, minlength=kk).astype(np.int64)
            sums = np.zeros((kk, m.shape[1]), dtype=np.float64)
            np.add.at(sums, a, m)
            return pd.DataFrame(
                {
                    "cluster": np.arange(kk, dtype=np.int64),
                    "count": counts,
                    "vsum": [row.tolist() for row in sums],
                }
            )

        parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
        new = cent.copy()
        g = parts.groupby("cluster")
        for cid, grp in g:
            n = int(grp["count"].sum())
            if n == 0:
                continue  # empty cluster keeps its old centroid
            v = np.sum(np.stack([np.asarray(x) for x in grp["vsum"]]), axis=0)
            new[int(cid)] = v / max(np.linalg.norm(v), 1e-12)
        cent = new
    return cent


def assign_clusters(
    ds: rd.Dataset,
    centroids: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Map-only: (id, cluster, centroid_sim) against broadcast centroids."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype=b[id_col].dtype if id_col in b else "int64"),
                    "cluster": pd.Series(dtype="int64"),
                    "centroid_sim": pd.Series(dtype="float64"),
                }
            )
        c = cached_get(ref)
        m = _as_matrix(b[emb_col])
        sims = m @ c.T
        a = np.argmax(sims, axis=1)
        return pd.DataFrame(
            {
                id_col: b[id_col],
                "cluster": a.astype(np.int64),
                "centroid_sim": sims[np.arange(len(a)), a],
            }
        )

    return ds.map_batches(assign, batch_format="pandas")


def _resolve_cluster(ids, m, csim, threshold):
    """One cluster: connected components over cosine > threshold via
    vectorized min-label propagation; keep, per component, the row
    FARTHEST from the centroid (lowest centroid_sim — the SemDeDup
    keep rule), ties to the lowest id.  Returns kept positions."""
    G = len(ids)
    if G == 1:
        return np.array([0])
    adj = (m @ m.T) > threshold
    np.fill_diagonal(adj, True)
    labels = np.arange(G)
    for _ in range(G):
        # min label over neighbors, fully vectorized: mask non-edges to G
        nb = np.where(adj, labels[None, :], G)
        new = nb.min(axis=1)
        if np.array_equal(new, labels):
            break
        labels = new
    keep = []
    order = np.lexsort((ids, csim))  # ascending centroid_sim, then id
    seen = set()
    for pos in order:
        c = labels[pos]
        if c not in seen:
            seen.add(c)
            keep.append(pos)
    return np.asarray(sorted(keep))


def semdedup(
    ds: rd.Dataset,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    k: int = 16,
    n_iters: int = 10,
    seed: int = 23,
    centroids: np.ndarray | None = None,
    n_shards: int = 32,
    fit_rows: int | None = None,
    max_cluster_rows: int = 100_000,
) -> rd.Dataset:
    """SemDeDup (Abbas et al. 2023): embedding near-dup removal where the
    quadratic pairwise step is confined to k-means clusters.  Returns
    (id, cluster, centroid_sim) for the KEPT rows: per duplicate
    component (cosine > threshold, within-cluster), the row farthest
    from its centroid survives — the paper's keep-low-centroid-similarity
    rule, deterministic via the (centroid_sim, id) order.

    ``fit_rows`` selects the SAMPLED centroid fit (`kmeans_fit`
    docstring — the paper itself fits on a sample; corpus passes drop
    from n_iters to 1).  ``max_cluster_rows`` bounds the per-cluster
    G x G pairwise: a cluster larger than the cap is split into
    deterministic id-ordered sub-blocks resolved independently — memory
    stays <= cap² per task on ANY skew (a degenerate centroid can
    otherwise attract a corpus-sized cluster); dups straddling two
    sub-blocks of one giant cluster are missed, the standard bounded-
    memory trade the cap documents (raise k so clusters stay under the
    cap when full within-cluster recall matters)."""
    if max_cluster_rows < 1:
        raise ValueError("max_cluster_rows must be >= 1")
    if centroids is None:
        centroids = kmeans_fit(
            ds, emb_col=emb_col, k=k, n_iters=n_iters, seed=seed,
            fit_rows=fit_rows,
        )
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def project(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype=b[id_col].dtype if id_col in b else "int64"),
                    "cluster": pd.Series(dtype="int64"),
                    "centroid_sim": pd.Series(dtype="float64"),
                    "__vec": pd.Series(dtype="object"),
                }
            )
        c = cached_get(ref)
        m = _as_matrix(b[emb_col])
        sims = m @ c.T
        a = np.argmax(sims, axis=1)
        return pd.DataFrame(
            {
                id_col: b[id_col],
                "cluster": a.astype(np.int64),
                "centroid_sim": sims[np.arange(len(a)), a],
                "__vec": [row.tolist() for row in m],  # normalized, moves once
            }
        )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("cluster"):
            if len(grp) > max_cluster_rows:
                # giant-cluster guard: deterministic id-ordered sub-blocks
                grp = grp.sort_values(id_col, kind="mergesort")
                chunks = [
                    grp.iloc[i : i + max_cluster_rows]
                    for i in range(0, len(grp), max_cluster_rows)
                ]
            else:
                chunks = [grp]
            for sub in chunks:
                ids = sub[id_col].to_numpy()
                m = np.stack([np.asarray(v) for v in sub["__vec"]])
                csim = sub["centroid_sim"].to_numpy()
                kept = _resolve_cluster(ids, m, csim, threshold)
                outs.append(sub.iloc[kept][[id_col, "cluster", "centroid_sim"]])
        if not outs:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype=g[id_col].dtype),
                    "cluster": pd.Series(dtype="int64"),
                    "centroid_sim": pd.Series(dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    return exchange(
        ds.map_batches(project, batch_format="pandas"),
        lambda b, n: b["cluster"].to_numpy() % n,
        per_shard,
        n_shards=n_shards,
    )


# ---------------------------------------------------------------------------
# Distributed PCA (embedding dimensionality reduction)
# ---------------------------------------------------------------------------

def pca_fit(
    ds: rd.Dataset,
    *,
    emb_col: str = "embedding",
    k: int = 2,
) -> dict:
    """Principal components of an embedding column — the dimensionality
    -reduction step before ANN/clustering when raw dims are wasteful
    (e.g. 768 -> 64 before IVF; the classic covariance-eigen route).

    Scale shape: ONE map pass emits fixed-size (n, Σx, XᵀX) moment
    partials per batch (the grouped_moments pattern — d + d² floats per
    block regardless of rows); the driver reduce and the d×d eigen
    decomposition are dimension-sized, never corpus-sized.  Float sums
    accumulate in block order, so components are reproducible to ~1e-12
    but not bit-stable across block structures (the pagerank float
    rule; tests compare at rtol).  Deterministic sign: each component's
    largest-|entry| coordinate is made positive.

    Returns {"mean": (d,), "components": (k, d) row-orthonormal,
    "explained_variance": (k,), "n": int}."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"n": pd.Series(dtype="int64"),
                                 "s": pd.Series(dtype=object),
                                 "xtx": pd.Series(dtype=object)})
        m = np.stack([np.asarray(v, dtype=np.float64) for v in b[emb_col]])
        return pd.DataFrame(
            {
                "n": [len(m)],
                "s": [m.sum(axis=0).tobytes()],
                "xtx": [(m.T @ m).ravel().tobytes()],
            }
        )

    parts = (
        ds.select_columns([emb_col])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    if len(parts) == 0 or int(parts["n"].sum()) < 2:
        raise ValueError("pca_fit: need at least 2 vectors")
    n = int(parts["n"].sum())
    s = None
    xtx = None
    for sb, xb in zip(parts["s"], parts["xtx"]):
        sv = np.frombuffer(sb, dtype=np.float64)
        xv = np.frombuffer(xb, dtype=np.float64)
        s = sv.copy() if s is None else s + sv
        xtx = xv.copy() if xtx is None else xtx + xv
    d = len(s)
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    mean = s / n
    cov = (xtx.reshape(d, d) - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:k]
    comps = evecs[:, order].T  # (k, d)
    # deterministic sign: largest-|entry| coordinate positive
    for i in range(len(comps)):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return {
        "mean": mean,
        "components": comps,
        "explained_variance": np.maximum(evals[order], 0.0),
        "n": n,
    }


def pca_transform(
    ds: rd.Dataset,
    model: dict,
    *,
    emb_col: str = "embedding",
    out_col: str = "pca",
) -> rd.Dataset:
    """Project the embedding column onto the fitted components — MAP-ONLY
    (model broadcast once via ray.put, one matmul per batch)."""
    ref = ray.put((np.asarray(model["mean"]), np.asarray(model["components"])))

    def proj(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        if len(b) == 0:
            out[out_col] = pd.Series(dtype=object)
            return out
        mean, comps = cached_get(ref)
        m = np.stack([np.asarray(v, dtype=np.float64) for v in b[emb_col]])
        z = (m - mean) @ comps.T
        out[out_col] = list(z)
        return out

    return ds.map_batches(proj, batch_format="pandas")
