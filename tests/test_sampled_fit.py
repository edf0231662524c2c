"""Sampled-fit routes for the full-corpus trainers (round-4 verdict item
#4): `kmeans_fit(fit_rows=)` / `semdedup(fit_rows=)` (the SemDeDup paper
fits centroids on a sample), `logreg_fit(fit_rows=)` (fastText-style
filters train on seed samples), and the `semdedup(max_cluster_rows=)`
giant-cluster sub-blocking guard.  The exact full-pass routes stay the
default and keep their round-4 tests; these pin that the sampled routes
preserve the planted-ground-truth behavior."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ocr_platform_ray.ops.cluster import assign_clusters, kmeans_fit, semdedup
from ocr_platform_ray.ops.classifier import logreg_fit, logreg_score


def _blobs(n_per=20, dups=0, seed=5, dim=8):
    """3 well-separated blobs on the sphere (the TestKmeansSemdedup
    fixture); optionally plant `dups` near-identical triples in blob 0."""
    rng = np.random.RandomState(seed)
    centers = np.eye(3, dim) * 10.0
    rows, ids = [], []
    i = 0
    for b in range(3):
        for _ in range(n_per):
            v = centers[b] + rng.randn(dim) * 0.3
            rows.append(v / np.linalg.norm(v))
            ids.append(i)
            i += 1
    for _ in range(dups):
        v = centers[0] + rng.randn(dim) * 0.3
        for _ in range(3):
            w = v + rng.randn(dim) * 1e-4
            rows.append(w / np.linalg.norm(w))
            ids.append(i)
            i += 1
    return pd.DataFrame({"vec_id": ids, "embedding": [r.tolist() for r in rows]})


@pytest.mark.usefixtures("ray_session")
class TestSampledKmeans:
    def test_sampled_fit_recovers_blobs(self):
        df = _blobs(n_per=40)
        ds = rd.from_pandas(df).repartition(5)
        # fit on a 45-row sample of the 120 rows; assignment stays full
        cent = kmeans_fit(ds, k=3, n_iters=5, seed=7, fit_rows=45)
        a = assign_clusters(ds, cent).to_pandas().sort_values("vec_id")
        groups = [set(a["cluster"][i * 40 : (i + 1) * 40]) for i in range(3)]
        assert all(len(g) == 1 for g in groups)
        assert len(set.union(*groups)) == 3

    def test_sampled_fit_deterministic(self):
        df = _blobs(n_per=30)
        c1 = kmeans_fit(rd.from_pandas(df), k=3, n_iters=4, seed=7, fit_rows=40)
        c2 = kmeans_fit(
            rd.from_pandas(df).repartition(6), k=3, n_iters=4, seed=7, fit_rows=40
        )
        # same seeded sample + local Lloyd -> identical centroids
        assert np.array_equal(c1, c2)

    def test_small_input_sampled_equals_spec(self):
        # fit_rows >= corpus: the "sample" is the whole corpus; the local
        # route must still produce 3 pure blobs
        df = _blobs()
        cent = kmeans_fit(rd.from_pandas(df), k=3, n_iters=5, seed=7, fit_rows=10_000)
        a = assign_clusters(rd.from_pandas(df), cent).to_pandas().sort_values("vec_id")
        groups = [set(a["cluster"][i * 20 : (i + 1) * 20]) for i in range(3)]
        assert all(len(g) == 1 for g in groups)


@pytest.mark.usefixtures("ray_session")
class TestSampledSemdedup:
    def test_planted_triples_on_sampled_route(self):
        df = _blobs(dups=4)
        ds = rd.from_pandas(df).repartition(5)
        kept = semdedup(
            ds, threshold=0.99995, k=3, n_iters=5, seed=7, fit_rows=50
        ).to_pandas()
        # each planted triple collapses to one survivor; blob points stay
        assert len(kept) == 60 + 4
        assert len(kept[kept["vec_id"] >= 60]) == 4

    def test_giant_cluster_guard_bounds_blocks(self):
        # one tight cluster of 30 planted near-dup pairs; cap forces
        # sub-blocking, pairs live in one id-ordered sub-block each
        rng = np.random.RandomState(3)
        rows, ids = [], []
        base = rng.randn(8)
        base /= np.linalg.norm(base)
        i = 0
        for _ in range(30):
            v = base + rng.randn(8) * 0.05
            v /= np.linalg.norm(v)
            for _ in range(2):  # adjacent ids -> same sub-block at cap 2
                w = v + rng.randn(8) * 1e-5
                rows.append((w / np.linalg.norm(w)).tolist())
                ids.append(i)
                i += 1
        df = pd.DataFrame({"vec_id": ids, "embedding": rows})
        kept = semdedup(
            rd.from_pandas(df).repartition(4),
            threshold=0.99999,
            k=1,
            n_iters=2,
            seed=7,
            max_cluster_rows=2,
        ).to_pandas()
        # every pair (2i, 2i+1) collapses to one survivor inside its
        # sub-block; the cap never mixes pairs
        assert len(kept) == 30
        assert sorted(kept["vec_id"] // 2) == list(range(30))

    def test_guard_validates(self):
        df = _blobs()
        with pytest.raises(ValueError):
            semdedup(rd.from_pandas(df), max_cluster_rows=0).to_pandas()


@pytest.mark.usefixtures("ray_session")
class TestSampledLogreg:
    @staticmethod
    def _corpora(n=300, seed=11):
        rng = np.random.RandomState(seed)
        good_vocab = ["research", "method", "result", "careful", "measured", "study"]
        bad_vocab = ["click", "winner", "free", "casino", "now", "prize"]
        mk = lambda vocab: [
            " ".join(rng.choice(vocab, size=12)) for _ in range(n)
        ]
        return pd.DataFrame({"text": mk(good_vocab)}), pd.DataFrame(
            {"text": mk(bad_vocab)}
        )

    def test_sampled_fit_separates_held_out(self):
        pos, neg = self._corpora()
        w = logreg_fit(
            rd.from_pandas(pos.iloc[:200]).repartition(4),
            rd.from_pandas(neg.iloc[:200]).repartition(4),
            fit_rows=120,
        )
        held = pd.concat(
            [pos.iloc[200:].assign(y=1), neg.iloc[200:].assign(y=0)],
            ignore_index=True,
        )
        scored = logreg_score(
            rd.from_pandas(held), "text", w
        ).to_pandas()
        assert scored.loc[scored["y"] == 1, "quality_score"].min() > 0.5
        assert scored.loc[scored["y"] == 0, "quality_score"].max() < 0.5

    def test_sampled_fit_bit_reproducible(self):
        pos, neg = self._corpora(n=120, seed=4)
        w1 = logreg_fit(
            rd.from_pandas(pos), rd.from_pandas(neg), fit_rows=80, n_iters=8
        )
        w2 = logreg_fit(
            rd.from_pandas(pos).repartition(7),
            rd.from_pandas(neg).repartition(3),
            fit_rows=80,
            n_iters=8,
        )
        assert np.array_equal(w1, w2)

    def test_one_class_sample_raises(self):
        # 400:2 seed corpora; the hash gate keeps ~5 % of rows and both
        # negatives hash above the cut, so the sample is all positive
        pos = pd.DataFrame({"text": [f"careful measured study {i}" for i in range(400)]})
        neg = pd.DataFrame({"text": ["free casino prize 0", "free casino prize 1"]})
        with pytest.raises(ValueError, match="only one class"):
            logreg_fit(rd.from_pandas(pos), rd.from_pandas(neg), fit_rows=20, n_iters=2)

    def test_fit_rows_larger_than_corpus_trains_on_all(self):
        pos, neg = self._corpora(n=60, seed=9)
        w = logreg_fit(
            rd.from_pandas(pos), rd.from_pandas(neg), fit_rows=10_000, n_iters=8
        )
        scored = logreg_score(
            rd.from_pandas(pd.concat([pos.assign(y=1), neg.assign(y=0)])),
            "text",
            w,
        ).to_pandas()
        assert scored.loc[scored["y"] == 1, "quality_score"].min() > 0.5
        assert scored.loc[scored["y"] == 0, "quality_score"].max() < 0.5
