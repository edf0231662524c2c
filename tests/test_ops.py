"""Correctness tests for the ops layer: joins/aggregates against pandas
ground truth, near-dup estimators against exact Jaccard, ANN recall
against brute force (SURVEY.md §5)."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd


@pytest.fixture(scope="module")
def docs_df():
    rng = np.random.RandomState(3)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    texts = []
    for i in range(60):
        words = [vocab[rng.randint(len(vocab))] for _ in range(rng.randint(6, 20))]
        texts.append(" ".join(words))
    # exact duplicates
    texts[10] = texts[3]
    texts[11] = texts[3]
    # near duplicate (one word changed)
    t = texts[5].split()
    t[0] = "OMEGA"
    texts[12] = " ".join(t)
    return pd.DataFrame({"doc_id": range(60), "text": texts})


@pytest.mark.usefixtures("ray_session")
class TestDedup:
    def test_exact_dedup_keeps_min_id_and_counts(self, docs_df):
        from ocr_platform_ray.ops.dedup import exact_dedup

        out = exact_dedup(rd.from_pandas(docs_df), "text", "doc_id").to_pandas()
        want = docs_df.groupby("text", as_index=False).agg(
            doc_id=("doc_id", "min"), n_dups=("doc_id", "size")
        )
        got = out[["doc_id", "n_dups"]].sort_values("doc_id").reset_index(drop=True)
        want = want[["doc_id", "n_dups"]].sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))

    def _exact_jaccard(self, a: str, b: str, k: int = 3) -> float:
        def sh(t):
            toks = t.split()
            if len(toks) < k:
                return {t}
            return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}

        A, B = sh(a), sh(b)
        return len(A & B) / len(A | B)

    def test_ngram_jaccard_matches_bruteforce(self, docs_df):
        from ocr_platform_ray.ops.dedup import ngram_jaccard_pairs

        got = ngram_jaccard_pairs(rd.from_pandas(docs_df), "text", "doc_id", threshold=0.5)
        texts = docs_df.set_index("doc_id")["text"]
        want = []
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                jac = self._exact_jaccard(texts[i], texts[j])
                if jac >= 0.5:
                    want.append((i, j, round(jac, 6)))
        got_set = {(int(r.id_a), int(r.id_b), round(r.jaccard, 6)) for r in got.itertuples()}
        assert got_set == set(want)
        assert len(want) >= 3  # duplicates actually present in the fixture

    def test_minhash_finds_exact_dups_and_estimates(self, docs_df):
        from ocr_platform_ray.ops.dedup import minhash_lsh_duplicates

        pairs = minhash_lsh_duplicates(rd.from_pandas(docs_df), "text", "doc_id", threshold=0.5)
        found = {(int(r.id_a), int(r.id_b)) for r in pairs.itertuples()}
        # exact duplicates MUST be found with est_jaccard == 1.0
        assert {(3, 10), (3, 11), (10, 11)} <= found
        ests = {(int(r.id_a), int(r.id_b)): r.est_jaccard for r in pairs.itertuples()}
        assert ests[(3, 10)] == 1.0

    def test_simhash_identical_for_dups(self, docs_df):
        from ocr_platform_ray.ops.dedup import simhash_buckets

        out = simhash_buckets(rd.from_pandas(docs_df), "text", "doc_id").to_pandas()
        h = out.set_index("doc_id")["simhash"]
        assert h[3] == h[10] == h[11]
        # near-dup differs in few bits
        ham = bin(int(h[5]) ^ int(h[12])).count("1")
        assert ham <= 16

    def test_exact_dedup_bucketed_winners_matches_broadcast(self, docs_df):
        from ocr_platform_ray.ops.dedup import exact_dedup

        a = (
            exact_dedup(rd.from_pandas(docs_df), "text", "doc_id", winners="broadcast")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        b = (
            exact_dedup(rd.from_pandas(docs_df), "text", "doc_id", winners="bucketed")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)], check_dtype=False)

    def test_minhash_candidate_routes_equivalent(self, docs_df):
        # driver self-merge (auto, small) == forced shard exchange
        from ocr_platform_ray.ops.dedup import minhash_lsh_duplicates

        ds = rd.from_pandas(docs_df)
        auto = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.5)
        exch = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.5, candidates="exchange")
        forced = minhash_lsh_duplicates(
            ds, "text", "doc_id", threshold=0.5, candidate_threshold_rows=0
        )
        pd.testing.assert_frame_equal(auto, exch)
        pd.testing.assert_frame_equal(auto, forced)

    def test_minhash_bucketed_verify_matches_broadcast(self, docs_df):
        from ocr_platform_ray.ops.dedup import minhash_lsh_duplicates

        ds = rd.from_pandas(docs_df)
        a = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.5, verify="broadcast")
        b = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.5, verify="bucketed")
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0

    def test_embedding_cosine_pairs_exact(self):
        from ocr_platform_ray.ops.dedup import embedding_cosine_pairs

        rng = np.random.RandomState(5)
        m = rng.randn(40, 16).astype(np.float32)
        m[7] = m[2] + 0.01 * rng.randn(16)  # near-dup pair
        df = pd.DataFrame({"vec_id": range(40), "embedding": list(m)})
        out = embedding_cosine_pairs(rd.from_pandas(df), "embedding", "vec_id", threshold=0.95)
        assert (2, 7) in {(int(r.id_a), int(r.id_b)) for r in out.itertuples()}
        # verify against numpy brute force
        mn = m.astype(np.float64)
        mn /= np.linalg.norm(mn, axis=1, keepdims=True)
        sims = mn @ mn.T
        want = {(i, j) for i in range(40) for j in range(i + 1, 40) if sims[i, j] >= 0.95}
        assert {(int(r.id_a), int(r.id_b)) for r in out.itertuples()} == want

    def test_embedding_cosine_lsh_matches_exact(self):
        # the default bucketed (LSH) route must recover the same pairs as
        # the exact full-matrix route at the near-dup threshold
        from ocr_platform_ray.ops.dedup import embedding_cosine_pairs

        rng = np.random.RandomState(9)
        m = rng.randn(120, 24).astype(np.float64)
        for src, dst in [(2, 50), (7, 51), (11, 52), (30, 53), (44, 54)]:
            m[dst] = m[src] + 0.01 * rng.randn(24)  # planted near-dups
        df = pd.DataFrame({"vec_id": range(120), "embedding": list(m)})
        ds = rd.from_pandas(df)
        lsh = embedding_cosine_pairs(ds, "embedding", "vec_id", threshold=0.95, method="lsh")
        exact = embedding_cosine_pairs(ds, "embedding", "vec_id", threshold=0.95, method="exact")
        got = {(int(r.id_a), int(r.id_b)) for r in lsh.itertuples()}
        want = {(int(r.id_a), int(r.id_b)) for r in exact.itertuples()}
        assert got == want and len(want) >= 5
        # cosines agree (LSH verifies candidates exactly)
        merged = lsh.merge(exact, on=["id_a", "id_b"], suffixes=("_l", "_e"))
        assert np.allclose(merged["cosine_l"], merged["cosine_e"])

    def test_embedding_cosine_auto_routing(self):
        from ocr_platform_ray.ops.dedup import embedding_cosine_pairs

        rng = np.random.RandomState(4)
        m = rng.randn(30, 8)
        df = pd.DataFrame({"vec_id": range(30), "embedding": list(m)})
        ds = rd.from_pandas(df)
        # low threshold -> exact route; results must match explicit exact
        auto = embedding_cosine_pairs(ds, "embedding", "vec_id", threshold=0.4, method="auto")
        exact = embedding_cosine_pairs(ds, "embedding", "vec_id", threshold=0.4, method="exact")
        pd.testing.assert_frame_equal(auto, exact)


@pytest.mark.usefixtures("ray_session")
class TestJoins:
    @pytest.fixture()
    def tables(self):
        rng = np.random.RandomState(7)
        left = pd.DataFrame({"k": rng.randint(0, 20, 200), "v": rng.randn(200)})
        right = pd.DataFrame({"k": range(15), "name": [f"n{i}" for i in range(15)]})
        return left, right

    def test_broadcast_join_matches_pandas(self, tables):
        from ocr_platform_ray.ops.relational import broadcast_hash_join

        left, right = tables
        got = (
            broadcast_hash_join(rd.from_pandas(left), rd.from_pandas(right), "k")
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        want = left.merge(right, on="k", how="left").sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_bucketed_join_matches_pandas(self, tables):
        from ocr_platform_ray.ops.relational import bucketed_hash_join

        left, right = tables
        got = (
            bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right), "k")
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        want = left.merge(right, on="k", how="inner").sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want)

    def test_bucketed_join_one_sided_buckets(self):
        # keys present on only ONE side must not break a bucket's schema
        # (the dropna column-inference bug dropped key columns for
        # one-sided buckets) and all-NA columns must survive
        from ocr_platform_ray.ops.relational import bucketed_hash_join

        left = pd.DataFrame({"k": [1, 2, 3, 100], "v": [1.0, 2.0, 3.0, 4.0]})
        right = pd.DataFrame({"k": [2, 3, 999], "name": ["b", "c", "z"], "all_na": [None] * 3})
        got = (
            bucketed_hash_join(
                rd.from_pandas(left), rd.from_pandas(right), "k", how="inner"
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = left.merge(right, on="k", how="inner").sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want)
        assert "all_na" in got.columns
        assert got["k"].dtype == np.dtype("int64")

    def test_left_outer_join_routes_match_pandas(self, tables):
        # how="left" must keep unmatched left rows (NaN right columns) on
        # BOTH planner routes — the TPC-H Q13 (custdist) join shape
        from ocr_platform_ray.ops.relational import auto_join

        left, right = tables  # left has k in [0,20); right only [0,15)
        want = (
            left.merge(right, on="k", how="left")
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        assert want["name"].isna().any()  # fixture really exercises unmatched
        for thresh in (2_000_000, 0):  # broadcast route, then bucketed
            got = (
                auto_join(
                    rd.from_pandas(left), rd.from_pandas(right), "k",
                    how="left", broadcast_threshold_rows=thresh,
                )
                .to_pandas()
                .sort_values(["k", "v"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(
                got[want.columns], want, check_dtype=False
            )

    def test_full_and_right_outer_join_match_pandas(self, tables):
        # outer joins only exist on the bucketed exchange (a broadcast
        # probe would emit unmatched small rows once per batch); auto_join
        # must route them there even when the right side is tiny
        from ocr_platform_ray.ops.relational import auto_join, broadcast_hash_join

        left, right = tables
        # make BOTH sides have unmatched keys
        right = pd.concat(
            [right, pd.DataFrame({"k": [97, 98], "name": ["x97", "x98"]})],
            ignore_index=True,
        )
        for how in ("outer", "right"):
            want = (
                left.merge(right, on="k", how=how)
                .sort_values(["k", "v", "name"])
                .reset_index(drop=True)
            )
            got = (
                auto_join(rd.from_pandas(left), rd.from_pandas(right), "k", how=how)
                .to_pandas()
                .sort_values(["k", "v", "name"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
            # unmatched right keys present exactly once
            assert (got["k"] == 97).sum() == 1 and (got["k"] == 98).sum() == 1
        with pytest.raises(ValueError, match="broadcast route"):
            broadcast_hash_join(rd.from_pandas(left), right, "k", how="outer")

    def test_auto_join_matches_bucketed(self, tables):
        # planner equivalence: broadcast route (small side) == exchange
        from ocr_platform_ray.ops.relational import auto_join, bucketed_hash_join

        left, right = tables
        l, r = rd.from_pandas(left), rd.from_pandas(right)
        via_auto = (
            auto_join(l, r, "k", how="inner").to_pandas()
            .sort_values(["k", "v"]).reset_index(drop=True)
        )
        via_exchange = (
            auto_join(l, r, "k", how="inner", broadcast_threshold_rows=0).to_pandas()
            .sort_values(["k", "v"]).reset_index(drop=True)
        )
        via_bucketed = (
            bucketed_hash_join(l, r, "k", how="inner").to_pandas()
            .sort_values(["k", "v"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(via_auto[via_bucketed.columns], via_bucketed)
        pd.testing.assert_frame_equal(via_exchange, via_bucketed)

    def test_semi_anti_partition(self, tables):
        from ocr_platform_ray.ops.relational import anti_join, semi_join

        left, right = tables
        s = semi_join(rd.from_pandas(left), rd.from_pandas(right), "k").to_pandas()
        a = anti_join(rd.from_pandas(left), rd.from_pandas(right), "k").to_pandas()
        assert len(s) + len(a) == len(left)
        assert set(s["k"]) <= set(right["k"])
        assert set(a["k"]).isdisjoint(set(right["k"]))

    def test_unknown_semi_anti_method_raises_on_driver(self, tables):
        # an unknown route must not fall through to the driver key set
        from ocr_platform_ray.ops.relational import anti_join, semi_join

        left, right = tables
        for fn in (semi_join, anti_join):
            with pytest.raises(ValueError, match="bucket"):
                fn(rd.from_pandas(left), rd.from_pandas(right), "k", method="bucket")

    def test_semi_anti_bucketed_matches_broadcast(self, tables):
        # route equivalence: the distributed bucketed exchange (and the
        # auto planner forced onto it) must match the broadcast key set
        from ocr_platform_ray.ops.relational import anti_join, semi_join

        left, right = tables
        l, r = rd.from_pandas(left), rd.from_pandas(right)

        def norm(df):
            return df.sort_values(["k", "v"]).reset_index(drop=True)

        for fn in (semi_join, anti_join):
            base = norm(fn(l, r, "k").to_pandas())
            buck = norm(fn(l, r, "k", method="bucketed").to_pandas())
            auto = norm(fn(l, r, "k", method="auto", broadcast_threshold_rows=0).to_pandas())
            pd.testing.assert_frame_equal(buck[base.columns], base)
            pd.testing.assert_frame_equal(auto[base.columns], base)

    def test_auto_join_overlap_column_names_stable_across_routes(self):
        # the broadcast and bucketed routes must agree on collision
        # naming (r_<col>), so the schema doesn't flip when the build
        # side crosses the broadcast threshold
        from ocr_platform_ray.ops.relational import auto_join

        left = pd.DataFrame({"k": [1, 2, 3], "x": [10, 20, 30], "v": [1.0, 2.0, 3.0]})
        right = pd.DataFrame({"k": [1, 2, 4], "x": [91, 92, 94], "name": ["a", "b", "d"]})
        l, r = rd.from_pandas(left), rd.from_pandas(right)
        via_bcast = (
            auto_join(l, r, "k", how="inner").to_pandas()
            .sort_values("k").reset_index(drop=True)
        )
        via_exchange = (
            auto_join(l, r, "k", how="inner", broadcast_threshold_rows=0).to_pandas()
            .sort_values("k").reset_index(drop=True)
        )
        assert set(via_bcast.columns) == {"k", "x", "v", "r_x", "name"}
        assert set(via_exchange.columns) == set(via_bcast.columns)
        pd.testing.assert_frame_equal(
            via_exchange[via_bcast.columns], via_bcast, check_dtype=False
        )
        assert via_bcast["x"].tolist() == [10, 20]
        assert via_bcast["r_x"].tolist() == [91, 92]


@pytest.mark.usefixtures("ray_session")
class TestSimilarity:
    def test_lsh_recall_vs_bruteforce(self):
        from ocr_platform_ray.ops.similarity import knn_brute_force, knn_lsh

        rng = np.random.RandomState(11)
        m = rng.randn(400, 32)
        df = pd.DataFrame({"vec_id": range(400), "embedding": list(m)})
        q = m[:3]
        bf = knn_brute_force(rd.from_pandas(df), q, k=10)
        ap = knn_lsh(rd.from_pandas(df), q, k=10, n_planes=6, probe_bits=1)
        recalls = []
        for qi in range(3):
            want = set(bf[bf.query_idx == qi].vec_id)
            got = set(ap[ap.query_idx == qi].vec_id)
            recalls.append(len(want & got) / len(want))
        # multi-probe LSH over 6 planes should keep decent recall
        assert np.mean(recalls) >= 0.5
        # the query vector itself (cosine 1.0) always survives bucketing
        for qi in range(3):
            assert qi in set(ap[ap.query_idx == qi].vec_id)

    def test_bruteforce_topk_correct(self):
        from ocr_platform_ray.ops.similarity import knn_brute_force

        rng = np.random.RandomState(13)
        m = rng.randn(100, 8)
        df = pd.DataFrame({"vec_id": range(100), "embedding": list(m)})
        out = knn_brute_force(rd.from_pandas(df), m[0], k=5)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = mn @ mn[0]
        want = set(np.argsort(-sims)[:5].tolist())
        assert set(out.vec_id) == want


@pytest.mark.usefixtures("ray_session")
class TestAsofJoin:
    def _gt(self, left, right, key, ts, extra):
        outs = []
        for k, lg in left.groupby(key):
            lg = lg.sort_values(ts)
            rg = right[right[key] == k].sort_values(ts)
            if rg.empty:
                m = lg.copy()
                for c in extra:
                    m[c] = np.nan
            else:
                m = pd.merge_asof(lg, rg.drop(columns=[key]), on=ts, direction="backward")
            outs.append(m)
        return pd.concat(outs).sort_values(["ev", ts]).reset_index(drop=True)

    def test_asof_matches_pandas(self):
        from ocr_platform_ray.ops.relational import asof_join

        rng = np.random.RandomState(11)
        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame(
            {
                "ev": range(200),
                "user": rng.randint(0, 12, 200),
                "ts": base + pd.to_timedelta(rng.randint(0, 10_000, 200), "s"),
            }
        )
        right = pd.DataFrame(
            {
                "user": rng.randint(0, 12, 60),
                "ts": base + pd.to_timedelta(rng.randint(0, 10_000, 60), "s"),
                "sid": np.arange(60) + 1000,
            }
        ).drop_duplicates(["user", "ts"])
        got = (
            asof_join(
                rd.from_pandas(left), rd.from_pandas(right),
                key="user", ts="ts", right_cols=["sid"],
            )
            .to_pandas()
            .sort_values(["ev", "ts"])
            .reset_index(drop=True)
        )
        want = self._gt(left, right, "user", "ts", ["sid"])
        pd.testing.assert_frame_equal(
            got[["ev", "user", "sid"]], want[["ev", "user", "sid"]], check_dtype=False
        )

    def test_asof_key_only_in_right_does_not_crash(self):
        # regression: a key with right rows but NO left rows crashed the
        # old per-key dropna path (KeyError on the sort column)
        from ocr_platform_ray.ops.relational import asof_join

        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame({"ev": [0, 1], "user": [1, 1], "ts": [base, base + pd.Timedelta("1h")]})
        right = pd.DataFrame(
            {"user": [1, 2, 3], "ts": [base, base, base], "sid": [10, 20, 30]}
        )
        got = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), key="user", ts="ts", right_cols=["sid"]
        ).to_pandas()
        assert sorted(got["ev"]) == [0, 1]  # right-only keys emit nothing
        assert list(got.sort_values("ev")["sid"]) == [10, 10]

    def test_asof_fill_names_consistent_when_right_empty(self):
        # regression: keys without right rows must fill under the SAME
        # column name as matched keys (no stray suffix), schema identical
        from ocr_platform_ray.ops.relational import asof_join

        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame(
            {"ev": [0, 1], "user": [1, 2], "ts": [base + pd.Timedelta("1h")] * 2}
        )
        right = pd.DataFrame({"user": [1], "ts": [base], "sid": [10]})
        got = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), key="user", ts="ts", right_cols=["sid"]
        ).to_pandas()
        assert "sid" in got.columns and "sid_r" not in got.columns
        got = got.sort_values("ev")
        assert got["sid"].tolist()[0] == 10 and pd.isna(got["sid"].tolist()[1])

        # all-left (no right rows at all for any key in some shards)
        right2 = pd.DataFrame({"user": [99], "ts": [base], "sid": [7]})
        got2 = asof_join(
            rd.from_pandas(left), rd.from_pandas(right2), key="user", ts="ts", right_cols=["sid"]
        ).to_pandas()
        assert set(got2.columns) == {"ev", "user", "ts", "sid"}
        assert got2["sid"].isna().all()

    def test_asof_mixed_shards_write_parquet(self, tmp_path):
        # shards where every left row matches must emit the SAME block
        # schema (float64 payload) as fill/miss shards — write_parquet
        # fails on divergent per-block schemas without the cast
        from ocr_platform_ray.ops.relational import asof_join

        base = pd.Timestamp("2024-01-01")
        rng = np.random.RandomState(3)
        left = pd.DataFrame(
            {
                "ev": range(60),
                "user": rng.randint(0, 30, 60),
                "ts": base + pd.to_timedelta(rng.randint(3600, 7200, 60), "s"),
            }
        )
        # only half the users have right rows -> some shards all-matched,
        # some shards fill NaN
        right = pd.DataFrame(
            {"user": np.arange(0, 30, 2), "ts": [base] * 15, "sid": np.arange(15) + 100}
        )
        out = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), key="user", ts="ts", right_cols=["sid"]
        )
        out.write_parquet(str(tmp_path / "asof_out"))
        back = rd.read_parquet(str(tmp_path / "asof_out")).to_pandas()
        assert len(back) == 60
        assert str(back["sid"].dtype) == "float64"
        matched = back[back["user"] % 2 == 0]
        assert (matched["sid"] == matched["user"] / 2 + 100).all()
        assert back[back["user"] % 2 == 1]["sid"].isna().all()

    def test_asof_suffix_on_collision(self):
        from ocr_platform_ray.ops.relational import asof_join

        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame(
            {"ev": [0], "user": [1], "ts": [base + pd.Timedelta("1h")], "v": [1.5]}
        )
        right = pd.DataFrame({"user": [1], "ts": [base], "v": [9.9]})
        got = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), key="user", ts="ts", right_cols=["v"]
        ).to_pandas()
        assert "v" in got.columns and "v_r" in got.columns
        assert got["v"].iloc[0] == 1.5 and got["v_r"].iloc[0] == 9.9

    def test_unknown_direction_raises_on_driver(self):
        # checked on the driver: a worker would fail with a MergeError,
        # and a shard without both sides would fill as if "backward"
        from ocr_platform_ray.ops.relational import asof_join

        left = pd.DataFrame({"user": [1], "ts": [pd.Timestamp("2024-01-01")]})
        right = pd.DataFrame({"user": [2], "ts": [pd.Timestamp("2024-01-01")], "v": [1.0]})
        with pytest.raises(ValueError, match="sideways"):
            asof_join(
                rd.from_pandas(left), rd.from_pandas(right),
                key="user", ts="ts", right_cols=["v"], direction="sideways",
            )


@pytest.mark.usefixtures("ray_session")
class TestWindows:
    def test_window_finish_routes_equivalent(self):
        # auto (driver finish at this scale) must equal the forced
        # distributed exchange route, for tumbling and hopping windows
        from ocr_platform_ray.ops.windows import hopping_window_agg, time_bucket_agg

        rng = np.random.RandomState(5)
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 20, 500),
                "ts": pd.Timestamp("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 86400, 500), "s"),
                "value": rng.randint(0, 100, 500),
            }
        )
        ds = rd.from_pandas(df)
        for fn in (time_bucket_agg, hopping_window_agg):
            auto = fn(ds)
            exch = fn(ds, finish="exchange")
            pd.testing.assert_frame_equal(auto, exch[auto.columns], check_dtype=False)

    def test_top_orders_revenue_finish_routes_equivalent(self):
        from ocr_platform_ray.pipelines.queries import q_top_orders_revenue

        a = q_top_orders_revenue("/root/testdata/sf0.001")
        b = q_top_orders_revenue("/root/testdata/sf0.001", finish="exchange")
        pd.testing.assert_frame_equal(a, b)

    def test_grouped_rolling_agg_matches_naive_sql_range_frame(self):
        # RANGE BETWEEN w PRECEDING AND CURRENT ROW semantics: boundary
        # row (exactly ts - w) IN the frame, ts peers collapse to one row,
        # per-key isolation; checked against an O(n^2) reference on data
        # with planted ties and exact-boundary gaps
        from ocr_platform_ray.ops.windows import grouped_rolling_agg

        rng = np.random.RandomState(7)
        n = 400
        base = pd.Timestamp("2024-01-01")
        # coarse second grid => plenty of exact ties and exact 1h gaps
        secs = rng.choice([0, 900, 1800, 3600, 4500, 7200], n)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 8, n),
                "ts": base + pd.to_timedelta(secs, "s"),
                "v": rng.randint(-50, 100, n).astype("int64"),
            }
        )
        w = pd.Timedelta("1h")
        got = grouped_rolling_agg(
            rd.from_pandas(df), key_col="k", ts_col="ts", value_col="v", window="1h"
        )
        rows = []
        for (k, t), grp in df.groupby(["k", "ts"]):
            sel = df[(df.k == k) & (df.ts <= t) & (df.ts >= t - w)]
            rows.append((k, t, len(grp), len(sel), sel.v.sum()))
        want = pd.DataFrame(
            rows, columns=["k", "ts", "n_at_ts", "roll_n", "roll_value"]
        ).sort_values(["k", "ts"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # boundary inclusion actually exercised: some frame spans the full
        # [t-1h, t] window with both endpoints populated
        assert (got.roll_n > got.n_at_ts).any()

    def test_grouped_rolling_agg_block_structure_independent(self):
        from ocr_platform_ray.ops.windows import grouped_rolling_agg

        rng = np.random.RandomState(11)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 5, 300),
                "ts": pd.Timestamp("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 7200, 300), "s"),
                "v": rng.randint(0, 1000, 300).astype("int64"),
            }
        )
        outs = []
        for nb in (1, 7):
            ds = rd.from_pandas(df).repartition(nb)
            outs.append(
                grouped_rolling_agg(
                    ds, key_col="k", ts_col="ts", value_col="v", window="30min"
                )
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # dataset route == pandas route
        as_ds = grouped_rolling_agg(
            rd.from_pandas(df), key_col="k", ts_col="ts", value_col="v",
            window="30min", as_dataset=True,
        ).to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            outs[0], as_ds[outs[0].columns], check_dtype=False
        )

    def test_grouped_rolling_agg_empty_input(self):
        from ocr_platform_ray.ops.windows import grouped_rolling_agg

        df = pd.DataFrame(
            {
                "k": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[us]"),
                "v": pd.Series([], dtype="int64"),
            }
        )
        out = grouped_rolling_agg(
            rd.from_pandas(df), key_col="k", ts_col="ts", value_col="v", window="1h"
        )
        assert len(out) == 0
        assert list(out.columns) == ["k", "ts", "n_at_ts", "roll_n", "roll_value"]

    def test_sessionize_gap_semantics(self):
        from ocr_platform_ray.ops.windows import sessionize

        ts = pd.to_datetime(
            ["2024-01-01 00:00", "2024-01-01 00:10", "2024-01-01 01:00", "2024-01-01 01:20",
             "2024-01-01 00:05"]
        )
        df = pd.DataFrame({"user_id": [1, 1, 1, 1, 2], "ts": ts})
        out = sessionize(rd.from_pandas(df), gap_minutes=30)
        u1 = out[out.user_id == 1]
        assert list(u1.session_id) == [0, 1]
        assert list(u1.n_events) == [2, 2]
        assert len(out[out.user_id == 2]) == 1

    def test_as_dataset_keeps_results_distributed(self):
        import ray.data as rdm

        from ocr_platform_ray.ops.windows import sessionize, time_bucket_agg

        rng = np.random.RandomState(5)
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 5, 200),
                "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(rng.randint(0, 86400, 200), "s"),
                "value": rng.randn(200),
            }
        )
        ds = rd.from_pandas(df)
        agg_ds = time_bucket_agg(ds, as_dataset=True)
        assert isinstance(agg_ds, rdm.Dataset)
        got = agg_ds.to_pandas().sort_values(["user_id", "bucket"]).reset_index(drop=True)
        want = time_bucket_agg(rd.from_pandas(df))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        sess_ds = sessionize(rd.from_pandas(df), as_dataset=True)
        assert isinstance(sess_ds, rdm.Dataset)
        assert sess_ds.count() == len(sessionize(rd.from_pandas(df)))

    def test_grouped_shift_matches_pandas(self):
        # LAG/LEAD vs the pandas ground truth, with repeated order keys
        # broken by the id tiebreaker, independent of block structure
        from ocr_platform_ray.ops.windows import grouped_shift

        rng = np.random.RandomState(11)
        df = pd.DataFrame(
            {
                "event_id": np.arange(400),
                "user_id": rng.randint(0, 12, 400),
                # coarse ts so ties happen and the tiebreaker matters
                "ts": pd.Timestamp("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 50, 400), "min"),
                "value": rng.randn(400),
            }
        )
        shifts = {
            "prev_value": ("value", 1),
            "prev2_ts": ("ts", 2),
            "next_id": ("event_id", -1),
        }
        want = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort").copy()
        gb = want.groupby("user_id", sort=False)
        for out_col, (src, n) in shifts.items():
            want[out_col] = gb[src].shift(n)
        want = want.reset_index(drop=True)
        for nblocks in (1, 7):
            ds = rd.from_pandas(df).repartition(nblocks)
            got = grouped_shift(
                ds,
                key_col="user_id",
                order_cols=["ts", "event_id"],
                shifts=shifts,
            ).reset_index(drop=True)
            pd.testing.assert_frame_equal(
                got[want.columns.tolist()], want, check_dtype=False
            )

    def test_time_bucket_agg_matches_pandas(self):
        from ocr_platform_ray.ops.windows import time_bucket_agg

        rng = np.random.RandomState(17)
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 5, 300),
                "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(rng.randint(0, 86400, 300), "s"),
                "value": rng.randn(300),
            }
        )
        got = time_bucket_agg(rd.from_pandas(df))
        want = (
            df.assign(bucket=df.ts.dt.floor("h"))
            .groupby(["user_id", "bucket"], as_index=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
            .sort_values(["user_id", "bucket"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestTextStats:
    def test_stats_and_langid(self):
        from ocr_platform_ray.ops.textstats import add_text_stats, langid_scores

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "the quick brown fox and the lazy dog in the yard",
                    "كتاب العلم نور المعرفة في التاريخ",
                    "!!! ??? ...",
                ],
            }
        )
        stats = add_text_stats(rd.from_pandas(df), "text").to_pandas().set_index("doc_id")
        assert stats.loc[0, "stopword_ratio"] > 0.2
        assert stats.loc[2, "punct_ratio"] > 0.5
        langs = langid_scores(rd.from_pandas(df), "text").to_pandas().set_index("doc_id")
        assert langs.loc[0, "pred_lang"] == "en"
        assert langs.loc[1, "pred_lang"] == "ar"

    def test_langid_wide_coverage(self):
        from ocr_platform_ray.ops.textstats import langid_scores

        samples = {
            "en": "the quick brown fox jumped over the lazy dog and the cat",
            "es": "el rápido zorro marrón que salta sobre el perro de la ciudad",
            "fr": "le renard brun saute par dessus les chiens et les chats du village",
            "de": "der schnelle braune fuchs springt und ich sehe einen schönen hund",
            "it": "la volpe che salta sopra il cane pigro di una citta con gli amici",
            "pt": "a raposa não salta sobre os cães da cidade com atenção e emoção",
            "nl": "de snelle bruine vos springt over het hek van een groot huis",
            "sv": "den snabba räven hoppar och det är en fin dag i skogen",
            "da": "den hurtige ræv hopper over det dovne dyr og er glad af naturen",
            "no": "reven hopper over hunden og det er ikke en stor sak av naturen",
            "fi": "nopea kettu hyppää laiskan koiran ylitse metsässä ja pellolla",
            "pl": "szybki lis przeskakuje nad leniwym psem i nie może się zatrzymać",
            "cs": "rychlá liška přeskočí přes líného psa a je to krásný den",
            "tr": "hızlı kahverengi tilki tembel köpeğin üzerinden atlar ve bir gün",
            "ro": "vulpea maro sare peste câinele leneș și este o zi frumoasă",
            "hu": "a gyors barna róka átugrik az lusta kutya felett egy szép napon",
            "id": "rubah coklat yang cepat melompati anjing malas di kota kemarin",
            "vi": "con cáo nâu nhanh nhẹn nhảy qua con chó lười ở thành phố",
            "ru": "быстрая рыжая лиса прыгает через ленивого пса каждого утра",
            "uk": "швидка руда лисиця стрибає через ледачого пса щоранку і їсть",
            "ar": "الثعلب البني السريع يقفز فوق الكلب الكسول في المدينة",
            "zh": "敏捷的棕色狐狸跳过了懒狗这是一个测试句子",
            "ja": "すばやい茶色のキツネは怠け者の犬を飛び越えます",
            "ko": "빠른 갈색 여우가 게으른 개를 뛰어넘습니다",
            "el": "η γρήγορη καφέ αλεπού πηδάει πάνω από το τεμπέλικο σκυλί και της πόλης",
            "he": "השועל החום המהיר קופץ מעל הכלב העצלן של העיר את הבוקר",
            "hi": "तेज भूरी लोमड़ी आलसी कुत्ते के ऊपर कूदती है और यह एक परीक्षण है",
            "th": "สุนัขจิ้งจอกสีน้ำตาลกระโดดข้ามสุนัขขี้เกียจ",
        }
        df = pd.DataFrame(
            {"doc_id": range(len(samples)), "text": list(samples.values()),
             "want": list(samples.keys())}
        )
        out = langid_scores(rd.from_pandas(df), "text").to_pandas()
        wrong = out[out["pred_lang"] != out["want"]][["want", "pred_lang", "text"]]
        assert wrong.empty, f"langid misses:\n{wrong}"

    def test_repetition_stats_gopher_signals(self):
        from ocr_platform_ray.ops.textstats import add_repetition_stats

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "same line\nsame line\nsame line\nunique one",
                    "all\ndistinct\nlines here",
                    "",  # one empty line, zero words
                    "word  word\nword",  # double space -> empty token dropped
                ],
            }
        )
        out = (
            add_repetition_stats(rd.from_pandas(df), "text")
            .to_pandas().set_index("doc_id").sort_index()
        )
        assert out.loc[0, "n_lines"] == 4 and out.loc[0, "n_distinct_lines"] == 2
        assert abs(out.loc[0, "dup_line_frac"] - 0.5) < 1e-12
        assert out.loc[1, "dup_line_frac"] == 0.0
        assert out.loc[2, "n_lines"] == 1 and out.loc[2, "mean_word_len"] == 0.0
        assert out.loc[3, "mean_word_len"] == 4.0  # 3 words of length 4

    def test_langid_batch_scorer_matches_per_row(self):
        """The vectorized _score_batch must agree row-for-row (lang AND
        rounded confidence) with the per-row reference _score."""
        from ocr_platform_ray.ops.textstats import LangId

        texts = [
            "",
            "   ",
            "a",
            "the quick brown fox and the lazy dog " * 100,  # > 2000 chars
            "كتاب العلم نور المعرفة في التاريخ",
            "быстрая лиса и ее друг",
            "швидка лисиця їсть",
            "敏捷的狐狸是一个测试",
            "すばやいキツネは犬を飛び越えます",
            "mixed english text с русскими словами и 中文",
            "1234567890 !!! ???",
            "ー" * 3000,
            "le renard et les chiens de la ville",
            "ção ão não um de os ",
        ]
        li = LangId()
        langs, confs = li._score_batch(texts)
        want = [li._score(t) for t in texts]
        assert langs == [w[0] for w in want]
        assert confs == [w[1] for w in want]
        # the pure-ASCII fast path (range scans + non-ASCII gram kernels
        # skipped) must also agree row-for-row
        ascii_texts = [
            "the quick brown fox and the lazy dog",
            "der schnelle braune fuchs und ich",
            "plain words only",
            "",
            "1234 !!!",
        ]
        langs2, confs2 = li._score_batch(ascii_texts)
        want2 = [li._score(t) for t in ascii_texts]
        assert langs2 == [w[0] for w in want2]
        assert confs2 == [w[1] for w in want2]

    def test_bpe_tokenizer_roundtrip_and_determinism(self):
        from ocr_platform_ray.functions.bpe import (
            BpeTokenizer,
            load_merges,
            pretokenize,
            train_bpe,
        )

        texts = ["the cat sat on the mat", "the bat and the cat", "matter of fact"]
        merges = train_bpe(texts, n_merges=40)
        assert merges == train_bpe(texts, n_merges=40)  # deterministic
        tok = BpeTokenizer(merges)
        for t in texts:
            toks = tok.encode(t)
            # concatenating tokens reconstructs the pretokenized words
            joined = "".join(toks).replace("</w>", " ").strip()
            assert joined == " ".join(pretokenize(t.lower()))
            assert tok.count(t) == len(toks)
        # committed table loads and merges something (fewer tokens than chars)
        committed = BpeTokenizer(load_merges())
        text = "key agg row scan slow fast table value part hash"
        assert 0 < committed.count(text) < len(text)

    def test_bpe_merge_rank_priority(self):
        from ocr_platform_ray.functions.bpe import BpeTokenizer

        # 'ab' ranks before 'bc': "abc" must merge a+b first
        tok = BpeTokenizer([("a", "b"), ("b", "c"), ("ab", "c"), ("abc", "</w>")])
        assert tok.encode_word("abc") == ["abc</w>"]
        tok2 = BpeTokenizer([("b", "c")])
        assert tok2.encode_word("abc") == ["a", "bc", "</w>"]

    def test_fingerprint_stable_and_ws_insensitive(self):
        from ocr_platform_ray.ops.textstats import doc_fingerprint

        df = pd.DataFrame(
            {"doc_id": [0, 1, 2], "text": ["hello world example text", "hello   world\texample text", "totally different content"]}
        )
        out = doc_fingerprint(rd.from_pandas(df), "text").to_pandas().set_index("doc_id")
        assert out.loc[0, "fp_digest"] == out.loc[1, "fp_digest"]  # ws-normalized
        assert out.loc[0, "fp_digest"] != out.loc[2, "fp_digest"]


@pytest.mark.usefixtures("ray_session")
class TestDupClusters:
    def test_transitive_clustering_and_representatives(self, docs_df):
        from ocr_platform_ray.ops.dedup import dedup_keep_representatives, dup_clusters

        pairs = pd.DataFrame({"id_a": [3, 10, 5, 20], "id_b": [10, 11, 12, 21]})
        clusters = dup_clusters(pairs)
        by_id = clusters.set_index("id")["cluster_id"]
        # transitivity: 3-10 and 10-11 -> one cluster with min-id rep 3
        assert by_id[3] == by_id[10] == by_id[11] == 3
        assert by_id[5] == by_id[12] == 5
        assert by_id[20] == by_id[21] == 20

        ds = rd.from_pandas(docs_df)
        kept = dedup_keep_representatives(ds, pairs, "doc_id").to_pandas()
        dropped = set(docs_df.doc_id) - set(kept.doc_id)
        assert dropped == {10, 11, 12, 21}

    def test_empty_pairs_noop(self, docs_df):
        from ocr_platform_ray.ops.dedup import dedup_keep_representatives

        ds = rd.from_pandas(docs_df)
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")})
        assert dedup_keep_representatives(ds, empty, "doc_id").count() == len(docs_df)


@pytest.mark.usefixtures("ray_session")
class TestIVF:
    def test_ivf_recall_vs_bruteforce(self):
        from ocr_platform_ray.ops.similarity import knn_brute_force, knn_ivf

        rng = np.random.RandomState(29)
        m = rng.randn(600, 32)
        df = pd.DataFrame({"vec_id": range(600), "embedding": list(m)})
        q = m[:4]
        bf = knn_brute_force(rd.from_pandas(df), q, k=10)
        iv = knn_ivf(rd.from_pandas(df), q, k=10, n_cells=8, n_probe=4)
        recalls = []
        for qi in range(4):
            want = set(bf[bf.query_idx == qi].vec_id)
            got = set(iv[iv.query_idx == qi].vec_id)
            recalls.append(len(want & got) / len(want))
        assert np.mean(recalls) >= 0.6
        # query vector itself always lands in its own probed cell
        for qi in range(4):
            assert qi in set(iv[iv.query_idx == qi].vec_id)

    def test_ivf_deterministic(self):
        from ocr_platform_ray.ops.similarity import knn_ivf

        rng = np.random.RandomState(31)
        m = rng.randn(200, 16)
        df = pd.DataFrame({"vec_id": range(200), "embedding": list(m)})
        a = knn_ivf(rd.from_pandas(df), m[0], k=5)
        b = knn_ivf(rd.from_pandas(df), m[0], k=5)
        pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
class TestNativeJoinAndSalt:
    def test_native_join_matches_bucketed(self):
        from ocr_platform_ray.ops.relational import bucketed_hash_join, native_join

        rng = np.random.RandomState(41)
        left = pd.DataFrame({"k": rng.randint(0, 30, 300), "v": rng.randn(300)})
        right = pd.DataFrame({"k": range(20), "name": [f"n{i}" for i in range(20)]})
        a = (
            native_join(rd.from_pandas(left), rd.from_pandas(right), "k", num_partitions=4)
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        b = (
            bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right), "k")
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)])


@pytest.mark.usefixtures("ray_session")
class TestCompositeKeyJoin:
    def test_two_key_join_matches_pandas(self):
        from ocr_platform_ray.ops.relational import bucketed_hash_join

        rng = np.random.RandomState(47)
        left = pd.DataFrame(
            {"a": rng.randint(0, 5, 200), "b": rng.randint(0, 4, 200), "v": rng.randn(200)}
        )
        right = pd.DataFrame(
            {"a": np.repeat(np.arange(5), 4), "b": np.tile(np.arange(4), 5), "name": range(20)}
        )
        got = (
            bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right), ["a", "b"])
            .to_pandas()
            .sort_values(["a", "b", "v"])
            .reset_index(drop=True)
        )
        want = left.merge(right, on=["a", "b"]).sort_values(["a", "b", "v"]).reset_index(drop=True)
        # the union-based exchange upcasts right-only int columns to float
        # (NaN placeholders on left rows); values must still agree exactly
        pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestColocatedJoin:
    def test_joins_without_exchange_match_pandas(self, tmp_path):
        from ocr_platform_ray.ops.colocated import colocated_join, partition_by_key

        rng = np.random.RandomState(8)
        left = pd.DataFrame({"k": rng.randint(0, 50, 400), "v": rng.randn(400)})
        right = pd.DataFrame({"k": range(40), "name": [f"n{i}" for i in range(40)]})
        ldir, rdir = str(tmp_path / "l"), str(tmp_path / "r")
        partition_by_key(rd.from_pandas(left), ldir, "k", n_shards=8)
        partition_by_key(rd.from_pandas(right), rdir, "k", n_shards=8)
        got = (
            colocated_join(ldir, rdir, how="inner")
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        want = left.merge(right, on="k", how="inner").sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
        # left join keeps unmatched keys
        got_l = colocated_join(ldir, rdir, how="left").to_pandas()
        assert len(got_l) == len(left)

    def test_layout_mismatch_refused(self, tmp_path):
        from ocr_platform_ray.ops.colocated import colocated_join, partition_by_key

        a = pd.DataFrame({"k": range(10), "v": range(10)})
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        partition_by_key(rd.from_pandas(a), d1, "k", n_shards=8)
        partition_by_key(rd.from_pandas(a), d2, "k", n_shards=16)
        with pytest.raises(ValueError, match="layout mismatch"):
            colocated_join(d1, d2)

    def test_outer_and_right_keep_right_only_rows(self, tmp_path):
        # right-only shards must be visited for outer/right joins (were
        # silently dropped), and unsupported how must be refused
        from ocr_platform_ray.ops.colocated import colocated_join, partition_by_key

        # disjoint key ranges so some shards exist on only one side
        left = pd.DataFrame({"k": range(0, 20), "v": range(0, 20)})
        right = pd.DataFrame({"k": range(10, 30), "name": [f"n{i}" for i in range(10, 30)]})
        ldir, rdir = str(tmp_path / "l"), str(tmp_path / "r")
        partition_by_key(rd.from_pandas(left), ldir, "k", n_shards=8)
        partition_by_key(rd.from_pandas(right), rdir, "k", n_shards=8)
        for how in ("outer", "right"):
            ds = colocated_join(ldir, rdir, how=how)
            # per-block schemas must agree (int payloads float64-cast in
            # EVERY shard, not just miss shards) — write_parquet rejects
            # divergent blocks
            outdir = str(tmp_path / f"joined_{how}")
            ds.write_parquet(outdir)
            got = (
                rd.read_parquet(outdir)
                .to_pandas().sort_values("k").reset_index(drop=True)
            )
            want = left.merge(right, on="k", how=how).sort_values("k").reset_index(drop=True)
            pd.testing.assert_frame_equal(
                got[want.columns].astype({"k": "int64"}), want.astype({"k": "int64"}),
                check_dtype=False,
            )
            assert set(range(20, 30)) <= set(got["k"])  # right-only keys present
        with pytest.raises(ValueError, match="unsupported how"):
            colocated_join(ldir, rdir, how="cross")


@pytest.mark.usefixtures("ray_session")
class TestQuantileSketch:
    def test_exact_when_group_fits(self):
        from ocr_platform_ray.ops.sketch import grouped_quantile_sketch

        rng = np.random.RandomState(2)
        df = pd.DataFrame({"g": rng.randint(0, 4, 200), "v": rng.randn(200)})
        out = grouped_quantile_sketch(rd.from_pandas(df), "g", "v", k=512).set_index("g")
        want = df.groupby("g")["v"].median()
        for g, m in want.items():
            assert abs(out.loc[g, "q0.5"] - m) < 1e-12
            assert out.loc[g, "n"] == (df["g"] == g).sum()

    def test_bounded_error_at_scale(self):
        from ocr_platform_ray.ops.sketch import grouped_quantile_sketch

        rng = np.random.RandomState(3)
        df = pd.DataFrame({"g": rng.randint(0, 3, 30000), "v": rng.lognormal(0, 1, 30000)})
        out = grouped_quantile_sketch(
            rd.from_pandas(df).repartition(8), "g", "v", k=256
        ).set_index("g")
        for g, grp in df.groupby("g"):
            est = out.loc[g, "q0.5"]
            # rank error bounded: estimate's true rank within 2% of 0.5
            rank = (grp["v"] < est).mean()
            assert abs(rank - 0.5) < 0.02, (g, rank)

    def test_merge_associative(self):
        from ocr_platform_ray.ops.sketch import (
            merge_sketches,
            sketch_from_values,
            sketch_quantile,
        )

        rng = np.random.RandomState(4)
        a, b, c = (rng.randn(500) for _ in range(3))
        k = 128
        s_ab_c = merge_sketches(
            [merge_sketches([sketch_from_values(a, k), sketch_from_values(b, k)], k),
             sketch_from_values(c, k)], k)
        s_a_bc = merge_sketches(
            [sketch_from_values(a, k),
             merge_sketches([sketch_from_values(b, k), sketch_from_values(c, k)], k)], k)
        exact = np.median(np.concatenate([a, b, c]))
        assert abs(sketch_quantile(s_ab_c, 0.5) - exact) < 0.05
        assert abs(sketch_quantile(s_a_bc, 0.5) - exact) < 0.05


@pytest.mark.usefixtures("ray_session")
class TestDistributedClusters:
    def test_keep_representatives_distributed_matches_driver(self, docs_df):
        from ocr_platform_ray.ops.dedup import dedup_keep_representatives

        pairs = pd.DataFrame({"id_a": [3, 10, 5], "id_b": [10, 11, 12]})
        a = (
            dedup_keep_representatives(rd.from_pandas(docs_df), pairs, "doc_id")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        b = (
            dedup_keep_representatives(
                rd.from_pandas(docs_df), pairs, "doc_id", clusters="distributed"
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)
        assert set(a.doc_id).isdisjoint({10, 11, 12})

    def test_label_propagation_matches_union_find(self):
        from ocr_platform_ray.ops.dedup import dup_clusters, dup_clusters_distributed

        rng = np.random.RandomState(13)
        # several random components incl. a long chain (worst diameter)
        pairs = []
        base = 0
        for comp in range(6):
            size = rng.randint(2, 12)
            ids = list(range(base, base + size))
            for a, b in zip(ids, ids[1:]):  # chain
                pairs.append((a, b))
            for _ in range(size // 2):  # extra random intra-edges
                pairs.append((int(rng.choice(ids)), int(rng.choice(ids))))
            base += size + rng.randint(1, 5)
        df = pd.DataFrame(pairs, columns=["id_a", "id_b"])
        df = df[df.id_a != df.id_b].drop_duplicates().reset_index(drop=True)
        want = dup_clusters(df).sort_values("id").reset_index(drop=True)
        got = dup_clusters_distributed(rd.from_pandas(df))
        pd.testing.assert_frame_equal(
            got, want.astype({"id": "int64", "cluster_id": "int64"})
        )

    def test_label_propagation_raises_on_nonconvergence(self):
        # a chain's diameter exceeds max_rounds -> loud failure, never a
        # silently multi-representative labeling
        from ocr_platform_ray.ops.dedup import dup_clusters_distributed

        chain = pd.DataFrame({"id_a": range(0, 9), "id_b": range(1, 10)})
        with pytest.raises(RuntimeError, match="no convergence"):
            dup_clusters_distributed(rd.from_pandas(chain), max_rounds=2)


@pytest.mark.usefixtures("ray_session")
class TestFuzzyJoin:
    def test_levenshtein_matches_bruteforce(self):
        from ocr_platform_ray.ops.fuzzy import levenshtein

        import itertools

        def brute(a, b):
            dp = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                ndp = [i]
                for j, cb in enumerate(b, 1):
                    ndp.append(min(dp[j] + 1, ndp[-1] + 1, dp[j - 1] + (ca != cb)))
                dp = ndp
            return dp[-1]

        words = ["", "a", "ab", "abc", "abcd", "acbd", "xabc", "abcx", "axc", "zzzz"]
        for a, b in itertools.product(words, repeat=2):
            assert levenshtein(a, b) == brute(a, b), (a, b)
            got = levenshtein(a, b, cutoff=2)
            want = brute(a, b)
            assert (got == want) if want <= 2 else (got > 2), (a, b)

    def test_fuzzy_join_exact_vs_bruteforce(self):
        from ocr_platform_ray.ops.fuzzy import fuzzy_join_lev, levenshtein

        rng = np.random.RandomState(21)
        base = ["streamer", "streaming", "dataframe", "datafound", "shuffle",
                "shuffler", "pipeline", "pipelane", "combiner", "operator"]
        lnames = [base[i % len(base)] + f"-{i:02d}" for i in range(30)]
        # right: perturbed versions (sub, del, ins) + unrelated
        rnames = []
        for i, s in enumerate(lnames):
            if i % 4 == 0:
                rnames.append(s[:3] + "#" + s[4:])       # substitution
            elif i % 4 == 1:
                rnames.append(s[:5] + s[6:])             # deletion (shift!)
            elif i % 4 == 2:
                rnames.append(s[:2] + "zz" + s[2:])      # double insert
            else:
                rnames.append("completely-other-" + str(i))
        left = pd.DataFrame({"id": range(30), "name": lnames})
        right = pd.DataFrame({"id": range(100, 130), "name": rnames})
        got = fuzzy_join_lev(
            rd.from_pandas(left), rd.from_pandas(right), id_col="id", str_col="name", max_dist=2
        )
        want = set()
        for i, a in zip(left["id"], left["name"]):
            for j, b in zip(right["id"], right["name"]):
                if levenshtein(a, b, cutoff=2) <= 2:
                    want.add((i, j))
        assert {(a, b) for a, b in zip(got["id_l"], got["id_r"])} == want
        assert len(want) >= 20  # sub/del/ins variants all found
        # distances correct
        for _, r in got.iterrows():
            a = left.set_index("id")["name"][r.id_l]
            b = right.set_index("id")["name"][r.id_r]
            assert levenshtein(a, b) == r.lev_dist

    def test_fuzzy_join_empty_and_short_strings(self):
        # lev("", b) = len(b): empty left strings must match short rights
        from ocr_platform_ray.ops.fuzzy import fuzzy_join_lev, levenshtein

        left = pd.DataFrame({"id": [0, 1, 2], "name": ["", "ab", "longername"]})
        right = pd.DataFrame({"id": [10, 11, 12, 13], "name": ["x", "", "abq", "zz"]})
        got = fuzzy_join_lev(
            rd.from_pandas(left), rd.from_pandas(right), id_col="id", str_col="name", max_dist=2
        )
        want = {
            (i, j)
            for i, a in zip(left["id"], left["name"])
            for j, b in zip(right["id"], right["name"])
            if levenshtein(a, b) <= 2
        }
        assert {(a, b) for a, b in zip(got["id_l"], got["id_r"])} == want
        assert (0, 11) in want and (0, 10) in want  # empty-empty, empty-short

    def test_fuzzy_join_random_small_strings_exhaustive(self):
        # seeded randomized sweep over SHORT strings (the pigeonhole edge
        # regime): blocked join must equal brute force exactly
        from ocr_platform_ray.ops.fuzzy import fuzzy_join_lev, levenshtein

        rng = np.random.RandomState(17)
        alpha = "abc"
        def rand_s():
            n = rng.randint(0, 6)
            return "".join(rng.choice(list(alpha)) for _ in range(n))
        left = pd.DataFrame({"id": range(25), "name": [rand_s() for _ in range(25)]})
        right = pd.DataFrame({"id": range(100, 125), "name": [rand_s() for _ in range(25)]})
        got = fuzzy_join_lev(
            rd.from_pandas(left), rd.from_pandas(right), id_col="id", str_col="name", max_dist=2
        )
        want = {
            (i, j)
            for i, a in zip(left["id"], left["name"])
            for j, b in zip(right["id"], right["name"])
            if levenshtein(a, b) <= 2
        }
        assert {(a, b) for a, b in zip(got["id_l"], got["id_r"])} == want

    def test_fuzzy_join_bucketed_verify_matches_broadcast(self):
        from ocr_platform_ray.ops.fuzzy import fuzzy_join_lev

        base = ["streamer", "dataframe", "shuffle", "pipeline", "combiner"]
        lnames = [base[i % len(base)] + f"-{i:02d}" for i in range(20)]
        rnames = [s[:3] + "#" + s[4:] if i % 2 == 0 else "other-" + str(i)
                  for i, s in enumerate(lnames)]
        left = pd.DataFrame({"id": range(20), "name": lnames})
        right = pd.DataFrame({"id": range(100, 120), "name": rnames})
        a = fuzzy_join_lev(rd.from_pandas(left), rd.from_pandas(right),
                           id_col="id", str_col="name", max_dist=2, verify="broadcast")
        b = fuzzy_join_lev(rd.from_pandas(left), rd.from_pandas(right),
                           id_col="id", str_col="name", max_dist=2, verify="bucketed")
        pd.testing.assert_frame_equal(a, b)
        assert len(a) >= 10

    def test_fuzzy_join_blocking_routes_equivalent(self):
        # driver blocking (auto, small sides) == exchange blocking, for
        # both verify routes
        from ocr_platform_ray.ops.fuzzy import fuzzy_join_lev

        base = ["streamer", "dataframe", "shuffle", "pipeline", "combiner"]
        lnames = [base[i % len(base)] + f"-{i:02d}" for i in range(20)]
        rnames = [s[:3] + "#" + s[4:] if i % 2 == 0 else "other-" + str(i)
                  for i, s in enumerate(lnames)]
        left = pd.DataFrame({"id": range(20), "name": lnames})
        right = pd.DataFrame({"id": range(100, 120), "name": rnames})
        l, r = rd.from_pandas(left), rd.from_pandas(right)
        kw = dict(id_col="id", str_col="name", max_dist=2)
        driver = fuzzy_join_lev(l, r, **kw)  # auto -> driver at this size
        exch = fuzzy_join_lev(l, r, blocking="exchange", **kw)
        forced = fuzzy_join_lev(l, r, blocking="auto", blocking_threshold_rows=0, **kw)
        drv_bucketed = fuzzy_join_lev(l, r, verify="bucketed", **kw)
        pd.testing.assert_frame_equal(driver, exch)
        pd.testing.assert_frame_equal(driver, forced)
        pd.testing.assert_frame_equal(driver, drv_bucketed)
        assert len(driver) >= 10

    def test_fuzzy_join_command_score_annotation(self):
        from ocr_platform_ray.ops.fuzzy import fuzzy_join_lev

        left = pd.DataFrame({"id": [1], "name": ["alpha beta"]})
        right = pd.DataFrame({"id": [2], "name": ["alpha bета".replace("е", "e")]})
        out = fuzzy_join_lev(
            rd.from_pandas(left), rd.from_pandas(right),
            id_col="id", str_col="name", max_dist=2, with_command_score=True,
        )
        assert "cscore" in out.columns and len(out) == 1


@pytest.mark.usefixtures("ray_session")
class TestParagraphDedup:
    def test_repeated_paragraphs_found_and_stripped(self):
        from ocr_platform_ray.ops.dedup import repeated_paragraphs, strip_repeated_paragraphs

        boiler = "subscribe to our newsletter today"
        docs = pd.DataFrame(
            {
                "doc_id": range(4),
                "text": [
                    f"unique content one\n\n{boiler}",
                    f"other unique text here\n\n{boiler}",
                    f"{boiler}\n\nthird doc body",
                    "totally clean document",
                ],
            }
        )
        rep = repeated_paragraphs(rd.from_pandas(docs), "text", "doc_id")
        assert len(rep) == 1
        assert rep.iloc[0].example_text == boiler
        assert rep.iloc[0].n_docs == 3

        cleaned = strip_repeated_paragraphs(rd.from_pandas(docs), "text", "doc_id").to_pandas()
        by_id = cleaned.set_index("doc_id")["text"]
        assert boiler not in by_id[0] and boiler not in by_id[2]
        assert by_id[0] == "unique content one"
        assert by_id[3] == "totally clean document"

    def test_within_doc_repeat_not_counted(self):
        from ocr_platform_ray.ops.dedup import repeated_paragraphs

        docs = pd.DataFrame(
            {"doc_id": [0], "text": "same para here\n\nsame para here"}
        )
        rep = repeated_paragraphs(rd.from_pandas(docs), "text", "doc_id")
        assert len(rep) == 0  # distinct-doc count, not occurrence count


@pytest.mark.usefixtures("ray_session")
@pytest.mark.usefixtures("ray_session")
class TestRollup:
    def test_rollup_matches_pandas_levels(self):
        from ocr_platform_ray.ops.relational import rollup_agg

        rng = np.random.RandomState(3)
        df = pd.DataFrame(
            {
                "a": rng.choice(["x", "y", "z"], 300),
                "b": rng.choice(["p", "q"], 300),
                "v": rng.randint(0, 100, 300),
            }
        )
        got = rollup_agg(
            rd.from_pandas(df).repartition(5),
            ["a", "b"],
            {"n": ("v", "count"), "s": ("v", "sum"),
             "lo": ("v", "min"), "hi": ("v", "max")},
        )
        frames = []
        for lvl in (["a", "b"], ["a"], []):
            if lvl:
                g = df.groupby(lvl, as_index=False).agg(
                    n=("v", "size"), s=("v", "sum"), lo=("v", "min"), hi=("v", "max")
                )
            else:
                g = pd.DataFrame(
                    {"n": [len(df)], "s": [df.v.sum()], "lo": [df.v.min()], "hi": [df.v.max()]}
                )
            for k in ("a", "b"):
                if k not in g.columns:
                    g[k] = None
            frames.append(g[["a", "b", "n", "s", "lo", "hi"]])
        want = pd.concat(frames, ignore_index=True)
        cols = ["a", "b", "n", "s", "lo", "hi"]
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
        # grand total present exactly once
        assert ((g["a"].isna()) & (g["b"].isna())).sum() == 1

    def test_rollup_rejects_non_mergeable(self):
        from ocr_platform_ray.ops.relational import rollup_agg

        ds = rd.from_pandas(pd.DataFrame({"a": ["x"], "v": [1.0]}))
        with pytest.raises(ValueError, match="non-mergeable"):
            rollup_agg(ds, ["a"], {"m": ("v", "mean")})

    def test_pivot_matches_pandas(self):
        from ocr_platform_ray.ops.relational import pivot_agg

        rng = np.random.RandomState(9)
        df = pd.DataFrame(
            {
                "idx": rng.randint(0, 30, 400),
                "p": rng.choice(["a", "b", "c"], 400),
                "v": rng.randint(0, 50, 400),
            }
        )
        want = (
            df.pivot_table(index="idx", columns="p", values="v",
                           aggfunc="sum", fill_value=0)
            .reindex(columns=["a", "b", "c"], fill_value=0)
            .reset_index()
        )
        want.columns = ["idx", "s_a", "s_b", "s_c"]
        for values in (["a", "b", "c"], None):  # static + probed domain
            got = (
                pivot_agg(
                    rd.from_pandas(df).repartition(5), "idx", "p", "v",
                    how="sum", values=values, fill_value=0, prefix="s_",
                )
                .to_pandas()
                .sort_values("idx")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(
                got.sort_values("idx").reset_index(drop=True)[want.columns],
                want.sort_values("idx").reset_index(drop=True),
                check_dtype=False,
            )

    def test_set_ops_match_pandas(self):
        from ocr_platform_ray.ops.relational import dataset_set_op

        a = pd.DataFrame({"k": [1, 1, 2, 3, 5, 5], "g": list("xxyyzz")})
        b = pd.DataFrame({"k": [2, 3, 3, 9], "g": list("yyyz")})
        da, db = rd.from_pandas(a).repartition(3), rd.from_pandas(b).repartition(2)
        inter = (
            dataset_set_op(da, db, ["k", "g"], "intersect")
            .to_pandas().sort_values(["k", "g"]).reset_index(drop=True)
        )
        assert inter.to_records(index=False).tolist() == [(2, "y"), (3, "y")]
        exc = (
            dataset_set_op(da, db, ["k", "g"], "except")
            .to_pandas().sort_values(["k", "g"]).reset_index(drop=True)
        )
        assert exc.to_records(index=False).tolist() == [(1, "x"), (5, "z")]
        with pytest.raises(ValueError, match="op must be"):
            dataset_set_op(da, db, ["k"], "union")

    def test_dataset_profile_matches_pandas(self):
        from ocr_platform_ray.ops.profile import dataset_profile

        df = pd.DataFrame(
            {
                "i": [3, 1, None, 7],
                "s": ["b", None, "a", "c"],
                "z": [None, None, None, None],
            }
        )
        for parts in (1, 3):
            got = dataset_profile(rd.from_pandas(df).repartition(parts), ["i", "s", "z"])
            got = got.set_index("col")
            assert got.loc["i", "min_v"] == "1" and got.loc["i", "max_v"] == "7"
            assert got.loc["i", "n_null"] == 1
            assert got.loc["s", "min_v"] == "a" and got.loc["s", "max_v"] == "c"
            assert got.loc["z", "min_v"] is None and got.loc["z", "n_null"] == 4
            assert (got["n_rows"] == 4).all()

    def test_dataset_profile_empty(self):
        from ocr_platform_ray.ops.profile import dataset_profile

        empty = rd.from_pandas(pd.DataFrame({"i": pd.Series(dtype="int64")}))
        got = dataset_profile(empty, ["i"])
        assert got.loc[0, "n_rows"] == 0 and got.loc[0, "min_v"] is None

    def test_grouped_sample_k_deterministic(self):
        from ocr_platform_ray.ops.shuffle import grouped_sample_k, shuffle_hash

        rng = np.random.RandomState(31)
        df = pd.DataFrame(
            {"doc_id": np.arange(500), "g": rng.choice(["a", "b", "c"], 500)}
        )
        # ground truth: k smallest shuffle hashes per group
        t = df.assign(sk=shuffle_hash(df["doc_id"].to_numpy(), 7).astype("int64"))
        want = (
            t.sort_values(["g", "sk"]).groupby("g").head(4)
            .sort_values(["g", "sk"]).reset_index(drop=True)
        )
        for parts in (1, 6):
            got = grouped_sample_k(
                rd.from_pandas(df).repartition(parts), ["g"], 4,
                id_col="doc_id", seed=7,
            )
            if not isinstance(got, pd.DataFrame):
                got = got.to_pandas()
            got = got.sort_values(["g", "sk"]).reset_index(drop=True)
            assert got["doc_id"].tolist() == want["doc_id"].tolist()
            assert (got.groupby("g")["rk"].max() == 4).all()


@pytest.mark.usefixtures("ray_session")
def _tail_oracled() -> list[str]:
    from ocr_platform_ray.pipelines.queries import ORACLE_SQL, QUERIES

    # checked elsewhere: url_canonical_dedup below, lm_perplexity at rtol
    # in TestNgramLM (float average)
    own = {"url_canonical_dedup", "lm_perplexity"}
    return [n for n in list(QUERIES)[50:] if n in ORACLE_SQL and n not in own]


TAIL_ORACLED = _tail_oracled()


class TestTailQueryOracles:
    """Queries past the driver's 50-entry cap that carry a SQL oracle get
    their oracle check HERE instead (the external gate never reaches
    them)."""

    def test_url_canonical_dedup_matches_duckdb(self):
        import duckdb
        import importlib.util

        entry = os.path.join(os.path.dirname(os.path.dirname(__file__)), "__ray_entry__.py")
        spec = importlib.util.spec_from_file_location("__ray_entry__", entry)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sf = "/root/testdata/sf0.001"
        got = mod.queries()["url_canonical_dedup"](sf)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
        )
        want = con.execute(mod.oracle_sql()["url_canonical_dedup"]).df()
        g = got.sort_values("canonical_url").reset_index(drop=True)
        w = want.sort_values("canonical_url").reset_index(drop=True)
        pd.testing.assert_frame_equal(g[w.columns], w, check_dtype=False)
        # both collapse classes present: 3 raw spellings -> 1 canonical,
        # and the fragment-only variant staying distinct
        assert set(g["n_variants"]) == {1, 3}

    @pytest.mark.parametrize("name", TAIL_ORACLED)
    def test_tail_oracles_match_duckdb(self, name):
        import duckdb

        from ocr_platform_ray.pipelines.queries import ORACLE_SQL, QUERIES

        sf = "/root/testdata/sf0.001"
        got = QUERIES[name](sf)
        if not isinstance(got, pd.DataFrame):
            got = got.to_pandas()
        con = duckdb.connect()
        for t in (
            "documents", "events", "orders", "customer", "lineitem",
            "embeddings", "part", "supplier", "nation", "region",
        ):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
            )
        want = con.execute(ORACLE_SQL[name]).df()
        cols = sorted(want.columns)
        assert sorted(got.columns) == cols
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
        assert len(g) > 0


@pytest.mark.usefixtures("ray_session")
class TestKnnJoin:
    def _emb(self, n=80, dim=12, seed=5):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "vec_id": np.arange(n, dtype="int64"),
                "embedding": list(rng.randn(n, dim)),
            }
        )

    def test_matches_brute_force_per_query(self):
        from ocr_platform_ray.ops.similarity import knn_brute_force, knn_join

        df = self._emb()
        left, right = df[df.vec_id < 6], df[df.vec_id >= 6]
        got = knn_join(
            rd.from_pandas(left), rd.from_pandas(right), k=4, q_out_col="q_id"
        )
        if not isinstance(got, pd.DataFrame):
            got = got.to_pandas()
        got = got.sort_values(["q_id", "rk"]).reset_index(drop=True)
        # per-query brute force over the same corpus = the join's rows
        q = np.stack(left["embedding"].to_numpy())
        bf = knn_brute_force(rd.from_pandas(right), q, k=4)
        bf["q_id"] = left["vec_id"].to_numpy()[bf["query_idx"].to_numpy()]
        bf = bf.sort_values(["q_id", "cosine", "vec_id"], ascending=[True, False, True])
        bf["rk"] = bf.groupby("q_id").cumcount() + 1
        want = bf[["q_id", "vec_id", "cosine", "rk"]].reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["q_id", "vec_id", "cosine", "rk"]], want, check_dtype=False
        )

    def test_finish_routes_equal_and_block_independent(self):
        from ocr_platform_ray.ops.similarity import knn_join

        df = self._emb(n=60)
        left, right = df[df.vec_id < 5], df[df.vec_id >= 5]
        outs = []
        for finish, nb in (("driver", 1), ("exchange", 7)):
            o = knn_join(
                rd.from_pandas(left),
                rd.from_pandas(right).repartition(nb),
                k=3,
                finish=finish,
            )
            if not isinstance(o, pd.DataFrame):
                o = o.to_pandas()
            outs.append(
                o[["q_id", "vec_id", "cosine", "rk"]]
                .sort_values(["q_id", "rk"])
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1], check_dtype=False)

    def test_max_left_rows_guard(self):
        from ocr_platform_ray.ops.similarity import knn_join

        df = self._emb(n=30)
        with pytest.raises(ValueError, match="max_left_rows"):
            knn_join(
                rd.from_pandas(df), rd.from_pandas(df), k=2, max_left_rows=10
            )


@pytest.mark.usefixtures("ray_session")
class TestGroupedRank:
    def test_rank_and_dense_rank_match_pandas(self):
        from ocr_platform_ray.ops.windows import grouped_rank

        rng = np.random.RandomState(9)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 6, 300),
                "id": np.arange(300, dtype="int64"),
                # coarse grid => plenty of in-group ties
                "v": rng.randint(0, 25, 300).astype("int64"),
            }
        )
        for descending in (False, True):
            got = grouped_rank(
                rd.from_pandas(df).repartition(5),
                key_cols=["k"],
                order_col="v",
                descending=descending,
                carry_cols=["id"],
            ).sort_values("id").reset_index(drop=True)
            exp = df.sort_values("id").reset_index(drop=True).copy()
            gb = exp.groupby("k")["v"]
            exp["rnk"] = gb.rank(method="min", ascending=not descending).astype("int64")
            exp["drnk"] = gb.rank(method="dense", ascending=not descending).astype("int64")
            pd.testing.assert_frame_equal(
                got[["k", "id", "v", "rnk", "drnk"]],
                exp[["k", "id", "v", "rnk", "drnk"]],
                check_dtype=False,
            )
        # ties actually exercised: some rank is shared
        assert (got.groupby(["k", "rnk"]).size() > 1).any()

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.windows import grouped_rank

        rng = np.random.RandomState(2)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 4, 200),
                "id": np.arange(200, dtype="int64"),
                "v": rng.randn(200),
            }
        )
        outs = [
            grouped_rank(
                rd.from_pandas(df).repartition(nb),
                key_cols=["k"],
                order_col="v",
                carry_cols=["id"],
            ).sort_values("id").reset_index(drop=True)
            for nb in (1, 9)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


@pytest.mark.usefixtures("ray_session")
class TestTemperatureSample:
    def _corpus(self):
        rows = []
        k = 0
        for s, n in (("big", 4000), ("mid", 1000), ("small", 250)):
            for _ in range(n):
                rows.append((k, s))
                k += 1
        return pd.DataFrame(rows, columns=["doc_id", "source"])

    def test_matches_naive_reference_and_keeps_smallest(self):
        from ocr_platform_ray.ops.mix import temperature_sample
        from ocr_platform_ray.ops.shuffle import shuffle_hash

        df = self._corpus()
        got = temperature_sample(
            rd.from_pandas(df).repartition(6),
            source_col="source",
            key_col="doc_id",
            alpha=0.5,
            seed=3,
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        counts = df.groupby("source")["doc_id"].size()
        n_min = float(counts.min())
        keep = np.zeros(len(df), dtype=bool)
        sk = shuffle_hash(df["doc_id"].to_numpy(dtype="int64"), 3).astype("float64")
        for s, n in counts.items():
            thr = np.floor((n_min / float(n)) ** 0.5 * 2**32)
            keep |= (df["source"] == s).to_numpy() & (sk < thr)
        want = df[keep].sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)
        # the smallest source keeps EVERY row (rate exactly 1.0)
        assert (got["source"] == "small").sum() == 250
        # larger sources downsample toward sqrt proportions
        kept_big = (got["source"] == "big").sum()
        assert 0.15 * 4000 < kept_big < 0.35 * 4000

    def test_alpha_one_is_identity_and_block_independent(self):
        from ocr_platform_ray.ops.mix import temperature_sample

        df = self._corpus().iloc[:800]
        full = temperature_sample(
            rd.from_pandas(df),
            source_col="source",
            key_col="doc_id",
            alpha=1.0,
            seed=7,
        ).to_pandas()
        assert len(full) == len(df)
        outs = [
            temperature_sample(
                rd.from_pandas(df).repartition(nb),
                source_col="source",
                key_col="doc_id",
                alpha=0.3,
                seed=7,
            ).to_pandas().sort_values("doc_id").reset_index(drop=True)
            for nb in (1, 8)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


@pytest.mark.usefixtures("ray_session")
class TestUrlQualityFilter:
    def test_blocklist_threshold_and_scores(self):
        from ocr_platform_ray.functions.url import add_url_quality, url_quality_filter

        df = pd.DataFrame(
            {
                "id": np.arange(7, dtype="int64"),
                "url": [
                    "https://example.com/a",                      # clean
                    "https://freebet-casino.com/x",               # blocked exact
                    "https://www.freebet-casino.com/x",           # blocked via www strip
                    "https://promo.spam-mall.net/y",              # blocked subdomain
                    "https://ok.com/free-download/z",             # 50 -> kept
                    "https://ok.com/casino-webcam",               # 100 -> dropped
                    "HTTPS://OK.com/FREE-free-sex",               # 25+25+60=110 -> dropped
                ],
            }
        )
        scored = add_url_quality(rd.from_pandas(df), "url").to_pandas()
        scored = scored.sort_values("id").reset_index(drop=True)
        # "freebet-casino" scores free(25) + casino(50) = 75
        assert scored["url_score"].tolist() == [0, 75, 75, 0, 50, 100, 110]
        assert scored["url_blocked"].tolist() == [
            False, True, True, True, False, False, False,
        ]
        kept = url_quality_filter(
            rd.from_pandas(df).repartition(3), "url", threshold=100
        ).to_pandas().sort_values("id")
        # RefinedWeb drops AT the threshold: score 100 is out at threshold=100
        assert kept["id"].tolist() == [0, 4]
        assert list(kept.columns) == ["id", "url", "url_score"]


@pytest.mark.usefixtures("ray_session")
class TestCubeAgg:
    def test_matches_pandas_all_levels(self):
        from ocr_platform_ray.ops.relational import cube_agg

        rng = np.random.RandomState(4)
        df = pd.DataFrame(
            {
                "a": rng.choice(["x", "y", "z"], 500),
                "b": rng.choice(["p", "q"], 500),
                "v": rng.randint(0, 100, 500).astype("int64"),
            }
        )
        got = cube_agg(
            rd.from_pandas(df).repartition(4),
            ["a", "b"],
            {"n": ("v", "count"), "s": ("v", "sum")},
        )
        levels = []
        fine = df.groupby(["a", "b"], as_index=False).agg(n=("v", "size"), s=("v", "sum"))
        la = df.groupby("a", as_index=False).agg(n=("v", "size"), s=("v", "sum"))
        la["b"] = None
        lb = df.groupby("b", as_index=False).agg(n=("v", "size"), s=("v", "sum"))
        lb["a"] = None
        tot = pd.DataFrame({"a": [None], "b": [None], "n": [len(df)], "s": [df.v.sum()]})
        want = pd.concat([fine, la, lb, tot], ignore_index=True)[
            ["a", "b", "n", "s"]
        ]
        key = lambda d: d.astype({"n": "int64", "s": "int64"}).sort_values(
            ["a", "b", "n"], na_position="last"
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(key(got[["a", "b", "n", "s"]]), key(want))

    def test_rejects_non_mergeable_and_empty_input(self):
        from ocr_platform_ray.ops.relational import cube_agg

        df = pd.DataFrame({"a": ["x"], "v": [1]})
        with pytest.raises(ValueError, match="mergeable"):
            cube_agg(rd.from_pandas(df), ["a"], {"m": ("v", "mean")})
        empty = pd.DataFrame({"a": pd.Series(dtype="object"), "v": pd.Series(dtype="int64")})
        out = cube_agg(rd.from_pandas(empty), ["a"], {"n": ("v", "count")})
        assert len(out) == 0
        assert list(out.columns) == ["a", "n"]


@pytest.mark.usefixtures("ray_session")
class TestGroupedNtile:
    def _df(self, n=400, seed=3):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "k": rng.randint(0, 5, n),
                "id": np.arange(n, dtype="int64"),
                "v": rng.randint(0, 30, n).astype("int64"),  # real ties
            }
        )

    def test_matches_sql_rule_and_block_independent(self):
        import duckdb

        from ocr_platform_ray.ops.windows import grouped_ntile

        df = self._df()
        outs = []
        for nb in (1, 7):
            o = grouped_ntile(
                rd.from_pandas(df).repartition(nb),
                key_cols=["k"],
                order_col="v",
                n=4,
                tie_col="id",
            ).sort_values("id").reset_index(drop=True)
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "SELECT k, id, v, CAST(NTILE(4) OVER "
            "(PARTITION BY k ORDER BY v, id) AS BIGINT) AS nt FROM t "
            "ORDER BY id"
        ).df()
        got = outs[0].sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["k", "id", "v", "nt"]], want[["k", "id", "v", "nt"]],
            check_dtype=False,
        )

    def test_bucket_sizes_as_equal_as_possible(self):
        from ocr_platform_ray.ops.windows import grouped_ntile

        # m=10 over n=4 -> sizes 3,3,2,2
        df = pd.DataFrame(
            {"k": ["a"] * 10, "id": np.arange(10, dtype="int64"),
             "v": np.arange(10, dtype="int64")}
        )
        out = grouped_ntile(
            rd.from_pandas(df), key_cols=["k"], order_col="v", n=4, tie_col="id"
        )
        assert out["nt"].value_counts().sort_index().tolist() == [3, 3, 2, 2]
        with pytest.raises(ValueError, match="n must be"):
            grouped_ntile(
                rd.from_pandas(df), key_cols=["k"], order_col="v", n=0, tie_col="id"
            )


@pytest.mark.usefixtures("ray_session")
class TestGroupedPercentileExact:
    def test_matches_duckdb_position_rule(self):
        import duckdb

        from ocr_platform_ray.ops.relational import grouped_percentile_exact

        rng = np.random.RandomState(11)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 500),
                "v": np.round(rng.randn(500) * 10, 3),
            }
        )
        got = grouped_percentile_exact(
            rd.from_pandas(df).repartition(6), ["k"], "v", [0.25, 0.5, 0.9]
        )
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "WITH r AS (SELECT k, v, ROW_NUMBER() OVER "
            "(PARTITION BY k ORDER BY v) AS rn, "
            "COUNT(*) OVER (PARTITION BY k) AS m FROM t) "
            "SELECT k, q, v FROM r CROSS JOIN "
            "(SELECT UNNEST([0.25, 0.5, 0.9]) AS q) qs "
            "WHERE rn = GREATEST(1, CEIL(q * m)) ORDER BY k, q"
        ).df()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True),
            check_dtype=False,
        )

    def test_single_row_group_and_q_extremes(self):
        from ocr_platform_ray.ops.relational import grouped_percentile_exact

        df = pd.DataFrame({"k": ["x", "y", "y"], "v": [5.0, 1.0, 2.0]})
        out = grouped_percentile_exact(
            rd.from_pandas(df), ["k"], "v", [0.01, 1.0]
        )
        # q=0.01 -> position max(1, ceil(...)) = 1 (the min); q=1.0 -> the max
        assert out[(out.k == "x")]["v"].tolist() == [5.0, 5.0]
        assert out[(out.k == "y") & (out.q == 0.01)]["v"].tolist() == [1.0]
        assert out[(out.k == "y") & (out.q == 1.0)]["v"].tolist() == [2.0]

    def test_linear_matches_duckdb_quantile_cont(self):
        import duckdb

        from ocr_platform_ray.ops.relational import grouped_percentile_exact

        rng = np.random.RandomState(23)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 400),
                "v": np.round(rng.randn(400) * 10, 3),
            }
        )
        got = grouped_percentile_exact(
            rd.from_pandas(df).repartition(5), ["k"], "v",
            [0.25, 0.5, 0.9, 0.13], interpolation="linear",
        )
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            " UNION ALL ".join(
                f"SELECT k, {q} AS q, quantile_cont(v, {q}) AS v "
                "FROM t GROUP BY k"
                for q in (0.25, 0.5, 0.9, 0.13)
            )
            + " ORDER BY k, q"
        ).df()
        pd.testing.assert_frame_equal(
            got.sort_values(["k", "q"]).reset_index(drop=True),
            want.sort_values(["k", "q"]).reset_index(drop=True),
            check_dtype=False,
        )
        # bit-exact, not approx: compare with zero tolerance
        assert (
            got.sort_values(["k", "q"])["v"].to_numpy()
            == want.sort_values(["k", "q"])["v"].to_numpy()
        ).all()
        # single-row group: lerp degenerates to the value
        one = grouped_percentile_exact(
            rd.from_pandas(pd.DataFrame({"k": ["z"], "v": [7.5]})),
            ["k"], "v", [0.3, 0.9], interpolation="linear",
        )
        assert one["v"].tolist() == [7.5, 7.5]
        with pytest.raises(ValueError, match="interpolation"):
            grouped_percentile_exact(
                rd.from_pandas(df), ["k"], "v", [0.5], interpolation="nearest"
            )


@pytest.mark.usefixtures("ray_session")
class TestGroupedMode:
    def test_deterministic_tie_rule_and_routes(self):
        from ocr_platform_ray.ops.relational import grouped_mode

        # group a: clear winner; group b: tie between 'p' and 'q' -> 'p'
        df = pd.DataFrame(
            {
                "k": ["a"] * 5 + ["b"] * 4,
                "v": ["x", "x", "x", "y", "z", "q", "q", "p", "p"],
            }
        )
        for finish in ("auto", "exchange"):
            out = grouped_mode(
                rd.from_pandas(df).repartition(3), ["k"], "v", finish=finish
            )
            if not isinstance(out, pd.DataFrame):
                out = out.to_pandas()
            out = out.sort_values("k").reset_index(drop=True)
            assert out["v"].tolist() == ["x", "p"]
            assert out["n"].tolist() == [3, 2]

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.relational import grouped_mode

        rng = np.random.RandomState(8)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 10, 600),
                "v": rng.randint(0, 7, 600),
            }
        )
        outs = []
        for nb in (1, 9):
            o = grouped_mode(rd.from_pandas(df).repartition(nb), ["k"], "v")
            if not isinstance(o, pd.DataFrame):
                o = o.to_pandas()
            outs.append(o.sort_values("k").reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1], check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestGroupedFirstLast:
    def test_matches_pandas_and_ties(self):
        from ocr_platform_ray.ops.relational import grouped_first_last

        rng = np.random.RandomState(6)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 8, 300),
                "o": rng.randint(0, 20, 300).astype("int64"),  # order ties
                "id": np.arange(300, dtype="int64"),
                "val": rng.randn(300),
            }
        )
        got = grouped_first_last(
            rd.from_pandas(df).repartition(5), ["k"], "o",
            tie_col="id", carry_cols=["val"],
        )
        rows = []
        for tag, asc in (("first", True), ("last", False)):
            s = df.sort_values(["o", "id"], ascending=[asc, True])
            pick = s.groupby("k", sort=True).head(1).copy()
            pick["which"] = tag
            rows.append(pick)
        want = (
            pd.concat(rows, ignore_index=True)
            .sort_values(["k", "which"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["k", "o", "id", "val", "which"]].reset_index(drop=True),
            want[["k", "o", "id", "val", "which"]],
            check_dtype=False,
        )

    def test_as_dataset_union(self):
        from ocr_platform_ray.ops.relational import grouped_first_last

        df = pd.DataFrame(
            {"k": [1, 1, 2], "o": [3, 1, 9], "id": [0, 1, 2]}
        )
        out = grouped_first_last(
            rd.from_pandas(df), ["k"], "o", tie_col="id", as_dataset=True
        )
        assert isinstance(out, rd.Dataset)
        pdf = out.to_pandas().sort_values(["k", "which"]).reset_index(drop=True)
        assert pdf[pdf.k == 1]["o"].tolist() == [1, 3]  # first=1, last=3
        assert len(pdf) == 4


@pytest.mark.usefixtures("ray_session")
class TestGroupedHistogram:
    def test_matches_numpy_and_edges(self):
        from ocr_platform_ray.ops.profile import grouped_histogram

        rng = np.random.RandomState(12)
        v = np.concatenate(
            [rng.uniform(-5, 105, 800), [0.0, 99.9999, 100.0, np.nan]]
        )
        df = pd.DataFrame(
            {"g": rng.choice(["a", "b"], len(v)), "v": v}
        )
        out = grouped_histogram(
            rd.from_pandas(df).repartition(4), "v",
            lo=0.0, hi=100.0, n_bins=10, group_cols=["g"],
        )
        inb = df[(df.v >= 0) & (df.v < 100)].copy()
        inb["bin"] = np.minimum(np.floor(inb.v / 10.0), 9).astype("int64")
        want = (
            inb.groupby(["g", "bin"], as_index=False)
            .agg(n=("bin", "size"))
            .sort_values(["g", "bin"])
            .reset_index(drop=True)
        )
        want["n"] = want["n"].astype("int64")
        pd.testing.assert_frame_equal(out, want, check_dtype=False)
        # totals conserve the in-range count (NaN + out-of-range dropped)
        assert out["n"].sum() == len(inb)

    def test_ungrouped_and_validation(self):
        from ocr_platform_ray.ops.profile import grouped_histogram

        df = pd.DataFrame({"v": [0.5, 1.5, 1.6, 2.5]})
        out = grouped_histogram(rd.from_pandas(df), "v", lo=0.0, hi=3.0, n_bins=3)
        assert out["bin"].tolist() == [0, 1, 2] and out["n"].tolist() == [1, 2, 1]
        with pytest.raises(ValueError, match="hi > lo"):
            grouped_histogram(rd.from_pandas(df), "v", lo=1.0, hi=1.0, n_bins=3)
        with pytest.raises(ValueError, match="n_bins"):
            grouped_histogram(rd.from_pandas(df), "v", lo=0.0, hi=1.0, n_bins=0)


@pytest.mark.usefixtures("ray_session")
class TestGroupedCumsumRolling:
    def _df(self, n=300, seed=15):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "k": rng.randint(0, 6, n),
                "o": rng.randint(0, 40, n).astype("int64"),  # order ties
                "id": np.arange(n, dtype="int64"),
                "v": rng.randint(-5, 50, n).astype("int64"),
            }
        )

    def test_cumsum_matches_pandas_and_blocks(self):
        from ocr_platform_ray.ops.windows import grouped_cumsum

        df = self._df()
        outs = []
        for nb in (1, 7):
            o = grouped_cumsum(
                rd.from_pandas(df).repartition(nb),
                key_cols=["k"], order_col="o", tie_col="id", value_col="v",
            ).sort_values("id").reset_index(drop=True)
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        exp = df.sort_values(["k", "o", "id"]).copy()
        exp["running"] = exp.groupby("k")["v"].cumsum()
        exp = exp.sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            outs[0][["k", "o", "id", "v", "running"]],
            exp[["k", "o", "id", "v", "running"]],
            check_dtype=False,
        )

    def test_rolling_rows_matches_pandas_rolling(self):
        from ocr_platform_ray.ops.windows import grouped_rolling_rows

        df = self._df(seed=16)
        got = grouped_rolling_rows(
            rd.from_pandas(df).repartition(5),
            key_cols=["k"], order_col="o", tie_col="id", value_col="v",
            window=3,
        ).sort_values("id").reset_index(drop=True)
        exp = df.sort_values(["k", "o", "id"]).copy()
        exp["roll"] = (
            exp.groupby("k")["v"]
            .rolling(3, min_periods=1).sum()
            .reset_index(level=0, drop=True)
        )
        exp = exp.sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["k", "o", "id", "v", "roll"]],
            exp[["k", "o", "id", "v", "roll"]],
            check_dtype=False,
        )
        with pytest.raises(ValueError, match="window"):
            grouped_rolling_rows(
                rd.from_pandas(df), key_cols=["k"], order_col="o",
                tie_col="id", value_col="v", window=0,
            )

    def test_pct_rank_formulas(self):
        import duckdb

        from ocr_platform_ray.ops.windows import grouped_rank

        df = self._df(seed=17)
        got = grouped_rank(
            rd.from_pandas(df).repartition(4),
            key_cols=["k"], order_col="v", carry_cols=["id"], pct=True,
        ).sort_values("id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            "SELECT k, id, v, PERCENT_RANK() OVER w AS prnk, "
            "CUME_DIST() OVER w AS cume FROM t "
            "WINDOW w AS (PARTITION BY k ORDER BY v) ORDER BY id"
        ).df()
        pd.testing.assert_frame_equal(
            got[["k", "id", "v", "prnk", "cume"]].reset_index(drop=True),
            want[["k", "id", "v", "prnk", "cume"]],
            check_dtype=False,
        )
        # single-row partition: PERCENT_RANK = 0
        one = grouped_rank(
            rd.from_pandas(pd.DataFrame({"k": [9], "v": [1.0], "id": [0]})),
            key_cols=["k"], order_col="v", carry_cols=["id"], pct=True,
        )
        assert one["prnk"].tolist() == [0.0] and one["cume"].tolist() == [1.0]


@pytest.mark.usefixtures("ray_session")
class TestSimhashNearDup:
    def _corpus(self, seed=21):
        rng = np.random.RandomState(seed)
        vocab = [f"w{i}" for i in range(300)]
        rows = []
        for i in range(60):
            toks = list(rng.choice(vocab, 40))
            rows.append((i, " ".join(toks)))
            if i < 15:
                # near copy: replace 1-2 tokens (may or may not stay
                # within the radius — brute force decides)
                mut = list(toks)
                for j in range(rng.randint(1, 3)):
                    mut[rng.randint(0, 40)] = f"x{i}_{j}"
                rows.append((1000 + i, " ".join(mut)))
            if i < 5:
                rows.append((2000 + i, " ".join(toks)))  # exact copy
        return pd.DataFrame(rows, columns=["doc_id", "text"])

    def _brute(self, df, k):
        from ocr_platform_ray.ops.dedup import _popcount64, simhash_buckets

        sig = simhash_buckets(
            rd.from_pandas(df), "text", "doc_id"
        ).to_pandas().sort_values("doc_id")
        ids = sig["doc_id"].to_numpy()
        h = sig["simhash"].to_numpy(dtype=np.uint64)
        rows = []
        for i in range(len(ids)):
            x = h[i] ^ h[i + 1:]
            hd = _popcount64(x.astype(np.uint64))
            for j, d in enumerate(hd):
                if d <= k:
                    a, b = ids[i], ids[i + 1 + j]
                    rows.append((min(a, b), max(a, b), int(d)))
        return (
            pd.DataFrame(rows, columns=["id_a", "id_b", "hamming"])
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )

    def test_matches_brute_force_both_routes(self):
        from ocr_platform_ray.ops.dedup import simhash_near_dup_pairs

        df = self._corpus()
        want = self._brute(df, 3)
        assert len(want) >= 5  # exact copies guarantee pairs exist
        for thr in (2_000_000, 0):  # driver probe route / exchange route
            got = simhash_near_dup_pairs(
                rd.from_pandas(df).repartition(4), "text", "doc_id",
                max_hamming=3, n_bands=4, pairs_threshold_rows=thr,
            )
            if not isinstance(got, pd.DataFrame):
                got = got.to_pandas()
            got = got.sort_values(["id_a", "id_b"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_max_posting_drops_degenerate_bucket(self):
        from ocr_platform_ray.ops.dedup import simhash_near_dup_pairs

        # 30 identical docs -> one bucket of 30 > max_posting=10 -> dropped
        df = pd.DataFrame(
            {"doc_id": np.arange(30, dtype="int64"), "text": ["same text"] * 30}
        )
        out = simhash_near_dup_pairs(
            rd.from_pandas(df), "text", "doc_id", max_posting=10
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        assert len(out) == 0

    def test_radius_validation(self):
        from ocr_platform_ray.ops.dedup import simhash_near_dup_pairs

        df = pd.DataFrame({"doc_id": [1], "text": ["a"]})
        with pytest.raises(ValueError, match="pigeonhole"):
            simhash_near_dup_pairs(
                rd.from_pandas(df), "text", "doc_id", max_hamming=4, n_bands=4
            )


@pytest.mark.usefixtures("ray_session")
class TestGroupedMoments:
    def _df(self, n=400, seed=3):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "g": rng.choice(list("abcd"), n),
                "v": np.round(rng.randn(n) * 40 + 10, 2),
            }
        )

    def test_matches_pandas_and_block_independent(self):
        from ocr_platform_ray.ops.profile import grouped_moments

        df = self._df()
        outs = []
        for nb in (1, 7):
            out = grouped_moments(
                rd.from_pandas(df).repartition(nb), "v", ["g"], scale=100
            )
            outs.append(out.reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])
        want = df.groupby("g")["v"].agg(["count", "mean", "var", "std"])
        got = outs[0].set_index("g")
        assert (got["n"] == want["count"]).all()
        np.testing.assert_allclose(got["mean_v"], want["mean"], rtol=1e-9)
        np.testing.assert_allclose(got["var_v"], want["var"], rtol=1e-9)
        np.testing.assert_allclose(got["stddev_v"], want["std"], rtol=1e-9)

    def test_single_row_group_nan_variance(self):
        from ocr_platform_ray.ops.profile import grouped_moments

        df = pd.DataFrame({"g": ["x", "y", "y"], "v": [5.0, 1.0, 3.0]})
        out = grouped_moments(rd.from_pandas(df), "v", ["g"]).set_index("g")
        assert np.isnan(out.loc["x", "var_v"]) and np.isnan(out.loc["x", "stddev_v"])
        assert out.loc["x", "mean_v"] == 5.0
        assert out.loc["y", "var_v"] == pytest.approx(2.0)

    def test_domain_bound_raises(self):
        from ocr_platform_ray.ops.profile import grouped_moments

        df = pd.DataFrame({"g": ["a"], "v": [1e12]})
        with pytest.raises((ValueError, Exception), match="2\\^31|exact-sum"):
            grouped_moments(rd.from_pandas(df), "v", ["g"], scale=100)


@pytest.mark.usefixtures("ray_session")
class TestGroupedCorr:
    def test_matches_pandas_and_degenerate_groups(self):
        from ocr_platform_ray.ops.profile import grouped_corr

        rng = np.random.RandomState(11)
        n = 300
        x = np.round(rng.rand(n) * 50, 2)
        df = pd.DataFrame(
            {
                "g": rng.choice(list("ab"), n),
                "x": x,
                "y": np.round(x * 0.6 + rng.randn(n) * 3, 2),
            }
        )
        # degenerate groups: single row, and zero-variance x
        df = pd.concat(
            [
                df,
                pd.DataFrame(
                    {"g": ["solo", "flat", "flat"], "x": [1.0, 2.0, 2.0], "y": [1.0, 3.0, 9.0]}
                ),
            ],
            ignore_index=True,
        )
        out = grouped_corr(
            rd.from_pandas(df).repartition(5), "x", "y", ["g"]
        ).set_index("g")
        for g in ("a", "b"):
            sub = df[df.g == g]
            assert out.loc[g, "covar_xy"] == pytest.approx(sub["x"].cov(sub["y"]), rel=1e-9)
            assert out.loc[g, "corr_xy"] == pytest.approx(sub["x"].corr(sub["y"]), rel=1e-9)
        assert np.isnan(out.loc["solo", "corr_xy"])
        assert np.isnan(out.loc["flat", "corr_xy"])  # zero-variance side


@pytest.mark.usefixtures("ray_session")
class TestGroupedStringAgg:
    def test_order_ties_and_block_independence(self):
        from ocr_platform_ray.ops.relational import grouped_string_agg

        df = pd.DataFrame(
            {
                "g": ["u1", "u1", "u1", "u2", "u2"],
                "t": [2, 1, 1, 5, 4],
                "id": [10, 12, 11, 20, 21],
                "val": ["c", "b", "a", "x", "y"],
            }
        )
        outs = []
        for nb in (1, 4):
            out = grouped_string_agg(
                rd.from_pandas(df).repartition(nb), ["g"], "val", ["t", "id"],
                sep="|", out_col="seq",
            )
            outs.append(
                out.to_pandas().sort_values("g").reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        got = outs[0].set_index("g")["seq"]
        # t=1 ties broken by id: 11('a') before 12('b'), then t=2('c')
        assert got["u1"] == "a|b|c"
        assert got["u2"] == "y|x"

    def test_non_string_values_rendered(self):
        from ocr_platform_ray.ops.relational import grouped_string_agg

        df = pd.DataFrame({"g": [1, 1], "o": [1, 2], "v": [10, 20]})
        out = grouped_string_agg(
            rd.from_pandas(df), ["g"], "v", ["o"], out_col="s"
        ).to_pandas()
        assert out["s"].iloc[0] == "10,20"


@pytest.mark.usefixtures("ray_session")
class TestUnpivot:
    def test_matches_pandas_melt(self):
        from ocr_platform_ray.ops.relational import unpivot_columns

        rng = np.random.RandomState(4)
        df = pd.DataFrame(
            {
                "id": np.arange(50, dtype="int64"),
                "a": rng.rand(50),
                "b": rng.rand(50),
                "c": rng.rand(50),
            }
        )
        out = unpivot_columns(
            rd.from_pandas(df).repartition(3), ["id"], ["a", "b", "c"]
        ).to_pandas()
        want = pd.melt(
            df, id_vars=["id"], value_vars=["a", "b", "c"],
            var_name="measure", value_name="val",
        )
        key = ["id", "measure"]
        pd.testing.assert_frame_equal(
            out.sort_values(key).reset_index(drop=True),
            want.sort_values(key).reset_index(drop=True),
        )
        assert len(out) == 150


@pytest.mark.usefixtures("ray_session")
class TestGroupingSets:
    def _df(self, n=200, seed=9):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "s": rng.choice(list("PQ"), n),
                "p": rng.choice(["hi", "lo", "mid"], n),
                "v": rng.randint(0, 100, n).astype("int64"),
            }
        )

    def test_matches_pandas_all_sets(self):
        from ocr_platform_ray.ops.relational import grouping_sets_agg

        df = self._df()
        sets = [["s", "p"], ["p"], []]
        out = grouping_sets_agg(
            rd.from_pandas(df).repartition(4), sets,
            {"n": ("v", "count"), "sv": ("v", "sum")},
        )
        want_parts = []
        for sub in sets:
            if sub:
                w = df.groupby(sub, as_index=False).agg(n=("v", "size"), sv=("v", "sum"))
            else:
                w = pd.DataFrame({"n": [len(df)], "sv": [df["v"].sum()]})
            for k in ("s", "p"):
                if k not in sub:
                    w[k] = None
            want_parts.append(w[["s", "p", "n", "sv"]])
        want = pd.concat(want_parts, ignore_index=True)
        key = ["s", "p", "n"]
        pd.testing.assert_frame_equal(
            out.sort_values(key).reset_index(drop=True),
            want.sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )

    def test_rejects_non_mergeable_and_empty(self):
        from ocr_platform_ray.ops.relational import grouping_sets_agg

        df = self._df(20)
        with pytest.raises(ValueError, match="non-mergeable"):
            grouping_sets_agg(
                rd.from_pandas(df), [["s"]], {"m": ("v", "mean")}
            )
        with pytest.raises(ValueError, match="at least one"):
            grouping_sets_agg(rd.from_pandas(df), [], {"n": ("v", "count")})


@pytest.mark.usefixtures("ray_session")
class TestWeightedSampleK:
    def test_matches_naive_reference_and_block_independent(self):
        from ocr_platform_ray.ops.shuffle import shuffle_hash, weighted_sample_k

        rng = np.random.RandomState(21)
        df = pd.DataFrame(
            {
                "id": np.arange(500, dtype="int64"),
                "w": rng.randint(-5, 1000, 500).astype("float64"),
            }
        )
        outs = []
        for nb in (1, 6):
            out = weighted_sample_k(
                rd.from_pandas(df).repartition(nb), "id", "w", 40, seed=3
            )
            o = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
            outs.append(o[["id", "w"]].sort_values("id").reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # naive reference: same draw over the full frame
        pos = df[df.w > 0]
        u = (shuffle_hash(pos["id"].to_numpy(), 3).astype("float64") + 0.5) / 2**32
        key = np.power(u, 1.0 / pos["w"].to_numpy())
        order = np.lexsort((pos["id"].to_numpy(), -key))
        want = set(pos["id"].to_numpy()[order[:40]])
        assert set(outs[0]["id"]) == want
        # non-positive weights never selected
        assert (outs[0]["w"] > 0).all()

    def test_weight_bias(self):
        from ocr_platform_ray.ops.shuffle import weighted_sample_k

        # one heavy row among uniform light rows is (nearly) always kept
        df = pd.DataFrame(
            {"id": np.arange(200, dtype="int64"), "w": [1.0] * 199 + [100000.0]}
        )
        hits = 0
        for seed in range(5):
            out = weighted_sample_k(rd.from_pandas(df), "id", "w", 10, seed=seed)
            o = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
            hits += int(199 in set(o["id"]))
        assert hits == 5


@pytest.mark.usefixtures("ray_session")
class TestMergeInto:
    def _target(self, tmp, n=300, n_parts=8):
        from ocr_platform_ray.ops.upsert import write_merge_target

        df = pd.DataFrame(
            {
                "k": np.arange(n, dtype="int64"),
                "v": np.arange(n, dtype="float64") * 1.5,
                "s": ["base"] * n,
            }
        )
        write_merge_target(rd.from_pandas(df), tmp, "k", n_partitions=n_parts)
        return df

    def test_upsert_semantics_and_report(self, tmp_path):
        from ocr_platform_ray.ops.upsert import merge_into, read_merge_target

        td = str(tmp_path / "t")
        df = self._target(td)
        upd = pd.DataFrame(
            {
                "k": [5, 10, 999, 1000],
                "v": [50.0, 100.0, 9.0, 10.0],
                "s": ["upd", "upd", "new", "new"],
            }
        )
        report = merge_into(td, rd.from_pandas(upd), "k", n_partitions=8)
        assert report["n_updated"].sum() == 2
        assert report["n_inserted"].sum() == 2
        got = read_merge_target(td).to_pandas().sort_values("k").reset_index(drop=True)
        want = pd.concat(
            [df[~df.k.isin([5, 10])], upd], ignore_index=True
        ).sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)

    def test_untouched_partitions_byte_identical(self, tmp_path):
        import glob
        import hashlib

        from ocr_platform_ray.ops.upsert import merge_into, _partition_of

        td = str(tmp_path / "t")
        self._target(td)
        before = {
            p: hashlib.sha256(open(p, "rb").read()).hexdigest()
            for p in glob.glob(td + "/part_*.parquet")
        }
        upd = pd.DataFrame({"k": [7], "v": [0.0], "s": ["upd"]})
        touched = int(_partition_of(np.array([7], dtype="int64"), 8)[0])
        merge_into(td, rd.from_pandas(upd), "k", n_partitions=8)
        after = {
            p: hashlib.sha256(open(p, "rb").read()).hexdigest()
            for p in glob.glob(td + "/part_*.parquet")
        }
        changed = {p for p in before if before[p] != after[p]}
        assert changed == {f"{td}/part_{touched:05d}.parquet"}

    def test_idempotent_rerun(self, tmp_path):
        from ocr_platform_ray.ops.upsert import merge_into, read_merge_target

        td = str(tmp_path / "t")
        self._target(td)
        upd = pd.DataFrame({"k": [3, 777], "v": [1.0, 2.0], "s": ["u", "n"]})
        merge_into(td, rd.from_pandas(upd), "k", n_partitions=8)
        first = read_merge_target(td).to_pandas().sort_values("k").reset_index(drop=True)
        rep2 = merge_into(td, rd.from_pandas(upd), "k", n_partitions=8)
        second = read_merge_target(td).to_pandas().sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(first, second)
        assert rep2["n_inserted"].sum() == 0  # both keys now exist -> updates

    def test_duplicate_update_keys_raise(self, tmp_path):
        from ocr_platform_ray.ops.upsert import merge_into

        td = str(tmp_path / "t")
        self._target(td)
        upd = pd.DataFrame({"k": [4, 4], "v": [1.0, 2.0], "s": ["a", "b"]})
        with pytest.raises(Exception, match="duplicate keys"):
            merge_into(td, rd.from_pandas(upd), "k", n_partitions=8)

    def test_insert_into_missing_partition_file(self, tmp_path):
        import glob

        from ocr_platform_ray.ops.upsert import (
            merge_into,
            read_merge_target,
            write_merge_target,
        )

        td = str(tmp_path / "t")
        # tiny target: only a couple of partitions materialize
        df = pd.DataFrame({"k": np.array([0, 1], dtype="int64"), "v": [0.0, 1.0]})
        write_merge_target(rd.from_pandas(df), td, "k", n_partitions=32)
        n_files = len(glob.glob(td + "/part_*.parquet"))
        assert n_files < 32
        upd = pd.DataFrame({"k": np.arange(100, 164, dtype="int64"),
                            "v": np.zeros(64)})
        rep = merge_into(td, rd.from_pandas(upd), "k", n_partitions=32)
        assert rep["n_inserted"].sum() == 64
        got = read_merge_target(td).to_pandas()
        assert len(got) == 66


@pytest.mark.usefixtures("ray_session")
class TestClusterWrite:
    def _df(self, n=2000, seed=13):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "id": np.arange(n, dtype="int64"),
                "v": np.round(rng.lognormal(3, 1, n), 3),
                "tag": rng.choice(list("xyz"), n),
            }
        )

    def test_roundtrip_and_zonemap_disjoint(self, tmp_path):
        from ocr_platform_ray.ops.layout import cluster_write, pruned_read

        td = str(tmp_path / "c")
        df = self._df()
        zm = cluster_write(rd.from_pandas(df).repartition(5), "v", td, n_files=8)
        assert zm["n_rows"].sum() == len(df)
        # zones ordered and non-overlapping (vmax[i] <= vmin[i+1])
        assert (zm["vmin"] <= zm["vmax"]).all()
        assert (zm["vmax"].to_numpy()[:-1] <= zm["vmin"].to_numpy()[1:]).all()
        back = pruned_read(td, "v").to_pandas().sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            back[["id", "v", "tag"]],
            df.sort_values("id").reset_index(drop=True),
        )

    def test_pruned_scan_exact_and_skips_files(self, tmp_path):
        from ocr_platform_ray.ops.layout import (
            cluster_write,
            plan_pruned_read,
            pruned_read,
        )

        td = str(tmp_path / "c")
        df = self._df()
        cluster_write(rd.from_pandas(df), "v", td, n_files=10)
        lo, hi = float(df["v"].quantile(0.4)), float(df["v"].quantile(0.6))
        files, total = plan_pruned_read(td, lo, hi)
        assert 0 < len(files) < total
        got = pruned_read(td, "v", lo=lo, hi=hi).to_pandas()
        want = df[(df.v >= lo) & (df.v <= hi)]
        assert sorted(got["id"]) == sorted(want["id"])

    def test_out_of_range_scan_empty(self, tmp_path):
        from ocr_platform_ray.ops.layout import (
            cluster_write,
            plan_pruned_read,
            pruned_read,
        )

        td = str(tmp_path / "c")
        cluster_write(rd.from_pandas(self._df(300)), "v", td, n_files=4)
        files, total = plan_pruned_read(td, 1e12, None)
        assert files == [] and total > 0
        ds = pruned_read(td, "v", lo=1e12)
        # Dataset-level schema survives (to_pandas on zero-row datasets
        # drops columns in this Ray version — a harness limitation)
        assert "id" in ds.schema().names
        assert ds.count() == 0

    def test_nan_cluster_column_rejected(self, tmp_path):
        from ocr_platform_ray.ops.layout import cluster_write

        df = pd.DataFrame({"id": [1, 2], "v": [1.0, np.nan]})
        with pytest.raises(Exception, match="NaN"):
            cluster_write(rd.from_pandas(df), "v", str(tmp_path / "c"), n_files=2)


@pytest.mark.usefixtures("ray_session")
class TestRollingFollowing:
    def test_centered_frame_matches_pandas_and_blocks(self):
        from ocr_platform_ray.ops.windows import grouped_rolling_rows

        rng = np.random.RandomState(8)
        df = pd.DataFrame(
            {
                "k": rng.choice(list("ab"), 60),
                "o": rng.permutation(60),
                "t": np.arange(60, dtype="int64"),
                "v": rng.randint(0, 50, 60).astype("int64"),
            }
        )
        outs = []
        for nb in (1, 5):
            out = grouped_rolling_rows(
                rd.from_pandas(df).repartition(nb),
                key_cols=["k"], order_col="o", tie_col="t",
                value_col="v", window=3, following=2,
            )
            outs.append(
                out.sort_values(["k", "o", "t"]).reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        want = (
            df.sort_values(["k", "o", "t"])
            .groupby("k")["v"]
            .transform(lambda s: s.rolling(5, center=True, min_periods=1).sum())
        )
        got = outs[0].set_index(["k", "o", "t"])["roll"]
        want_df = df.sort_values(["k", "o", "t"]).assign(roll=want).set_index(
            ["k", "o", "t"]
        )["roll"]
        pd.testing.assert_series_equal(got, want_df, check_dtype=False)

    def test_following_validation(self):
        from ocr_platform_ray.ops.windows import grouped_rolling_rows

        df = pd.DataFrame({"k": ["a"], "o": [1], "t": [1], "v": [1]})
        with pytest.raises(ValueError, match="following"):
            grouped_rolling_rows(
                rd.from_pandas(df), key_cols=["k"], order_col="o",
                tie_col="t", value_col="v", window=2, following=-1,
            )


@pytest.mark.usefixtures("ray_session")
class TestExplodeList:
    def test_matches_manual_and_handles_empty_null(self):
        import pyarrow as pa

        from ocr_platform_ray.ops.relational import explode_list_column

        t = pa.table(
            {
                "id": pa.array([1, 2, 3, 4], pa.int64()),
                "lst": pa.array(
                    [[10.0, 11.0], [], None, [40.0]],
                    pa.list_(pa.float64()),
                ),
            }
        )
        out = explode_list_column(
            rd.from_arrow(t), "lst", ["id"]
        ).to_pandas().sort_values(["id", "pos"]).reset_index(drop=True)
        want = pd.DataFrame(
            {"id": [1, 1, 4], "pos": [1, 2, 1], "x": [10.0, 11.0, 40.0]}
        )
        pd.testing.assert_frame_equal(out, want, check_dtype=False)

    def test_block_independent(self):
        from ocr_platform_ray.ops.relational import explode_list_column

        rng = np.random.RandomState(2)
        df = pd.DataFrame(
            {
                "id": np.arange(100, dtype="int64"),
                "lst": [list(rng.rand(rng.randint(0, 5))) for _ in range(100)],
            }
        )
        outs = []
        for nb in (1, 7):
            o = explode_list_column(
                rd.from_pandas(df).repartition(nb), "lst", ["id"]
            ).to_pandas().sort_values(["id", "pos"]).reset_index(drop=True)
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])


@pytest.mark.usefixtures("ray_session")
class TestGraph:
    def test_connected_components_forest(self):
        from ocr_platform_ray.ops.graph import connected_components

        edges = pd.DataFrame(
            {
                "src": [1, 2, 3, 10, 11, 20],
                "dst": [2, 3, 4, 11, 12, 20],  # chain, chain, self-loop
            }
        )
        out = connected_components(rd.from_pandas(edges).repartition(3))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        labels = out.set_index(out.columns[0])[out.columns[1]]
        assert all(labels[v] == 1 for v in (1, 2, 3, 4))
        assert all(labels[v] == 10 for v in (10, 11, 12))
        assert labels[20] == 20

    def _rank_reference(self, edges, n_nodes, damping, n_iter):
        nodes = np.arange(n_nodes)
        out_deg = np.zeros(n_nodes)
        for s in edges["src"]:
            out_deg[s] += 1
        r = np.full(n_nodes, 1.0 / n_nodes)
        for _ in range(n_iter):
            contrib = np.zeros(n_nodes)
            w = np.where(out_deg > 0, r / np.maximum(out_deg, 1), 0.0)
            for s, d in zip(edges["src"], edges["dst"]):
                contrib[d] += w[s]
            dangling = r[out_deg == 0].sum()
            r = (1 - damping) / n_nodes + damping * (contrib + dangling / n_nodes)
        return r

    def test_pagerank_matches_power_iteration(self):
        from ocr_platform_ray.ops.graph import pagerank

        rng = np.random.RandomState(7)
        n = 40
        edges = pd.DataFrame(
            {
                "src": rng.randint(0, n, 200),
                "dst": rng.randint(0, n, 200),
            }
        )
        # ensure every node appears (dangling nodes still ranked)
        edges = pd.concat(
            [edges, pd.DataFrame({"src": [0] * n, "dst": np.arange(n)})],
            ignore_index=True,
        )
        got = pagerank(
            rd.from_pandas(edges).repartition(4), n_iter=15, damping=0.85
        ).sort_values("node").reset_index(drop=True)
        want = self._rank_reference(edges, n, 0.85, 15)
        assert got["rank"].sum() == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(got["rank"].to_numpy(), want, rtol=1e-9)

    def test_pagerank_hub_and_validation(self):
        from ocr_platform_ray.ops.graph import pagerank

        n = 30
        # every node links to node 0 (hub) and its successor
        edges = pd.DataFrame(
            {
                "src": list(range(1, n)) + list(range(1, n)),
                "dst": [0] * (n - 1) + [(i + 1) % n for i in range(1, n)],
            }
        )
        out = pagerank(rd.from_pandas(edges), n_iter=10)
        top = out.sort_values("rank", ascending=False)["node"].iloc[0]
        assert top == 0
        with pytest.raises(ValueError, match="damping"):
            pagerank(rd.from_pandas(edges), damping=1.5)


@pytest.mark.usefixtures("ray_session")
class TestAsofDirections:
    def _sides(self, seed=17):
        rng = np.random.RandomState(seed)
        left = pd.DataFrame(
            {
                "k": rng.choice(list("abc"), 60),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 10000, 60), unit="s"),
                "lv": np.arange(60, dtype="int64"),
            }
        )
        right = pd.DataFrame(
            {
                "k": rng.choice(list("abc"), 40),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 10000, 40), unit="s"),
                "rv": np.arange(40, dtype="int64") * 10,
            }
        )
        return left, right

    @pytest.mark.parametrize("direction", ["forward", "nearest"])
    def test_direction_matches_pandas(self, direction):
        from ocr_platform_ray.ops.relational import asof_join

        left, right = self._sides()
        got = (
            asof_join(
                rd.from_pandas(left).repartition(4),
                rd.from_pandas(right).repartition(3),
                key="k", ts="ts", right_cols=["k", "ts", "rv"],
                direction=direction,
            )
            .to_pandas()
            .sort_values(["k", "ts", "lv"])
            .reset_index(drop=True)
        )
        want = pd.merge_asof(
            left.sort_values("ts"), right.sort_values("ts"),
            on="ts", by="k", direction=direction,
        ).sort_values(["k", "ts", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["k", "ts", "lv", "rv"]], want[["k", "ts", "lv", "rv"]],
            check_dtype=False,
        )

    def test_tolerance_bounds_matches(self):
        from ocr_platform_ray.ops.relational import asof_join

        left, right = self._sides(seed=23)
        tol = pd.Timedelta(seconds=500)
        got = (
            asof_join(
                rd.from_pandas(left).repartition(4),
                rd.from_pandas(right).repartition(2),
                key="k", ts="ts", right_cols=["k", "ts", "rv"],
                tolerance=tol,
            )
            .to_pandas()
            .sort_values(["k", "ts", "lv"])
            .reset_index(drop=True)
        )
        want = pd.merge_asof(
            left.sort_values("ts"), right.sort_values("ts"),
            on="ts", by="k", direction="backward", tolerance=tol,
        ).sort_values(["k", "ts", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["k", "ts", "lv", "rv"]], want[["k", "ts", "lv", "rv"]],
            check_dtype=False,
        )


@pytest.mark.usefixtures("ray_session")
class TestBloomSemiAnti:
    def _sides(self, seed=31):
        rng = np.random.RandomState(seed)
        data = pd.DataFrame(
            {
                "k": rng.randint(0, 1000, 800).astype("int64"),
                "v": rng.rand(800),
            }
        )
        keys = pd.DataFrame({"k": rng.randint(0, 1000, 120).astype("int64")})
        return data, keys

    @pytest.mark.parametrize("op", ["semi", "anti"])
    def test_bloom_route_equals_broadcast(self, op):
        from ocr_platform_ray.ops.relational import anti_join, semi_join

        fn = semi_join if op == "semi" else anti_join
        data, keys = self._sides()
        outs = []
        for method in ("broadcast", "bloom"):
            o = fn(
                rd.from_pandas(data).repartition(5),
                rd.from_pandas(keys).repartition(3),
                "k",
                method=method,
            ).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # sanity: both classes of row present
        inset = set(keys["k"])
        if op == "semi":
            assert set(outs[0]["k"]).issubset(inset)
        else:
            assert not (set(outs[0]["k"]) & inset)

    def test_bloom_string_keys(self):
        from ocr_platform_ray.ops.relational import semi_join

        data = pd.DataFrame({"k": [f"url{i}" for i in range(200)], "v": range(200)})
        keys = pd.DataFrame({"k": [f"url{i}" for i in range(0, 200, 7)]})
        out = semi_join(
            rd.from_pandas(data), rd.from_pandas(keys), "k", method="bloom"
        ).to_pandas()
        assert sorted(out["k"]) == sorted(keys["k"])


@pytest.mark.usefixtures("ray_session")
class TestCountMin:
    def test_bounds_and_block_independence(self):
        from ocr_platform_ray.ops.sketch import count_min_build, count_min_query

        rng = np.random.RandomState(5)
        vals = rng.zipf(1.5, 20000)
        vals = vals[vals < 5000].astype("int64")
        df = pd.DataFrame({"v": vals})
        cms = [
            count_min_build(rd.from_pandas(df).repartition(nb), "v",
                            width=1024, depth=4)
            for nb in (1, 7)
        ]
        np.testing.assert_array_equal(cms[0]["m"], cms[1]["m"])
        exact = df["v"].value_counts()
        keys = exact.index.to_numpy()[:50]
        est = count_min_query(cms[0], keys)
        true = exact.to_numpy()[:50]
        assert (est >= true).all()  # CM never underestimates
        eps_bound = (np.e / 1024) * len(df)
        assert (est - true <= eps_bound).all()
        # heavy keys should estimate nearly exactly
        assert est[0] == true[0]

    def test_unseen_keys_small(self):
        from ocr_platform_ray.ops.sketch import count_min_build, count_min_query

        df = pd.DataFrame({"v": np.arange(1000, dtype="int64") % 10})
        cm = count_min_build(rd.from_pandas(df), "v", width=2048, depth=4)
        unseen = count_min_query(cm, np.arange(10_000, 10_050, dtype="int64"))
        assert (unseen <= (np.e / 2048) * 1000).all()
        seen = count_min_query(cm, np.arange(10, dtype="int64"))
        assert (seen >= 100).all()


@pytest.mark.usefixtures("ray_session")
class TestZOrder:
    def _df(self, n=3000, seed=41):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "id": np.arange(n, dtype="int64"),
                "a": np.round(rng.rand(n) * 1000, 2),
                "b": np.round(rng.randn(n) * 50 + 200, 2),
            }
        )

    def test_interleave_known_answers(self):
        from ocr_platform_ray.ops.layout import _interleave16

        a = np.array([0b1, 0b0, 0b11], dtype=np.uint16)
        b = np.array([0b0, 0b1, 0b10], dtype=np.uint16)
        z = _interleave16(a, b)
        # a occupies even bits, b odd bits: (a=11,b=10) -> 1101
        assert list(z) == [0b01, 0b10, 0b1101]

    def test_roundtrip_and_both_dims_prune(self, tmp_path):
        from ocr_platform_ray.ops.layout import (
            zorder_plan,
            zorder_pruned_read,
            zorder_write,
        )

        td = str(tmp_path / "z")
        df = self._df()
        zm = zorder_write(rd.from_pandas(df).repartition(4), ["a", "b"], td, n_files=16)
        assert zm["n_rows"].sum() == len(df)
        # full read back = input
        back = zorder_pruned_read(td, {"a": (None, None)}).to_pandas()
        assert sorted(back["id"]) == sorted(df["id"])
        # a narrow box on EACH dimension alone prunes files
        for c in ("a", "b"):
            lo, hi = float(df[c].quantile(0.45)), float(df[c].quantile(0.55))
            files, total = zorder_plan(td, {c: (lo, hi)})
            assert 0 < len(files) < total, (c, len(files), total)
            got = zorder_pruned_read(td, {c: (lo, hi)}).to_pandas()
            want = df[(df[c] >= lo) & (df[c] <= hi)]
            assert sorted(got["id"]) == sorted(want["id"])
        # a 2-D box prunes at least as hard as either single dim
        box = {
            "a": (float(df.a.quantile(0.4)), float(df.a.quantile(0.6))),
            "b": (float(df.b.quantile(0.4)), float(df.b.quantile(0.6))),
        }
        files2, total = zorder_plan(td, box)
        got = zorder_pruned_read(td, box).to_pandas()
        want = df[
            (df.a >= box["a"][0]) & (df.a <= box["a"][1])
            & (df.b >= box["b"][0]) & (df.b <= box["b"][1])
        ]
        assert sorted(got["id"]) == sorted(want["id"])
        assert len(files2) < total

    def test_validation(self, tmp_path):
        from ocr_platform_ray.ops.layout import zorder_write

        df = self._df(50)
        with pytest.raises(ValueError, match="exactly 2"):
            zorder_write(rd.from_pandas(df), ["a"], str(tmp_path / "z1"))
        df.loc[0, "a"] = np.nan
        with pytest.raises(Exception, match="NaN"):
            zorder_write(rd.from_pandas(df), ["a", "b"], str(tmp_path / "z2"))


@pytest.mark.usefixtures("ray_session")
class TestMergeSchemaEvolution:
    def test_additive_column_and_unified_read(self, tmp_path):
        from ocr_platform_ray.ops.upsert import (
            merge_into,
            read_merge_target,
            write_merge_target,
        )

        td = str(tmp_path / "t")
        base = pd.DataFrame(
            {"k": np.arange(40, dtype="int64"), "v": np.arange(40, dtype="float64")}
        )
        write_merge_target(rd.from_pandas(base), td, "k", n_partitions=8)
        upd = pd.DataFrame(
            {"k": np.array([3, 999], dtype="int64"), "v": [30.0, 1.0],
             "quality": [0.9, 0.5]}
        )
        # rejected without the flag
        with pytest.raises(Exception, match="allow_new_columns"):
            merge_into(td, rd.from_pandas(upd), "k", n_partitions=8)
        merge_into(
            td, rd.from_pandas(upd), "k", n_partitions=8, allow_new_columns=True
        )
        got = read_merge_target(td).to_pandas().sort_values("k").reset_index(drop=True)
        assert list(got.columns) == ["k", "v", "quality"]
        assert len(got) == 41
        g = got.set_index("k")
        assert g.loc[3, "quality"] == 0.9 and g.loc[999, "quality"] == 0.5
        # untouched rows backfill null
        assert g["quality"].isna().sum() == 39

    def test_missing_target_columns_rejected(self, tmp_path):
        from ocr_platform_ray.ops.upsert import merge_into, write_merge_target

        td = str(tmp_path / "t")
        base = pd.DataFrame(
            {"k": np.arange(10, dtype="int64"), "v": np.zeros(10), "s": ["x"] * 10}
        )
        write_merge_target(rd.from_pandas(base), td, "k", n_partitions=4)
        upd = pd.DataFrame({"k": [1], "v": [9.0]})  # lacks 's'
        with pytest.raises(Exception, match="additive-only"):
            merge_into(td, rd.from_pandas(upd), "k", n_partitions=4)


@pytest.mark.usefixtures("ray_session")
class TestGroupedWeightedSample:
    def test_matches_naive_per_group_and_blocks(self):
        from ocr_platform_ray.ops.shuffle import (
            grouped_weighted_sample_k,
            shuffle_hash,
        )

        rng = np.random.RandomState(13)
        df = pd.DataFrame(
            {
                "g": rng.choice(list("pq"), 400),
                "id": np.arange(400, dtype="int64"),
                "w": rng.randint(1, 500, 400).astype("float64"),
            }
        )
        outs = []
        for nb in (1, 6):
            o = grouped_weighted_sample_k(
                rd.from_pandas(df).repartition(nb), ["g"], "id", "w", 15, seed=2
            )
            if not isinstance(o, pd.DataFrame):
                o = o.to_pandas()
            outs.append(
                o[["g", "id", "rk"]].sort_values(["g", "rk"]).reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1], check_dtype=False)
        u = (shuffle_hash(df["id"].to_numpy(), 2).astype("float64") + 0.5) / 2**32
        df["key"] = np.power(u, 1.0 / df["w"].to_numpy())
        for g, sub in df.groupby("g"):
            order = sub.sort_values(["key", "id"], ascending=[False, True])
            want = list(order["id"].iloc[:15])
            got = list(outs[0][outs[0].g == g].sort_values("rk")["id"])
            assert got == want, g


@pytest.mark.usefixtures("ray_session")
class TestStringCluster:
    def _df(self, n=1200, seed=3):
        rng = np.random.RandomState(seed)
        hosts = [f"https://site{h}.com/" for h in range(40)]
        return pd.DataFrame(
            {
                "url": [
                    hosts[rng.randint(0, 40)] + f"page/{i}" for i in range(n)
                ],
                "val": rng.rand(n),
            }
        )

    def test_roundtrip_and_prefix_prunes(self, tmp_path):
        from ocr_platform_ray.ops.layout import (
            cluster_write_str,
            prefix_plan,
            prefix_pruned_read,
        )

        td = str(tmp_path / "s")
        df = self._df()
        zm = cluster_write_str(rd.from_pandas(df).repartition(4), "url", td, n_files=16)
        assert zm["n_rows"].sum() == len(df)
        # full scan back
        back = prefix_pruned_read(td, "url", "").to_pandas()
        assert sorted(back["url"]) == sorted(df["url"])
        # one host's prefix scan: exact and pruned
        prefix = "https://site7.com/"
        files, total = prefix_plan(td, prefix)
        assert 0 < len(files) < total
        got = prefix_pruned_read(td, "url", prefix).to_pandas()
        want = df[df["url"].str.startswith(prefix)]
        assert sorted(got["url"]) == sorted(want["url"]) and len(want) > 0

    def test_unmatched_prefix_empty_typed(self, tmp_path):
        from ocr_platform_ray.ops.layout import cluster_write_str, prefix_pruned_read

        td = str(tmp_path / "s")
        cluster_write_str(rd.from_pandas(self._df(200)), "url", td, n_files=4)
        ds = prefix_pruned_read(td, "url", "zzz://nothing")
        assert ds.count() == 0
        assert "val" in ds.schema().names


@pytest.mark.usefixtures("ray_session")
class TestEmptyResidual:
    """A pruned read whose residual filters a selected file to nothing
    returns typed empty batches: Ray's block-size estimate logs no
    ``Error calculating size`` for them (it did for empty pandas batches
    with an object column)."""

    def _new_log_lines(self, run):
        import glob
        import time

        import ray

        logs = ray._private.worker._global_node.get_logs_dir_path()

        def sizes():
            paths = glob.glob(os.path.join(logs, "**", "*"), recursive=True)
            return {p: os.path.getsize(p) for p in paths if os.path.isfile(p)}

        before = sizes()
        out = run()
        time.sleep(0.5)  # worker processes write their own log files; let them land
        new = b""
        for p, n in sizes().items():
            with open(p, "rb") as f:
                f.seek(before.get(p, 0))
                new += f.read()
        return out, new.decode("utf-8", "replace")

    def _file_with_gap(self, td, col):
        """A written file and a value strictly between two of its values."""
        zm = pd.read_parquet(os.path.join(td, "zonemap.parquet"))
        for f in zm["file"]:
            v = np.unique(pd.read_parquet(os.path.join(td, f), columns=[col])[col])
            if len(v) > 1:
                return (v[0] + v[1]) / 2
        raise AssertionError("no file holds two distinct values")

    def test_pruned_reads_log_nothing(self, tmp_path):
        from ocr_platform_ray.ops.layout import (
            cluster_write,
            cluster_write_str,
            plan_pruned_read,
            prefix_plan,
            prefix_pruned_read,
            pruned_read,
            zorder_plan,
            zorder_pruned_read,
            zorder_write,
        )

        rng = np.random.RandomState(5)
        n = 400
        df = pd.DataFrame(
            {
                "url": [f"https://site{rng.randint(0, 9)}.com/p/{i}" for i in range(n)],
                "v": np.round(rng.lognormal(3, 1, n), 3),
                "w": np.round(rng.rand(n) * 100, 3),
            }
        )
        ranged, zordered, keyed = (str(tmp_path / d) for d in "rzs")
        cluster_write(rd.from_pandas(df), "v", ranged, n_files=4)
        zorder_write(rd.from_pandas(df), ["v", "w"], zordered, n_files=4)
        cluster_write_str(rd.from_pandas(df), "url", keyed, n_files=4)

        x = self._file_with_gap(ranged, "v")
        y = self._file_with_gap(zordered, "v")
        vmin = pd.read_parquet(os.path.join(keyed, "zonemap.parquet"))["vmin"].iloc[0]
        reads = [
            (plan_pruned_read(ranged, x, x)[0], lambda: pruned_read(ranged, "v", lo=x, hi=x)),
            (
                zorder_plan(zordered, {"v": (y, y)})[0],
                lambda: zorder_pruned_read(zordered, {"v": (y, y)}),
            ),
            # no url holds a NUL: the prefix sorts inside the first file
            (prefix_plan(keyed, vmin + "\x00")[0], lambda: prefix_pruned_read(keyed, "url", vmin + "\x00")),
        ]
        for files, read in reads:
            assert files, "the residual must see a selected file"
            ds, log = self._new_log_lines(lambda: read().materialize())
            assert ds.count() == 0 and "url" in ds.schema().names
            assert "Error calculating size" not in log


@pytest.mark.usefixtures("ray_session")
class TestReviewFixesS4:
    def test_moments_overflow_detected(self):
        from ocr_platform_ray.ops.profile import grouped_moments

        # per-value fine (< 2^31) but n*max^2 over 2^63: must RAISE, not wrap
        df = pd.DataFrame({"g": ["a"] * 10, "v": [2.0e7] * 10})  # cents = 2e9
        with pytest.raises(Exception, match="domain"):
            grouped_moments(rd.from_pandas(df), "v", ["g"], scale=100)

    def test_corr_overflow_detected(self):
        from ocr_platform_ray.ops.profile import grouped_corr

        df = pd.DataFrame(
            {"g": ["a"] * 10, "x": [2.0e7] * 10, "y": [2.0e7] * 10}
        )
        with pytest.raises(Exception, match="domain"):
            grouped_corr(rd.from_pandas(df), "x", "y", ["g"])

    def test_string_agg_null_keys_and_values(self):
        from ocr_platform_ray.ops.relational import grouped_string_agg

        df = pd.DataFrame(
            {
                "g": ["a", "a", None, None, "b"],
                "o": [1, 2, 1, 2, 1],
                "v": ["x", None, "p", "q", 7],
            }
        )
        out = grouped_string_agg(
            rd.from_pandas(df), ["g"], "v", ["o"], out_col="s"
        ).to_pandas()
        got = {("<null>" if pd.isna(k) else k): v for k, v in zip(out["g"], out["s"])}
        assert got["a"] == "x"          # null VALUE skipped
        assert got["<null>"] == "p,q"   # null KEY kept as one group
        assert got["b"] == "7"          # non-string rendered

    def test_cluster_write_empty_input_clear_error(self, tmp_path):
        from ocr_platform_ray.ops.layout import cluster_write

        empty = pd.DataFrame({"id": pd.Series(dtype="int64"),
                              "v": pd.Series(dtype="float64")})
        with pytest.raises(Exception, match="empty"):
            cluster_write(rd.from_pandas(empty), "v", str(tmp_path / "c"))

    def test_read_merge_target_empty_clear_error(self, tmp_path):
        from ocr_platform_ray.ops.upsert import read_merge_target

        d = tmp_path / "t"
        d.mkdir()
        with pytest.raises(ValueError, match="no partitions"):
            read_merge_target(str(d))

    def test_bloom_m_bits_knob(self):
        from ocr_platform_ray.ops.relational import semi_join

        data = pd.DataFrame({"k": np.arange(300, dtype="int64")})
        keys = pd.DataFrame({"k": np.arange(0, 300, 3, dtype="int64")})
        out = semi_join(
            rd.from_pandas(data), rd.from_pandas(keys), "k",
            method="bloom", bloom_m_bits=1 << 12,
        ).to_pandas()
        assert sorted(out["k"]) == sorted(keys["k"])


@pytest.mark.usefixtures("ray_session")
class TestVersionedMerge:
    def _base(self, n=200):
        return pd.DataFrame(
            {
                "k": np.arange(n, dtype="int64"),
                "v": np.arange(n, dtype="float64"),
            }
        )

    def test_time_travel_and_snapshot_isolation(self, tmp_path):
        from ocr_platform_ray.ops.upsert import (
            versioned_merge_into,
            versioned_read,
            versioned_write_target,
        )

        td = str(tmp_path / "vt")
        df = self._base()
        v1 = versioned_write_target(rd.from_pandas(df), td, "k", n_partitions=8)
        assert v1 == "v00001"
        upd = pd.DataFrame({"k": [5, 999], "v": [500.0, 9.0]})
        v2 = versioned_merge_into(td, rd.from_pandas(upd), "k", n_partitions=8)
        assert v2 == "v00002"
        # v2 sees the merge
        cur = versioned_read(td).to_pandas().set_index("k")
        assert cur.loc[5, "v"] == 500.0 and cur.loc[999, "v"] == 9.0
        # v1 (time travel) is byte-semantically the original
        old = versioned_read(td, version=v1).to_pandas().sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(old, df, check_dtype=False)


    def test_mixing_apis_guarded(self, tmp_path):
        from ocr_platform_ray.ops.upsert import (
            merge_into,
            read_merge_target,
            versioned_write_target,
        )

        td = str(tmp_path / "vt")
        versioned_write_target(rd.from_pandas(self._base(20)), td, "k", n_partitions=2)
        with pytest.raises(ValueError, match="VERSIONED"):
            merge_into(td, rd.from_pandas(pd.DataFrame({"k": [1], "v": [0.0]})), "k")
        with pytest.raises(ValueError, match="VERSIONED"):
            read_merge_target(td)


@pytest.mark.usefixtures("ray_session")
class TestClusteredMergeJoin:
    def _layouts(self, tmp_path, seed=7):
        from ocr_platform_ray.ops.layout import cluster_write

        rng = np.random.RandomState(seed)
        left = pd.DataFrame(
            {
                "key": rng.randint(0, 500, 600).astype("int64"),
                "lv": np.arange(600, dtype="int64"),
            }
        )
        right = pd.DataFrame(
            {
                "key": rng.randint(0, 500, 300).astype("int64"),
                "rv": np.arange(300, dtype="int64") * 10,
            }
        )
        dl, dr = str(tmp_path / "L"), str(tmp_path / "R")
        # deliberately DIFFERENT file counts -> different cutoffs
        cluster_write(rd.from_pandas(left), "key", dl, n_files=8)
        cluster_write(rd.from_pandas(right), "key", dr, n_files=5)
        return left, right, dl, dr

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_matches_pandas_merge(self, tmp_path, how):
        from ocr_platform_ray.ops.layout import clustered_merge_join

        left, right, dl, dr = self._layouts(tmp_path)
        got = (
            clustered_merge_join(dl, dr, "key", how=how)
            .to_pandas()
            .sort_values(["key", "lv", "rv"])
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, on="key", how=how)
            .sort_values(["key", "lv", "rv"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["key", "lv", "rv"]], want[["key", "lv", "rv"]], check_dtype=False
        )

    def test_collision_rename_and_plan(self, tmp_path):
        from ocr_platform_ray.ops.layout import (
            cluster_write,
            clustered_join_plan,
            clustered_merge_join,
        )

        l = pd.DataFrame({"key": np.arange(50, dtype="int64"), "v": np.ones(50)})
        r = pd.DataFrame({"key": np.arange(50, dtype="int64"), "v": np.zeros(50)})
        dl, dr = str(tmp_path / "L"), str(tmp_path / "R")
        cluster_write(rd.from_pandas(l), "key", dl, n_files=4)
        cluster_write(rd.from_pandas(r), "key", dr, n_files=4)
        out = clustered_merge_join(dl, dr, "key").to_pandas()
        assert set(out.columns) == {"key", "v", "r_v"}
        # plan pairs each left file with only overlapping right files
        pairs = clustered_join_plan(dl, dr)
        assert all(len(rfs) < 4 or len(pairs) == 1 for _, rfs in pairs)


@pytest.mark.usefixtures("ray_session")
class TestGroupedShare:
    def test_matches_pandas_and_blocks(self):
        from ocr_platform_ray.ops.windows import grouped_share

        rng = np.random.RandomState(19)
        df = pd.DataFrame(
            {
                "g": rng.choice(list("abc"), 200),
                "c": rng.randint(0, 1000, 200).astype("int64"),
            }
        )
        outs = []
        for nb in (1, 6):
            o = grouped_share(
                rd.from_pandas(df).repartition(nb), ["g"], "c"
            ).to_pandas().sort_values(["g", "c"]).reset_index(drop=True)
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        want = df.assign(share=df["c"] / df.groupby("g")["c"].transform("sum"))
        got = outs[0]
        w = want.sort_values(["g", "c"]).reset_index(drop=True)
        np.testing.assert_allclose(got["share"], w["share"], rtol=1e-12)

    def test_zero_total_group_nan(self):
        from ocr_platform_ray.ops.windows import grouped_share

        df = pd.DataFrame({"g": ["z", "z", "a"], "c": [0, 0, 5]})
        out = grouped_share(rd.from_pandas(df), ["g"], "c").to_pandas()
        z = out[out.g == "z"]["share"]
        assert z.isna().all()
        assert (out[out.g == "a"]["share"] == 1.0).all()


@pytest.mark.usefixtures("ray_session")
class TestReviewFixesS4b:

    def test_versioned_merge_schema_and_partition_guards(self, tmp_path):
        from ocr_platform_ray.ops.upsert import (
            versioned_merge_into,
            versioned_write_target,
        )

        td = str(tmp_path / "vt")
        base = pd.DataFrame(
            {"k": np.arange(30, dtype="int64"), "v": np.zeros(30), "s": ["x"] * 30}
        )
        versioned_write_target(rd.from_pandas(base), td, "k", n_partitions=4)
        # new column: clear rejection, not silent drop
        with pytest.raises(Exception, match="add columns"):
            versioned_merge_into(
                td,
                rd.from_pandas(pd.DataFrame({"k": [1], "v": [1.0], "s": ["y"], "extra": [0]})),
                "k",
            )
        # missing column: clear rejection, not a worker KeyError
        with pytest.raises(Exception, match="missing target columns"):
            versioned_merge_into(
                td, rd.from_pandas(pd.DataFrame({"k": [1], "v": [1.0]})), "k"
            )
        # conflicting n_partitions: rejected instead of duplicating keys
        with pytest.raises(ValueError, match="n_partitions"):
            versioned_merge_into(
                td,
                rd.from_pandas(pd.DataFrame({"k": [1], "v": [1.0], "s": ["y"]})),
                "k", n_partitions=64,
            )
        # omitted n_partitions resolves from the manifest (no dup keys)
        from ocr_platform_ray.ops.upsert import versioned_read

        versioned_merge_into(
            td, rd.from_pandas(pd.DataFrame({"k": [1], "v": [5.0], "s": ["y"]})), "k"
        )
        got = versioned_read(td).to_pandas()
        assert len(got) == 30 and (got["k"].value_counts() == 1).all()

    def test_clustered_join_gap_blocks_keep_schema(self, tmp_path):
        from ocr_platform_ray.ops.layout import cluster_write, clustered_merge_join

        # right layout only covers LOW keys: high-key left files have no
        # overlapping right file at all
        left = pd.DataFrame(
            {"key": np.arange(0, 400, dtype="int64"), "lv": np.arange(400, dtype="int64")}
        )
        right = pd.DataFrame(
            {"key": np.arange(0, 100, dtype="int64"), "rv": np.arange(100, dtype="int64")}
        )
        dl, dr = str(tmp_path / "L"), str(tmp_path / "R")
        cluster_write(rd.from_pandas(left), "key", dl, n_files=8)
        cluster_write(rd.from_pandas(right), "key", dr, n_files=3)
        for how in ("inner", "left"):
            out = clustered_merge_join(dl, dr, "key", how=how)
            df = out.to_pandas()
            assert list(df.columns) == ["key", "lv", "rv"]
            want = left.merge(right, on="key", how=how)
            assert len(df) == len(want)
            if how == "left":
                assert df["rv"].isna().sum() == 300  # gap rows kept, typed
