"""Round-3 training-data operators: sequence packing (distributed ordered
prefix sum), benchmark decontamination, PII redaction, group-wise top-k,
and token document frequency."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd


@pytest.mark.usefixtures("ray_session")
class TestRangePrefixSum:
    def _naive(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("k").reset_index(drop=True)
        df["start"] = df["v"].cumsum() - df["v"]
        return df

    def test_matches_naive_dense_keys(self):
        from ocr_platform_ray.ops.pack import range_prefix_sum

        rng = np.random.default_rng(7)
        df = pd.DataFrame({"k": np.arange(1000), "v": rng.integers(0, 50, 1000)})
        got = (
            range_prefix_sum(rd.from_pandas(df, override_num_blocks=7), "k", "v")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = self._naive(df)
        pd.testing.assert_frame_equal(got[["k", "v", "start"]], want, check_dtype=False)

    def test_matches_naive_sparse_keys_and_underestimated_max(self):
        from ocr_platform_ray.ops.pack import range_prefix_sum

        # non-dense keys with huge gaps; key_max deliberately too small so
        # late keys clip into the last shard — skew, never wrong answers
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(0, 10**9, 500))
        df = pd.DataFrame({"k": keys, "v": rng.integers(1, 9, len(keys))})
        got = (
            range_prefix_sum(
                rd.from_pandas(df, override_num_blocks=5), "k", "v", key_max=1000,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["k", "v", "start"]], self._naive(df), check_dtype=False
        )

    def test_pack_sequences_chunk_assignment(self):
        from ocr_platform_ray.ops.pack import pack_sequences

        df = pd.DataFrame({"k": [0, 1, 2, 3, 4], "n": [300, 300, 300, 300, 300]})
        got = (
            pack_sequences(rd.from_pandas(df), key_col="k", count_col="n", chunk_tokens=512)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        # starts 0,300,600,900,1200 -> chunks 0,0,1,1,2
        assert got["start_tok"].tolist() == [0, 300, 600, 900, 1200]
        assert got["chunk_id"].tolist() == [0, 0, 1, 1, 2]


@pytest.mark.usefixtures("ray_session")
class TestDecontamination:
    def _corpus(self):
        eval_docs = pd.DataFrame(
            {
                "doc_id": [0, 97],
                "text": [
                    "the quick brown fox jumps over the lazy dog",
                    "short eval doc",
                ],
            }
        )
        train_docs = pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4],
                "text": [
                    # shares "the quick brown fox" and "quick brown fox jumps"
                    "prefix the quick brown fox jumps suffix words here",
                    "totally clean training document with no overlap at all",
                    "short eval doc",  # whole-text gram of a short eval doc
                    "the quick brown cat sat still",  # 4-gram broken: no hit
                ],
            }
        )
        return train_docs, eval_docs

    def test_broadcast_counts(self):
        from ocr_platform_ray.ops.decontam import contamination_counts

        tr, ev = self._corpus()
        got = (
            contamination_counts(
                rd.from_pandas(tr), rd.from_pandas(ev),
                id_col="doc_id", text_col="text", n=4, method="broadcast",
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got["doc_id"].tolist() == [1, 3]
        assert got.set_index("doc_id")["n_shared_grams"].to_dict() == {1: 2, 3: 1}

    def test_bucketed_string_ids(self):
        from ocr_platform_ray.ops.decontam import contamination_counts

        tr, ev = self._corpus()
        tr = tr.assign(doc_id=tr["doc_id"].map("url-{}".format))
        got = (
            contamination_counts(
                rd.from_pandas(tr, override_num_blocks=3),
                rd.from_pandas(ev, override_num_blocks=2),
                id_col="doc_id", text_col="text", n=4, method="bucketed",
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got["doc_id"].tolist() == ["url-1", "url-3"]
        assert got["n_shared_grams"].tolist() == [2, 1]

    def test_bucketed_matches_broadcast(self):
        from ocr_platform_ray.ops.decontam import contamination_counts

        tr, ev = self._corpus()
        a = (
            contamination_counts(
                rd.from_pandas(tr, override_num_blocks=3),
                rd.from_pandas(ev, override_num_blocks=2),
                id_col="doc_id", text_col="text", n=4, method="broadcast",
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        b = (
            contamination_counts(
                rd.from_pandas(tr, override_num_blocks=3),
                rd.from_pandas(ev, override_num_blocks=2),
                id_col="doc_id", text_col="text", n=4, method="bucketed",
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


class TestPIIRules:
    def test_rules_and_counts(self):
        from ocr_platform_ray.functions.pii import redact_pii_batch

        b = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "mail a.b-c_d%x+1@sub.example.co.uk then call 555-0199 now",
                    "server at 192.168.0.1 and 10.0.0.255 responded",
                    "no pii here at all",
                ],
            }
        )
        out = redact_pii_batch(b)
        assert out["n_pii"].tolist() == [2, 2, 0]
        assert out.loc[0, "redacted_text"] == "mail <EMAIL> then call <PHONE> now"
        assert out.loc[1, "redacted_text"] == "server at <IP> and <IP> responded"
        assert out.loc[2, "redacted_text"] == "no pii here at all"

    def test_non_default_index_assigns_positionally(self):
        # a filtered frame's surviving index must not NaN the output
        from ocr_platform_ray.functions.pii import redact_pii_batch

        b = pd.DataFrame(
            {"doc_id": [0, 1, 2, 3], "text": ["a@b.co", "x", "c@d.io", "y"]}
        )
        out = redact_pii_batch(b[b["doc_id"] % 2 == 0])
        assert out["redacted_text"].tolist() == ["<EMAIL>", "<EMAIL>"]
        assert out["n_pii"].tolist() == [1, 1]

    def test_nested_match_counted_once(self):
        # the IP inside the email local part is swallowed by the email
        # replacement: one placeholder, one count (sequential semantics)
        from ocr_platform_ray.functions.pii import redact_pii_batch

        b = pd.DataFrame({"doc_id": [0], "text": ["see 1.2.3.4@example.com now"]})
        out = redact_pii_batch(b)
        assert out.loc[0, "redacted_text"] == "see <EMAIL> now"
        assert out.loc[0, "n_pii"] == 1

    def test_placeholders_inert_across_rules(self):
        # placeholders contain no digits or '@': applying one rule cannot
        # create or destroy another rule's matches (the oracle's premise)
        from ocr_platform_ray.functions.pii import PII_RULES

        import re

        for _, _, repl in PII_RULES:
            for _, pat, _ in PII_RULES:
                assert re.search(pat, repl) is None


@pytest.mark.usefixtures("ray_session")
class TestGroupedTopK:
    def _df(self):
        rng = np.random.default_rng(3)
        return pd.DataFrame(
            {
                "g": rng.choice(["a", "b", "c"], 300),
                "x": rng.integers(0, 40, 300),  # heavy score ties
                "id": np.arange(300),
            }
        )

    def _naive(self, df, k):
        df = df.sort_values(["g", "x", "id"], ascending=[True, False, True]).copy()
        df["rk"] = df.groupby("g").cumcount() + 1
        return (
            df[df["rk"] <= k]
            .sort_values(["g", "rk"])
            .reset_index(drop=True)[["g", "id", "x", "rk"]]
        )

    def test_driver_route_matches_naive(self):
        from ocr_platform_ray.ops.relational import grouped_top_k

        df = self._df()
        got = grouped_top_k(
            rd.from_pandas(df, override_num_blocks=6), ["g"], "x", 5, tie_col="id",
            finish="driver",
        )
        got = got.sort_values(["g", "rk"]).reset_index(drop=True)[["g", "id", "x", "rk"]]
        pd.testing.assert_frame_equal(got, self._naive(df, 5), check_dtype=False)

    def test_exchange_route_matches_driver(self):
        from ocr_platform_ray.ops.relational import grouped_top_k

        df = self._df()
        got = (
            grouped_top_k(
                rd.from_pandas(df, override_num_blocks=6), ["g"], "x", 5,
                tie_col="id", finish="exchange",
            )
            .to_pandas()
            .sort_values(["g", "rk"])
            .reset_index(drop=True)[["g", "id", "x", "rk"]]
        )
        pd.testing.assert_frame_equal(got, self._naive(df, 5), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestIntervalJoin:
    def _naive(self, pts, ivs, closed="left"):
        rows = []
        for _, iv in ivs.iterrows():
            for _, p in pts.iterrows():
                hit = (
                    iv["s"] <= p["t"] <= iv["e"]
                    if closed == "both"
                    else iv["s"] <= p["t"] < iv["e"]
                )
                if hit:
                    rows.append((p["pid"], iv["iid"]))
        return sorted(rows)

    def _run(self, pts, ivs, closed="left", n_buckets=8):
        from ocr_platform_ray.ops.interval import interval_join

        got = interval_join(
            rd.from_pandas(pts, override_num_blocks=3),
            rd.from_pandas(ivs, override_num_blocks=2),
            point_col="t", start_col="s", end_col="e",
            point_cols=["pid"], interval_cols=["iid"],
            closed=closed, n_buckets=n_buckets,
        ).to_pandas()
        if got.shape[1] == 0:  # all-empty Dataset -> columnless frame
            return []
        return sorted(map(tuple, got[["pid", "iid"]].to_numpy()))

    def test_int_domain_matches_naive(self):
        rng = np.random.default_rng(5)
        pts = pd.DataFrame({"pid": np.arange(200), "t": rng.integers(0, 1000, 200)})
        s = rng.integers(-50, 1000, 60)  # some out-of-domain, some long
        ln = rng.integers(0, 400, 60)  # spans many buckets
        ivs = pd.DataFrame({"iid": np.arange(60), "s": s, "e": s + ln})
        assert self._run(pts, ivs) == self._naive(pts, ivs)

    def test_closed_both_includes_end(self):
        pts = pd.DataFrame({"pid": [0, 1, 2], "t": [10, 20, 30]})
        ivs = pd.DataFrame({"iid": [7], "s": [10], "e": [20]})
        assert self._run(pts, ivs, closed="left") == [(0, 7)]
        assert self._run(pts, ivs, closed="both") == [(0, 7), (1, 7)]

    def test_datetime_domain(self):
        base = pd.Timestamp("2024-01-01")
        pts = pd.DataFrame(
            {"pid": np.arange(50), "t": base + pd.to_timedelta(np.arange(50) * 7, "min")}
        )
        ivs = pd.DataFrame(
            {
                "iid": [0, 1],
                "s": [base + pd.Timedelta(minutes=10), base + pd.Timedelta(hours=3)],
                "e": [base + pd.Timedelta(minutes=40), base + pd.Timedelta(hours=4)],
            }
        )
        got = self._run(pts, ivs, n_buckets=4)
        want = self._naive(pts, ivs)
        assert got == want and len(want) > 0

    def test_no_overlap_and_empty_sides(self):
        pts = pd.DataFrame({"pid": [0], "t": [5]})
        ivs = pd.DataFrame({"iid": [0], "s": [100], "e": [200]})
        assert self._run(pts, ivs) == []

    def test_bucket_combiner_counts_match_pairs(self):
        # map-side combine route == count over the raw pair list, incl.
        # intervals spanning many buckets (their partials must sum)
        from ocr_platform_ray.ops.interval import interval_join

        rng = np.random.default_rng(11)
        pts = pd.DataFrame({"pid": np.arange(300), "t": rng.integers(0, 500, 300)})
        s = rng.integers(0, 500, 40)
        ivs = pd.DataFrame({"iid": np.arange(40), "s": s, "e": s + rng.integers(1, 300, 40)})
        want = (
            pd.DataFrame(self._naive(pts, ivs), columns=["pid", "iid"])
            .groupby("iid")
            .size()
            .to_dict()
        )
        got = interval_join(
            rd.from_pandas(pts, override_num_blocks=3),
            rd.from_pandas(ivs, override_num_blocks=2),
            point_col="t", start_col="s", end_col="e",
            point_cols=["pid"], interval_cols=["iid"],
            n_buckets=8,
            bucket_combiner=lambda pairs: pairs.groupby("iid", as_index=False).agg(
                c=("pid", "size")
            ),
        ).to_pandas()
        got = got.groupby("iid")["c"].sum().to_dict()
        assert got == want and len(want) > 0


@pytest.mark.usefixtures("ray_session")
class TestEpochShuffle:
    def test_dense_permutation_and_seed_sensitivity(self):
        from ocr_platform_ray.ops.shuffle import epoch_shuffle

        df = pd.DataFrame({"doc_id": np.arange(500)})
        a = (
            epoch_shuffle(rd.from_pandas(df, override_num_blocks=5), "doc_id", seed=7)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # pos is a dense 0..n-1 permutation (bijective shuffle key)
        assert sorted(a["pos"]) == list(range(500))
        # stable under a different block structure
        b = (
            epoch_shuffle(rd.from_pandas(df, override_num_blocks=13), "doc_id", seed=7)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
        # a different seed produces a different order (same dense range)
        c = (
            epoch_shuffle(rd.from_pandas(df, override_num_blocks=5), "doc_id", seed=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert sorted(c["pos"]) == list(range(500))
        assert not (a["pos"].to_numpy() == c["pos"].to_numpy()).all()

    def test_composes_with_pack_sequences(self):
        from ocr_platform_ray.ops.pack import pack_sequences
        from ocr_platform_ray.ops.shuffle import epoch_shuffle

        df = pd.DataFrame({"doc_id": np.arange(40)})
        shuffled = epoch_shuffle(rd.from_pandas(df), "doc_id", seed=1)
        counts = shuffled.map_batches(
            lambda b: pd.DataFrame(
                {"pos": b["pos"], "n_tokens": np.full(len(b), 100, dtype="int64")}
            ),
            batch_format="pandas",
        )
        packed = (
            pack_sequences(counts, key_col="pos", count_col="n_tokens", chunk_tokens=300)
            .to_pandas()
            .sort_values("pos")
            .reset_index(drop=True)
        )
        # 100-token docs in shuffled order -> 3 docs per 300-token chunk
        assert packed["chunk_id"].tolist() == [i // 3 for i in range(40)]


@pytest.mark.usefixtures("ray_session")
class TestTokenDF:
    def test_distinct_doc_counts(self):
        from ocr_platform_ray.ops.textstats import token_document_frequency

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "apple apple banana",  # apple counted once for doc 0
                    "apple cherry",
                    "banana banana",
                ],
            }
        )
        out = token_document_frequency(
            rd.from_pandas(df, override_num_blocks=2), min_df=1
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        got = out.set_index("token")["df"].to_dict()
        assert got == {"apple": 2, "banana": 2, "cherry": 1}


@pytest.mark.usefixtures("ray_session")
class TestSourceMixture:
    def _corpus(self):
        rng = np.random.default_rng(3)
        return pd.DataFrame(
            {
                "doc_id": np.arange(400),
                "source": [f"s{i}" for i in rng.integers(0, 4, 400)],
            }
        )

    def test_copy_counts_match_weights(self):
        from ocr_platform_ray.ops.mix import weighted_source_mixture
        from ocr_platform_ray.ops.shuffle import shuffle_hash

        df = self._corpus()
        weights = {"s0": 2.5, "s1": 1.0, "s2": 0.25, "s3": 0.0}
        out = (
            weighted_source_mixture(
                rd.from_pandas(df, override_num_blocks=4),
                source_col="source", key_col="doc_id", weights=weights, seed=9,
            )
            .to_pandas()
            .sort_values(["doc_id", "copy_idx"])
            .reset_index(drop=True)
        )
        # per-row naive expectation from the same hash
        sk = shuffle_hash(df["doc_id"].to_numpy(), 9).astype("float64")
        w = df["source"].map(weights).to_numpy(dtype="float64")
        want = (np.floor(w) + (sk < np.floor((w - np.floor(w)) * 2.0**32))).astype(int)
        got_counts = out.groupby("doc_id").size()
        for doc_id, n in zip(df["doc_id"], want):
            assert got_counts.get(doc_id, 0) == n
        # copy_idx is dense 0..copies-1 per doc
        assert (
            out.groupby("doc_id")["copy_idx"].apply(
                lambda s: s.tolist() == list(range(len(s)))
            )
        ).all()
        # excluded source emits nothing; upsampled source emits >= 2 each
        assert not (out["source"] == "s3").any()
        assert out[out["source"] == "s0"].groupby("doc_id").size().min() >= 2

    def test_deterministic_across_block_structures(self):
        from ocr_platform_ray.ops.mix import weighted_source_mixture

        df = self._corpus()
        weights = {"s0": 0.5, "s1": 1.5, "s2": 1.0, "s3": 0.125}
        runs = []
        for blocks in (1, 7):
            runs.append(
                weighted_source_mixture(
                    rd.from_pandas(df, override_num_blocks=blocks),
                    source_col="source", key_col="doc_id", weights=weights, seed=4,
                )
                .to_pandas()
                .sort_values(["doc_id", "copy_idx"])
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(runs[0], runs[1])

    def test_missing_source_raises(self):
        from ocr_platform_ray.ops.mix import weighted_source_mixture

        df = self._corpus()
        with pytest.raises(Exception, match="missing from weights"):
            weighted_source_mixture(
                rd.from_pandas(df),
                source_col="source", key_col="doc_id", weights={"s0": 1.0}, seed=0,
            ).materialize()

    def test_negative_weight_rejected(self):
        from ocr_platform_ray.ops.mix import weighted_source_mixture

        with pytest.raises(ValueError, match="must be >= 0"):
            weighted_source_mixture(
                rd.from_pandas(self._corpus()),
                source_col="source", key_col="doc_id",
                weights={"s0": -0.5}, seed=0,
            )


@pytest.mark.usefixtures("ray_session")
class TestNgramLM:
    def _naive(self, train_texts, score, alpha=0.5):
        # pure-python reference LM
        from collections import Counter

        cu, cb = Counter(), Counter()
        for t in train_texts:
            ws = t.lower().split()
            cu.update(ws)
            cb.update(zip(ws, ws[1:]))
        V = len(cu)
        rows = []
        for doc_id, t in score:
            ws = t.lower().split()
            pairs = list(zip(ws, ws[1:]))
            if not pairs:
                continue
            nll = [
                -np.log((cb.get(p, 0) + alpha) / (cu.get(p[0], 0) + alpha * V))
                for p in pairs
            ]
            rows.append((doc_id, len(pairs), float(np.mean(nll))))
        return pd.DataFrame(rows, columns=["doc_id", "n_bigrams", "avg_nll"])

    def test_matches_naive_with_messy_whitespace(self):
        from ocr_platform_ray.ops.lm import ngram_lm_scores

        train = ["the cat sat", "  the cat\tran fast ", "a dog sat"]
        score = [
            (0, "the cat sat"),          # all seen bigrams
            (1, " unseen words entirely "),  # all smoothed
            (2, "one"),                  # < 2 tokens -> absent
            (3, "\t\n  "),               # whitespace only -> absent
            (4, "THE CAT ran"),          # case folding
        ]
        got = ngram_lm_scores(
            rd.from_pandas(
                pd.DataFrame({"doc_id": range(3), "text": train}),
                override_num_blocks=2,
            ),
            rd.from_pandas(
                pd.DataFrame(score, columns=["doc_id", "text"]),
                override_num_blocks=3,
            ),
        )
        if not isinstance(got, pd.DataFrame):
            got = got.to_pandas()
        got = got.sort_values("doc_id").reset_index(drop=True)
        want = self._naive(train, score).sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
        assert got["doc_id"].tolist() == [0, 1, 4]
        # seen text scores lower (less surprising) than unseen text
        s = got.set_index("doc_id")["avg_nll"]
        assert s[0] < s[1]

    def test_deterministic_across_block_structures(self):
        from ocr_platform_ray.ops.lm import ngram_lm_scores

        rng = np.random.default_rng(2)
        vocab = np.array(["alpha", "beta", "gamma", "delta", "eps"])
        texts = [" ".join(rng.choice(vocab, rng.integers(0, 12))) for _ in range(60)]
        df = pd.DataFrame({"doc_id": np.arange(60), "text": texts})
        runs = []
        for blocks in (1, 9):
            out = ngram_lm_scores(
                rd.from_pandas(df[df.doc_id % 2 == 0], override_num_blocks=blocks),
                rd.from_pandas(df, override_num_blocks=blocks),
            )
            if not isinstance(out, pd.DataFrame):
                out = out.to_pandas()
            runs.append(out.sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(runs[0], runs[1])

    def test_oracle_matches_duckdb_rtol(self):
        # dedicated (not in the generic tail parametrize): avg_nll is a
        # float column, so sort by doc_id and compare with rtol — the
        # generic test's sort-by-all-columns could misalign float ties
        import duckdb

        from ocr_platform_ray.pipelines.queries import ORACLE_SQL, QUERIES

        sf = "/root/testdata/sf0.001"
        got = QUERIES["lm_perplexity"](sf)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
        )
        want = (
            con.execute(ORACLE_SQL["lm_perplexity"])
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        g = got.sort_values("doc_id").reset_index(drop=True)
        assert len(g) == len(want) > 0
        pd.testing.assert_frame_equal(
            g[want.columns], want, check_dtype=False, rtol=1e-9
        )

    def test_empty_score_side_returns_empty(self):
        from ocr_platform_ray.ops.lm import ngram_lm_scores

        df = pd.DataFrame({"doc_id": [0, 1], "text": ["a b c", "b c d"]})
        out = ngram_lm_scores(
            rd.from_pandas(df),
            rd.from_pandas(df).map_batches(
                lambda b: b[b["doc_id"] > 99], batch_format="pandas"
            ),
        )
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        assert len(out) == 0
        assert set(out.columns) == {"doc_id", "n_bigrams", "avg_nll"}

    def test_tokenless_train_raises(self):
        from ocr_platform_ray.ops.lm import ngram_lm_scores

        empty_train = pd.DataFrame({"doc_id": [0], "text": ["   \t  "]})
        score = pd.DataFrame({"doc_id": [0], "text": ["a b"]})
        with pytest.raises(ValueError, match="no tokens"):
            ngram_lm_scores(rd.from_pandas(empty_train), rd.from_pandas(score))

    def test_exchange_route_matches_broadcast(self):
        # broadcast_threshold_rows=1 forces every planner off the driver:
        # exchange count finish, materialized count Datasets, bucketed
        # joins, exchange per-doc reduce — must equal the default route
        from ocr_platform_ray.ops.lm import ngram_lm_scores

        rng = np.random.default_rng(8)
        vocab = np.array(["red", "green", "blue", "cyan", "teal", "plum"])
        texts = [" ".join(rng.choice(vocab, rng.integers(2, 10))) for _ in range(40)]
        df = pd.DataFrame({"doc_id": np.arange(40), "text": texts})
        tr = rd.from_pandas(df[df.doc_id % 3 == 0], override_num_blocks=3)
        sc = rd.from_pandas(df, override_num_blocks=4)

        def norm(out):
            if not isinstance(out, pd.DataFrame):
                out = out.to_pandas()
            return out.sort_values("doc_id").reset_index(drop=True)

        a = norm(ngram_lm_scores(tr, sc))
        b = norm(ngram_lm_scores(tr, sc, broadcast_threshold_rows=1))
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestGroupedOrderedConcat:
    def test_order_and_separator(self):
        from ocr_platform_ray.ops.chunks import grouped_ordered_concat

        df = pd.DataFrame(
            {
                "chunk_id": [1, 0, 1, 0, 2],
                "pos": [7, 2, 3, 9, 0],
                "text": ["b", "x", "a", "y", "solo"],
            }
        )
        got = (
            grouped_ordered_concat(
                rd.from_pandas(df, override_num_blocks=3),
                group_col="chunk_id", order_col="pos", text_col="text",
                sep="|",
            )
            .to_pandas()
            .sort_values("chunk_id")
            .reset_index(drop=True)
        )
        assert got["chunk_text"].tolist() == ["x|y", "a|b", "solo"]
        assert got["n_items"].tolist() == [2, 2, 1]

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.chunks import grouped_ordered_concat

        rng = np.random.default_rng(5)
        n = 300
        df = pd.DataFrame(
            {
                "chunk_id": rng.integers(0, 40, n),
                "pos": rng.permutation(n),
                "text": [f"t{i}" for i in range(n)],
            }
        )
        runs = []
        for blocks in (1, 11):
            runs.append(
                grouped_ordered_concat(
                    rd.from_pandas(df, override_num_blocks=blocks),
                    group_col="chunk_id", order_col="pos", text_col="text",
                )
                .to_pandas()
                .sort_values("chunk_id")
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(runs[0], runs[1])

@pytest.mark.usefixtures("ray_session")
class TestRevenueByNationRoutes:
    def test_driver_dims_route_matches_dataset_plan(self):
        # dims="auto" reads footer-proven-small dimension tables driver-side
        # (zero Ray executions) and joins only the lineitem stream; must
        # equal the fully planner-composed Dataset plan.
        from ocr_platform_ray.pipelines.queries import q_revenue_by_nation

        sf = "/root/testdata/sf0.001"

        def norm(out):
            if not isinstance(out, pd.DataFrame):
                out = out.to_pandas()
            return out.sort_values("n_name").reset_index(drop=True)

        a = norm(q_revenue_by_nation(sf))
        b = norm(q_revenue_by_nation(sf, dims="dataset"))
        assert len(a) > 0
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestDupSpans:
    """ExactSubstr-style duplicated token-window spans (ops/spans.py)."""

    W, MC = 3, 2

    def _corpus(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        vocab = np.array(list("abcdefgh"))
        texts = [
            " ".join(rng.choice(vocab, rng.integers(1, 12))) for _ in range(n)
        ]
        for i in range(0, n, 7):  # shared 5-token phrase -> real dup spans
            texts[i] = texts[i] + " x y z w v"
        return pd.DataFrame({"doc_id": np.arange(n), "text": texts})

    def _naive(self, df):
        from collections import Counter

        cnt, wins = Counter(), {}
        for i, t in zip(df.doc_id, df.text):
            toks = t.split(" ")
            ws = [
                " ".join(toks[j : j + self.W])
                for j in range(len(toks) - self.W + 1)
            ]
            wins[i] = (toks, ws)
            cnt.update(ws)
        dup = {g for g, c in cnt.items() if c >= self.MC}
        rows, stripped = [], []
        for i in df.doc_id:
            toks, ws = wins[i]
            dpos = [j for j, g in enumerate(ws) if g in dup]
            covered = set()
            for j in dpos:
                covered.update(range(j, j + self.W))
            rows.append((i, len(ws), len(dpos), len(covered)))
            stripped.append(
                (i, " ".join(t for j, t in enumerate(toks) if j not in covered))
            )
        return (
            pd.DataFrame(
                rows,
                columns=["doc_id", "n_windows", "n_dup_windows", "n_dup_tokens"],
            ),
            pd.DataFrame(stripped, columns=["doc_id", "text"]),
        )

    @pytest.mark.parametrize("method", ["broadcast", "bucketed"])
    def test_stats_and_strip_match_naive(self, method):
        from ocr_platform_ray.ops.spans import (
            dup_span_stats,
            strip_duplicated_spans,
        )

        df = self._corpus()
        want_stats, want_strip = self._naive(df)
        got = (
            dup_span_stats(
                rd.from_pandas(df, override_num_blocks=5),
                "text", "doc_id", width=self.W, min_count=self.MC, method=method,
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[want_stats.columns], want_stats, check_dtype=False
        )
        assert (got["n_dup_windows"] > 0).any()  # corpus really has dups
        gs = (
            strip_duplicated_spans(
                rd.from_pandas(df, override_num_blocks=5),
                "text", "doc_id", width=self.W, min_count=self.MC, method=method,
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(gs[want_strip.columns], want_strip)

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.spans import dup_span_stats

        df = self._corpus(n=90, seed=3)
        runs = []
        for blocks in (1, 13):
            runs.append(
                dup_span_stats(
                    rd.from_pandas(df, override_num_blocks=blocks),
                    "text", "doc_id", width=self.W, min_count=self.MC,
                )
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(runs[0], runs[1])

    def test_short_docs_and_within_doc_repeats(self):
        from ocr_platform_ray.ops.spans import (
            dup_span_stats,
            strip_duplicated_spans,
        )

        # doc 0: shorter than width (zero windows, survives strip intact);
        # doc 1: repeats its own trigram twice (within-doc dup counts);
        # doc 2: unique
        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": ["a b", "p q r s p q r", "u v w x y"],
            }
        )
        want_stats, want_strip = self._naive(df)
        assert want_stats.loc[1, "n_dup_windows"] == 2  # sanity of the fixture
        got = (
            dup_span_stats(rd.from_pandas(df), "text", "doc_id",
                           width=self.W, min_count=self.MC)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[want_stats.columns], want_stats, check_dtype=False
        )
        gs = (
            strip_duplicated_spans(rd.from_pandas(df), "text", "doc_id",
                                   width=self.W, min_count=self.MC)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert gs.loc[0, "text"] == "a b"
        pd.testing.assert_frame_equal(gs[want_strip.columns], want_strip)

    def test_no_duplicates_is_identity(self):
        from ocr_platform_ray.ops.spans import strip_duplicated_spans

        df = pd.DataFrame(
            {"doc_id": [0, 1], "text": ["one two three four", "five six seven eight"]}
        )
        gs = (
            strip_duplicated_spans(rd.from_pandas(df), "text", "doc_id",
                                   width=self.W, min_count=self.MC)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert gs["text"].tolist() == df["text"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestGroupedRankBuckets:
    """Per-group rank-quantile buckets (CCNet head/middle/tail window)."""

    def _naive(self, df, n_buckets, labels):
        df = df.sort_values(["grp", "score", "id"]).reset_index(drop=True)
        rank = df.groupby("grp").cumcount()
        size = df.groupby("grp")["score"].transform("size")
        return df.assign(bucket=[labels[i] for i in (n_buckets * rank) // size])

    def test_matches_naive_and_balanced(self):
        from ocr_platform_ray.ops.relational import grouped_rank_buckets

        rng = np.random.default_rng(11)
        n = 400
        df = pd.DataFrame(
            {
                "id": np.arange(n),
                "grp": rng.choice(list("abc"), n),
                "score": rng.normal(size=n).round(3),  # rounded -> real ties
            }
        )
        labels = ["head", "middle", "tail"]
        want = self._naive(df, 3, labels)
        got = (
            grouped_rank_buckets(
                rd.from_pandas(df, override_num_blocks=7),
                ["grp"], ["score", "id"], n_buckets=3, labels=labels,
            )
            .to_pandas()
            .sort_values(["grp", "score", "id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[want.columns], want)
        # rank-quantile buckets are balanced within 1 per group by
        # construction — the property the CCNet split relies on
        sizes = got.groupby(["grp", "bucket"]).size()
        for g in "abc":
            per = sizes[g]
            assert per.max() - per.min() <= 1

    def test_integer_buckets_and_block_independence(self):
        from ocr_platform_ray.ops.relational import grouped_rank_buckets

        rng = np.random.default_rng(4)
        df = pd.DataFrame(
            {
                "id": np.arange(150),
                "grp": rng.choice(["x", "y"], 150),
                "score": rng.integers(0, 20, 150),
            }
        )
        runs = []
        for blocks in (1, 9):
            runs.append(
                grouped_rank_buckets(
                    rd.from_pandas(df, override_num_blocks=blocks),
                    ["grp"], ["score", "id"], n_buckets=4,
                )
                .to_pandas()
                .sort_values("id")
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(runs[0], runs[1])
        assert set(runs[0]["bucket"]) == {0, 1, 2, 3}

    def test_bad_labels_raise(self):
        from ocr_platform_ray.ops.relational import grouped_rank_buckets

        with pytest.raises(ValueError, match="labels"):
            grouped_rank_buckets(
                rd.from_pandas(pd.DataFrame({"grp": ["a"], "score": [1], "id": [0]})),
                ["grp"], ["score", "id"], n_buckets=3, labels=["only", "two"],
            )


@pytest.mark.usefixtures("ray_session")
class TestDupSpansRegressions:
    """Review-pass regressions: dup-free corpora on the forced-bucketed
    route, and route-independent strip output schema."""

    def test_bucketed_stats_on_dup_free_corpus(self):
        from ocr_platform_ray.ops.spans import dup_span_stats

        df = pd.DataFrame(
            {"doc_id": [0, 1], "text": ["one two three four", "five six seven eight"]}
        )
        got = (
            dup_span_stats(rd.from_pandas(df), "text", "doc_id",
                           width=3, min_count=2, method="bucketed")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert got["n_windows"].tolist() == [2, 2]
        assert got["n_dup_windows"].tolist() == [0, 0]
        assert got["n_dup_tokens"].tolist() == [0, 0]

    def test_strip_schema_route_independent(self):
        from ocr_platform_ray.ops.spans import strip_duplicated_spans

        df = pd.DataFrame(
            {
                "doc_id": np.arange(6),
                "lang": ["en", "de", "en", "de", "en", "de"],
                "n_chars": np.arange(6) * 10,
                "text": ["a b c d e"] * 3 + ["p q r", "s t u", "v w x"],
            }
        )
        outs = {}
        for method in ("broadcast", "bucketed"):
            out = (
                strip_duplicated_spans(rd.from_pandas(df), "text", "doc_id",
                                       width=3, min_count=2, method=method)
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
            assert list(out.columns) == list(df.columns)
            assert str(out["n_chars"].dtype) == "int64"  # no NaN upcast
            outs[method] = out
        pd.testing.assert_frame_equal(outs["broadcast"], outs["bucketed"])
        assert outs["broadcast"].loc[0, "text"] == ""  # triplicate doc fully cut


class TestNewTailOraclesSf001:
    """The three newest tail queries also DuckDB-compared at sf0.01
    (their COVERAGE rows claim both scale factors)."""

    @pytest.mark.parametrize(
        "name", ["dup_span_stats", "strip_dup_spans", "ccnet_ppl_buckets"]
    )
    def test_matches_duckdb_sf001(self, name, ray_session):
        import duckdb

        from ocr_platform_ray.pipelines.queries import ORACLE_SQL, QUERIES

        sf = "/root/testdata/sf0.01"
        got = QUERIES[name](sf)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
        )
        want = (
            con.execute(ORACLE_SQL[name]).df()
            .sort_values("doc_id").reset_index(drop=True)
        )
        g = got.sort_values("doc_id").reset_index(drop=True)
        assert len(g) == len(want) > 0
        pd.testing.assert_frame_equal(g[want.columns], want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestDupSpanBloom:
    """Fixed-memory Bloom route (Dolma-style): exact-equal at a low
    false-positive rate, never-undercount at a forced-high one."""

    def _corpus(self):
        rng = np.random.default_rng(2)
        vocab = np.array(list("abcdefgh"))
        texts = [" ".join(rng.choice(vocab, rng.integers(1, 12))) for _ in range(50)]
        for i in range(0, 50, 6):
            texts[i] = texts[i] + " x y z w v"
        return pd.DataFrame({"doc_id": np.arange(50), "text": texts})

    def test_large_bitmap_matches_exact(self):
        from ocr_platform_ray.ops.spans import (
            dup_span_stats,
            strip_duplicated_spans,
        )

        df = self._corpus()
        kw = dict(width=3, min_count=2)
        exact = (
            dup_span_stats(rd.from_pandas(df), "text", "doc_id",
                           method="broadcast", **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        bloom = (
            dup_span_stats(rd.from_pandas(df), "text", "doc_id",
                           method="bloom", bloom_bits=1 << 20, **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(bloom[exact.columns], exact)
        se = (
            strip_duplicated_spans(rd.from_pandas(df), "text", "doc_id",
                                   method="broadcast", **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        sb = (
            strip_duplicated_spans(rd.from_pandas(df), "text", "doc_id",
                                   method="bloom", bloom_bits=1 << 20, **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(sb[se.columns], se)

    def test_tiny_bitmap_never_undercounts(self):
        # 128 bits for dozens of dup hashes -> false positives certain;
        # the Bloom guarantee is one-sided: flags must be a SUPERSET
        from ocr_platform_ray.ops.spans import dup_span_stats

        df = self._corpus()
        kw = dict(width=3, min_count=2)
        exact = (
            dup_span_stats(rd.from_pandas(df), "text", "doc_id",
                           method="broadcast", **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        bloom = (
            dup_span_stats(rd.from_pandas(df), "text", "doc_id",
                           method="bloom", bloom_bits=128, **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert (bloom["n_dup_windows"] >= exact["n_dup_windows"]).all()
        assert (bloom["n_dup_tokens"] >= exact["n_dup_tokens"]).all()
        assert (bloom["n_dup_windows"] > exact["n_dup_windows"]).any()  # fp real

    def test_dup_free_corpus_is_identity(self):
        from ocr_platform_ray.ops.spans import strip_duplicated_spans

        df = pd.DataFrame(
            {"doc_id": [0, 1], "text": ["one two three four", "five six seven eight"]}
        )
        out = (
            strip_duplicated_spans(rd.from_pandas(df), "text", "doc_id",
                                   width=3, min_count=2, method="bloom")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert out["text"].tolist() == df["text"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestReviewRegressions2:
    def test_non_word_aligned_bloom_bits(self):
        # bloom_bits not a multiple of 64 (and tiny) must round up to
        # whole words, not crash build/probe with IndexError
        from ocr_platform_ray.ops.spans import dup_span_stats

        df = pd.DataFrame(
            {"doc_id": [0, 1], "text": ["a b c d a b c", "a b c x y z w"]}
        )
        out = (
            dup_span_stats(rd.from_pandas(df), "text", "doc_id",
                           width=3, min_count=2, method="bloom", bloom_bits=100)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert (out["n_dup_windows"] >= 0).all() and len(out) == 2


@pytest.mark.usefixtures("ray_session")
class TestHLL:
    @pytest.mark.parametrize("true_n", [100, 5_000, 60_000])
    def test_error_within_bound(self, true_n):
        from ocr_platform_ray.ops.sketch import approx_distinct

        # duplicated values: 3 copies of each of true_n distinct ids
        vals = np.tile(np.arange(true_n, dtype=np.int64), 3)
        rng = np.random.default_rng(1)
        rng.shuffle(vals)
        ds = rd.from_pandas(pd.DataFrame({"v": vals}), override_num_blocks=7)
        est = approx_distinct(ds, "v", p=12)
        # 1.04/sqrt(4096) ~ 1.6% standard error; allow 5 sigma
        assert abs(est - true_n) / true_n < 0.08

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.sketch import approx_distinct

        vals = np.arange(3000, dtype=np.int64) % 1100
        ests = [
            approx_distinct(
                rd.from_pandas(pd.DataFrame({"v": vals}), override_num_blocks=nb),
                "v",
            )
            for nb in (1, 13)
        ]
        assert ests[0] == ests[1]  # register max is associative+commutative

    def test_grouped_matches_ungrouped(self):
        from ocr_platform_ray.ops.sketch import approx_distinct, approx_distinct_by

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {
                "k": rng.choice(["x", "y"], 4000),
                "v": rng.integers(0, 900, 4000),
            }
        )
        got = approx_distinct_by(rd.from_pandas(df, override_num_blocks=5), "k", "v")
        for key in ("x", "y"):
            solo = approx_distinct(
                rd.from_pandas(df[df.k == key]), "v"
            )
            assert got.set_index("k").loc[key, "approx_distinct"] == solo
            true = df[df.k == key]["v"].nunique()
            assert abs(solo - true) / true < 0.08


@pytest.mark.usefixtures("ray_session")
class TestHeavyHitters:
    def test_zipf_recovers_top_and_bounds_hold(self):
        from ocr_platform_ray.ops.sketch import heavy_hitters

        rng = np.random.default_rng(7)
        # zipf-ish: value i drawn with weight 1/(i+1)
        weights = 1.0 / (np.arange(2000) + 1)
        vals = rng.choice(2000, size=60_000, p=weights / weights.sum())
        df = pd.DataFrame({"v": [f"tok{v}" for v in vals]})
        true = df["v"].value_counts()
        out = heavy_hitters(
            rd.from_pandas(df, override_num_blocks=9), "v", k=256
        ).set_index("v")
        n = len(df)
        # guarantee: anything with true count > n/(k+1) is present
        for v, c in true.items():
            if c > n / 257:
                assert v in out.index, v
        # bounds: lb <= true <= ub for every reported value
        for v in out.index:
            assert out.loc[v, "count_lb"] <= true[v] <= out.loc[v, "count_ub"]
        # the unambiguous head is recovered in order
        top5 = list(out.head(5).index)
        assert top5 == list(true.head(5).index)

    def test_small_domain_is_exact(self):
        from ocr_platform_ray.ops.sketch import heavy_hitters

        df = pd.DataFrame({"v": ["a"] * 5 + ["b"] * 3 + ["c"] * 2})
        out = heavy_hitters(rd.from_pandas(df, override_num_blocks=3), "v", k=16)
        assert out["count_lb"].tolist() == out["count_ub"].tolist() == [5, 3, 2]
        assert out["v"].tolist() == ["a", "b", "c"]


@pytest.mark.usefixtures("ray_session")
class TestSketchQueries:
    """The two no-oracle sketch queries, pinned against exact answers."""

    def test_approx_distinct_users_near_exact(self):
        import duckdb

        from ocr_platform_ray.pipelines.queries import QUERIES

        sf = "/root/testdata/sf0.001"
        got = int(QUERIES["approx_distinct_users"](sf)["n_users_approx"].iloc[0])
        true = duckdb.sql(
            f"SELECT count(DISTINCT user_id) FROM read_parquet('{sf}/events.parquet')"
        ).fetchone()[0]
        assert abs(got - true) / true < 0.08

    def test_top_tokens_sketch_bounds_and_head(self):
        import duckdb

        from ocr_platform_ray.pipelines.queries import QUERIES

        sf = "/root/testdata/sf0.001"
        got = QUERIES["top_tokens_sketch"](sf).set_index("tok")
        true = duckdb.sql(
            f"""SELECT u.tok, count(*) AS c FROM
            (SELECT unnest(string_split(text, ' ')) AS tok
             FROM read_parquet('{sf}/documents.parquet')) u
            GROUP BY u.tok ORDER BY c DESC, u.tok"""
        ).df().set_index("tok")
        for tok in got.index:
            assert got.loc[tok, "count_lb"] <= true.loc[tok, "c"] <= got.loc[tok, "count_ub"]
        assert list(got.head(5).index) == list(true.head(5).index)
