"""Round-4 session-5 operator tests: snapshot diff / CDC, link graph
extraction, text normalization."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd


@pytest.mark.usefixtures("ray_session")
class TestSnapshotDiff:
    def _frames(self):
        old = pd.DataFrame(
            {
                "k": np.arange(0, 100, dtype="int64"),
                "text": [f"doc {i}" for i in range(100)],
                "extra": np.arange(100) * 2,
            }
        )
        new = old[old.k % 9 != 4].copy()  # %9==4 removed
        new.loc[new.k % 5 == 0, "text"] = "rewritten"  # changed
        add = pd.DataFrame(
            {"k": [200, 201], "text": ["brand new", "also new"], "extra": [0, 0]}
        )
        new = pd.concat([new, add], ignore_index=True)
        return old, new

    def _want(self, old, new):
        m = old.merge(new, on="k", how="outer", suffixes=("_o", "_n"), indicator=True)
        status = np.where(
            m["_merge"] == "right_only",
            "added",
            np.where(
                m["_merge"] == "left_only",
                "removed",
                np.where(m["text_o"] == m["text_n"], "unchanged", "changed"),
            ),
        )
        return pd.DataFrame({"k": m["k"], "change": status})

    def test_matches_pandas_truth(self):
        from ocr_platform_ray.ops.diff import snapshot_diff

        old, new = self._frames()
        got = (
            snapshot_diff(rd.from_pandas(old), rd.from_pandas(new), "k", ["text"])
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = self._want(old, new)
        want = (
            want[want.change != "unchanged"].sort_values("k").reset_index(drop=True)
        )
        assert got["k"].astype("int64").tolist() == want["k"].astype("int64").tolist()
        assert got["change"].tolist() == want["change"].tolist()
        assert set(got["change"]) == {"added", "removed", "changed"}

    def test_include_unchanged_and_block_independence(self):
        from ocr_platform_ray.ops.diff import snapshot_diff

        old, new = self._frames()
        outs = []
        for nb in (1, 7):
            got = (
                snapshot_diff(
                    rd.from_pandas(old).repartition(nb),
                    rd.from_pandas(new).repartition(max(1, 11 - nb)),
                    "k",
                    ["text"],
                    include_unchanged=True,
                )
                .to_pandas()
                .sort_values("k")
                .reset_index(drop=True)
            )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        want = self._want(old, new).sort_values("k").reset_index(drop=True)
        assert outs[0]["change"].tolist() == want["change"].tolist()

    def test_multi_column_identity(self):
        from ocr_platform_ray.ops.diff import snapshot_diff

        old, new = self._frames()
        # extra participates: rows whose text is unchanged but extra differs
        new2 = new.copy()
        touched = (new2.k % 5 != 0) & (new2.k < 100) & (new2.k % 3 == 1)
        new2.loc[touched, "extra"] = -1
        got = (
            snapshot_diff(
                rd.from_pandas(old), rd.from_pandas(new2), "k", ["text", "extra"]
            )
            .to_pandas()
        )
        changed = set(got[got.change == "changed"]["k"].astype(int))
        assert set(new2[touched]["k"].astype(int)) <= changed

    def test_string_keys(self):
        from ocr_platform_ray.ops.diff import snapshot_diff

        old = pd.DataFrame({"u": ["a", "b", "c"], "v": ["1", "2", "3"]})
        new = pd.DataFrame({"u": ["b", "c", "d"], "v": ["2", "x", "4"]})
        got = (
            snapshot_diff(rd.from_pandas(old), rd.from_pandas(new), "u", ["v"])
            .to_pandas()
            .sort_values("u")
            .reset_index(drop=True)
        )
        assert dict(zip(got["u"], got["change"])) == {
            "a": "removed",
            "c": "changed",
            "d": "added",
        }

    def test_duplicate_key_raises(self):
        from ocr_platform_ray.ops.diff import snapshot_diff

        old = pd.DataFrame({"k": [1, 1], "v": ["a", "b"]})
        new = pd.DataFrame({"k": [1], "v": ["a"]})
        with pytest.raises(Exception, match="duplicate|unique"):
            snapshot_diff(
                rd.from_pandas(old), rd.from_pandas(new), "k", ["v"]
            ).to_pandas()


@pytest.mark.usefixtures("ray_session")
class TestExtractHostLinks:
    def _pages(self):
        rows = [
            # absolute, protocol-relative, relative, dropped schemes
            ("https://a.com/p/1",
             '<a href="https://b.com/x">1</a><a href=\'//c.com/y\'>2</a>'
             '<a href="/rel">3</a><a href="#frag">4</a>'
             '<a href="mailto:z@q.c">5</a><a href="JavaScript:void(0)">6</a>'),
            ("https://a.com/p/2", '<a href="https://b.com/z">1</a><a href="https://b.com/w">2</a>'),
            ("https://b.com/p/3", "<p>no links</p>"),
            ("https://d.com/p/4", '<a HREF = "http://A-host.net/q">caps attr</a>'),
        ]
        return pd.DataFrame({"url": [r[0] for r in rows], "html": [r[1] for r in rows]})

    def _truth(self):
        return {
            ("a.com", "b.com"): 3,
            ("a.com", "c.com"): 1,
            ("a.com", "a.com"): 1,
            ("d.com", "A-host.net"): 1,
        }

    def test_matches_truth(self):
        from ocr_platform_ray.ops.graph import extract_host_links

        out = extract_host_links(rd.from_pandas(self._pages()))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        got = {
            (s, d): int(n)
            for s, d, n in zip(out["src_host"], out["dst_host"], out["n_links"])
        }
        assert got == self._truth()

    def test_bytes_html_and_block_independence(self):
        from ocr_platform_ray.ops.graph import extract_host_links

        df = self._pages()
        df["html"] = df["html"].str.encode("utf-8")
        outs = []
        for nb in (1, 4):
            o = extract_host_links(rd.from_pandas(df).repartition(nb))
            if not isinstance(o, pd.DataFrame):
                o = o.to_pandas()
            outs.append(
                o.sort_values(["src_host", "dst_host"]).reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        got = {
            (s, d): int(n)
            for s, d, n in zip(
                outs[0]["src_host"], outs[0]["dst_host"], outs[0]["n_links"]
            )
        }
        assert got == self._truth()

    def test_unbalanced_quote_does_not_cross_rows(self):
        from ocr_platform_ray.ops.graph import extract_host_links

        df = pd.DataFrame(
            {
                "url": ["https://x.com/1", "https://y.com/2"],
                "html": [
                    '<a href="https://never-closed.com/oops',  # unterminated
                    '<a href="https://z.com/ok">fine</a>',
                ],
            }
        )
        out = extract_host_links(rd.from_pandas(df))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        got = set(zip(out["src_host"], out["dst_host"]))
        # the unterminated href must not swallow row 2's html; row 2's
        # link still extracts and attributes to y.com
        assert ("y.com", "z.com") in got
        assert not any(s == "x.com" and "z.com" in d for s, d in got)

    def test_feeds_pagerank(self):
        from ocr_platform_ray.ops.graph import extract_host_links, pagerank

        out = extract_host_links(rd.from_pandas(self._pages()))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        edges = out.loc[out.index.repeat(out["n_links"])][["src_host", "dst_host"]]
        ranks = pagerank(
            rd.from_pandas(edges.reset_index(drop=True)),
            "src_host",
            "dst_host",
            n_iter=15,
        )
        assert abs(ranks["rank"].sum() - 1.0) < 1e-9
        # b.com gets 3 of a.com's 5 out-links, c.com 1 -> b.com ranks higher
        r = dict(zip(ranks["node"], ranks["rank"]))
        assert r["b.com"] > r["c.com"]

    def test_empty_and_linkless(self):
        from ocr_platform_ray.ops.graph import extract_host_links

        df = pd.DataFrame({"url": ["https://a.com/1"], "html": ["<p>none</p>"]})
        out = extract_host_links(rd.from_pandas(df))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        assert len(out) == 0
        assert sorted(out.columns) == ["dst_host", "n_links", "src_host"]


@pytest.mark.usefixtures("ray_session")
class TestUnicodeRepair:
    def test_nfc_composes_and_is_idempotent(self):
        import unicodedata

        from ocr_platform_ray.functions.unicode import unicode_normalize

        dec = "café über آ"  # e+acute, u+diaeresis, alef+madda
        df = pd.DataFrame({"t": [dec, "plain ascii", "café"]})
        out = unicode_normalize(rd.from_pandas(df), "t").to_pandas()
        assert out["t"][0] == unicodedata.normalize("NFC", dec)
        assert "́" not in out["t"][0] and "é" in out["t"][0]
        assert out["t"][0].endswith("آ")  # alef-madda composed
        assert out["t"][1] == "plain ascii"
        assert out["t"][2] == "café"
        # idempotent
        out2 = unicode_normalize(rd.from_pandas(out), "t").to_pandas()
        pd.testing.assert_frame_equal(out, out2)

    def test_nfkd_and_out_col_and_bad_form(self):
        from ocr_platform_ray.functions.unicode import unicode_normalize

        df = pd.DataFrame({"t": ["ﬁne ½"]})  # fi-ligature, 1/2
        out = unicode_normalize(rd.from_pandas(df), "t", form="NFKD", out_col="t2").to_pandas()
        assert out["t2"][0].startswith("fine")
        assert out["t"][0] == "ﬁne ½"  # original kept
        with pytest.raises(ValueError, match="form"):
            unicode_normalize(rd.from_pandas(df), "t", form="nfc")

    def test_mojibake_repair(self):
        from ocr_platform_ray.functions.unicode import fix_mojibake

        cases = {
            "cafÃ©": "café",
            "naÃ¯ve rÃ©sumÃ©": "naïve résumé",
            "smart â€œquotesâ€\x9d and â€“ dash": "smart “quotes” and – dash",
            "â‚¬ 99": "€ 99",
        }
        clean = [
            "already clean café",
            "À bientôt",  # legit lead-like char, no continuation after
            "Ärzte in Österreich",
            "plain",
        ]
        df = pd.DataFrame({"text": list(cases) + clean})
        out = fix_mojibake(
            rd.from_pandas(df), "text", flag_col="fixed"
        ).to_pandas()
        got = dict(zip(df["text"], out["text"]))
        for bad, want in cases.items():
            assert got[bad] == want, (bad, got[bad])
        for c in clean:
            assert got[c] == c
        assert set(out[out["fixed"]]["text"]) == set(cases.values())

    def test_double_encoded_mojibake(self):
        from ocr_platform_ray.functions.unicode import fix_mojibake

        once = "café".encode("utf-8").decode("cp1252")
        twice = once.encode("utf-8").decode("cp1252")
        df = pd.DataFrame({"text": [twice]})
        out = fix_mojibake(rd.from_pandas(df), "text").to_pandas()
        assert out["text"][0] == "café"

    def test_unrepairable_left_untouched(self):
        from ocr_platform_ray.functions.unicode import fix_mojibake

        # contains the signature but does not decode as utf-8 -> unchanged
        s = "Ã¯Ã" + chr(0x2603)
        df = pd.DataFrame({"text": [s]})
        out = fix_mojibake(rd.from_pandas(df), "text", flag_col="f").to_pandas()
        assert out["text"][0] == s
        assert not out["f"][0]


@pytest.mark.usefixtures("ray_session")
class TestRobotsFilter:
    ROBOTS = (
        "# comment line\n"
        "User-agent: GoodBot\n"
        "Disallow: /good-secret/\n"
        "\n"
        "User-agent: *\n"
        "Disallow: /private/\n"
        "Allow: /private/open\n"
        "Disallow: /wild*/x\n"   # wildcard rule: dropped
        "Disallow:\n"            # empty: allow-all, no rule
        "Crawl-delay: 10\n"      # non-rule directive ignored
    )

    def test_group_selection_named_vs_star(self):
        from ocr_platform_ray.functions.robots import parse_robots_rules

        star = parse_robots_rules(self.ROBOTS, agent="*")
        assert star == [(False, "/private/"), (True, "/private/open")]
        named = parse_robots_rules(self.ROBOTS, agent="goodbot")
        # named group wins; * group does NOT also apply (RFC 9309)
        assert named == [(False, "/good-secret/")]
        other = parse_robots_rules(self.ROBOTS, agent="OtherBot")
        assert other == star

    def test_consecutive_agents_share_group(self):
        from ocr_platform_ray.functions.robots import parse_robots_rules

        txt = "User-agent: A\nUser-agent: B\nDisallow: /x/\n"
        assert parse_robots_rules(txt, agent="b") == [(False, "/x/")]

    def test_rule_before_any_group_ignored(self):
        from ocr_platform_ray.functions.robots import parse_robots_rules

        assert parse_robots_rules("Disallow: /x/\n") == []


    def test_filter_end_to_end_and_annotation(self):
        from ocr_platform_ray.functions.robots import robots_filter

        pages = pd.DataFrame(
            {
                "url": [
                    "https://gov.example/private/x",
                    "https://gov.example/private/open/doc",
                    "https://gov.example/pub",
                    "https://free.example/private/x",  # no robots -> allowed
                    "https://gov.example",  # empty path -> "/"
                ]
            }
        )
        robots = pd.DataFrame(
            {"host": ["gov.example"], "robots_txt": [self.ROBOTS]}
        )
        kept = robots_filter(rd.from_pandas(pages), robots).to_pandas()
        assert sorted(kept["url"]) == sorted(
            [
                "https://gov.example/private/open/doc",
                "https://gov.example/pub",
                "https://free.example/private/x",
                "https://gov.example",
            ]
        )
        ann = robots_filter(
            rd.from_pandas(pages).repartition(3), robots, keep_col="crawlable"
        ).to_pandas()
        assert len(ann) == len(pages)
        flags = ann.set_index("url")["crawlable"].to_dict()
        assert not flags["https://gov.example/private/x"]
        assert flags["https://gov.example/pub"]


@pytest.mark.usefixtures("ray_session")
class TestCardRedaction:
    def test_valid_cards_redacted_invalid_kept(self):
        from ocr_platform_ray.functions.pii import redact_cards_batch

        df = pd.DataFrame(
            {
                "text": [
                    "pay 4111-1111-1111-1111 now",        # valid Visa test PAN
                    "amex 3782 822463 10005 ok",          # valid 15-digit
                    "order 1234 5678 9012 3456 shipped",  # Luhn-invalid
                    "short 123456789 id",                 # too few digits
                    "clean text with no numbers",
                ]
            }
        )
        out = redact_cards_batch(df)
        assert out["redacted_text"][0] == "pay <CARD> now"
        assert out["redacted_text"][1] == "amex <CARD> ok"
        assert out["redacted_text"][2] == df["text"][2]  # invalid untouched
        assert out["redacted_text"][3] == df["text"][3]
        assert out["n_cards"].tolist() == [1, 1, 0, 0, 0]
        assert out["n_card_candidates"].tolist() == [1, 1, 1, 0, 0]

    def test_multiple_cards_and_block_independence(self):
        import ray.data as rd

        from ocr_platform_ray.functions.pii import redact_cards_batch

        rows = [
            {"text": "a 4111111111111111 b 5500-0000-0000-0004 c"},
            {"text": "none"},
        ] * 5
        outs = []
        for nb in (1, 4):
            o = (
                rd.from_items(rows)
                .repartition(nb)
                .map_batches(redact_cards_batch, batch_format="pandas")
                .to_pandas()
                .sort_values("text")
                .reset_index(drop=True)
            )
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        both = outs[0][outs[0]["n_cards"] == 2]
        assert len(both) == 5
        assert (both["redacted_text"] == "a <CARD> b <CARD> c").all()

    def test_luhn_reference_values(self):
        from ocr_platform_ray.functions.pii import luhn_valid

        # published test numbers (public ISO/IEC 7812 examples)
        assert luhn_valid("79927398713")
        assert not luhn_valid("79927398710")
        assert luhn_valid("4111111111111111")
        assert luhn_valid("5500000000000004")
        assert not luhn_valid("4111111111111112")


@pytest.mark.usefixtures("ray_session")
class TestExplainRoutes:
    def test_join_and_agg_routes_logged(self):
        from ocr_platform_ray.ops.relational import (
            auto_group_agg,
            auto_join,
            explain_routes,
            semi_join,
        )

        left = rd.from_pandas(
            pd.DataFrame({"k": np.arange(100, dtype="int64"), "v": 1})
        )
        right = rd.from_pandas(
            pd.DataFrame({"k": np.arange(10, dtype="int64"), "w": 2})
        )
        with explain_routes() as log:
            auto_join(left, right, "k").to_pandas()
            auto_join(left, right, "k", broadcast_threshold_rows=3).to_pandas()
            auto_join(left, right, "k", how="outer").to_pandas()
            semi_join(left, right, "k", method="auto").to_pandas()
            parts = left.map_batches(
                lambda b: b.groupby("k", as_index=False).agg(n=("v", "sum")),
                batch_format="pandas",
            )
            auto_group_agg(parts, ["k"], {"n": ("n", "sum")})
        routes = [(e["op"], e["route"]) for e in log]
        assert routes == [
            ("auto_join", "broadcast"),
            ("auto_join", "bucketed"),
            ("auto_join", "bucketed"),
            ("semi_join", "broadcast"),
            ("auto_group_agg", "driver"),
        ]
        assert log[0]["build_rows"] == 10
        assert "reason" in log[1]

    def test_nested_and_disabled(self):
        from ocr_platform_ray.ops.relational import _log_route, explain_routes

        _log_route("x", "y")  # no active log: must be a no-op
        with explain_routes() as outer:
            _log_route("a", "r1")
            with explain_routes() as inner:
                _log_route("b", "r2")
            _log_route("c", "r3")
        assert [e["op"] for e in outer] == ["a", "c"]
        assert [e["op"] for e in inner] == ["b"]

    def test_dedup_representatives_route_logged(self):
        from ocr_platform_ray.ops.dedup import dedup_keep_representatives
        from ocr_platform_ray.ops.relational import explain_routes

        ds = rd.from_pandas(
            pd.DataFrame({"id": np.arange(20, dtype="int64"), "t": "x"})
        )
        pairs = rd.from_pandas(
            pd.DataFrame({"id_a": [0, 1], "id_b": [5, 6]})
        )
        with explain_routes() as log:
            dedup_keep_representatives(ds, pairs, "id", clusters="auto").to_pandas()
        assert ("dedup_keep_representatives", "driver") in [
            (e["op"], e["route"]) for e in log
        ]


@pytest.mark.usefixtures("ray_session")
class TestKeySkewProfile:
    def _skewed(self):
        keys = np.concatenate(
            [np.zeros(500, dtype="int64"), np.arange(1, 101, dtype="int64").repeat(5)]
        )
        return pd.DataFrame({"k": keys, "v": 1.0})

    def test_exact_matches_pandas(self):
        from ocr_platform_ray.ops.profile import key_skew_profile

        df = self._skewed()
        prof = key_skew_profile(rd.from_pandas(df).repartition(5), "k", top=3)
        vc = df["k"].value_counts()
        assert prof["n_rows"] == len(df)
        assert prof["n_keys"] == df["k"].nunique()
        assert prof["max_count"] == int(vc.max())
        assert prof["max_fraction"] == vc.max() / len(df)
        assert prof["top"]["k"].tolist()[0] == 0
        assert prof["top"]["count"].tolist() == [500, 5, 5]
        assert prof["recommendation"] == "broadcast-hot-keys"

    def test_uniform_recommends_hash_partition(self):
        from ocr_platform_ray.ops.profile import key_skew_profile

        df = pd.DataFrame({"k": np.arange(1000, dtype="int64") % 200})
        prof = key_skew_profile(rd.from_pandas(df), "k")
        assert prof["recommendation"] == "hash-partition"
        assert prof["mean_count"] == 5.0

    def test_sketch_route_bounds_exact(self):
        from ocr_platform_ray.ops.profile import key_skew_profile

        df = self._skewed()
        prof = key_skew_profile(
            rd.from_pandas(df).repartition(4), "k", top=3, method="sketch"
        )
        # MG upper bound never underestimates the true hot count
        assert prof["max_count"] >= 500
        assert prof["n_keys"] is None
        assert prof["recommendation"] == "broadcast-hot-keys"
        assert prof["top"].iloc[0]["k"] == 0

    def test_multi_key(self):
        from ocr_platform_ray.ops.profile import key_skew_profile

        df = pd.DataFrame({"a": [1, 1, 1, 2], "b": ["x", "x", "y", "y"]})
        prof = key_skew_profile(rd.from_pandas(df), ["a", "b"], top=2)
        assert prof["n_keys"] == 3
        assert prof["top"].iloc[0][["a", "b"]].tolist() == [1, "x"]


@pytest.mark.usefixtures("ray_session")
class TestParquetStatsAgg:
    def test_multi_file_dir_exact(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.sources.ingest import parquet_stats_agg

        rng = np.random.RandomState(3)
        frames = []
        for i in range(4):
            df = pd.DataFrame(
                {"x": rng.randn(200) * (i + 1), "n": rng.randint(0, 1000, 200)}
            )
            if i == 2:
                df.loc[5:9, "x"] = np.nan
            frames.append(df)
            pq.write_table(
                pa.Table.from_pandas(df, preserve_index=False),
                str(tmp_path / f"f{i}.parquet"),
            )
        allf = pd.concat(frames, ignore_index=True)
        out = parquet_stats_agg(str(tmp_path), ["x", "n"])
        assert out is not None
        assert int(out["n_rows"][0]) == 800
        assert out["x_min"][0] == allf["x"].min()
        assert out["x_max"][0] == allf["x"].max()
        assert int(out["x_nulls"][0]) == 5
        assert int(out["n_min"][0]) == int(allf["n"].min())

    def test_string_columns_refused(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.sources.ingest import parquet_stats_agg

        pq.write_table(
            pa.table({"s": ["abc", "zzz"], "i": [1, 2]}), str(tmp_path / "a.parquet")
        )
        assert parquet_stats_agg(str(tmp_path / "a.parquet"), ["s"]) is None
        out = parquet_stats_agg(str(tmp_path / "a.parquet"), ["i"])
        assert int(out["i_max"][0]) == 2

    def test_missing_column_and_empty(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.sources.ingest import parquet_stats_agg

        pq.write_table(pa.table({"i": [1]}), str(tmp_path / "a.parquet"))
        assert parquet_stats_agg(str(tmp_path / "a.parquet"), ["nope"]) is None
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(ValueError, match="no input"):
            parquet_stats_agg(str(empty), ["i"])


@pytest.mark.usefixtures("ray_session")
class TestReviewFixesS5:
    def test_host_links_null_first_row_bytes(self):
        from ocr_platform_ray.ops.graph import extract_host_links

        df = pd.DataFrame(
            {
                "url": ["https://a.com/1", "https://a.com/2"],
                "html": [None, '<a href="https://b.com/x">y</a>'.encode()],
            }
        )
        out = extract_host_links(rd.from_pandas(df))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        assert list(zip(out["src_host"], out["dst_host"])) == [("a.com", "b.com")]

    def test_key_skew_typed_empty_block(self):
        from ocr_platform_ray.ops.profile import key_skew_profile

        df = pd.DataFrame({"k": np.arange(10, dtype="int64")})
        ds = rd.from_pandas(df).union(
            rd.from_pandas(df.iloc[:0])  # typed zero-row block
        )
        prof = key_skew_profile(ds, "k")
        assert prof["n_rows"] == 10 and prof["n_keys"] == 10


@pytest.mark.usefixtures("ray_session")
class TestScriptRatios:
    def test_known_composition(self):
        from ocr_platform_ray.ops.textstats import add_script_ratios

        df = pd.DataFrame(
            {
                "text": [
                    "abcd12",              # 4/6 latin, 2/6 digit
                    "كتاب",                # all arabic
                    "мир мир",             # cyrillic + space
                    "漢字abc",              # cjk + latin
                    "",                    # empty -> all zero
                    "!!!",                 # none of the classes
                ]
            }
        )
        out = add_script_ratios(rd.from_pandas(df)).to_pandas()
        assert out["n_chars"].tolist() == [6, 4, 7, 5, 0, 3]
        assert abs(out["latin_ratio"][0] - 4 / 6) < 1e-12
        assert abs(out["digit_ratio"][0] - 2 / 6) < 1e-12
        assert out["arabic_ratio"][1] == 1.0
        assert abs(out["cyrillic_ratio"][2] - 6 / 7) < 1e-12
        assert abs(out["cjk_ratio"][3] - 2 / 5) < 1e-12
        assert abs(out["latin_ratio"][3] - 3 / 5) < 1e-12
        assert out.loc[4, [c for c in out.columns if c.endswith("_ratio")]].sum() == 0
        assert out.loc[5, [c for c in out.columns if c.endswith("_ratio")]].sum() == 0

    def test_empty_rows_anywhere_and_block_independence(self):
        from ocr_platform_ray.ops.textstats import add_script_ratios

        df = pd.DataFrame({"text": ["", "abc", "", "", "xyz9", ""]})
        outs = []
        for nb in (1, 3):
            o = (
                add_script_ratios(rd.from_pandas(df).repartition(nb))
                .to_pandas()
                .sort_values("text")
                .reset_index(drop=True)
            )
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        got = outs[0].set_index("text")
        assert got.loc["abc", "latin_ratio"] == 1.0
        assert got.loc["xyz9", "digit_ratio"] == 0.25


@pytest.mark.usefixtures("ray_session")
class TestSlidingWindows:
    def test_window_rule(self):
        from ocr_platform_ray.ops.chunks import sliding_token_windows

        df = pd.DataFrame(
            {
                "id": [1, 2, 3],
                "text": [
                    " ".join(f"t{i}" for i in range(10)),  # 10 toks
                    "a b c",                                # shorter than size
                    "",                                     # zero windows
                ],
            }
        )
        out = (
            sliding_token_windows(rd.from_pandas(df), "text", "id", size=4, stride=3)
            .to_pandas()
            .sort_values(["id", "win_idx"])
            .reset_index(drop=True)
        )
        w1 = out[out["id"] == 1]
        assert w1["win_text"].tolist() == [
            "t0 t1 t2 t3", "t3 t4 t5 t6", "t6 t7 t8 t9", "t9",
        ]
        assert w1["n_tokens"].tolist() == [4, 4, 4, 1]
        assert out[out["id"] == 2]["win_text"].tolist() == ["a b c"]
        assert (out["id"] == 3).sum() == 0

    def test_block_independence_and_validation(self):
        from ocr_platform_ray.ops.chunks import sliding_token_windows

        df = pd.DataFrame(
            {"id": range(20), "text": [" ".join(["w"] * (i % 7)) for i in range(20)]}
        )
        outs = []
        for nb in (1, 5):
            o = (
                sliding_token_windows(
                    rd.from_pandas(df).repartition(nb), "text", "id", size=3, stride=2
                )
                .to_pandas()
                .sort_values(["id", "win_idx"])
                .reset_index(drop=True)
            )
            outs.append(o)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        with pytest.raises(ValueError, match="stride"):
            sliding_token_windows(rd.from_pandas(df), "text", "id", size=3, stride=0)


@pytest.mark.usefixtures("ray_session")
class TestCrawlIngestPipeline:
    def _warc_shards(self, tmp_path, name, url_indices):
        import pyarrow as pa

        from ocr_platform_ray.corpus import make_pages_rows
        from ocr_platform_ray.schemas import PAGES_SCHEMA
        from ocr_platform_ray.sources.warc import write_pages_warc

        rows = list(make_pages_rows(url_indices))
        cols = {n: [r[n] for r in rows] for n in PAGES_SCHEMA.names}
        t = pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)
        # WARC carries no prior text; clear it like the route contract
        t = t.set_column(
            t.schema.get_field_index("text"),
            "text",
            pa.array([""] * len(t), pa.string()),
        )
        return write_pages_warc(str(tmp_path / name), t, urls_per_shard=4)

    def test_two_increments_dedup_and_replay(self, tmp_path):
        from ocr_platform_ray.pipelines.crawl import (
            ingest_crawl_increment,
            read_corpus,
        )

        corpus = str(tmp_path / "corpus")
        state = str(tmp_path / "state")
        day1 = self._warc_shards(tmp_path, "w1", range(0, 10))
        # overlap: urls 5-9 recrawled with IDENTICAL content
        day2 = self._warc_shards(tmp_path, "w2", range(5, 15))

        r1 = ingest_crawl_increment(day1, corpus, state, ingest_id="day1")
        assert not r1["replayed"] and r1["n_docs"] == 10
        r2 = ingest_crawl_increment(day2, corpus, state, ingest_id="day2")
        assert r2["n_docs"] == 10
        # recrawled urls dedup against day1's committed state
        assert r2["n_survivors"] <= 5
        total = read_corpus(corpus).to_pandas()
        assert len(total) == r1["n_survivors"] + r2["n_survivors"]
        assert total["url"].is_unique

        # replay: a rerun of a committed increment is a no-op read
        r1b = ingest_crawl_increment(day1, corpus, state, ingest_id="day1")
        assert r1b["replayed"] and r1b["n_survivors"] == r1["n_survivors"]

    def test_crash_between_commit_and_write_recovers(self, tmp_path):
        import glob
        import os
        import shutil

        from ocr_platform_ray.pipelines.crawl import ingest_crawl_increment

        corpus = str(tmp_path / "c")
        state = str(tmp_path / "s")
        day1 = self._warc_shards(tmp_path, "w1", range(0, 8))
        r1 = ingest_crawl_increment(day1, corpus, state, ingest_id="d1")
        # crash window A: dedup committed, partition rename never ran —
        # only a partial tmp dir exists
        shutil.rmtree(r1["out_dir"])
        partial = r1["out_dir"] + ".tmp"
        os.makedirs(partial)
        open(os.path.join(partial, "junk.parquet"), "wb").close()
        r1b = ingest_crawl_increment(day1, corpus, state, ingest_id="d1")
        assert r1b["replayed"] and r1b["n_survivors"] == r1["n_survivors"]
        assert os.path.isdir(r1["out_dir"]) and not os.path.isdir(partial)
        assert glob.glob(os.path.join(r1["out_dir"], "*.parquet"))
        # crash window B impossible by construction: the partition dir
        # appears via ONE rename, so existing == complete — the rerun's
        # early return reads it
        r1c = ingest_crawl_increment(day1, corpus, state, ingest_id="d1")
        assert r1c["replayed"] and r1c["n_survivors"] == r1["n_survivors"]

    def test_bad_dedup_mode(self, tmp_path):
        from ocr_platform_ray.pipelines.crawl import ingest_crawl_increment

        day1 = self._warc_shards(tmp_path, "w1", range(0, 3))
        with pytest.raises(ValueError, match="dedup"):
            ingest_crawl_increment(
                day1, str(tmp_path / "c"), str(tmp_path / "s"),
                ingest_id="x", dedup="nope",
            )


@pytest.mark.usefixtures("ray_session")
class TestReviewFixesS5b:
    def test_robots_named_group_with_dropped_rules_still_governs(self):
        from ocr_platform_ray.functions.robots import parse_robots_rules

        txt = "User-agent: mybot\nDisallow:\n\nUser-agent: *\nDisallow: /\n"
        # mybot's own group governs (empty Disallow = allow all) — no
        # fallback to the * group
        assert parse_robots_rules(txt, agent="mybot") == []
        assert parse_robots_rules(txt, agent="other") == [(False, "/")]
        # a named group with only wildcard rules also still governs
        txt2 = "User-agent: mybot\nDisallow: /*.pdf$\n\nUser-agent: *\nDisallow: /\n"
        assert parse_robots_rules(txt2, agent="mybot") == []

    def test_robots_host_with_port_and_case(self):
        from ocr_platform_ray.functions.robots import robots_filter

        pages = pd.DataFrame(
            {
                "url": [
                    "https://gov.example:443/private/x",
                    "HTTPS://GOV.EXAMPLE/private/y",
                ]
            }
        )
        robots = pd.DataFrame(
            {"host": ["gov.example"], "robots_txt": ["User-agent: *\nDisallow: /private/\n"]}
        )
        kept = robots_filter(rd.from_pandas(pages), robots).to_pandas()
        assert len(kept) == 0  # port / case variants still hit the rules

    def test_card_substring_of_longer_run_not_corrupted(self):
        from ocr_platform_ray.functions.pii import redact_cards_batch

        df = pd.DataFrame(
            {"text": ["Card: 4111 1111 1111 1111. Ref 94111 1111 1111 11115 end"]}
        )
        out = redact_cards_batch(df)
        assert out["redacted_text"][0] == (
            "Card: <CARD>. Ref 94111 1111 1111 11115 end"
        )
        assert out["n_cards"][0] == 1

    def test_stats_missing_null_count_refuses(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.sources.ingest import _footer_stats_record

        pq.write_table(pa.table({"i": [1, 2]}), str(tmp_path / "a.parquet"))
        real_meta = pq.ParquetFile(str(tmp_path / "a.parquet")).metadata

        class FakeStats:
            has_min_max = True
            min, max = 1, 2
            null_count = None  # writer omitted null counts (legal)

        class FakeCol:
            statistics = FakeStats()

        class FakeRG:
            def column(self, i):
                return FakeCol()

        class FakeMeta:
            num_rows = 2
            num_row_groups = 1
            num_columns = real_meta.num_columns
            schema = real_meta.schema

            def row_group(self, i):
                return FakeRG()

        rec = _footer_stats_record(FakeMeta(), ["i"])
        assert rec["ok"] is False  # exact-or-None: no silent nulls=0

        class GoodStats(FakeStats):
            null_count = 1

        class GoodCol:
            statistics = GoodStats()

        class GoodRG:
            def column(self, i):
                return GoodCol()

        class GoodMeta(FakeMeta):
            def row_group(self, i):
                return GoodRG()

        rec = _footer_stats_record(GoodMeta(), ["i"])
        assert rec["ok"] and rec["i_nulls"] == 1


@pytest.mark.usefixtures("ray_session")
class TestPca:
    def _vecs(self, n=300, d=8, seed=11):
        rng = np.random.RandomState(seed)
        # anisotropic cloud: two dominant directions
        base = rng.randn(n, d) * np.array([5.0, 3.0] + [0.5] * (d - 2))
        q, _ = np.linalg.qr(rng.randn(d, d))
        return pd.DataFrame(
            {"vec_id": np.arange(n, dtype="int64"), "embedding": list(base @ q)}
        )

    def _numpy_ref(self, X, k):
        mean = X.mean(axis=0)
        cov = np.cov(X, rowvar=False, ddof=1)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1][:k]
        comps = evecs[:, order].T
        for i in range(len(comps)):
            j = int(np.argmax(np.abs(comps[i])))
            if comps[i, j] < 0:
                comps[i] = -comps[i]
        return mean, comps, evals[order]

    def test_matches_numpy_reference(self):
        from ocr_platform_ray.ops.cluster import pca_fit

        df = self._vecs()
        X = np.stack(df["embedding"].to_numpy())
        model = pca_fit(rd.from_pandas(df).repartition(5), k=3)
        mean, comps, evals = self._numpy_ref(X, 3)
        np.testing.assert_allclose(model["mean"], mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model["components"], comps, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(
            model["explained_variance"], evals, rtol=1e-9
        )
        # orthonormal rows, variance descending
        np.testing.assert_allclose(
            model["components"] @ model["components"].T, np.eye(3), atol=1e-10
        )
        ev = model["explained_variance"]
        assert (np.diff(ev) <= 1e-12).all()

    def test_block_structure_rtol_and_transform(self):
        from ocr_platform_ray.ops.cluster import pca_fit, pca_transform

        df = self._vecs(n=200)
        m1 = pca_fit(rd.from_pandas(df).repartition(1), k=2)
        m7 = pca_fit(rd.from_pandas(df).repartition(7), k=2)
        np.testing.assert_allclose(m1["components"], m7["components"], rtol=1e-8)
        out = (
            pca_transform(rd.from_pandas(df), m1)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        Z = np.stack(out["pca"].to_numpy())
        X = np.stack(df["embedding"].to_numpy())
        want = (X - m1["mean"]) @ m1["components"].T
        np.testing.assert_allclose(Z, want, rtol=1e-10, atol=1e-12)
        # projected variance per axis == explained variance
        np.testing.assert_allclose(
            Z.var(axis=0, ddof=1), m1["explained_variance"], rtol=1e-9
        )

    def test_validation(self):
        from ocr_platform_ray.ops.cluster import pca_fit

        df = self._vecs(n=5, d=4)
        with pytest.raises(ValueError, match="k must"):
            pca_fit(rd.from_pandas(df), k=9)
        with pytest.raises(ValueError, match="at least 2"):
            pca_fit(rd.from_pandas(df.iloc[:1]), k=1)


@pytest.mark.usefixtures("ray_session")
class TestExpectations:
    def _df(self):
        return pd.DataFrame(
            {
                "id": [1, 2, 2, 3, 4, 4, 4],
                "score": [0.5, 1.5, None, -0.2, 0.9, 0.1, 2.0],
                "code": ["AB", "XY", "A1", None, "CD", "EF", "GH"],
                "kind": ["a", "b", "a", "c", "a", "z", "b"],
            }
        )

    def test_report_matches_hand_truth(self):
        from ocr_platform_ray.ops.validate import check_expectations

        rules = [
            {"column": "id", "rule": "unique"},
            {"column": "score", "rule": "not_null"},
            {"column": "score", "rule": "in_range", "lo": 0.0, "hi": 1.0},
            {"column": "code", "rule": "matches", "pattern": "[A-Z]{2}"},
            {"column": "kind", "rule": "in_set", "values": ["a", "b", "c"]},
        ]
        rep = check_expectations(rd.from_pandas(self._df()).repartition(3), rules)
        got = list(
            zip(rep["column"], rep["rule"], rep["n_violations"], rep["example"])
        )
        assert got == [
            ("id", "unique", 3, "2"),         # one extra 2, two extra 4s
            ("score", "not_null", 1, None),
            ("score", "in_range", 3, "-0.2"),  # -0.2, 1.5, 2.0 -> min
            ("code", "matches", 1, "A1"),
            ("kind", "in_set", 1, "z"),
        ]

    def test_block_independence(self):
        from ocr_platform_ray.ops.validate import check_expectations

        rules = [{"column": "id", "rule": "unique"}]
        r1 = check_expectations(rd.from_pandas(self._df()).repartition(1), rules)
        r7 = check_expectations(rd.from_pandas(self._df()).repartition(7), rules)
        pd.testing.assert_frame_equal(r1, r7)

    def test_unknown_rule_rejected(self):
        from ocr_platform_ray.ops.validate import check_expectations

        with pytest.raises(ValueError, match="unknown rule"):
            check_expectations(
                rd.from_pandas(self._df()), [{"column": "id", "rule": "positive"}]
            )


@pytest.mark.usefixtures("ray_session")
class TestBloomFileIndex:
    def _layout(self, tmp_path, n=400):
        import pyarrow as pa
        import pyarrow.parquet as pq

        d = tmp_path / "data"
        d.mkdir()
        rng = np.random.RandomState(7)
        ids = rng.permutation(n).astype("int64")
        for i in range(8):
            chunk = ids[i * n // 8 : (i + 1) * n // 8]
            pq.write_table(
                pa.table({"k": chunk, "v": [f"row {x}" for x in chunk]}),
                str(d / f"part-{i:03d}.parquet"),
            )
        return str(d), ids

    def test_exact_and_skipping(self, tmp_path):
        from ocr_platform_ray.ops.layout import (
            bloom_lookup_plan,
            bloom_pruned_lookup,
            build_bloom_manifest,
        )

        d, ids = self._layout(tmp_path)
        man = build_bloom_manifest(d, "k")
        assert len(man) == 8
        keys = [int(ids[3]), int(ids[77]), int(ids[205])]
        cands, total = bloom_lookup_plan(d, "k", keys)
        assert total == 8 and 1 <= len(cands) < 8  # real pruning
        out = bloom_pruned_lookup(d, "k", keys).to_pandas()
        assert sorted(out["k"]) == sorted(keys)  # exact despite fp rate
        assert set(out["v"]) == {f"row {k}" for k in keys}

    def test_rejected_file_provably_lacks_key(self, tmp_path):
        from ocr_platform_ray.ops.layout import bloom_lookup_plan
        import pyarrow.parquet as pq
        import os

        d, ids = self._layout(tmp_path)
        from ocr_platform_ray.ops.layout import build_bloom_manifest

        build_bloom_manifest(d, "k")
        keys = [int(ids[0])]
        cands, _ = bloom_lookup_plan(d, "k", keys)
        for f in sorted(os.listdir(d)):
            if f.startswith("part-") and f not in cands:
                got = pq.read_table(os.path.join(d, f), columns=["k"])
                assert keys[0] not in set(got.column("k").to_pylist())

    def test_absent_key_and_string_keys(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.ops.layout import (
            bloom_pruned_lookup,
            build_bloom_manifest,
        )

        d = tmp_path / "s"
        d.mkdir()
        for i in range(4):
            pq.write_table(
                pa.table({"u": [f"url-{i}-{j}" for j in range(50)]}),
                str(d / f"p{i}.parquet"),
            )
        build_bloom_manifest(str(d), "u")
        hit = bloom_pruned_lookup(str(d), "u", ["url-2-7", "url-0-0"]).to_pandas()
        assert sorted(hit["u"]) == ["url-0-0", "url-2-7"]
        miss_ds = bloom_pruned_lookup(str(d), "u", ["nope"])
        # typed-empty Dataset (pandas conversion of an empty Dataset
        # drops columns — the probe_head contract — so assert on schema)
        assert miss_ds.count() == 0
        assert miss_ds.schema().names == ["u"]


@pytest.mark.usefixtures("ray_session")
class TestTriangleCount:
    """Round-4 session-7: exact triangle counting (ops/graph.py::
    triangle_count, degree-oriented wedge join)."""

    @staticmethod
    def _brute(pairs) -> int:
        E = {(min(s, d), max(s, d)) for s, d in pairs if s != d}
        adj: dict = {}
        for a, b in E:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        # per-edge common neighbors sums each triangle three times
        return sum(len(adj[a] & adj[b]) for a, b in E) // 3

    def _pairs(self, n_nodes=40, n_edges=300, seed=7):
        import random

        rng = random.Random(seed)
        pairs = [
            (rng.randrange(n_nodes), rng.randrange(n_nodes))
            for _ in range(n_edges)
        ]
        # reversed duplicates + self loops must collapse / drop
        return pairs + [(d, s) for s, d in pairs[:50]] + [(5, 5), (7, 7)]

    def test_matches_brute_force_both_degree_routes(self):
        from ocr_platform_ray.ops.graph import triangle_count

        pairs = self._pairs()
        want = self._brute(pairs)
        ds = rd.from_pandas(pd.DataFrame(pairs, columns=["src", "dst"]))
        assert triangle_count(ds) == want  # broadcast-degree route
        # force the bucketed-degree-join route past the probe
        assert triangle_count(ds, deg_threshold_rows=3) == want

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.graph import triangle_count

        pairs = self._pairs(seed=11)
        want = self._brute(pairs)
        df = pd.DataFrame(pairs, columns=["src", "dst"])
        for nb in (1, 7, 23):
            assert triangle_count(rd.from_pandas(df).repartition(nb)) == want

    def test_known_graphs_and_string_ids(self):
        import itertools

        from ocr_platform_ray.ops.graph import triangle_count

        k4 = pd.DataFrame(
            list(itertools.combinations(range(4), 2)), columns=["src", "dst"]
        )
        assert triangle_count(rd.from_pandas(k4)) == 4
        ring = pd.DataFrame(
            {"src": list(range(6)) * 2,
             "dst": [(i + 1) % 6 for i in range(6)] + [(i + 2) % 6 for i in range(6)]}
        )
        # 6 consecutive-triple triangles + the two all-chord triangles
        # (0-2-4 and 1-3-5)
        assert triangle_count(rd.from_pandas(ring)) == 8
        pairs = self._pairs(seed=3)
        sp = pd.DataFrame(
            [("h%d" % s, "h%d" % d) for s, d in pairs], columns=["src", "dst"]
        )
        assert triangle_count(rd.from_pandas(sp).repartition(5)) == self._brute(pairs)

    def test_empty_and_triangle_free(self):
        from ocr_platform_ray.ops.graph import triangle_count

        emp = rd.from_pandas(
            pd.DataFrame(
                {"src": pd.Series([], dtype="int64"),
                 "dst": pd.Series([], dtype="int64")}
            )
        )
        assert triangle_count(emp) == 0
        # self-loops only
        sl = rd.from_pandas(pd.DataFrame({"src": [1, 2, 3], "dst": [1, 2, 3]}))
        assert triangle_count(sl) == 0
        # a tree (star) has no triangles
        star = rd.from_pandas(
            pd.DataFrame({"src": [0] * 8, "dst": list(range(1, 9))})
        )
        assert triangle_count(star) == 0


@pytest.mark.usefixtures("ray_session")
class TestJsonlSource:
    """Round-4 session-7: JSONL source + sink (sources/jsonl.py)."""

    def _df(self):
        return pd.DataFrame(
            {
                "doc_id": np.arange(6, dtype="int64"),
                "text": [
                    "plain", "héllo wörld", "line\nbreak\ttab",
                    None, 'quotes "and" \\slashes\\', "emoji ☕",
                ],
                "score": [1.5, 2.0, -0.25, 0.0, 3.75, 1e-3],
                "tags": [["a", "b"], [], ["c"], ["d", "e", "f"], [], ["g"]],
            }
        )

    def test_roundtrip_values_exact(self, tmp_path):
        from ocr_platform_ray.sources.jsonl import read_jsonl, write_jsonl_dataset

        df = self._df()
        files = write_jsonl_dataset(
            rd.from_pandas(df).repartition(3), str(tmp_path)
        )
        assert len(files) == 3
        back = (
            read_jsonl(files)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = df.copy()
        want["tags"] = want["tags"].map(list)
        back["tags"] = back["tags"].map(list)
        pd.testing.assert_frame_equal(back[want.columns.tolist()], want)

    def test_gzip_equals_plain_and_idempotent(self, tmp_path):
        from ocr_platform_ray.sources.jsonl import read_jsonl, write_jsonl_dataset

        df = self._df()
        d1, d2 = str(tmp_path / "gz"), str(tmp_path / "plain")
        f_gz = write_jsonl_dataset(rd.from_pandas(df), d1, compress=True)
        f_pl = write_jsonl_dataset(rd.from_pandas(df), d2)
        assert all(p.endswith(".jsonl.gz") for p in f_gz)
        a = read_jsonl(f_gz).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = read_jsonl(f_pl).to_pandas().sort_values("doc_id").reset_index(drop=True)
        a["tags"], b["tags"] = a["tags"].map(list), b["tags"].map(list)
        pd.testing.assert_frame_equal(a, b)
        # idempotent rerun: same names, same bytes
        import hashlib, os
        before = {
            p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in f_gz
        }
        f_again = write_jsonl_dataset(rd.from_pandas(df), d1, compress=True)
        assert f_again == f_gz
        assert sorted(os.listdir(d1)) == sorted(os.path.basename(p) for p in f_gz)
        after = {
            p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in f_gz
        }
        assert before == after

    def test_columns_projection_and_empty_block(self, tmp_path):
        from ocr_platform_ray.sources.jsonl import read_jsonl, write_jsonl_dataset

        df = self._df()
        files = write_jsonl_dataset(rd.from_pandas(df), str(tmp_path))
        back = read_jsonl(files, columns=["doc_id", "score"])
        assert back.schema().names == ["doc_id", "score"]
        assert back.count() == len(df)
        # an empty Dataset writes no shards and doesn't crash
        empty = rd.from_pandas(df.head(0))
        assert write_jsonl_dataset(empty, str(tmp_path / "e")) == []


@pytest.mark.usefixtures("ray_session")
class TestBoilerplate:
    """Round-4 session-7: HTML main-content extraction
    (ops/boilerplate.py — jusText/boilerpipe block rule)."""

    @staticmethod
    def _naive(html, min_words=10, mld=0.33):
        """Independent Python-re mirror of the published rule."""
        import re as _re

        from ocr_platform_ray.ops.boilerplate import _ENTITIES

        if html is None:
            html = ""
        if isinstance(html, (bytes, bytearray)):
            html = html.decode("utf-8")
        for pat, fl in (
            (r"<script\b[^>]*>.*?</script>", _re.I | _re.S),
            (r"<style\b[^>]*>.*?</style>", _re.I | _re.S),
            (r"<!--.*?-->", _re.S),
        ):
            html = _re.sub(pat, " ", html, flags=fl)
        block_tag = _re.compile(
            r"</?(?:p|div|h[1-6]|li|ul|ol|table|thead|tbody|tr|td|th|section"
            r"|article|header|footer|nav|aside|blockquote|pre|form|main)"
            r"\b[^>]*>|<br\s*/?>",
            _re.I,
        )

        def strip(s):
            s = _re.sub(r"<[^>]*>", " ", s, flags=_re.S)
            for ent, rep in _ENTITIES:
                s = s.replace(ent, rep)
            return _re.sub(r"\s+", " ", s).strip()

        kept, nb = [], 0
        for blk in block_tag.split(html):
            t = strip(blk)
            la = len(t)
            noa = strip(
                _re.sub(r"<a\b[^>]*>.*?</a>", " ", blk, flags=_re.I | _re.S)
            )
            ld = max(la - len(noa), 0) / max(la, 1)
            w = len(_re.findall(r"\S+", t))
            if la > 0:
                nb += 1
                if w >= min_words and ld <= mld:
                    kept.append(t)
        return "\n\n".join(kept), nb, len(kept)

    def _corpus(self, n=30, seed=13):
        import random

        rng = random.Random(seed)
        chrome = [
            '<nav><a href="/">Home</a> <a href="/x">Docs</a> <a href="/y">Blog</a></nav>',
            '<footer>© 2024 Example <a href="/tos">Terms</a></footer>',
            '<ul><li><a href="/1">one</a></li><li><a href="/2">two</a></li></ul>',
            "<header><h1>Site</h1></header>",
        ]
        prose = [
            "<p>The quick brown fox jumps over the lazy dog while fifteen "
            "other animals watch from a distance in the golden meadow.</p>",
            "<div>Genuine article content with an inline <a href=\"/ref\">"
            "citation link</a> embedded inside a long enough paragraph to "
            "stay well under the link density ceiling overall.</div>",
            "<p>Entities like &amp; and &lt;tags&gt; and &quot;quotes&quot; "
            "appear here together with plenty of ordinary filler words to "
            "pass the minimum.</p>",
            "<p>Short.</p>",
            '<script>var nav = "<p>fake block inside script</p>";</script>',
            "<!-- hidden comment with many many words that must never be "
            "counted as content here -->",
        ]
        pages = []
        for i in range(n):
            parts = [rng.choice(chrome) for _ in range(rng.randrange(3))]
            parts += [rng.choice(prose) for _ in range(rng.randrange(1, 4))]
            rng.shuffle(parts)
            pages.append("<html><body>" + "".join(parts) + "</body></html>")
        pages.append(None)
        pages.append("")
        return pd.DataFrame(
            {"pid": np.arange(len(pages), dtype="int64"), "html": pages}
        )

    def test_matches_naive_reference_and_blocks(self):
        from ocr_platform_ray.ops.boilerplate import extract_main_content

        df = self._corpus()
        want = [self._naive(h) for h in df["html"]]
        for nb in (1, 5):
            got = (
                extract_main_content(rd.from_pandas(df).repartition(nb))
                .to_pandas()
                .sort_values("pid")
                .reset_index(drop=True)
            )
            assert got["main_text"].tolist() == [w[0] for w in want]
            assert got["n_blocks"].tolist() == [w[1] for w in want]
            assert got["n_blocks_kept"].tolist() == [w[2] for w in want]

    def test_chrome_dropped_content_kept(self):
        from ocr_platform_ray.ops.boilerplate import extract_main_content

        df = self._corpus(n=12, seed=4)
        got = extract_main_content(rd.from_pandas(df)).to_pandas()
        joined = "\n".join(got["main_text"])
        assert "Home" not in joined and "Terms" not in joined
        assert "fake block inside script" not in joined
        assert "hidden comment" not in joined
        assert "quick brown fox" in joined
        # the inline-citation paragraph survives (low link density)
        assert "citation link" in joined

    def test_bytes_html_and_params(self):
        from ocr_platform_ray.ops.boilerplate import extract_main_content

        df = self._corpus(n=8, seed=9).dropna().reset_index(drop=True)
        raw = df.copy()
        df["html"] = df["html"].str.encode("utf-8")
        got_b = extract_main_content(rd.from_pandas(df)).to_pandas()
        got_s = extract_main_content(rd.from_pandas(raw)).to_pandas()
        assert got_b["main_text"].tolist() == got_s["main_text"].tolist()
        # min_words=1, mld=1.0 keeps every non-empty block
        loose = extract_main_content(
            rd.from_pandas(raw), min_words=1, max_link_density=1.0
        ).to_pandas()
        assert (loose["n_blocks_kept"] == loose["n_blocks"]).all()
        with pytest.raises(ValueError, match="min_words"):
            extract_main_content(rd.from_pandas(raw), min_words=0)
        with pytest.raises(ValueError, match="link_density"):
            extract_main_content(rd.from_pandas(raw), max_link_density=1.5)


@pytest.mark.usefixtures("ray_session")
class TestCrawlMainContent:
    """Round-4 session-7: raw-HTML crawl route (extractor="main_content"
    in pipelines/crawl.ingest_crawl_increment)."""

    _PROSE = (
        "Paragraph number {i} of genuine page prose, long enough to clear "
        "the ten word minimum for a content block easily."
    )

    def _warc_html(self, tmp_path, name, idxs):
        import datetime

        import pyarrow as pa

        from ocr_platform_ray.schemas import PAGES_SCHEMA
        from ocr_platform_ray.sources.warc import write_pages_warc

        rows = []
        for i in idxs:
            html = (
                '<html><body><nav><a href="/">Home</a> <a href="/a">About</a>'
                ' <a href="/c">More</a></nav>'
                f"<p>{self._PROSE.format(i=i)}</p>"
                '<footer>© 2024 <a href="/t">Terms</a></footer></body></html>'
            )
            rows.append(
                {
                    "url": f"https://site.example/page/{i}",
                    "warc_ts": datetime.datetime(2024, 1, 1, 0, 0, i % 60),
                    "html": html.encode("utf-8"),
                    "text": "",
                    "lang": "en",
                }
            )
        cols = {n: [r[n] for r in rows] for n in PAGES_SCHEMA.names}
        t = pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)
        return write_pages_warc(str(tmp_path / name), t, urls_per_shard=3)

    def test_ingest_extracts_main_content_and_dedups(self, tmp_path):
        from ocr_platform_ray.pipelines.crawl import (
            ingest_crawl_increment,
            read_corpus,
        )

        corpus, state = str(tmp_path / "c"), str(tmp_path / "s")
        day1 = self._warc_html(tmp_path, "w1", range(0, 8))
        r1 = ingest_crawl_increment(
            day1, corpus, state, ingest_id="d1", extractor="main_content"
        )
        assert r1["n_docs"] == 8 and r1["n_survivors"] == 8
        docs = read_corpus(corpus).to_pandas().sort_values("url")
        # chrome dropped, prose intact, DOC_OUT invariants hold
        assert (docs["extracted_text"].str.contains("genuine page prose")).all()
        joined = "\n".join(docs["extracted_text"])
        assert "Home" not in joined and "Terms" not in joined
        assert (docs["n_pages"] == 1).all()
        assert (
            docs["total_words"]
            == docs["extracted_text"].str.count(r"\S+")
        ).all()

        # day2 recrawls 4-7 (identical prose) + 4 new pages: the
        # recrawls dedup against day1's committed state
        day2 = self._warc_html(tmp_path, "w2", range(4, 12))
        r2 = ingest_crawl_increment(
            day2, corpus, state, ingest_id="d2", extractor="main_content"
        )
        assert r2["n_docs"] == 8 and r2["n_survivors"] == 4
        total = read_corpus(corpus).to_pandas()
        assert len(total) == 12 and total["url"].is_unique

        # replay is a pure read
        r1b = ingest_crawl_increment(
            day1, corpus, state, ingest_id="d1", extractor="main_content"
        )
        assert r1b["replayed"] and r1b["n_survivors"] == 8

    def test_bad_extractor(self, tmp_path):
        from ocr_platform_ray.pipelines.crawl import ingest_crawl_increment

        day1 = self._warc_html(tmp_path, "w1", range(0, 2))
        with pytest.raises(ValueError, match="extractor"):
            ingest_crawl_increment(
                day1, str(tmp_path / "c"), str(tmp_path / "s"),
                ingest_id="x", extractor="nope",
            )


@pytest.mark.usefixtures("ray_session")
class TestIncrementalAgg:
    """Round-4 session-7: incremental aggregate maintenance
    (ops/aggstate.py — partition-atomic exactly-once fold)."""

    def _events(self, lo, hi, seed=3):
        rng = np.random.RandomState(seed)
        n = hi - lo
        return pd.DataFrame(
            {
                "k": [f"type{(i * 7) % 5}" for i in range(lo, hi)],
                "sub": np.arange(lo, hi, dtype="int64") % 3,
                "v": rng.randint(0, 1000, n).astype("int64"),
                "eid": np.arange(lo, hi, dtype="int64"),
            }
        )

    _AGGS = {
        "n": ("eid", "count"),
        "sv": ("v", "sum"),
        "mn": ("v", "min"),
        "mx": ("v", "max"),
    }

    def _truth(self, df, keys):
        return (
            df.groupby(keys, as_index=False)
            .agg(n=("eid", "count"), sv=("v", "sum"), mn=("v", "min"), mx=("v", "max"))
            .sort_values(keys)
            .reset_index(drop=True)
        )

    def _read(self, td, keys):
        from ocr_platform_ray.ops.aggstate import read_agg_target

        return (
            read_agg_target(td)
            .to_pandas()
            .sort_values(keys)
            .reset_index(drop=True)[[*keys, "n", "sv", "mn", "mx"]]
        )

    def test_increments_equal_one_shot_composite_keys(self, tmp_path):
        from ocr_platform_ray.ops.aggstate import incremental_agg_into

        td = str(tmp_path / "t")
        d1, d2, d3 = self._events(0, 400), self._events(400, 650), self._events(650, 900)
        keys = ["k", "sub"]
        for i, d in enumerate((d1, d2, d3)):
            rep = incremental_agg_into(
                td, rd.from_pandas(d).repartition(3), keys, self._AGGS,
                ingest_id=f"i{i}", n_partitions=8,
            )
            assert (rep["status"] == "applied").all()
        want = self._truth(pd.concat([d1, d2, d3]), keys)
        pd.testing.assert_frame_equal(self._read(td, keys), want, check_dtype=False)

    def test_replay_skips_and_crash_window_converges(self, tmp_path):
        import shutil

        from ocr_platform_ray.ops.aggstate import incremental_agg_into

        td = str(tmp_path / "t")
        keys = ["k"]
        d1, d2 = self._events(0, 300), self._events(300, 600)
        incremental_agg_into(td, rd.from_pandas(d1), keys, self._AGGS,
                             ingest_id="a", n_partitions=4)
        snap = str(tmp_path / "snap")
        shutil.copytree(td, snap)
        incremental_agg_into(td, rd.from_pandas(d2), keys, self._AGGS,
                             ingest_id="b")
        done = self._read(td, keys)
        # replay of a committed ingest: all partitions skip, table unchanged
        rep = incremental_agg_into(td, rd.from_pandas(d2), keys, self._AGGS,
                                   ingest_id="b")
        assert (rep["status"] == "skipped").all()
        pd.testing.assert_frame_equal(self._read(td, keys), done)
        # crash mid-ingest b: one partition reverted to its pre-b bytes
        # (the others keep b applied) — the rerun applies ONLY that one
        import os
        parts = sorted(p for p in os.listdir(td) if p.startswith("part_"))
        shutil.copy(os.path.join(snap, parts[0]), os.path.join(td, parts[0]))
        rep2 = incremental_agg_into(td, rd.from_pandas(d2), keys, self._AGGS,
                                    ingest_id="b")
        by = dict(zip(rep2["partition"].astype(int), rep2["status"]))
        assert by[int(parts[0].split("_")[1].split(".")[0])] == "applied"
        assert list(rep2["status"]).count("applied") == 1
        pd.testing.assert_frame_equal(self._read(td, keys), done)
        want = self._truth(pd.concat([d1, d2]), keys)
        pd.testing.assert_frame_equal(done, want, check_dtype=False)

    def test_layout_pin_and_validation(self, tmp_path):
        from ocr_platform_ray.ops.aggstate import (
            incremental_agg_into,
            read_agg_target,
        )

        td = str(tmp_path / "t")
        d = self._events(0, 100)
        incremental_agg_into(td, rd.from_pandas(d), ["k"], self._AGGS,
                             ingest_id="a", n_partitions=4)
        with pytest.raises(ValueError, match="keys"):
            incremental_agg_into(td, rd.from_pandas(d), ["sub"], self._AGGS,
                                 ingest_id="b")
        with pytest.raises(ValueError, match="aggs"):
            incremental_agg_into(td, rd.from_pandas(d), ["k"],
                                 {"n": ("eid", "count")}, ingest_id="b")
        # n_partitions pinned: a different request routes identically
        rep = incremental_agg_into(td, rd.from_pandas(d), ["k"], self._AGGS,
                                   ingest_id="a", n_partitions=64)
        assert (rep["status"] == "skipped").all()
        with pytest.raises(ValueError, match="mergeable"):
            incremental_agg_into(td, rd.from_pandas(d), ["k"],
                                 {"m": ("v", "median")}, ingest_id="c")
        with pytest.raises(ValueError, match="ingest_id"):
            incremental_agg_into(td, rd.from_pandas(d), ["k"], self._AGGS,
                                 ingest_id="a/b")
        with pytest.raises(ValueError, match="no partitions"):
            read_agg_target(str(tmp_path / "nope"))


@pytest.mark.usefixtures("ray_session")
class TestBagSetOpsAndRunningMax:
    """Round-4 session-7: dataset_set_op(bag=True) and
    grouped_cumsum(how=min/max)."""

    def test_bag_set_ops_match_pandas_truth(self):
        from collections import Counter

        from ocr_platform_ray.ops.relational import dataset_set_op

        rng = np.random.RandomState(11)
        a = pd.DataFrame({"k": rng.randint(0, 20, 300), "s": "x"})
        b = pd.DataFrame({"k": rng.randint(0, 25, 200), "s": "x"})
        ca, cb = Counter(a["k"]), Counter(b["k"])
        for op, rule in (
            ("intersect", lambda x: min(ca[x], cb[x])),
            ("except", lambda x: max(ca[x] - cb[x], 0)),
        ):
            for nb in (1, 7):
                got = dataset_set_op(
                    rd.from_pandas(a).repartition(nb),
                    rd.from_pandas(b).repartition(max(1, 8 - nb)),
                    ["k", "s"],
                    op,
                    bag=True,
                ).to_pandas()
                want = Counter({x: rule(x) for x in ca if rule(x) > 0})
                assert Counter(got["k"]) == +want, (op, nb)
        # distinct mode unchanged: still set semantics
        d = dataset_set_op(
            rd.from_pandas(a), rd.from_pandas(b), ["k", "s"], "intersect"
        ).to_pandas()
        assert d["k"].is_unique
        assert set(d["k"]) == {x for x in ca if cb[x] > 0}

    def test_running_min_max_match_pandas(self):
        from ocr_platform_ray.ops.windows import grouped_cumsum

        rng = np.random.RandomState(5)
        df = pd.DataFrame(
            {
                "u": rng.randint(0, 9, 400),
                "o": rng.randint(0, 50, 400),
                "t": np.arange(400, dtype="int64"),
                "v": rng.randint(-100, 100, 400).astype("int64"),
            }
        )
        ref = df.sort_values(["u", "o", "t"])
        for how, fn in (("max", "cummax"), ("min", "cummin")):
            for nb in (1, 6):
                got = grouped_cumsum(
                    rd.from_pandas(df).repartition(nb),
                    key_cols=["u"], order_col="o", tie_col="t",
                    value_col="v", how=how,
                )
                got = got.sort_values(["u", "o", "t"]).reset_index(drop=True)
                want = getattr(ref.groupby("u")["v"], fn)().reset_index(drop=True)
                assert got["running"].tolist() == want.tolist(), (how, nb)
        with pytest.raises(ValueError, match="how"):
            grouped_cumsum(
                rd.from_pandas(df), key_cols=["u"], order_col="o",
                tie_col="t", value_col="v", how="avg",
            )


@pytest.mark.usefixtures("ray_session")
class TestImageNearDup:
    """Round-4 session-7: perceptual image dedup (multimodal/dedup.py
    dHash + ops/dedup.fingerprint_near_dup_pairs banded hamming)."""

    @staticmethod
    def _base(seed, w=96, h=72):
        # upsampled random coarse grid: distinct seeds -> very different
        # gradient-sign structure (unlike smooth analytic patterns, which
        # dHash deliberately maps together)
        r = np.random.RandomState(seed)
        coarse = r.randint(0, 256, (9, 12), dtype=np.uint8)
        img = np.kron(coarse, np.ones((h // 9 + 1, w // 12 + 1), np.uint8))[:h, :w]
        return np.stack([img, np.roll(img, 3, 1), img[::-1]], axis=2)

    def _table(self, rows):
        import pyarrow as pa

        from ocr_platform_ray.multimodal.codecs import encode_png
        from ocr_platform_ray.multimodal.decode import IMAGE_SCHEMA

        return pa.table(
            {
                "media_id": pa.array([r[0] for r in rows], pa.string()),
                "payload": pa.array([encode_png(r[1]) for r in rows], pa.binary()),
                "mime": pa.array(["image/png"] * len(rows), pa.string()),
                "width": pa.array([r[1].shape[1] for r in rows], pa.int32()),
                "height": pa.array([r[1].shape[0] for r in rows], pa.int32()),
            },
            schema=IMAGE_SCHEMA,
        )

    def test_copies_found_distinct_not(self):
        from ocr_platform_ray.multimodal.decode import decode_images
        from ocr_platform_ray.multimodal.dedup import image_near_dup_pairs

        rng = np.random.RandomState(1)
        rows = []
        for s in range(10):
            img = self._base(s)
            rows.append((f"b{s}", img))
            rows.append((f"c{s}", img.copy()))  # exact copy
            noise = rng.randint(-4, 5, img.shape).astype(np.int16)
            rows.append(
                (f"n{s}", np.clip(img.astype(np.int16) + noise, 0, 255).astype(np.uint8))
            )
        ds = decode_images(rd.from_arrow(self._table(rows)))
        pairs = image_near_dup_pairs(ds, max_hamming=6, n_bands=8)
        got = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
        for s in range(10):
            assert (f"b{s}", f"c{s}") in got, f"exact copy {s} missed"
            assert (f"b{s}", f"n{s}") in got, f"noised copy {s} missed"
        # no cross-base pairs
        for a, b in got:
            assert a[1:] == b[1:], f"cross-base pair {a},{b}"
        # exact copies at hamming 0
        h0 = {
            (a, b)
            for a, b, h in zip(pairs["id_a"], pairs["id_b"], pairs["hamming"])
            if h == 0
        }
        assert all((f"b{s}", f"c{s}") in h0 for s in range(10))

    def test_matches_brute_force_and_routes(self):
        from ocr_platform_ray.multimodal.decode import decode_images
        from ocr_platform_ray.multimodal.dedup import add_dhash, dhash64

        rows = [(f"i{s:02d}", self._base(s, 64, 48)) for s in range(12)]
        ds = decode_images(rd.from_arrow(self._table(rows)))
        hashed = add_dhash(ds).to_pandas().sort_values("media_id")
        # stage hash == direct function of the pixels
        want = [dhash64(r[1]) for r in rows]
        got = [int(np.uint64(h)) for h in hashed["dhash"]]
        assert got == want
        # banded pairs == brute force at the pigeonhole radius, both routes
        from ocr_platform_ray.ops.dedup import _popcount64, fingerprint_near_dup_pairs

        fp = np.array(want, dtype=np.uint64)
        ids = [r[0] for r in rows]
        truth = set()
        for i in range(len(ids)):
            x = fp[i] ^ fp[i + 1:]
            hm = _popcount64(x)
            for j, h in enumerate(hm):
                if h <= 7:
                    truth.add((ids[i], ids[i + 1 + j], int(h)))
        # plant explicit close fingerprints so the truth set is non-empty
        # on every radius (random grids rarely land within hamming 7)
        ids = ids + ["p00", "p01", "p02"]
        fp = np.concatenate(
            [fp, [fp[0] ^ np.uint64(1), fp[0] ^ np.uint64(0b1011),
                  np.uint64(0x0123456789ABCDEF)]]
        ).astype(np.uint64)
        truth = set()
        for i in range(len(ids)):
            x = fp[i] ^ fp[i + 1:]
            hm = _popcount64(x)
            for j, h in enumerate(hm):
                if h <= 7:
                    truth.add((ids[i], ids[i + 1 + j], int(h)))
        assert truth, "fixture must contain close pairs"
        hds = rd.from_pandas(
            pd.DataFrame({"media_id": ids, "dhash": fp.astype(np.int64)})
        )
        for thr in (2_000_000, 0):  # driver route, exchange route
            pairs = fingerprint_near_dup_pairs(
                hds.repartition(3), "dhash", "media_id",
                max_hamming=7, n_bands=8, pairs_threshold_rows=thr,
            )
            if not isinstance(pairs, pd.DataFrame):
                pairs = pairs.to_pandas()
            got_p = {
                (a, b, int(h))
                for a, b, h in zip(pairs["id_a"], pairs["id_b"], pairs["hamming"])
            }
            assert got_p == truth, f"thr={thr}"

    def test_dhash_invariances_and_validation(self):
        from ocr_platform_ray.multimodal.dedup import dhash64
        from ocr_platform_ray.ops.dedup import _popcount64, fingerprint_near_dup_pairs

        img = self._base(3)
        h0 = dhash64(img)
        # brightness shift: gradient signs unchanged (the aHash failure mode)
        bright = np.clip(img.astype(np.int16) + 40, 0, 255).astype(np.uint8)
        assert dhash64(bright) == h0
        # mild rescale: area averaging keeps the grid stable
        half = img[::2, ::2]
        d = _popcount64(
            np.array([np.uint64(h0) ^ np.uint64(dhash64(half))], dtype=np.uint64)
        )[0]
        assert d <= 6, f"rescale moved hash by {d}"
        # grayscale-encoded copy hashes identically? (gray = channel mean
        # of a gray-stacked image)
        gray3 = np.stack([img.mean(2).astype(np.uint8)] * 3, axis=2)
        assert isinstance(dhash64(gray3), int)
        hds = rd.from_pandas(pd.DataFrame({"media_id": ["a"], "dhash": [1]}))
        with pytest.raises(ValueError, match="divide"):
            fingerprint_near_dup_pairs(hds, "dhash", "media_id", n_bands=5)
        with pytest.raises(ValueError, match="pigeonhole"):
            fingerprint_near_dup_pairs(
                hds, "dhash", "media_id", max_hamming=8, n_bands=8
            )


@pytest.mark.usefixtures("ray_session")
class TestAudioNearDup:
    """Round-4 session-7: spectral audio fingerprint dedup
    (multimodal/dedup.py afp64 + banded hamming pairs)."""

    @staticmethod
    def _clip(seed, sr=16000, secs=1.0):
        # broadband (smoothed noise + tones): perceptual audio hashes are
        # designed for broadband signals — a pure-tone clip's spectrum is
        # ~zero almost everywhere and band-gradient signs degenerate
        r = np.random.RandomState(seed)
        n = int(sr * secs)
        x = np.convolve(r.randn(n), np.hanning(r.randint(5, 60)), mode="same")
        t = np.arange(n) / sr
        for f in r.choice(np.arange(200, 4000, 50), 3, replace=False):
            x += (0.5 + r.rand()) * np.std(x) * np.sin(2 * np.pi * f * t)
        return (x / np.abs(x).max() * 0.8).astype(np.float64)

    def _table(self, rows, sr=16000):
        import pyarrow as pa

        from ocr_platform_ray.multimodal.audio import AUDIO_SCHEMA
        from ocr_platform_ray.multimodal.codecs import encode_wav

        return pa.table(
            {
                "media_id": pa.array([r[0] for r in rows], pa.string()),
                "payload": pa.array(
                    [encode_wav(r[1], sr) for r in rows], pa.binary()
                ),
                "sample_rate": pa.array([sr] * len(rows), pa.int32()),
                "n_samples": pa.array([len(r[1]) for r in rows], pa.int64()),
            },
            schema=AUDIO_SCHEMA,
        )

    def test_copies_and_gain_found_distinct_not(self):
        from ocr_platform_ray.multimodal.audio import decode_audio
        from ocr_platform_ray.multimodal.dedup import audio_near_dup_pairs

        rng = np.random.RandomState(2)
        rows = []
        for s in range(8):
            x = self._clip(s)
            rows.append((f"b{s}", x))
            rows.append((f"c{s}", x.copy()))            # exact re-encode
            rows.append((f"g{s}", x * 0.5))             # gain change
            rows.append((f"n{s}", x + 0.01 * rng.randn(len(x))))  # light noise
        ds = decode_audio(rd.from_arrow(self._table(rows)))
        pairs = audio_near_dup_pairs(ds, max_hamming=6, n_bands=8)
        got = {(a, b): int(h) for a, b, h in zip(pairs["id_a"], pairs["id_b"], pairs["hamming"])}
        for s in range(8):
            assert got.get((f"b{s}", f"c{s}")) == 0, f"re-encode {s} missed"
            assert (f"b{s}", f"g{s}") in got, f"gain copy {s} missed"
            assert (f"b{s}", f"n{s}") in got, f"noised copy {s} missed"
        for a, b in got:
            assert a[1:] == b[1:], f"cross-clip pair {a},{b}"

    def test_stage_matches_function_and_short_clip(self):
        from ocr_platform_ray.multimodal.audio import decode_audio
        from ocr_platform_ray.multimodal.dedup import add_audio_fingerprint, afp64

        rows = [(f"i{s}", self._clip(s + 50)) for s in range(5)]
        rows.append(("tiny", np.zeros(100)))  # < one frame -> exact fallback
        ds = decode_audio(rd.from_arrow(self._table(rows)))
        got = add_audio_fingerprint(ds).to_pandas().set_index("media_id")["afp"]
        for mid, x in rows[:-1]:
            # the stage hashes the DECODED float32 pcm (16-bit quantized)
            q = np.round(np.clip(x, -1, 1) * 32767) / 32767.0
            want = afp64(q.astype(np.float32))
            assert int(np.uint64(got[mid])) == want, mid
        # sub-frame clips take the exact-identity fallback, not hash 0
        from ocr_platform_ray.multimodal.dedup import _exact_hash64

        q = (np.round(np.zeros(100) * 32767) / 32767.0).astype(np.float32)
        assert int(np.uint64(got["tiny"])) == _exact_hash64(q.tobytes())

    def test_gain_invariance_of_hash(self):
        from ocr_platform_ray.multimodal.dedup import afp64

        x = self._clip(9)
        assert afp64(x) == afp64(x * 0.25) == afp64(x * 2.0)


@pytest.mark.usefixtures("ray_session")
class TestVideoNearDup:
    """Round-4 session-7: video near-dup (frame sampling + per-slot
    dHash matching via within_col)."""

    @staticmethod
    def _frame(seed, h=36, w=48):
        r = np.random.RandomState(seed)
        coarse = r.randint(0, 256, (9, 12), dtype=np.uint8)
        img = np.kron(coarse, np.ones((5, 5), np.uint8))[:h, :w]
        return np.stack([img, img, img], axis=2)

    def _table(self, clips):
        import pyarrow as pa

        from ocr_platform_ray.multimodal.codecs import encode_png_seq

        return pa.table(
            {
                "media_id": pa.array([c[0] for c in clips], pa.string()),
                "payload": pa.array(
                    [encode_png_seq(c[1]) for c in clips], pa.binary()
                ),
                "n_frames": pa.array([0] * len(clips), pa.int64()),
            }
        )

    def test_copies_partials_and_slot_alignment(self):
        from ocr_platform_ray.multimodal.dedup import video_near_dup_pairs

        base = [self._frame(100 + i) for i in range(8)]
        other = [self._frame(200 + i) for i in range(8)]
        rng = np.random.RandomState(0)
        noised = [
            np.clip(f.astype(np.int16) + rng.randint(-4, 5, f.shape), 0, 255).astype(np.uint8)
            for f in base
        ]
        clips = [
            ("orig", base),
            ("copy", [f.copy() for f in base]),
            ("noisy", noised),
            ("half", base[:4] + other[:4]),     # 50% same slots
            ("other", other),                   # disjoint content
            ("shifted", base[4:] + base[:4]),   # same frames, WRONG slots
        ]
        out = video_near_dup_pairs(
            rd.from_arrow(self._table(clips)), every_n=1, min_match_frac=0.8
        )
        got = {(a, b): f for a, b, f in zip(out["id_a"], out["id_b"], out["match_frac"])}
        assert got.get(("copy", "orig")) == 1.0
        assert got.get(("noisy", "orig")) == 1.0
        assert ("half", "orig") not in got            # 0.5 < 0.8
        assert ("orig", "other") not in got and ("other", "orig") not in got
        # slot alignment: identical frames at different slots never match
        assert not any("shifted" in p for p in got), got
        # lowered threshold admits the half-copy at exactly 0.5
        out2 = video_near_dup_pairs(
            rd.from_arrow(self._table(clips)), every_n=1, min_match_frac=0.4
        )
        got2 = {(a, b): f for a, b, f in zip(out2["id_a"], out2["id_b"], out2["match_frac"])}
        assert got2.get(("half", "orig")) == 0.5

    def test_empty_and_sampling(self):
        from ocr_platform_ray.multimodal.dedup import video_near_dup_pairs

        a = [self._frame(300 + i) for i in range(9)]
        b = [self._frame(400 + i) for i in range(9)]
        clips = [("a", a), ("b", b)]
        out = video_near_dup_pairs(
            rd.from_arrow(self._table(clips)), every_n=3, min_match_frac=0.5
        )
        assert len(out) == 0
        assert list(out.columns) == ["id_a", "id_b", "n_matched", "match_frac"]


@pytest.mark.usefixtures("ray_session")
class TestReviewFixesS7:
    """Regression pins for the session-7 self-review findings."""

    def test_set_op_null_keys_kept(self):
        from ocr_platform_ray.ops.relational import dataset_set_op

        a = pd.DataFrame({"k": [1.0, np.nan, np.nan, 2.0]})
        b = pd.DataFrame({"k": [np.nan, 3.0]})
        inter = dataset_set_op(
            rd.from_pandas(a), rd.from_pandas(b), ["k"], "intersect"
        ).to_pandas()
        assert inter["k"].isna().sum() == 1  # the NaN tuple survives
        bag = dataset_set_op(
            rd.from_pandas(a), rd.from_pandas(b), ["k"], "except", bag=True
        ).to_pandas()
        # except-all: two NaNs minus one NaN leaves one
        assert bag["k"].isna().sum() == 1
        assert sorted(bag["k"].dropna()) == [1.0, 2.0]

    def test_incremental_agg_empty_delta_and_null_keys(self, tmp_path):
        from ocr_platform_ray.ops.aggstate import (
            incremental_agg_into,
            read_agg_target,
        )

        td = str(tmp_path / "t")
        aggs = {"n": ("v", "count"), "s": ("v", "sum")}
        empty = rd.from_pandas(
            pd.DataFrame({"k": pd.Series(dtype="object"),
                          "v": pd.Series(dtype="int64")})
        )
        rep = incremental_agg_into(td, empty, ["k"], aggs, ingest_id="e")
        assert len(rep) == 0
        assert list(rep.columns) == ["partition", "status", "n_keys"]
        d = pd.DataFrame({"k": ["a", None, None], "v": [1, 2, 3]})
        incremental_agg_into(td, rd.from_pandas(d), ["k"], aggs, ingest_id="i")
        got = read_agg_target(td).to_pandas()
        null_row = got[got["k"].isna()]
        assert len(null_row) == 1 and int(null_row["s"].iloc[0]) == 5

    def test_jsonl_duplicate_block_raises_and_stale_cleanup(self, tmp_path):
        import os

        from ocr_platform_ray.sources.jsonl import write_jsonl_dataset

        df = pd.DataFrame({"a": [1, 2]})
        # two byte-identical blocks -> loud error, not silent row loss
        dup = rd.from_pandas(df).union(rd.from_pandas(df))
        with pytest.raises(ValueError, match="byte-identical"):
            write_jsonl_dataset(dup, str(tmp_path / "d"))
        # stale shards from a previous run over different input vanish
        out = str(tmp_path / "s")
        first = write_jsonl_dataset(rd.from_pandas(df), out)
        second = write_jsonl_dataset(
            rd.from_pandas(pd.DataFrame({"a": [3, 4]})), out
        )
        names = sorted(os.listdir(out))
        assert names == sorted(os.path.basename(p) for p in second)
        assert os.path.basename(first[0]) not in names

    def test_tiny_media_fallback_hashes(self):
        from ocr_platform_ray.multimodal.dedup import (
            AddAudioFingerprint,
            AddDHash,
            _exact_hash64,
            afp64,
            dhash64,
        )
        import pyarrow as pa

        with pytest.raises(ValueError, match="9x8"):
            dhash64(np.zeros((5, 5, 3), np.uint8))
        with pytest.raises(ValueError, match="frame_len"):
            afp64(np.zeros(100), frame_len=1)
        # tiny image: exact-identity fallback, distinct bytes differ
        t = pa.table(
            {
                "media_id": pa.array(["a", "b"]),
                "width": pa.array([5, 5], pa.int32()),
                "height": pa.array([5, 5], pa.int32()),
                "pixels": pa.array(
                    [np.full(75, 1, np.uint8).tobytes(),
                     np.full(75, 2, np.uint8).tobytes()],
                    pa.binary(),
                ),
            }
        )
        out = AddDHash()(t)
        h = out.column("dhash").to_pylist()
        assert h[0] != h[1]
        assert int(np.uint64(h[0])) == _exact_hash64(np.full(75, 1, np.uint8).tobytes())
        # sub-frame clip likewise
        ta = pa.table(
            {
                "media_id": pa.array(["x", "y"]),
                "pcm": pa.array(
                    [np.zeros(10, np.float32).tobytes(),
                     np.ones(10, np.float32).tobytes()],
                    pa.binary(),
                ),
            }
        )
        oa = AddAudioFingerprint()(ta)
        ha = oa.column("afp").to_pylist()
        assert ha[0] != ha[1]


@pytest.mark.usefixtures("ray_session")
class TestColumnarSources:
    """Round-4 session-8: Arrow IPC + ORC source/sink
    (sources/columnar.py)."""

    def _df(self):
        return pd.DataFrame(
            {
                "doc_id": np.arange(6, dtype="int64"),
                "text": [
                    "plain", "héllo wörld", "line\nbreak\ttab",
                    None, 'quotes "and" \\slashes\\', "emoji ☕",
                ],
                "score": [1.5, 2.0, -0.25, 0.0, 3.75, 1e-3],
                "vec": [list(np.arange(3, dtype="float64") + i) for i in range(6)],
            }
        )

    @pytest.mark.parametrize("fmt", ["ipc", "orc"])
    def test_roundtrip_values_exact_and_idempotent(self, tmp_path, fmt):
        import hashlib
        import os

        from ocr_platform_ray.sources import columnar

        read = getattr(columnar, f"read_{fmt}")
        write = getattr(columnar, f"write_{fmt}_dataset")
        df = self._df()
        out = str(tmp_path / fmt)
        files = write(rd.from_pandas(df).repartition(3), out)
        assert len(files) == 3
        back = read(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
        want = df.copy()
        want["vec"] = want["vec"].map(list)
        back["vec"] = back["vec"].map(list)
        pd.testing.assert_frame_equal(back[want.columns.tolist()], want)
        # idempotent rerun: same names, same bytes, no extra shards
        before = {p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in files}
        again = write(rd.from_pandas(df).repartition(3), out)
        assert again == files
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in files)
        after = {p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in files}
        assert before == after

    @pytest.mark.parametrize("fmt", ["ipc", "orc"])
    def test_projection_stale_cleanup_empty_and_collision(self, tmp_path, fmt):
        from ocr_platform_ray.sources import columnar

        read = getattr(columnar, f"read_{fmt}")
        write = getattr(columnar, f"write_{fmt}_dataset")
        df = self._df()
        out = str(tmp_path / fmt)
        write(rd.from_pandas(df).repartition(2), out)
        # projection happens at the read
        back = read(out, columns=["doc_id", "score"])
        assert back.schema().names == ["doc_id", "score"]
        assert back.count() == len(df)
        # a rerun over DIFFERENT input removes the previous run's shards:
        # a directory read sees exactly the new rows
        df2 = df.head(4).assign(score=lambda x: x.score + 1)
        write(rd.from_pandas(df2), out)
        again = read(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert len(again) == 4
        assert (again["score"].to_numpy() == df2["score"].to_numpy()).all()
        # empty dataset -> no shards, no crash
        assert write(rd.from_pandas(df.head(0)), str(tmp_path / f"{fmt}_e")) == []
        # two byte-identical blocks would collapse into one shard -> loud error
        dup = rd.from_pandas(df).union(rd.from_pandas(df))
        with pytest.raises(ValueError, match="content-keyed"):
            write(dup, str(tmp_path / f"{fmt}_dup"))


@pytest.mark.usefixtures("ray_session")
class TestAnchorTexts:
    """Round-4 session-8: anchor-text corpus extraction
    (ops/graph.py::extract_anchor_texts)."""

    def _pages(self):
        return pd.DataFrame(
            {
                "url": [
                    "https://a.example/1",
                    "https://b.example/2",
                    "https://c.example/3",
                    "https://d.example/4",
                    "https://e.example/5",
                ],
                "html": [
                    '<a href="https://x.example/p">Great   article</a>'
                    "<a href='//y.example/q'>\tanother  one </a>",
                    '<a class="z" href="/rel">relative link</a>'
                    '<a href="mailto:a@b.c">mail</a><a href="#top">frag</a>',
                    # unbalanced quote: must not extend into the next row
                    '<a href="https://x.example/broken>no close',
                    '<a href="https://x.example/p">Great   article</a>'
                    '<a href="https://z.example/r"><b>nested markup</b></a>'
                    '<a href="https://z.example/r"></a>',
                    "",
                ],
            }
        )

    def _naive(self, df):
        import re as _re
        from collections import Counter

        pats = [
            _re.compile(r'<a\s[^>]*?href\s*=\s*"([^"]*)"[^>]*>([^<]*)</a>', _re.I),
            _re.compile(r"<a\s[^>]*?href\s*=\s*'([^']*)'[^>]*>([^<]*)</a>", _re.I),
        ]
        host = _re.compile(r"^[a-z]+://([^/:?#]+)", _re.I)
        c = Counter()
        for _, row in df.iterrows():
            h = row["html"]
            if isinstance(h, (bytes, bytearray)):
                h = h.decode("utf-8", errors="replace")
            src = host.match(row["url"]).group(1)
            for pat in pats:
                for m in pat.finditer(h or ""):
                    link, txt = m.group(1), m.group(2)
                    low = link.lower()
                    if low.startswith(("http://", "https://")):
                        dst = host.match(link).group(1)
                    elif link.startswith("//"):
                        dst = _re.match(r"^//([^/:?#]+)", link).group(1)
                    elif low.startswith(("#", "mailto:", "javascript:")):
                        continue
                    else:
                        dst = src
                    anchor = _re.sub(r"[ \t\r\n\f\v]+", " ", txt).strip(" ")
                    if anchor and dst:
                        c[(dst, anchor)] += 1
        return (
            pd.DataFrame(
                [(d, a, n) for (d, a), n in c.items()],
                columns=["dst_host", "anchor", "n_links"],
            )
            .sort_values(["dst_host", "anchor"])
            .reset_index(drop=True)
        )

    def _run(self, df, nb=1):
        from ocr_platform_ray.ops.graph import extract_anchor_texts

        out = extract_anchor_texts(rd.from_pandas(df).repartition(nb))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        out["n_links"] = out["n_links"].astype("int64")
        return out.sort_values(["dst_host", "anchor"]).reset_index(drop=True)

    def test_matches_naive_reference(self):
        df = self._pages()
        got = self._run(df)
        want = self._naive(df)
        pd.testing.assert_frame_equal(got, want)
        # spot invariants: whitespace collapsed, nested/empty/mailto dropped
        assert ("x.example", "Great article") in set(
            zip(got["dst_host"], got["anchor"])
        )
        assert int(got.loc[got["anchor"] == "Great article", "n_links"].iloc[0]) == 2
        assert "nested markup" not in set(got["anchor"])
        assert "mail" not in set(got["anchor"])

    def test_block_independence_and_bytes(self):
        df = self._pages()
        a = self._run(df, nb=1)
        b = self._run(df, nb=5)
        pd.testing.assert_frame_equal(a, b)
        enc = df.assign(html=df["html"].map(lambda s: s.encode("utf-8")))
        c = self._run(enc, nb=3)
        pd.testing.assert_frame_equal(a, c)


@pytest.mark.usefixtures("ray_session")
class TestCharEntropy:
    """Round-4 session-8: character-entropy quality signal
    (ops/textstats.py::add_char_entropy)."""

    def _naive(self, t):
        import math
        from collections import Counter

        if not t:
            return 0.0, 0
        c = Counter(t)
        L = len(t)
        h = -sum((k / L) * math.log2(k / L) for k in c.values())
        return h, len(c)

    def test_matches_naive_and_edges(self):
        from ocr_platform_ray.ops.textstats import add_char_entropy

        texts = [
            "", "a", "aaaaaaa", "abab", "the quick brown fox",
            "héllo ☕ wörld\nsecond line", "0123456789" * 3,
        ]
        df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
        out = (
            add_char_entropy(rd.from_pandas(df))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for i, t in enumerate(texts):
            h, nd = self._naive(t)
            assert abs(out["char_entropy"][i] - h) < 1e-12, t
            assert out["n_distinct_chars"][i] == nd, t
        # ordering invariant: repetition < prose
        assert out["char_entropy"][2] == 0.0
        assert out["char_entropy"][2] < out["char_entropy"][4]

    def test_block_independence_and_null(self):
        from ocr_platform_ray.ops.textstats import add_char_entropy

        df = pd.DataFrame(
            {
                "doc_id": np.arange(8),
                "text": ["xy" * i for i in range(7)] + [None],
            }
        )
        a = add_char_entropy(rd.from_pandas(df)).to_pandas().sort_values("doc_id")
        b = (
            add_char_entropy(rd.from_pandas(df).repartition(5))
            .to_pandas()
            .sort_values("doc_id")
        )
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b.reset_index(drop=True)
        )
        assert a["char_entropy"].iloc[-1] == 0.0
        assert a["n_distinct_chars"].iloc[-1] == 0


@pytest.mark.usefixtures("ray_session")
class TestGopherEmptyLineRule:
    """Round-4 session-8: dup_line_frac over NON-EMPTY lines in the
    Gopher gate — blank paragraph separators are not repeated content
    (with empties kept, any >=3-paragraph document failed the 0.30
    cutoff on separator lines alone)."""

    def _prose(self, n_paras=6):
        para = (
            "The archive and the ledger sit with the harbor meadow copper "
            "signal lantern orchard timber quarry compass saddle anvil."
        )
        # distinct paragraphs (suffix differs), blank-line separated
        return "\n\n".join(f"{para} Variant {i} closes it." for i in range(n_paras))

    def test_paragraph_prose_passes_gate(self):
        from ocr_platform_ray.ops.textstats import gopher_quality_gate

        df = pd.DataFrame({"doc_id": [0], "text": [self._prose()]})
        out = gopher_quality_gate(rd.from_pandas(df), "text").to_pandas()
        assert float(out["dup_line_frac"][0]) == 0.0
        assert bool(out["gopher_pass"][0])

    def test_repeated_content_lines_still_fail(self):
        from ocr_platform_ray.ops.textstats import gopher_quality_gate

        line = "the same content line that we have typed out again here now"
        df = pd.DataFrame({"doc_id": [0], "text": ["\n\n".join([line] * 20)]})
        out = gopher_quality_gate(rd.from_pandas(df), "text").to_pandas()
        assert float(out["dup_line_frac"][0]) > 0.3
        assert not bool(out["gopher_pass"][0])

    def test_raw_signal_default_unchanged(self):
        from ocr_platform_ray.ops.textstats import add_repetition_stats

        t = "a\n\nb\n\nc"
        df = pd.DataFrame({"doc_id": [0], "text": [t]})
        raw = add_repetition_stats(rd.from_pandas(df), "text").to_pandas()
        # default keeps empties: 5 lines, 4 distinct ("" collapses)
        assert int(raw["n_lines"][0]) == 5
        assert int(raw["n_distinct_lines"][0]) == 4
        ne = add_repetition_stats(
            rd.from_pandas(df), "text", ignore_empty_lines=True
        ).to_pandas()
        assert int(ne["n_lines"][0]) == 3
        assert int(ne["n_distinct_lines"][0]) == 3
        assert float(ne["dup_line_frac"][0]) == 0.0


@pytest.mark.usefixtures("ray_session")
class TestHashedEmbed:
    """Round-4 session-8: hashed char-n-gram embeddings (ops/embed.py)."""

    def _df(self):
        base = "the quick brown fox jumps over the lazy dog near the river bank "
        return pd.DataFrame(
            {
                "doc_id": np.arange(6, dtype="int64"),
                "text": [
                    base * 4,
                    base * 4 + "with one extra clause.",
                    "completely unrelated quantum chromodynamics lattice results",
                    "ab",          # shorter than n=3 -> zero vector
                    "",            # empty -> zero vector
                    None,          # null -> zero vector
                ],
            }
        )

    def _mat(self, nb=1, **kw):
        from ocr_platform_ray.ops.embed import hashed_ngram_embed

        out = (
            hashed_ngram_embed(rd.from_pandas(self._df()).repartition(nb), **kw)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        return np.stack(out["embedding"].to_numpy())

    def test_norms_similarity_order_and_block_independence(self):
        V = self._mat()
        norms = np.linalg.norm(V, axis=1)
        assert np.allclose(norms[:3], 1.0)
        assert (norms[3:] == 0.0).all()
        near = float(V[0] @ V[1])
        unrel = float(V[0] @ V[2])
        assert near > 0.9 and unrel < 0.5 and near > unrel
        V2 = self._mat(nb=5)
        assert np.array_equal(V, V2)  # bitwise — integer accumulation

    def test_seed_dim_sensitivity_and_validation(self):
        from ocr_platform_ray.ops.embed import hashed_ngram_embed

        a = self._mat(seed=1)
        b = self._mat(seed=2)
        assert not np.array_equal(a[0], b[0])
        c = self._mat(dim=64)
        assert c.shape[1] == 64
        with pytest.raises(ValueError, match="dim >= 2"):
            hashed_ngram_embed(rd.from_pandas(self._df()), dim=1)

    def test_knn_composition_retrieves_source(self):
        from ocr_platform_ray.ops.embed import hashed_ngram_embed
        from ocr_platform_ray.ops.similarity import knn_brute_force

        rng = np.random.RandomState(3)
        vocab = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
        texts = [
            " ".join(rng.choice(vocab, 40)) + f" doc {i} marker" for i in range(20)
        ]
        df = pd.DataFrame({"doc_id": np.arange(20, dtype="int64"), "text": texts})
        emb = hashed_ngram_embed(rd.from_pandas(df).repartition(3), "text")
        probe = df.head(3).copy()
        probe["text"] = probe["text"] + " tiny mutation"
        qv = hashed_ngram_embed(rd.from_pandas(probe), "text").to_pandas()
        qv = qv.sort_values("doc_id")
        hits = knn_brute_force(
            emb, np.stack(qv["embedding"].to_numpy()), id_col="doc_id", k=1
        ).sort_values("query_idx")
        assert (hits["doc_id"].to_numpy() == probe["doc_id"].to_numpy()).all()


@pytest.mark.usefixtures("ray_session")
class TestTopTfidf:
    """Round-4 session-8: per-doc top-k TF-IDF keywords
    (ops/search.py::top_tfidf_terms)."""

    def _df(self):
        return pd.DataFrame(
            {
                "doc_id": np.arange(5, dtype="int64"),
                "text": [
                    "apple apple banana cherry",
                    "banana banana banana date",
                    "cherry date elder apple",
                    "fig fig fig fig common common",
                    "common word here",
                ],
            }
        )

    def _naive(self, df, k):
        import math
        from collections import Counter

        N = len(df)
        dfs = Counter()
        tfs = {}
        for _, r in df.iterrows():
            toks = r["text"].split(" ")
            tfs[r["doc_id"]] = Counter(toks)
            dfs.update(set(toks))
        rows = []
        for did, c in tfs.items():
            scored = sorted(
                ((tf * math.log(N / dfs[t]), t, tf) for t, tf in c.items()),
                key=lambda x: (-x[0], x[1]),
            )[:k]
            for i, (s, t, tf) in enumerate(scored, 1):
                rows.append((did, t, tf, s, i))
        return (
            pd.DataFrame(rows, columns=["doc_id", "token", "tf", "tfidf", "rk"])
            .sort_values(["doc_id", "rk"])
            .reset_index(drop=True)
        )

    def _run(self, df, k=2, nb=1, **kw):
        from ocr_platform_ray.ops.search import top_tfidf_terms

        out = top_tfidf_terms(rd.from_pandas(df).repartition(nb), k=k, **kw)
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        out["tf"] = out["tf"].astype("int64")
        out["rk"] = out["rk"].astype("int64")
        return (
            out[["doc_id", "token", "tf", "tfidf", "rk"]]
            .sort_values(["doc_id", "rk"])
            .reset_index(drop=True)
        )

    def test_matches_naive_reference_and_routes(self):
        df = self._df()
        want = self._naive(df, 2)
        got = self._run(df, k=2)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # bucketed join route + multi-block: identical
        got2 = self._run(df, k=2, nb=4, method="bucketed")
        pd.testing.assert_frame_equal(got2, want, check_dtype=False)

    def test_min_df_and_validation_and_empty(self):
        from ocr_platform_ray.ops.search import top_tfidf_terms

        df = self._df()
        # min_df=2 drops singleton tokens from scoring entirely
        got = self._run(df, k=3, min_df=2)
        assert "elder" not in set(got["token"])
        assert "here" not in set(got["token"])
        with pytest.raises(ValueError, match="k must be"):
            top_tfidf_terms(rd.from_pandas(df), k=0)
        empty = top_tfidf_terms(rd.from_pandas(df.head(0)), k=2)
        assert isinstance(empty, pd.DataFrame) and len(empty) == 0
        assert list(empty.columns) == ["doc_id", "token", "tf", "tfidf", "rk"]


@pytest.mark.usefixtures("ray_session")
class TestBloomStripParagraphs:
    """Round-4 session-8: fixed-memory counting-Bloom paragraph strip
    (ops/dedup.py::bloom_strip_repeated_paragraphs)."""

    def _df(self, n=30):
        rng = np.random.RandomState(11)
        vocab = "alpha beta gamma delta epsilon zeta eta theta".split()
        boiler = "subscribe to our newsletter for updates today"
        texts = []
        for i in range(n):
            paras = [
                " ".join(rng.choice(vocab, 8)) + f" unique {i} {j}"
                for j in range(3)
            ]
            if i % 2 == 0:
                paras.insert(1, boiler)  # repeated across 15 docs
            if i % 5 == 0:
                paras.append("short one")  # below min_words -> never stripped
            texts.append("\n\n".join(paras))
        return pd.DataFrame({"doc_id": np.arange(n, dtype="int64"), "text": texts})

    def _run(self, df, nb=1, **kw):
        from ocr_platform_ray.ops.dedup import bloom_strip_repeated_paragraphs

        return (
            bloom_strip_repeated_paragraphs(
                rd.from_pandas(df).repartition(nb), "text", "doc_id", **kw
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    def test_equals_exact_route_at_large_m(self):
        from ocr_platform_ray.ops.dedup import strip_repeated_paragraphs

        df = self._df()
        got = self._run(df, nb=4, m_bits=1 << 20)
        want = (
            strip_repeated_paragraphs(
                rd.from_pandas(df).repartition(4), "text", "doc_id"
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        # the boilerplate is gone, the short paragraph survived
        assert not got["text"].str.contains("subscribe to our").any()
        assert got["text"].str.contains("short one").any()

    def test_block_structure_independent_bitwise(self):
        df = self._df()
        a = self._run(df, nb=1, m_bits=1 << 18)
        b = self._run(df, nb=7, m_bits=1 << 18)
        pd.testing.assert_frame_equal(a, b)

    def test_never_misses_superset_at_tiny_m(self):
        from ocr_platform_ray.ops.dedup import strip_repeated_paragraphs

        df = self._df()
        approx = self._run(df, nb=3, m_bits=256)  # FP-heavy on purpose
        exact = (
            strip_repeated_paragraphs(rd.from_pandas(df), "text", "doc_id")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for a, e in zip(approx["text"], exact["text"]):
            # approx keeps a SUBSET of the exact route's paragraphs:
            # FPs only strip extra, a true repeat is never missed
            # (drop the "" a fully-stripped doc's join produces)
            a_set = {p for p in a.split("\n\n") if p}
            e_set = {p for p in e.split("\n\n") if p}
            assert a_set <= e_set

    def test_validation(self):
        from ocr_platform_ray.ops.dedup import bloom_strip_repeated_paragraphs

        with pytest.raises(ValueError, match="min_docs"):
            bloom_strip_repeated_paragraphs(
                rd.from_pandas(self._df()), "text", "doc_id", min_docs=1
            )


@pytest.mark.usefixtures("ray_session")
class TestTfrecordSource:
    """Round-4 session-9: TFRecord source/sink (sources/tfrecord.py) —
    framing + tf.train.Example from the public specs, lane-vectorized
    CRC-32C."""

    def _df(self):
        return pd.DataFrame(
            {
                "doc_id": np.arange(8, dtype="int64"),
                "text": [
                    "plain", "héllo wörld", "line\nbreak\ttab", "",
                    'quotes "and" \\slashes\\', "emoji ☕", "x" * 3000, "tail",
                ],
                "score": np.array(
                    [1.5, 2.0, -0.25, 0.0, 3.75, 0.001953125, -8.0, 64.5],
                    dtype="float64",  # all float32-representable
                ),
                "neg": np.array([0, -1, -(2**40), 2**62, 5, -5, 1, -1], "int64"),
                "tags": [[1, 2], [3], [], [4, 5, 6], [7], [8], [9], [2**35]],
                "vec": [
                    np.arange(3, dtype="float32") + i for i in range(8)
                ],
                "blob": [bytes([i, 255 - i, 0, 10]) for i in range(8)],
            }
        )

    def test_crc32c_kats_and_batch_equals_scalar(self):
        import random

        from ocr_platform_ray.sources.tfrecord import crc32c, crc32c_batch, _mask_crc

        # the published CRC-32C check value, + empty string
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"") == 0
        # masking formula (record_writer.h): spot value computed by hand
        assert int(_mask_crc(0)) == 0xA282EAD8
        rng = random.Random(7)
        payloads = [
            bytes(rng.randrange(256) for _ in range(n))
            for n in [0, 1, 2, 7, 8, 63, 64, 65, 300, 4096, 5000, 1, 0]
        ]
        got = crc32c_batch(payloads)
        want = np.array([crc32c(p) for p in payloads], dtype=np.uint32)
        assert (got == want).all()

    def test_example_wire_format_pinned(self):
        """Byte-pin a tiny Example so encoder drift (field numbers, tag
        bytes, packing) is loud — decodable by any protobuf runtime."""
        from ocr_platform_ray.sources.tfrecord import _encode_rows, parse_example

        df = pd.DataFrame({"a": np.array([5], "int64")})
        (rec,) = _encode_rows(df)
        # Example{1: Features{1: entry{1: "a", 2: Feature{3: Int64List{1: [5]}}}}}
        assert rec == (
            b"\x0a\x0c"  # Example.features (field 1, LEN), len 12
            b"\x0a\x0a"  # Features.feature map entry, len 10
            b"\x0a\x01a"  # entry key (field 1): "a"
            b"\x12\x05"  # entry value (field 2): Feature, len 5
            b"\x1a\x03"  # Feature.int64_list (field 3), len 3
            b"\x0a\x01\x05"  # Int64List.value packed (field 1): [5]
        )
        assert parse_example(rec) == {"a": ("int64", [5])}
        # negative int64 must be 10-byte two's-complement varint
        (rec2,) = _encode_rows(pd.DataFrame({"a": np.array([-1], "int64")}))
        assert parse_example(rec2) == {"a": ("int64", [-1])}
        assert b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" in rec2

    def test_roundtrip_values_exact_and_idempotent(self, tmp_path):
        import hashlib
        import os

        from ocr_platform_ray.sources.tfrecord import (
            read_tfrecord,
            write_tfrecord_dataset,
        )

        df = self._df()
        out = str(tmp_path / "tfr")
        files = write_tfrecord_dataset(rd.from_pandas(df).repartition(3), out)
        assert len(files) == 3
        back = (
            read_tfrecord(out, binary_cols={"blob"}, list_cols={"tags", "vec"})
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert back["text"].tolist() == df["text"].tolist()
        assert back["neg"].tolist() == df["neg"].tolist()
        assert back["blob"].tolist() == df["blob"].tolist()
        assert [list(map(int, t)) for t in back["tags"]] == df["tags"].tolist()
        # float features are float32 by definition — exact for
        # float32-representable doubles, exact for float32 vectors
        assert back["score"].tolist() == df["score"].tolist()
        for got, want in zip(back["vec"], df["vec"]):
            assert np.asarray(got, dtype="float32").tolist() == want.tolist()
        # idempotent rerun: same names, same bytes, no extra shards
        before = {p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in files}
        again = write_tfrecord_dataset(rd.from_pandas(df).repartition(3), out)
        assert again == files
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in files)
        after = {p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in files}
        assert before == after

    def test_gzip_nulls_projection_and_stale_cleanup(self, tmp_path):
        import os

        from ocr_platform_ray.sources.tfrecord import (
            read_tfrecord,
            write_tfrecord_dataset,
        )

        df = self._df()
        df.loc[2, "text"] = None  # null -> feature omitted -> None back
        out = str(tmp_path / "gz")
        write_tfrecord_dataset(rd.from_pandas(df).repartition(2), out, compress=True)
        assert all(f.endswith(".tfrecord.gz") for f in os.listdir(out))
        back = (
            read_tfrecord(out, binary_cols={"blob"}, list_cols={"tags", "vec"})
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert back["text"][2] is None and back["text"][1] == "héllo wörld"
        # projection prunes features right after parse
        proj = read_tfrecord(out, columns=["doc_id", "text"]).to_pandas()
        assert sorted(proj.columns) == ["doc_id", "text"]
        # stale shards from a different input are removed post-publish
        files2 = write_tfrecord_dataset(
            rd.from_pandas(df.head(4)).repartition(2), out, compress=True
        )
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in files2)

    def test_corrupt_crc_and_truncation_raise(self, tmp_path):
        from ocr_platform_ray.sources.tfrecord import (
            read_tfrecord,
            write_tfrecord_dataset,
        )

        df = self._df()[["doc_id", "text"]]
        out = str(tmp_path / "bad")
        (path,) = write_tfrecord_dataset(rd.from_pandas(df), out)
        raw = bytearray(open(path, "rb").read())
        raw[20] ^= 0xFF  # flip a payload byte
        open(path, "wb").write(bytes(raw))
        with pytest.raises(Exception, match="CRC mismatch"):
            read_tfrecord(path).to_pandas()
        # verify_crc=False tolerates it (the flipped byte lands in some
        # record's payload; the frame lengths are intact)
        open(path, "wb").write(bytes(raw[:-2]))
        with pytest.raises(Exception, match="truncated"):
            read_tfrecord(path, verify_crc=False).to_pandas()

    def test_block_independence(self):
        from ocr_platform_ray.sources.tfrecord import _encode_rows

        df = self._df()
        whole = _encode_rows(df)
        split = _encode_rows(df.head(3)) + _encode_rows(df.tail(5))
        assert whole == split  # records are a pure per-row function


@pytest.mark.usefixtures("ray_session")
class TestAvroSource:
    """Round-4 session-9: Avro Object Container File source/sink
    (sources/avro.py) — container framing, zigzag binary encoding and
    the deflate codec from the Apache Avro spec."""

    def _df(self):
        return pd.DataFrame(
            {
                "doc_id": np.arange(8, dtype="int64"),
                "text": [
                    "plain", "héllo wörld", "line\nbreak\ttab", "",
                    'quotes "and" \\slashes\\', "emoji ☕", "x" * 3000, "tail",
                ],
                "score": [1.5, 2.0, -0.25, 0.0, 3.75, 1e-300, -8.0, 64.5],
                "neg": np.array([0, -1, -(2**62), 2**62, 5, -5, 1, -1], "int64"),
                "tags": [[1, 2], [3], [], [4, 5, 6], [7], [8], [9], [2**35]],
                "vec": [np.arange(3, dtype="float64") + i for i in range(8)],
                "blob": [bytes([i, 255 - i, 0, 10]) for i in range(8)],
            }
        )

    def test_zigzag_spec_examples(self):
        from ocr_platform_ray.sources.avro import _read_zigzag, _zigzag

        # the value table printed in the Avro spec §Binary Encoding
        for v, want in [(0, b"\x00"), (-1, b"\x01"), (1, b"\x02"),
                        (-2, b"\x03"), (2, b"\x04"), (-64, b"\x7f"),
                        (64, b"\x80\x01")]:
            assert _zigzag(v) == want
            assert _read_zigzag(want, 0) == (v, len(want))

    def test_container_layout_pinned(self):
        """Magic, metadata keys, and sync-verified block framing are
        exactly the OCF spec — pinned on a one-record file."""
        from ocr_platform_ray.sources.avro import (
            _column_plan, _encode_rows, _schema_json, build_container,
            parse_container,
        )
        import json

        df = pd.DataFrame({"a": np.array([5], "int64")})
        plan = _column_plan(df)
        buf = build_container(_encode_rows(df, plan), _schema_json(plan))
        assert buf[:4] == b"Obj\x01"
        # record value: union branch 1 + zigzag(5) — exactly two bytes
        blocks = list(parse_container(buf))
        assert len(blocks) == 1
        raw, cnt, rplan = blocks[0]
        assert cnt == 1 and raw == b"\x02\x0a"
        sch = json.loads(_schema_json(plan))
        assert sch["fields"] == [{"name": "a", "type": ["null", "long"]}]
        # sync marker mismatch is loud
        bad = bytearray(buf)
        bad[-1] ^= 0xFF
        with pytest.raises(ValueError, match="sync-marker"):
            list(parse_container(bytes(bad)))

    @pytest.mark.parametrize("codec", ["null", "deflate"])
    def test_roundtrip_values_exact_and_idempotent(self, tmp_path, codec):
        import hashlib
        import os

        from ocr_platform_ray.sources.avro import read_avro, write_avro_dataset

        df = self._df()
        df.loc[2, "text"] = None  # null -> union branch 0
        out = str(tmp_path / codec)
        files = write_avro_dataset(
            rd.from_pandas(df).repartition(3), out, codec=codec
        )
        assert len(files) == 3
        back = (
            read_avro(out)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert back["text"].tolist() == df["text"].tolist()
        assert back["neg"].tolist() == df["neg"].tolist()
        assert back["score"].tolist() == df["score"].tolist()  # doubles exact
        assert back["blob"].tolist() == df["blob"].tolist()
        assert [list(map(int, t)) for t in back["tags"]] == df["tags"].tolist()
        for got, want in zip(back["vec"], df["vec"]):
            assert list(got) == want.tolist()
        before = {p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in files}
        again = write_avro_dataset(rd.from_pandas(df).repartition(3), out, codec=codec)
        assert again == files
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in files)
        after = {p: hashlib.sha1(open(p, "rb").read()).hexdigest() for p in files}
        assert before == after

    def test_projection_stale_cleanup_and_bad_magic(self, tmp_path):
        import os

        from ocr_platform_ray.sources.avro import read_avro, write_avro_dataset

        df = self._df()[["doc_id", "text", "score"]]
        out = str(tmp_path / "a")
        write_avro_dataset(rd.from_pandas(df).repartition(2), out)
        proj = read_avro(out, columns=["doc_id", "text"]).to_pandas()
        assert sorted(proj.columns) == ["doc_id", "text"]
        files2 = write_avro_dataset(rd.from_pandas(df.head(3)).repartition(2), out)
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in files2)
        bad = str(tmp_path / "bad.avro")
        open(bad, "wb").write(b"nope" + b"\x00" * 64)
        with pytest.raises(Exception, match="bad magic"):
            read_avro(bad).to_pandas()

    def test_block_independence(self):
        from ocr_platform_ray.sources.avro import _column_plan, _encode_rows

        df = self._df()
        plan = _column_plan(df)
        whole = _encode_rows(df, plan)
        split = _encode_rows(df.head(3), plan) + _encode_rows(df.tail(5), plan)
        assert whole == split


@pytest.mark.usefixtures("ray_session")
class TestSoftmaxLangid:
    """Round-4 session-9: multiclass softmax over embedding columns +
    the trained fastText-style language identifier composed from it
    (ops/softmax.py)."""

    def _blobs(self, n=300, dim=8, seed=0):
        rng = np.random.RandomState(seed)
        centers = rng.randn(3, dim) * 3
        X = np.vstack([centers[i] + rng.randn(n, dim) for i in range(3)])
        y = np.repeat(["a", "b", "c"], n)
        return pd.DataFrame({"v": list(X), "y": y})

    def _script_corpus(self, n_groups=100):
        import random

        words = ["the", "quick", "brown", "fox", "jumps", "data",
                 "pipeline", "batch", "query", "join"]
        langs = ["lat", "rev", "el", "ru"]

        def mk(lang, i):
            rnd = random.Random(i * 7 + langs.index(lang))
            text = " ".join(rnd.choice(words) for _ in range(40))
            if lang == "rev":
                text = " ".join(w[::-1] for w in text.split())
            elif lang == "el":
                text = "".join(
                    chr(ord(c) + 0x3B1 - ord("a")) if "a" <= c <= "z" else c
                    for c in text
                )
            elif lang == "ru":
                text = "".join(
                    chr(ord(c) + 0x430 - ord("a")) if "a" <= c <= "z" else c
                    for c in text
                )
            return text

        return pd.DataFrame(
            [
                {"grp": i, "text": mk(l, i), "lang": l}
                for i in range(n_groups)
                for l in langs
            ]
        )

    def test_blob_separation_and_confidence(self):
        from ocr_platform_ray.ops.softmax import softmax_fit, softmax_predict

        df = self._blobs()
        tr, te = df.iloc[::2], df.iloc[1::2]
        cls, w = softmax_fit(rd.from_pandas(tr).repartition(4), "v", "y", n_iters=40)
        assert cls == ["a", "b", "c"] and w.shape == (9, 3)
        pred = softmax_predict(
            rd.from_pandas(te).repartition(3), "v", cls, w,
            out_col="p", conf_col="c",
        ).to_pandas()
        assert (pred["p"] == pred["y"]).mean() > 0.97
        assert ((pred["c"] > 1 / 3) & (pred["c"] <= 1.0)).all()

    def test_rerun_bit_identical_and_prediction_block_independent(self):
        from ocr_platform_ray.ops.softmax import softmax_fit, softmax_predict

        df = self._blobs(n=120)
        tr = df.iloc[::2]
        # both routes: reruns are bit-identical (content-sorted reduce /
        # canonical row sort) even though Ray reorders block delivery
        for method in ("distributed", "driver"):
            cls1, w1 = softmax_fit(
                rd.from_pandas(tr).repartition(4), "v", "y",
                n_iters=25, method=method,
            )
            cls2, w2 = softmax_fit(
                rd.from_pandas(tr).repartition(4), "v", "y",
                n_iters=25, method=method,
            )
            assert cls1 == cls2 and (w1 == w2).all()
        # routes agree on predictions (weights may differ in ULPs)
        _, wd = softmax_fit(
            rd.from_pandas(tr).repartition(4), "v", "y",
            n_iters=25, method="distributed",
        )
        te_ds = rd.from_pandas(df.iloc[1::2])
        pa = softmax_predict(te_ds, "v", cls1, w1).to_pandas()["predicted"]
        pb = softmax_predict(te_ds, "v", cls1, wd).to_pandas()["predicted"]
        assert (pa == pb).all()
        te = df.iloc[1::2]
        a = (
            softmax_predict(rd.from_pandas(te).repartition(1), "v", cls1, w1)
            .to_pandas()["predicted"].tolist()
        )
        b = (
            softmax_predict(rd.from_pandas(te).repartition(7), "v", cls1, w1)
            .to_pandas()["predicted"].tolist()
        )
        assert a == b  # map-only scoring is a pure per-row function

    def test_langid_heldout_including_same_script(self):
        from ocr_platform_ray.ops.softmax import langid_fit, langid_predict

        corpus = self._script_corpus()
        train = corpus[corpus.grp % 2 == 0]
        test = corpus[corpus.grp % 2 == 1]
        model = langid_fit(rd.from_pandas(train).repartition(4), n_iters=40)
        got = langid_predict(
            rd.from_pandas(test).repartition(3), "text", model, conf_col="conf"
        ).to_pandas()
        acc = (got["lang_pred"] == got["lang"]).mean()
        assert acc == 1.0, f"held-out accuracy {acc}"
        # 'rev' shares latin's codepoint range with 'lat' — perfect
        # accuracy there proves n-gram ORDER is learned, not just script
        rev = got[got["lang"] == "rev"]
        assert (rev["lang_pred"] == "rev").all() and len(rev) > 0
        assert "conf" in got and (got["conf"] > 0.25).all()

    def test_validation(self):
        from ocr_platform_ray.ops.softmax import softmax_fit, softmax_predict

        df = self._blobs(n=20)
        with pytest.raises(ValueError, match="need >= 2 classes"):
            softmax_fit(
                rd.from_pandas(df.assign(y="same")), "v", "y", n_iters=1
            )
        with pytest.raises(ValueError, match="empty training set"):
            softmax_fit(rd.from_pandas(df.head(0)), "v", "y", n_iters=1)
        cls, w = softmax_fit(rd.from_pandas(df), "v", "y", n_iters=2)
        with pytest.raises(ValueError, match="inconsistent"):
            softmax_predict(rd.from_pandas(df), "v", cls[:2], w)
        with pytest.raises(Exception, match="vector of shape"):
            bad = df.copy()
            bad["v"] = [x[:4] for x in bad["v"]]
            softmax_predict(rd.from_pandas(bad), "v", cls, w).to_pandas()


@pytest.mark.usefixtures("ray_session")
class TestLeakageFreeSplit:
    """Round-4 session-9: leakage-free dataset splitting (ops/split.py)
    — near-dup clusters never straddle train/val/test."""

    def _corpus(self, n_base=400, n_dups=120):
        rng = np.random.RandomState(3)
        words = ["alpha", "beta", "gamma", "delta", "eps",
                 "zeta", "eta", "theta", "iota", "kappa"]
        base = [" ".join(rng.choice(words, 30)) for _ in range(n_base)]
        rows = [{"doc_id": i, "text": t} for i, t in enumerate(base)]
        rows += [
            {"doc_id": 1000 + i, "text": base[i] + " tail"} for i in range(n_dups)
        ]
        return pd.DataFrame(rows)

    @pytest.mark.parametrize("route", ["driver", "distributed"])
    def test_no_leaks_and_fractions(self, route):
        from ocr_platform_ray.ops.split import leakage_free_split

        df = self._corpus()
        out = leakage_free_split(
            rd.from_pandas(df).repartition(5), "text", "doc_id",
            seed=7, clusters=route,
        ).to_pandas()
        assert sorted(out.columns) == ["doc_id", "split", "text"]
        assert len(out) == len(df)
        m = out.set_index("doc_id")["split"]
        assert all(m[i] == m[1000 + i] for i in range(120))  # zero leaks
        frac = out["split"].value_counts(normalize=True)
        assert abs(frac.get("train", 0) - 0.9) < 0.06
        assert set(out["split"]) <= {"train", "val", "test"}

    def test_routes_identical_and_block_independent(self):
        from ocr_platform_ray.ops.split import leakage_free_split

        df = self._corpus(n_base=150, n_dups=50)
        runs = []
        for route, parts in (("driver", 4), ("distributed", 4), ("driver", 11)):
            out = leakage_free_split(
                rd.from_pandas(df).repartition(parts), "text", "doc_id",
                seed=5, clusters=route,
            ).to_pandas().sort_values("doc_id")
            runs.append(out["split"].to_numpy())
        # same cluster ids -> same draw: routes AND block structures agree
        assert (runs[0] == runs[1]).all() and (runs[0] == runs[2]).all()

    def test_string_ids_and_external_pairs(self):
        from ocr_platform_ray.ops.split import leakage_free_split

        df = self._corpus(n_base=100, n_dups=0)
        df["doc_id"] = [f"u{i}" for i in range(len(df))]
        # external pair source: chain u0-u1-u2 plus u50-u51
        pairs = pd.DataFrame(
            {"id_a": ["u0", "u1", "u50"], "id_b": ["u1", "u2", "u51"]}
        )
        out = leakage_free_split(
            rd.from_pandas(df).repartition(3), "text", "doc_id",
            seed=2, pairs=pairs,
        ).to_pandas()
        m = out.set_index("doc_id")["split"]
        assert m["u0"] == m["u1"] == m["u2"]
        assert m["u50"] == m["u51"]

    def test_seed_sensitivity_and_custom_fractions(self):
        from ocr_platform_ray.ops.split import leakage_free_split

        df = self._corpus(n_base=300, n_dups=0)
        ds = rd.from_pandas(df)
        a = leakage_free_split(ds, "text", "doc_id", seed=1).to_pandas()
        b = leakage_free_split(ds, "text", "doc_id", seed=2).to_pandas()
        assert (a.sort_values("doc_id")["split"].to_numpy()
                != b.sort_values("doc_id")["split"].to_numpy()).any()
        c = leakage_free_split(
            ds, "text", "doc_id", seed=1,
            fractions={"fit": 0.5, "holdout": 0.5},
        ).to_pandas()
        frac = c["split"].value_counts(normalize=True)
        assert set(c["split"]) <= {"fit", "holdout"}
        assert abs(frac.get("fit", 0) - 0.5) < 0.1

    def test_validation(self):
        from ocr_platform_ray.ops.split import leakage_free_split

        ds = rd.from_pandas(self._corpus(n_base=10, n_dups=0))
        with pytest.raises(ValueError, match="sum to 1"):
            leakage_free_split(ds, "text", "doc_id",
                               fractions={"a": 0.5, "b": 0.4})
        with pytest.raises(ValueError, match=">= 2 splits"):
            leakage_free_split(ds, "text", "doc_id", fractions={"a": 1.0})
        with pytest.raises(ValueError, match="unknown clusters route"):
            leakage_free_split(ds, "text", "doc_id", clusters="nope")


def _naive_kcore(pairs, k):
    """Reference peel over canonical undirected simple edges."""
    from collections import Counter

    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    while True:
        deg = Counter()
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        alive = {v for v, d in deg.items() if d >= k}
        new = {(a, b) for a, b in edges if a in alive and b in alive}
        if new == edges:
            return sorted(edges)
        edges = new


@pytest.mark.usefixtures("ray_session")
class TestKcore:
    """Round-4 session-9: k-core subgraph by distributed peeling
    (ops/graph.py::kcore_subgraph)."""

    def _got(self, df, k, **kw):
        from ocr_platform_ray.ops.graph import kcore_subgraph

        res = kcore_subgraph(rd.from_pandas(df).repartition(4), k, **kw)
        assert res.schema().names == ["src", "dst"]  # typed even when empty
        out = res.to_pandas()
        if out.shape[1] == 0:  # the house empty-Dataset to_pandas quirk
            return []
        return sorted(zip(out["src"], out["dst"]))

    def test_naive_equality_random_graph_both_routes(self):
        rng = np.random.RandomState(11)
        a = rng.randint(0, 120, 600)
        b = rng.randint(0, 120, 600)
        df = pd.DataFrame({"src": a, "dst": b})
        want = _naive_kcore(zip(a, b), 3)
        assert self._got(df, 3) == want
        # force the bucketed survivor route
        assert self._got(df, 3, survivor_threshold_rows=0) == want

    def test_planted_core_and_deep_peel(self):
        # K6 clique (5-core) + a 30-node pendant chain hanging off node 0:
        # at k=2 the chain peels END-FIRST over many rounds (the deep-peel
        # case); at k=3 only the clique survives
        clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        chain = [(100 + i, 100 + i + 1) for i in range(30)] + [(0, 100)]
        df = pd.DataFrame(clique + chain, columns=["src", "dst"])
        assert self._got(df, 3) == sorted(clique)
        assert self._got(df, 2) == _naive_kcore(clique + chain, 2) == sorted(clique)
        # ring: every vertex degree 2 -> survives k=2 whole, empties at 3
        ring = [(i, (i + 1) % 50) for i in range(50)]
        rdf = pd.DataFrame(ring, columns=["src", "dst"])
        assert len(self._got(rdf, 2)) == 50
        assert self._got(rdf, 3) == []

    def test_canonicalization_and_string_ids(self):
        # self-loops, duplicates and reversed edges collapse before the peel
        df = pd.DataFrame(
            {
                "src": ["a", "b", "a", "c", "c", "b", "a"],
                "dst": ["b", "a", "b", "c", "a", "c", "c"],
            }
        )
        got = self._got(df, 2)
        assert got == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_empty_and_validation(self):
        from ocr_platform_ray.ops.graph import kcore_subgraph

        df = pd.DataFrame({"src": [1], "dst": [1]})  # only a self-loop
        out = kcore_subgraph(rd.from_pandas(df), 2).to_pandas()
        assert len(out) == 0
        with pytest.raises(ValueError, match="need k >= 1"):
            kcore_subgraph(rd.from_pandas(df), 0)


@pytest.mark.usefixtures("ray_session")
class TestReadability:
    """Round-4 session-9: Flesch / Flesch-Kincaid readability signals
    (ops/textstats.py::add_readability)."""

    def test_known_values_and_edges(self):
        from ocr_platform_ray.ops.textstats import add_readability

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "The cat sat. The dog ran!",  # 6 words, 2 sentences
                    "no terminal punctuation here",  # clamp sentences to 1
                    "",  # zero words -> both scores 0
                    None,  # null == empty
                ],
            }
        )
        out = (
            add_readability(rd.from_pandas(df).repartition(2))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["n_words"].tolist() == [6, 4, 0, 0]
        assert out["n_sentences"].tolist() == [2, 0, 0, 0]
        # vowel runs: The(1)+cat(1)+sat(1)+The(1)+dog(1)+ran(1) = 6
        assert out["n_syllables"][0] == 6
        ease0 = 206.835 - 1.015 * (6 / 2) - 84.6 * (6 / 6)
        grade0 = 0.39 * (6 / 2) + 11.8 * (6 / 6) - 15.59
        assert out["flesch_ease"][0] == ease0
        assert out["fk_grade"][0] == grade0
        # clamped sentences: w/s uses 1
        ease1 = 206.835 - 1.015 * 4.0 - 84.6 * (out["n_syllables"][1] / 4.0)
        assert out["flesch_ease"][1] == ease1
        assert out["flesch_ease"][2] == 0.0 and out["fk_grade"][3] == 0.0

    def test_block_independence(self):
        from ocr_platform_ray.ops.textstats import add_readability

        texts = ["Simple words read easily. Yes!"] * 3 + [
            "Polysyllabic constructions notwithstanding, comprehensibility deteriorates."
        ] * 3
        df = pd.DataFrame({"doc_id": range(6), "text": texts})
        a = add_readability(rd.from_pandas(df).repartition(1)).to_pandas()
        b = add_readability(rd.from_pandas(df).repartition(5)).to_pandas()
        cols = ["flesch_ease", "fk_grade", "n_syllables"]
        pd.testing.assert_frame_equal(
            a.sort_values("doc_id")[cols].reset_index(drop=True),
            b.sort_values("doc_id")[cols].reset_index(drop=True),
        )
        # harder prose scores lower ease / higher grade
        assert a["flesch_ease"][0] > a["flesch_ease"][5]
        assert a["fk_grade"][0] < a["fk_grade"][5]


@pytest.mark.usefixtures("ray_session")
class TestRagPipeline:
    """Round-4 session-9: RAG passage-index composition
    (pipelines/rag.py)."""

    def _docs(self, n=60, seed=4):
        rng = np.random.RandomState(seed)
        words = ["engine", "stream", "vector", "index", "shard", "batch",
                 "query", "merge", "scan", "filter", "window", "probe"]

        def doc(i):
            toks = list(rng.choice(words, 80))
            # weave doc-specific tokens through (every 7th position) so
            # passages are distinguishable — a shared 12-word vocabulary
            # alone makes every doc's char-n-gram profile near-identical
            toks[::7] = [f"m{i}z{j}" for j in range(len(toks[::7]))]
            return " ".join(toks)

        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype="int64"),
                "text": [doc(i) for i in range(n)],
            }
        )

    def test_build_search_and_provenance(self, tmp_path):
        from ocr_platform_ray.pipelines.rag import (
            build_passage_index,
            search_passages,
        )

        df = self._docs()
        idx = str(tmp_path / "idx")
        n = build_passage_index(rd.from_pandas(df).repartition(4), idx)
        # window 32 / stride 16 over 80 tokens -> ceil windows per doc
        assert n > len(df)
        probes = []
        for i in range(10):
            toks = df["text"][i].split()
            mid = toks[20:44]
            mid[1] = "zzz"
            probes.append(" ".join(mid))
        res = search_passages(idx, probes, k=3)
        assert list(res.columns) == [
            "query_idx", "rank", "score", "doc_id", "win_idx", "win_text",
        ]
        top1 = res[res["rank"] == 1].sort_values("query_idx")
        assert (top1["doc_id"].to_numpy() == [str(i) for i in range(10)]).all()
        # the returned passage text really is the retrieved window
        for _, r in top1.iterrows():
            assert r["win_text"] in df["text"][int(r["doc_id"])]
        # ranks are 1..k per query, scores non-increasing
        for _, g in res.groupby("query_idx"):
            assert g["rank"].tolist() == list(range(1, len(g) + 1))
            assert (np.diff(g["score"]) <= 1e-12).all()

    def test_meta_governs_search_and_missing_meta_raises(self, tmp_path):
        import os

        from ocr_platform_ray.pipelines.rag import (
            build_passage_index,
            search_passages,
        )

        df = self._docs(n=30)
        idx = str(tmp_path / "idx2")
        build_passage_index(
            rd.from_pandas(df), idx, dim=64, n=2, seed=9, n_cells=4, m=8
        )
        res = search_passages(idx, [df["text"][3]], k=2)
        assert str(res[res["rank"] == 1]["doc_id"].iloc[0]) == "3"
        os.unlink(os.path.join(idx, "rag_meta.json"))
        with pytest.raises(FileNotFoundError):
            search_passages(idx, ["anything"])

    def test_string_doc_ids_with_hash_chars(self, tmp_path):
        from ocr_platform_ray.pipelines.rag import (
            build_passage_index,
            search_passages,
        )

        df = self._docs(n=12)
        df["doc_id"] = [f"u#{i}" for i in range(12)]  # '#' inside the id
        idx = str(tmp_path / "idx3")
        build_passage_index(rd.from_pandas(df), idx, n_cells=4)
        res = search_passages(idx, [df["text"][5]], k=1)
        assert res["doc_id"].iloc[0] == "u#5"  # rsplit keeps the id whole
        assert res["win_idx"].dtype.kind == "i"


@pytest.mark.usefixtures("ray_session")
class TestBm25Incremental:
    """Round-4 session-9: incremental BM25 index maintenance
    (ops/search.py::bm25_index_new_partitions / bm25_search_incremental)."""

    def _write_unit(self, dirpath, name, docs):
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([d[0] for d in docs], pa.int64()),
                    "text": pa.array([d[1] for d in docs], pa.string()),
                }
            ),
            str(dirpath / f"{name}.parquet"),
        )

    def _docs(self):
        a = [(0, "ray data streams batches"), (1, "arrow batches fly fast"),
             (2, "spark also streams data")]
        b = [(10, "bm25 ranks lexical matches"), (11, "ranks and data and ranks"),
             (12, "nothing relevant here")]
        return a, b

    def test_incremental_equals_oneshot_and_skips(self, tmp_path):
        from ocr_platform_ray.ops.search import (
            bm25_index_new_partitions,
            bm25_search_incremental,
            build_bm25_index,
            bm25_search_index,
        )

        a, b = self._docs()
        src = tmp_path / "src"
        src.mkdir()
        self._write_unit(src, "u1", a)
        rep = bm25_index_new_partitions(str(src), str(tmp_path / "idx"))
        assert rep["indexed"] == 1 and rep["docs_indexed"] == 3
        self._write_unit(src, "u2", b)
        rep = bm25_index_new_partitions(str(src), str(tmp_path / "idx"))
        assert rep["indexed"] == 1 and rep["skipped"] == 1
        # third call: nothing new
        rep = bm25_index_new_partitions(str(src), str(tmp_path / "idx"))
        assert rep["indexed"] == 0 and rep["skipped"] == 2

        # one-shot over ALL docs must match bit-for-bit
        all_docs = pd.DataFrame(a + b, columns=["doc_id", "text"])
        build_bm25_index(
            rd.from_pandas(all_docs), str(tmp_path / "full"), n_shards=32
        )
        for q in ("data ranks", "batches", "ranks ranks lexical", "zzz"):
            inc = bm25_search_incremental(str(tmp_path / "idx"), q, k=5)
            full = bm25_search_index(str(tmp_path / "full"), q, k=5)
            pd.testing.assert_frame_equal(
                inc.reset_index(drop=True), full.reset_index(drop=True)
            )

    def test_redo_replaces_generation_and_torn_unit_invisible(self, tmp_path):
        import glob as g
        import os

        from ocr_platform_ray.ops.search import (
            bm25_index_new_partitions,
            bm25_search_incremental,
        )

        a, b = self._docs()
        src = tmp_path / "src"
        src.mkdir()
        self._write_unit(src, "u1", a)
        self._write_unit(src, "u2", b)
        idx = str(tmp_path / "idx")
        bm25_index_new_partitions(str(src), idx)
        assert len(bm25_search_incremental(idx, "ranks", k=5)) == 2
        # redo: u2's content changes (and with it the file size fingerprint)
        self._write_unit(
            src, "u2", [(10, "totally different now indeed"), (11, "ranks once")]
        )
        rep = bm25_index_new_partitions(str(src), idx)
        assert rep["indexed"] == 1 and rep["skipped"] == 1
        res = bm25_search_incremental(idx, "ranks", k=5)
        assert res["doc_id"].tolist() == [11]
        # exactly one generation per unit survives
        assert len(g.glob(os.path.join(idx, "parts", "u2@*"))) == 1
        # a unit whose manifest is gone (torn build) is invisible
        os.unlink(os.path.join(idx, "_manifest", "u2.json"))
        res = bm25_search_incremental(idx, "ranks data", k=5)
        assert set(res["doc_id"]) <= {0, 1, 2}

    def test_lost_generation_dir_reindexes(self, tmp_path):
        import glob as g
        import os
        import shutil

        from ocr_platform_ray.ops.search import (
            bm25_index_new_partitions,
            bm25_search_incremental,
        )

        a, b = self._docs()
        src = tmp_path / "src"
        src.mkdir()
        self._write_unit(src, "u1", a)
        self._write_unit(src, "u2", b)
        idx = str(tmp_path / "idx")
        bm25_index_new_partitions(str(src), idx)
        # lose u2's generation subtree but keep its manifest
        (gen_dir,) = g.glob(os.path.join(idx, "parts", "u2@*"))
        shutil.rmtree(gen_dir)
        rep = bm25_index_new_partitions(str(src), idx)
        assert rep["indexed"] == 1 and rep["skipped"] == 1  # u2 re-indexed
        res = bm25_search_incremental(idx, "ranks", k=5)
        assert set(res["doc_id"]) == {10, 11}

    def test_config_drift_rejected(self, tmp_path):
        from ocr_platform_ray.ops.search import bm25_index_new_partitions

        a, _ = self._docs()
        src = tmp_path / "src"
        src.mkdir()
        self._write_unit(src, "u1", a)
        idx = str(tmp_path / "idx")
        bm25_index_new_partitions(str(src), idx, n_shards=16)
        with pytest.raises(ValueError, match="config drift"):
            bm25_index_new_partitions(str(src), idx, n_shards=32)


def _naive_cc(pairs):
    from collections import defaultdict

    adj = defaultdict(set)
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    rows = []
    for v, nb in adj.items():
        d = len(nb)
        t = sum(len(adj[x] & nb) for x in nb) // 2
        rows.append((v, d, t, (2.0 * t / (d * (d - 1.0))) if d >= 2 else 0.0))
    return (
        pd.DataFrame(rows, columns=["node", "deg", "triangles", "cc"])
        .sort_values("node")
        .reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
class TestClusteringCoefficient:
    """Round-4 session-9: per-node local clustering coefficient
    (ops/graph.py::clustering_coefficient)."""

    def _got(self, df, **kw):
        from ocr_platform_ray.ops.graph import clustering_coefficient

        return clustering_coefficient(rd.from_pandas(df).repartition(4), **kw)

    def test_naive_equality_random_graph_both_routes(self):
        rng = np.random.RandomState(6)
        pairs = list(zip(rng.randint(0, 80, 400), rng.randint(0, 80, 400)))
        df = pd.DataFrame(pairs, columns=["src", "dst"])
        want = _naive_cc(pairs)
        got = self._got(df)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        got2 = self._got(df, deg_threshold_rows=0)  # bucketed degree route
        pd.testing.assert_frame_equal(got2, want, check_dtype=False)

    def test_known_shapes(self):
        # K4: every node cc = 1; star: hub and leaves cc = 0;
        # triangle with a pendant: pendant 0, apex 1/3, others 1
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        got = self._got(pd.DataFrame(k4, columns=["src", "dst"]))
        assert (got["cc"] == 1.0).all() and (got["triangles"] == 3).all()
        star = [(0, i) for i in range(1, 6)]
        got = self._got(pd.DataFrame(star, columns=["src", "dst"]))
        assert (got["cc"] == 0.0).all()
        tri_pendant = [(1, 2), (2, 3), (1, 3), (3, 4)]
        got = self._got(
            pd.DataFrame(tri_pendant, columns=["src", "dst"])
        ).set_index("node")
        assert got.loc[4, "cc"] == 0.0
        assert got.loc[3, "cc"] == pytest.approx(1 / 3)
        assert got.loc[1, "cc"] == 1.0 and got.loc[2, "cc"] == 1.0

    def test_string_ids_dups_and_empty(self):
        df = pd.DataFrame(
            {"src": ["x", "y", "z", "x", "x"], "dst": ["y", "z", "x", "y", "x"]}
        )
        got = self._got(df).set_index("node")
        assert (got["cc"] == 1.0).all()
        from ocr_platform_ray.ops.graph import clustering_coefficient

        empty = clustering_coefficient(
            rd.from_pandas(pd.DataFrame({"src": [7], "dst": [7]}))
        )
        assert len(empty) == 0 and list(empty.columns) == [
            "node", "deg", "triangles", "cc",
        ]


@pytest.mark.usefixtures("ray_session")
class TestPersonalizedPagerank:
    """Round-4 session-9: personalization / TrustRank teleport in
    pagerank (ops/graph.py)."""

    def _numpy_ppr(self, edges, nodes, p, d=0.85, it=20):
        idx = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        out = np.zeros((n, n))
        deg = np.zeros(n)
        for a, b in edges:
            deg[idx[a]] += 1
        for a, b in edges:
            out[idx[b], idx[a]] += 1.0 / deg[idx[a]]
        r = p.copy()
        for _ in range(it):
            dangling = r[deg == 0].sum()
            r = (1 - d) * p + d * (out @ r + dangling * p)
        return r

    def test_matches_numpy_and_seeds_dominate(self):
        from ocr_platform_ray.ops.graph import pagerank

        rng = np.random.RandomState(2)
        edges = list(zip(rng.randint(0, 30, 150), rng.randint(0, 30, 150)))
        df = pd.DataFrame(edges, columns=["src", "dst"])
        seeds = {3: 2.0, 7: 1.0}
        got = pagerank(
            rd.from_pandas(df).repartition(3), personalization=seeds
        ).sort_values("node")
        nodes = got["node"].tolist()
        p = np.array([seeds.get(v, 0.0) for v in nodes], dtype=float)
        p /= p.sum()
        want = self._numpy_ppr(edges, nodes, p)
        np.testing.assert_allclose(got["rank"].to_numpy(), want, rtol=1e-9)
        assert abs(got["rank"].sum() - 1.0) < 1e-9
        # a node unreachable from the seeds gets (almost) no rank: add an
        # isolated pair far from the seed neighborhood
        df2 = pd.concat(
            [df, pd.DataFrame({"src": [100], "dst": [101]})], ignore_index=True
        )
        got2 = pagerank(rd.from_pandas(df2), personalization=seeds).set_index("node")
        assert got2.loc[101, "rank"] < 1e-12  # teleports never land there

    def test_uniform_default_unchanged_and_validation(self):
        from ocr_platform_ray.ops.graph import pagerank

        df = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0]})
        a = pagerank(rd.from_pandas(df))
        b = pagerank(rd.from_pandas(df), personalization={0: 1, 1: 1, 2: 1})
        np.testing.assert_allclose(
            a.sort_values("node")["rank"], b.sort_values("node")["rank"], rtol=1e-12
        )
        with pytest.raises(ValueError, match="non-negative weights"):
            pagerank(rd.from_pandas(df), personalization={})
        with pytest.raises(ValueError, match="non-negative weights"):
            pagerank(rd.from_pandas(df), personalization={0: -1.0, 1: 2.0})
        with pytest.raises(ValueError, match="no personalization seed"):
            pagerank(rd.from_pandas(df), personalization={99: 1.0})


@pytest.mark.usefixtures("ray_session")
class TestTokenDivergence:
    """Round-4 session-9: corpus drift via Jensen-Shannon token
    divergence (ops/drift.py)."""

    def _ds(self, texts):
        return rd.from_pandas(pd.DataFrame({"text": texts})).repartition(2)

    def test_identity_disjoint_and_naive_equality(self):
        from collections import Counter

        from ocr_platform_ray.ops.drift import token_divergence

        def js(a, b):
            return token_divergence(self._ds(a), self._ds(b))["js_term"].sum()

        a_texts = ["the cat sat", "the dog ran", "cat cat"]
        c_texts = ["totally different words here", "nothing shared at all"]
        assert js(a_texts, a_texts) == 0.0
        assert js(a_texts, c_texts) == pytest.approx(1.0, rel=1e-12)

        def dist(texts):
            cnt = Counter(w for t in texts for w in t.lower().split(" ") if w)
            tot = sum(cnt.values())
            return {k: v / tot for k, v in cnt.items()}

        b_texts = ["the cat sat twice", "a dog"]
        pa_, pb_ = dist(a_texts), dist(b_texts)
        want = 0.0
        for w in set(pa_) | set(pb_):
            x, y = pa_.get(w, 0.0), pb_.get(w, 0.0)
            m = 0.5 * (x + y)
            if x:
                want += 0.5 * x * np.log2(x / m)
            if y:
                want += 0.5 * y * np.log2(y / m)
        t = token_divergence(self._ds(a_texts), self._ds(b_texts))
        assert (t["js_term"].to_numpy() >= 0).all()
        assert t["js_term"].sum() == pytest.approx(want, rel=1e-12)
        assert 0.0 < want < 1.0

    def test_bucketed_route_equals_driver_and_validation(self):
        from ocr_platform_ray.ops.drift import token_divergence

        a = ["alpha beta gamma delta"] * 5 + ["epsilon zeta"]
        b = ["alpha beta", "eta theta iota"]
        drv = token_divergence(self._ds(a), self._ds(b))
        # force the exchange route by making the probe threshold tiny
        from ocr_platform_ray.ops import drift as D
        from ocr_platform_ray.ops.relational import auto_group_agg

        def tiny_agg(ds, keys, aggs, **kw):
            kw["driver_threshold_rows"] = 0
            return auto_group_agg(ds, keys, aggs, **kw)

        orig = D.auto_group_agg
        D.auto_group_agg = tiny_agg
        try:
            exch = token_divergence(self._ds(a), self._ds(b))
        finally:
            D.auto_group_agg = orig
        if not isinstance(exch, pd.DataFrame):
            exch = exch.to_pandas()
        drv_s = drv.sort_values("token").reset_index(drop=True)
        exch_s = exch.sort_values("token").reset_index(drop=True)
        pd.testing.assert_frame_equal(drv_s, exch_s[drv_s.columns], check_dtype=False)
        with pytest.raises(ValueError, match="at least one token"):
            token_divergence(self._ds([""]), self._ds(b))


@pytest.mark.usefixtures("ray_session")
class TestEvalOps:
    """ops/eval.py — confusion matrix, PR sweep, tie-aware AUC,
    calibration buckets: naive-reference equality, bit-level block
    independence, edge/validation paths."""

    def _scored(self, n=4000, seed=3):
        rng = np.random.RandomState(seed)
        y = (rng.rand(n) < 0.4).astype("int64")
        s = np.clip(0.3 * y + 0.5 * rng.rand(n), 0.0, 0.999999)
        return pd.DataFrame({"label": y, "score": s})

    def test_confusion_matrix_matches_pandas(self):
        from ocr_platform_ray.ops.eval import confusion_matrix

        df = self._scored()
        df["pred"] = np.where(df["score"] > 0.5, "pos", "neg")
        df["truth"] = np.where(df["label"] == 1, "pos", "neg")
        want = (
            df.groupby(["truth", "pred"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
            .sort_values(["truth", "pred"])
            .reset_index(drop=True)
        )
        for parts in (1, 9):
            got = confusion_matrix(
                rd.from_pandas(df).repartition(parts), "truth", "pred"
            )
            if not isinstance(got, pd.DataFrame):
                got = got.to_pandas()
            got = got.sort_values(["truth", "pred"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_pr_curve_matches_naive_and_block_independent(self):
        from ocr_platform_ray.ops.eval import pr_curve

        df = self._scored()
        nb = 50
        w = 1.0 / nb
        k = np.clip(
            np.floor(df["score"].to_numpy() / w).astype(int), 0, nb - 1
        )
        y = df["label"].to_numpy()
        outs = []
        for parts in (1, 7):
            got = pr_curve(
                rd.from_pandas(df).repartition(parts),
                "score",
                "label",
                n_buckets=nb,
            )
            outs.append(got)
            for kk in (0, 13, 27, nb - 1):
                mask = k >= kk
                tp = int((y[mask] == 1).sum())
                fp = int((y[mask] == 0).sum())
                row = got[got["bucket"] == kk].iloc[0]
                assert (int(row.tp), int(row.fp)) == (tp, fp)
                assert int(row.fn) == int((y == 1).sum()) - tp
                assert row.precision == tp / (tp + fp) if tp + fp else 1.0
                assert row.recall == tp / int((y == 1).sum())
        # bit-identical across block structures (all-int provenance)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_auc_matches_tie_aware_mann_whitney(self):
        from ocr_platform_ray.ops.eval import roc_auc

        df = self._scored()
        nb = 40
        k = np.clip(
            np.floor(df["score"].to_numpy() * nb).astype(int), 0, nb - 1
        )
        y = df["label"].to_numpy()
        pos_k, neg_k = k[y == 1], k[y == 0]
        num = 0
        for kk in range(nb):
            p_here = int((pos_k == kk).sum())
            num += p_here * (
                2 * int((neg_k < kk).sum()) + int((neg_k == kk).sum())
            )
        want = num / (2 * len(pos_k) * len(neg_k))
        for parts in (1, 6):
            pts, auc = roc_auc(
                rd.from_pandas(df).repartition(parts),
                "score",
                "label",
                n_buckets=nb,
            )
            assert auc == want  # exact: integer numerator, one division
            assert pts["tpr"].iloc[0] == 1.0 and pts["fpr"].iloc[0] == 1.0
        # a better classifier separates more: perfect split -> auc == 1
        perfect = pd.DataFrame(
            {
                "label": [0] * 50 + [1] * 50,
                "score": [0.1] * 50 + [0.9] * 50,
            }
        )
        _, a1 = roc_auc(rd.from_pandas(perfect), "score", "label", n_buckets=10)
        assert a1 == 1.0

    def test_calibration_buckets_exact(self):
        from ocr_platform_ray.ops.eval import calibration_buckets

        df = self._scored(n=2000, seed=9)
        got = calibration_buckets(
            rd.from_pandas(df).repartition(5), "score", "label", n_buckets=10
        )
        k = np.clip(
            np.floor(df["score"].to_numpy() / 0.1).astype(int), 0, 9
        )
        u = np.floor(df["score"].to_numpy() * 1e6 + 0.5).astype("int64")
        for _, row in got.iterrows():
            m = k == int(row.bucket)
            assert int(row.n) == int(m.sum())
            assert row.mean_score == int(u[m].sum()) / 1e6 / int(m.sum())
            assert row.frac_pos == int(df["label"].to_numpy()[m].sum()) / int(
                m.sum()
            )
        # a calibrated-by-construction score: frac_pos rises with bucket
        assert got["frac_pos"].iloc[-1] > got["frac_pos"].iloc[0]

    def test_validation_errors(self):
        from ocr_platform_ray.ops.eval import pr_curve, roc_auc

        bad = pd.DataFrame({"label": [0, 2, 1], "score": [0.1, 0.5, 0.9]})
        with pytest.raises(Exception, match="0-1"):
            pr_curve(rd.from_pandas(bad), "score", "label", n_buckets=4)
        allneg = pd.DataFrame({"label": [0, 0], "score": [0.1, 0.2]})
        with pytest.raises(ValueError, match="positive"):
            roc_auc(rd.from_pandas(allneg), "score", "label", n_buckets=4)
        good = pd.DataFrame({"label": [0, 1], "score": [0.1, 0.2]})
        with pytest.raises(ValueError, match="n_buckets"):
            pr_curve(rd.from_pandas(good), "score", "label", n_buckets=1)
        with pytest.raises(ValueError, match="hi > lo"):
            pr_curve(
                rd.from_pandas(good), "score", "label", n_buckets=4, lo=1.0, hi=0.0
            )

    def test_scores_outside_range_clip_into_edge_buckets(self):
        from ocr_platform_ray.ops.eval import pr_curve

        df = pd.DataFrame(
            {"label": [1, 0, 1, 0], "score": [-5.0, -1.0, 9.0, 0.5]}
        )
        got = pr_curve(rd.from_pandas(df), "score", "label", n_buckets=4)
        # every row lands in a bucket: threshold 0 predicts all positive
        assert int(got[got.bucket == 0].iloc[0].tp) == 2
        assert int(got[got.bucket == 0].iloc[0].fp) == 2
        # the 9.0 clips into the top bucket
        assert int(got[got.bucket == 3].iloc[0].tp) == 1


@pytest.mark.usefixtures("ray_session")
class TestParetoFrontier:
    """ops/pareto.py — naive O(n²) dominance equality on both kernel
    paths (2-objective sorted scan, k>=3 chunked matrix), duplicate and
    tie survival, mixed directions, block independence, validation."""

    @staticmethod
    def _naive(df, objs, dirs):
        m = np.column_stack(
            [
                df[c].to_numpy(float) * (1 if d == "max" else -1)
                for c, d in zip(objs, dirs)
            ]
        )
        keep = np.ones(len(m), dtype=bool)
        for i in range(len(m)):
            for j in range(len(m)):
                if i != j and (m[j] >= m[i]).all() and (m[j] > m[i]).any():
                    keep[i] = False
                    break
        return df[keep]

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_naive_with_duplicates(self, k):
        from ocr_platform_ray.ops.pareto import pareto_frontier

        rng = np.random.RandomState(11 + k)
        objs = [f"o{i}" for i in range(k)]
        # small integer domain forces duplicate points AND per-objective
        # ties — the hard tie cases for the sorted-scan path
        df = pd.DataFrame(
            rng.randint(0, 10, size=(350, k)).astype(float), columns=objs
        )
        df["id"] = np.arange(350)
        dirs = ["max"] * (k - 1) + ["min"]
        want = self._naive(df, objs, dirs)
        want = want.sort_values([*objs, "id"]).reset_index(drop=True)
        outs = []
        for parts in (1, 8):
            got = pareto_frontier(rd.from_pandas(df).repartition(parts), objs, dirs)
            got = got.sort_values([*objs, "id"]).reset_index(drop=True)
            assert got["id"].tolist() == want["id"].tolist()
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_identical_points_all_survive(self):
        from ocr_platform_ray.ops.pareto import pareto_frontier

        df = pd.DataFrame({"a": [3.0] * 25, "b": [7.0] * 25, "id": range(25)})
        got = pareto_frontier(rd.from_pandas(df).repartition(4), ["a", "b"])
        assert len(got) == 25

    def test_single_dominant_point(self):
        from ocr_platform_ray.ops.pareto import pareto_frontier

        df = pd.DataFrame(
            {"a": [1.0, 2.0, 9.0, 3.0], "b": [1.0, 2.0, 9.0, 3.0]}
        )
        got = pareto_frontier(rd.from_pandas(df), ["a", "b"])
        assert got[["a", "b"]].values.tolist() == [[9.0, 9.0]]

    def test_validation(self):
        from ocr_platform_ray.ops.pareto import pareto_frontier

        df = pd.DataFrame({"a": [1.0], "b": [2.0]})
        with pytest.raises(ValueError, match="two objectives"):
            pareto_frontier(rd.from_pandas(df), ["a"])
        with pytest.raises(ValueError, match="max.*min|'max'/'min'"):
            pareto_frontier(rd.from_pandas(df), ["a", "b"], ["max", "up"])
        bad = pd.DataFrame({"a": [1.0, np.nan], "b": [2.0, 3.0]})
        with pytest.raises(Exception, match="NaN"):
            pareto_frontier(rd.from_pandas(bad), ["a", "b"])


@pytest.mark.usefixtures("ray_session")
class TestGroupedLinreg:
    """ops/profile.grouped_linreg — numpy polyfit agreement over the
    scaled values, bit-level block independence, degenerate-group NULLs,
    overflow guard."""

    def test_matches_polyfit_on_scaled_values(self):
        from ocr_platform_ray.ops.profile import grouped_linreg

        rng = np.random.RandomState(21)
        g = rng.choice(["a", "b", "c"], size=900)
        x = rng.uniform(0, 50, size=900)
        y = 3.5 * x + 10 + rng.normal(0, 5, size=900)
        df = pd.DataFrame({"g": g, "x": x, "y": y})
        got = grouped_linreg(
            rd.from_pandas(df).repartition(6), "x", "y", ["g"],
            x_scale=100, y_scale=100,
        )
        for _, row in got.iterrows():
            sub = df[df["g"] == row["g"]]
            xs = np.floor(np.abs(sub["x"]) * 100 + 0.5) * np.sign(sub["x"])
            ys = np.floor(np.abs(sub["y"]) * 100 + 0.5) * np.sign(sub["y"])
            slope_s, intercept_s = np.polyfit(xs, ys, 1)
            assert row["slope"] == pytest.approx(slope_s * 100 / 100, rel=1e-9)
            assert row["intercept"] == pytest.approx(intercept_s / 100, rel=1e-9)
            r = np.corrcoef(xs, ys)[0, 1]
            assert row["r2"] == pytest.approx(r * r, rel=1e-9)
            assert int(row["n"]) == len(sub)

    def test_block_independent_to_the_bit(self):
        from ocr_platform_ray.ops.profile import grouped_linreg

        rng = np.random.RandomState(4)
        df = pd.DataFrame(
            {
                "g": rng.choice(["p", "q"], size=500),
                "x": rng.uniform(0, 40, size=500),
                "y": rng.uniform(0, 900, size=500),
            }
        )
        outs = [
            grouped_linreg(
                rd.from_pandas(df).repartition(p), "x", "y", ["g"],
                x_scale=100, y_scale=10,
            )
            for p in (1, 9)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_degenerate_groups_nan(self):
        from ocr_platform_ray.ops.profile import grouped_linreg

        df = pd.DataFrame(
            {
                "g": ["solo", "flat", "flat", "flat", "ok", "ok", "ok"],
                "x": [1.0, 5.0, 5.0, 5.0, 1.0, 2.0, 3.0],
                "y": [1.0, 1.0, 2.0, 3.0, 2.0, 4.0, 6.0],
            }
        )
        got = grouped_linreg(rd.from_pandas(df), "x", "y", ["g"]).set_index("g")
        assert np.isnan(got.loc["solo", "slope"])  # n < 2
        assert np.isnan(got.loc["flat", "slope"])  # zero x-variance
        assert got.loc["ok", "slope"] == pytest.approx(2.0)
        assert got.loc["ok", "intercept"] == pytest.approx(0.0, abs=1e-9)
        assert got.loc["ok", "r2"] == pytest.approx(1.0)

    def test_overflow_guard_raises(self):
        from ocr_platform_ray.ops.profile import grouped_linreg

        df = pd.DataFrame(
            {"g": ["a", "a"], "x": [1.0, 2.0], "y": [3e9, 3e9]}
        )
        with pytest.raises(Exception, match="2\\^31|domain"):
            grouped_linreg(rd.from_pandas(df), "x", "y", ["g"], y_scale=100)


@pytest.mark.usefixtures("ray_session")
class TestGroupedTransitions:
    """ops/markov.py — naive per-key pandas reference equality,
    null-state closure, probability row-normalization, block
    independence, string keys."""

    def _events(self, n=600, seed=13, nulls=False):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 40, size=n).astype("int64"),
                "state": rng.choice(["a", "b", "c", "d"], size=n),
                "t": rng.permutation(n).astype("int64"),
            }
        )
        if nulls:
            df.loc[df.index % 11 == 0, "state"] = None
        return df

    @staticmethod
    def _naive(df):
        rows = []
        for _, g in df[df["state"].notna()].groupby("k"):
            s = g.sort_values("t")["state"].tolist()
            rows += list(zip(s[:-1], s[1:]))
        out = (
            pd.DataFrame(rows, columns=["from_state", "to_state"])
            .groupby(["from_state", "to_state"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        tot = out.groupby("from_state")["n"].transform("sum")
        out["prob"] = out["n"].astype("int64").to_numpy() / tot.astype(
            "int64"
        ).to_numpy()
        return out.sort_values(["from_state", "to_state"]).reset_index(drop=True)

    @pytest.mark.parametrize("nulls", [False, True])
    def test_matches_naive(self, nulls):
        from ocr_platform_ray.ops.markov import grouped_transitions

        df = self._events(nulls=nulls)
        want = self._naive(df)
        outs = []
        for parts in (1, 7):
            got = grouped_transitions(
                rd.from_pandas(df).repartition(parts), ["k"], "state", ["t"]
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-identical

    def test_prob_rows_normalize(self):
        from ocr_platform_ray.ops.markov import grouped_transitions

        got = grouped_transitions(
            rd.from_pandas(self._events(seed=5)), ["k"], "state", ["t"]
        )
        sums = got.groupby("from_state")["prob"].sum()
        assert np.allclose(sums.to_numpy(), 1.0)

    def test_string_keys_and_singletons(self):
        from ocr_platform_ray.ops.markov import grouped_transitions

        df = pd.DataFrame(
            {
                "k": ["u1", "u1", "u1", "u2", "u3"],
                "state": ["x", "y", "x", "z", "z"],
                "t": [1, 2, 3, 1, 1],
            }
        )
        got = grouped_transitions(
            rd.from_pandas(df).repartition(3), ["k"], "state", ["t"],
            with_prob=False,
        )
        # u2/u3 are singletons (no pairs); u1 contributes x->y, y->x
        assert got[["from_state", "to_state"]].values.tolist() == [
            ["x", "y"],
            ["y", "x"],
        ]
        assert got["n"].tolist() == [1, 1]

    def test_empty_and_all_null(self):
        from ocr_platform_ray.ops.markov import grouped_transitions

        df = pd.DataFrame(
            {"k": [1, 1], "state": [None, None], "t": [1, 2]}
        )
        got = grouped_transitions(rd.from_pandas(df), ["k"], "state", ["t"])
        assert len(got) == 0
        assert list(got.columns) == ["from_state", "to_state", "n", "prob"]


@pytest.mark.usefixtures("ray_session")
class TestBfsDistances:
    """ops/graph.bfs_distances — naive BFS reference equality (directed
    and undirected), seed semantics, max_hops bound, unreachable
    exclusion, string ids, block independence, validation."""

    def _edges(self, n=400, seed=7):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "src": rng.randint(0, 120, size=n).astype("int64"),
                "dst": rng.randint(0, 120, size=n).astype("int64"),
            }
        )

    @staticmethod
    def _naive(edges, seeds, directed, max_hops):
        adj = {}
        for s, d in zip(edges["src"], edges["dst"]):
            adj.setdefault(s, set()).add(d)
            if not directed:
                adj.setdefault(d, set()).add(s)
        dist = {s: 0 for s in seeds}
        frontier = list(dict.fromkeys(seeds))
        for h in range(max_hops):
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in dist:
                        dist[v] = h + 1
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        return (
            pd.DataFrame({"node": list(dist), "dist": list(dist.values())})
            .astype({"dist": "int64"})
            .sort_values(["dist", "node"])
            .reset_index(drop=True)
        )

    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_naive(self, directed):
        from ocr_platform_ray.ops.graph import bfs_distances

        edges = self._edges()
        want = self._naive(edges, [3, 77], directed, 30)
        outs = []
        for parts in (1, 6):
            got = bfs_distances(
                rd.from_pandas(edges).repartition(parts),
                [3, 77],
                directed=directed,
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_max_hops_and_unreachable(self):
        from ocr_platform_ray.ops.graph import bfs_distances

        # 0->1->2->3 chain plus an island edge 10->11: nothing past
        # max_hops, island never reached, seed present even if not in
        # the edge list
        edges = pd.DataFrame(
            {"src": [0, 1, 2, 10], "dst": [1, 2, 3, 11]}
        )
        got = bfs_distances(rd.from_pandas(edges), [0], max_hops=2)
        assert dict(zip(got["node"], got["dist"])) == {0: 0, 1: 1, 2: 2}
        lone = bfs_distances(rd.from_pandas(edges), [99], max_hops=5)
        assert dict(zip(lone["node"], lone["dist"])) == {99: 0}

    def test_string_ids(self):
        from ocr_platform_ray.ops.graph import bfs_distances

        edges = pd.DataFrame(
            {"src": ["a", "b", "b"], "dst": ["b", "c", "a"]}
        )
        got = bfs_distances(rd.from_pandas(edges), ["a"])
        assert dict(zip(got["node"], got["dist"])) == {"a": 0, "b": 1, "c": 2}

    def test_validation(self):
        from ocr_platform_ray.ops.graph import bfs_distances

        edges = rd.from_pandas(pd.DataFrame({"src": [1], "dst": [2]}))
        with pytest.raises(ValueError, match="empty seed"):
            bfs_distances(edges, [])
        with pytest.raises(ValueError, match="max_hops"):
            bfs_distances(edges, [1], max_hops=-1)


@pytest.mark.usefixtures("ray_session")
class TestCoalesceIntervals:
    """ops/interval.coalesce_intervals — naive per-key merge reference
    equality, touching/gap semantics, datetime intervals, block
    independence, as_dataset route."""

    def _intervals(self, n=500, seed=11):
        rng = np.random.RandomState(seed)
        s = rng.randint(0, 5000, size=n).astype("int64")
        return pd.DataFrame(
            {
                "k": rng.randint(0, 25, size=n).astype("int64"),
                "s": s,
                "e": s + rng.randint(1, 200, size=n).astype("int64"),
            }
        )

    @staticmethod
    def _naive(df, gap=0):
        rows = []
        for k, g in df.groupby("k"):
            cur = None
            for _, r in g.sort_values(["s", "e"]).iterrows():
                if cur is None or r["s"] > cur[1] + gap:
                    if cur is not None:
                        rows.append((k, *cur))
                    cur = [r["s"], r["e"], 1]
                else:
                    cur[1] = max(cur[1], r["e"])
                    cur[2] += 1
            if cur is not None:
                rows.append((k, *cur))
        return (
            pd.DataFrame(rows, columns=["k", "s", "e", "n_merged"])
            .astype({"n_merged": "int64"})
            .sort_values(["k", "s", "e"])
            .reset_index(drop=True)
        )

    @pytest.mark.parametrize("gap", [0, 25])
    def test_matches_naive(self, gap):
        from ocr_platform_ray.ops.interval import coalesce_intervals

        df = self._intervals()
        want = self._naive(df, gap=gap)
        outs = []
        for parts in (1, 7):
            got = coalesce_intervals(
                rd.from_pandas(df).repartition(parts),
                key_cols=["k"], start_col="s", end_col="e", gap=gap,
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_touching_merge_and_positive_gap(self):
        from ocr_platform_ray.ops.interval import coalesce_intervals

        df = pd.DataFrame(
            {
                "k": [1, 1, 1, 1],
                "s": [0, 10, 13, 40],
                "e": [10, 12, 20, 50],
            }
        )
        got = coalesce_intervals(
            rd.from_pandas(df), key_cols=["k"], start_col="s", end_col="e"
        )
        # [0,10] touches [10,12] (start == running end merges); [13,20]
        # starts past 12; [40,50] alone
        assert got[["s", "e", "n_merged"]].values.tolist() == [
            [0, 12, 2], [13, 20, 1], [40, 50, 1],
        ]
        bridged = coalesce_intervals(
            rd.from_pandas(df), key_cols=["k"], start_col="s", end_col="e",
            gap=1,
        )
        assert bridged[["s", "e", "n_merged"]].values.tolist() == [
            [0, 20, 3], [40, 50, 1],
        ]

    def test_datetime_intervals(self):
        from ocr_platform_ray.ops.interval import coalesce_intervals

        base = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                "k": ["u", "u", "v"],
                "s": [base, base + pd.Timedelta("45min"), base],
                "e": [
                    base + pd.Timedelta("30min"),
                    base + pd.Timedelta("90min"),
                    base + pd.Timedelta("10min"),
                ],
            }
        )
        got = coalesce_intervals(
            rd.from_pandas(df), key_cols=["k"], start_col="s", end_col="e",
            gap="20min",
        )
        # the 15-minute hole bridges under gap=20min
        assert got["n_merged"].tolist() == [2, 1]
        assert got.loc[0, "e"] == base + pd.Timedelta("90min")

    def test_as_dataset_route(self):
        from ocr_platform_ray.ops.interval import coalesce_intervals

        df = self._intervals(n=80)
        got = coalesce_intervals(
            rd.from_pandas(df), key_cols=["k"], start_col="s", end_col="e",
            as_dataset=True,
        )
        assert isinstance(got, rd.Dataset)
        got = got.to_pandas().sort_values(["k", "s", "e"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, self._naive(df), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestGroupedFill:
    """ops/windows.grouped_fill — pandas groupby ffill/bfill reference
    equality, leading/trailing NULL semantics, multi-column fill, block
    independence, validation."""

    def _frame(self, n=600, seed=3):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 30, size=n).astype("int64"),
                "o": rng.permutation(n).astype("int64"),
                "tie": np.arange(n, dtype="int64"),
                "v": rng.randn(n),
                "w": rng.choice(["x", "y", "z"], size=n).astype(object),
            }
        )
        df.loc[df.index % 3 == 0, "v"] = np.nan
        df.loc[df.index % 4 == 1, "w"] = None
        return df

    @staticmethod
    def _naive(df, direction):
        g = df.sort_values(["k", "o", "tie"]).reset_index(drop=True)
        gb = g.groupby("k", sort=False)[["v", "w"]]
        g[["v", "w"]] = gb.ffill() if direction == "ffill" else gb.bfill()
        return g

    @pytest.mark.parametrize("direction", ["ffill", "bfill"])
    def test_matches_pandas(self, direction):
        from ocr_platform_ray.ops.windows import grouped_fill

        df = self._frame()
        want = self._naive(df, direction)
        outs = []
        for parts in (1, 8):
            got = grouped_fill(
                rd.from_pandas(df).repartition(parts),
                key_cols=["k"], order_col="o", tie_col="tie",
                value_cols=["v", "w"], direction=direction,
            )
            pd.testing.assert_frame_equal(
                got.reset_index(drop=True), want, check_dtype=False
            )
            outs.append(got.reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_leading_nulls_stay_null(self):
        from ocr_platform_ray.ops.windows import grouped_fill

        df = pd.DataFrame(
            {
                "k": [1, 1, 1, 2, 2],
                "o": [1, 2, 3, 1, 2],
                "tie": [0, 1, 2, 3, 4],
                "v": [np.nan, 5.0, np.nan, np.nan, np.nan],
            }
        )
        got = grouped_fill(
            rd.from_pandas(df), key_cols=["k"], order_col="o",
            tie_col="tie", value_cols=["v"],
        ).reset_index(drop=True)
        assert np.isnan(got.loc[0, "v"])          # no donor before
        assert got.loc[2, "v"] == 5.0             # carried forward
        assert got.loc[3:, "v"].isna().all()      # key 2 never fills

    def test_validation(self):
        from ocr_platform_ray.ops.windows import grouped_fill

        ds = rd.from_pandas(
            pd.DataFrame({"k": [1], "o": [1], "tie": [0], "v": [1.0]})
        )
        with pytest.raises(ValueError, match="direction"):
            grouped_fill(
                ds, key_cols=["k"], order_col="o", tie_col="tie",
                value_cols=["v"], direction="sideways",
            )


@pytest.mark.usefixtures("ray_session")
class TestCohortRetention:
    """ops/cohort.py — naive pandas reference equality, null dropping,
    offset-0 = cohort size, block independence, empty input,
    validation."""

    _DAY = 86_400_000_000

    def _events(self, n=800, seed=11, nulls=False):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 60, size=n).astype("int64"),
                "ts": pd.Timestamp("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 40 * 24, size=n), unit="h"),
            }
        )
        if nulls:
            df.loc[df.index % 13 == 0, "user_id"] = None
            df.loc[df.index % 17 == 0, "ts"] = pd.NaT
        return df

    def _naive(self, df):
        p = df.dropna().copy()
        p["d"] = (
            p["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // self._DAY
        )
        first = p.groupby("user_id")["d"].transform("min")
        p["cohort"] = first
        p["offset"] = p["d"] - first
        cells = p[["cohort", "offset", "user_id"]].drop_duplicates()
        out = (
            cells.groupby(["cohort", "offset"], as_index=False)
            .size()
            .rename(columns={"size": "n_keys"})
            .astype({"cohort": "int64", "offset": "int64", "n_keys": "int64"})
        )
        return out.sort_values(["cohort", "offset"]).reset_index(drop=True)

    @pytest.mark.parametrize("nulls", [False, True])
    def test_matches_naive(self, nulls):
        from ocr_platform_ray.ops.cohort import cohort_retention

        df = self._events(nulls=nulls)
        want = self._naive(df)
        outs = []
        for parts in (1, 7):
            got = cohort_retention(
                rd.from_pandas(df).repartition(parts),
                key_col="user_id",
                ts_col="ts",
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-identical

    def test_offset_zero_is_cohort_size(self):
        from ocr_platform_ray.ops.cohort import cohort_retention

        df = self._events(seed=3)
        got = cohort_retention(
            rd.from_pandas(df), key_col="user_id", ts_col="ts"
        )
        # every user appears in their own cohort at offset 0, and no
        # later offset can exceed the cohort size
        z = got[got["offset"] == 0].set_index("cohort")["n_keys"]
        first = (
            df.assign(
                d=df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
                // self._DAY
            )
            .groupby("user_id")["d"]
            .min()
        )
        want = first.value_counts().sort_index()
        assert z.sort_index().tolist() == want.tolist()
        mx = got.groupby("cohort")["n_keys"].max()
        assert (mx <= z.reindex(mx.index)).all()

    def test_empty_and_validation(self):
        from ocr_platform_ray.ops.cohort import cohort_retention

        empty = self._events(n=4).iloc[:0]
        got = cohort_retention(
            rd.from_pandas(empty), key_col="user_id", ts_col="ts"
        )
        assert len(got) == 0
        assert list(got.columns) == ["cohort", "offset", "n_keys"]
        with pytest.raises(ValueError, match="period_us"):
            cohort_retention(
                rd.from_pandas(self._events(n=8)),
                key_col="user_id",
                ts_col="ts",
                period_us=0,
            )


@pytest.mark.usefixtures("ray_session")
class TestPairCooccurrence:
    """ops/assoc.py — naive itertools reference equality (counts,
    support, lift), duplicate-row collapse, min_pair_count, the
    max_items_per_basket skew cap, block independence, validation."""

    def _rows(self, n=900, seed=23):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "basket": rng.randint(0, 80, size=n).astype("int64"),
                "item": rng.choice(list("abcdefg"), size=n),
            }
        )

    @staticmethod
    def _naive(df, min_pair_count=1, cap=None):
        from itertools import combinations

        b = df.dropna().drop_duplicates()
        n_total = b["basket"].nunique()
        item_n = b.groupby("item").size()
        pairs = {}
        for _, g in b.groupby("basket"):
            items = sorted(g["item"])
            if cap is not None and len(items) > cap:
                continue
            for x, y in combinations(items, 2):
                pairs[(x, y)] = pairs.get((x, y), 0) + 1
        rows = []
        for (x, y), n in sorted(pairs.items()):
            if n < min_pair_count:
                continue
            na, nb = int(item_n[x]), int(item_n[y])
            rows.append(
                {
                    "item_a": x,
                    "item_b": y,
                    "n_pair": n,
                    "n_a": na,
                    "n_b": nb,
                    "support": float(n) / np.float64(n_total),
                    "lift": (float(n) * np.float64(n_total))
                    / (np.float64(na) * np.float64(nb)),
                }
            )
        return pd.DataFrame(rows)

    def test_matches_naive(self):
        from ocr_platform_ray.ops.assoc import pair_cooccurrence

        df = self._rows()
        want = self._naive(df)
        outs = []
        for parts in (1, 9):
            got = pair_cooccurrence(
                rd.from_pandas(df).repartition(parts),
                basket_col="basket",
                item_col="item",
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_duplicates_collapse_and_min_count(self):
        from ocr_platform_ray.ops.assoc import pair_cooccurrence

        df = self._rows(n=300, seed=5)
        dup = pd.concat([df, df, df], ignore_index=True)  # set semantics
        a = pair_cooccurrence(
            rd.from_pandas(df), basket_col="basket", item_col="item"
        )
        b = pair_cooccurrence(
            rd.from_pandas(dup), basket_col="basket", item_col="item"
        )
        pd.testing.assert_frame_equal(a, b)
        m = pair_cooccurrence(
            rd.from_pandas(df),
            basket_col="basket",
            item_col="item",
            min_pair_count=10,
        )
        want = self._naive(df, min_pair_count=10)
        pd.testing.assert_frame_equal(m, want, check_dtype=False)
        assert (m["n_pair"] >= 10).all()

    def test_max_items_cap(self):
        from ocr_platform_ray.ops.assoc import pair_cooccurrence

        df = self._rows(n=600, seed=9)
        got = pair_cooccurrence(
            rd.from_pandas(df).repartition(5),
            basket_col="basket",
            item_col="item",
            max_items_per_basket=4,
        )
        want = self._naive(df, cap=4)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # marginals/N still count capped baskets: support unchanged for
        # a pair also present without the cap
        full = pair_cooccurrence(
            rd.from_pandas(df), basket_col="basket", item_col="item"
        )
        joint = got.merge(full, on=["item_a", "item_b"], suffixes=("_c", "_f"))
        assert (joint["n_a_c"] == joint["n_a_f"]).all()
        with pytest.raises(ValueError, match="max_items_per_basket"):
            pair_cooccurrence(
                rd.from_pandas(df),
                basket_col="basket",
                item_col="item",
                max_items_per_basket=1,
            )

    def test_empty(self):
        from ocr_platform_ray.ops.assoc import pair_cooccurrence

        got = pair_cooccurrence(
            rd.from_pandas(self._rows(n=6).iloc[:0]),
            basket_col="basket",
            item_col="item",
        )
        assert len(got) == 0
        assert list(got.columns) == [
            "item_a", "item_b", "n_pair", "n_a", "n_b", "support", "lift",
        ]


@pytest.mark.usefixtures("ray_session")
class TestPmiBigrams:
    """ops/colloc.py — naive Python reference equality (tokenization,
    adjacency over kept tokens, exact counts, the ln expression),
    multi-space adjacency rule, min_count, block independence, empty
    corpus, validation."""

    def _docs(self, n=120, seed=7):
        rng = np.random.RandomState(seed)
        vocab = ["alpha", "beta", "gamma", "delta", "Epsilon", "zeta"]
        texts = [
            " ".join(rng.choice(vocab, size=rng.randint(3, 25)))
            for _ in range(n)
        ]
        texts[0] = "alpha  beta   alpha beta"  # multi-space adjacency
        texts[1] = ""  # empty doc
        return pd.DataFrame({"text": texts})

    @staticmethod
    def _naive(df, min_count):
        import math
        from collections import Counter

        uni, bi = Counter(), Counter()
        n_tok = n_big = 0
        for t in df["text"].fillna(""):
            toks = [w for w in t.lower().split(" ") if w != ""]
            uni.update(toks)
            n_tok += len(toks)
            for x, y in zip(toks[:-1], toks[1:]):
                bi[(x, y)] += 1
                n_big += 1
        rows = []
        for (x, y), n in sorted(bi.items()):
            if n < min_count:
                continue
            pmi = math.log(
                (float(n) * n_tok * n_tok)
                / (float(n_big) * uni[x] * uni[y])
            )
            rows.append(
                {
                    "x": x, "y": y, "n_xy": n,
                    "n_x": uni[x], "n_y": uni[y], "pmi": pmi,
                }
            )
        return pd.DataFrame(rows)

    def test_matches_naive(self):
        from ocr_platform_ray.ops.colloc import pmi_bigrams

        df = self._docs()
        want = self._naive(df, min_count=3)
        outs = []
        for parts in (1, 8):
            got = pmi_bigrams(
                rd.from_pandas(df).repartition(parts),
                text_col="text",
                min_count=3,
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-identical

    def test_multispace_adjacency_and_lowering(self):
        from ocr_platform_ray.ops.colloc import pmi_bigrams

        df = pd.DataFrame({"text": ["Word  pair", "word pair", "word pair"]})
        got = pmi_bigrams(rd.from_pandas(df), min_count=1)
        # empties dropped BEFORE pairing: the double space still yields
        # the (word, pair) bigram; 'Word' lowers into the same token
        assert got.loc[
            (got["x"] == "word") & (got["y"] == "pair"), "n_xy"
        ].tolist() == [3]

    def test_empty_and_validation(self):
        from ocr_platform_ray.ops.colloc import pmi_bigrams

        got = pmi_bigrams(
            rd.from_pandas(pd.DataFrame({"text": ["", "   ", None]})),
            min_count=1,
        )
        assert len(got) == 0
        assert list(got.columns) == ["x", "y", "n_xy", "n_x", "n_y", "pmi"]
        with pytest.raises(ValueError, match="min_count"):
            pmi_bigrams(
                rd.from_pandas(pd.DataFrame({"text": ["a b"]})), min_count=0
            )


@pytest.mark.usefixtures("ray_session")
class TestPolitenessOrder:
    """ops/frontier.py — two-level ROW_NUMBER ground truth, round-robin
    prefix property, ascending priority, block independence, null-host
    drop, as_dataset route, validation."""

    def _urls(self, n=500, seed=31, hosts=23):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "host": np.char.add(
                    "h", rng.randint(0, hosts, size=n).astype(str)
                ),
                "url": np.char.add("u", np.arange(n).astype(str)),
                "pri": rng.randint(0, 9, size=n).astype("int64"),
            }
        )

    @staticmethod
    def _naive(df, descending=True):
        g = df.sort_values(
            ["host", "pri", "url"], ascending=[True, not descending, True],
            kind="mergesort",
        ).copy()
        g["r"] = (g.groupby("host", sort=False).cumcount() + 1).astype("int64")
        g = g.sort_values(["r", "host"], kind="mergesort").reset_index(
            drop=True
        )
        g["pos"] = np.arange(1, len(g) + 1, dtype="int64")
        return g[["host", "url", "pri", "r", "pos"]].reset_index(drop=True)

    @pytest.mark.parametrize("descending", [True, False])
    def test_matches_two_level_window(self, descending):
        from ocr_platform_ray.ops.frontier import politeness_order

        df = self._urls()
        want = self._naive(df, descending=descending)
        outs = []
        for parts in (1, 7):
            got = politeness_order(
                rd.from_pandas(df).repartition(parts),
                host_col="host",
                priority_col="pri",
                tie_cols=["url"],
                descending=descending,
            )
            pd.testing.assert_frame_equal(
                got[["host", "url", "pri", "r", "pos"]], want,
                check_dtype=False,
            )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_round_robin_prefix(self):
        from ocr_platform_ray.ops.frontier import politeness_order

        df = self._urls(seed=2, hosts=11)
        got = politeness_order(
            rd.from_pandas(df), host_col="host", priority_col="pri",
            tie_cols=["url"],
        )
        n_hosts = df["host"].nunique()
        head = got[got["pos"] <= n_hosts]
        # the first pass touches every host exactly once, with its top URL
        assert sorted(head["host"]) == sorted(df["host"].unique())
        assert (head["r"] == 1).all()

    def test_null_hosts_drop_and_as_dataset(self):
        from ocr_platform_ray.ops.frontier import politeness_order

        df = self._urls(n=60, seed=4).astype({"host": "object"})
        df.loc[df.index % 5 == 0, "host"] = None
        want = self._naive(df.dropna(subset=["host"]))
        res = politeness_order(
            rd.from_pandas(df), host_col="host", priority_col="pri",
            tie_cols=["url"], as_dataset=True,
        )
        assert isinstance(res, rd.Dataset)
        got = (
            res.to_pandas()
            .sort_values("pos")
            .reset_index(drop=True)[["host", "url", "pri", "r", "pos"]]
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_validation_and_empty(self):
        from ocr_platform_ray.ops.frontier import politeness_order

        df = self._urls(n=8)
        with pytest.raises(ValueError, match="tie_cols"):
            politeness_order(
                rd.from_pandas(df), host_col="host", priority_col="pri",
                tie_cols=[],
            )
        df2 = df.astype({"host": "object"})
        df2["host"] = None
        got = politeness_order(
            rd.from_pandas(df2), host_col="host", priority_col="pri",
            tie_cols=["url"],
        )
        assert len(got) == 0
        assert "pos" in got.columns


@pytest.mark.usefixtures("ray_session")
class TestGroupedDecayWindow:
    """ops/windows.grouped_decay_window — naive per-key LAG-chain
    reference equality (incl. NULL values), normalize=False,
    block independence, validation."""

    def _events(self, n=500, seed=17, nulls=False):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 30, size=n).astype("int64"),
                "o": rng.permutation(n).astype("int64"),
                "tie": np.arange(n, dtype="int64"),
                "v": rng.uniform(0, 100, size=n),
            }
        )
        if nulls:
            df.loc[df.index % 7 == 0, "v"] = np.nan
        return df

    @staticmethod
    def _naive(df, weights, normalize=True):
        rows = []
        for _, g in df.groupby("k"):
            g = g.sort_values(["o", "tie"])
            v = g["v"].tolist()
            for i in range(len(v)):
                num, den = 0.0, 0.0
                for j, w in enumerate(weights):
                    if i - j < 0:
                        continue
                    x = v[i - j]
                    if x == x:  # not NaN
                        num = num + w * x
                        den = den + w
                rows.append(
                    {
                        "k": g["k"].iloc[i],
                        "o": g["o"].iloc[i],
                        "tie": g["tie"].iloc[i],
                        "decay": (num / den if den else np.nan)
                        if normalize
                        else num,
                    }
                )
        return (
            pd.DataFrame(rows)
            .sort_values(["k", "o", "tie"])
            .reset_index(drop=True)
        )

    @pytest.mark.parametrize("nulls", [False, True])
    def test_matches_naive(self, nulls):
        from ocr_platform_ray.ops.windows import grouped_decay_window

        df = self._events(nulls=nulls)
        w = [1.0, 0.5, 0.25, 0.125]
        want = self._naive(df, w)
        outs = []
        for parts in (1, 6):
            got = grouped_decay_window(
                rd.from_pandas(df).repartition(parts),
                key_cols=["k"], order_col="o", tie_col="tie",
                value_col="v", weights=w,
            )
            pd.testing.assert_frame_equal(
                got[["k", "o", "tie", "decay"]], want, check_dtype=False
            )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-identical

    def test_unnormalized_and_validation(self):
        from ocr_platform_ray.ops.windows import grouped_decay_window

        df = self._events(n=120, seed=3)
        w = [2.0, 1.0]
        got = grouped_decay_window(
            rd.from_pandas(df), key_cols=["k"], order_col="o",
            tie_col="tie", value_col="v", weights=w, normalize=False,
        )
        want = self._naive(df, w, normalize=False)
        pd.testing.assert_frame_equal(
            got[["k", "o", "tie", "decay"]], want, check_dtype=False
        )
        with pytest.raises(ValueError, match="weights"):
            grouped_decay_window(
                rd.from_pandas(df), key_cols=["k"], order_col="o",
                tie_col="tie", value_col="v", weights=[],
            )


@pytest.mark.usefixtures("ray_session")
class TestGlobalRowNumber:
    """ops/windows.global_row_number — single-sort ground truth, heavy
    duplicate leading values across cutoffs, NaN-last rule, projection,
    block independence, as_dataset, validation."""

    def _rows(self, n=700, seed=41, dups=False):
        rng = np.random.RandomState(seed)
        lead = (
            rng.randint(0, 9, size=n).astype("float64")
            if dups
            else rng.uniform(0, 1000, size=n)
        )
        return pd.DataFrame(
            {
                "price": lead,
                "key": rng.permutation(n).astype("int64"),
                "extra": rng.randint(0, 5, size=n).astype("int64"),
            }
        )

    @staticmethod
    def _naive(df):
        out = df.sort_values(
            ["price", "key"], kind="mergesort", na_position="last"
        ).reset_index(drop=True)
        out["rn"] = np.arange(1, len(out) + 1, dtype="int64")
        return out

    @pytest.mark.parametrize("dups", [False, True])
    def test_matches_single_sort(self, dups):
        from ocr_platform_ray.ops.windows import global_row_number

        df = self._rows(dups=dups)
        want = self._naive(df)
        outs = []
        for parts in (1, 8):
            got = global_row_number(
                rd.from_pandas(df).repartition(parts),
                order_cols=["price", "key"],
                n_buckets=7,
            )
            pd.testing.assert_frame_equal(
                got[["price", "key", "extra", "rn"]],
                want[["price", "key", "extra", "rn"]],
                check_dtype=False,
            )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_nan_last_projection_and_as_dataset(self):
        from ocr_platform_ray.ops.windows import global_row_number

        df = self._rows(n=90, seed=2)
        df.loc[df.index % 10 == 0, "price"] = np.nan
        want = self._naive(df)
        res = global_row_number(
            rd.from_pandas(df),
            order_cols=["price", "key"],
            columns=["price", "key"],  # 'extra' must not ride the exchange
            n_buckets=5,
            as_dataset=True,
        )
        assert isinstance(res, rd.Dataset)
        got = res.to_pandas().sort_values("rn").reset_index(drop=True)
        assert list(got.columns) == ["price", "key", "rn"]
        pd.testing.assert_frame_equal(
            got, want[["price", "key", "rn"]], check_dtype=False
        )

    def test_validation(self):
        from ocr_platform_ray.ops.windows import global_row_number

        with pytest.raises(ValueError, match="order_cols"):
            global_row_number(
                rd.from_pandas(self._rows(n=8)), order_cols=[]
            )


@pytest.mark.usefixtures("ray_session")
class TestWelchTTest:
    """ops/profile.welch_t_test — textbook-formula reference (rtol),
    missing-variant / n<2 drop, global (ungrouped) route, block
    independence, empty result."""

    def _rows(self, n=800, seed=19, shift=20.0):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "g": rng.randint(0, 5, size=n).astype("int64"),
                "variant": rng.choice(["A", "B", "C"], size=n),
                "v": rng.uniform(0, 50, size=n),
            }
        )
        df.loc[df["variant"] == "A", "v"] += shift
        return df

    @staticmethod
    def _naive(df, gcols):
        rows = []
        cents = lambda s: np.floor(np.abs(s) * 100 + 0.5) * np.sign(s) / 100
        df = df.assign(v=cents(df["v"].to_numpy()))
        groups = df.groupby(gcols) if gcols else [((), df)]
        for key, g in groups:
            a = g.loc[g["variant"] == "A", "v"]
            b = g.loc[g["variant"] == "B", "v"]
            if len(a) < 2 or len(b) < 2:
                continue
            va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
            t = (a.mean() - b.mean()) / np.sqrt(va + vb)
            dof = (va + vb) ** 2 / (
                va**2 / (len(a) - 1) + vb**2 / (len(b) - 1)
            )
            key = key if isinstance(key, tuple) else (key,)
            rows.append(
                {
                    **dict(zip(gcols, key)),
                    "n_a": len(a), "n_b": len(b),
                    "mean_a": a.mean(), "mean_b": b.mean(),
                    "t": t, "df": dof,
                }
            )
        return pd.DataFrame(rows)

    def test_matches_textbook(self):
        from ocr_platform_ray.ops.profile import welch_t_test

        df = self._rows()
        want = self._naive(df, ["g"])
        outs = []
        for parts in (1, 6):
            got = welch_t_test(
                rd.from_pandas(df).repartition(parts), "v", "variant",
                "A", "B", ["g"],
            )
            assert got["g"].tolist() == want["g"].tolist()
            for c in ("n_a", "n_b"):
                assert got[c].tolist() == want[c].tolist()
            for c in ("mean_a", "mean_b", "t", "df"):
                np.testing.assert_allclose(
                    got[c].to_numpy(), want[c].to_numpy(), rtol=1e-9
                )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-identical
        # the planted +5 shift must read as a clearly positive t
        assert (got["t"] > 3).all()

    def test_global_route_and_drops(self):
        from ocr_platform_ray.ops.profile import welch_t_test

        df = self._rows(n=300, seed=7)
        got = welch_t_test(rd.from_pandas(df), "v", "variant", "A", "B")
        want = self._naive(df, [])
        assert len(got) == 1
        np.testing.assert_allclose(
            got["t"].to_numpy(), want["t"].to_numpy(), rtol=1e-9
        )
        # a variant value absent from the data -> empty typed result
        miss = welch_t_test(rd.from_pandas(df), "v", "variant", "A", "Z")
        assert len(miss) == 0
        assert list(miss.columns) == [
            "n_a", "n_b", "mean_a", "mean_b", "t", "df",
        ]
        # n < 2 on one side drops the group
        tiny = df[df["variant"] == "B"].iloc[:1]
        one = pd.concat([df[df["variant"] == "A"], tiny], ignore_index=True)
        assert len(welch_t_test(rd.from_pandas(one), "v", "variant",
                                "A", "B")) == 0


@pytest.mark.usefixtures("ray_session")
class TestMadOutliers:
    """ops/profile.grouped_mad_outliers — position-rule naive reference
    equality, k sensitivity, null dropping, block independence, empty
    result."""

    def _rows(self, n=400, seed=29):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "id": np.arange(n, dtype="int64"),
                "g": rng.choice(["x", "y", "z"], size=n),
                "v": rng.normal(50, 5, size=n),
            }
        )
        df.loc[df.index % 40 == 0, "v"] += 100  # planted outliers
        return df

    @staticmethod
    def _naive(df, k):
        import math

        rows = []
        for g, grp in df.dropna().groupby("g"):
            vs = np.sort(grp["v"].to_numpy())
            med = vs[max(1, math.ceil(0.5 * len(vs))) - 1]
            dd = np.abs(grp["v"].to_numpy(dtype="float64") - med)
            mad = np.sort(dd)[max(1, math.ceil(0.5 * len(dd))) - 1]
            m = dd > k * mad
            sub = grp[m].copy()
            sub["med"], sub["mad"] = med, mad
            rows.append(sub)
        out = pd.concat(rows, ignore_index=True)
        return out.sort_values(["g", "v"]).reset_index(drop=True)

    @pytest.mark.parametrize("k", [3.0, 1.5])
    def test_matches_naive(self, k):
        from ocr_platform_ray.ops.profile import grouped_mad_outliers

        df = self._rows()
        want = self._naive(df, k)[["id", "g", "v", "med", "mad"]]
        outs = []
        for parts in (1, 7):
            got = grouped_mad_outliers(
                rd.from_pandas(df).repartition(parts), ["g"], "v",
                k=k, keep_cols=["id"],
            )
            pd.testing.assert_frame_equal(
                got[["id", "g", "v", "med", "mad"]], want, check_dtype=False
            )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        assert len(got) > 0  # the planted spikes surface

    def test_nulls_and_empty(self):
        from ocr_platform_ray.ops.profile import grouped_mad_outliers

        df = self._rows(n=120, seed=3)
        df.loc[df.index % 9 == 0, "v"] = np.nan
        want = self._naive(df, 3.0)[["id", "g", "v", "med", "mad"]]
        got = grouped_mad_outliers(
            rd.from_pandas(df), ["g"], "v", k=3.0, keep_cols=["id"]
        )
        pd.testing.assert_frame_equal(
            got[["id", "g", "v", "med", "mad"]], want, check_dtype=False
        )
        tight = df.assign(v=1.0)  # zero MAD, zero deviations -> no rows
        out = grouped_mad_outliers(
            rd.from_pandas(tight), ["g"], "v", keep_cols=["id"]
        )
        assert len(out) == 0
        assert "mad" in out.columns


@pytest.mark.usefixtures("ray_session")
class TestDensifyBuckets:
    """ops/windows.densify_buckets — generate_series ground truth, gap
    zeros, per-key spans, null dropping, block independence,
    validation."""

    def _events(self, n=300, seed=37):
        rng = np.random.RandomState(seed)
        # sparse hours so real gaps exist
        hours = rng.choice(np.arange(0, 200, 7), size=n)
        return pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], size=n),
                "ts": pd.Timestamp("2024-03-01")
                + pd.to_timedelta(hours, unit="h"),
            }
        )

    @staticmethod
    def _naive(df, bucket_us):
        p = df.dropna().copy()
        p["b"] = (
            p["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // bucket_us
        )
        rows = []
        for k, g in p.groupby("k"):
            c = g.groupby("b").size()
            for b in range(int(c.index.min()), int(c.index.max()) + 1):
                rows.append({"k": k, "bucket": b, "n": int(c.get(b, 0))})
        return pd.DataFrame(rows)

    def test_matches_generate_series(self):
        from ocr_platform_ray.ops.windows import densify_buckets

        df = self._events()
        h = 3_600_000_000
        want = self._naive(df, h)
        outs = []
        for parts in (1, 6):
            got = densify_buckets(
                rd.from_pandas(df).repartition(parts),
                key_cols=["k"], ts_col="ts", bucket_us=h,
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        assert (got["n"] == 0).any()  # real gaps exist and are zero-filled

    def test_nulls_empty_and_validation(self):
        from ocr_platform_ray.ops.windows import densify_buckets

        df = self._events(n=60, seed=5)
        df.loc[df.index % 7 == 0, "ts"] = pd.NaT
        df["k"] = df["k"].astype("object")
        df.loc[df.index % 11 == 0, "k"] = None
        want = self._naive(df, 3_600_000_000)
        got = densify_buckets(
            rd.from_pandas(df), key_cols=["k"], ts_col="ts",
            bucket_us=3_600_000_000,
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        empty = densify_buckets(
            rd.from_pandas(df.iloc[:0]), key_cols=["k"], ts_col="ts",
            bucket_us=3_600_000_000,
        )
        assert len(empty) == 0
        with pytest.raises(ValueError, match="bucket_us"):
            densify_buckets(
                rd.from_pandas(df), key_cols=["k"], ts_col="ts", bucket_us=0
            )


@pytest.mark.usefixtures("ray_session")
class TestGroupedScale:
    """ops/profile.grouped_scale — z-score and min-max vs pandas
    reference (cents-rounded moments for zscore), degenerate-group
    NULLs, block independence, as_dataset, validation."""

    def _rows(self, n=400, seed=43):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "id": np.arange(n, dtype="int64"),
                "g": rng.choice(["x", "y", "z"], size=n),
                "v": rng.uniform(-20, 80, size=n),
            }
        )

    def test_zscore_matches_reference(self):
        from ocr_platform_ray.ops.profile import grouped_scale

        df = self._rows()
        cents = np.floor(np.abs(df["v"]) * 100 + 0.5) * np.sign(df["v"])
        ref = df.assign(c=cents)
        stats = ref.groupby("g")["c"].agg(["mean", "std"])
        want = df.copy()
        want["scaled"] = (
            df["v"].to_numpy()
            - (stats["mean"] / 100.0).reindex(df["g"]).to_numpy()
        ) / (stats["std"] / 100.0).reindex(df["g"]).to_numpy()
        want = want.sort_values(["g", "v"]).reset_index(drop=True)
        outs = []
        for parts in (1, 7):
            got = grouped_scale(
                rd.from_pandas(df).repartition(parts), ["g"], "v",
                keep_cols=["id"],
            )
            np.testing.assert_allclose(
                got["scaled"].to_numpy(), want["scaled"].to_numpy(),
                rtol=1e-9,
            )
            assert got["id"].tolist() == want["id"].tolist()
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-identical
        # z-scores per group: mean ~ 0, std ~ 1
        zs = got.groupby("g")["scaled"]
        assert np.allclose(zs.mean().to_numpy(), 0.0, atol=1e-3)
        assert np.allclose(zs.std().to_numpy(), 1.0, atol=1e-3)

    def test_minmax_and_degenerate(self):
        from ocr_platform_ray.ops.profile import grouped_scale

        df = self._rows(n=200, seed=3)
        got = grouped_scale(
            rd.from_pandas(df), ["g"], "v", method="minmax",
            keep_cols=["id"],
        )
        stats = df.groupby("g")["v"].agg(["min", "max"])
        want = (
            df["v"].to_numpy()
            - stats["min"].reindex(df["g"]).to_numpy()
        ) / (
            stats["max"].reindex(df["g"]).to_numpy()
            - stats["min"].reindex(df["g"]).to_numpy()
        )
        got_by_id = got.set_index("id")["scaled"].reindex(df["id"])
        np.testing.assert_allclose(got_by_id.to_numpy(), want, rtol=1e-12)
        assert got["scaled"].between(0, 1).all()
        # constant group -> NULL scaled on both methods
        const = df.assign(v=5.0)
        for m in ("zscore", "minmax"):
            out = grouped_scale(
                rd.from_pandas(const), ["g"], "v", method=m, keep_cols=["id"]
            )
            assert out["scaled"].isna().all()
        with pytest.raises(ValueError, match="method"):
            grouped_scale(rd.from_pandas(df), ["g"], "v", method="robust")

    def test_as_dataset(self):
        from ocr_platform_ray.ops.profile import grouped_scale

        df = self._rows(n=80, seed=9)
        res = grouped_scale(
            rd.from_pandas(df), ["g"], "v", keep_cols=["id"],
            as_dataset=True,
        )
        assert isinstance(res, rd.Dataset)
        assert res.count() == len(df)


@pytest.mark.usefixtures("ray_session")
class TestGoldenRecord:
    """ops/golden.golden_record — naive survivorship reference (latest
    non-null per column), all-null columns, NULL keys, block
    independence, as_dataset, validation."""

    def _rows(self, n=400, seed=47):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 40, size=n).astype("int64"),
                "o": rng.permutation(n).astype("int64"),
                "tie": np.arange(n, dtype="int64"),
                "a": rng.uniform(0, 10, size=n),
                "b": rng.choice(list("pqrs"), size=n).astype("object"),
            }
        )
        df.loc[df.index % 3 == 0, "a"] = np.nan
        df.loc[df.index % 4 == 0, "b"] = None
        return df

    @staticmethod
    def _naive(df):
        rows = []
        for k, g in df.groupby("k", dropna=False):
            g = g.sort_values(["o", "tie"])
            rec = {"k": k, "n_rows": len(g)}
            for c in ("a", "b"):
                nn = g[g[c].notna()]
                rec[c] = nn[c].iloc[-1] if len(nn) else None
            rows.append(rec)
        return (
            pd.DataFrame(rows)[["k", "a", "b", "n_rows"]]
            .sort_values("k")
            .reset_index(drop=True)
        )

    def test_matches_naive(self):
        from ocr_platform_ray.ops.golden import golden_record

        df = self._rows()
        want = self._naive(df)
        outs = []
        for parts in (1, 7):
            got = golden_record(
                rd.from_pandas(df).repartition(parts),
                key_cols=["k"], order_col="o", tie_col="tie",
                value_cols=["a", "b"],
            )
            pd.testing.assert_frame_equal(
                got[["k", "a", "b", "n_rows"]], want, check_dtype=False
            )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_all_null_column_and_validation(self):
        from ocr_platform_ray.ops.golden import golden_record

        df = self._rows(n=60, seed=3)
        df["a"] = np.nan  # never observed anywhere
        got = golden_record(
            rd.from_pandas(df), key_cols=["k"], order_col="o",
            tie_col="tie", value_cols=["a", "b"],
        )
        assert got["a"].isna().all()
        assert (got["n_rows"] >= 1).all()
        with pytest.raises(ValueError, match="value_cols"):
            golden_record(
                rd.from_pandas(df), key_cols=["k"], order_col="o",
                tie_col="tie", value_cols=[],
            )

    def test_as_dataset(self):
        from ocr_platform_ray.ops.golden import golden_record

        df = self._rows(n=80, seed=9)
        res = golden_record(
            rd.from_pandas(df), key_cols=["k"], order_col="o",
            tie_col="tie", value_cols=["a"], as_dataset=True,
        )
        assert isinstance(res, rd.Dataset)
        assert res.count() == df["k"].nunique()


@pytest.mark.usefixtures("ray_session")
class TestTokenChi2:
    """χ² token–class association (`ops/selection.token_chi2`)."""

    def _corpus(self):
        # 'alpha'/'beta' discriminate classes; 'the' is everywhere;
        # 'rare' appears once outside the class.
        rows = []
        for i in range(40):
            inc = i < 20
            w = "alpha" if inc else "beta"
            rows.append(
                {
                    "doc_id": i,
                    "lang": "en" if inc else "de",
                    # duplicate the discriminative token — containment must
                    # still count the doc once
                    "text": f"the {w} {w} common tail" + (" rare" if i == 39 else ""),
                }
            )
        return pd.DataFrame(rows)

    def _naive(self, df, k=50):
        import math

        n_class = int((df["lang"] == "en").sum())
        n_rest = len(df) - n_class
        contain = {}
        for _, r in df.iterrows():
            toks = {t for t in r["text"].lower().split(" ") if t}
            for t in toks:
                a, b = contain.get(t, (0, 0))
                if r["lang"] == "en":
                    contain[t] = (a + 1, b)
                else:
                    contain[t] = (a, b + 1)
        out = []
        for t, (a, b) in contain.items():
            c, d = n_class - a, n_rest - b
            denom = (a + b) * (c + d) * (a + c) * (b + d)
            if denom <= 0:
                continue
            n = n_class + n_rest
            out.append((t, n * (a * d - b * c) ** 2 / denom, a, b))
        out.sort(key=lambda r: (-r[1], r[0]))
        return out[:k]

    def test_matches_naive_and_ranks_planted_tokens_first(self):
        from ocr_platform_ray.ops.selection import token_chi2

        df = self._corpus()
        got = token_chi2(
            rd.from_pandas(df), class_col="lang", class_value="en", k=50
        )
        want = self._naive(df)
        assert list(got["token"]) == [t for t, *_ in want]
        np.testing.assert_allclose(
            got["chi2"].to_numpy(), [x for _, x, *_ in want], rtol=1e-12
        )
        # the two perfectly-discriminative tokens outrank everything
        assert set(got["token"].head(2)) == {"alpha", "beta"}
        # 'the' (in every doc) has a zero marginal -> dropped
        assert "the" not in set(got["token"])

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.selection import token_chi2

        df = self._corpus()
        outs = [
            token_chi2(
                rd.from_pandas(df).repartition(nb),
                class_col="lang",
                class_value="en",
                k=10,
            )
            for nb in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_empty_and_missing_class(self):
        from ocr_platform_ray.ops.selection import token_chi2

        df = self._corpus()
        # class value absent -> every token has a zero class marginal
        got = token_chi2(
            rd.from_pandas(df), class_col="lang", class_value="fr", k=10
        )
        assert len(got) == 0
        empty = df.head(0)
        got2 = token_chi2(
            rd.from_pandas(empty), class_col="lang", class_value="en"
        )
        assert len(got2) == 0
        assert list(got2.columns) == ["token", "chi2", "df_in", "df_out"]


@pytest.mark.usefixtures("ray_session")
class TestGroupedAutocorr:
    """Exact per-group lag-k autocorrelation (`ops/profile.grouped_autocorr`)."""

    def _rows(self, n=400, seed=11):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 12, n),
                "o": rng.permutation(n),
                "tie": np.arange(n, dtype="int64"),
                "v": np.round(rng.randn(n).cumsum() + 50, 2),
            }
        )
        # plant NULLs: they must drop BEFORE pairing
        df.loc[df.index % 7 == 0, "v"] = np.nan
        return df

    def _naive(self, df, lag):
        rows = []
        for k, g in df[df["v"].notna()].groupby("k"):
            g = g.sort_values(["o", "tie"], kind="mergesort")
            x = np.floor(np.abs(g["v"].to_numpy()) * 100 + 0.5) * np.sign(
                g["v"].to_numpy()
            )
            x = x.astype("int64")
            if len(x) <= lag:
                continue
            xe, ye = x[lag:].astype(float), x[:-lag].astype(float)
            n = float(len(xe))
            num = (xe * ye).sum() - xe.sum() * ye.sum() / n
            den = np.sqrt((xe * xe).sum() - xe.sum() ** 2 / n) * np.sqrt(
                (ye * ye).sum() - ye.sum() ** 2 / n
            )
            acf = num / den if (n > 1 and den > 0) else np.nan
            rows.append({"k": k, "n_pairs": int(n), "acf": acf})
        return pd.DataFrame(rows).sort_values("k").reset_index(drop=True)

    @pytest.mark.parametrize("lag", [1, 3])
    def test_matches_naive(self, lag):
        from ocr_platform_ray.ops.profile import grouped_autocorr

        df = self._rows()
        got = grouped_autocorr(
            rd.from_pandas(df), "v", ["k"], order_col="o", tie_col="tie",
            lag=lag,
        )
        want = self._naive(df, lag)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want, check_dtype=False, rtol=1e-12
        )

    def test_block_structure_independent_bitwise(self):
        from ocr_platform_ray.ops.profile import grouped_autocorr

        df = self._rows(seed=3)
        outs = [
            grouped_autocorr(
                rd.from_pandas(df).repartition(nb), "v", ["k"],
                order_col="o", tie_col="tie",
            )
            for nb in (1, 9)
        ]
        a, b = outs[0]["acf"].to_numpy(), outs[1]["acf"].to_numpy()
        m = ~np.isnan(a)
        assert (a[m] == b[m]).all() and (np.isnan(a) == np.isnan(b)).all()

    def test_degenerate_groups_and_validation(self):
        from ocr_platform_ray.ops.profile import grouped_autocorr

        # constant series -> zero variance -> NaN; single row -> no pair
        df = pd.DataFrame(
            {
                "k": [1, 1, 1, 2],
                "o": [0, 1, 2, 0],
                "tie": [0, 1, 2, 3],
                "v": [5.0, 5.0, 5.0, 9.0],
            }
        )
        got = grouped_autocorr(
            rd.from_pandas(df), "v", ["k"], order_col="o", tie_col="tie"
        )
        assert list(got["k"]) == [1]
        assert np.isnan(got["acf"]).all()
        with pytest.raises(ValueError, match="lag"):
            grouped_autocorr(
                rd.from_pandas(df), "v", ["k"], order_col="o",
                tie_col="tie", lag=0,
            )


@pytest.mark.usefixtures("ray_session")
class TestNaiveBayes:
    """Multinomial NB (`ops/nb.py`) — the count-exact classifier."""

    def _corpus(self):
        rows = []
        for i in range(30):
            rows.append({"doc_id": i, "lang": "en", "text": "the cat sat on the mat"})
        for i in range(30, 50):
            rows.append({"doc_id": i, "lang": "de", "text": "die katze sass auf der matte"})
        return pd.DataFrame(rows)

    def _naive_score(self, model_df, doc_tokens, label, alpha=1.0):
        import math

        counts, n_docs, n_tok, v, n = model_df
        prior = math.log(n_docs[label] / n)
        denom = n_tok.get(label, 0) + alpha * v
        s = prior
        for t in doc_tokens:
            s += math.log((counts.get((label, t), 0) + alpha) / denom)
        return s

    def test_matches_hand_rolled_reference(self):
        from ocr_platform_ray.ops.nb import nb_fit, nb_predict

        df = self._corpus()
        model = nb_fit(rd.from_pandas(df), text_col="text", label_col="lang")
        got = nb_predict(rd.from_pandas(df), model, id_col="doc_id")
        counts, n_tok = {}, {}
        for _, r in df.iterrows():
            toks = [t for t in r["text"].lower().split(" ") if t]
            n_tok[r["lang"]] = n_tok.get(r["lang"], 0) + len(toks)
            for t in toks:
                counts[(r["lang"], t)] = counts.get((r["lang"], t), 0) + 1
        n_docs = df["lang"].value_counts().to_dict()
        v = len({t for (_, t) in counts})
        mdl = (counts, n_docs, n_tok, v, len(df))
        for _, r in df.iterrows():
            toks = [t for t in r["text"].lower().split(" ") if t]
            want = max(
                sorted(n_docs),
                key=lambda lb: (self._naive_score(mdl, toks, lb), ),
            )
            # max with sorted + key keeps FIRST max -> smallest label tie
            scores = {lb: self._naive_score(mdl, toks, lb) for lb in sorted(n_docs)}
            best = max(scores.values())
            want = min(lb for lb, s in scores.items() if s == best)
            row = got[got["doc_id"] == r["doc_id"]].iloc[0]
            assert row["pred"] == want
            np.testing.assert_allclose(row["score"], best, rtol=1e-12)

    def test_held_out_and_unseen_token_smoothing(self):
        from ocr_platform_ray.ops.nb import nb_fit, nb_predict

        df = self._corpus()
        model = nb_fit(rd.from_pandas(df), text_col="text", label_col="lang")
        test = pd.DataFrame(
            {
                "doc_id": [100, 101],
                "text": ["the cat unseenword", "die katze unbekannt"],
            }
        )
        got = nb_predict(rd.from_pandas(test), model, id_col="doc_id")
        assert list(got["pred"]) == ["en", "de"]
        assert np.isfinite(got["score"]).all()  # smoothing covers unseen

    def test_block_structure_independent_bitwise(self):
        from ocr_platform_ray.ops.nb import nb_fit, nb_predict

        rng = np.random.RandomState(7)
        words = [f"w{i}" for i in range(40)]
        df = pd.DataFrame(
            {
                "doc_id": np.arange(120),
                "lang": rng.choice(["a", "b", "c"], 120),
                "text": [
                    " ".join(rng.choice(words, rng.randint(3, 25)))
                    for _ in range(120)
                ],
            }
        )
        models = [
            nb_fit(rd.from_pandas(df).repartition(nb), text_col="text", label_col="lang")
            for nb in (1, 9)
        ]
        assert (models[0]["cond"] == models[1]["cond"]).all()
        outs = [
            nb_predict(
                rd.from_pandas(df).repartition(nb), models[0], id_col="doc_id"
            )
            for nb in (1, 9)
        ]
        assert (outs[0]["score"].to_numpy() == outs[1]["score"].to_numpy()).all()
        assert (outs[0]["pred"] == outs[1]["pred"]).all()

    def test_min_count_pruning_and_validation(self):
        from ocr_platform_ray.ops.nb import nb_fit, nb_predict

        df = self._corpus()
        full = nb_fit(rd.from_pandas(df), text_col="text", label_col="lang")
        pruned = nb_fit(
            rd.from_pandas(df), text_col="text", label_col="lang",
            min_count=25,
        )
        # V and totals unchanged by pruning; vocab shrinks
        assert pruned["v"] == full["v"]
        assert len(pruned["vocab"]) < len(full["vocab"])
        assert (
            pruned["n_tokens_per_class"] == full["n_tokens_per_class"]
        ).all()
        got = nb_predict(rd.from_pandas(df), pruned, id_col="doc_id")
        assert set(got["pred"]) <= {"en", "de"}
        with pytest.raises(ValueError, match="alpha"):
            nb_predict(rd.from_pandas(df), full, id_col="doc_id", alpha=0.0)
        with pytest.raises(ValueError, match="empty"):
            nb_fit(rd.from_pandas(df.head(0)), text_col="text", label_col="lang")


@pytest.mark.usefixtures("ray_session")
class TestSqliteSource:
    """SQLite source/sink (`sources/sqlite_io.py`)."""

    def _frame(self):
        return pd.DataFrame(
            {
                "i": np.array([1, -(2**62), 3, 4], dtype="int64"),
                "f": [1.5, np.nan, -2.25, 1e300],
                "s": ["a", None, "héllo wörld", ""],
                "b": [b"\x00\xff", None, b"raw", b""],
                "flag": pd.Series([True, False, None, True], dtype="object"),
                "ts": pd.to_datetime(
                    ["2024-01-01 12:34:56.789123", None,
                     "1969-12-31 23:59:59.000001", "2030-06-01 00:00:00.5"]
                ),
            }
        )

    def test_value_exact_roundtrip(self, tmp_path):
        from ocr_platform_ray.sources.sqlite_io import (
            read_sqlite, write_sqlite_dataset,
        )

        df = self._frame()
        d = str(tmp_path / "db")
        paths = write_sqlite_dataset(rd.from_pandas(df), d)
        assert len(paths) == 1 and paths[0].endswith(".sqlite")
        back = read_sqlite(d).to_pandas()
        assert list(back.columns) == list(df.columns)  # order pinned
        back = back.sort_values("i").reset_index(drop=True)
        want = df.sort_values("i").reset_index(drop=True)
        assert back["i"].tolist() == want["i"].tolist()
        np.testing.assert_array_equal(
            back["f"].to_numpy(), want["f"].to_numpy()
        )  # NaN stored as NULL, returns NaN; 1e300 exact
        assert back["s"].where(back["s"].notna(), None).tolist() == \
            want["s"].tolist()
        assert back["b"].where(back["b"].notna(), None).tolist() == \
            want["b"].tolist()
        assert back["flag"].where(back["flag"].notna(), None).tolist() == \
            want["flag"].tolist()
        pd.testing.assert_series_equal(
            back["ts"].astype("datetime64[ns]"),
            want["ts"].astype("datetime64[ns]"),
            check_dtype=False,
        )

    def test_idempotent_rerun_and_stale_cleanup(self, tmp_path):
        from ocr_platform_ray.sources.sqlite_io import write_sqlite_dataset

        df = self._frame()
        d = str(tmp_path / "db")
        p1 = write_sqlite_dataset(rd.from_pandas(df), d)
        bytes1 = open(p1[0], "rb").read()
        p2 = write_sqlite_dataset(rd.from_pandas(df), d)
        assert p1 == p2 and open(p2[0], "rb").read() == bytes1
        # different input -> old shard removed after publish
        p3 = write_sqlite_dataset(rd.from_pandas(df.head(2)), d)
        import os
        assert sorted(os.listdir(d)) == [os.path.basename(p3[0])]

    def test_rowid_range_parallel_single_file(self, tmp_path):
        from ocr_platform_ray.sources.sqlite_io import (
            read_sqlite, write_sqlite_dataset,
        )

        df = pd.DataFrame(
            {"k": np.arange(1000, dtype="int64"),
             "v": np.random.RandomState(0).randn(1000)}
        )
        d = str(tmp_path / "one")
        paths = write_sqlite_dataset(rd.from_pandas(df), d)
        assert len(paths) == 1
        ds = read_sqlite(paths[0], rows_per_task=128)
        assert ds.count() == 1000
        # ranges tile exactly; block order follows execution order, so
        # compare sorted; within each range block rowid order holds
        blocks = list(ds.iter_batches(batch_size=None, batch_format="pandas"))
        assert all(np.all(np.diff(b["k"].to_numpy()) > 0) for b in blocks)
        assert max(len(b) for b in blocks) <= 128
        back = ds.to_pandas().sort_values("k").reset_index(drop=True)
        assert back["k"].tolist() == df["k"].tolist()
        np.testing.assert_array_equal(back["v"].to_numpy(), df["v"].to_numpy())

    def test_projection_and_plan_errors(self, tmp_path):
        from ocr_platform_ray.sources.sqlite_io import (
            read_sqlite, write_sqlite_dataset,
        )

        df = self._frame()
        d = str(tmp_path / "db")
        write_sqlite_dataset(rd.from_pandas(df), d)
        back = read_sqlite(d, columns=["s", "i"]).to_pandas()
        assert list(back.columns) == ["s", "i"]
        with pytest.raises(ValueError, match="missing columns"):
            read_sqlite(d, columns=["nope"])
        # mixed-schema directory raises at plan time
        write_sqlite_dataset(
            rd.from_pandas(pd.DataFrame({"other": [1]})),
            str(tmp_path / "db2"),
        )
        import shutil, os
        for f in os.listdir(str(tmp_path / "db2")):
            shutil.copy(str(tmp_path / "db2" / f), os.path.join(d, f))
        with pytest.raises(ValueError, match="mixed-schema"):
            read_sqlite(d)

    def test_foreign_db_by_affinity_and_missing_table(self, tmp_path):
        import sqlite3

        from ocr_platform_ray.sources.sqlite_io import read_sqlite

        p = str(tmp_path / "foreign.sqlite")
        con = sqlite3.connect(p)
        con.execute(
            "CREATE TABLE data (id INTEGER, name TEXT, score REAL, blob BLOB)"
        )
        con.executemany(
            "INSERT INTO data VALUES (?, ?, ?, ?)",
            [(1, "x", 0.5, b"z"), (2, None, None, None)],
        )
        con.commit(); con.close()
        back = read_sqlite(p).to_pandas()
        assert back["id"].tolist() == [1, 2]
        assert back["name"].where(back["name"].notna(), None).tolist() == ["x", None]
        with pytest.raises(ValueError, match="no table"):
            read_sqlite(p, table="missing")

    def test_unsupported_types(self, tmp_path):
        from ocr_platform_ray.sources.sqlite_io import write_sqlite_dataset

        # nested values are a loud error, not silent text
        with pytest.raises((ValueError, Exception)):
            write_sqlite_dataset(
                rd.from_pandas(pd.DataFrame({"lst": [[1, 2], [3]]})),
                str(tmp_path / "bad"),
            )


@pytest.mark.usefixtures("ray_session")
class TestHiveLayout:
    """Hive-style partitioned layout (`ops/layout.hive_write` /
    `hive_pruned_read`)."""

    def _frame(self, n=300, seed=2):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "t": rng.choice(["a", "b", "c or d?"], n),  # needs quoting
                "d": rng.randint(0, 4, n).astype("int64"),
                "v": rng.randn(n),
                "id": np.arange(n, dtype="int64"),
            }
        )

    def test_roundtrip_and_pruning_exact(self, tmp_path):
        from ocr_platform_ray.ops.layout import hive_pruned_read, hive_write

        df = self._frame()
        d = str(tmp_path / "h")
        man = hive_write(rd.from_pandas(df), ["t", "d"], d)
        assert man["n_rows"].sum() == len(df)
        # full read (no filters) restores everything, partition dtypes exact
        full, opened, total = hive_pruned_read(d, {})
        assert opened == total
        back = full.to_pandas().sort_values("id").reset_index(drop=True)
        want = df.sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            back[["t", "d", "v", "id"]], want, check_dtype=False
        )
        assert back["d"].dtype.kind == "i"  # int restored from the path
        # pruned scan: only the one partition's files open; rows exact
        sub, opened, total = hive_pruned_read(d, {"t": "c or d?", "d": 2})
        assert opened < total
        got = sub.to_pandas().sort_values("id").reset_index(drop=True)
        exp = want[(want["t"] == "c or d?") & (want["d"] == 2)].reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["t", "d", "v", "id"]], exp, check_dtype=False)

    def test_list_filters_projection_idempotence_stale(self, tmp_path):
        import os

        from ocr_platform_ray.ops.layout import (
            hive_plan, hive_pruned_read, hive_write,
        )

        df = self._frame(seed=5)
        d = str(tmp_path / "h")
        hive_write(rd.from_pandas(df), ["t"], d)
        files1, total1, _ = hive_plan(d, {})
        # idempotent rerun: identical file set
        hive_write(rd.from_pandas(df), ["t"], d)
        files2, total2, _ = hive_plan(d, {})
        assert files1 == files2 and total1 == total2
        # different input -> stale files removed
        hive_write(rd.from_pandas(df[df["t"] != "b"]), ["t"], d)
        files3, _, _ = hive_plan(d, {})
        assert not any(f.startswith("t=b") for f in files3)
        assert all(os.path.exists(os.path.join(d, f)) for f in files3)
        # value-list filter + projection (partition col restored on demand)
        hive_write(rd.from_pandas(df), ["t"], d)
        ds, opened, total = hive_pruned_read(
            d, {"t": ["a", "b"]}, columns=["t", "id"]
        )
        got = ds.to_pandas()
        assert sorted(got.columns) == ["id", "t"]
        assert set(got["t"]) == {"a", "b"}
        assert len(got) == int((df["t"] != "c or d?").sum())

    def test_errors(self, tmp_path):
        from ocr_platform_ray.ops.layout import hive_plan, hive_pruned_read, hive_write

        df = self._frame()
        d = str(tmp_path / "h")
        with pytest.raises(ValueError, match="non-empty"):
            hive_write(rd.from_pandas(df), [], d)
        dfn = df.copy()
        dfn.loc[0, "t"] = None
        with pytest.raises(Exception, match="NULL"):
            hive_write(rd.from_pandas(dfn), ["t"], str(tmp_path / "h2"))
        with pytest.raises(ValueError, match="no committed layout"):
            hive_plan(str(tmp_path / "missing"), {})
        hive_write(rd.from_pandas(df), ["t"], d)
        with pytest.raises(ValueError, match="non-partition"):
            hive_plan(d, {"v": 1.0})
        with pytest.raises(ValueError, match="no partition matches"):
            hive_pruned_read(d, {"t": "zzz"})


@pytest.mark.usefixtures("ray_session")
class TestCusumChangepoint:
    """Retrospective CUSUM change point (`ops/drift.cusum_changepoint`)."""

    def test_planted_rate_shift_recovered(self):
        from ocr_platform_ray.ops.drift import cusum_changepoint

        # 2/hour for 50 hours, then 20/hour for 50 hours -> cp at hour 49
        rows = []
        for h in range(100):
            for i in range(2 if h < 50 else 20):
                rows.append(
                    {"g": "x", "ts": pd.Timestamp("2024-01-01")
                     + pd.Timedelta(hours=h, seconds=i)}
                )
        got = cusum_changepoint(
            rd.from_pandas(pd.DataFrame(rows)), group_col="g", ts_col="ts"
        )
        base = int(
            pd.Timestamp("2024-01-01").value // 1000 // 3_600_000_000
        )
        assert got.iloc[0]["cp_bucket"] == base + 49
        assert got.iloc[0]["n_buckets"] == 100
        assert got.iloc[0]["total"] == 2 * 50 + 20 * 50

    def test_matches_naive_and_block_independent(self):
        from ocr_platform_ray.ops.drift import cusum_changepoint

        rng = np.random.RandomState(4)
        df = pd.DataFrame(
            {
                "g": rng.choice(["a", "b"], 600),
                "ts": pd.Timestamp("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 72 * 3600, 600), unit="s"),
            }
        )
        outs = []
        for nb in (1, 7):
            outs.append(
                cusum_changepoint(
                    rd.from_pandas(df).repartition(nb), group_col="g",
                    ts_col="ts",
                )
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # naive reference
        us = df["ts"].astype("datetime64[us]").astype("int64")
        cnt = (
            pd.DataFrame({"g": df["g"], "b": us // 3_600_000_000})
            .groupby(["g", "b"]).size().reset_index(name="n")
        )
        for g, grp in cnt.groupby("g"):
            grp = grp.sort_values("b")
            n = grp["n"].to_numpy(dtype=float)
            sk = np.cumsum(n)
            kk = np.arange(1, len(n) + 1, dtype=float)
            d = np.abs(sk - (kk / len(n)) * sk[-1])
            row = outs[0][outs[0]["g"] == g].iloc[0]
            assert row["cp_bucket"] == grp["b"].to_numpy()[np.argmax(d)]
            assert row["cusum"] == d.max()

    def test_empty(self):
        from ocr_platform_ray.ops.drift import cusum_changepoint

        df = pd.DataFrame({"g": pd.Series(dtype="object"),
                           "ts": pd.Series(dtype="datetime64[us]")})
        got = cusum_changepoint(rd.from_pandas(df), group_col="g", ts_col="ts")
        assert len(got) == 0


@pytest.mark.usefixtures("ray_session")
class TestGroupedWinsorize:
    """Per-group winsorization (`ops/profile.grouped_winsorize`)."""

    def test_matches_position_rule_reference(self):
        from ocr_platform_ray.ops.profile import grouped_winsorize

        rng = np.random.RandomState(9)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 400),
                "id": np.arange(400, dtype="int64"),
                "v": np.round(rng.randn(400) * 40, 2),
            }
        )
        df.loc[df.index % 11 == 0, "v"] = np.nan  # dropped like the SQL WHERE
        got = grouped_winsorize(
            rd.from_pandas(df), ["k"], "v", q_lo=0.1, q_hi=0.9,
            keep_cols=["id"],
        )
        sub = df[df["v"].notna()]
        for k, grp in sub.groupby("k"):
            vs = np.sort(grp["v"].to_numpy())
            m = len(vs)
            lo = vs[max(1, int(np.ceil(0.1 * m))) - 1]
            hi = vs[max(1, int(np.ceil(0.9 * m))) - 1]
            want = np.minimum(np.maximum(grp["v"].to_numpy(), lo), hi)
            gg = got[got["k"] == k].set_index("id").loc[grp["id"]]
            np.testing.assert_array_equal(gg["winsorized"].to_numpy(), want)
        # clipped values are copied data values from within the group
        assert set(got["winsorized"]) <= set(sub["v"])
        assert len(got) == len(sub)

    def test_extreme_qs_and_validation(self):
        from ocr_platform_ray.ops.profile import grouped_winsorize

        df = pd.DataFrame({"k": ["a"] * 5, "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
        got = grouped_winsorize(rd.from_pandas(df), ["k"], "v", q_lo=0.0, q_hi=1.0)
        np.testing.assert_array_equal(
            got["winsorized"].to_numpy(), df["v"].sort_values().to_numpy()
        )
        with pytest.raises(ValueError, match="q_lo"):
            grouped_winsorize(rd.from_pandas(df), ["k"], "v", q_lo=0.9, q_hi=0.1)


@pytest.mark.usefixtures("ray_session")
class TestHllSetEstimates:
    """HLL set-operation estimates (`ops/sketch.hll_set_estimates`)."""

    def test_register_max_is_union_sketch_exactly(self):
        from ocr_platform_ray.ops.sketch import hll_registers_for

        a = pd.DataFrame({"k": np.arange(0, 6000, dtype="int64")})
        b = pd.DataFrame({"k": np.arange(4000, 9000, dtype="int64")})
        u = pd.concat([a, b], ignore_index=True)
        ra = hll_registers_for(rd.from_pandas(a), "k", p=12)
        rb = hll_registers_for(rd.from_pandas(b), "k", p=12)
        ru = hll_registers_for(rd.from_pandas(u), "k", p=12)
        np.testing.assert_array_equal(np.maximum(ra, rb), ru)

    def test_estimates_within_bounds(self):
        from ocr_platform_ray.ops.sketch import hll_set_estimates

        # |A|=6000, |B|=5000, overlap 2000 -> union 9000
        a = pd.DataFrame({"k": np.arange(0, 6000, dtype="int64")})
        b = pd.DataFrame({"k": np.arange(4000, 9000, dtype="int64")})
        est = hll_set_estimates(
            rd.from_pandas(a).repartition(5), rd.from_pandas(b), "k", p=14
        )
        # single-sketch bound ~1.04/sqrt(2^14) ≈ 0.8%; assert 3%
        assert abs(est["n_a"] - 6000) / 6000 < 0.03
        assert abs(est["n_b"] - 5000) / 5000 < 0.03
        assert abs(est["n_union"] - 9000) / 9000 < 0.03
        # intersection compounds three errors; assert 15% on 2000
        assert abs(est["n_intersect"] - 2000) / 2000 < 0.15
        true_j = 2000 / 9000
        assert abs(est["jaccard"] - true_j) < 0.05

    def test_disjoint_clamps_nonnegative(self):
        from ocr_platform_ray.ops.sketch import hll_set_estimates

        a = pd.DataFrame({"k": np.arange(0, 3000, dtype="int64")})
        b = pd.DataFrame({"k": np.arange(50000, 53000, dtype="int64")})
        est = hll_set_estimates(rd.from_pandas(a), rd.from_pandas(b), "k", p=13)
        assert est["n_intersect"] >= 0.0
        assert est["n_intersect"] / 3000 < 0.06  # near-zero overlap
        assert est["jaccard"] < 0.05


@pytest.mark.usefixtures("ray_session")
class TestBenfordAudit:
    """Benford first-digit audit (`ops/validate.benford_audit`)."""

    def test_benford_distributed_data_passes_uniform_fails(self):
        from ocr_platform_ray.ops.validate import benford_audit

        rng = np.random.RandomState(0)
        # log-uniform spanning 5 decades -> Benford-distributed
        benford = pd.DataFrame({"v": 10 ** (rng.rand(20000) * 5 - 2)})
        got_b = benford_audit(rd.from_pandas(benford), "v")
        # uniform on [1.0, 1.9) -> every leading cents digit is 1
        uniform = pd.DataFrame({"v": rng.rand(20000) * 0.9 + 1.0})
        got_u = benford_audit(rd.from_pandas(uniform), "v")
        assert got_b["chi2_term"].sum() < got_u["chi2_term"].sum() / 50
        assert list(got_b["digit"]) == list(range(1, 10))
        assert got_u.loc[got_u["digit"] == 1, "n"].iloc[0] == 20000

    def test_matches_naive_counts_and_block_independent(self):
        from ocr_platform_ray.ops.validate import benford_audit

        rng = np.random.RandomState(3)
        df = pd.DataFrame({"v": np.round(rng.lognormal(3, 2, 500), 2)})
        df.loc[df.index % 17 == 0, "v"] = np.nan   # dropped
        df.loc[df.index % 23 == 0, "v"] = 0.0      # non-positive dropped
        outs = [
            benford_audit(rd.from_pandas(df).repartition(nb), "v")
            for nb in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        cents = np.floor(df["v"].dropna().to_numpy() * 100 + 0.5).astype("int64")
        cents = cents[cents > 0]
        from collections import Counter
        cnt = Counter(int(str(c)[0]) for c in cents)
        for d in range(1, 10):
            assert outs[0].loc[outs[0]["digit"] == d, "n"].iloc[0] == cnt.get(d, 0)
        # expected follows the published law over the kept total
        tot = len(cents)
        np.testing.assert_allclose(
            outs[0]["expected"].to_numpy(),
            tot * np.log10(1 + 1 / np.arange(1, 10)),
            rtol=1e-12,
        )

    def test_empty(self):
        from ocr_platform_ray.ops.validate import benford_audit

        got = benford_audit(
            rd.from_pandas(pd.DataFrame({"v": pd.Series(dtype="float64")})), "v"
        )
        assert list(got["digit"]) == list(range(1, 10))
        assert (got["n"] == 0).all()
        assert got["chi2_term"].isna().all()


@pytest.mark.usefixtures("ray_session")
class TestExtractHtmlMeta:
    """Head-metadata extraction (`ops/boilerplate.extract_html_meta`)."""

    def test_messy_variants(self):
        from ocr_platform_ray.ops.boilerplate import extract_html_meta

        pages = [
            # canonical attribute order, double quotes
            ('<head><title>A</title><meta name="description" content="d1">'
             '<link rel="canonical" href="https://x/a"></head>'),
            # reversed attribute order + single quotes + uppercase tags
            ("<HEAD><TITLE lang='en'>B</TITLE>"
             "<META content='d2' name='description'>"
             "<LINK href='https://x/b' rel='canonical'></HEAD>"),
            # multiline title, first-match rule over two titles
            ("<title>C\nline2</title><title>ignored</title>"),
            # nothing present
            ("<body><p>no head</p></body>"),
            # extra attributes between the interesting ones
            ('<meta data-x="1" name="description" data-y="2" '
             'content="d5"><link type="text/html" rel="canonical" '
             'media="all" href="https://x/e">'),
        ]
        df = pd.DataFrame({"doc_id": range(5), "html": pages})
        got = (
            extract_html_meta(rd.from_pandas(df))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert got["title"].tolist() == ["A", "B", "C\nline2", None, None]
        assert got["description"].tolist() == ["d1", "d2", None, None, "d5"]
        assert got["canonical"].tolist() == [
            "https://x/a", "https://x/b", None, None, "https://x/e"
        ]

    def test_bytes_html_and_null_and_validation(self):
        from ocr_platform_ray.ops.boilerplate import extract_html_meta

        df = pd.DataFrame(
            {
                "doc_id": [0, 1],
                "html": [b"<title>bin\xc3\xa9</title>", None],
            }
        )
        got = (
            extract_html_meta(rd.from_pandas(df))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert got["title"].tolist() == ["biné", None]
        with pytest.raises(ValueError, match="unknown field"):
            extract_html_meta(rd.from_pandas(df), fields=("favicon",))

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.boilerplate import extract_html_meta

        rng = np.random.RandomState(1)
        df = pd.DataFrame(
            {
                "doc_id": range(60),
                "html": [
                    f"<title>t{i}</title>" if i % 3 else "<p>none</p>"
                    for i in range(60)
                ],
            }
        )
        outs = [
            extract_html_meta(rd.from_pandas(df).repartition(nb))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
            for nb in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


@pytest.mark.usefixtures("ray_session")
class TestFsLinkage:
    """Fellegi–Sunter record linkage (`ops/linkage.py`)."""

    def _pairs(self, n=4000, seed=0, p=0.2,
               m=(0.95, 0.9, 0.85), u=(0.05, 0.2, 0.3)):
        rng = np.random.RandomState(seed)
        is_match = rng.rand(n) < p
        cols = {}
        for j in range(3):
            agree = np.where(
                is_match, rng.rand(n) < m[j], rng.rand(n) < u[j]
            )
            cols[f"f{j}"] = agree
        df = pd.DataFrame(cols)
        df["truth"] = is_match
        return df

    def test_em_recovers_generative_parameters(self):
        from ocr_platform_ray.ops.linkage import fs_fit

        df = self._pairs(n=60000, seed=3)
        model = fs_fit(rd.from_pandas(df), ["f0", "f1", "f2"])
        np.testing.assert_allclose(model["p"], 0.2, atol=0.03)
        np.testing.assert_allclose(model["m"], [0.95, 0.9, 0.85], atol=0.05)
        np.testing.assert_allclose(model["u"], [0.05, 0.2, 0.3], atol=0.05)

    def test_fit_bit_reproducible_across_blocks_and_scoring(self):
        from ocr_platform_ray.ops.linkage import fs_fit, fs_score

        df = self._pairs(n=8000, seed=7)
        models = [
            fs_fit(rd.from_pandas(df).repartition(nb), ["f0", "f1", "f2"])
            for nb in (1, 9)
        ]
        assert models[0]["p"] == models[1]["p"]
        assert (models[0]["m"] == models[1]["m"]).all()
        assert (models[0]["u"] == models[1]["u"]).all()
        scored = fs_score(
            rd.from_pandas(df), models[0], keep_cols=["truth"]
        )
        # weight is monotone in agreements; all-agree > all-disagree
        all_agree = scored[scored[["f0", "f1", "f2"]].all(axis=1)]["weight"]
        none_agree = scored[~scored[["f0", "f1", "f2"]].any(axis=1)]["weight"]
        assert all_agree.min() > none_agree.max()
        # posterior separates the generative truth reasonably
        auc_pos = scored.loc[scored["truth"], "posterior"].mean()
        auc_neg = scored.loc[~scored["truth"], "posterior"].mean()
        assert auc_pos > 0.65 and auc_neg < 0.15

    def test_validation(self):
        from ocr_platform_ray.ops.linkage import fs_fit

        df = self._pairs(n=10)
        with pytest.raises(ValueError, match="non-empty"):
            fs_fit(rd.from_pandas(df), [])
        with pytest.raises(ValueError, match="no candidate pairs"):
            fs_fit(rd.from_pandas(df.head(0)), ["f0"])


@pytest.mark.usefixtures("ray_session")
class TestGroupedGini:
    """Exact per-group Gini concentration (`ops/profile.grouped_gini`)."""

    def test_known_values_and_naive(self):
        from ocr_platform_ray.ops.profile import grouped_gini

        # perfectly equal -> 0; one-holder -> (n-1)/n
        df = pd.DataFrame(
            {
                "k": ["eq"] * 4 + ["one"] * 4 + ["mix"] * 5,
                "v": [5.0] * 4 + [0.0, 0.0, 0.0, 8.0]
                + [1.0, 2.0, 3.0, 4.0, 10.0],
            }
        )
        got = grouped_gini(rd.from_pandas(df), ["k"], "v")
        res = dict(zip(got["k"], got["gini"]))
        assert res["eq"] == 0.0
        np.testing.assert_allclose(res["one"], 3 / 4, rtol=1e-12)
        # naive rank formula on mix
        x = np.sort(np.array([100, 200, 300, 400, 1000], dtype="int64"))
        rn = np.arange(1, 6)
        want = 2.0 * (rn * x).sum() / (5.0 * x.sum()) - 6.0 / 5.0
        np.testing.assert_allclose(res["mix"], want, rtol=1e-14)

    def test_block_independence_ties_and_edges(self):
        from ocr_platform_ray.ops.profile import grouped_gini

        rng = np.random.RandomState(5)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b"], 500),
                # heavy ties: rank assignment among equals must not matter
                "v": rng.choice([0.0, 1.0, 1.0, 2.5, 9.0], 500),
            }
        )
        outs = [
            grouped_gini(rd.from_pandas(df).repartition(nb), ["k"], "v")
            for nb in (1, 9)
        ]
        assert (outs[0]["gini"].to_numpy() == outs[1]["gini"].to_numpy()).all()
        # zero-sum and single-row groups -> NULL; negatives raise
        z = pd.DataFrame({"k": ["z", "z", "s"], "v": [0.0, 0.0, 3.0]})
        got = grouped_gini(rd.from_pandas(z), ["k"], "v")
        assert got["gini"].isna().all()
        with pytest.raises(Exception, match="negative"):
            grouped_gini(
                rd.from_pandas(pd.DataFrame({"k": ["a"], "v": [-1.0]})),
                ["k"], "v",
            )


@pytest.mark.usefixtures("ray_session")
class TestJsonScalarField:
    """RE2 JSON field extraction (`functions/jsonfield.py`)."""

    def test_kinds_and_agreement_with_real_parser(self):
        import json

        from ocr_platform_ray.functions.jsonfield import json_scalar_field

        rows = [
            '{"a": 5, "s": "x y", "f": -2.5e3, "b": true}',
            '{"s": "", "a": -17, "b": false, "f": 0.125}',
            '{"other": 1}',
            None,
        ]
        df = pd.DataFrame({"id": range(4), "j": rows})
        ds = rd.from_pandas(df)
        ds = json_scalar_field(ds, "j", "a", kind="int")
        ds = json_scalar_field(ds, "j", "s", kind="str")
        ds = json_scalar_field(ds, "j", "f", kind="float")
        ds = json_scalar_field(ds, "j", "b", kind="bool", out_col="bb")
        got = ds.to_pandas().sort_values("id").reset_index(drop=True)
        for i, r in enumerate(rows):
            parsed = json.loads(r) if r else {}
            for col, key in (("a", "a"), ("s", "s"), ("f", "f"), ("bb", "b")):
                want = parsed.get(key)
                v = got.loc[i, col]
                if want is None:
                    assert pd.isna(v)
                else:
                    assert v == want

    def test_key_collision_and_validation(self):
        from ocr_platform_ray.functions.jsonfield import json_scalar_field

        # 'k' must not match 'kk'
        df = pd.DataFrame({"id": [0], "j": ['{"kk": 1, "k": 2}']})
        got = json_scalar_field(
            rd.from_pandas(df), "j", "kk", kind="int"
        ).to_pandas()
        assert got["kk"].iloc[0] == 1
        with pytest.raises(ValueError, match="kind"):
            json_scalar_field(rd.from_pandas(df), "j", "k", kind="list")
        with pytest.raises(ValueError, match="key"):
            json_scalar_field(rd.from_pandas(df), "j", 'a"b', kind="int")


@pytest.mark.usefixtures("ray_session")
class TestGroupedMaxStreak:
    """Longest consecutive-bucket streak (`ops/windows.grouped_max_streak`)."""

    def test_matches_naive_and_block_independent(self):
        from ocr_platform_ray.ops.windows import grouped_max_streak

        rng = np.random.RandomState(6)
        rows = []
        for u in range(10):
            days = np.unique(rng.randint(0, 40, rng.randint(1, 25)))
            for d in days:
                # several events within the day — distinctness matters
                for h in rng.randint(0, 24, 2):
                    rows.append(
                        {"u": u, "ts": pd.Timestamp("2024-01-01")
                         + pd.Timedelta(days=int(d), hours=int(h))}
                    )
        df = pd.DataFrame(rows)
        outs = [
            grouped_max_streak(
                rd.from_pandas(df).repartition(nb), ["u"], ts_col="ts"
            )
            for nb in (1, 9)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

        def naive(days):
            days = sorted(set(days))
            best = cur = 1
            for a, b in zip(days, days[1:]):
                cur = cur + 1 if b == a + 1 else 1
                best = max(best, cur)
            return best

        base = pd.Timestamp("2024-01-01")
        for u, grp in df.groupby("u"):
            days = ((grp["ts"] - base).dt.days).tolist()
            want = naive(days)
            assert (
                outs[0].loc[outs[0]["u"] == u, "max_streak"].iloc[0] == want
            )

    def test_single_day_and_empty(self):
        from ocr_platform_ray.ops.windows import grouped_max_streak

        df = pd.DataFrame(
            {"u": [1], "ts": [pd.Timestamp("2024-03-03 12:00:00")]}
        )
        got = grouped_max_streak(rd.from_pandas(df), ["u"], ts_col="ts")
        assert got["max_streak"].tolist() == [1]
        got2 = grouped_max_streak(
            rd.from_pandas(df.head(0)), ["u"], ts_col="ts"
        )
        assert len(got2) == 0


@pytest.mark.usefixtures("ray_session")
class TestGroupedCatEntropy:
    """Per-key categorical entropy (`ops/profile.grouped_cat_entropy`)."""

    def test_known_values_and_naive(self):
        from ocr_platform_ray.ops.profile import grouped_cat_entropy

        df = pd.DataFrame(
            {
                "k": ["uni"] * 4 + ["one"] * 3 + ["mix"] * 6,
                "c": ["a", "b", "c", "d"] + ["x"] * 3
                + ["a", "a", "a", "b", "b", "c"],
            }
        )
        got = grouped_cat_entropy(rd.from_pandas(df), ["k"], "c")
        res = dict(zip(got["k"], got["entropy"]))
        np.testing.assert_allclose(res["uni"], 2.0, rtol=1e-12)  # log2(4)
        assert res["one"] == 0.0
        p = np.array([3, 2, 1]) / 6.0
        np.testing.assert_allclose(
            res["mix"], -(p * np.log2(p)).sum(), rtol=1e-12
        )
        assert dict(zip(got["k"], got["n_cats"])) == {
            "uni": 4, "one": 1, "mix": 3
        }

    def test_block_independence_and_exchange_route(self):
        from ocr_platform_ray.ops.profile import grouped_cat_entropy

        rng = np.random.RandomState(2)
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 20, 800),
                "c": rng.choice(list("abcdef"), 800),
            }
        )
        outs = [
            grouped_cat_entropy(
                rd.from_pandas(df).repartition(nb), ["k"], "c"
            )
            for nb in (1, 9)
        ]
        assert (
            outs[0]["entropy"].to_numpy() == outs[1]["entropy"].to_numpy()
        ).all()
        # exchange route (tiny threshold) must equal the driver route
        ex = grouped_cat_entropy(
            rd.from_pandas(df), ["k"], "c", driver_threshold_rows=1
        )
        assert (
            ex["entropy"].to_numpy() == outs[0]["entropy"].to_numpy()
        ).all()
        assert (ex["n"].to_numpy() == outs[0]["n"].to_numpy()).all()


@pytest.mark.usefixtures("ray_session")
class TestReviewFixesS12:
    """Session-12 self-review regression pins."""

    def test_nb_token_free_training_corpus(self):
        from ocr_platform_ray.ops.nb import nb_fit, nb_predict

        df = pd.DataFrame(
            {"doc_id": [0, 1, 2], "lang": ["a", "a", "b"], "text": ["", " ", ""]}
        )
        model = nb_fit(rd.from_pandas(df), text_col="text", label_col="lang")
        assert model["v"] == 0
        test = pd.DataFrame({"doc_id": [9], "text": ["some new words"]})
        got = nb_predict(rd.from_pandas(test), model, id_col="doc_id")
        # no vocabulary -> priors decide; majority class 'a' wins finitely
        assert got["pred"].iloc[0] == "a"
        assert np.isfinite(got["score"]).all()

    def test_fs_score_empty_input_typed(self):
        from ocr_platform_ray.ops.linkage import fs_fit, fs_score

        df = pd.DataFrame({"f0": [True, False] * 20, "f1": [True] * 40})
        model = fs_fit(rd.from_pandas(df), ["f0", "f1"])
        got = fs_score(rd.from_pandas(df.head(0)), model)
        assert list(got.columns) == ["f0", "f1", "weight", "posterior"]
        assert len(got) == 0 and got["weight"].dtype == "float64"

    def test_json_int_kind_rejects_float_value_loudly(self):
        from ocr_platform_ray.functions.jsonfield import json_scalar_field

        df = pd.DataFrame({"j": ['{"k": 12.5}']})
        with pytest.raises(Exception):  # arrow cast error, not silent 12
            json_scalar_field(
                rd.from_pandas(df), "j", "k", kind="int"
            ).to_pandas()
        ok = json_scalar_field(
            rd.from_pandas(pd.DataFrame({"j": ['{"k": -7}']})), "j", "k",
            kind="int",
        ).to_pandas()
        assert ok["k"].iloc[0] == -7


@pytest.mark.usefixtures("ray_session")
class TestContainmentPairs:
    """Asymmetric shingle containment (`ops/dedup.ngram_containment_pairs`)."""

    def test_embedded_doc_found_where_jaccard_misses(self):
        from ocr_platform_ray.ops.dedup import (
            ngram_containment_pairs, ngram_jaccard_pairs,
        )

        short = "alpha beta gamma delta epsilon zeta eta theta"
        long = (
            "one two three four five six seven eight nine ten "
            + short
            + " eleven twelve thirteen fourteen fifteen sixteen seventeen "
            "eighteen nineteen twenty twentyone twentytwo twentythree"
        )
        other = "completely different words nothing shared at all here now"
        df = pd.DataFrame(
            {"doc_id": [1, 2, 3], "text": [short, long, other]}
        )
        cont = ngram_containment_pairs(
            rd.from_pandas(df), "text", "doc_id", threshold=0.9
        )
        assert len(cont) == 1
        row = cont.iloc[0]
        assert (row["id_a"], row["id_b"]) == (1, 2)
        assert row["cont_a_in_b"] == 1.0  # short fully embedded
        assert row["cont_b_in_a"] < 0.3
        # symmetric jaccard misses it at any comparable threshold
        jac = ngram_jaccard_pairs(
            rd.from_pandas(df), "text", "doc_id", threshold=0.5
        )
        assert len(jac) == 0

    def test_matches_naive_and_block_independent(self):
        from ocr_platform_ray.ops.dedup import ngram_containment_pairs

        rng = np.random.RandomState(8)
        vocab = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(vocab, rng.randint(5, 40))) for _ in range(50)]
        texts[7] = texts[3] + " extra tail words here"   # planted containment
        df = pd.DataFrame({"doc_id": range(50), "text": texts})

        def shingles(t):
            toks = t.split(" ")
            if len(toks) < 3:
                return {t} if t else set()
            return {" ".join(toks[i:i+3]) for i in range(len(toks) - 2)}

        want = []
        ss = [shingles(t) for t in texts]
        # the posting cap drops stop-shingles shared by > max docs
        from collections import Counter
        post = Counter(g for s in ss for g in s)
        kept = {g for g, c in post.items() if 2 <= c <= 1000}
        for a in range(50):
            for b in range(a + 1, 50):
                inter = len({g for g in (ss[a] & ss[b]) if g in kept})
                if not inter:
                    continue
                ca, cb = inter / len(ss[a]), inter / len(ss[b])
                if ca >= 0.7 or cb >= 0.7:
                    want.append((a, b, round(ca, 6), round(cb, 6)))
        outs = [
            ngram_containment_pairs(
                rd.from_pandas(df).repartition(nb), "text", "doc_id",
                threshold=0.7,
            )
            for nb in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        got = [
            (int(r.id_a), int(r.id_b), round(r.cont_a_in_b, 6),
             round(r.cont_b_in_a, 6))
            for r in outs[0].itertuples()
        ]
        assert sorted(got) == sorted(want)
        assert (3, 7) in {(a, b) for a, b, *_ in got}


@pytest.mark.usefixtures("ray_session")
class TestGroupedTrimmedMean:
    """Exact per-group trimmed mean (`ops/profile.grouped_trimmed_mean`)."""

    def test_matches_position_rule_reference(self):
        from ocr_platform_ray.ops.profile import grouped_trimmed_mean

        rng = np.random.RandomState(12)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 500),
                "v": np.round(rng.randn(500) * 50 + 10, 2),
            }
        )
        df.loc[df.index % 13 == 0, "v"] = np.nan
        got = grouped_trimmed_mean(
            rd.from_pandas(df), ["k"], "v", q_lo=0.1, q_hi=0.9
        )
        sub = df[df["v"].notna()]
        for k, grp in sub.groupby("k"):
            vs = np.sort(grp["v"].to_numpy())
            m = len(vs)
            lo = vs[max(1, int(np.ceil(0.1 * m))) - 1]
            hi = vs[max(1, int(np.ceil(0.9 * m))) - 1]
            inr = grp["v"].to_numpy()
            inr = inr[(inr >= lo) & (inr <= hi)]
            cents = np.copysign(
                np.floor(np.abs(inr) * 100 + 0.5), inr
            ).astype("int64")
            want = (cents.sum() / len(inr)) / 100.0
            row = got[got["k"] == k].iloc[0]
            assert row["n"] == len(grp) and row["n_kept"] == len(inr)
            assert row["trimmed_mean"] == want  # bitwise: same expression
        # trimming is robust: a planted spike moves the plain mean, not this
        spiked = df.copy()
        spiked.loc[spiked.index[:2], "v"] = 1e6
        g2 = grouped_trimmed_mean(
            rd.from_pandas(spiked.dropna()), ["k"], "v", q_lo=0.1, q_hi=0.9,
            scale=100,
        )
        assert np.isfinite(g2["trimmed_mean"]).all()
        assert g2["trimmed_mean"].abs().max() < 1000

    def test_block_independence_and_full_range(self):
        from ocr_platform_ray.ops.profile import grouped_trimmed_mean

        rng = np.random.RandomState(4)
        df = pd.DataFrame(
            {"k": rng.choice(["x", "y"], 300), "v": np.round(rng.rand(300), 2)}
        )
        outs = [
            grouped_trimmed_mean(rd.from_pandas(df).repartition(nb), ["k"], "v")
            for nb in (1, 9)
        ]
        assert (
            outs[0]["trimmed_mean"].to_numpy()
            == outs[1]["trimmed_mean"].to_numpy()
        ).all()
        # q in {0, 1} keeps everything: trimmed mean == exact cents mean
        full = grouped_trimmed_mean(
            rd.from_pandas(df), ["k"], "v", q_lo=0.0, q_hi=1.0
        )
        for k, grp in df.groupby("k"):
            cents = np.floor(grp["v"].to_numpy() * 100 + 0.5).astype("int64")
            want = (cents.sum() / len(grp)) / 100.0
            assert full[full["k"] == k]["trimmed_mean"].iloc[0] == want
        with pytest.raises(ValueError, match="q_lo"):
            grouped_trimmed_mean(rd.from_pandas(df), ["k"], "v", q_lo=0.9, q_hi=0.1)


@pytest.mark.usefixtures("ray_session")
class TestHivePartitionGuard:
    def test_partition_explosion_raises(self, tmp_path):
        from ocr_platform_ray.ops.layout import hive_write

        df = pd.DataFrame({"k": np.arange(500), "v": np.arange(500)})
        with pytest.raises(Exception, match="distinct partitions"):
            hive_write(
                rd.from_pandas(df), ["k"], str(tmp_path / "h"),
                max_partitions_per_block=100,
            )


@pytest.mark.usefixtures("ray_session")
class TestDeleteKeys:
    """GDPR key deletion over the merge target (`ops/upsert.delete_keys`)."""

    def _target(self, tmp_path, n=200):
        from ocr_platform_ray.ops.upsert import write_merge_target

        df = pd.DataFrame(
            {"k": np.arange(n, dtype="int64"),
             "v": np.random.RandomState(0).randn(n)}
        )
        d = str(tmp_path / "t")
        write_merge_target(rd.from_pandas(df), d, "k", n_partitions=8)
        return d, df

    def test_deletes_only_touched_partitions_untouched_bytes_identical(
        self, tmp_path
    ):
        import os

        from ocr_platform_ray.ops.upsert import delete_keys, read_merge_target

        d, df = self._target(tmp_path)
        before = {
            f: open(os.path.join(d, f), "rb").read()
            for f in sorted(os.listdir(d)) if f.endswith(".parquet")
        }
        victims = pd.DataFrame({"k": [3, 77, 150]})
        rep = delete_keys(d, victims, "k", n_partitions=8)
        assert int(rep["n_deleted"].sum()) == 3
        after = {
            f: open(os.path.join(d, f), "rb").read()
            for f in sorted(os.listdir(d)) if f.endswith(".parquet")
        }
        touched = {f for f in before if before[f] != after[f]}
        assert 1 <= len(touched) <= 3  # only victim partitions rewrote
        back = read_merge_target(d).to_pandas()
        assert set(back["k"]) == set(df["k"]) - {3, 77, 150}

    def test_idempotent_absent_keys_and_emptied_partition(self, tmp_path):
        from ocr_platform_ray.ops.upsert import delete_keys, read_merge_target

        d, df = self._target(tmp_path, n=16)
        # delete EVERYTHING: every partition empties but stays typed
        rep = delete_keys(d, df[["k"]], "k", n_partitions=8)
        assert int(rep["n_deleted"].sum()) == 16
        back = read_merge_target(d).to_pandas()
        assert len(back) == 0
        # absent keys: clean no-op report
        rep2 = delete_keys(
            d, pd.DataFrame({"k": [9999]}), "k", n_partitions=8
        )
        assert int(rep2["n_deleted"].sum()) == 0

    def test_versioned_target_rejected(self, tmp_path):
        import os

        from ocr_platform_ray.ops.upsert import delete_keys

        d = str(tmp_path / "vt")
        os.makedirs(os.path.join(d, "_versions"))
        with pytest.raises(ValueError, match="VERSIONED"):
            delete_keys(d, pd.DataFrame({"k": [1]}), "k")


@pytest.mark.usefixtures("ray_session")
class TestPrepareTrainingMix:
    """One-call mixture composition (`pipelines/mixture.py`)."""

    def _docs(self, n=240, seed=0):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype="int64"),
                "source": np.where(np.arange(n) % 3 == 0, "web", "books"),
                "text": [
                    " ".join(rng.choice(["aa", "bb", "cc", "dd"],
                                        rng.randint(5, 40)))
                    for _ in range(n)
                ],
            }
        )

    def test_deterministic_across_block_structures(self):
        from ocr_platform_ray.pipelines.mixture import prepare_training_mix

        docs = self._docs()
        outs = []
        for nb in (1, 7):
            ch = prepare_training_mix(
                rd.from_pandas(docs).repartition(nb),
                weights={"web": 2.5, "books": 1.0},
                budgets={"web": 700, "books": 2000},
                seed=5, chunk_tokens=100,
            )
            outs.append(
                ch.to_pandas().sort_values("chunk_id").reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_budget_and_weight_semantics_match_naive(self):
        from ocr_platform_ray.ops.shuffle import shuffle_hash
        from ocr_platform_ray.pipelines.mixture import prepare_training_mix

        docs = self._docs(seed=2)
        weights = {"web": 2.5, "books": 1.0}
        budgets = {"web": 600, "books": None}
        ch = prepare_training_mix(
            rd.from_pandas(docs), weights=weights, budgets=budgets,
            seed=9, chunk_tokens=100,
        ).to_pandas()
        # naive reference: copies, mix keys, budget fill, chunk count
        toks = docs["text"].str.split().str.len().to_numpy()
        rows = []
        sk0 = shuffle_hash(docs["doc_id"].to_numpy(dtype="int64"), 9)
        for i, (d, s, t) in enumerate(zip(docs["doc_id"], docs["source"], toks)):
            w = weights[s]
            copies = int(np.floor(w)) + int(
                sk0[i] < np.floor((w - np.floor(w)) * float(1 << 32))
            )
            for c in range(copies):
                rows.append({"mix_key": int(d) * 8 + c, "source": s, "t": int(t)})
        mixed = pd.DataFrame(rows)
        mixed["sk_budget"] = shuffle_hash(
            mixed["mix_key"].to_numpy(dtype="int64"), 9
        )
        kept = []
        for s, grp in mixed.groupby("source"):
            grp = grp.sort_values("sk_budget")
            cum = grp["t"].cumsum()
            b = budgets[s]
            keep = grp if b is None else grp[cum <= b]
            kept.append(keep)
        kept = pd.concat(kept)
        total_tokens = int(kept["t"].sum())
        # web's budget respected exactly by the naive rule
        assert int(kept[kept["source"] == "web"]["t"].sum()) <= 600
        # chunk ids tile the selected token stream
        assert int(ch["chunk_id"].max()) == (total_tokens - 1) // 100
        assert int(ch["n_items"].sum()) == len(kept)
        # the 2.5x weight produced 2 or 3 copies per web doc
        cp = mixed.groupby(mixed["mix_key"] // 8).size()
        web_ids = set(docs.loc[docs["source"] == "web", "doc_id"])
        assert set(cp[cp.index.isin(web_ids)].unique()) <= {2, 3}
        assert 2.2 < cp[cp.index.isin(web_ids)].mean() < 2.8

    def test_tfrecord_write_and_validation(self, tmp_path):
        from ocr_platform_ray.pipelines.mixture import prepare_training_mix
        from ocr_platform_ray.sources.tfrecord import read_tfrecord

        docs = self._docs(n=60)
        ch, files = prepare_training_mix(
            rd.from_pandas(docs), weights={"web": 1.0, "books": 1.0},
            seed=1, chunk_tokens=64, out_dir=str(tmp_path / "tfr"),
        )
        want = ch.to_pandas().sort_values("chunk_id").reset_index(drop=True)
        back = (
            read_tfrecord(str(tmp_path / "tfr"), binary_cols=["chunk_text"])
            .to_pandas().sort_values("chunk_id").reset_index(drop=True)
        )
        assert len(back) == len(want)
        assert [
            t.decode("utf-8") for t in back["chunk_text"]
        ] == want["chunk_text"].tolist()
        with pytest.raises(ValueError, match="weights"):
            prepare_training_mix(
                rd.from_pandas(docs), weights={"web": 9.0, "books": 1.0}
            )
        with pytest.raises(ValueError, match="chunk_tokens"):
            prepare_training_mix(
                rd.from_pandas(docs), weights={"web": 1.0, "books": 1.0},
                chunk_tokens=0,
            )


@pytest.mark.usefixtures("ray_session")
class TestChunkOffsets:
    """Document-boundary offsets in packed chunks
    (`grouped_ordered_concat(offsets_col=)`)."""

    def test_offsets_recover_each_document(self):
        from ocr_platform_ray.ops.chunks import grouped_ordered_concat

        df = pd.DataFrame(
            {
                "chunk": [0, 0, 0, 1, 1],
                "pos": [2, 0, 1, 1, 0],
                "text": ["bbb", "a", "cc", "yyyy", "x"],
            }
        )
        got = (
            grouped_ordered_concat(
                rd.from_pandas(df), group_col="chunk", order_col="pos",
                text_col="text", sep="|", offsets_col="doc_offsets",
            )
            .to_pandas().sort_values("chunk").reset_index(drop=True)
        )
        assert got["chunk_text"].tolist() == ["a|cc|bbb", "x|yyyy"]
        for _, r in got.iterrows():
            parts_by_pos = r["chunk_text"].split("|")
            offs = list(r["doc_offsets"])
            assert offs[0] == 0
            # each recorded offset slices out exactly its document
            for o, pt in zip(offs, parts_by_pos):
                assert r["chunk_text"][o:o + len(pt)] == pt
        # without the flag the schema is unchanged
        plain = grouped_ordered_concat(
            rd.from_pandas(df), group_col="chunk", order_col="pos",
            text_col="text",
        ).to_pandas()
        assert "doc_offsets" not in plain.columns


@pytest.mark.usefixtures("ray_session")
class TestT5SpanCorrupt:
    """T5 span corruption (`ops/augment.t5_span_corrupt`)."""

    def _docs(self, n=150, seed=5):
        rng = np.random.RandomState(seed)
        vocab = [f"w{i}" for i in range(400)]
        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype="int64"),
                "text": [
                    " ".join(rng.choice(vocab, rng.randint(15, 90)))
                    for _ in range(n)
                ],
            }
        )

    def test_interleaving_recovers_original_exactly(self):
        from ocr_platform_ray.ops.augment import t5_span_corrupt

        df = self._docs()
        got = (
            t5_span_corrupt(rd.from_pandas(df), seed=2)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        import re

        n_corrupted_tokens = n_tokens = n_spans = 0
        for _, r in got.iterrows():
            orig = r["text"].lower()
            inp = r["corrupted_text"].split(" ")
            tgt = r["target_text"].split(" ") if r["target_text"] else []
            # parse target into {sentinel: [tokens]}
            spans, cur = {}, None
            for t in tgt:
                if re.fullmatch(r"<extra_id_\d+>", t):
                    cur = t
                    spans[cur] = []
                else:
                    spans[cur].append(t)
            rebuilt = []
            for t in inp:
                if re.fullmatch(r"<extra_id_\d+>", t):
                    rebuilt.extend(spans[t])
                else:
                    rebuilt.append(t)
            assert " ".join(rebuilt) == orig
            # sentinels are consecutive from 0 and agree across sides
            sents_in = [t for t in inp if t.startswith("<extra_id_")]
            assert sents_in == [f"<extra_id_{k}>" for k in range(len(sents_in))]
            assert list(spans) == sents_in
            assert all(len(v) >= 1 for v in spans.values())
            n_spans += len(sents_in)
            n_tokens += len(orig.split(" "))
            n_corrupted_tokens += sum(len(v) for v in spans.values())
        # published knobs: ~15% of tokens corrupted, mean span ~3 (clipped)
        assert 0.10 < n_corrupted_tokens / n_tokens < 0.20
        assert 2.0 < n_corrupted_tokens / max(n_spans, 1) < 4.5

    def test_block_independent_and_validation(self):
        from ocr_platform_ray.ops.augment import t5_span_corrupt

        df = self._docs(seed=9)
        outs = [
            t5_span_corrupt(rd.from_pandas(df).repartition(nb), seed=1)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
            for nb in (1, 8)
        ]
        assert outs[0]["corrupted_text"].tolist() == outs[1]["corrupted_text"].tolist()
        assert outs[0]["target_text"].tolist() == outs[1]["target_text"].tolist()
        with pytest.raises(ValueError, match="corrupt_rate"):
            t5_span_corrupt(rd.from_pandas(df), corrupt_rate=0.0)
        with pytest.raises(ValueError, match="mean_span_len"):
            t5_span_corrupt(rd.from_pandas(df), mean_span_len=9, max_span_len=8)


@pytest.mark.usefixtures("ray_session")
class TestCohensKappa:
    """Chance-corrected agreement (`ops/eval.cohens_kappa`)."""

    def test_known_values(self):
        from ocr_platform_ray.ops.eval import cohens_kappa

        # perfect agreement
        df = pd.DataFrame({"a": ["x", "y"] * 50, "b": ["x", "y"] * 50})
        assert cohens_kappa(rd.from_pandas(df), "a", "b")["kappa"] == 1.0
        # textbook 2x2: [[20, 5], [10, 15]]
        rows = (
            [("p", "p")] * 20 + [("p", "n")] * 5
            + [("n", "p")] * 10 + [("n", "n")] * 15
        )
        df2 = pd.DataFrame(rows, columns=["a", "b"])
        got = cohens_kappa(rd.from_pandas(df2), "a", "b")
        p_o = 35 / 50
        p_e = (25 * 30 + 25 * 20) / 2500
        np.testing.assert_allclose(
            got["kappa"], (p_o - p_e) / (1 - p_e), rtol=1e-15
        )
        # constant raters -> p_e == 1 -> NaN
        df3 = pd.DataFrame({"a": ["x"] * 10, "b": ["x"] * 10})
        assert np.isnan(cohens_kappa(rd.from_pandas(df3), "a", "b")["kappa"])

    def test_independent_raters_near_zero_and_block_independent(self):
        from ocr_platform_ray.ops.eval import cohens_kappa

        rng = np.random.RandomState(0)
        df = pd.DataFrame(
            {
                "a": rng.choice(["x", "y", "z"], 6000),
                "b": rng.choice(["x", "y", "z"], 6000),
            }
        )
        outs = [
            cohens_kappa(rd.from_pandas(df).repartition(nb), "a", "b")
            for nb in (1, 9)
        ]
        assert outs[0] == outs[1]  # bit-identical dict
        assert abs(outs[0]["kappa"]) < 0.05


@pytest.mark.usefixtures("ray_session")
class TestFullStackWarcToTfrecord:
    """The engine's whole story in one pass: WARC crawl increment ->
    incremental-dedup corpus -> curation signals -> training mixture ->
    TFRecord shards, every stage the tested operator."""

    def test_end_to_end(self, tmp_path):
        import pyarrow as pa

        from ocr_platform_ray.corpus import make_pages_rows
        from ocr_platform_ray.pipelines.crawl import (
            ingest_crawl_increment, read_corpus,
        )
        from ocr_platform_ray.pipelines.mixture import prepare_training_mix
        from ocr_platform_ray.schemas import PAGES_SCHEMA
        from ocr_platform_ray.sources.tfrecord import read_tfrecord
        from ocr_platform_ray.sources.warc import write_pages_warc

        # 1) a crawl increment as real WARC shards
        rows = list(make_pages_rows(range(0, 12)))
        cols = {n: [r[n] for r in rows] for n in PAGES_SCHEMA.names}
        t = pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)
        t = t.set_column(
            t.schema.get_field_index("text"), "text",
            pa.array([""] * len(t), pa.string()),
        )
        shards = write_pages_warc(str(tmp_path / "w"), t, urls_per_shard=4)

        # 2) ingest: extract + dedup vs persisted state + corpus commit
        corpus = str(tmp_path / "corpus")
        r = ingest_crawl_increment(
            shards, corpus, str(tmp_path / "state"), ingest_id="day1"
        )
        assert r["n_survivors"] > 0

        # 3) corpus -> mixture input (dense int ids; lang as source)
        docs = read_corpus(corpus).to_pandas()
        assert docs["url"].is_unique
        mix_in = pd.DataFrame(
            {
                "doc_id": np.arange(len(docs), dtype="int64"),
                "source": ["web"] * len(docs),
                "text": docs["extracted_text"].tolist(),
            }
        )

        # 4) mixture -> packed chunks -> TFRecord
        ch, files = prepare_training_mix(
            rd.from_pandas(mix_in), weights={"web": 1.0}, seed=3,
            chunk_tokens=256, out_dir=str(tmp_path / "tfr"),
        )
        chunks = ch.to_pandas()
        assert len(chunks) > 0
        back = read_tfrecord(
            str(tmp_path / "tfr"), binary_cols=["chunk_text"]
        ).to_pandas()
        assert len(back) == len(chunks)
        # every document's (lowered) text is findable in the chunk stream
        stream = "\n".join(
            t.decode("utf-8")
            for t in back.sort_values("chunk_id")["chunk_text"]
        )
        n_found = sum(
            1 for txt in mix_in["text"] if txt[:60] in stream
        )
        assert n_found == len(mix_in)


@pytest.mark.usefixtures("ray_session")
class TestT5SentinelGuard:
    def test_span_overflow_raises(self):
        from ocr_platform_ray.ops.augment import t5_span_corrupt

        # a very long doc: expected spans ~ 0.5*len/1 ≈ 3000 >> 100
        df = pd.DataFrame(
            {"doc_id": [0], "text": [" ".join(["w"] * 20000)]}
        )
        with pytest.raises(Exception, match="spans"):
            t5_span_corrupt(
                rd.from_pandas(df), corrupt_rate=0.5, mean_span_len=1
            ).to_pandas()


@pytest.mark.usefixtures("ray_session")
class TestSplitSections:
    """Heading-based sectioning (`ops/boilerplate.split_sections`)."""

    def test_structure_and_edge_cases(self):
        from ocr_platform_ray.ops.boilerplate import split_sections

        pages = [
            # preamble + two sections, attributes + mixed case
            ('before <H1 id="a">One</H1> first body '
             "<h2>Two</h2> second body"),
            # no headings at all -> single preamble section
            "just a flat page with no structure",
            # heading first (empty preamble drops)
            "<h1>Lead</h1>tail text",
            # malformed: open tag with no close -> all-heading section
            "x <h1>unclosed heading only",
            # levels respected: h3 is NOT a split point by default
            "pre <h3>minor</h3> same section",
        ]
        df = pd.DataFrame({"doc_id": range(5), "html": pages})
        got = (
            split_sections(rd.from_pandas(df))
            .to_pandas().sort_values(["doc_id", "section_idx"])
            .reset_index(drop=True)
        )
        g0 = got[got["doc_id"] == 0]
        assert g0["heading"].tolist() == [None, "One", "Two"]
        assert g0.iloc[0]["section_text"] == "before "
        assert g0.iloc[1]["section_text"].strip() == "first body"
        assert g0.iloc[2]["section_text"] == " second body"
        g1 = got[got["doc_id"] == 1]
        assert len(g1) == 1 and g1.iloc[0]["heading"] is None
        g2 = got[got["doc_id"] == 2]
        assert g2["heading"].tolist() == ["Lead"]
        assert g2.iloc[0]["section_text"] == "tail text"
        g3 = got[got["doc_id"] == 3]
        assert g3["heading"].tolist() == [None, "unclosed heading only"]
        g4 = got[got["doc_id"] == 4]
        assert len(g4) == 1 and "minor" in g4.iloc[0]["section_text"]

    def test_levels_bytes_and_validation(self):
        from ocr_platform_ray.ops.boilerplate import split_sections

        df = pd.DataFrame(
            {"doc_id": [0], "html": ["a <h3>hé</h3> ünïcode body".encode()]}
        )
        got = split_sections(rd.from_pandas(df), levels="3").to_pandas()
        assert got["heading"].tolist() == [None, "hé"]
        assert got["section_text"].tolist()[1] == " ünïcode body"
        with pytest.raises(ValueError, match="levels"):
            split_sections(rd.from_pandas(df), levels="x")
