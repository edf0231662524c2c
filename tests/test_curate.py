"""End-to-end curation pipeline tests."""

import pandas as pd
import pytest
import ray.data as rd

from ocr_platform_ray.corpus import make_pages_table


@pytest.mark.usefixtures("ray_session")
class TestCurate:
    def test_full_chain_shape_and_determinism(self):
        from ocr_platform_ray.pipelines.curate import curate_corpus

        pages = rd.from_arrow(make_pages_table(40))
        a = curate_corpus(pages, min_tokens=5).to_pandas().sort_values("url").reset_index(drop=True)
        b = (
            curate_corpus(rd.from_arrow(make_pages_table(40)), min_tokens=5)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        assert list(a.url) == list(b.url)
        assert list(a.split) == list(b.split)
        # schema contract
        for col in ("url", "extracted_text", "pred_lang", "split", "n_dups", "quality_score"):
            assert col in a.columns
        # gate actually filters (empty page url drops out)
        assert len(a) <= 40
        assert set(a.split) <= {"train", "val", "test"}

    def test_strip_boilerplate_stage(self):
        import pandas as pd

        from ocr_platform_ray.pipelines.curate import curate_corpus

        pages = rd.from_arrow(make_pages_table(40))
        footer = "Subscribe to the site newsletter for updates"

        def add_footer(b: pd.DataFrame) -> pd.DataFrame:
            out = b.copy()
            out["html"] = [
                (h or b"") + f"<p>{footer}</p>".encode() for h in b["html"]
            ]
            return out

        pages = pages.map_batches(add_footer, batch_format="pandas")
        kept = curate_corpus(
            pages, min_tokens=5, strip_boilerplate=True, boilerplate_min_docs=5
        ).to_pandas()
        assert len(kept) > 0
        assert not kept["extracted_text"].str.contains(footer, regex=False).any()
        # without stripping, the footer survives extraction
        plain = curate_corpus(
            pages.map_batches(lambda b: b, batch_format="pandas"), min_tokens=5
        ).to_pandas()
        assert plain["extracted_text"].str.contains(footer, regex=False).any()

    def test_cut_dup_spans_stage(self):
        # ExactSubstr stage (RefinedWeb ordering: after doc-level dedup):
        # a 10-word phrase shared across every doc must be cut from the
        # kept representatives.  The phrase's FIRST word can glue to
        # doc-varying text via a '\n' token, so assert on the interior
        # 8-word subphrase (every interior word is covered by a
        # fully-inside duplicated window).
        import pandas as pd

        from ocr_platform_ray.pipelines.curate import curate_corpus

        phrase = "all rights reserved by the original publisher of this work"
        interior = " ".join(phrase.split(" ")[1:9])

        def add_phrase(b: pd.DataFrame) -> pd.DataFrame:
            out = b.copy()
            out["html"] = [
                (h or b"") + f"<p>{phrase}</p>".encode() for h in b["html"]
            ]
            return out

        pages = rd.from_arrow(make_pages_table(40)).map_batches(
            add_phrase, batch_format="pandas"
        )
        kept = curate_corpus(
            pages, min_tokens=5, cut_dup_spans=True, dup_span_width=5
        ).to_pandas()
        assert len(kept) > 0
        assert not kept["extracted_text"].str.contains(interior, regex=False).any()
        # without the stage the phrase survives curation
        plain = curate_corpus(
            rd.from_arrow(make_pages_table(40)).map_batches(
                add_phrase, batch_format="pandas"
            ),
            min_tokens=5,
        ).to_pandas()
        assert plain["extracted_text"].str.contains(interior, regex=False).any()

    def test_quality_gate_drops_short_docs(self):
        from ocr_platform_ray.pipelines.curate import quality_gate

        import pandas as pd

        docs = rd.from_pandas(
            pd.DataFrame(
                {
                    "url": ["a", "b"],
                    "extracted_text": ["tiny", "a much longer document " * 10],
                }
            )
        )
        out = quality_gate(docs, text_col="extracted_text", min_tokens=10).to_pandas()
        assert list(out.url) == ["b"]

    def test_split_stable_under_order(self):
        from ocr_platform_ray.pipelines.curate import assign_split

        import pandas as pd

        df = pd.DataFrame({"url": [f"u{i}" for i in range(50)]})
        a = assign_split(rd.from_pandas(df)).to_pandas().set_index("url")["split"]
        b = (
            assign_split(rd.from_pandas(df.iloc[::-1].reset_index(drop=True)))
            .to_pandas()
            .set_index("url")["split"]
        )
        assert a.to_dict() == b.to_dict()


@pytest.mark.usefixtures("ray_session")
class TestCurateGolden:
    def test_curate_chain_golden(self):
        import hashlib
        import json
        import os

        from ocr_platform_ray.pipelines.curate import curate_corpus

        path = os.path.join(os.path.dirname(__file__), "goldens", "curate_sha.json")
        with open(path) as f:
            want = json.load(f)
        df = curate_corpus(rd.from_arrow(make_pages_table(60)), min_tokens=5).to_pandas()
        got = {
            r.url: {
                "split": r.split,
                "n_dups": int(r.n_dups),
                "pred_lang": r.pred_lang,
                "sha256": hashlib.sha256(r.extracted_text.encode()).hexdigest(),
            }
            for r in df.itertuples()
        }
        assert got == want


@pytest.mark.usefixtures("ray_session")
class TestCurateGopherStage:
    def test_gopher_stage_filters_schema_stable(self):
        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.curate import curate_corpus

        pages = rd.from_arrow(make_pages_table(120))
        base = (
            curate_corpus(pages).to_pandas().sort_values("url").reset_index(drop=True)
        )
        gated = (
            curate_corpus(pages, gopher=True)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        assert list(gated.columns) == list(base.columns)
        assert 0 < len(gated) < len(base)
        assert set(gated["url"]).issubset(set(base["url"]))
        # fully loose thresholds -> the stage is a byte-identical no-op
        loose = dict(
            min_words=0,
            max_words=10**9,
            min_mean_word_len=0,
            max_mean_word_len=100,
            max_symbol_word_ratio=1.0,
            max_bullet_line_frac=1.0,
            max_ellipsis_line_frac=1.0,
            min_alpha_word_frac=0.0,
            min_required_words=0,
            max_dup_line_frac=1.0,
        )
        same = (
            curate_corpus(pages, gopher=True, gopher_thresholds=loose)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(same, base)


@pytest.mark.usefixtures("ray_session")
class TestCurateTextStages:
    def test_fix_text_noop_on_clean_corpus(self):
        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.curate import curate_corpus

        pages = rd.from_arrow(make_pages_table(60))
        base = (
            curate_corpus(pages).to_pandas().sort_values("url").reset_index(drop=True)
        )
        fixed = (
            curate_corpus(pages, fix_text=True)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        # corpus text is already valid NFC with no mojibake signatures ->
        # the repair stage is a byte-identical no-op
        pd.testing.assert_frame_equal(fixed, base)

    def test_fix_text_repairs_planted_mojibake(self):
        from ocr_platform_ray.pipelines.curate import curate_corpus

        # mojibake whose bytes SURVIVE extraction (no control chars —
        # the extractor strips C1 controls, which would break the
        # encode-roundtrip and correctly leave the row untouched)
        bad = "the naÃ¯ve cafÃ© review â€“ first impressions matter here " * 5
        html = f"<html><body><p>{bad}</p></body></html>".encode("utf-8")
        pages = rd.from_items(
            [
                {
                    "url": "https://m.example/1",
                    "warc_ts": pd.Timestamp("2024-01-01"),
                    "html": html,
                    "text": "",
                    "lang": "en",
                }
            ]
        )
        out = curate_corpus(pages, fix_text=True).to_pandas()
        assert len(out) == 1
        t = out["extracted_text"][0]
        assert "naïve café review – first" in t
        assert "Ã" not in t and "â€" not in t

    def _sentence_pages(self, n=40):
        import random

        vocab = (
            "archive ledger harbor meadow copper signal lantern orchard "
            "timber quarry compass saddle anvil barley cedar falcon granite "
            "hollow ivory juniper kestrel marble nectar obsidian prairie"
        ).split()
        rows = []
        for i in range(n):
            rng = random.Random(1000 + i)
            sents = [
                " ".join(rng.choice(vocab) for _ in range(12)).capitalize() + "."
                for _ in range(5)
            ]
            if i % 10 == 0:  # page rule: a '{' inside a KEPT line
                sents.append("A curly { brace hides in this long sentence today.")
            html = "<html><body>" + "".join(
                f"<p>{x}</p>" for x in sents
            ) + "</body></html>"
            rows.append(
                {
                    "url": f"https://c4.example/{i:04d}",
                    "warc_ts": pd.Timestamp("2024-01-01") + pd.Timedelta(seconds=i),
                    "html": html.encode("utf-8"),
                    "text": "",
                    "lang": "en",
                }
            )
        return rd.from_items(rows)

    def test_c4_stage_filters_and_rewrites(self):
        from ocr_platform_ray.pipelines.curate import curate_corpus

        pages = self._sentence_pages(40)
        base = (
            curate_corpus(pages).to_pandas().sort_values("url").reset_index(drop=True)
        )
        cleaned = (
            curate_corpus(pages, c4=True)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        assert list(cleaned.columns) == list(base.columns)
        # exactly the brace pages drop (page rule); the rest survive
        want_dropped = {f"https://c4.example/{i:04d}" for i in range(0, 40, 10)}
        assert set(base["url"]) - set(cleaned["url"]) == want_dropped
        assert len(cleaned) == len(base) - len(want_dropped)
        assert not cleaned["extracted_text"].str.contains("{", regex=False).any()
        # line rule: every retained line ends in terminal punctuation
        for t in cleaned["extracted_text"].head(10):
            for line in t.split("\n"):
                if line:
                    assert line.rstrip()[-1] in ".!?\"'"


@pytest.mark.usefixtures("ray_session")
class TestCurateUrlFilter:
    def test_noop_on_clean_corpus_and_drops_blocked(self):
        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.curate import curate_corpus

        pages = rd.from_arrow(make_pages_table(40))
        base = (
            curate_corpus(pages).to_pandas().sort_values("url").reset_index(drop=True)
        )
        # corpus urls are corpus.example with zero-score paths -> the
        # stage is a byte-identical no-op
        same = (
            curate_corpus(pages, url_filter=True)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(same, base)
        # blocklisting the corpus host drops EVERYTHING before extraction
        none = curate_corpus(
            pages, url_filter=True, url_blocklist={"corpus.example"}
        ).to_pandas()
        assert len(none) == 0

    def test_blocked_urls_drop_before_extraction(self):
        from ocr_platform_ray.pipelines.curate import curate_corpus

        import random

        vocab = (
            "archive ledger harbor meadow copper signal lantern orchard "
            "timber quarry compass saddle anvil barley cedar falcon"
        ).split()
        rows = []
        for i, host in enumerate(["ok.example"] * 6 + ["freebet-casino.com"] * 3):
            rng = random.Random(500 + i)  # distinct text: no dedup stage fires
            body = " ".join(rng.choice(vocab) for _ in range(40))
            rows.append(
                {
                    "url": f"https://{host}/p{i}",
                    "warc_ts": pd.Timestamp("2024-01-01") + pd.Timedelta(seconds=i),
                    "html": f"<html><body><p>{body}</p></body></html>".encode(),
                    "text": "",
                    "lang": "en",
                }
            )
        out = curate_corpus(
            rd.from_items(rows), min_tokens=5, url_filter=True
        ).to_pandas()
        assert len(out) == 6
        assert not out["url"].str.contains("freebet-casino").any()


@pytest.mark.usefixtures("ray_session")
class TestCurateLineDedup:
    """RefinedWeb line-wise correction in the flagship chain
    (`curate_corpus(line_dedup=True)`)."""

    def test_invariants_on_real_corpus(self):
        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.curate import curate_corpus

        pages = rd.from_arrow(make_pages_table(60))
        base = (
            curate_corpus(pages).to_pandas().sort_values("url").reset_index(drop=True)
        )
        ld = (
            curate_corpus(pages, line_dedup=True)
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        assert list(ld["url"]) == list(base["url"])
        n_changed = 0
        for u, t_base, t_ld in zip(base["url"], base["extracted_text"],
                                   ld["extracted_text"]):
            lines = t_base.split("\n")
            seen, want = set(), []
            for x in lines:
                if x == "" or x not in seen:
                    want.append(x)
                if x != "":
                    seen.add(x)
            # the stage result IS first-occurrence-with-blanks-kept,
            # applied to the exact base text
            assert t_ld == "\n".join(want), u
            # docs with no intra-doc duplicate lines round-trip
            # byte-identically
            if t_ld != t_base:
                n_changed += 1
            else:
                assert len([x for x in lines if x]) == len(seen)
        # the corpus genuinely exercises both cases
        assert 0 < n_changed < len(base)

    def test_planted_duplicate_lines_removed_through_chain(self):
        from ocr_platform_ray.pipelines.curate import curate_corpus

        uniq = [
            "the first unique line carries its own words here",
            "a second distinct line with different content follows",
            "the third line closes out this small test document",
        ]
        dup = "subscribe to our newsletter for updates every day"
        paras = [uniq[0], dup, uniq[1], dup, uniq[2], dup]
        html = "<html><body>" + "".join(
            f"<p>{x}</p>" for x in paras
        ) + "</body></html>"
        pages = rd.from_items(
            [
                {
                    "url": "https://ld.example/1",
                    "warc_ts": pd.Timestamp("2024-01-01"),
                    "html": html.encode("utf-8"),
                    "text": "",
                    "lang": "en",
                }
            ]
        )
        out = curate_corpus(pages, line_dedup=True).to_pandas()
        assert len(out) == 1
        t = out["extracted_text"][0]
        assert t.count(dup) == 1  # later repeats dropped
        for u in uniq:
            assert t.count(u) == 1  # untouched content intact
        # order preserved: dup's first occurrence stays between lines 1/2
        assert t.index(uniq[0]) < t.index(dup) < t.index(uniq[1])
