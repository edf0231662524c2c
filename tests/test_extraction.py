"""Extraction pipeline tests: unit semantics, golden files (byte-identical
per url), determinism across parallelism, resume (SURVEY.md §5)."""

import hashlib
import json
import os

import pyarrow as pa
import pytest

from ocr_platform_ray import corpus
from ocr_platform_ray.corpus import make_pages_table, page_payload
from ocr_platform_ray.schemas import FLAG_EMPTY, FLAG_NEEDS_REVIEW, STAGE_CORRECT
from ocr_platform_ray.stages.extract import extract_page

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "goldens", "docs_sha.json")
N_GOLDEN_URLS = 60


def _doc_hashes(df):
    return {
        r.url: {
            "sha256": hashlib.sha256(r.extracted_text.encode()).hexdigest(),
            "n_pages": int(r.n_pages),
            "total_words": int(r.total_words),
            "n_failed_pages": int(r.n_failed_pages),
        }
        for r in df.itertuples()
    }


class TestExtractPageUnit:
    def test_boilerplate_stripped(self):
        html = b'<html><body><nav class="menu"><a href="/">Home</a></nav><p>real content here</p></body></html>'
        r = extract_page(html, "")
        assert r["body"] == "real content here"
        assert r["failed_stage"] is None

    def test_self_closing_block_tag_opens_no_block(self):
        # "<div/>" and "<p />" open nothing: the text after them stays in
        # the enclosing block; "<BR/>" is a line break whatever its case
        html = b'<p>a<div class="x"/>b<P CLASS="y" />c<BR/>d</p>'
        assert extract_page(html, "")["body"] == "abc\nd"

    def test_boilerplate_by_class_and_entities(self):
        html = (
            b'<div class="share-bar">&amp; <a href="#">Share</a></div>'
            b'<aside>&lt;x&gt;</aside><p>keep &amp; this</p>'
        )
        assert extract_page(html, "")["body"] == "keep & this"

    def test_script_style_removed(self):
        html = b"<html><script>var x=1;</script><style>.a{}</style><p>keep</p></html>"
        assert extract_page(html, "")["body"] == "keep"

    def test_header_vs_body(self):
        html = b'<div class="header">Running Head</div><h1>Title</h1><p>body text</p>'
        r = extract_page(html, "")
        assert r["header"] == "Running Head\nTitle"
        assert r["body"] == "body text"

    def test_heading_after_body_goes_to_body(self):
        html = b"<p>first</p><h3>Section</h3><p>second</p>"
        r = extract_page(html, "")
        assert r["header"] is None
        assert r["body"] == "first\n\nSection\n\nsecond"
        assert [s["kind"] for s in r["spans"]] == ["para", "heading", "para"]

    def test_footnotes_after_hr(self):
        html = b"<p>body</p><hr/><div>(1) a note</div>"
        r = extract_page(html, "")
        assert r["body"] == "body"
        assert r["footnotes"] == "(1) a note"

    def test_footnote_numbering_styles(self):
        for mark in ["(1)", "1.", "1)"]:
            html = f"<p>body</p><div>{mark} note text</div>".encode()
            assert extract_page(html, "")["footnotes"] == f"{mark} note text"

    def test_sup_becomes_marker(self):
        html = b"<p>claim<sup>2</sup> more</p>"
        assert extract_page(html, "")["body"] == "claim[^2] more"

    def test_page_number(self):
        html = b'<p>x</p><div class="pageno">17</div>'
        assert extract_page(html, "")["page_number"] == 17

    def test_empty_page_flag(self):
        html = b'<html><nav class="menu"><a href="/">x</a></nav></html>'
        r = extract_page(html, "")
        assert r["body"] == ""
        assert r["flags"] == [FLAG_EMPTY]

    def test_missing_payload_salvages_prior_text(self):
        for payload in (None, b""):
            r = extract_page(payload, "prior ocr text")
            assert r["failed_stage"] == STAGE_CORRECT
            assert r["body"] == "prior ocr text"
            assert FLAG_NEEDS_REVIEW in r["flags"]

    def test_declared_charset_sniffed(self):
        html = (
            '<html><head><meta charset="windows-1252"></head>'
            "<body><p>Price: 10€ at the café</p></body></html>"
        ).encode("cp1252")
        r = extract_page(html, "")
        assert r["body"] == "Price: 10€ at the café"
        assert r["failed_stage"] is None

    def test_wrong_declared_charset_falls_through(self):
        # declares ascii but contains utf-8 bytes -> chain falls to utf-8
        html = b'<html><head><meta charset="us-ascii"></head><body><p>caf\xc3\xa9</p></body></html>'
        assert extract_page(html, "")["body"] == "café"

    def test_latin1_fallback_decoding(self):
        # bytes invalid as utf-8 decode via latin-1 instead of failing
        r = extract_page(b"<p>caf\xe9 cr\xe8me</p>", "")
        assert r["body"] == "café crème"
        assert r["failed_stage"] is None

    def test_link_density_boilerplate(self):
        links = "".join(f'<a href="/{i}">word</a> ' for i in range(8))
        html = f"<div>{links}</div><p>real paragraph with enough text</p>".encode()
        assert extract_page(html, "")["body"] == "real paragraph with enough text"

    def test_spans_are_byte_offsets(self):
        html = "<p>عربي</p><p>second</p>".encode()
        r = extract_page(html, "")
        body_bytes = r["body"].encode("utf-8")
        for s in r["spans"]:
            seg = body_bytes[s["start"] : s["end"]].decode("utf-8")
            assert seg in r["body"]
        assert r["spans"][0]["end"] == len("عربي".encode("utf-8"))

    def test_fakepdf_reading_order(self):
        # lines are shuffled in the payload; XY-cut must restore order
        payload = corpus.FAKEPDF_MAGIC + b"10 100 500 112 para second paragraph\n10 10 400 24 head Title\n10 40 500 52 para first paragraph\n"
        r = extract_page(payload, "")
        assert r["header"] == "Title"
        assert r["body"] == "first paragraph\n\nsecond paragraph"

    def test_fakepdf_two_column_reading_order(self):
        # interleaved y-coordinates across two columns: a naive y-sort gives
        # L1 R1 L2 R2; XY-cut must emit the whole left column first
        payload = corpus.FAKEPDF_MAGIC + (
            b"330 44 610 56 para R1 right first\n"
            b"10 40 300 52 para L1 left first\n"
            b"330 64 610 76 para R2 right second\n"
            b"10 60 300 72 para L2 left second\n"
        )
        r = extract_page(payload, "")
        assert r["body"] == (
            "L1 left first\n\nL2 left second\n\nR1 right first\n\nR2 right second"
        )

    def test_malformed_html_tolerated(self):
        html = b"<html><p>unclosed paragraph<div>and <b>stray"
        r = extract_page(html, "")
        assert r["failed_stage"] is None
        assert "unclosed paragraph" in r["body"]

    def test_html_entities_decoded(self):
        r = extract_page(b"<p>Tom &amp; Jerry &#8212; &quot;cartoons&quot;</p>", "")
        assert r["body"] == 'Tom & Jerry — "cartoons"'

    def test_plain_text_payload_falls_back_to_body(self):
        # E2 fallback: no block tags at all -> whole text is the body
        r = extract_page(b"just plain text with no markup at all", "")
        assert r["body"] == "just plain text with no markup at all"
        assert r["flags"] == []
        # inline-only markup (no block tags) also falls back
        r2 = extract_page(b"some <b>bold</b> text", "")
        assert r2["body"] == "some bold text"

    def test_pure_determinism(self):
        html, prior, _ = page_payload(0, 0)
        assert extract_page(html, prior) == extract_page(html, prior)


@pytest.mark.usefixtures("ray_session")
class TestPipelineGolden:
    def _run(self, n_urls=N_GOLDEN_URLS, **kwargs):
        import ray.data as rd

        from ocr_platform_ray.pipelines.extraction import extraction_pipeline

        ds = rd.from_arrow(make_pages_table(n_urls))
        return extraction_pipeline(ds, **kwargs).to_pandas()

    def test_golden_byte_identical(self):
        got = _doc_hashes = globals()["_doc_hashes"](self._run())
        with open(GOLDEN_PATH) as f:
            want = json.load(f)
        assert got == want

    def test_page_offsets_are_exact_span_lineage(self):
        """page_offsets[i] is the utf-8 byte offset where page i's text
        starts inside extracted_text — slicing reconstructs every page."""
        import ray.data as rd

        from ocr_platform_ray.pipelines.extraction import extraction_pipeline
        from ocr_platform_ray.stages.reassemble import PAGE_SEP, page_text

        from ocr_platform_ray.pipelines.extraction import extract_pages_ds

        docs = extraction_pipeline(rd.from_arrow(make_pages_table(20))).to_pandas()
        pages = extract_pages_ds(rd.from_arrow(make_pages_table(20))).to_pandas()
        sep_b = len(PAGE_SEP.encode("utf-8"))
        for r in docs.itertuples():
            raw = r.extracted_text.encode("utf-8")
            offs = list(r.page_offsets)
            assert len(offs) == r.n_pages and offs[0] == 0
            grp = pages[pages.url == r.url].sort_values("warc_ts")
            texts = [
                page_text(h, b, f)
                for h, b, f in zip(grp.header, grp.body, grp.footnotes)
            ]
            bounds = offs + [len(raw) + sep_b]
            for i, t in enumerate(texts):
                got = raw[bounds[i] : bounds[i + 1] - sep_b].decode("utf-8")
                assert got == t, (r.url, i)

    def test_partitioned_path_byte_identical_to_shuffle_path(self, tmp_path):
        """reassemble_docs (groupby shuffle) and reassemble_docs_partitioned
        (shuffle-free, url-range-sharded layout) must agree byte-for-byte."""
        import ray.data as rd

        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import extraction_pipeline, read_pages

        src = str(tmp_path / "pages")
        n_files = len(write_pages_parquet(src, 40, urls_per_shard=10))
        a = extraction_pipeline(read_pages(src, parallelism=n_files), partitioned_input=True).to_pandas()
        b = extraction_pipeline(read_pages(src, parallelism=n_files)).to_pandas()
        ha, hb = globals()["_doc_hashes"](a), globals()["_doc_hashes"](b)
        assert ha == hb

    def test_determinism_across_batch_size_and_input_order(self):
        import ray.data as rd

        from ocr_platform_ray.pipelines.extraction import extraction_pipeline

        t = make_pages_table(30)
        a = extraction_pipeline(rd.from_arrow(t), batch_size=7).to_pandas()
        # reversed input row order + different batch size + actor pool
        rev = t.take(list(reversed(range(t.num_rows))))
        b = extraction_pipeline(rd.from_arrow(rev), batch_size=64, concurrency=2).to_pandas()
        ha, hb = globals()["_doc_hashes"](a), globals()["_doc_hashes"](b)
        assert ha == hb

    def test_empty_and_failed_pages_not_dropped(self):
        df = self._run(n_urls=6)
        by_url = {r.url: r for r in df.itertuples()}
        assert by_url[corpus.url_for(corpus.URL_MALFORMED)].n_failed_pages >= 1
        # every url present — error rows flagged, never dropped (M5)
        assert len(df) == 6

    def test_straggler_page_count(self):
        df = self._run(n_urls=6)
        by_url = {r.url: int(r.n_pages) for r in df.itertuples()}
        assert by_url[corpus.url_for(corpus.URL_STRAGGLER)] == 40


@pytest.mark.usefixtures("ray_session")
class TestResume:
    def test_manifest_skip_and_recompute(self, tmp_path):
        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import run_extraction

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        write_pages_parquet(src, 20, urls_per_shard=5)
        r1 = run_extraction(src, out)
        assert r1["skipped"] == 0 and r1["rows"] == 20
        r2 = run_extraction(src, out)
        assert r2["skipped"] == r2["parts"] and r2["rows"] == 20
        # remove one manifest -> exactly that partition recomputes
        import glob as g

        os.remove(sorted(g.glob(os.path.join(out, "_manifest", "*.json")))[0])
        r3 = run_extraction(src, out)
        assert r3["skipped"] == r3["parts"] - 1

    def test_lost_output_shard_recomputes(self, tmp_path):
        # a manifest whose part-NNNNN directory vanished must NOT count as
        # committed (silently reporting its rows) — it recomputes
        import glob as g
        import shutil

        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import run_extraction

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        write_pages_parquet(src, 20, urls_per_shard=5)
        r1 = run_extraction(src, out)
        assert r1["skipped"] == 0 and r1["rows"] == 20
        lost = sorted(g.glob(os.path.join(out, "part-*")))[0]
        shutil.rmtree(lost)
        r2 = run_extraction(src, out)
        assert r2["skipped"] == r2["parts"] - 1 and r2["rows"] == 20
        assert os.path.isdir(lost)


@pytest.mark.usefixtures("ray_session")
class TestPageIdx:
    def test_rank_matches_warc_ts_order(self):
        import ray.data as rd

        from ocr_platform_ray.pipelines.extraction import extract_pages_ds
        from ocr_platform_ray.stages.reassemble import assign_page_idx

        ds = extract_pages_ds(rd.from_arrow(make_pages_table(8)))
        df = assign_page_idx(ds).to_pandas()
        for _, grp in df.groupby("url"):
            grp = grp.sort_values("warc_ts")
            assert list(grp.page_idx) == list(range(len(grp)))


class TestTextDensity:
    def test_markup_dominated_block_dropped(self):
        # tiny text buried in heavy markup -> boilerplate by text density
        widget = '<div>' + '<span data-x="aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"></span>' * 20 + 'ok</div>'
        html = (widget + "<p>real paragraph content</p>").encode()
        r = extract_page(html, "")
        assert r["body"] == "real paragraph content"

    def test_normal_short_block_kept(self):
        r = extract_page(b"<p>short</p>", "")
        assert r["body"] == "short"


@pytest.mark.usefixtures("ray_session")
class TestFileAlignedRead:
    """reassemble_docs_partitioned's precondition: an UNALIGNED read can
    split one file's pages across blocks, silently assembling a
    straddling url into two doc rows (caught at 192k-url scale — 94 dup
    docs).  read_pages_file_aligned is the required read shape."""

    def test_unaligned_read_duplicates_and_aligned_read_does_not(self, tmp_path):
        import ray.data as rdata

        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import (
            PAGE_COLUMNS,
            extraction_pipeline,
            read_pages_file_aligned,
        )

        d = str(tmp_path / "pages")
        write_pages_parquet(d, 200, urls_per_shard=100)

        # the hazard: force block splits within files
        split = rdata.read_parquet(d, columns=PAGE_COLUMNS, override_num_blocks=16)
        docs_bad = extraction_pipeline(split, partitioned_input=True).to_pandas()
        assert (docs_bad["url"].value_counts() > 1).any()  # corpus exercises it

        # the fix: file-aligned read -> unique urls, byte-identical to the
        # shuffle path
        docs_ok = (
            extraction_pipeline(read_pages_file_aligned(d), partitioned_input=True)
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        assert docs_ok["url"].is_unique
        shuffle = (
            extraction_pipeline(
                rdata.read_parquet(d, columns=PAGE_COLUMNS, override_num_blocks=16)
            )
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        assert docs_ok["extracted_text"].tolist() == shuffle["extracted_text"].tolist()
