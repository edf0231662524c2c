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
        write_pages_parquet(src, 40, urls_per_shard=10)
        a = extraction_pipeline(read_pages(src), partitioned_input=True).to_pandas()
        b = extraction_pipeline(read_pages(src)).to_pandas()
        ha, hb = globals()["_doc_hashes"](a), globals()["_doc_hashes"](b)
        assert ha == hb

    def test_determinism_across_batch_size_and_input_order(self):
        import ray.data as rd

        from ocr_platform_ray.pipelines.extraction import extraction_pipeline

        t = make_pages_table(30)
        a = extraction_pipeline(rd.from_arrow(t), batch_size=7).to_pandas()
        # reversed input row order + different batch size
        rev = t.take(list(reversed(range(t.num_rows))))
        b = extraction_pipeline(rd.from_arrow(rev), batch_size=64).to_pandas()
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
class TestFusedRead:
    def test_extract_slices_give_one_equal_table(self):
        from ocr_platform_ray.stages.extract import ExtractPages

        t = make_pages_table(60)  # 316 rows
        want = ExtractPages(t.num_rows)(t)
        assert want.num_rows == t.num_rows
        for k in (1, 7, 256, t.num_rows + 1):
            got = ExtractPages(k)(t)
            assert isinstance(got, pa.Table) and got.equals(want), k

    def test_read_fuses_with_extraction(self, tmp_path, plan_ops):
        """One map operator per input file on both paths, with fewer files
        than CPUs too: no raw page crosses the object store between a read
        and an extract task, and only the columns reassembly reads reach
        the url exchange."""
        import ray

        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import extraction_pipeline, read_pages

        src = str(tmp_path / "pages")
        n_files = len(write_pages_parquet(src, 20, urls_per_shard=10))
        assert n_files < ray.cluster_resources()["CPU"]
        aligned = extraction_pipeline(read_pages(src), partitioned_input=True)
        assert plan_ops(aligned) == [
            "ReadParquet->MapBatches(ExtractPages)->MapBatches(_docs_from_block)"
        ]
        shuffle = extraction_pipeline(read_pages(src))
        assert plan_ops(shuffle) == [
            "ReadParquet->MapBatches(ExtractPages)->Project->MapBatches(add_label)",
            "Sort",
            "MapBatches(_docs_from_block)->MapBatches(_absorb)",
        ]


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


def _write_files(d, tables, **write_kwargs):
    import pyarrow.parquet as pq

    os.makedirs(d)
    for i, t in enumerate(tables):
        pq.write_table(t, os.path.join(d, f"pages-{i:05d}.parquet"), **write_kwargs)
    return str(d)


def _pages_of(t, urls):
    import pyarrow.compute as pc

    return t.filter(pc.is_in(t.column("url"), pa.array(urls)))


def _job_docs(out):
    import glob as g

    import pyarrow.parquet as pq

    files = sorted(g.glob(os.path.join(out, "part-*", "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def _exchange_texts(pages):
    """url -> extracted_text of a pages Dataset through the url exchange."""
    from ocr_platform_ray.pipelines.extraction import extraction_pipeline

    df = extraction_pipeline(pages).to_pandas()
    return dict(zip(df.url, df.extracted_text))


def _move_first_page(src_file, dst_file, url):
    """Move ``url``'s first page (by warc_ts) from one parquet file to the
    end of another: the url is then split across the two files."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    a, b = pq.read_table(src_file), pq.read_table(dst_file)
    pages = a.filter(pc.equal(a.column("url"), url)).sort_by("warc_ts")
    keep = a.filter(pc.invert(pc.equal(a.column("url"), url)))
    pq.write_table(pa.concat_tables([keep, pages.slice(1)]), src_file)
    pq.write_table(pa.concat_tables([b, pages.slice(0, 1)]), dst_file)


@pytest.mark.usefixtures("ray_session")
class TestReassemblyChoice:
    """The url census decides: a url that one file holds runs in that
    file's task, every other url in the one residual part, through the
    url exchange.  Each manifest says which reassembly its part ran."""

    def _run(self, src, tmp_path, **kwargs):
        """(reassembly, rows) of each committed part, by part id."""
        from ocr_platform_ray.pipelines.extraction import read_pages, run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        out = str(tmp_path / "out")
        run_extraction(src, out, **kwargs)
        docs = _job_docs(out)
        assert docs.url.is_unique
        assert dict(zip(docs.url, docs.extracted_text)) == _exchange_texts(
            read_pages(src)
        )
        return [(m["reassembly"], m["rows"]) for _, m in sorted(completed_parts(out).items())]

    def _split_url(self, t, n_urls, first_page_last):
        """Two files that split one url: url ``k``'s first page in the
        file of the urls after it, or its later pages there."""
        import pyarrow.compute as pc

        k = next(u for u in range(1, n_urls - 1) if corpus.n_pages_for(u) >= 2)
        pages = t.filter(pc.equal(t.column("url"), corpus.url_for(k))).sort_by("warc_ts")
        head, tail = (pages.slice(1), pages.slice(0, 1)) if first_page_last else (
            pages.slice(0, 1), pages.slice(1)
        )
        a = pa.concat_tables([_pages_of(t, [corpus.url_for(u) for u in range(k)]), head])
        b = pa.concat_tables(
            [tail, _pages_of(t, [corpus.url_for(u) for u in range(k + 1, n_urls)])]
        )
        return corpus.url_for(k), [a, b]

    def test_url_range_files_skip_the_exchange(self, tmp_path):
        import random

        t = make_pages_table(40)
        shards = []
        for lo in range(0, 40, 10):
            part = _pages_of(t, [corpus.url_for(u) for u in range(lo, lo + 10)])
            order = list(range(part.num_rows))
            random.Random(lo).shuffle(order)  # pages out of warc_ts order
            shards.append(part.take(order))
        src = _write_files(tmp_path / "pages", shards)
        assert self._run(src, tmp_path) == [("aligned", 40)]

    def test_interleaved_url_ranges_run_aligned(self, tmp_path):
        """The files' url ranges overlap, but each url is in one file."""
        t = make_pages_table(20)
        even = _pages_of(t, [corpus.url_for(u) for u in range(0, 20, 2)])
        odd = _pages_of(t, [corpus.url_for(u) for u in range(1, 20, 2)])
        src = _write_files(tmp_path / "pages", [even, odd])
        assert self._run(src, tmp_path) == [("aligned", 20)]

    def test_file_without_statistics_runs_aligned(self, tmp_path):
        t = make_pages_table(20)
        src = _write_files(tmp_path / "pages", [t], write_statistics=False)
        assert self._run(src, tmp_path) == [("aligned", 20)]

    def test_shared_boundary_url_exchanges(self, tmp_path):
        """``max_A == min_B``: the url that both files hold comes out once,
        from the residual part, pages in warc_ts order, although file A
        holds its later pages."""
        import ray.data as rd

        from ocr_platform_ray.state.manifest import completed_parts

        t = make_pages_table(10)
        shared, files = self._split_url(t, 10, first_page_last=True)
        src = _write_files(tmp_path / "pages", files)
        assert self._run(src, tmp_path) == [("aligned", 9), ("residual", 1)]
        want = _exchange_texts(rd.from_arrow(t))[shared]
        docs = _job_docs(str(tmp_path / "out"))
        assert docs[docs.url == shared].extracted_text.tolist() == [want]
        residual = completed_parts(str(tmp_path / "out"))[1]
        assert [os.path.basename(f) for f in residual["inputs"]] == [
            "pages-00000.parquet",
            "pages-00001.parquet",
        ]

    def test_exchange_part_reads_one_block_per_file(self, tmp_path, monkeypatch, plan_ops):
        """The residual part's read fuses with the extraction: no raw page
        crosses the object store between a read and an extract task."""
        from ocr_platform_ray.pipelines import extraction

        plans = []
        pipeline = extraction.extraction_pipeline

        def spy(ds, **kwargs):
            docs = pipeline(ds, **kwargs)
            plans.append(plan_ops(docs))
            return docs

        monkeypatch.setattr(extraction, "extraction_pipeline", spy)
        _, files = self._split_url(make_pages_table(20), 20, first_page_last=False)
        src = _write_files(tmp_path / "pages", files, write_statistics=False)
        assert self._run(src, tmp_path) == [("aligned", 19), ("residual", 1)]
        plan = plans[0]  # the job's; _run's reference pass follows it
        assert plan[0].startswith("ReadParquet->MapBatches(ExtractPages)"), plan

    def test_asserted_layout_that_splits_a_url_exchanges_it(self, tmp_path):
        """A wrong assertion (one url's pages in two files of a part)
        changes nothing: the census sends that url to the residual part."""
        _, files = self._split_url(make_pages_table(10), 10, first_page_last=False)
        src = _write_files(tmp_path / "pages", files)
        got = self._run(src, tmp_path, partitioned_input=True)
        assert got == [("aligned", 9), ("residual", 1)]

    def test_large_file_goes_straight_to_the_exchange(self, tmp_path):
        """Every url of a file bigger than the target block size (64 KiB
        here; three of the four files) goes to the residual part, and no
        task reads such a file whole; the small file runs aligned."""
        from ray.data import DataContext

        from ocr_platform_ray.corpus import write_pages_parquet

        src = str(tmp_path / "pages")
        write_pages_parquet(src, 40, urls_per_shard=10)
        ctx = DataContext.get_current()
        old = ctx.target_max_block_size
        ctx.target_max_block_size = 64 * 1024
        try:
            got = self._run(src, tmp_path)
        finally:
            ctx.target_max_block_size = old
        assert got == [("aligned", 10), ("residual", 30)]


@pytest.mark.usefixtures("ray_session")
class TestOneExecution:
    """Every pending aligned file of the job runs one plain Ray task, with
    no Ray Data execution; a part commits once its last file has landed."""

    def test_aligned_job_builds_no_dataset(self, tmp_path, monkeypatch):
        """No url is split across files in url-range, interleaved or
        statistics-free layouts: the job builds no Dataset on any."""
        import pyarrow.parquet as pq
        import ray.data as rd

        from ocr_platform_ray.corpus import url_for, write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import (
            extraction_pipeline,
            read_pages,
            run_extraction,
        )
        from ocr_platform_ray.state.manifest import completed_parts

        src = str(tmp_path / "pages")
        assert len(write_pages_parquet(src, 40, urls_per_shard=10)) == 4
        t = pq.read_table(src)
        want = _doc_hashes(extraction_pipeline(read_pages(src)).to_pandas())
        interleaved = [
            _pages_of(t, [url_for(u) for u in range(i, 40, 4)])
            for i in range(4)
        ]
        layouts = {
            "url-range": src,
            "interleaved": _write_files(tmp_path / "interleaved", interleaved),
            "no stats": _write_files(
                tmp_path / "no-stats", interleaved, write_statistics=False
            ),
        }

        def no_dataset(*args, **kwargs):
            raise AssertionError("an all-aligned job read a Dataset")

        monkeypatch.setattr(rd, "read_parquet", no_dataset)
        for name, pages in layouts.items():
            out = str(tmp_path / "out" / name)
            r = run_extraction(pages, out, fragments_per_part=2)
            assert r["parts"] == 2 and r["rows"] == 40, name
            parts = completed_parts(out)
            assert [m["reassembly"] for m in parts.values()] == ["aligned", "aligned"]
            assert _doc_hashes(_job_docs(out)) == want, name

    def test_url_split_across_parts_is_published_once(self, tmp_path, monkeypatch):
        """12 urls in 4 files, one url's first page in file 0 and its other
        pages in file 3: with 2 files per part, the url comes out once,
        from the one residual part, the job's only Dataset."""
        import ray.data as rd

        from ocr_platform_ray.pipelines.extraction import run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        t = make_pages_table(12)
        split = next(u for u in range(3, 12, 4) if corpus.n_pages_for(u) >= 2)
        files = [_pages_of(t, [corpus.url_for(u) for u in range(i, 12, 4)]) for i in range(4)]
        src = _write_files(tmp_path / "pages", files)
        paths = sorted(os.path.join(src, f) for f in os.listdir(src))
        _move_first_page(paths[3], paths[0], corpus.url_for(split))
        reads = []
        read_parquet = rd.read_parquet

        def spy(*args, **kwargs):
            reads.append(args)
            return read_parquet(*args, **kwargs)

        monkeypatch.setattr(rd, "read_parquet", spy)
        out = str(tmp_path / "out")
        r = run_extraction(src, out, fragments_per_part=2)
        assert len(reads) == 1
        assert r["parts"] == 3 and r["rows"] == 12
        parts = completed_parts(out)
        assert [m["reassembly"] for _, m in sorted(parts.items())] == [
            "aligned", "aligned", "residual"
        ]
        monkeypatch.undo()
        docs = _job_docs(out)
        assert docs.url.is_unique and len(docs) == 12
        assert dict(zip(docs.url, docs.extracted_text)) == _exchange_texts(rd.from_arrow(t))

    def test_file_task_runs_without_ray_data(self, tmp_path):
        """The per-file task, shipped by value, runs in a process where
        ``import ray.data`` fails and the package is not importable: a
        reference to either would cost every worker its import."""
        import subprocess
        import sys

        import pyarrow.parquet as pq
        from ray import cloudpickle

        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import PAGE_COLUMNS, extract_docs
        from ocr_platform_ray.stages.extract import ExtractPages
        from ocr_platform_ray.stages.reassemble import _docs_from_block
        from ocr_platform_ray.state.manifest import _file_task

        (path,) = write_pages_parquet(str(tmp_path / "pages"), 12, urls_per_shard=12)
        task = tmp_path / "task.pkl"
        task.write_bytes(cloudpickle.dumps(_file_task(extract_docs, PAGE_COLUMNS)))
        script = (
            "import pickle, sys\n"
            "import pyarrow as pa\n"
            "sys.modules['ray.data'] = None\n"
            "land = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "print(land(sys.argv[2], sys.argv[3], pa.array([sys.argv[4]]))[1])\n"
            "assert not any(m.startswith('ocr_platform_ray') for m in sys.modules)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        residual = corpus.url_for(4)  # its pages belong to another task
        run = subprocess.run(
            [sys.executable, "-c", script, str(task), path, str(tmp_path), residual],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        pages = pq.read_table(path, columns=PAGE_COLUMNS)
        assert int(run.stdout) == pages.num_rows
        stem = os.path.splitext(os.path.basename(path))[0]
        got = pq.read_table(str(tmp_path / f"{stem}.parquet"))
        local = _pages_of(pages, [corpus.url_for(u) for u in range(12) if u != 4])
        assert got.equals(_docs_from_block(ExtractPages()(local)))

    @pytest.mark.parametrize("partitioned_input", [True, False])
    def test_null_url_commits(self, tmp_path, partitioned_input):
        """A null url's pages come out as one doc row with a null url; the
        commit's checksum orders it before every string."""
        import ray.data as rd

        from ocr_platform_ray.pipelines.extraction import run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        t = make_pages_table(3)
        null = corpus.url_for(0)
        urls = [None if u == null else u for u in t.column("url").to_pylist()]
        t = t.set_column(t.schema.get_field_index("url"), "url", pa.array(urls, pa.string()))
        src = _write_files(tmp_path / "pages", [t])
        out = str(tmp_path / "out")
        run_extraction(src, out, partitioned_input=partitioned_input)
        (m,) = completed_parts(out).values()
        assert m["rows"] == 3
        docs = _job_docs(out)
        assert docs.url.isna().sum() == 1
        want = {u: x for u, x in _exchange_texts(rd.from_arrow(t)).items() if u is not None}
        got = {u: x for u, x in zip(docs.url, docs.extracted_text) if u is not None}
        assert got == want and len(want) == 2

    def test_resume_after_a_failure_mid_stream(self, tmp_path):
        """A file whose data pages are corrupt (its footer and url column
        intact, so its task runs) fails its task mid-stream: every part
        whose files all land is committed, whenever they land, and so is
        the residual part of a url split across the first two parts; the
        failed part publishes nothing, and the rerun redoes only what is
        not committed."""
        import glob as g

        import pyarrow.parquet as pq

        from ocr_platform_ray.corpus import url_for, write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import read_pages, run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        files = sorted(write_pages_parquet(src, 60, urls_per_shard=10))
        _move_first_page(files[0], files[2], url_for(3))  # parts 0 and 1
        want = _exchange_texts(read_pages(src))
        bad = files[-1]
        pq.write_table(pq.read_table(bad), bad, row_group_size=8)
        good = open(bad, "rb").read()
        md = pq.read_metadata(bad)
        html = md.schema.to_arrow_schema().get_field_index("html")
        col = md.row_group(md.num_row_groups - 1).column(html)
        raw = bytearray(good)
        raw[col.data_page_offset : col.data_page_offset + col.total_compressed_size] = (
            b"\xff" * col.total_compressed_size
        )
        with open(bad, "wb") as f:
            f.write(bytes(raw))

        with pytest.raises(Exception):
            run_extraction(src, out, fragments_per_part=2, partitioned_input=True)
        committed = completed_parts(out)
        assert sorted(committed) == [0, 1, 3]
        assert committed[3]["reassembly"] == "residual" and committed[3]["rows"] == 1
        for pid in range(4):
            published = os.path.isdir(os.path.join(out, f"part-{pid:05d}"))
            assert published == (pid in committed)
        assert not g.glob(os.path.join(out, "_manifest", "*.tmp"))

        with open(bad, "wb") as f:
            f.write(good)
        r = run_extraction(src, out, fragments_per_part=2, partitioned_input=True)
        assert r["skipped"] == len(committed) and r["rows"] == 60
        assert sorted(completed_parts(out)) == [0, 1, 2, 3]
        assert not g.glob(os.path.join(out, "*.tmp"))
        docs = _job_docs(out)
        assert docs.url.is_unique
        assert dict(zip(docs.url, docs.extracted_text)) == want


@pytest.mark.usefixtures("ray_session")
class TestRegrouping:
    """A rerun or a redo over output grouped differently publishes each
    url once: a redo keeps the committed grouping, and a rerun with
    coarser parts unpublishes the parts beyond its own."""

    def test_redo_and_coarser_rerun_publish_each_url_once(self, tmp_path):
        from ocr_platform_ray.corpus import url_for, write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import (
            PAGE_COLUMNS,
            extract_docs,
            extraction_pipeline,
            read_pages,
            run_extraction,
        )
        from ocr_platform_ray.state.manifest import completed_parts, redo_urls

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        assert len(write_pages_parquet(src, 40, urls_per_shard=10)) == 4
        want = _exchange_texts(read_pages(src))

        def published():
            docs = _job_docs(out)
            assert docs.url.is_unique and len(docs) == 40
            assert dict(zip(docs.url, docs.extracted_text)) == want
            return sorted(completed_parts(out))

        run_extraction(src, out, fragments_per_part=2, partitioned_input=True)
        assert published() == [0, 1]
        r = redo_urls(
            src, out, [url_for(25)], extraction_pipeline, extract_docs, columns=PAGE_COLUMNS
        )
        assert r["redone_parts"] == 1 and r["parts"] == 2
        assert published() == [0, 1]
        r = run_extraction(src, out, fragments_per_part=8)
        assert r["parts"] == 1 and r["rows"] == 40
        assert published() == [0]
        assert sorted(os.listdir(out)) == ["_manifest", "part-00000"]

    def _split_job(self, tmp_path):
        """4 url-range files of 10 urls with url 3's first page moved to
        the last file, 2 files per part: parts 0 and 1, then the residual
        part 2."""
        from ocr_platform_ray.corpus import url_for, write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import read_pages, run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        files = sorted(write_pages_parquet(src, 40, urls_per_shard=10))
        _move_first_page(files[0], files[3], url_for(3))
        run_extraction(src, out, fragments_per_part=2)
        assert sorted(completed_parts(out)) == [0, 1, 2]
        return src, out, _exchange_texts(read_pages(src))

    def _redo(self, src, out, url, want):
        """Redo one url; returns the ids of the parts it rewrote."""
        import glob as g

        from ocr_platform_ray.pipelines.extraction import (
            PAGE_COLUMNS,
            extract_docs,
            extraction_pipeline,
        )
        from ocr_platform_ray.state.manifest import redo_urls

        def stamps():
            paths = g.glob(os.path.join(out, "_manifest", "part-*.json"))
            return {int(p[-10:-5]): os.stat(p).st_mtime_ns for p in paths}

        before = stamps()
        r = redo_urls(src, out, [url], extraction_pipeline, extract_docs, columns=PAGE_COLUMNS)
        after = stamps()
        assert sorted(after) == sorted(before) and r["redone_parts"] == 1
        docs = _job_docs(out)
        assert docs.url.is_unique and dict(zip(docs.url, docs.extracted_text)) == want
        return {pid for pid in after if after[pid] != before[pid]}

    def test_redo_of_a_local_url_recomputes_only_its_files_part(self, tmp_path):
        from ocr_platform_ray.corpus import url_for

        src, out, want = self._split_job(tmp_path)
        assert self._redo(src, out, url_for(25), want) == {1}
        assert self._redo(src, out, url_for(35), want) == {1}  # file 3 holds url 3 too

    def test_redo_of_a_residual_url_recomputes_only_the_residual_part(self, tmp_path):
        """Then a coarser rerun keeps the residual part, under its new id."""
        from ocr_platform_ray.corpus import url_for
        from ocr_platform_ray.pipelines.extraction import run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        src, out, want = self._split_job(tmp_path)
        assert self._redo(src, out, url_for(3), want) == {2}
        r = run_extraction(src, out, fragments_per_part=4)
        assert r["parts"] == 2 and r["skipped"] == 0 and r["rows"] == 40
        parts = completed_parts(out)
        assert [parts[pid]["reassembly"] for pid in (0, 1)] == ["aligned", "residual"]
        assert sorted(os.listdir(out)) == ["_manifest", "part-00000", "part-00001"]
        docs = _job_docs(out)
        assert docs.url.is_unique and dict(zip(docs.url, docs.extracted_text)) == want


@pytest.mark.usefixtures("ray_session")
class TestUnreadableFooter:
    @pytest.mark.parametrize("partitioned_input", [True, False])
    def test_good_parts_commit_and_the_error_names_the_file(self, tmp_path, partitioned_input):
        """4 url-range files in 2 parts, the last file cut in half: part 0
        commits, part 1 does not run, and one error names the file."""
        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        files = sorted(write_pages_parquet(src, 40, urls_per_shard=10))
        bad = files[-1]
        raw = open(bad, "rb").read()
        with open(bad, "wb") as f:
            f.write(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match=os.path.basename(bad)):
            run_extraction(
                src, out, fragments_per_part=2, partitioned_input=partitioned_input
            )
        assert sorted(completed_parts(out)) == [0]
        assert sorted(os.listdir(out)) == ["_manifest", "part-00000"]
        assert len(_job_docs(out)) == 20

    def test_a_mended_file_recomputes_the_parts_its_urls_reach(self, tmp_path):
        """Url 3 has pages in file 0 and in the unreadable file 3: part 0
        publishes it from file 0 alone.  Once file 3 reads, the census
        finds url 3 split, so part 0 recomputes and url 3 comes out once,
        whole, from the residual part."""
        from ocr_platform_ray.corpus import url_for, write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import read_pages, run_extraction
        from ocr_platform_ray.state.manifest import completed_parts

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        files = sorted(write_pages_parquet(src, 40, urls_per_shard=10))
        _move_first_page(files[0], files[3], url_for(3))
        want = _exchange_texts(read_pages(src))
        raw = open(files[3], "rb").read()
        with open(files[3], "wb") as f:
            f.write(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match=os.path.basename(files[3])):
            run_extraction(src, out, fragments_per_part=2)
        assert sorted(completed_parts(out)) == [0]
        with open(files[3], "wb") as f:
            f.write(raw)
        r = run_extraction(src, out, fragments_per_part=2)
        assert r["parts"] == 3 and r["skipped"] == 0 and r["rows"] == 40
        docs = _job_docs(out)
        assert docs.url.is_unique and dict(zip(docs.url, docs.extracted_text)) == want


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
    docs).  read_pages, one block per file, is the required read shape."""

    def test_unaligned_read_duplicates_and_aligned_read_does_not(self, tmp_path):
        import ray.data as rdata

        from ocr_platform_ray.corpus import write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import (
            PAGE_COLUMNS,
            extraction_pipeline,
            read_pages,
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
            extraction_pipeline(read_pages(d), partitioned_input=True)
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
