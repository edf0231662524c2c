"""Tests for oversized-blob splitting (skew) and redo-partition
recompute (D5/§3.2)."""

import os

import pyarrow as pa
import pytest
import ray.data as rd


class TestSplitPayload:
    def test_small_passthrough(self):
        from ocr_platform_ray.stages.skew import split_payload

        assert split_payload(b"<p>hi</p>", 100) == [b"<p>hi</p>"]

    def test_splits_at_block_boundaries_and_reconstructs(self):
        from ocr_platform_ray.stages.skew import split_payload

        html = b"".join(b"<p>para %03d content</p>" % i for i in range(100))
        chunks = split_payload(html, 500)
        assert len(chunks) > 1
        assert b"".join(chunks) == html
        # every chunk except possibly the last ends at a block close tag
        for c in chunks[:-1]:
            assert c.endswith(b"</p>")

    def test_hard_cut_when_no_boundary(self):
        from ocr_platform_ray.stages.skew import split_payload

        blob = b"x" * 1000
        chunks = split_payload(blob, 300)
        assert b"".join(chunks) == blob
        assert max(len(c) for c in chunks) <= 300


@pytest.mark.usefixtures("ray_session")
class TestExplodeOversized:
    def test_explode_preserves_order_and_extraction(self):
        import datetime

        from ocr_platform_ray.schemas import PAGES_SCHEMA
        from ocr_platform_ray.stages.skew import explode_oversized
        from ocr_platform_ray.pipelines.extraction import extraction_pipeline

        big_html = "".join(f"<p>paragraph number {i} with words</p>" for i in range(200)).encode()
        t = pa.Table.from_pydict(
            {
                "url": ["https://x/big", "https://x/small"],
                "warc_ts": [datetime.datetime(2024, 1, 1), datetime.datetime(2024, 1, 1)],
                "html": [big_html, b"<p>small page</p>"],
                "text": ["prior", "prior2"],
                "lang": ["en", "en"],
            },
            schema=PAGES_SCHEMA,
        )
        exploded = explode_oversized(rd.from_arrow(t), max_bytes=2048)
        edf = exploded.to_pandas()
        big_rows = edf[edf.url == "https://x/big"].sort_values("warc_ts")
        assert len(big_rows) > 1                      # split happened
        assert len(edf[edf.url == "https://x/small"]) == 1
        assert b"".join(big_rows.html) == big_html     # byte-lossless
        # timestamps strictly increasing -> chunk order preserved
        assert big_rows.warc_ts.is_monotonic_increasing

        docs = extraction_pipeline(exploded).to_pandas().set_index("url")
        text = docs.loc["https://x/big", "extracted_text"]
        # all 200 paragraphs survive, in order
        idx = [text.find(f"paragraph number {i} ") for i in range(200)]
        assert all(i >= 0 for i in idx) and idx == sorted(idx)


@pytest.mark.usefixtures("ray_session")
class TestRunExtractionWithSplitter:
    def test_max_blob_bytes_path(self, tmp_path):
        """run_extraction with the oversized-blob splitter enabled: a
        corpus containing a multi-MB page completes and keeps every url."""
        import datetime

        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.corpus import make_pages_rows
        from ocr_platform_ray.pipelines.extraction import run_extraction
        from ocr_platform_ray.schemas import PAGES_SCHEMA

        rows = list(make_pages_rows(range(10)))
        big_html = b"".join(
            b"<p>chunk %06d filler words here</p>" % i for i in range(120000)
        )  # ~4.5 MB single page
        rows.append(
            {
                "url": "https://x/huge",
                "warc_ts": datetime.datetime(2024, 6, 1),
                "html": big_html,
                "text": "",
                "lang": "en",
            }
        )
        src = tmp_path / "pages"
        src.mkdir()
        cols = {n: [r[n] for r in rows] for n in PAGES_SCHEMA.names}
        pq.write_table(pa.Table.from_pydict(cols, schema=PAGES_SCHEMA), src / "pages-0.parquet")

        out = str(tmp_path / "out")
        res = run_extraction(str(src), out, max_blob_bytes=512 * 1024)
        assert res["rows"] == 11  # 10 corpus urls + the huge one
        t = pq.read_table(f"{out}/part-00000", columns=["url", "n_pages", "total_words"])
        by_url = {u: n for u, n in zip(t.column("url").to_pylist(), t.column("n_pages").to_pylist())}
        assert by_url["https://x/huge"] > 1  # split into multiple page chunks
        words = dict(zip(t.column("url").to_pylist(), t.column("total_words").to_pylist()))
        assert words["https://x/huge"] == 120000 * 5  # nothing lost


@pytest.mark.usefixtures("ray_session")
class TestRedo:
    def test_redo_recomputes_only_matching_partitions(self, tmp_path):
        from ocr_platform_ray.corpus import url_for, write_pages_parquet
        from ocr_platform_ray.pipelines.extraction import (
            PAGE_COLUMNS,
            extract_docs,
            extraction_pipeline,
        )
        from ocr_platform_ray.state.manifest import redo_urls, run_with_manifest

        src = str(tmp_path / "pages")
        out = str(tmp_path / "out")
        write_pages_parquet(src, 40, urls_per_shard=10)  # 4 fragments
        r1 = run_with_manifest(
            src, out, extraction_pipeline, extract_docs, fragments_per_part=1, columns=PAGE_COLUMNS
        )
        assert r1["parts"] == 4 and r1["skipped"] == 0
        # redo one url from the 3rd shard (urls 20-29)
        r2 = redo_urls(
            src, out, [url_for(25)], extraction_pipeline, extract_docs, columns=PAGE_COLUMNS
        )
        assert r2["invalidated"] == 1
        assert r2["redone_parts"] == 1
        assert r2["skipped"] == 3
        assert os.path.exists(os.path.join(out, "part-00002"))
