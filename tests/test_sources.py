"""Ingest tests: raw-file source, page-count probe, and the url-hash
repartition invariant (every url in exactly one shard; shuffle-free
extraction over the result is byte-identical to the general path)."""

import glob
import os

import pyarrow.parquet as pq
import pytest
import ray.data as rd

from ocr_platform_ray.corpus import make_pages_table


@pytest.mark.usefixtures("ray_session")
class TestIngest:

    def test_page_count_probe(self):
        from ocr_platform_ray.sources.ingest import page_count_probe

        t = make_pages_table(10)
        out = page_count_probe(rd.from_arrow(t))
        want = t.to_pandas().groupby("url").size()
        assert out.set_index("url")["n_pages"].to_dict() == want.to_dict()

    def test_partition_by_url_invariant_and_extraction(self, tmp_path):
        import hashlib

        from ocr_platform_ray.pipelines.extraction import extraction_pipeline, read_pages
        from ocr_platform_ray.sources.ingest import partition_pages_by_url

        t = make_pages_table(30)
        out_dir = str(tmp_path / "parts")
        paths = partition_pages_by_url(rd.from_arrow(t), out_dir, n_shards=8)
        assert paths == sorted(glob.glob(os.path.join(out_dir, "*.parquet")))

        # invariant: each url appears in exactly one shard
        url_shards = {}
        for p in paths:
            for u in set(pq.read_table(p, columns=["url"]).column("url").to_pylist()):
                assert u not in url_shards, f"url {u} spans shards"
                url_shards[u] = p
        assert len(url_shards) == 30
        # no rows lost
        assert sum(pq.read_metadata(p).num_rows for p in paths) == t.num_rows

        # shuffle-free extraction over the repartitioned layout must be
        # byte-identical to the groupby path over the original input
        def hashes(df):
            return {
                r.url: hashlib.sha256(r.extracted_text.encode()).hexdigest()
                for r in df.itertuples()
            }

        a = extraction_pipeline(read_pages(out_dir), partitioned_input=True).to_pandas()
        b = extraction_pipeline(rd.from_arrow(t)).to_pandas()
        assert hashes(a) == hashes(b)
