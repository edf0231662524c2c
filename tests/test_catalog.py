"""Catalog ingest pipeline tests (SURVEY.md §3.3: M10/M11/D2/D3/A4/M18)."""

import pandas as pd
import pytest
import ray.data as rd

from ocr_platform_ray.corpus import make_docs_meta_table, make_pages_table


@pytest.fixture(scope="module")
def meta_ds(ray_session):
    return rd.from_arrow(make_docs_meta_table(40))


@pytest.mark.usefixtures("ray_session")
class TestCatalog:
    def test_normalize_strips_star_and_parses_publishing(self, meta_ds):
        from ocr_platform_ray.pipelines.catalog import normalize_records

        out = normalize_records(meta_ds).to_pandas()
        assert not out["transliteration"].str.startswith("*").any()
        assert (out["slug"].str.len() > 0).all()
        assert (out["publisher"].notna()).all()
        assert out["publication_year"].str.match(r"\d{4}").all()

    def test_dedup_external_ref(self, meta_ds):
        from ocr_platform_ray.pipelines.catalog import dedup_external_ref

        out = dedup_external_ref(meta_ds).to_pandas()
        assert out["external_ref"].is_unique
        # generator makes every 11th url share the previous ref -> dups exist
        assert len(out) < meta_ds.count()

    def test_unique_slug_ranking_deterministic(self, ray_session):
        from ocr_platform_ray.pipelines.catalog import assign_unique_slugs

        df = pd.DataFrame(
            {
                "url": [f"u{i}" for i in range(4)],
                "slug": ["kitab", "kitab", "kitab", "other"],
                "created_at": pd.to_datetime(
                    ["2024-01-02", "2024-01-01", "2024-01-03", "2024-01-01"]
                ),
            }
        )
        out = assign_unique_slugs(rd.from_pandas(df)).to_pandas()
        by_url = out.set_index("url")["slug"]
        assert by_url["u1"] == "kitab"      # earliest created_at keeps base
        assert by_url["u0"] == "kitab-1"
        assert by_url["u2"] == "kitab-2"
        assert by_url["u3"] == "other"
        assert out["slug"].is_unique


    def test_validate_splits_against_real_page_counts(self, meta_ds):
        from ocr_platform_ray.pipelines.catalog import validate_splits

        pages = make_pages_table(40).to_pandas()
        counts = pages.groupby("url", as_index=False).agg(n_pages=("warc_ts", "size"))
        bad = validate_splits(meta_ds, counts)
        # generator writes splits = [{start: 0, end: n_pages-1}] -> all consistent
        assert len(bad) == 0

    def test_full_chain(self, meta_ds):
        from ocr_platform_ray.pipelines.catalog import catalog_ingest

        out = catalog_ingest(meta_ds).to_pandas()
        assert out["slug"].is_unique
        assert out["external_ref"].is_unique


@pytest.mark.usefixtures("ray_session")
class TestMergeWithPrevious:
    def test_prev_splits_carried_forward(self):
        from ocr_platform_ray.pipelines.catalog import merge_with_previous

        new = pd.DataFrame(
            {
                "url": ["u1", "u2", "u3"],
                "splits": [[{"start": 0, "end": 1}]] * 3,
            }
        )
        prev = pd.DataFrame(
            {
                "url": ["u1", "u2"],
                "splits": [[{"start": 0, "end": 9}], [{"start": 2, "end": 5}]],
            }
        )
        out = merge_with_previous(rd.from_pandas(new), rd.from_pandas(prev)).to_pandas()
        by_url = out.set_index("url")["splits"]
        # unchanged urls keep the PREVIOUS run's lineage (M15 semantics)
        assert list(by_url["u1"])[0]["end"] == 9
        assert list(by_url["u2"])[0]["start"] == 2
        # new url keeps its own
        assert list(by_url["u3"])[0]["end"] == 1
