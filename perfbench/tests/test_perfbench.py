"""Tests of the benchmark itself: seeded inputs, class mix and the output
checks.  Run with ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import dataclasses
import os
import sys

import pandas as pd
import pyarrow.parquet as pq
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH_DIR, os.path.dirname(BENCH_DIR)]

from checks import check_docs  # noqa: E402
from inputs import (  # noqa: E402
    CLASSES,
    N_FILES,
    WORKLOADS,
    compute_reference,
    expected_failed_pages,
    url_class,
    write_corpus,
)
import queryslice  # noqa: E402

SMALL = dataclasses.replace(WORKLOADS["mixed_shuffle"], n_urls=30)


def _file_bytes(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


def test_same_seed_same_bytes(tmp_path):
    write_corpus(SMALL, 5, str(tmp_path / "a"))
    write_corpus(SMALL, 5, str(tmp_path / "b"))
    write_corpus(SMALL, 6, str(tmp_path / "c"))
    a = _file_bytes(str(tmp_path / "a"))
    assert len(a) == N_FILES
    assert a == _file_bytes(str(tmp_path / "b"))
    assert a != _file_bytes(str(tmp_path / "c"))


def _page_count(d: str) -> int:
    return sum(pq.ParquetFile(os.path.join(d, n)).metadata.num_rows for n in os.listdir(d))


def test_seed_keeps_job_size(tmp_path):
    sizes = set()
    for seed in (1, 2, 3):
        write_corpus(SMALL, seed, str(tmp_path / str(seed)))
        sizes.add(_page_count(str(tmp_path / str(seed))))
    assert len(sizes) == 1


def test_shuffled_rows_keep_urls_in_one_file(tmp_path):
    write_corpus(SMALL, 5, str(tmp_path))
    owner: dict[str, str] = {}
    in_order = True
    for name in sorted(os.listdir(tmp_path)):
        urls = pq.read_table(tmp_path / name, columns=["url"]).column("url").to_pylist()
        in_order &= urls == sorted(urls)
        for u in urls:
            assert owner.setdefault(u, name) == name
    assert not in_order  # the seeded shuffle did reorder rows


def _page_shares(workload) -> dict[str, float]:
    from ocr_platform_ray.corpus import n_pages_for

    pages = {c: 0 for c in CLASSES}
    for u in workload.url_indices():
        pages[url_class(u)] += n_pages_for(u)
    total = sum(pages.values())
    return {c: n / total for c, n in pages.items()}


def test_class_shares():
    mixed = _page_shares(WORKLOADS["mixed_shuffle"])
    assert mixed["html"] == pytest.approx(0.84, abs=0.02)
    assert mixed["pdf"] == pytest.approx(0.08, abs=0.02)
    assert mixed["scanned"] == pytest.approx(0.08, abs=0.02)
    assert _page_shares(WORKLOADS["html_aligned"])["html"] == 1.0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A tiny corpus, its reference and the doc rows the job's own
    in-process stages produce for it."""
    import pyarrow as pa

    from ocr_platform_ray.stages.extract import ExtractPages
    from ocr_platform_ray.stages.reassemble import _docs_from_block

    d = str(tmp_path_factory.mktemp("pages"))
    write_corpus(SMALL, 3, d)
    ref = compute_reference(d)
    ref["expected_failed_pages"] = expected_failed_pages(SMALL.url_indices())
    pages = pa.concat_tables(
        pq.read_table(os.path.join(d, n), columns=["url", "warc_ts", "html", "text"])
        for n in sorted(os.listdir(d))
    )
    rows = _docs_from_block(ExtractPages()(pages)).select(
        ["url", "extracted_text", "n_failed_pages"]
    ).to_pylist()
    return ref, rows


def test_clean_output_passes(small_run):
    ref, rows = small_run
    assert ref["expected_failed_pages"] == 1 == ref["failed_pages"]
    assert len(rows) == SMALL.n_urls
    assert check_docs(rows, ref) == []


def _corrupt_text(rows):
    rows[4] = dict(rows[4], extracted_text=rows[4]["extracted_text"] + " ")


def _duplicate(rows):
    rows.append(dict(rows[0]))


def _drop(rows):
    del rows[7]


def _fail_page(rows):
    rows[0] = dict(rows[0], n_failed_pages=rows[0]["n_failed_pages"] + 1)


@pytest.mark.parametrize("corrupt", [_corrupt_text, _duplicate, _drop, _fail_page])
def test_corrupted_output_fails(small_run, corrupt):
    ref, rows = small_run
    rows = list(rows)
    corrupt(rows)
    assert len(check_docs(rows, ref)) == 1


@pytest.fixture(scope="module")
def slice_tables(tmp_path_factory):
    """The query-slice tables, and oracle results standing in for a
    correct program's output."""
    import duckdb

    from ocr_platform_ray.pipelines.queries import ORACLE_SQL

    d = str(tmp_path_factory.mktemp("tables"))
    pairs = queryslice.write_tables(d)
    con = duckdb.connect()
    for t in queryslice.TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{d}/{t}.parquet')")
    results = {n: con.sql(ORACLE_SQL[n]).df() for n in queryslice.QUERIES if n in ORACLE_SQL}
    a, b = zip(*pairs)
    results["minhash_dup_pairs"] = pd.DataFrame({"id_a": a, "id_b": b})
    return d, pairs, results


def test_tables_are_seeded():
    a, b = queryslice.make_tables(), queryslice.make_tables()
    assert a["near_pairs"] == b["near_pairs"]
    assert list(a["tables"]["documents"]["text"]) == list(b["tables"]["documents"]["text"])
    assert len(a["near_pairs"]) == queryslice.N_NEAR_DUPS


def test_clean_query_results_pass(slice_tables):
    d, pairs, results = slice_tables
    assert queryslice.check_results(results, d, pairs) == []


def _drop_row(df):
    return df.iloc[1:]


def _bump_value(df):
    df = df.copy()
    col = df.select_dtypes("number").columns[-1]
    df.loc[df.index[0], col] += 1
    return df


@pytest.mark.parametrize("name", ["tpch_q1", "event_sessions", "minhash_dup_pairs"])
@pytest.mark.parametrize("corrupt", [_drop_row, _bump_value])
def test_corrupted_query_result_fails(slice_tables, name, corrupt):
    d, pairs, results = slice_tables
    bad = dict(results, **{name: corrupt(results[name])})
    assert len(queryslice.check_results(bad, d, pairs)) == 1
