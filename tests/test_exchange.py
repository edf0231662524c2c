"""The one shard exchange (ops/exchange.py): label equalities that keep
every converted site's partitioning byte-identical, the per-shard
contract, reduce-side parallelism, results that do not depend on the
shard count, and a guard against hand-rolled group-maps, a Ray
monkeypatch or a caller-chosen shard count coming back."""

import ast
import importlib.util
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

import ocr_platform_ray
from ocr_platform_ray.ops.exchange import (
    _ABSORB_BATCH_ROWS,
    SHARD,
    _hash_labels,
    exchange,
)

PKG = pathlib.Path(ocr_platform_ray.__file__).parent
REPO = PKG.parent
SF_SMOKE = "/root/testdata/sf0.001"  # TESTDATA.md: the t1 smoke tables


class TestLabels:
    def test_single_key_equals_plain_hash_mod(self):
        df = pd.DataFrame(
            {"i": np.arange(-50, 50, dtype="int64"), "s": [f"u{i}" for i in range(100)]}
        )
        for col in ("i", "s"):
            want = pd.util.hash_array(df[col].to_numpy()) % 64
            np.testing.assert_array_equal(_hash_labels(df, [col], 64), want)

    def test_arrow_strings_hash_like_pylist(self):
        # the url exchange of stages/reassemble.py: an Arrow string
        # column's to_numpy() labels exactly like np.asarray(to_pylist())
        urls = [f"https://h{i % 7}.example/{i}" for i in range(200)]
        t = pa.table({"url": pa.chunked_array([urls[:80], urls[80:]])})
        old = pd.util.hash_array(np.asarray(t.column("url").to_pylist(), dtype=object)) % 64
        np.testing.assert_array_equal(_hash_labels(t, ["url"], 64), old)
        np.testing.assert_array_equal(
            _hash_labels(t, ["url"], 64), _hash_labels(t.to_pandas(), ["url"], 64)
        )


def _stats_tasks(ds: rd.Dataset, op: str) -> int:
    for line in ds.stats().splitlines():
        if op in line and "tasks executed" in line:
            return int(line.split("tasks executed")[0].split(":")[-1])
    raise AssertionError(f"no stats line for {op}")


class TestExchange:
    def test_per_shard_contract(self, ray_session, set_shard_count):
        set_shard_count(4)
        df = pd.DataFrame({"k": [f"k{i % 9}" for i in range(90)], "v": range(90)})
        seen = []

        def per_shard(g: pd.DataFrame) -> pd.DataFrame:
            assert SHARD not in g.columns
            sid = int(_hash_labels(g.iloc[:1], ["k"], 4)[0])
            assert (_hash_labels(g, ["k"], 4) == sid).all()
            return g.groupby("k", as_index=False).agg(n=("v", "size")).assign(sid=sid)

        out = exchange(
            rd.from_pandas(df, override_num_blocks=6), "k", per_shard
        ).to_pandas()
        assert sorted(out["k"]) == sorted(df["k"].unique())
        assert (out["n"] == 10).all()
        assert out["sid"].nunique() <= 4

    def test_reduce_side_runs_many_tasks(self, ray_session):
        # 16 input blocks, 3 non-empty shards, each above a reduce task's
        # minimum row count
        rows = 3 * (_ABSORB_BATCH_ROWS + 1)
        df = pd.DataFrame({"k": np.arange(rows) % 3, "v": np.arange(rows)})

        def per_shard(g: pd.DataFrame) -> pd.DataFrame:
            return g

        out = exchange(
            rd.from_pandas(df, override_num_blocks=16),
            lambda b: b["k"].to_numpy(),
            per_shard,
        ).materialize()
        assert _stats_tasks(out, "MapBatches(per_shard)") > 1
        shapes = [ray.get(r).shape for r in out.get_internal_block_refs()]
        assert all(cols > 0 for _, cols in shapes), shapes
        assert sum(n for n, _ in shapes) == rows


class TestNoHandRolledExchanges:
    def test_map_groups_only_in_exchange(self):
        hits = []
        for path in PKG.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups"
                ):
                    hits.append(f"{path.relative_to(PKG)}:{node.lineno}")
        assert [h.split(":")[0] for h in hits] == ["ops/exchange.py"], hits

    # The defs that keep an ``n_shards`` parameter: the count is written
    # into an on-disk layout that a later reader maps back, so it belongs
    # to the caller.  Each maps to the record that pins it.
    LAYOUT_DEFS = {
        "ops/colocated.py::partition_by_key": "_layout.json",
        "sources/ingest.py::partition_pages_by_url": "pages-NNNNN.parquet names",
        "ops/search.py::build_bm25_index": "stats.json",
        "ops/search.py::bm25_index_new_partitions": "config.json",
        "ops/search.py::_term_shards": "the shard=N/ dirs of stats/config.json",
        "ops/search.py::_postings_fn": "the shard=N/ dirs of stats/config.json",
    }

    def test_no_caller_picks_a_shard_count(self):
        found = set()
        for path in PKG.rglob("*.py"):
            rel = path.relative_to(PKG).as_posix()
            if rel == "ops/exchange.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = node.args
                    params = a.posonlyargs + a.args + a.kwonlyargs
                    if any(p.arg == "n_shards" for p in params):
                        found.add(f"{rel}::{node.name}")
        assert found == set(self.LAYOUT_DEFS), sorted(found ^ set(self.LAYOUT_DEFS))

    def test_import_patches_no_ray_class(self):
        from ray.data.grouped_data import GroupedData

        fn = GroupedData.map_groups
        assert fn.__module__ == "ray.data.grouped_data"
        assert fn.__qualname__ == "GroupedData.map_groups"
        assert not hasattr(fn, "__wrapped__")


def _check_correctness():
    spec = importlib.util.spec_from_file_location(
        "check_correctness", REPO / "tools" / "check_correctness.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestShardCountFree:
    """Every query with a SQL oracle gives the oracle's values at any
    shard count: the count sets only how many ``per_shard`` calls an
    exchange makes.  1 puts every row in one shard; 7 regroups the rows
    that the default count puts together."""

    @pytest.mark.parametrize("n", [1, 7])
    def test_oracle_queries_match_duckdb(self, ray_session, set_shard_count, n):
        from ocr_platform_ray.pipelines.queries import ORACLE_SQL, QUERIES

        cc = _check_correctness()
        set_shard_count(n)
        con = cc.duckdb_views(SF_SMOKE)
        bad = []
        for name, sql in ORACLE_SQL.items():
            got = cc.to_pandas(QUERIES[name](SF_SMOKE))
            want = con.sql(sql).df()
            same_cols = sorted(got.columns) == sorted(want.columns)
            if not same_cols or cc.value_hash(got) != cc.value_hash(want):
                bad.append(name)
        assert not bad, bad
