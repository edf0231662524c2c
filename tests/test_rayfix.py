"""Typed-block hygiene on the sort-based exchanges (ops/exchange.py +
padded unions), and canaries for the Ray internals it relies on.

Ray's sort shuffle emits column-less ``(0, 0)`` pandas blocks for empty
partitions, and ``map_batches`` passes them through without calling the
UDF — so every group-map would leak ``PandasBlockSchema(names=[])``
bundles into downstream operators.  These tests pin the two fixes:

* ``exchange`` fuses a numeric-batch-size identity behind its group map:
  the batcher drops empty blocks inside any task that also holds rows,
  and the sort's last range always holds the maximum key, so no reduce
  task is all-empty.
* ``bucketed_hash_join`` / ``_semi_anti_bucketed`` pad both union sides to
  ONE block schema with typed sentinels (``_pad_typed``), so the exchange
  never sees two different schemas and int columns never upcast.

The ``TestRayInternals`` canaries fail loudly if a Ray upgrade changes
any of those behaviours, or the read fusion ``extract_pages_ds`` relies
on.
"""

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data as rd

from ocr_platform_ray.ops.relational import (
    _pad_typed,
    _semi_anti_bucketed,
    bucketed_hash_join,
    sharded_group_agg,
)
from ocr_platform_ray.ops.dedup import dup_clusters, dup_clusters_distributed
from ocr_platform_ray.ops.exchange import exchange


def _block_shapes(ds: rd.Dataset) -> list[tuple]:
    m = ds.materialize()
    out = []
    for ref in m.get_internal_block_refs():
        b = ray.get(ref)
        if isinstance(b, pd.DataFrame):
            out.append((b.shape[0], list(b.columns)))
        else:  # pyarrow.Table
            out.append((b.num_rows, list(b.schema.names)))
    return out


def _assert_typed_blocks(ds: rd.Dataset):
    shapes = _block_shapes(ds)
    assert shapes, "dataset produced no blocks"
    for n, cols in shapes:
        assert cols != [], f"column-less block leaked (rows={n}): {shapes}"
    # every block shares one schema (order included)
    schemas = {tuple(cols) for _, cols in shapes}
    assert len(schemas) == 1, f"blocks disagree on schema: {schemas}"


class TestMapGroupsAbsorber:
    def test_empty_partitions_absorbed(self, ray_session):
        # 8 blocks, 2 groups -> >= 6 empty sort partitions without the fix
        ds = rd.from_pandas(
            pd.DataFrame({"k": [1, 1, 2, 2], "v": [1.0, 2.0, 3.0, 4.0]}),
            override_num_blocks=8,
        )
        # label == key, so each shard is one group
        out = exchange(
            ds, lambda b: b["k"].to_numpy(), lambda g: g.assign(s=g["v"].sum())
        )
        _assert_typed_blocks(out)
        got = out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        assert got["s"].tolist() == [3.0, 3.0, 7.0, 7.0]

    def test_pyarrow_groups_stay_arrow(self, ray_session):
        import pyarrow as pa

        ds = rd.from_pandas(
            pd.DataFrame({"k": [5, 6, 6], "v": [1, 2, 3]}), override_num_blocks=4
        )
        out = exchange(
            ds, lambda b: b["k"].to_numpy(), lambda t: t.select(["k", "v"]),
            batch_format="pyarrow",
        )
        m = out.materialize()
        blocks = [ray.get(r) for r in m.get_internal_block_refs()]
        assert all(isinstance(b, pa.Table) for b in blocks)
        _assert_typed_blocks(out)

    def test_sharded_group_agg_typed(self, ray_session):
        ds = rd.from_pandas(
            pd.DataFrame({"g": ["a", "a", "b"], "x": [1, 2, 3]}),
            override_num_blocks=6,
        )
        out = sharded_group_agg(ds, ["g"], {"sx": ("x", "sum")})
        _assert_typed_blocks(out)
        got = out.to_pandas().sort_values("g").reset_index(drop=True)
        assert got["sx"].tolist() == [3, 3]


class TestRayInternals:
    """Canaries: the Ray behaviours ``exchange``'s absorber rests on."""

    @staticmethod
    def _sorted():
        # 2 keys over 8 blocks -> 8 sort ranges, most of them empty
        ds = rd.from_pandas(
            pd.DataFrame({"k": [5] * 10 + [9] * 10, "v": range(20)}),
            override_num_blocks=8,
        )
        return ds.sort("k").materialize()

    def test_sort_emits_columnless_empty_blocks(self, ray_session):
        shapes = _block_shapes(self._sorted())
        assert (0, []) in shapes, shapes
        # the last range holds the max key: no trailing empty reduce task
        assert shapes[-1][0] > 0, shapes

    def test_map_batches_passes_empty_block_without_udf(self, ray_session):
        def strict(b):
            assert len(b) > 0, "UDF called on an empty block"
            return b

        out = self._sorted().map_batches(
            strict, batch_size=None, batch_format=None
        )
        assert (0, []) in _block_shapes(out)

    def test_numeric_batch_size_drops_empty_blocks(self, ray_session):
        out = self._sorted().map_batches(
            lambda b: b, batch_size=4096, batch_format=None
        )
        shapes = _block_shapes(out)
        assert all(cols for _, cols in shapes), shapes
        assert sum(n for n, _ in shapes) == 20

    def test_all_empty_task_still_emits_columnless_block(self, ray_session):
        # why the absorber needs the sort's non-empty last range: a task
        # fed ONLY empty blocks emits one column-less block of its own
        two = rd.from_pandas([pd.DataFrame({"v": [1]}), pd.DataFrame()])
        out = two.map_batches(lambda b: b, batch_size=1, batch_format=None)
        assert sorted(_block_shapes(out)) == [(0, []), (1, ["v"])]

    def test_read_fuses_only_with_whole_block_map(self, ray_session, tmp_path, plan_ops):
        # extract_pages_ds rests on this: a numeric batch_size on the first
        # map after a read keeps the read a separate operator, so every
        # read block crosses the object store
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(pa.table({"v": [1, 2, 3]}), str(tmp_path / "a.parquet"))
        # one block per file: a read that splits its files (SplitBlocks)
        # fuses with nothing either
        read = rd.read_parquet(str(tmp_path), override_num_blocks=1)

        def f(b):
            return b

        assert plan_ops(read.map_batches(f, batch_size=None)) == ["ReadParquet->MapBatches(f)"]
        assert plan_ops(read.map_batches(f, batch_size=256)) == ["ReadParquet", "MapBatches(f)"]


class TestPaddedUnionJoin:
    def test_bucketed_join_typed_blocks_and_dtypes(self, ray_session):
        left = rd.from_pandas(
            pd.DataFrame({"k": [1, 2, 3], "lx": [10, 20, 30]}),
            override_num_blocks=3,
        )
        right = rd.from_pandas(
            pd.DataFrame({"k": [2, 3, 4], "rx": [200, 300, 400], "lx": [9, 9, 9]}),
            override_num_blocks=3,
        )
        out = bucketed_hash_join(left, right, "k")
        _assert_typed_blocks(out)
        got = out.to_pandas().sort_values("k").reset_index(drop=True)
        assert got.columns.tolist() == ["k", "lx", "rx", "r_lx"]
        assert got["k"].tolist() == [2, 3]
        assert got["rx"].tolist() == [200, 300]
        # int columns stay int end-to-end (padding is typed, no NaN upcast)
        assert str(got["lx"].dtype) == "int64"
        assert str(got["rx"].dtype) == "int64"

    def test_semi_anti_typed_blocks(self, ray_session):
        data = rd.from_pandas(
            pd.DataFrame({"u": ["a", "b", "c"], "n": [1, 2, 3]}),
            override_num_blocks=3,
        )
        keys = rd.from_pandas(pd.DataFrame({"u": ["b"]}), override_num_blocks=2)
        semi = _semi_anti_bucketed(data, keys, "u", True)
        anti = _semi_anti_bucketed(data, keys, "u", False)
        _assert_typed_blocks(semi)
        _assert_typed_blocks(anti)
        assert semi.to_pandas()["u"].tolist() == ["b"]
        assert sorted(anti.to_pandas()["u"]) == ["a", "c"]

    def test_pad_typed_dtypes(self):
        df = pd.DataFrame({"a": [1, 2]})
        out = _pad_typed(
            df.copy(),
            {
                "i": "int64",
                "f": "float64",
                "o": "object",
                "t": "datetime64[us]",
                "b": "bool",
            },
        )
        assert str(out["i"].dtype) == "int64"
        assert str(out["f"].dtype) == "float64"
        assert str(out["o"].dtype) == "object"
        assert str(out["t"].dtype) == "datetime64[us]"
        assert str(out["b"].dtype) == "bool"
        assert out["t"].isna().all()


class TestLabelPropagationTyped:
    def test_zero_row_pairs(self, ray_session):
        # zero-row pair list: every shard empty end-to-end; the loop must
        # still converge and return an EMPTY but well-formed labeling
        pairs = rd.from_pandas(
            pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")})
        )
        out = dup_clusters_distributed(pairs, as_dataset=False)
        assert list(out.columns) == ["id", "cluster_id"]
        assert len(out) == 0

    def test_sparse_shards_match_driver(self, ray_session):
        # 3 edges over 64 shards -> most shards empty every round
        pairs_df = pd.DataFrame({"id_a": [1, 2, 10], "id_b": [2, 3, 11]})
        pairs = rd.from_pandas(pairs_df, override_num_blocks=3)
        dist = dup_clusters_distributed(pairs, as_dataset=True)
        _assert_typed_blocks(dist)
        got = (
            dist.to_pandas()
            .astype({"id": "int64", "cluster_id": "int64"})
            .sort_values("id")
            .reset_index(drop=True)
        )
        exact = dup_clusters(pairs_df)
        pd.testing.assert_frame_equal(got, exact)
