"""Typed-block hygiene on the sort-based exchanges (_rayfix + padded
unions).

Ray's sort shuffle emits column-less ``(0, 0)`` pandas blocks for empty
partitions, and ``map_batches`` passes them through without calling the
UDF — so before round 5 every map_groups exchange leaked
``PandasBlockSchema(names=[])`` bundles into downstream operators (the
round-4 verdict's item #2, seen from the ``__cur``/``__shard``
label-propagation pipeline).  These tests pin the two fixes:

* ``_rayfix.apply()`` (package import) appends a fused batcher identity to
  every ``groupby().map_groups`` — the batcher drops empty blocks, and a
  task whose input was all-empty emits no block at all.
* ``bucketed_hash_join`` / ``_semi_anti_bucketed`` pad both union sides to
  ONE block schema with typed sentinels (``_pad_typed``), so the exchange
  never sees two different schemas and int columns never upcast.
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
        out = ds.groupby("k").map_groups(
            lambda g: g.assign(s=g["v"].sum()), batch_format="pandas"
        )
        _assert_typed_blocks(out)
        got = out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        assert got["s"].tolist() == [3.0, 3.0, 7.0, 7.0]

    def test_pyarrow_groups_stay_arrow(self, ray_session):
        import pyarrow as pa

        ds = rd.from_pandas(
            pd.DataFrame({"k": [5, 6, 6], "v": [1, 2, 3]}), override_num_blocks=4
        )
        out = ds.groupby("k").map_groups(
            lambda t: t.select(["k", "v"]), batch_format="pyarrow"
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
        out = sharded_group_agg(ds, ["g"], {"sx": ("x", "sum")}, n_shards=16)
        _assert_typed_blocks(out)
        got = out.to_pandas().sort_values("g").reset_index(drop=True)
        assert got["sx"].tolist() == [3, 3]


    def test_wrapper_forwards_positional_args(self, monkeypatch):
        # the wrapper must accept every call the wrapped method accepts
        from ray.data.grouped_data import GroupedData

        from ocr_platform_ray import _rayfix

        calls = []

        class _Out:
            def map_batches(self, fn, **kwargs):
                calls.append(("absorb", kwargs["batch_size"]))
                return "absorbed"

        def fake_map_groups(self, fn, *args, **kwargs):
            calls.append((fn, args, kwargs))
            return _Out()

        monkeypatch.setattr(GroupedData, "map_groups", fake_map_groups)
        monkeypatch.setattr(_rayfix, "_APPLIED", False)
        _rayfix.apply()
        got = GroupedData.map_groups(None, len, "tasks", "pandas", num_cpus=1)
        assert got == "absorbed"
        assert calls == [
            (len, ("tasks", "pandas"), {"num_cpus": 1}),
            ("absorb", _rayfix._ABSORB_BATCH_ROWS),
        ]


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
        out = bucketed_hash_join(left, right, "k", n_buckets=8)
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
        semi = _semi_anti_bucketed(data, keys, "u", True, 8)
        anti = _semi_anti_bucketed(data, keys, "u", False, 8)
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
        out = dup_clusters_distributed(pairs, n_shards=8, as_dataset=False)
        assert list(out.columns) == ["id", "cluster_id"]
        assert len(out) == 0

    def test_sparse_shards_match_driver(self, ray_session):
        # 3 edges over 64 shards -> most shards empty every round
        pairs_df = pd.DataFrame({"id_a": [1, 2, 10], "id_b": [2, 3, 11]})
        pairs = rd.from_pandas(pairs_df, override_num_blocks=3)
        dist = dup_clusters_distributed(pairs, n_shards=64, as_dataset=True)
        _assert_typed_blocks(dist)
        got = (
            dist.to_pandas()
            .astype({"id": "int64", "cluster_id": "int64"})
            .sort_values("id")
            .reset_index(drop=True)
        )
        exact = dup_clusters(pairs_df)
        pd.testing.assert_frame_equal(got, exact)
