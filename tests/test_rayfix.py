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
* ``cogroup`` (ops/exchange.py), the two-sided exchange every join,
  semi/anti filter, set operation and span/interval co-group runs
  through, pads both sides to ONE block schema with typed placeholders,
  so the exchange never sees two different schemas and each side's
  ``per_shard`` frame keeps its own dtypes.

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
    _semi_anti_bucketed,
    asof_join,
    bucketed_hash_join,
    dataset_set_op,
    sharded_group_agg,
)
from ocr_platform_ray.ops.dedup import dup_clusters, dup_clusters_distributed
from ocr_platform_ray.ops.exchange import (
    SHARD,
    _hash_labels,
    _pad_typed,
    cogroup,
    exchange,
)


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

    @staticmethod
    def _sites():
        """Each converted co-group site on a small fixture spread over
        many blocks: name -> (Dataset builder, expected output dtypes)."""
        from ocr_platform_ray.ops.c4 import c4_span_dedup
        from ocr_platform_ray.ops.decontam import contamination_counts
        from ocr_platform_ray.ops.graph import link_prediction_scores
        from ocr_platform_ray.ops.interval import interval_join
        from ocr_platform_ray.ops.spans import strip_duplicated_spans

        ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 01:00", "2024-01-01 02:00"])
        events = pd.DataFrame({"k": [1, 2, 1], "ts": ts.astype("datetime64[us]"), "n": [1, 2, 3]})
        signups = pd.DataFrame({"k": [1, 3], "ts": ts[:2].astype("datetime64[us]"), "v": [7, 8]})
        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": ["a b c d e", "x a b c d", "p q r s", "a b c d e"],
                "n": [10, 11, 12, 13],
                "ok": [True, False, True, False],
            }
        )
        sents = docs.assign(text=["A. B. C. D.", "A. B. C. X.", "P. Q.", "Z. A. B. C."])

        def ds(df, n=3):
            return rd.from_pandas(df, override_num_blocks=n)

        return {
            "asof_join": (
                lambda: asof_join(ds(events), ds(signups), key="k", ts="ts", right_cols=["v"]),
                {"k": "int64", "ts": "datetime64[us]", "n": "int64", "v": "float64"},
            ),
            "dataset_set_op": (
                lambda: dataset_set_op(ds(docs), ds(docs.iloc[1:]), ["doc_id", "n"], "except"),
                {"doc_id": "int64", "n": "int64"},
            ),
            "interval_join": (
                lambda: interval_join(
                    ds(pd.DataFrame({"p": [1, 5, 9], "pid": [0, 1, 2]})),
                    ds(pd.DataFrame({"s": [0, 4], "e": [6, 10], "iid": [7, 8]})),
                    point_col="p", start_col="s", end_col="e",
                    point_cols=["p", "pid"], interval_cols=["iid"], n_buckets=4,
                ),
                {"p": "int64", "pid": "int64", "iid": "int64"},
            ),
            "contamination_counts": (
                lambda: contamination_counts(
                    ds(docs), ds(docs.iloc[:1], 1), id_col="doc_id", text_col="text",
                    n=3, method="bucketed",
                ),
                {"doc_id": "int64", "n_shared_grams": "int64"},
            ),
            "strip_duplicated_spans": (
                lambda: strip_duplicated_spans(
                    ds(docs), "text", "doc_id", width=3, min_count=2, method="bucketed"
                ),
                {"doc_id": "int64", "text": "object", "n": "int64", "ok": "bool"},
            ),
            "c4_span_dedup": (
                lambda: c4_span_dedup(ds(sents), "text", "doc_id", width=3, method="bucketed"),
                {"doc_id": "int64", "text": "object", "n": "int64", "ok": "bool"},
            ),
            "link_prediction_scores": (
                lambda: link_prediction_scores(
                    ds(pd.DataFrame({"src": [1, 1, 2, 3], "dst": [2, 3, 4, 4]})),
                    as_dataset=True,
                ),
                {"u": "int64", "v": "int64", "cn": "int64", "aa": "float64"},
            ),
        }

    @pytest.mark.parametrize(
        "site",
        [
            "asof_join",
            "dataset_set_op",
            "interval_join",
            "contamination_counts",
            "strip_duplicated_spans",
            "c4_span_dedup",
            "link_prediction_scores",
        ],
    )
    def test_cogroup_sites_typed_blocks(self, ray_session, site):
        build, dtypes = self._sites()[site]
        out = build()
        _assert_typed_blocks(out)
        got = out.to_pandas()
        assert len(got) > 0
        assert {c: str(t) for c, t in got.dtypes.items()} == dtypes

    def test_fuzzy_exchange_blocking_dtypes(self, ray_session):
        from ocr_platform_ray.ops.fuzzy import fuzzy_join_lev

        names = pd.DataFrame({"id": [1, 2, 3], "name": ["kitten", "sitting", "mitten"]})
        got = fuzzy_join_lev(
            rd.from_pandas(names, override_num_blocks=3),
            rd.from_pandas(names, override_num_blocks=2),
            max_dist=2, blocking="exchange",
        )
        assert {c: str(t) for c, t in got.dtypes.items()} == {
            "id_l": "int64", "id_r": "int64", "lev_dist": "int64"
        }
        assert (1, 3) in set(zip(got["id_l"], got["id_r"]))

    # one dtype of each kind Arrow hands pandas, on both sides
    LEFT = pd.DataFrame(
        {
            "k": [1, 2, 3, 4, 5, 6],
            "i": [1, 2, 3, 4, 5, 6],
            "b": [True, False, True, False, True, False],
            "t": pd.to_datetime(["2024-01-01"] * 6).astype("datetime64[us]"),
            "s": list("abcdef"),
            "f": [1.0, np.nan, 2.0, 3.0, np.nan, 4.0],
        }
    )
    RIGHT = pd.DataFrame({"k": [4, 5, 6, 7, 8, 9], "i": [40, 50, 60, 70, 80, 90], "x": [True] * 6})

    @pytest.mark.parametrize("n", [1, 7])
    def test_cogroup_sides_keep_their_dtypes(self, ray_session, set_shard_count, n):
        def summary(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "lk": [tuple(sorted(l["k"]))],
                    "rk": [tuple(sorted(r["k"]))],
                    "ldt": [str(dict(l.dtypes.astype(str)))],
                    "rdt": [str(dict(r.dtypes.astype(str)))],
                }
            )

        set_shard_count(n)
        out = cogroup(
            rd.from_pandas(self.LEFT, override_num_blocks=3),
            rd.from_pandas(self.RIGHT, override_num_blocks=2),
            "k",
            summary,
        ).to_pandas()
        want_l = str({"k": "int64", "i": "int64", "b": "bool", "t": "datetime64[us]",
                      "s": "object", "f": "float64"})
        want_r = str({"k": "int64", "i": "int64", "x": "bool"})
        assert set(out["ldt"]) == {want_l} and set(out["rdt"]) == {want_r}
        # the shards are exactly the key hash's groups, each side apart
        shard_l = _hash_labels(self.LEFT, ["k"], n)
        shard_r = _hash_labels(self.RIGHT, ["k"], n)
        want = {
            (tuple(sorted(self.LEFT["k"][shard_l == s])), tuple(sorted(self.RIGHT["k"][shard_r == s])))
            for s in set(shard_l) | set(shard_r)
        }
        assert set(zip(out["lk"], out["rk"])) == want
        if n == 7:  # both kinds of shard occur: two-sided and one-sided
            assert any(l and r for l, r in want) and any(not l or not r for l, r in want)

    def test_cogroup_blockless_side(self, ray_session):
        blockless = rd.from_pandas(self.RIGHT.iloc[:0]).map_batches(
            lambda b: b, batch_format="pandas"
        )
        assert blockless.schema() is None
        seen = cogroup(
            rd.from_pandas(self.LEFT, override_num_blocks=3),
            blockless,
            "k",
            lambda l, r: pd.DataFrame({"nl": [len(l)], "rshape": [str(r.shape)]}),
        ).to_pandas()
        assert seen["nl"].sum() == len(self.LEFT)
        assert set(seen["rshape"]) == {"(0, 0)"}

    def test_cogroup_prelabelled_replication(self, ray_session):
        # key=None: each side carries SHARD; one left row sits in two shards
        left = pd.DataFrame({"x": [1, 1, 2], SHARD: [0, 1, 1]})
        right = pd.DataFrame({"y": [10, 11], SHARD: [0, 1]})
        out = cogroup(
            rd.from_pandas(left, override_num_blocks=2),
            rd.from_pandas(right),
            None,
            lambda l, r: pd.DataFrame(
                {
                    "xs": [tuple(sorted(l["x"]))],
                    "y": [int(r["y"].iloc[0])],
                    "cols": [tuple(l.columns) + tuple(r.columns)],
                }
            ),
        ).to_pandas()
        got = {int(y): xs for y, xs in zip(out["y"], out["xs"])}
        assert got == {10: (1,), 11: (1, 2)}
        assert set(out["cols"]) == {("x", "y")}

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
