"""Driver ≡ dataset route equivalence for the vertex-state graph family
(round-4 verdict item #3): PageRank ranks and BFS frontiers as Datasets
riding the bucketed exchange, auto-probed past the vertex/edge
threshold."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ocr_platform_ray.ops.graph import bfs_distances, pagerank


def _edges(df: pd.DataFrame, blocks: int = 4) -> rd.Dataset:
    return rd.from_pandas(df, override_num_blocks=blocks)


# a graph with hubs, a dangling node (5), a cycle, parallel edges and a
# disconnected pair — every PageRank semantic in one table
GRAPH = pd.DataFrame(
    {
        "src": [1, 1, 2, 3, 3, 4, 4, 1, 10, 2, 2],
        "dst": [2, 3, 3, 1, 4, 1, 5, 2, 11, 4, 4],
    }
)


class TestPagerankRoutes:
    def test_dataset_route_matches_driver(self, ray_session):
        drv = pagerank(_edges(GRAPH), n_iter=15, route="driver")
        ds = pagerank(_edges(GRAPH), n_iter=15, route="dataset")
        assert isinstance(ds, rd.Dataset)
        got = ds.to_pandas().sort_values("node").reset_index(drop=True)
        got["node"] = got["node"].astype("int64")
        merged = drv.merge(got, on="node", suffixes=("_drv", "_ds"))
        assert len(merged) == len(drv) == len(got)
        np.testing.assert_allclose(
            merged["rank_drv"], merged["rank_ds"], rtol=1e-9, atol=1e-12
        )
        # ranks are a distribution either way
        assert abs(got["rank"].sum() - 1.0) < 1e-9

    def test_personalized_dataset_route(self, ray_session):
        pers = {1: 2.0, 3: 1.0, 999: 5.0}  # 999 absent -> renormalizes away
        drv = pagerank(_edges(GRAPH), n_iter=12, personalization=pers, route="driver")
        ds = pagerank(
            _edges(GRAPH), n_iter=12, personalization=pers, route="dataset",
        )
        got = ds.to_pandas().sort_values("node").reset_index(drop=True)
        got["node"] = got["node"].astype("int64")
        merged = drv.merge(got, on="node", suffixes=("_drv", "_ds"))
        assert len(merged) == len(drv)
        np.testing.assert_allclose(
            merged["rank_drv"], merged["rank_ds"], rtol=1e-9, atol=1e-12
        )

    def test_auto_probe_picks_dataset_past_threshold(self, ray_session):
        out = pagerank(
            _edges(GRAPH), n_iter=3, route="auto", driver_threshold_rows=4
        )
        assert isinstance(out, rd.Dataset)
        small = pagerank(_edges(GRAPH), n_iter=3, route="auto")
        assert isinstance(small, pd.DataFrame)


class TestBfsRoutes:
    def test_dataset_route_matches_driver(self, ray_session):
        drv = bfs_distances(_edges(GRAPH), [1], route="driver")
        ds = bfs_distances(_edges(GRAPH), [1], route="dataset")
        assert isinstance(ds, rd.Dataset)
        got = (
            ds.to_pandas()
            .astype({"node": "int64", "dist": "int64"})
            .sort_values(["dist", "node"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, drv)

    def test_undirected_and_seed_only(self, ray_session):
        # seed 11 reaches 10 only undirected; seed 42 is not in the graph
        drv = bfs_distances(_edges(GRAPH), [11, 42], directed=False, route="driver")
        ds = bfs_distances(
            _edges(GRAPH), [11, 42], directed=False, route="dataset"
        )
        got = (
            ds.to_pandas()
            .astype({"node": "int64", "dist": "int64"})
            .sort_values(["dist", "node"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, drv)
        assert set(got["node"]) == {10, 11, 42}

    def test_max_hops_zero_and_auto(self, ray_session):
        ds = bfs_distances(_edges(GRAPH), [3], max_hops=0, route="dataset")
        got = ds.to_pandas()
        assert got["node"].tolist() == [3] and got["dist"].tolist() == [0]
        auto = bfs_distances(
            _edges(GRAPH), [1], route="auto", driver_threshold_rows=4
        )
        assert isinstance(auto, rd.Dataset)
        small = bfs_distances(_edges(GRAPH), [1], route="auto")
        assert isinstance(small, pd.DataFrame)


class TestHitsRoutes:
    def test_dataset_route_matches_driver(self, ray_session):
        from ocr_platform_ray.ops.graph import hits

        drv = hits(_edges(GRAPH), n_iter=10, route="driver")
        ds = hits(_edges(GRAPH), n_iter=10, route="dataset")
        assert isinstance(ds, rd.Dataset)
        got = ds.to_pandas().sort_values("node").reset_index(drop=True)
        got["node"] = got["node"].astype("int64")
        merged = drv.merge(got, on="node", suffixes=("_drv", "_ds"))
        assert len(merged) == len(drv) == len(got)
        np.testing.assert_allclose(merged["hub_drv"], merged["hub_ds"], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            merged["authority_drv"], merged["authority_ds"], rtol=1e-9, atol=1e-12
        )

    def test_auto_probe(self, ray_session):
        from ocr_platform_ray.ops.graph import hits

        out = hits(_edges(GRAPH), n_iter=2, route="auto", driver_threshold_rows=4)
        assert isinstance(out, rd.Dataset)
        small = hits(_edges(GRAPH), n_iter=2, route="auto")
        assert isinstance(small, pd.DataFrame)
