"""The query registry (pipelines/queries.py) is the one list of queries:
every entry has exactly one kind of oracle, every pinning class exists, and
the bench slices are drawn from it."""

import ast
import pathlib

from ocr_platform_ray.pipelines.queries import ORACLE_SQL, PINNED_BY, QUERIES, TRACKED

REPO = pathlib.Path(__file__).resolve().parent.parent


def _test_classes() -> set[str]:
    return {
        node.name
        for p in (REPO / "tests").glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ClassDef)
    }


class TestRegistry:
    def test_every_entry_has_exactly_one_oracle_kind(self):
        both = sorted(set(ORACLE_SQL) & set(PINNED_BY))
        neither = sorted(set(QUERIES) - set(ORACLE_SQL) - set(PINNED_BY))
        assert not both and not neither, (both, neither)
        assert set(ORACLE_SQL) <= set(QUERIES)
        assert set(PINNED_BY) <= set(QUERIES)

    def test_pinning_classes_exist(self):
        missing = sorted(set(PINNED_BY.values()) - _test_classes())
        assert not missing, missing

    def test_tracked_slice(self):
        assert len(TRACKED) == len(set(TRACKED)) == 12
        assert set(TRACKED) <= set(QUERIES)

    def test_perfbench_slice_is_tracked_minus_near_dedup(self):
        # near_dedup_docs writes its oracle sidecar under /tmp, so the
        # benchmark's query slice leaves it out
        tree = ast.parse((REPO / "perfbench" / "queryslice.py").read_text())
        [node] = [
            n
            for n in tree.body
            if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "QUERIES" for t in n.targets)
        ]
        sliced = ast.literal_eval(node.value)
        assert list(sliced) == [n for n in TRACKED if n != "near_dedup_docs"]
