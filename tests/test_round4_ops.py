"""Round-4 operator tests: scale-safe representative filtering
(clusters="auto" / Dataset-native labels + bucketed anti-join losers),
the as_dataset minhash pair route, list-column freeze/thaw for the
pandas exchanges, and the fully-distributed curation chain."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def _sorted(df: pd.DataFrame, by) -> pd.DataFrame:
    return df.sort_values(by).reset_index(drop=True)


@pytest.fixture()
def giant_cluster_docs():
    """60% of the corpus is ONE near-dup cluster (a template with tiny
    per-doc noise) — the worst case for driver-side cluster resolution:
    pair list ~ O(cluster^2 / bands), loser set ~ corpus-sized."""
    rng = np.random.RandomState(11)
    base = "the quick brown fox jumps over the lazy dog and runs far away tonight " * 3
    texts, ids = [], []
    for i in range(50):
        if i < 30:  # the giant cluster: one word appended varies
            texts.append(base + f"tail{i % 3}")
        else:  # singletons
            words = [f"w{rng.randint(1000)}" for _ in range(30)]
            texts.append(" ".join(words))
        ids.append(i)
    return pd.DataFrame({"doc_id": ids, "text": texts})


@pytest.mark.usefixtures("ray_session")
class TestKeepRepresentativesAuto:
    def test_auto_matches_driver_both_sides_of_threshold(self, giant_cluster_docs):
        from ocr_platform_ray.ops.dedup import (
            dedup_keep_representatives,
            minhash_lsh_duplicates,
        )

        ds = rd.from_pandas(giant_cluster_docs)
        pairs = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.7)
        assert len(pairs) > 10  # the giant cluster produced a real pair list
        want = _sorted(
            dedup_keep_representatives(ds, pairs, "doc_id").to_pandas(), "doc_id"
        )
        # auto below threshold -> driver route (probe IS the pair table)
        got_small = _sorted(
            dedup_keep_representatives(
                ds, rd.from_pandas(pairs), "doc_id", clusters="auto"
            ).to_pandas(),
            "doc_id",
        )
        pd.testing.assert_frame_equal(got_small, want)
        # auto past threshold -> distributed labels + bucketed anti-join
        got_big = _sorted(
            dedup_keep_representatives(
                ds,
                rd.from_pandas(pairs),
                "doc_id",
                clusters="auto",
                driver_threshold_rows=3,
            ).to_pandas(),
            "doc_id",
        )
        pd.testing.assert_frame_equal(got_big, want)

    def test_distributed_route_string_ids(self):
        from ocr_platform_ray.ops.dedup import dedup_keep_representatives

        docs = pd.DataFrame({"url": [f"u{i:03d}" for i in range(20)], "v": range(20)})
        pairs = pd.DataFrame(
            {"id_a": ["u001", "u005", "u010"], "id_b": ["u002", "u006", "u011"]}
        )
        want = _sorted(
            dedup_keep_representatives(rd.from_pandas(docs), pairs, "url").to_pandas(),
            "url",
        )
        got = _sorted(
            dedup_keep_representatives(
                rd.from_pandas(docs), rd.from_pandas(pairs), "url", clusters="distributed"
            ).to_pandas(),
            "url",
        )
        pd.testing.assert_frame_equal(got, want)

    def test_auto_empty_pairs_dataset_is_identity(self):
        from ocr_platform_ray.ops.dedup import dedup_keep_representatives

        docs = pd.DataFrame({"doc_id": range(10), "x": range(10)})
        empty = rd.from_pandas(
            pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")})
        )
        kept = dedup_keep_representatives(
            rd.from_pandas(docs), empty, "doc_id", clusters="auto"
        )
        assert kept.count() == 10

    def test_labels_as_dataset_matches_pandas_route(self):
        from ocr_platform_ray.ops.dedup import dup_clusters_distributed

        pairs = pd.DataFrame(
            {"id_a": [1, 2, 10, 11, 20], "id_b": [2, 3, 11, 12, 21]}
        )
        want = dup_clusters_distributed(rd.from_pandas(pairs))
        got_ds = dup_clusters_distributed(rd.from_pandas(pairs), as_dataset=True)
        assert isinstance(got_ds, rd.Dataset)
        got = (
            got_ds.to_pandas()
            .astype({"id": "int64", "cluster_id": "int64"})
            .sort_values("id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
class TestMinhashAsDataset:
    def test_pairs_match_pandas_route(self, giant_cluster_docs):
        from ocr_platform_ray.ops.dedup import minhash_lsh_duplicates

        ds = rd.from_pandas(giant_cluster_docs)
        want = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.7, verify="bucketed")
        got_ds = minhash_lsh_duplicates(ds, "text", "doc_id", threshold=0.7, as_dataset=True)
        assert isinstance(got_ds, rd.Dataset)
        got = (
            got_ds.to_pandas()
            .astype({"id_a": "int64", "id_b": "int64"})
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
class TestFreezeThaw:
    def test_roundtrip_ragged_lists(self):
        from ocr_platform_ray.ops.relational import (
            freeze_list_columns,
            thaw_list_columns,
        )

        df = pd.DataFrame(
            {
                "id": [1, 2, 3],
                "offs": [
                    np.array([0, 5], dtype=np.int64),
                    np.array([0], dtype=np.int64),
                    np.array([0, 2, 9], dtype=np.int64),
                ],
            }
        )
        ds = rd.from_pandas(df)
        frozen, spec = freeze_list_columns(ds)
        assert list(spec) == ["offs"] and spec["offs"] == np.dtype("int64")
        out = thaw_list_columns(frozen, spec).to_pandas().sort_values("id")
        for a, b in zip(df["offs"], out["offs"]):
            assert np.array_equal(a, np.asarray(b))
            assert np.asarray(b).dtype == np.dtype("int64")

    def test_noop_without_list_columns(self):
        from ocr_platform_ray.ops.relational import freeze_list_columns

        ds = rd.from_pandas(pd.DataFrame({"id": [1, 2], "s": ["a", "b"]}))
        same, spec = freeze_list_columns(ds)
        assert spec == {} and same is ds


@pytest.mark.usefixtures("ray_session")
class TestMergeDocuments:
    """PDF merge + splitsData builder (reference useMergePdf.ts:5-28)."""

    @staticmethod
    def _docs():
        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.extraction import extraction_pipeline

        return (
            extraction_pipeline(rd.from_arrow(make_pages_table(40)))
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )

    def test_merge_splits_and_conservation(self):
        from ocr_platform_ray.pipelines.catalog import merge_documents, validate_splits
        from ocr_platform_ray.stages.reassemble import PAGE_SEP

        docs = self._docs()
        vols = list(docs["url"].iloc[:6])
        plan = pd.DataFrame(
            {
                "merged_url": ["m://book1"] * 3 + ["m://book2"] * 3,
                "url": vols,
                "seq": [0, 1, 2, 0, 1, 2],
            }
        )
        merged_ds = merge_documents(rd.from_pandas(docs), plan)
        merged = merged_ds.to_pandas().sort_values("url").reset_index(drop=True)
        assert list(merged["url"]) == ["m://book1", "m://book2"]
        src = docs.set_index("url")
        for murl, group in plan.groupby("merged_url"):
            row = merged[merged["url"] == murl].iloc[0]
            parts = [src.loc[u] for u in group.sort_values("seq")["url"]]
            # text = sources joined with the page separator (byte-identical
            # to extracting the concatenated volume)
            assert row["extracted_text"] == PAGE_SEP.join(p["extracted_text"] for p in parts)
            # page-count conservation: splits cover exactly [1, n_pages]
            assert row["n_pages"] == sum(p["n_pages"] for p in parts)
            spans = row["splits"]
            assert spans[0]["start"] == 1
            assert spans[-1]["end"] == row["n_pages"]
            for a, b in zip(spans, spans[1:]):
                assert b["start"] == a["end"] + 1
            # one offset per page, all within the text, strictly increasing
            offs = np.asarray(row["page_offsets"])
            assert len(offs) == row["n_pages"]
            assert (np.diff(offs) > 0).all()
            assert offs[-1] < len(row["extracted_text"].encode())
            # rebased offsets slice back to each source's first page text
            first_pages = [
                p["extracted_text"].split(PAGE_SEP)[0].encode() for p in parts
            ]
            text_b = row["extracted_text"].encode()
            cursor = 0
            for p, fp in zip(parts, first_pages):
                start = int(offs[cursor])
                assert text_b[start : start + len(fp)] == fp
                cursor += int(p["n_pages"])
        # validate_splits round trip: zero violations
        pages_per_url = merged[["url", "n_pages"]]
        meta = merged[["url", "splits"]]
        bad = validate_splits(rd.from_pandas(meta), pages_per_url)
        assert bad.empty

    def test_page_count_conservation_property(self):
        # randomized plans over the whole corpus: merged page totals always
        # equal source totals and validate_splits never fires
        from ocr_platform_ray.pipelines.catalog import merge_documents, validate_splits

        docs = self._docs()
        rng = np.random.RandomState(5)
        urls = list(docs["url"])
        rng.shuffle(urls)
        rows = []
        i = 0
        b = 0
        while i < len(urls):
            size = int(rng.randint(1, 5))
            for s, u in enumerate(urls[i : i + size]):
                rows.append({"merged_url": f"m://b{b}", "url": u, "seq": s})
            i += size
            b += 1
        plan = pd.DataFrame(rows)
        merged = merge_documents(rd.from_pandas(docs), plan).to_pandas()
        assert merged["n_pages"].sum() == docs["n_pages"].sum()
        assert merged["total_words"].sum() == docs["total_words"].sum()
        bad = validate_splits(
            rd.from_pandas(merged[["url", "splits"]]), merged[["url", "n_pages"]]
        )
        assert bad.empty


class TestCurateCheckpointResume:
    """checkpoint_dir: the curation chain's lineage pins become durable
    manifest-committed parquet stages; a SIGKILLed run resumes at the
    last committed stage and the final output is byte-identical to the
    uncheckpointed chain."""

    CHILD = """
import ray, json, sys, hashlib
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, sys.argv[3])
import ray.data as rd
from ocr_platform_ray.corpus import make_pages_table
from ocr_platform_ray.pipelines.curate import curate_corpus

ckpt = sys.argv[1] if sys.argv[1] != "-" else None
df = curate_corpus(
    rd.from_arrow(make_pages_table(60)), min_tokens=5, cut_dup_spans=True,
    checkpoint_dir=ckpt,
).to_pandas().sort_values("url")
h = hashlib.sha256()
for r in df.itertuples():
    h.update(f"{r.url}|{r.split}|{r.n_dups}|".encode())
    h.update(r.extracted_text.encode())
with open(sys.argv[2], "w") as f:
    json.dump({"digest": h.hexdigest(), "n": len(df)}, f)
ray.shutdown()
"""

    def _spawn(self, ckpt, result_path):
        import subprocess
        import sys

        return subprocess.Popen(
            [sys.executable, "-c", self.CHILD, ckpt or "-", result_path, REPO],
            cwd="/tmp",
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkill_resume_byte_identical(self, tmp_path, ray_session):
        import json
        import os
        import signal
        import time

        ckpt = str(tmp_path / "ckpt")
        want_file = str(tmp_path / "want.json")
        got_file = str(tmp_path / "got.json")

        # reference digest: the plain (uncheckpointed) chain
        p = self._spawn(None, want_file)
        assert p.wait(timeout=300) == 0
        want = json.load(open(want_file))

        # run WITH checkpoints; SIGKILL as soon as the first stage commits
        p = self._spawn(ckpt, got_file)
        gated_marker = os.path.join(ckpt, "gated.json")
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if os.path.exists(gated_marker):
                break
            if p.poll() is not None:
                break
            time.sleep(0.05)
        assert os.path.exists(gated_marker), "gated stage never committed"
        p.send_signal(signal.SIGKILL)
        p.wait(timeout=60)
        assert not os.path.exists(got_file), "child finished before the kill"

        gated_mtime = os.path.getmtime(os.path.join(ckpt, "gated"))

        # resume: must skip the committed stage and finish byte-identical
        p = self._spawn(ckpt, got_file)
        assert p.wait(timeout=300) == 0
        got = json.load(open(got_file))
        assert got == want
        # the committed stage was NOT recomputed
        assert os.path.getmtime(os.path.join(ckpt, "gated")) == gated_mtime

    def test_param_change_invalidates_checkpoint(self, tmp_path, ray_session):
        import ray.data as rd

        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.curate import curate_corpus

        ckpt = str(tmp_path / "ckpt")
        a = curate_corpus(
            rd.from_arrow(make_pages_table(40)), min_tokens=5, checkpoint_dir=ckpt
        ).to_pandas()
        # different gate params -> stale checkpoint must recompute, and the
        # result must match a fresh uncheckpointed run with those params
        b = curate_corpus(
            rd.from_arrow(make_pages_table(40)), min_tokens=80, checkpoint_dir=ckpt
        ).to_pandas()
        c = curate_corpus(
            rd.from_arrow(make_pages_table(40)), min_tokens=80
        ).to_pandas()
        assert sorted(b.url) == sorted(c.url)
        assert len(b) != len(a)  # the new gate actually filtered differently


@pytest.mark.usefixtures("ray_session")
class TestRankBucketsSketch:
    @staticmethod
    def _skewed_df():
        rng = np.random.RandomState(7)
        n_big, n_small = 9000, 60
        # distinct scores (boundary ties are the documented sketch gap)
        scores = rng.permutation(np.arange(n_big + n_small, dtype=np.float64) * 0.25 + 1.0)
        return pd.DataFrame(
            {
                "lang": ["en"] * n_big + ["fr"] * n_small,
                "score": scores,
                "doc_id": np.arange(n_big + n_small, dtype=np.int64),
            }
        )

    def _run(self, df, **kw):
        from ocr_platform_ray.ops.relational import grouped_rank_buckets

        out = grouped_rank_buckets(
            rd.from_pandas(df).repartition(8),
            ["lang"],
            ["score", "doc_id"],
            n_buckets=3,
            labels=["head", "middle", "tail"],
            **kw,
        )
        return _sorted(out.to_pandas(), "doc_id")

    def test_sketch_route_matches_exact_away_from_boundaries(self):
        df = self._skewed_df()
        exact = self._run(df)
        sk = self._run(df, method="sketch", sketch_k=512)
        m = exact.merge(sk, on="doc_id", suffixes=("_e", "_s"))
        agree = (m["bucket_e"] == m["bucket_s"]).mean()
        # skewed group (9000 rows, k=512): boundary rank error O(n/k)
        # per cutoff -> expect ~99.5% agreement, never global error
        assert agree >= 0.98, agree
        # the small group (n=60 <= k) is EXACT: the sketch keeps every
        # value as its own anchor
        fr = m[m["lang_e"] == "fr"]
        assert (fr["bucket_e"] == fr["bucket_s"]).all()
        # per-group bucket proportions stay ~1/3 on the sketch route
        en = sk[sk["lang"] == "en"]["bucket"].value_counts(normalize=True)
        assert abs(en["head"] - 1 / 3) < 0.02

    def test_auto_probe_picks_route_by_group_size(self):
        df = self._skewed_df()
        via_auto_small = self._run(df, method="auto", group_row_threshold=100)
        via_sketch = self._run(df, method="sketch")
        pd.testing.assert_frame_equal(via_auto_small, via_sketch)
        via_auto_big = self._run(df, method="auto", group_row_threshold=10**7)
        via_exact = self._run(df)
        pd.testing.assert_frame_equal(via_auto_big, via_exact)


@pytest.mark.usefixtures("ray_session")
class TestCurateScaleRoutes:
    def test_scale_routes_byte_identical_to_default(self):
        """Driver-free chain (bucketed winners, Dataset pairs, label
        propagation + anti-join losers) == the probing default, including
        the ragged lineage columns through freeze/thaw."""
        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.curate import curate_corpus

        a = _sorted(
            curate_corpus(rd.from_arrow(make_pages_table(60)), min_tokens=5).to_pandas(),
            "url",
        )
        b = _sorted(
            curate_corpus(
                rd.from_arrow(make_pages_table(60)), min_tokens=5, scale_routes=True
            ).to_pandas(),
            "url",
        )
        assert set(a.columns) == set(b.columns)
        b = b[list(a.columns)]
        assert len(a) == len(b) and len(a) > 0
        for c in a.columns:
            for x, y in zip(a[c].tolist(), b[c].tolist()):
                if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                    assert np.array_equal(np.asarray(x), np.asarray(y)), c
                else:
                    assert x == y, c


@pytest.mark.usefixtures("ray_session")
class TestGopherGate:
    """Rule-bundle unit tests: one crafted doc per rule, exercising both
    sides of every published threshold (the sf-corpus oracle check lives
    in TestTailQueryOracles::gopher_quality)."""

    GOOD = (
        "We have found that the results of this work align with the other "
        "reports and that most of the documents pass these checks with no "
        "trouble at all because they have normal prose sentences. "
    ) * 3  # ~60 words, all rules satisfied

    def _gate(self, texts):
        from ocr_platform_ray.ops.textstats import gopher_quality_gate

        ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
        return gopher_quality_gate(ds, "text").to_pandas().sort_values("doc_id")

    def test_each_rule_flips_the_gate(self):
        short = "the small doc that we have with only a few of these words"
        long_words = " ".join(["antidisestablishmentarianism"] * 60) + " the of and that"
        symbols = self.GOOD + " " + " ".join(["#"] * 30)
        bullets = "\n".join(f"- item {i} of the list that we have" for i in range(20))
        ellipses = "\n".join(
            f"the sentence {i} of this doc that we have trails off..." for i in range(10)
        )
        numeric = self.GOOD + " " + " ".join(str(i) for i in range(200))
        no_required = " ".join(f"w{i}" for i in range(60))
        dup_lines = "\n".join(["the same line that we have of this"] * 20)

        out = self._gate(
            [self.GOOD, short, long_words, symbols, bullets, ellipses, numeric, no_required, dup_lines]
        ).set_index("doc_id")
        assert bool(out.loc[0, "gopher_pass"])
        assert not bool(out.loc[1, "gopher_pass"])  # < 50 words
        assert not bool(out.loc[2, "gopher_pass"])  # mean word len > 10
        assert not bool(out.loc[3, "gopher_pass"])  # symbol ratio > 0.1
        assert out.loc[4, "bullet_line_frac"] == 1.0 and not bool(out.loc[4, "gopher_pass"])
        assert out.loc[5, "ellipsis_line_frac"] == 1.0 and not bool(out.loc[5, "gopher_pass"])
        assert not bool(out.loc[6, "gopher_pass"])  # alpha word frac < 0.8
        assert out.loc[7, "n_required_words"] == 0 and not bool(out.loc[7, "gopher_pass"])
        assert out.loc[8, "dup_line_frac"] > 0.3 and not bool(out.loc[8, "gopher_pass"])

    def test_filter_rows_and_custom_thresholds(self):
        from ocr_platform_ray.ops.textstats import gopher_quality_gate

        texts = [self.GOOD, "tiny doc"]
        ds = rd.from_pandas(pd.DataFrame({"doc_id": [0, 1], "text": texts}))
        kept = gopher_quality_gate(ds, "text", filter_rows=True).to_pandas()
        assert list(kept["doc_id"]) == [0]
        # loosening min_words lets the tiny doc through the length rule
        loose = gopher_quality_gate(
            ds, "text", thresholds={"min_words": 1, "min_required_words": 0}
        ).to_pandas()
        assert bool(loose.set_index("doc_id").loc[1, "n_words"] == 2)

    def test_block_structure_independent(self):
        texts = [self.GOOD, "tiny", self.GOOD + " extra..."] * 7
        a = self._gate(texts)
        from ocr_platform_ray.ops.textstats import gopher_quality_gate

        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        ).repartition(5)
        b = gopher_quality_gate(ds, "text").to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b.reset_index(drop=True)
        )


@pytest.mark.usefixtures("ray_session")
class TestBM25:
    def _naive(self, docs, query, k1=1.2, b=0.75):
        import math

        terms = []
        for t in query.lower().split(" "):
            if t and t not in terms:
                terms.append(t)
        toks = {i: d.lower().split(" ") for i, d in docs.items()}
        dl = {i: len(t) for i, t in toks.items()}
        n = len(docs)
        avgdl = sum(dl.values()) / n
        scores = {}
        for term in terms:
            df = sum(1 for t in toks.values() if term in t)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            for i, t in toks.items():
                tf = t.count(term)
                if tf:
                    scores[i] = scores.get(i, 0.0) + idf * tf / (
                        tf + k1 * (1 - b + b * dl[i] / avgdl)
                    )
        return scores

    def test_matches_naive_reference(self):
        from ocr_platform_ray.ops.search import bm25_topk

        docs = {
            0: "the table scan runs a full table scan over the table",
            1: "merge join beats hash join when inputs sort",
            2: "window functions partition the scan output",
            3: "nothing relevant here at all",
            4: "table",
            5: "scan scan scan scan scan scan scan scan scan scan",
        }
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
        ).repartition(3)
        got = bm25_topk(ds, "table scan merge window", k=4)
        want = self._naive(docs, "table scan merge window")
        order = sorted(want, key=lambda i: (-want[i], i))[:4]
        assert list(got["doc_id"]) == order
        for _, row in got.iterrows():
            assert abs(row["score"] - want[row["doc_id"]]) < 1e-12

    def test_local_prune_keeps_global_topk_across_blocks(self):
        from ocr_platform_ray.ops.search import bm25_topk

        # 40 docs with strictly increasing tf of the query term, spread
        # over many blocks: global top-3 must surface regardless of
        # which block pruned what
        docs = {i: ("hit " * (i + 1)).strip() + " filler words" for i in range(40)}
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
        ).repartition(8)
        got = bm25_topk(ds, "hit", k=3)
        assert len(got) == 3
        naive = self._naive(docs, "hit")
        assert list(got["doc_id"]) == sorted(naive, key=lambda i: (-naive[i], i))[:3]

    def test_empty_query_and_no_match(self):
        from ocr_platform_ray.ops.search import bm25_topk

        ds = rd.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["abc def"]}))
        assert len(bm25_topk(ds, "   ")) == 0
        assert len(bm25_topk(ds, "zzz qqq")) == 0
        # an all-empty corpus (filter drops everything) must not crash:
        # Ray can skip the stats partial entirely on empty blocks
        empty = ds.filter(lambda r: False)
        assert len(bm25_topk(empty, "abc")) == 0


@pytest.mark.usefixtures("ray_session")
class TestCompressionRatio:
    def test_direct_zlib_equivalence_and_monotonicity(self):
        import zlib

        from ocr_platform_ray.ops.textstats import add_compression_ratio

        prose = (
            "the quick brown fox jumps over the lazy dog while seventeen "
            "apprentice journalists watched from behind a dusty wooden fence "
            "and quietly debated whether morning trains would arrive before "
            "the harvest festival opened its gates to every curious visitor "
        ) * 3
        texts = [
            "abc " * 200,  # highly repetitive
            prose,  # natural-ish prose, long enough to beat header overhead
            _sha_noise(800),  # incompressible pseudo-random text
            "",
        ]
        ds = rd.from_pandas(pd.DataFrame({"doc_id": range(4), "text": texts}))
        out = add_compression_ratio(ds, "text").to_pandas().sort_values("doc_id")
        for i, t in enumerate(texts):
            raw = t.encode("utf-8")
            assert out.loc[i, "n_bytes"] == len(raw)
            assert out.loc[i, "n_zlib_bytes"] == len(zlib.compress(raw, 6))
        # repetitive text compresses well below prose; prose below noise
        assert (
            out.loc[0, "compression_ratio"]
            < out.loc[1, "compression_ratio"]
            < out.loc[2, "compression_ratio"]
        )


def _sha_noise(n: int) -> str:
    """Deterministic incompressible text: a sha256 chain rendered as
    printable chars (no periodicity for zlib to exploit)."""
    import hashlib

    out, seed = [], b"noise"
    while sum(len(c) for c in out) < n:
        seed = hashlib.sha256(seed).digest()
        out.append("".join(chr(33 + (b % 90)) for b in seed))
    return "".join(out)[:n]


@pytest.mark.usefixtures("ray_session")
class TestKmeansSemdedup:
    @staticmethod
    def _blobs(n_per=20, dups=0, seed=5, dim=8):
        """3 well-separated blobs on the sphere; optionally plant `dups`
        groups of 3 near-identical vectors inside blob 0."""
        rng = np.random.RandomState(seed)
        centers = np.eye(3, dim) * 10.0
        rows, ids = [], []
        i = 0
        for b in range(3):
            for _ in range(n_per):
                v = centers[b] + rng.randn(dim) * 0.3
                rows.append(v / np.linalg.norm(v))
                ids.append(i)
                i += 1
        for d in range(dups):
            v = centers[0] + rng.randn(dim) * 0.3
            for j in range(3):
                w = v + rng.randn(dim) * 1e-4  # near-identical triple
                rows.append(w / np.linalg.norm(w))
                ids.append(i)
                i += 1
        return pd.DataFrame(
            {"vec_id": ids, "embedding": [r.tolist() for r in rows]}
        )

    def test_kmeans_recovers_blobs_and_block_independent(self):
        from ocr_platform_ray.ops.cluster import assign_clusters, kmeans_fit

        df = self._blobs()
        ds = rd.from_pandas(df)
        cent = kmeans_fit(ds, k=3, n_iters=5, seed=7)
        a = assign_clusters(ds, cent).to_pandas().sort_values("vec_id")
        # the 3 blobs map to 3 distinct clusters, each pure
        groups = [set(a["cluster"][i * 20 : (i + 1) * 20]) for i in range(3)]
        assert all(len(g) == 1 for g in groups)
        assert len(set.union(*groups)) == 3
        # block structure changes partial-sum ORDER only: same assignment,
        # centroids equal to float tolerance
        cent2 = kmeans_fit(ds.repartition(7), k=3, n_iters=5, seed=7)
        assert np.allclose(cent, cent2, atol=1e-9)
        a2 = assign_clusters(ds.repartition(7), cent2).to_pandas().sort_values("vec_id")
        assert list(a["cluster"]) == list(a2["cluster"])

    def test_semdedup_removes_planted_groups_keeps_farthest(self):
        from ocr_platform_ray.ops.cluster import semdedup

        df = self._blobs(dups=4)  # 60 blob points + 4 planted triples
        ds = rd.from_pandas(df).repartition(5)
        kept = semdedup(ds, threshold=0.99995, k=3, n_iters=5, seed=7).to_pandas()
        # each planted triple collapses to ONE survivor; blob points are
        # non-dup at this threshold (0.3 sigma noise -> cos ~0.993,
        # planted 1e-4 noise -> cos ~1-1e-9)
        assert len(kept) == 60 + 4
        planted = kept[kept["vec_id"] >= 60]
        assert len(planted) == 4
        # survivor = farthest from centroid (lowest centroid_sim) in its triple
        from ocr_platform_ray.ops.cluster import assign_clusters, kmeans_fit

        cent = kmeans_fit(rd.from_pandas(df), k=3, n_iters=5, seed=7)
        allrows = assign_clusters(rd.from_pandas(df), cent).to_pandas()
        for g0 in range(4):
            trip = allrows[(allrows["vec_id"] >= 60 + 3 * g0) & (allrows["vec_id"] < 63 + 3 * g0)]
            want = trip.sort_values(["centroid_sim", "vec_id"]).iloc[0]["vec_id"]
            got = planted[(planted["vec_id"] >= 60 + 3 * g0) & (planted["vec_id"] < 63 + 3 * g0)]
            assert list(got["vec_id"]) == [want]

    def test_semdedup_identity_above_one(self):
        from ocr_platform_ray.ops.cluster import semdedup

        df = self._blobs(dups=2)
        kept = semdedup(rd.from_pandas(df), threshold=1.01, k=3, n_iters=3, seed=7)
        assert kept.count() == len(df)


@pytest.mark.usefixtures("ray_session")
class TestC4Clean:
    """C4 §2.2 line+page rules, one crafted doc per rule (the sf-corpus
    oracle check lives in TestTailQueryOracles::c4_clean)."""

    GOOD = (
        "This is a fine first sentence that ends properly.\n"
        "Here is another long line that also terminates with a mark!\n"
        "Does the third line of this page end with a question mark?"
    )

    def _clean(self, texts, **kw):
        from ocr_platform_ray.ops.c4 import c4_clean

        ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
        return c4_clean(ds, "text", **kw).to_pandas().sort_values("doc_id")

    def test_line_rules(self):
        out = self._clean(
            [
                self.GOOD,
                "this long line has plenty of words but no terminal mark\n"
                "Short line ends.\n"
                "You must enable JavaScript to view this page properly.",
            ]
        ).set_index("doc_id")
        assert out.loc[0, "c4_n_lines_kept"] == 3 and out.loc[0, "c4_text"] == self.GOOD
        # no terminal punct / < 5 words / javascript word -> all dropped
        assert out.loc[1, "c4_n_lines_kept"] == 0 and out.loc[1, "c4_text"] == ""

    def test_page_rules_and_filter(self):
        lorem = self.GOOD + "\nAnd lorem ipsum filler text was pasted right here."
        brace = self.GOOD + "\nA code sample function() { with a brace follows here."
        two_sent = "Only one fine sentence sits on this page here.\nAnd a second one right after it!"
        out = self._clean([self.GOOD, lorem, brace, two_sent]).set_index("doc_id")
        assert bool(out.loc[0, "c4_pass"])
        assert not bool(out.loc[1, "c4_pass"])  # lorem ipsum
        assert not bool(out.loc[2, "c4_pass"])  # curly brace
        assert out.loc[3, "c4_n_sentences"] == 2 and not bool(out.loc[3, "c4_pass"])
        kept = self._clean([self.GOOD, lorem, brace, two_sent], filter_rows=True)
        assert list(kept["doc_id"]) == [0]

    def test_blocklist(self):
        bad = self.GOOD + "\nThe forbidden zorblax word appears in this long line."
        out = self._clean([self.GOOD, bad], blocklist=("zorblax",)).set_index("doc_id")
        assert bool(out.loc[0, "c4_pass"]) and not bool(out.loc[1, "c4_pass"])

    def test_block_structure_independent(self):
        texts = [self.GOOD, "short", self.GOOD + "\nExtra unterminated tail line here"] * 7
        a = self._clean(texts)
        from ocr_platform_ray.ops.c4 import c4_clean

        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        ).repartition(5)
        b = c4_clean(ds, "text").to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
class TestC4SpanDedup:
    """Corpus-level 3-sentence-span dedup vs a naive single-process
    reference (same winner rule), on both exchange routes."""

    WIDTH = 3

    def _naive(self, docs, width=3):
        import re

        from ocr_platform_ray.ops.c4 import _split_sentences

        WS = re.compile(r"\s+")
        occ, sent_map = {}, {}
        for i, t in zip(docs["doc_id"], docs["text"]):
            sents = _split_sentences(t)
            sent_map[i] = sents
            norm = [WS.sub(" ", s.strip()).lower() for s in sents]
            for p in range(max(0, len(sents) - width + 1)):
                occ.setdefault(tuple(norm[p : p + width]), []).append((i, p))
        losers: dict = {}
        for lst in occ.values():
            if len(lst) >= 2:
                for i, p in sorted(lst)[1:]:
                    losers.setdefault(i, []).append(p)
        out = []
        for i, t in zip(docs["doc_id"], docs["text"]):
            st = losers.get(i)
            if not st:
                out.append(t)
                continue
            sents = sent_map[i]
            cov = np.zeros(len(sents), bool)
            for p in st:
                cov[p : p + width] = True
            out.append("".join(s for s, c in zip(sents, cov) if not c))
        return out

    def _corpus(self, n=200, seed=7):
        import random

        rng = random.Random(seed)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]

        def sent():
            return (
                " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 8)))
                + rng.choice([".", "!", "?"])
                + " "
            )

        shared = [sent() for _ in range(6)]
        texts = []
        for _ in range(n):
            parts = [sent() for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.4:
                k = rng.randint(0, 3)
                parts[rng.randint(0, len(parts) - 1) : 0] = shared[k : k + 3]
            texts.append("".join(parts))
        return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})

    @pytest.mark.parametrize("method", ["broadcast", "bucketed"])
    def test_matches_naive_reference(self, method):
        from ocr_platform_ray.ops.c4 import c4_span_dedup

        docs = self._corpus()
        want = self._naive(docs)
        got = (
            c4_span_dedup(rd.from_pandas(docs).repartition(7), "text", "doc_id", method=method)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert list(got["text"]) == want

    def test_auto_route_and_extra_columns(self):
        from ocr_platform_ray.ops.c4 import c4_span_dedup

        docs = self._corpus(80).assign(lang="en", score=np.arange(80, dtype=np.int64))
        got = (
            c4_span_dedup(rd.from_pandas(docs).repartition(3), "text", "doc_id")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert list(got.columns) == ["doc_id", "text", "lang", "score"]
        assert got["score"].dtype == np.int64 and list(got["score"]) == list(range(80))
        assert list(got["text"]) == self._naive(docs)

    def test_untouched_corpus_byte_identical(self):
        from ocr_platform_ray.ops.c4 import c4_span_dedup

        # all-unique sentences, including a whitespace-only tail that naive
        # reconstruction would drop — pass-through must be byte-exact
        texts = [
            "Alpha beta gamma delta. Epsilon zeta eta theta! Iota kappa question?   ",
            "Completely different first one. Another unique second one! A third unique one? tail",
        ]
        docs = pd.DataFrame({"doc_id": np.arange(2, dtype=np.int64), "text": texts})
        for method in ("broadcast", "bucketed"):
            got = (
                c4_span_dedup(rd.from_pandas(docs), "text", "doc_id", method=method)
                .to_pandas()
                .sort_values("doc_id")
            )
            assert list(got["text"]) == texts

    def test_winner_is_min_id_then_pos(self):
        from ocr_platform_ray.ops.c4 import c4_span_dedup

        span = "One shared sentence here. Two shared sentences here! Three shared sentences here? "
        docs = pd.DataFrame(
            {
                "doc_id": np.array([5, 9], dtype=np.int64),
                "text": ["Unique lead sentence for five. " + span, span + "Unique tail for nine."],
            }
        )
        got = (
            c4_span_dedup(rd.from_pandas(docs), "text", "doc_id", method="broadcast")
            .to_pandas()
            .set_index("doc_id")
        )
        # doc 5 holds the span at pos 1, doc 9 at pos 0: (5, 1) < (9, 0)
        assert got.loc[5, "text"] == docs.set_index("doc_id").loc[5, "text"]
        # the surviving chunk keeps its leading inter-sentence space
        assert got.loc[9, "text"] == " Unique tail for nine."


@pytest.mark.usefixtures("ray_session")
class TestDsir:
    """DSIR (Xie et al. 2023) importance resampling: naive-reference
    weight equality, block independence, Gumbel determinism, retrieval
    direction."""

    def _corpora(self, seed=3, n_raw=300):
        import random

        rng = random.Random(seed)
        sci = ["theorem", "proof", "lemma", "matrix", "vector", "integral"]
        web = ["click", "here", "subscribe", "deal", "shop", "free"]

        def doc(vocab, n=40):
            return " ".join(rng.choice(vocab) for _ in range(n))

        target = pd.DataFrame(
            {"doc_id": np.arange(50, dtype=np.int64), "text": [doc(sci) for _ in range(50)]}
        )
        raw = pd.DataFrame(
            {
                "doc_id": np.arange(n_raw, dtype=np.int64),
                "text": [doc(sci) if i % 5 == 0 else doc(web) for i in range(n_raw)],
            }
        )
        return target, raw

    def test_weights_match_naive_and_block_independent(self):
        from ocr_platform_ray.ops.dsir import (
            _gram_buckets_batch,
            dsir_fit,
            dsir_log_weights,
        )

        target, raw = self._corpora()
        lr = dsir_fit(rd.from_pandas(target), rd.from_pandas(raw).repartition(4))
        assert lr.shape == (10_000,) and np.isfinite(lr).all()
        got = (
            dsir_log_weights(rd.from_pandas(raw).repartition(4), "text", lr)
            .to_pandas()
            .sort_values("doc_id")["dsir_logw"]
            .to_numpy()
        )
        flat, counts = _gram_buckets_batch(list(raw["text"]), len(lr))
        offs = np.concatenate([[0], np.cumsum(counts)])
        want = np.array(
            [lr[flat[offs[i] : offs[i + 1]]].sum() for i in range(len(raw))]
        )
        np.testing.assert_allclose(got, want, rtol=1e-9)
        # exact equality across block structures (reduceat segments are
        # computed independently per row)
        other = (
            dsir_log_weights(rd.from_pandas(raw).repartition(11), "text", lr)
            .to_pandas()
            .sort_values("doc_id")["dsir_logw"]
            .to_numpy()
        )
        assert (got == other).all()
        # direction: target-like docs weigh higher
        sci_mask = raw["doc_id"].to_numpy() % 5 == 0
        assert got[sci_mask].min() > got[~sci_mask].max()

    def test_resample_deterministic_and_enriched(self):
        from ocr_platform_ray.ops.dsir import dsir_fit, dsir_resample

        target, raw = self._corpora()
        lr = dsir_fit(rd.from_pandas(target), rd.from_pandas(raw))
        a = dsir_resample(
            rd.from_pandas(raw).repartition(4), "text", "doc_id", lr, 50, seed=5
        ).to_pandas()
        b = dsir_resample(
            rd.from_pandas(raw).repartition(9), "text", "doc_id", lr, 50, seed=5
        ).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])
        assert len(a) == 50
        # every selected doc is target-like (base rate 20%)
        assert (a["doc_id"].to_numpy() % 5 == 0).all()
        # a different seed moves the Gumbel keys (weights tie within the
        # sci class, so the chosen subset changes)
        c = dsir_resample(
            rd.from_pandas(raw), "text", "doc_id", lr, 50, seed=6
        ).to_pandas()
        assert sorted(c["doc_id"]) != sorted(a["doc_id"])

    def test_empty_and_zero_gram_docs(self):
        from ocr_platform_ray.ops.dsir import dsir_fit, dsir_log_weights

        target, raw = self._corpora()
        raw2 = pd.concat(
            [raw, pd.DataFrame({"doc_id": [9000], "text": [""]})], ignore_index=True
        )
        lr = dsir_fit(rd.from_pandas(target), rd.from_pandas(raw2))
        w = (
            dsir_log_weights(rd.from_pandas(raw2).repartition(3), "text", lr)
            .to_pandas()
            .set_index("doc_id")
        )
        assert w.loc[9000, "dsir_logw"] == 0.0


@pytest.mark.usefixtures("ray_session")
class TestLogregClassifier:
    """fastText-style hashed-n-gram logistic regression (Joulin 2016):
    separation on held-out docs, bit-reproducible fits, block-exact
    scoring, loss direction."""

    def _seed_corpora(self, seed=3, n=60):
        import random

        rng = random.Random(seed)
        good = ["theorem", "proof", "lemma", "matrix", "vector", "integral"]
        bad = ["click", "here", "subscribe", "deal", "shop", "free"]

        def doc(vocab, m=40):
            return " ".join(rng.choice(vocab) for _ in range(m))

        pos = pd.DataFrame(
            {"doc_id": np.arange(n, dtype=np.int64), "text": [doc(good) for _ in range(n)]}
        )
        neg = pd.DataFrame(
            {"doc_id": np.arange(n, dtype=np.int64), "text": [doc(bad) for _ in range(n)]}
        )
        test = pd.DataFrame(
            {
                "doc_id": np.arange(40, dtype=np.int64),
                "text": [doc(good) if i % 2 == 0 else doc(bad) for i in range(40)],
            }
        )
        return pos, neg, test

    def test_separates_held_out_docs(self):
        from ocr_platform_ray.ops.classifier import logreg_fit, logreg_score

        pos, neg, test = self._seed_corpora()
        w = logreg_fit(rd.from_pandas(pos).repartition(3), rd.from_pandas(neg).repartition(3))
        s = (
            logreg_score(rd.from_pandas(test).repartition(4), "text", w)
            .to_pandas()
            .sort_values("doc_id")["quality_score"]
            .to_numpy()
        )
        assert s[::2].min() > 0.5 > s[1::2].max()

    def test_bit_reproducible_fit_and_block_exact_score(self):
        from ocr_platform_ray.ops.classifier import logreg_fit, logreg_score

        pos, neg, test = self._seed_corpora()
        w1 = logreg_fit(
            rd.from_pandas(pos).repartition(3), rd.from_pandas(neg).repartition(3), n_iters=4
        )
        w2 = logreg_fit(
            rd.from_pandas(pos).repartition(3), rd.from_pandas(neg).repartition(3), n_iters=4
        )
        assert (w1 == w2).all()  # content-sorted partial reduce
        a = (
            logreg_score(rd.from_pandas(test).repartition(2), "text", w1)
            .to_pandas()
            .sort_values("doc_id")["quality_score"]
            .to_numpy()
        )
        b = (
            logreg_score(rd.from_pandas(test).repartition(9), "text", w1)
            .to_pandas()
            .sort_values("doc_id")["quality_score"]
            .to_numpy()
        )
        assert (a == b).all()  # reduceat segments are per-row independent

    def test_more_iters_improves_margin_and_empty_doc_is_neutral(self):
        from ocr_platform_ray.ops.classifier import logreg_fit, logreg_score

        pos, neg, test = self._seed_corpora()
        w_short = logreg_fit(rd.from_pandas(pos), rd.from_pandas(neg), n_iters=2)
        w_long = logreg_fit(rd.from_pandas(pos), rd.from_pandas(neg), n_iters=20)

        def margin(w):
            s = (
                logreg_score(rd.from_pandas(test), "text", w)
                .to_pandas()
                .sort_values("doc_id")["quality_score"]
                .to_numpy()
            )
            return s[::2].min() - s[1::2].max()

        assert margin(w_long) > margin(w_short)
        # a gram-less doc scores sigmoid(bias) — near 0.5 on balanced seeds
        s0 = (
            logreg_score(
                rd.from_pandas(pd.DataFrame({"doc_id": [0], "text": [""]})), "text", w_long
            )
            .to_pandas()["quality_score"]
            .iloc[0]
        )
        assert 0.4 < s0 < 0.6


@pytest.mark.usefixtures("ray_session")
class TestCheckpointLookupShortCircuit:
    """The post-dedup marker must be consulted BEFORE the dedup stages are
    BUILT: their construction is eager (size probes, label-propagation
    rounds), so a resumed run used to re-execute them all — measured 12
    dataset executions / 462 s on a fully-committed 192k rerun vs 1
    execution / 8 s after the fix."""

    def test_resume_reads_deduped_without_touching_upstream(self, tmp_path):
        import os
        import shutil

        from ocr_platform_ray.corpus import make_pages_table
        from ocr_platform_ray.pipelines.curate import curate_corpus

        ck = str(tmp_path / "ck")
        pages = rd.from_arrow(make_pages_table(60))
        out1 = (
            curate_corpus(pages, checkpoint_dir=ck, scale_routes=True)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )

        # resume with (a) the GATED checkpoint destroyed and (b) a poisoned
        # input whose execution raises: only a run that short-circuits on
        # the deduped marker — never rebuilding the gated stage or the
        # eager dedup stages — can succeed
        shutil.rmtree(os.path.join(ck, "gated"))
        os.remove(os.path.join(ck, "gated.json"))

        def boom(b: pd.DataFrame) -> pd.DataFrame:
            raise RuntimeError("upstream lineage must not execute on resume")

        poisoned = rd.from_arrow(make_pages_table(60)).map_batches(
            boom, batch_format="pandas"
        )
        out2 = (
            curate_corpus(poisoned, checkpoint_dir=ck, scale_routes=True)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out1, out2)


@pytest.mark.usefixtures("ray_session")
class TestDedupDocLines:
    def test_keeps_first_occurrence_in_order(self):
        from ocr_platform_ray.ops.textstats import dedup_doc_lines

        texts = [
            "a\nb\na\nc\nb\nd",
            "same\nsame\nsame",
            "",
            "only",
            "x\n\ny\n\nx",  # empty lines dedup too
        ]
        ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
        out = dedup_doc_lines(ds, "text").to_pandas().sort_values("doc_id")
        assert list(out["text"]) == ["a\nb\nc\nd", "same", "", "only", "x\n\ny"]

    def test_block_structure_independent_and_cross_doc_blind(self):
        from ocr_platform_ray.ops.textstats import dedup_doc_lines

        # the same line in DIFFERENT docs is untouched (within-doc only)
        texts = ["shared\nu1", "shared\nu2"] * 9
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        ).repartition(5)
        out = dedup_doc_lines(ds, "text").to_pandas().sort_values("doc_id")
        assert list(out["text"]) == texts


@pytest.mark.usefixtures("ray_session")
class TestC4Properties:
    """Property invariants for the cleaning ops (hypothesis; few examples
    per property — each runs a real Dataset execution)."""

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    _texts = st.lists(
        st.text(alphabet="ab .!?\n{Jjvscript", max_size=80),
        min_size=1,
        max_size=6,
    )

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_texts)
    def test_c4_clean_idempotent_and_line_subset(self, texts):
        from ocr_platform_ray.ops.c4 import c4_clean

        ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
        once = c4_clean(ds, "text").to_pandas().sort_values("doc_id")
        # every kept line is one of the input's lines, in order
        for t, c in zip(texts, once["c4_text"]):
            src = t.split("\n")
            kept = c.split("\n") if c else []
            it = iter(src)
            assert all(any(line == s for s in it) for line in kept)
        # cleaning its own output changes nothing (idempotence)
        again = (
            c4_clean(
                rd.from_pandas(
                    pd.DataFrame(
                        {"doc_id": range(len(texts)), "text": list(once["c4_text"])}
                    )
                ),
                "text",
            )
            .to_pandas()
            .sort_values("doc_id")
        )
        assert list(again["c4_text"]) == list(once["c4_text"])

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_texts)
    def test_dedup_doc_lines_idempotent_and_distinct(self, texts):
        from ocr_platform_ray.ops.textstats import dedup_doc_lines

        ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
        once = dedup_doc_lines(ds, "text").to_pandas().sort_values("doc_id")
        for c in once["text"]:
            lines = c.split("\n")
            assert len(lines) == len(set(lines))  # all distinct after one pass
        again = (
            dedup_doc_lines(
                rd.from_pandas(
                    pd.DataFrame({"doc_id": range(len(texts)), "text": list(once["text"])})
                ),
                "text",
            )
            .to_pandas()
            .sort_values("doc_id")
        )
        assert list(again["text"]) == list(once["text"])


@pytest.mark.usefixtures("ray_session")
class TestIncrementalDedup:
    """incremental_exact_dedup: arrival-order precedence across committed
    ingests, idempotent replay, torn-ingest invisibility, layout guard."""

    def _inc(self, ids, texts):
        return rd.from_pandas(
            pd.DataFrame({"doc_id": np.array(ids, dtype=np.int64), "text": texts})
        ).repartition(3)

    def test_two_increments_semantics_and_replay(self, tmp_path):
        from ocr_platform_ray.ops.dedup import exact_dedup
        from ocr_platform_ray.ops.incremental import (
            committed_ingests,
            incremental_exact_dedup,
        )

        sd = str(tmp_path / "state")
        inc1 = self._inc(range(10), [f"t{i % 6}" for i in range(10)])
        inc2 = self._inc(range(100, 110), [f"t{i % 8}" for i in range(10)])
        s1 = (
            incremental_exact_dedup(inc1, "text", "doc_id", sd, ingest_id="day1")
            .to_pandas()
            .sort_values("doc_id")
        )
        assert list(s1["doc_id"]) == [0, 1, 2, 3, 4, 5]
        assert list(s1["n_dups"]) == [2, 2, 2, 2, 1, 1]  # in-increment counts
        s2 = (
            incremental_exact_dedup(inc2, "text", "doc_id", sd, ingest_id="day2")
            .to_pandas()
            .sort_values("doc_id")
        )
        # t0-t5 already accepted on day1 -> only the genuinely new survive,
        # even though day2's ids are all higher (arrival order, not id)
        assert sorted(s2["text"]) == ["t6", "t7"]
        assert committed_ingests(sd) == ["day1", "day2"]
        # replay of a committed ingest is a pure read, identical result
        r1 = (
            incremental_exact_dedup(inc1, "text", "doc_id", sd, ingest_id="day1")
            .to_pandas()
            .sort_values("doc_id")
        )
        pd.testing.assert_frame_equal(
            r1.reset_index(drop=True)[sorted(r1.columns)],
            s1.reset_index(drop=True)[sorted(s1.columns)],
        )
        # cumulative content set == one-shot exact dedup over the union
        union = exact_dedup(
            self._inc(list(range(10)) + list(range(100, 110)),
                      [f"t{i % 6}" for i in range(10)] + [f"t{i % 8}" for i in range(10)]),
            "text",
            "doc_id",
        ).to_pandas()
        assert sorted(set(s1["text"]) | set(s2["text"])) == sorted(union["text"])

    def test_torn_ingest_is_invisible_and_overwritten(self, tmp_path):
        import glob
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.ops.incremental import incremental_exact_dedup

        sd = str(tmp_path / "state")
        inc1 = self._inc(range(6), [f"t{i}" for i in range(6)])
        incremental_exact_dedup(inc1, "text", "doc_id", sd, ingest_id="day1")
        # simulate a SIGKILLed "day2": bucket files written, NO marker —
        # poison every bucket with hashes matching day2's content
        from ocr_platform_ray.ops.dedup import _sha64

        hs = _sha64(np.array(["u0", "u1"], dtype=object)).astype("int64")
        for h in hs:
            b = int(np.uint64(h) % np.uint64(64))
            bdir = os.path.join(sd, "buckets", f"b{b:03d}")
            os.makedirs(bdir, exist_ok=True)
            pq.write_table(
                pa.table({"h": pa.array([h], pa.int64())}),
                os.path.join(bdir, "day2.parquet"),
            )
        # the retry must ACCEPT u0/u1 (the torn files are uncommitted) and
        # overwrite them
        s2 = (
            incremental_exact_dedup(
                self._inc([50, 51], ["u0", "u1"]), "text", "doc_id", sd, ingest_id="day2"
            )
            .to_pandas()
            .sort_values("doc_id")
        )
        assert sorted(s2["text"]) == ["u0", "u1"]
        # and day3 must now see u0/u1 as known
        s3 = (
            incremental_exact_dedup(
                self._inc([60, 61], ["u0", "v9"]), "text", "doc_id", sd, ingest_id="day3"
            )
            .to_pandas()
        )
        assert sorted(s3["text"]) == ["v9"]

    def test_bucket_layout_guard(self, tmp_path):
        from ocr_platform_ray.ops.incremental import incremental_exact_dedup

        sd = str(tmp_path / "state")
        inc = self._inc(range(3), ["a", "b", "c"])
        incremental_exact_dedup(inc, "text", "doc_id", sd, ingest_id="d1")
        with pytest.raises(ValueError, match="n_buckets"):
            incremental_exact_dedup(
                inc, "text", "doc_id", sd, ingest_id="d2", n_buckets=8
            )


@pytest.mark.usefixtures("ray_session")
class TestIncrementalMinhash:
    """incremental_minhash_dedup: near-dups (not just exact) blocked
    across ingests, in-increment representatives, replay, layout guard."""

    def _mk(self, seed=5):
        import random

        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(50)]

        def doc(n=60):
            return " ".join(rng.choice(vocab) for _ in range(n))

        def tweak(t):
            toks = t.split()
            toks[3] = "CHANGED"
            return " ".join(toks)

        return doc, tweak

    def test_lifecycle(self, tmp_path):
        from ocr_platform_ray.ops.incremental import incremental_minhash_dedup

        doc, tweak = self._mk()
        sd = str(tmp_path / "state")
        base = [doc() for _ in range(8)]
        fresh = [doc() for _ in range(2)]
        inc1 = pd.DataFrame(
            {"doc_id": np.arange(8, dtype=np.int64), "text": base}
        )
        inc2 = pd.DataFrame(
            {
                "doc_id": np.arange(100, 107, dtype=np.int64),
                "text": [tweak(base[i]) for i in range(4)]
                + fresh
                + [tweak(fresh[0])],
            }
        )
        s1 = incremental_minhash_dedup(
            rd.from_pandas(inc1).repartition(3), "text", "doc_id", sd, ingest_id="d1"
        ).to_pandas()
        assert sorted(s1["doc_id"]) == list(range(8))
        s2 = incremental_minhash_dedup(
            rd.from_pandas(inc2).repartition(3), "text", "doc_id", sd, ingest_id="d2"
        ).to_pandas()
        # 100-103 are NEAR (not exact) dups of committed docs -> dropped;
        # 106 loses to 104 within the increment (min id)
        assert sorted(s2["doc_id"]) == [104, 105]
        # replay is a pure read
        r2 = incremental_minhash_dedup(
            rd.from_pandas(inc2), "text", "doc_id", sd, ingest_id="d2"
        ).to_pandas()
        assert sorted(r2["doc_id"]) == [104, 105]
        # a near-dup of a d2 SURVIVOR is blocked on d3
        inc3 = pd.DataFrame(
            {
                "doc_id": np.array([200, 201], dtype=np.int64),
                "text": [tweak(fresh[1]), doc()],
            }
        )
        s3 = incremental_minhash_dedup(
            rd.from_pandas(inc3), "text", "doc_id", sd, ingest_id="d3"
        ).to_pandas()
        assert sorted(s3["doc_id"]) == [201]

    def test_layout_guard_across_params(self, tmp_path):
        from ocr_platform_ray.ops.incremental import incremental_minhash_dedup

        doc, _ = self._mk()
        sd = str(tmp_path / "state")
        inc = rd.from_pandas(
            pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64), "text": [doc() for _ in range(3)]})
        )
        incremental_minhash_dedup(inc, "text", "doc_id", sd, ingest_id="d1")
        with pytest.raises(ValueError, match="layout"):
            incremental_minhash_dedup(
                inc, "text", "doc_id", sd, ingest_id="d2", threshold=0.5
            )


@pytest.mark.usefixtures("ray_session")
class TestProductQuant:
    """PQ (Jegou 2011): recall vs brute force, exactness on low-entropy
    data, block-independent encoding, compression size."""

    def _ds(self):
        return rd.read_parquet(
            "/root/testdata/sf0.01/embeddings.parquet", columns=["vec_id", "embedding"]
        )

    def test_recall_floor_and_compression(self):
        from ocr_platform_ray.ops.similarity import (
            knn_brute_force,
            knn_pq,
            pq_encode,
            train_pq,
        )

        ds = self._ds()
        df = ds.to_pandas()
        queries = np.stack([np.asarray(v) for v in df["embedding"].head(5)])
        books = train_pq(ds, m=32, n_codes=256)
        codes = pq_encode(ds.repartition(4), books)
        approx = knn_pq(codes, queries, books, k=10)
        exact = knn_brute_force(ds, queries, k=10)
        recs = [
            len(
                set(approx[approx.query_idx == qi]["vec_id"])
                & set(exact[exact.query_idx == qi]["vec_id"])
            )
            / 10
            for qi in range(5)
        ]
        # uniform random embeddings are PQ's worst case; m=32 measured 0.96
        assert np.mean(recs) >= 0.8
        c = codes.to_pandas()
        assert len(c["pq_code"].iloc[0]) == 32  # 16x compression at dim 64

    def test_exact_on_low_entropy_and_block_independent(self):
        from ocr_platform_ray.ops.similarity import (
            knn_brute_force,
            knn_pq,
            pq_encode,
            train_pq,
        )

        # vectors drawn from 20 prototypes: codebooks can represent every
        # subvector exactly -> ADC ranking == exact ranking
        rng = np.random.RandomState(7)
        protos = rng.randn(20, 64)
        rows = protos[rng.randint(20, size=300)]
        df = pd.DataFrame(
            {"vec_id": np.arange(300, dtype=np.int64), "embedding": [r.tolist() for r in rows]}
        )
        ds = rd.from_pandas(df)
        books = train_pq(ds, m=8, n_codes=32, sample_limit=300)
        q = protos[3]
        approx = knn_pq(pq_encode(ds, books), q, books, k=10)
        exact = knn_brute_force(ds, q, k=10)
        assert set(approx["vec_id"]) == set(exact["vec_id"])
        # encoding is a pure function of the vector (block-independent)
        a = pq_encode(ds.repartition(2), books).to_pandas().sort_values("vec_id")
        b = pq_encode(ds.repartition(9), books).to_pandas().sort_values("vec_id")
        assert list(a["pq_code"]) == list(b["pq_code"])


@pytest.mark.usefixtures("ray_session")
class TestIvfPq:
    """IVF-PQ composition: full-probe search == flat knn_pq under the
    same codebooks, partial probes read only the probed cell partitions,
    recall floor vs brute force at n_probe < n_cells."""

    def _ds(self):
        return rd.read_parquet(
            "/root/testdata/sf0.01/embeddings.parquet", columns=["vec_id", "embedding"]
        )

    def test_full_probe_equals_flat_pq(self, tmp_path):
        from ocr_platform_ray.ops.similarity import (
            build_ivf_pq_index,
            knn_ivf_pq,
            knn_pq,
            pq_encode,
            train_ivf_centroids,
            train_pq,
        )

        ds = self._ds()
        cent = train_ivf_centroids(ds, n_cells=8)
        books = train_pq(ds, m=16, n_codes=64)
        idx = str(tmp_path / "ivfpq")
        build_ivf_pq_index(
            ds, idx, n_cells=8, m=16, n_codes=64, centroids=cent, codebooks=books
        )
        df = ds.to_pandas()
        queries = np.stack([np.asarray(v) for v in df["embedding"].head(4)])
        # probing EVERY cell must equal the flat full-scan ADC ranking
        full = knn_ivf_pq(idx, queries, k=10, n_probe=8)
        flat = knn_pq(pq_encode(ds, books), queries, books, k=10)
        for qi in range(4):
            assert list(full[full.query_idx == qi]["vec_id"]) == list(
                flat[flat.query_idx == qi]["vec_id"]
            )
        np.testing.assert_allclose(
            full["adc_ip"].to_numpy(), flat["adc_ip"].to_numpy(), rtol=1e-9
        )

    def test_partial_probe_prunes_partitions_and_recall(self, tmp_path):
        import glob
        import os

        from ocr_platform_ray.ops.similarity import (
            build_ivf_pq_index,
            knn_brute_force,
            knn_ivf_pq,
            train_ivf_centroids,
            train_pq,
        )

        ds = self._ds()
        cent = train_ivf_centroids(ds, n_cells=16)
        books = train_pq(ds, m=32, n_codes=256)
        idx = str(tmp_path / "ivfpq")
        build_ivf_pq_index(
            ds, idx, n_cells=16, m=32, n_codes=256, centroids=cent, codebooks=books
        )
        # persisted layout is cell-partitioned; raw vectors are NOT stored
        cells = sorted(glob.glob(os.path.join(idx, "cell=*")))
        assert len(cells) > 1
        import pyarrow.parquet as pq_

        one = glob.glob(os.path.join(cells[0], "*.parquet"))[0]
        assert "embedding" not in pq_.read_schema(one).names
        df = ds.to_pandas()
        queries = np.stack([np.asarray(v) for v in df["embedding"].head(5)])
        approx = knn_ivf_pq(idx, queries, k=10, n_probe=6)
        # every returned id must live in one of the query's probed cells
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        q_cells = np.argsort(-(qn @ cent.T), axis=1)[:, :6]
        mat = np.stack([np.asarray(v) for v in df["embedding"]])
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        row_cell = dict(
            zip(df["vec_id"].tolist(), np.argmax(mat @ cent.T, axis=1).tolist())
        )
        for _, r in approx.iterrows():
            assert row_cell[r["vec_id"]] in set(q_cells[int(r["query_idx"])])
        exact = knn_brute_force(ds, queries, k=10)
        recs = [
            len(
                set(approx[approx.query_idx == qi]["vec_id"])
                & set(exact[exact.query_idx == qi]["vec_id"])
            )
            / 10
            for qi in range(5)
        ]
        # 6/16 cells probed on uniform-random vectors (worst case): measured ~0.8
        assert np.mean(recs) >= 0.6


@pytest.mark.usefixtures("ray_session")
class TestBpeTrainDistributed:
    """Distributed BPE training: unpruned == the serial trainer exactly,
    block-structure independent, prunes deterministic, empty-safe."""

    CORPUS = [
        "the cat sat on the mat",
        "the cats sat on the mats",
        "a dog and a cat and a bird 123 !",
        "lowering the token count lowers the cost",
        "",
    ]

    def test_unpruned_equals_serial_and_block_independent(self):
        from ocr_platform_ray.functions.bpe import train_bpe
        from ocr_platform_ray.ops.bpe_train import bpe_train_distributed

        serial = train_bpe(self.CORPUS, n_merges=40)
        df = pd.DataFrame({"text": self.CORPUS})
        for parts in (1, 4):
            got = bpe_train_distributed(
                rd.from_pandas(df).repartition(parts), "text", n_merges=40
            )
            assert got == serial

    def test_histogram_prunes_deterministic(self):
        from ocr_platform_ray.ops.bpe_train import word_histogram

        ds = rd.from_pandas(pd.DataFrame({"text": self.CORPUS})).repartition(3)
        full = word_histogram(ds, "text")
        # exact counts: "the" appears 6 times across the corpus
        assert int(full.set_index("word").loc["the", "n"]) == 6
        pruned = word_histogram(ds, "text", min_count=2)
        assert set(pruned["word"]) == set(full[full["n"] >= 2]["word"])
        top = word_histogram(ds, "text", max_words=3)
        expect = full.sort_values(["n", "word"], ascending=[False, True]).head(3)
        assert list(top["word"]) == list(expect["word"])
        # exchange route (threshold 0 forces sharded_group_agg) == driver route
        top_ex = word_histogram(ds, "text", max_words=3, driver_threshold_rows=0)
        assert list(top_ex["word"]) == list(top["word"])
        assert list(top_ex["n"]) == list(top["n"])

    def test_exchange_route_merges_equal(self):
        from ocr_platform_ray.ops.bpe_train import bpe_train_distributed

        ds = rd.from_pandas(pd.DataFrame({"text": self.CORPUS})).repartition(3)
        a = bpe_train_distributed(ds, "text", n_merges=25)
        b = bpe_train_distributed(ds, "text", n_merges=25, driver_threshold_rows=0)
        assert a == b

    def test_empty_and_roundtrip_encode(self):
        from ocr_platform_ray.functions.bpe import BpeTokenizer
        from ocr_platform_ray.ops.bpe_train import bpe_train_distributed

        empty = rd.from_pandas(pd.DataFrame({"text": pd.Series(dtype="object")}))
        assert bpe_train_distributed(empty, "text", n_merges=10) == []
        merges = bpe_train_distributed(
            rd.from_pandas(pd.DataFrame({"text": self.CORPUS})), "text", n_merges=60
        )
        tok = BpeTokenizer(merges)
        # with enough merges every full word (+ eow) becomes one token
        assert tok.encode("the cat") == ["the</w>", "cat</w>"]


@pytest.mark.usefixtures("ray_session")
class TestTokenBudgetSample:
    """Per-source token-budget sampling: naive-reference equality,
    block-structure independence, budget edge semantics."""

    def _corpus(self, n=200):
        rng = np.random.RandomState(3)
        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "source": rng.choice(["web", "books", "code"], size=n),
                "n_tokens": rng.randint(1, 50, size=n).astype(np.int64),
            }
        )

    @staticmethod
    def _naive(df, budgets, seed):
        from ocr_platform_ray.ops.shuffle import shuffle_hash

        d = df.copy()
        d["sk"] = shuffle_hash(d["doc_id"].to_numpy(), seed).astype("int64")
        d = d.sort_values(["source", "sk"])
        d["cum_tokens"] = d.groupby("source")["n_tokens"].cumsum()
        lim = d["source"].map(
            lambda s: np.inf if budgets[s] is None else budgets[s]
        )
        return (
            d[d["cum_tokens"] <= lim][["doc_id", "source", "n_tokens", "cum_tokens"]]
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    def test_naive_equal_and_block_independent(self):
        from ocr_platform_ray.ops.mix import token_budget_sample

        df = self._corpus()
        budgets = {"web": 800, "books": 300, "code": 0, "unused": 10}
        want = self._naive(df, budgets, seed=5)
        assert len(want) > 0 and set(want["source"]) == {"web", "books"}
        for parts in (1, 7):
            got = (
                token_budget_sample(
                    rd.from_pandas(df).repartition(parts),
                    source_col="source",
                    key_col="doc_id",
                    token_col="n_tokens",
                    budgets=budgets,
                    seed=5,
                )
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_none_unlimited_zero_excludes_missing_raises(self):
        from ocr_platform_ray.ops.mix import token_budget_sample

        df = self._corpus(60)
        ds = rd.from_pandas(df)
        got = token_budget_sample(
            ds,
            source_col="source",
            key_col="doc_id",
            token_col="n_tokens",
            budgets={"web": None, "books": None, "code": 0},
        ).to_pandas()
        keep = set(df[df.source != "code"]["doc_id"])
        assert set(got["doc_id"]) == keep
        with pytest.raises(KeyError, match="missing from budgets"):
            token_budget_sample(
                ds,
                source_col="source",
                key_col="doc_id",
                token_col="n_tokens",
                budgets={"web": 100},
            ).to_pandas()
        with pytest.raises(ValueError, match="must be >= 0"):
            token_budget_sample(
                ds,
                source_col="source",
                key_col="doc_id",
                token_col="n_tokens",
                budgets={"web": -1, "books": 1, "code": 1},
            )

    def test_seed_changes_fill_same_budget_different_docs(self):
        from ocr_platform_ray.ops.mix import token_budget_sample

        df = self._corpus()
        ds = rd.from_pandas(df)
        kw = dict(
            source_col="source", key_col="doc_id", token_col="n_tokens",
            budgets={"web": 400, "books": 400, "code": 400},
        )
        a = token_budget_sample(ds, seed=1, **kw).to_pandas()
        b = token_budget_sample(ds, seed=2, **kw).to_pandas()
        for g in (a, b):  # budget respected per source
            assert (g.groupby("source")["cum_tokens"].max() <= 400).all()
        assert set(a["doc_id"]) != set(b["doc_id"])


@pytest.mark.usefixtures("ray_session")
class TestUnigram:
    """Unigram-LM tokenizer (Kudo 2018): serial == distributed, Viterbi
    optimality vs brute force, block independence, planted-piece
    recovery + compression, unknown-char fallback, empty-safe."""

    CORPUS = [
        "interchange interlock international internet",
        "interstate internal interview interact interchange",
        "unlock undo unplug unfold unlock undo",
        "relock redo replug refold relock redo interchange",
        "",
    ]

    def test_serial_equals_distributed_and_block_independent(self):
        from ocr_platform_ray.ops.unigram import (
            unigram_train,
            unigram_train_distributed,
        )

        kw = dict(vocab_size=60, max_piece_len=6, seed_size=300, n_sub_iters=2)
        serial = unigram_train(self.CORPUS, **kw)
        df = pd.DataFrame({"text": self.CORPUS})
        for parts in (1, 4):
            got = unigram_train_distributed(
                rd.from_pandas(df).repartition(parts), "text", **kw
            )
            assert set(got) == set(serial)
            for p in serial:
                assert abs(got[p] - serial[p]) < 1e-12

    def test_exchange_finish_route_equal(self):
        from ocr_platform_ray.ops.unigram import (
            unigram_train,
            unigram_train_distributed,
        )

        kw = dict(vocab_size=60, max_piece_len=6, seed_size=300, n_sub_iters=2)
        serial = unigram_train(self.CORPUS, **kw)
        got = unigram_train_distributed(
            rd.from_pandas(pd.DataFrame({"text": self.CORPUS})).repartition(3),
            "text",
            driver_threshold_rows=0,  # force the hash-shard histogram finish
            **kw,
        )
        assert set(got) == set(serial)
        for p in serial:
            assert abs(got[p] - serial[p]) < 1e-12

    def test_viterbi_optimal_vs_bruteforce(self):
        import itertools
        import math

        from ocr_platform_ray.ops.unigram import UnigramTokenizer

        rng = np.random.RandomState(5)
        pieces = ["a", "b", "c", "ab", "bc", "abc", "ca", "bca"]
        logp = {p: float(lp) for p, lp in zip(pieces, -rng.rand(len(pieces)) * 4 - 1)}
        tok = UnigramTokenizer(logp, max_piece_len=3)

        def brute_best(word):
            # enumerate all segmentations via cut masks
            L = len(word)
            best = None
            for mask in itertools.product([0, 1], repeat=L - 1):
                cuts = [0] + [i + 1 for i, m in enumerate(mask) if m] + [L]
                segs = [word[cuts[k]: cuts[k + 1]] for k in range(len(cuts) - 1)]
                if any(s not in logp for s in segs):
                    continue
                score = sum(logp[s] for s in segs)
                if best is None or score > best:
                    best = score
            return best

        for word in ["abc", "abca", "bcabc", "aabbcc", "cabcab"]:
            want = brute_best(word)
            got = tok.encode_word(word)
            score = sum(logp.get(s, tok.unk) for s in got)
            assert want is not None
            assert "".join(got) == word
            assert math.isclose(score, want, rel_tol=0, abs_tol=1e-12)

    def test_planted_pieces_recovered_and_compress(self):
        from ocr_platform_ray.ops.unigram import (
            UnigramTokenizer,
            unigram_train_distributed,
        )

        # corpus = concatenations of two 4-char morphemes
        words = ["wxyz", "qrst", "wxyzqrst", "qrstwxyz", "wxyzwxyz"]
        texts = [" ".join(words) for _ in range(10)]
        ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(2)
        vocab = unigram_train_distributed(
            ds, "text", vocab_size=12, max_piece_len=4, seed_size=100
        )
        assert "wxyz" in vocab and "qrst" in vocab
        tok = UnigramTokenizer(vocab, max_piece_len=4)
        assert tok.encode_word("wxyzqrst") == ["wxyz", "qrst"]
        n_chars = sum(len(w) for w in words)
        assert sum(len(tok.encode_word(w)) for w in words) < n_chars / 2

    def test_unknown_char_fallback_and_empty(self):
        import ray.data as rdm

        from ocr_platform_ray.ops.unigram import (
            UnigramTokenizer,
            unigram_train_distributed,
        )

        vocab = {"a": -1.0, "b": -1.0, "ab": -0.5}
        tok = UnigramTokenizer(vocab, max_piece_len=2)
        assert tok.encode_word("axb") == ["a", "x", "b"]  # x unseen
        assert "".join(tok.encode("ab zq")) == "abzq"
        empty = rdm.from_pandas(pd.DataFrame({"text": pd.Series(dtype="object")}))
        assert unigram_train_distributed(empty, "text") == {}
        assert UnigramTokenizer({}).encode_word("ab") == ["a", "b"]


@pytest.mark.usefixtures("ray_session")
class TestFullyDuplicateIncrement:
    def test_all_dup_increment_commits_and_replays(self, tmp_path):
        from ocr_platform_ray.ops.incremental import (
            committed_ingests,
            incremental_exact_dedup,
        )

        sd = str(tmp_path / "state")
        mk = lambda ids: rd.from_pandas(
            pd.DataFrame(
                {"doc_id": np.array(ids, dtype=np.int64),
                 "text": [f"t{i % 4}" for i in range(len(ids))]}
            )
        )
        s1 = incremental_exact_dedup(mk(range(8)), "text", "doc_id", sd, ingest_id="day1")
        assert s1.count() == 4
        # day2 is 100% duplicates of day1 -> zero survivors, but the
        # ingest must still COMMIT (and replay as an empty read)
        s2 = incremental_exact_dedup(mk(range(100, 108)), "text", "doc_id", sd, ingest_id="day2")
        assert s2.count() == 0
        assert committed_ingests(sd) == ["day1", "day2"]
        replay = incremental_exact_dedup(mk(range(100, 108)), "text", "doc_id", sd, ingest_id="day2")
        assert replay.count() == 0
        # day3 continues normally on top of the empty commit
        s3 = incremental_exact_dedup(
            rd.from_pandas(pd.DataFrame({"doc_id": np.array([500], dtype=np.int64), "text": ["fresh"]})),
            "text", "doc_id", sd, ingest_id="day3",
        )
        assert s3.count() == 1


@pytest.mark.usefixtures("ray_session")
class TestBm25Index:
    """Persisted token-hash-partitioned inverted index: bit-identical to
    the full-scan bm25_topk, reads only the query terms' shards, atomic
    publish, idempotent rebuild."""

    def _docs(self, n=60, seed=3):
        rng = np.random.RandomState(seed)
        vocab = [f"w{i}" for i in range(40)] + ["table", "scan", "merge", "window"]
        texts = [
            " ".join(rng.choice(vocab, size=rng.randint(5, 30)))
            for _ in range(n)
        ]
        return pd.DataFrame({"doc_id": np.arange(n, dtype="int64"), "text": texts})

    def test_bit_identical_to_full_scan(self, tmp_path):
        from ocr_platform_ray.ops.search import (
            bm25_search_index, bm25_topk, build_bm25_index,
        )

        df = self._docs()
        ds = rd.from_pandas(df).repartition(5)
        build_bm25_index(ds, str(tmp_path / "idx"))
        for q in ["table scan merge window", "w1 w2", "scan", "zzz missing"]:
            got = bm25_search_index(str(tmp_path / "idx"), q, k=10)
            want = bm25_topk(ds, q, k=10)
            pd.testing.assert_frame_equal(got, want)

    def test_build_block_structure_independent(self, tmp_path):
        from ocr_platform_ray.ops.search import bm25_search_index, build_bm25_index

        df = self._docs()
        for i, parts in enumerate((1, 7)):
            build_bm25_index(
                rd.from_pandas(df).repartition(parts), str(tmp_path / f"i{i}")
            )
        a = bm25_search_index(str(tmp_path / "i0"), "table scan w3", k=10)
        b = bm25_search_index(str(tmp_path / "i1"), "table scan w3", k=10)
        pd.testing.assert_frame_equal(a, b)

    def test_partition_pruning_reads_only_query_shards(self, tmp_path):
        """Deleting every shard the query does NOT hash to must not
        change the result — proof the search never opens them."""
        import shutil

        from ocr_platform_ray.ops.search import (
            _query_terms, _term_shards, bm25_search_index, build_bm25_index,
        )

        df = self._docs()
        idx = str(tmp_path / "idx")
        build_bm25_index(rd.from_pandas(df), idx, n_shards=16)
        q = "table merge"
        want = bm25_search_index(idx, q, k=10)
        keep = set(_term_shards(_query_terms(q), 16))
        removed = 0
        for d in (tmp_path / "idx").glob("shard=*"):
            if int(d.name.split("=")[1]) not in keep:
                shutil.rmtree(d)
                removed += 1
        assert removed > 0  # the prune is real
        got = bm25_search_index(idx, q, k=10)
        pd.testing.assert_frame_equal(got, want)

    def test_rebuild_idempotent_and_empty_cases(self, tmp_path):
        from ocr_platform_ray.ops.search import (
            bm25_search_index, bm25_topk, build_bm25_index,
        )

        df = self._docs(20)
        ds = rd.from_pandas(df)
        idx = str(tmp_path / "idx")
        s1 = build_bm25_index(ds, idx)
        s2 = build_bm25_index(ds, idx)  # rebuild over the same dir
        assert s1 == s2
        got = bm25_search_index(idx, "table scan", k=5)
        pd.testing.assert_frame_equal(got, bm25_topk(ds, "table scan", k=5))
        assert len(bm25_search_index(idx, "   ")) == 0
        assert len(bm25_search_index(idx, "qqq_zzz")) == 0

    def test_torn_build_invisible(self, tmp_path):
        """A build that died before the stats.json publish must read as
        index-absent, never as a half-index."""
        import os

        from ocr_platform_ray.ops.search import bm25_search_index, build_bm25_index

        idx = str(tmp_path / "idx")
        build_bm25_index(rd.from_pandas(self._docs(10)), idx)
        os.remove(os.path.join(idx, "stats.json"))  # simulate pre-publish crash
        with pytest.raises(FileNotFoundError):
            bm25_search_index(idx, "table")


@pytest.mark.usefixtures("ray_session")
class TestFunnelMatch:
    """Ordered-sequence funnel: first-touch greedy, strictly-after
    chaining, optional within-deadline — naive-reference equality and
    block independence."""

    def _naive(self, df, steps, within=None):
        rows = []
        for key, g in df.groupby("user_id"):
            t = None
            first = None
            stage = 0
            for step in steps:
                ev = g[g["event_type"] == step]
                if t is not None:
                    ev = ev[ev["ts"] > t]
                if within is not None and first is not None:
                    ev = ev[ev["ts"] <= first + within]
                if ev.empty:
                    break
                t = ev["ts"].min()
                stage += 1
                if first is None:
                    first = t
            if stage:
                rows.append((key, stage, first, t))
        return (
            pd.DataFrame(rows, columns=["user_id", "stage", "t_first", "t_stage"])
            .sort_values("user_id")
            .reset_index(drop=True)
        )

    def _events(self, seed=7, n=400, users=12):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "user_id": rng.randint(0, users, n).astype("int64"),
                "ts": pd.Timestamp("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 10**6, n), unit="s"),
                "event_type": rng.choice(["view", "click", "purchase", "error"], n),
            }
        )

    def test_matches_naive_with_and_without_window(self):
        from ocr_platform_ray.ops.windows import funnel_match

        df = self._events()
        steps = ["view", "click", "purchase"]
        for within in (None, pd.Timedelta(hours=6)):
            got = funnel_match(
                rd.from_pandas(df).repartition(5), steps, within=within
            )
            want = self._naive(df, steps, within)
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # discriminating fixture: not everyone converts under the window
        tight = funnel_match(rd.from_pandas(df), steps, within=pd.Timedelta(hours=6))
        assert set(tight["stage"]) >= {1, 2}

    def test_strictly_after_equal_ts_cannot_chain(self):
        from ocr_platform_ray.ops.windows import funnel_match

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                "user_id": [1, 1, 2, 2],
                "ts": [t0, t0, t0, t0 + pd.Timedelta(seconds=1)],
                "event_type": ["view", "click", "view", "click"],
            }
        )
        got = funnel_match(rd.from_pandas(df), ["view", "click"])
        by = got.set_index("user_id")["stage"]
        assert by[1] == 1  # simultaneous click does not count
        assert by[2] == 2

    def test_within_deadline_inclusive_boundary(self):
        from ocr_platform_ray.ops.windows import funnel_match

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                "user_id": [1, 1, 2, 2],
                "ts": [t0, t0 + pd.Timedelta(hours=1), t0, t0 + pd.Timedelta(hours=1, seconds=1)],
                "event_type": ["view", "click"] * 2,
            }
        )
        got = funnel_match(
            rd.from_pandas(df), ["view", "click"], within=pd.Timedelta(hours=1)
        )
        by = got.set_index("user_id")["stage"]
        assert by[1] == 2  # exactly at deadline counts (<=)
        assert by[2] == 1

    def test_block_structure_independent(self):
        from ocr_platform_ray.ops.windows import funnel_match

        df = self._events(seed=13)
        steps = ["view", "click", "purchase"]
        outs = [
            funnel_match(rd.from_pandas(df).repartition(p), steps)
            for p in (1, 9)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_empty_and_validation(self):
        from ocr_platform_ray.ops.windows import funnel_match

        df = self._events(seed=1, n=50)
        none_match = funnel_match(rd.from_pandas(df), ["nonexistent_type"])
        assert len(none_match) == 0
        with pytest.raises(ValueError):
            funnel_match(rd.from_pandas(df), [])
        with pytest.raises(ValueError):
            funnel_match(rd.from_pandas(df), ["view", "view"])


@pytest.mark.usefixtures("ray_session")
class TestHits:
    """HITS hubs/authorities: numpy power-iteration equality, star-graph
    shape, parallel-edge multiplicity, empty input, validation."""

    def _numpy_hits(self, e, n_iter):
        nodes = np.sort(np.unique(np.concatenate([e["src"], e["dst"]])))
        idx = {v: i for i, v in enumerate(nodes)}
        A = np.zeros((len(nodes), len(nodes)))
        for s, d in zip(e["src"], e["dst"]):
            A[idx[s], idx[d]] += 1
        h = np.ones(len(nodes)) / np.sqrt(len(nodes))
        a = h
        for _ in range(n_iter):
            a = A.T @ h
            n = np.linalg.norm(a)
            a = a / n if n > 0 else a
            h = A @ a
            n = np.linalg.norm(h)
            h = h / n if n > 0 else h
        return nodes, h, a

    def test_matches_numpy_reference_with_parallel_edges(self):
        from ocr_platform_ray.ops.graph import hits

        rng = np.random.RandomState(4)
        e = pd.DataFrame(
            {"src": rng.randint(0, 12, 80), "dst": rng.randint(0, 12, 80)}
        )
        for parts in (1, 4):
            got = hits(rd.from_pandas(e).repartition(parts), n_iter=15)
            nodes, h, a = self._numpy_hits(e, 15)
            assert list(got["node"]) == list(nodes)
            np.testing.assert_allclose(got["hub"].to_numpy(), h, rtol=1e-9)
            np.testing.assert_allclose(got["authority"].to_numpy(), a, rtol=1e-9)

    def test_star_graph_roles(self):
        from ocr_platform_ray.ops.graph import hits

        e = pd.DataFrame({"src": [1, 2, 3, 4, 5], "dst": [0] * 5})
        got = hits(rd.from_pandas(e), n_iter=10).set_index("node")
        assert got["authority"].idxmax() == 0
        assert got.loc[0, "hub"] == 0.0
        np.testing.assert_allclose(
            got.loc[[1, 2, 3, 4, 5], "hub"].to_numpy(), 1 / np.sqrt(5)
        )

    def test_empty_and_validation(self):
        from ocr_platform_ray.ops.graph import hits

        empty = rd.from_pandas(
            pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")})
        )
        assert len(hits(empty)) == 0
        with pytest.raises(ValueError):
            hits(empty, n_iter=0)
