"""Per-layer timings for the traced run.

Spans are taken from the benchmark's side, around calls into each
layer's public functions; nothing inside the package is instrumented.
The job is split the way ``run_with_manifest`` runs it, one fragment
group at a time, and each group is consumed through a growing prefix of
the pipeline.  The cumulative walls telescope to the traced job wall:

    ray.read_s <= ray.identity_floor_s <= wall.extract_stage_s
               <= wall.pipeline_s <= wall.traced_s

``wall.remainder_s`` is the part of the extract stage that the
in-process UDF time does not explain (Ray task, serialization and
Arrow-building overhead around ``extract_page``).
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import statistics
import time
from collections import defaultdict

from inputs import CLASSES, FRAGMENTS_PER_PART, pages_rows, url_class

# pages of a class the workload lacks are timed over this many urls of
# that class, generated with the workload's seed
SIDE_SAMPLE_URLS = 12


def _consume(ds) -> int:
    return sum(b.num_rows for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _url_idx(url: str) -> int:
    return int(url.rsplit("/", 1)[1])


def _page_rows(pages_dir: str):
    import pyarrow.parquet as pq

    for path in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(path, columns=["url", "html", "text"])
        yield from zip(*(t.column(c).to_pylist() for c in t.column_names))


def _side_sample(cls: str, seed: int):
    urls = itertools.islice((u for u in itertools.count() if url_class(u) == cls), SIDE_SAMPLE_URLS)
    for r in pages_rows(urls, seed):
        yield r["url"], r["html"], r["text"]


def udf_layers(pages_dir: str, seed: int) -> dict:
    """``extract_page`` and ``pdf_page_boxes`` in this process, per url
    class, over the workload's own pages (and a seeded side sample for a
    class the workload does not hold)."""
    from ocr_platform_ray.schemas import FLAG_EMPTY
    from ocr_platform_ray.stages.extract import extract_page
    from ocr_platform_ray.stages.pdf import pdf_page_boxes

    secs, pages = defaultdict(float), defaultdict(int)
    boxes_secs, boxes_pages = defaultdict(float), defaultdict(int)
    counts = {"extract.pages": 0, "extract.failed_pages": 0, "extract.empty_pages": 0}
    udf_s = 0.0

    def run(rows, own: bool):
        nonlocal udf_s
        for url, html, prior in rows:
            cls = url_class(_url_idx(url))
            t0 = time.perf_counter()
            r = extract_page(html, prior)
            dt = time.perf_counter() - t0
            secs[cls] += dt
            pages[cls] += 1
            if own:
                udf_s += dt
                counts["extract.pages"] += 1
                counts["extract.failed_pages"] += r["failed_stage"] is not None
                counts["extract.empty_pages"] += FLAG_EMPTY in r["flags"]
            if cls != "html" and html:
                t0 = time.perf_counter()
                pdf_page_boxes(html)
                boxes_secs[cls] += time.perf_counter() - t0
                boxes_pages[cls] += 1

    run(_page_rows(pages_dir), own=True)
    for cls in CLASSES:
        if not pages[cls]:
            run(_side_sample(cls, seed), own=False)

    out = {f"extract.us_per_page.{c}": (1e6 * secs[c] / pages[c], "us") for c in CLASSES}
    out.update({k: (v, "count") for k, v in counts.items()})
    out["extract.udf_s"] = (udf_s, "s")
    for cls, name in (("pdf", "text"), ("scanned", "scanned")):
        out[f"pdf.page_boxes_us_per_page.{name}"] = (
            1e6 * boxes_secs[cls] / boxes_pages[cls],
            "us",
        )
    return out


def run_job(workload, pages_dir: str, out_dir: str) -> dict:
    """The job under test: ``run_extraction`` as the workload ships it.
    Over a finished ``out_dir`` it resumes and skips every part."""
    from ocr_platform_ray.pipelines.extraction import run_extraction

    return run_extraction(
        pages_dir,
        out_dir,
        partitioned_input=workload.partitioned_input,
        fragments_per_part=FRAGMENTS_PER_PART,
    )


def _fragment_groups(pages_dir: str) -> list[list[str]]:
    frags = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    return [frags[i : i + FRAGMENTS_PER_PART] for i in range(0, len(frags), FRAGMENTS_PER_PART)]


def _read(group: list[str], file_aligned: bool):
    """The read ``run_with_manifest`` issues for one fragment group."""
    import ray.data as rd

    from ocr_platform_ray.pipelines.extraction import PAGE_COLUMNS

    kwargs = {"override_num_blocks": len(group)} if file_aligned else {}
    return rd.read_parquet(group, columns=PAGE_COLUMNS, **kwargs)


def _identity(batch):
    return batch


def ray_pass(workload, pages_dir: str, out_dir: str) -> tuple[dict, dict]:
    """One traced pass of the Ray layers and of the job.  Returns
    (metrics, job result of the resume rerun)."""
    from ocr_platform_ray.pipelines.extraction import extract_pages_ds, extraction_pipeline
    from ocr_platform_ray.stages.reassemble import reassemble_docs, reassemble_docs_partitioned

    from procstat import tree_cpu_s

    aligned = workload.partitioned_input
    groups = _fragment_groups(pages_dir)

    def over_groups(build) -> float:
        return sum(_timed(lambda g=g: _consume(build(_read(g, aligned)))) for g in groups)

    m = {
        "ray.read_s": over_groups(lambda ds: ds),
        "ray.identity_floor_s": over_groups(
            lambda ds: ds.map_batches(_identity, batch_format="pyarrow", batch_size=256)
        ),
        "wall.extract_stage_s": over_groups(extract_pages_ds),
        "wall.pipeline_s": over_groups(
            lambda ds: extraction_pipeline(ds, partitioned_input=aligned)
        ),
    }

    cpu0 = tree_cpu_s()
    m["wall.traced_s"] = _timed(lambda: run_job(workload, pages_dir, out_dir))
    m["ray.cpu_s"] = tree_cpu_s() - cpu0
    m["manifest.commit_s"] = m["wall.traced_s"] - m["wall.pipeline_s"]

    resume = {}
    m["manifest.resume_s"] = _timed(lambda: resume.update(run_job(workload, pages_dir, out_dir)))

    manifests = []
    for path in sorted(glob.glob(os.path.join(out_dir, "_manifest", "part-*.json"))):
        with open(path) as f:
            manifests.append(json.load(f))
    part_walls = [mf["wall_s"] for mf in manifests]
    m["manifest.parts"] = len(manifests)
    m["manifest.out_bytes"] = sum(mf["out_bytes"] for mf in manifests)
    m["manifest.part_wall_s.p50"] = statistics.median(part_walls)
    m["manifest.part_wall_s.max"] = max(part_walls)

    all_files = [f for g in groups for f in g]
    extracted = extract_pages_ds(_read(all_files, True)).materialize()
    m["reassemble.exchange_s"] = _timed(lambda: _consume(reassemble_docs(extracted)))
    m["reassemble.aligned_s"] = _timed(
        lambda: _consume(reassemble_docs_partitioned(extracted))
    )
    del extracted
    return m, resume


UNITS = {
    "manifest.parts": "count",
    "manifest.out_bytes": "bytes",
}


def combine(udf: dict, passes: list[dict], num_cpus: int) -> dict:
    """Medians over the traced passes, plus the ratios that need both the
    in-process and the Ray readings.  ``extract.udf_s`` is serial time in
    one process; spread over ``num_cpus`` Ray CPUs it is at best
    ``udf_s / num_cpus`` of wall time, which is what the ratios use."""
    out = dict(udf)
    for name in passes[0]:
        out[name] = (statistics.median(p[name] for p in passes), UNITS.get(name, "s"))
    udf_wall = udf["extract.udf_s"][0] / num_cpus
    out["ray.udf_share"] = (udf_wall / out["wall.traced_s"][0], "ratio")
    out["wall.remainder_s"] = (
        out["wall.extract_stage_s"][0] - out["ray.identity_floor_s"][0] - udf_wall,
        "s",
    )
    return out
