"""Seeded benchmark inputs: the pages corpus of each workload and its
single-process reference, cached under ``perfbench/.cache``.

The cache key is the workload, the seed and a content hash of the corpus
generators (``corpus.py``, ``sources/pdfgen.py``, ``sources/scangen.py``)
plus this file, so a stale corpus is never reused and generation stays out
of the timed set-up on every commit.

The reference is what the job must produce: per url, ``extract_page`` run
in this process over every page, laid out with ``page_text`` and joined
with ``PAGE_SEP`` in ``warc_ts`` order, then hashed.  It imports nothing
from Ray.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
GENERATOR_FILES = (
    "ocr_platform_ray/corpus.py",
    "ocr_platform_ray/sources/pdfgen.py",
    "ocr_platform_ray/sources/scangen.py",
)

CLASSES = ("html", "pdf", "scanned")
# url-range shards per corpus, and shards per manifest part: two parts,
# so the per-part commit path runs more than once per job
N_FILES = 8
FRAGMENTS_PER_PART = 4


def url_class(url_idx: int) -> str:
    """The url class ``corpus.py`` assigns to a url index."""
    from ocr_platform_ray.corpus import is_realpdf_url, is_scanned_url

    return "pdf" if is_realpdf_url(url_idx) else "scanned" if is_scanned_url(url_idx) else "html"


@dataclass(frozen=True)
class Workload:
    name: str
    n_urls: int           # url indices [0, n_urls) before the class filter
    html_only: bool       # keep only html-class urls
    shuffle_rows: bool    # seeded random row order within each file
    partitioned_input: bool

    def url_indices(self) -> list[int]:
        urls = range(self.n_urls)
        return [u for u in urls if url_class(u) == "html"] if self.html_only else list(urls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("html_aligned", 1500, True, False, True),
        Workload("mixed_shuffle", 600, False, True, False),
    )
}


def generator_hash() -> str:
    h = hashlib.sha256()
    for rel in GENERATOR_FILES + (os.path.relpath(__file__, ROOT),):
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(rel.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def corpus_dir(workload: Workload, seed: int) -> str:
    return os.path.join(CACHE_DIR, f"{workload.name}-s{seed}-{generator_hash()}")


def _shards(urls: list[int]) -> list[list[int]]:
    per = -(-len(urls) // N_FILES)
    return [urls[i : i + per] for i in range(0, len(urls), per)]


def pages_rows(url_indices, seed: int):
    """Page rows of ``url_indices`` as ``corpus.make_pages_rows`` builds
    them, except that each url's page count is the corpus default and does
    not follow ``seed``: every seed is a job of the same size.  The seed
    changes the page content only."""
    from ocr_platform_ray.corpus import _BASE_TS, n_pages_for, page_payload, url_for

    for u in url_indices:
        for p in range(n_pages_for(u)):
            html, prior, lang = page_payload(u, p, seed)
            ts = _BASE_TS + datetime.timedelta(seconds=u * 100000 + p)
            yield {"url": url_for(u), "warc_ts": ts, "html": html, "text": prior, "lang": lang}


def write_corpus(workload: Workload, seed: int, out_dir: str) -> list[str]:
    """Write the workload's pages as url-range shards, one parquet file
    each.  A url's pages never span files, so they never span manifest
    fragment groups either.  Same seed, same bytes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_platform_ray.schemas import PAGES_SCHEMA

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, shard in enumerate(_shards(workload.url_indices())):
        rows = list(pages_rows(shard, seed))
        if workload.shuffle_rows:
            random.Random(f"perfbench:{seed}:{i}").shuffle(rows)
        table = pa.Table.from_pydict(
            {c: [r[c] for r in rows] for c in PAGES_SCHEMA.names}, schema=PAGES_SCHEMA
        )
        path = os.path.join(out_dir, f"pages-{i:05d}.parquet")
        pq.write_table(table, path)
        paths.append(path)
    return paths


def expected_failed_pages(url_indices) -> int:
    """Failed pages the corpus fixture documents: the one undecodable page
    of ``URL_MALFORMED``."""
    from ocr_platform_ray.corpus import URL_MALFORMED

    return int(URL_MALFORMED in set(url_indices))


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_reference(pages_dir: str) -> dict:
    """Single-process reference over every page of ``pages_dir``."""
    import pyarrow.parquet as pq

    from ocr_platform_ray.schemas import FLAG_EMPTY
    from ocr_platform_ray.stages.extract import extract_page
    from ocr_platform_ray.stages.reassemble import PAGE_SEP, page_text

    pages: dict[str, list] = {}
    failed = empty = 0
    for name in sorted(os.listdir(pages_dir)):
        if not name.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(pages_dir, name), columns=["url", "warc_ts", "html", "text"])
        for url, ts, html, prior in zip(*(t.column(c).to_pylist() for c in t.column_names)):
            r = extract_page(html, prior)
            failed += r["failed_stage"] is not None
            empty += FLAG_EMPTY in r["flags"]
            pages.setdefault(url, []).append((ts, page_text(r["header"], r["body"], r["footnotes"])))
    digests = {
        url: text_digest(PAGE_SEP.join(text for _, text in sorted(ps, key=lambda p: p[0])))
        for url, ps in pages.items()
    }
    return {
        "digests": digests,
        "pages": sum(len(ps) for ps in pages.values()),
        "failed_pages": failed,
        "empty_pages": empty,
    }


def prepare(workload: Workload, seed: int) -> tuple[str, dict]:
    """(pages directory, reference) for ``workload`` at ``seed``, built
    once and reused from the cache afterwards.  A cache entry is
    published by renaming its directory, so a killed build is rebuilt."""
    final = corpus_dir(workload, seed)
    pages_dir = os.path.join(final, "pages")
    ref_path = os.path.join(final, "reference.json")
    if not os.path.exists(ref_path):
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        write_corpus(workload, seed, os.path.join(tmp, "pages"))
        ref = compute_reference(os.path.join(tmp, "pages"))
        ref["expected_failed_pages"] = expected_failed_pages(workload.url_indices())
        with open(os.path.join(tmp, "reference.json"), "w") as f:
            json.dump(ref, f)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    with open(ref_path) as f:
        return pages_dir, json.load(f)
