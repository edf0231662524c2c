"""Print the flagship pipeline's per-stage Ray Data stats (the
measure-don't-guess loop: wall/UDF time, block counts, throughput per
operator).

With ``--udf`` it runs no Ray at all: it times ``extract_page`` in this
process over the generated corpus, one url class at a time, and prints
per class the µs per page, the user and system CPU seconds and the
minor page faults (``resource.getrusage``) — system time and faults
show work the kernel does for the UDF, such as faulting in fresh
buffers.

Usage: python tools/profile_extraction.py [n_urls] [--shuffle]
       python tools/profile_extraction.py [n_urls] --udf
"""

import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def profile_udf(n_urls: int) -> None:
    import resource

    from ocr_platform_ray.corpus import is_realpdf_url, is_scanned_url, make_pages_rows
    from ocr_platform_ray.stages.extract import extract_page

    by_class: dict[str, list] = {"html": [], "pdf": [], "scanned": []}
    for u in range(n_urls):
        cls = "pdf" if is_realpdf_url(u) else "scanned" if is_scanned_url(u) else "html"
        by_class[cls].extend((r["html"], r["text"]) for r in make_pages_rows([u]))
    for pages in by_class.values():  # warm per-process caches
        if pages:
            extract_page(*pages[0])

    print(f"# extract_page in one process, {n_urls} urls")
    print(f"{'class':8} {'pages':>6} {'us/page':>9} {'user_s':>8} {'sys_s':>7} {'minflt':>8} {'flt/page':>9}")
    for cls, pages in by_class.items():
        if not pages:
            continue
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for html, prior in pages:
            extract_page(html, prior)
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        n, flt = len(pages), r1.ru_minflt - r0.ru_minflt
        print(
            f"{cls:8} {n:6d} {1e6 * wall / n:9.0f} {r1.ru_utime - r0.ru_utime:8.3f} "
            f"{r1.ru_stime - r0.ru_stime:7.3f} {flt:8d} {flt / n:9.1f}"
        )


def main() -> None:
    udf = "--udf" in sys.argv
    n_urls = int(sys.argv[1]) if len(sys.argv) > 1 and sys.argv[1].isdigit() else (1200 if udf else 6000)
    if udf:
        profile_udf(n_urls)
        return
    partitioned = "--shuffle" not in sys.argv

    import ray

    ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ocr_platform_ray.corpus import write_pages_parquet
    from ocr_platform_ray.pipelines.extraction import extraction_pipeline, read_pages

    corpus_dir = f"/tmp/ocr_profile_corpus_{n_urls}"
    if not os.path.isdir(corpus_dir) or not os.listdir(corpus_dir):
        write_pages_parquet(corpus_dir, n_urls, urls_per_shard=250)

    def run():
        docs = extraction_pipeline(read_pages(corpus_dir), partitioned_input=partitioned)
        n = sum(b.num_rows for b in docs.iter_batches(batch_format="pyarrow"))
        return docs, n

    run()  # warm
    t0 = time.monotonic()
    docs, n = run()
    wall = time.monotonic() - t0
    print(f"# {n} docs, wall {wall:.2f}s, path={'partitioned' if partitioned else 'shuffle'}")
    print(docs.stats())
    ray.shutdown()


if __name__ == "__main__":
    main()
