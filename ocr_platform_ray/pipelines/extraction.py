"""The flagship pipeline (SURVEY.md §3.1 rebuild shape):

    url census (every file's url column) -> local urls and residual urls
    per input file, one plain Ray task:
        read the file -> drop its residual urls -> each page from bytes
        to row in one pass -> assemble its urls' docs -> write
    the residual urls of every file, as one Ray Data execution:
        read_parquet(filtered) -> map_batches(ExtractPages(), fused into
        the read) -> hash(url) % 64 shard exchange (reassemble in warc_ts
        order) -> write_parquet
    -> manifest per part

Mirrors the reference's book OCR path (POST /book/ocr -> book worker
fan-out -> per-page pipeline -> persist, apps/queue/src/routes/ocr.ts:18-46,
queues/book/worker.ts:11-47, queues/page/worker.ts:19-98) as one streaming
batch job.  Heavy per-row extraction runs BEFORE the url shuffle so the
shuffle payload is extracted text, not raw html bytes (SURVEY.md §4)."""

from __future__ import annotations

import functools
import glob
import os

import pyarrow as pa
import ray.data as rd

from ..stages.extract import PAGE_SLICE, ExtractPages, _extract_row
from ..stages.reassemble import _assemble_docs, _page_order, reassemble_docs
from ..stages.reassemble import reassemble_docs_partitioned
from ..stages.skew import explode_oversized

PAGE_COLUMNS = ["url", "warc_ts", "html", "text"]


def read_pages(path: str) -> rd.Dataset:
    """Column-pruned read of a pages-table parquet directory/file, one
    block per file: the shape the job runs.  The read fuses with the
    extraction map (a read that splits its files, planned as
    ``ReadParquet->SplitBlocks``, fuses with nothing), and on a
    url-ranged or url-hash-sharded layout every block holds all pages of
    its urls, as ``extraction_pipeline(partitioned_input=True)`` needs.
    A file bigger than ``DataContext.target_max_block_size`` still comes
    out as several blocks; this function does not check for it."""
    n_files = len(glob.glob(os.path.join(path, "*.parquet"))) if os.path.isdir(path) else 1
    return rd.read_parquet(path, columns=PAGE_COLUMNS, override_num_blocks=max(n_files, 1))


def extract_pages_ds(pages: rd.Dataset, *, batch_size: int = PAGE_SLICE) -> rd.Dataset:
    """Per-page extraction stage.  ``batch_size`` is deliberately modest:
    rows carry whole-page html blobs, so batch bytes = batch_size x page
    size; oversized blobs are handled by slices inside the UDF
    (``ExtractPages``, SURVEY.md §7 hard-parts #3/#4).  The map itself
    takes whole blocks (``batch_size=None``): a numeric batch size on the
    first map after a read keeps Ray from fusing the two, and every raw
    page then crosses the object store between a read task and an
    extract task.  Runs as stateless tasks: the extractor's only state is
    compiled regexes."""
    return pages.map_batches(
        ExtractPages(batch_size), batch_format="pyarrow", batch_size=None
    )


def extraction_pipeline(
    pages: rd.Dataset,
    *,
    batch_size: int = PAGE_SLICE,
    partitioned_input: bool = False,
) -> rd.Dataset:
    """pages Dataset -> per-document Dataset with the byte-identical
    ``extracted_text`` per url (DOC_OUT_SCHEMA).

    ``partitioned_input=True`` selects the shuffle-free reassembly
    (``reassemble_docs_partitioned``) — valid only when every input block
    holds all pages of its urls (url-ranged shard layout, unsplit file
    reads).  Both reassemblies produce byte-identical output (asserted in
    tests).  ``extract_docs`` is the same pipeline over one file's pages
    in-process."""
    extracted = extract_pages_ds(pages, batch_size=batch_size)
    if partitioned_input:
        return reassemble_docs_partitioned(extracted)
    return reassemble_docs(extracted)


def extract_docs(pages: pa.Table, *, max_blob_bytes: int | None = None) -> pa.Table:
    """One file's local pages, every page of their urls (the url census
    leaves no other in the table) -> their docs, in-process: the job's
    per-file task (``run_with_manifest``) runs it.  Each page goes from
    its bytes to its ``PageRow`` in one pass (``_extract_row``,
    ``PAGE_SLICE`` raw pages held at a time, as in ``ExtractPages``), and
    the rows go in ``_page_order`` straight into ``_assemble_docs``: the
    docs of ``ExtractPages`` then ``_docs_from_block``, without their
    per-page Arrow table.
    ``max_blob_bytes`` runs the oversized-payload splitter first.  Its
    globals reach neither ``ray.data`` nor the url exchange, and unless a
    page exceeds ``max_blob_bytes`` (the splitter rebuilds its batch with
    ``pa.array``) it calls nothing that imports pandas, so the task's
    worker never imports them."""
    if max_blob_bytes is not None:
        pages = explode_oversized(pages, max_bytes=max_blob_bytes)
    rows = []
    for b in pages.select(["html", "text"]).to_batches(PAGE_SLICE):
        extracted = map(_extract_row, b.column(0).to_pylist(), b.column(1).to_pylist())
        rows += (row for row, _ in extracted)  # keep no page's parts alive
    urls = pages.column("url").to_pylist()
    order = _page_order(pages).to_pylist()
    return _assemble_docs([urls[i] for i in order], [rows[i] for i in order])


def run_extraction(
    input_path: str,
    output_dir: str,
    *,
    resume: bool = True,
    fragments_per_part: int = 64,
    max_blob_bytes: int | None = None,
    partitioned_input: bool = False,
) -> dict:
    """Materializing entry point with resumable partitioned output
    (checkpoint manifest, SURVEY.md §4): skips input fragments whose
    partition is already committed.  ``max_blob_bytes`` enables the
    oversized-payload splitter pre-pass (stages.skew); split chunks keep
    their url, so it composes with either reassembly.

    Any input layout gives one doc row per url (``run_with_manifest``):
    a url census sends each url that one file holds to that file's plain
    Ray task (``extract_docs`` between a read and a write), and every url
    split across files, or in a file bigger than one read block, to one
    residual part reassembled through ``extraction_pipeline``'s url
    exchange.  ``partitioned_input`` has no effect: the census is exact,
    so no layout needs asserting; it stays for callers that pass it."""
    from ..state.manifest import run_with_manifest

    def pipe(pages: rd.Dataset) -> rd.Dataset:
        if max_blob_bytes is not None:
            pages = explode_oversized(pages, max_bytes=max_blob_bytes)
        return extraction_pipeline(pages)

    # one exported remote function per driver process (``_lander``)
    # serves every job that passes the module-level function
    docs = extract_docs
    if max_blob_bytes is not None:
        docs = functools.partial(extract_docs, max_blob_bytes=max_blob_bytes)
    return run_with_manifest(
        input_path,
        output_dir,
        pipe,
        docs,
        resume=resume,
        fragments_per_part=fragments_per_part,
        columns=PAGE_COLUMNS,
    )
