"""The flagship pipeline (SURVEY.md §3.1 rebuild shape):

    read_parquet(pages) -> map_batches(ExtractPages(), fused into the read)
    -> per-file reassembly when a part's files are url-disjoint, fused
       with the read and a per-file parquet write (one task per file of
       the whole job), or hash(url) % 64 shard exchange (reassemble in
       warc_ts order) + write_parquet, part by part
    -> manifest per part

Mirrors the reference's book OCR path (POST /book/ocr -> book worker
fan-out -> per-page pipeline -> persist, apps/queue/src/routes/ocr.ts:18-46,
queues/book/worker.ts:11-47, queues/page/worker.ts:19-98) as one streaming
batch job.  Heavy per-row extraction runs BEFORE the url shuffle so the
shuffle payload is extracted text, not raw html bytes (SURVEY.md §4)."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import ray.data as rd

from ..stages.extract import ExtractPages
from ..stages.reassemble import _docs_from_block, reassemble_docs

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


def extract_pages_ds(pages: rd.Dataset, *, batch_size: int = 256) -> rd.Dataset:
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
    pages: rd.Dataset | pa.Table,
    *,
    batch_size: int = 256,
    partitioned_input: bool = False,
) -> rd.Dataset | pa.Table:
    """pages Dataset -> per-document Dataset with the byte-identical
    ``extracted_text`` per url (DOC_OUT_SCHEMA).

    ``partitioned_input=True`` selects the shuffle-free reassembly
    (``_docs_from_block`` per block, as ``reassemble_docs_partitioned``)
    — valid only when every input block holds all pages of its urls
    (url-ranged shard layout, unsplit file reads).  Its stages also run
    in-process on a ``pa.Table`` holding whole urls (one input file),
    returning the docs as a table: the job's per-file task
    (``run_with_manifest``) calls it that way.  Both reassemblies produce
    byte-identical output (asserted in tests)."""
    if not partitioned_input:
        return reassemble_docs(extract_pages_ds(pages, batch_size=batch_size))
    for stage in (ExtractPages(batch_size), _docs_from_block):
        if isinstance(pages, pa.Table):
            pages = stage(pages)
        else:
            pages = pages.map_batches(stage, batch_format="pyarrow", batch_size=None)
    return pages


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

    Each manifest part picks its reassembly (``run_with_manifest``):
    ``partitioned_input=True`` asserts a url-ranged/hash-sharded layout
    (corpus writer / ``partition_pages_by_url`` output), so every part is
    aligned.  With ``partitioned_input=False`` a part is still aligned
    when its files' parquet footers prove their url ranges disjoint and
    each file fits one read block; any other part runs the url exchange.
    The whole job's aligned files run in one Ray execution, one fused
    read→extract→reassemble→write task per file, and each part commits
    when its last file lands; exchange parts run afterwards, part by
    part.  Either way the aligned precondition is checked at commit: a
    part that would publish a url twice is recomputed through the
    exchange."""
    # bound in the driver: pipe also runs inside tasks, which may not
    # be able to import the package
    from ..stages.skew import explode_oversized
    from ..state.manifest import run_with_manifest

    def pipe(pages: rd.Dataset | pa.Table, *, partitioned_input: bool) -> rd.Dataset | pa.Table:
        if max_blob_bytes is not None:
            pages = explode_oversized(pages, max_bytes=max_blob_bytes)
        return extraction_pipeline(pages, partitioned_input=partitioned_input)

    return run_with_manifest(
        input_path,
        output_dir,
        pipe,
        resume=resume,
        fragments_per_part=fragments_per_part,
        columns=PAGE_COLUMNS,
        file_aligned_blocks=partitioned_input,
    )
