"""Document reassembly — the one required shuffle (SURVEY.md §4).

A ``hash(url)`` exchange (``ops/exchange.py``) collects every
page of a document into one shard (the analogue of the reference's unique
``(bookId, pdfPageNumber)`` ordering, packages/db/prisma/schema.prisma:100),
sorts each url's pages by ``warc_ts`` (strictly increasing per url = page
order, FIXTURES.md §1), and emits:

  * per-doc rows: ``extracted_text`` = pages concatenated in page order with
    a form-feed separator — the byte-identical artifact of the north rule —
    plus n_pages / total_words / page_numbers / n_failed_pages (the A1/A3
    aggregates ride the same shuffle, SURVEY.md §4 "key shuffle decisions"
    #3).
  * (``assign_page_idx``) per-page rows with the 0-based ``page_idx`` rank.

Correctness never depends on block arrival order — only on the explicit
in-group sort (SURVEY.md §7 hard-parts #6)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..ops.exchange import exchange
from ..schemas import DOC_OUT_SCHEMA

PAGE_SEP = "\n\x0c\n"  # form feed between pages
# the page columns ``_docs_from_block`` reads; ``reassemble_docs`` ships
# only these through its exchange (``spans``/``flags`` would ride along
# for nothing)
_DOC_INPUT_COLUMNS = [
    "url", "warc_ts", "header", "body", "footnotes", "page_number", "total_words",
    "failed_stage",
]


def page_text(header: str | None, body: str, footnotes: str | None) -> str:
    """Canonical single-page text layout (frozen by goldens)."""
    parts = []
    if header:
        parts.append(header)
    parts.append(body or "")
    if footnotes:
        parts.append(footnotes)
    return "\n".join(parts)


def reassemble_docs(pages_ds):
    """pages-extraction Dataset -> per-document Dataset (DOC_OUT_SCHEMA).

    The residual part's exchange — the one required shuffle (SURVEY.md
    §4), run by ``state/manifest.py::run_with_manifest`` on the urls whose
    pages span files.  It is an explicit url-HASH exchange: a small shard
    label of ``hash(url)`` is shuffled instead of the url itself, and each
    shard group (guaranteed to hold every page of its urls) is reassembled
    with the vectorized block scanner.  Compared to
    ``groupby("url").map_groups`` this makes one call per shard instead of
    one per url (~1.6 ms of table construction each — dominant at millions
    of urls).  The exchange picks the shard count.

    (A sort-then-block-scan variant was measured faster still but split
    urls at reduce-block boundaries — rejected for correctness.  For
    url-partitioned layouts use ``reassemble_docs_partitioned``: exact and
    shuffle-free.)"""
    return exchange(
        pages_ds.select_columns(_DOC_INPUT_COLUMNS),
        "url",
        _docs_from_block,
        batch_format="pyarrow",
    )


def _rank_block(group: pa.Table) -> pa.Table:
    """Vectorized per-url rank within one shard block: sort by
    (url, warc_ts), page_idx = position within each url run (numpy over
    run boundaries — no per-url Python)."""
    import numpy as np

    order = pc.sort_indices(
        group, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")]
    )
    g = group.take(order)
    urls = np.asarray(g.column("url").to_pylist(), dtype=object)
    n = len(urls)
    if n == 0:
        return g.append_column("page_idx", pa.array([], pa.int32()))
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = urls[1:] != urls[:-1]
    starts = np.nonzero(new_run)[0]
    idx = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    return g.append_column("page_idx", pa.array(idx.astype("int32"), pa.int32()))


def assign_page_idx(pages_ds):
    """Add the 0-based per-url ``page_idx`` rank column (FIXTURES.md §3).
    Hash-shard exchange on the url (same pattern as ``reassemble_docs``)
    — one vectorized rank pass per shard, never per-url Python."""
    return exchange(pages_ds, "url", _rank_block, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Partition-aligned (shuffle-free) reassembly
# ---------------------------------------------------------------------------
def _docs_from_block(batch: pa.Table) -> pa.Table:
    """Group-and-reassemble every url inside one block (sorted by
    (url, warc_ts) first, so output is deterministic).  Builds ONE output
    table from flat Python lists — per-url pa.table construction costs
    ~1.6ms/url, which dominated the stage before this vectorization."""
    if batch.num_rows == 0:
        return DOC_OUT_SCHEMA.empty_table()
    order = pc.sort_indices(
        batch, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")]
    )
    b = batch.take(order)
    urls = b.column("url").to_pylist()
    headers = b.column("header").to_pylist()
    bodies = b.column("body").to_pylist()
    foots = b.column("footnotes").to_pylist()
    pagenos = b.column("page_number").to_pylist()
    failed = b.column("failed_stage").to_pylist()
    words = b.column("total_words").to_pylist()

    o_url, o_text, o_np, o_tw, o_pn, o_nf, o_off = [], [], [], [], [], [], []
    sep_bytes = len(PAGE_SEP.encode("utf-8"))
    start = 0
    n = len(urls)
    for i in range(1, n + 1):
        if i == n or urls[i] != urls[start]:
            sl = slice(start, i)
            page_texts = [
                page_text(h, bd, f) for h, bd, f in zip(headers[sl], bodies[sl], foots[sl])
            ]
            o_url.append(urls[start])
            o_text.append(PAGE_SEP.join(page_texts))
            # per-url span offsets: utf-8 byte offset of each page's start
            # inside extracted_text (north-rule span lineage)
            offs, pos = [], 0
            for pt in page_texts:
                offs.append(pos)
                pos += len(pt.encode("utf-8")) + sep_bytes
            o_off.append(offs)
            o_np.append(i - start)
            o_tw.append(sum(words[sl]))
            o_pn.append([p for p in pagenos[sl] if p is not None])
            o_nf.append(sum(1 for f in failed[sl] if f is not None))
            start = i
    return pa.table(
        {
            "url": pa.array(o_url, pa.string()),
            "extracted_text": pa.array(o_text, pa.string()),
            "n_pages": pa.array(o_np, pa.int64()),
            "total_words": pa.array(o_tw, pa.int64()),
            "page_numbers": pa.array(o_pn, pa.list_(pa.int32())),
            "n_failed_pages": pa.array(o_nf, pa.int64()),
            "page_offsets": pa.array(o_off, pa.list_(pa.int64())),
        }
    )


def reassemble_docs_partitioned(pages_ds):
    """Shuffle-free reassembly for url-partitioned input.

    PRECONDITION: every input block holds ALL pages of each url it
    contains — true when the pages table is laid out url-ranged /
    url-hash-partitioned (corpus.write_pages_parquet and
    ``partition_pages_by_url`` both guarantee it) AND the read does not
    split files (``read_pages``: one block per file).  This function does not
    check it: a violation yields two doc rows for one url.  The job does
    not use it: its per-file tasks (``run_with_manifest``) run
    ``_docs_from_block`` in-process on the urls its census found in one
    file only, and send the rest to ``reassemble_docs``.  For arbitrary
    inputs use
    ``reassemble_docs`` (the url exchange); this path is the
    map-side-complete optimization — no all-to-all exchange.
    ``batch_size=None`` = one batch per block, preserving file alignment."""
    return pages_ds.map_batches(_docs_from_block, batch_format="pyarrow", batch_size=None)
