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

from array import array
from itertools import accumulate, chain

import pyarrow as pa
import pyarrow.compute as pc

from ..ops.exchange import exchange
from ..schemas import DOC_OUT_SCHEMA
from .extract import PageRow

PAGE_SEP = "\n\x0c\n"  # form feed between pages
_SEP_UTF8 = PAGE_SEP.encode("utf-8")
# the page columns ``_docs_from_block`` reads; ``reassemble_docs`` ships
# only these through its exchange (``spans``/``flags`` would ride along
# for nothing)
_DOC_INPUT_COLUMNS = ["url", "warc_ts", *PageRow._fields]


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
def _page_order(pages: pa.Table) -> pa.Array:
    """The stable (url, warc_ts) order of a block's pages: each url's pages
    in page order, urls sorted, null urls last."""
    return pc.sort_indices(pages, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")])


def _assemble_docs(urls: list, rows: list) -> pa.Table:
    """The one doc assembly loop: ``urls`` in ``_page_order`` and, in the
    same order, each page's ``PageRow`` -> one doc per url run.  Builds ONE
    output table (``_doc_table``) — per-url pa.table construction costs
    ~1.6ms/url, which dominated the stage before this vectorization."""
    docs, start = [], 0
    for i in range(1, len(urls) + 1):
        if i < len(urls) and urls[i] == urls[start]:
            continue
        run = rows[start:i]
        # each page is encoded once: its bytes go into the text column
        # as they are, and their lengths give the per-url span offsets,
        # the utf-8 byte offset of each page's start inside
        # extracted_text (north-rule span lineage)
        texts = [page_text(r.header, r.body, r.footnotes).encode("utf-8") for r in run]
        offs, pos = [], 0
        for t in texts:
            offs.append(pos)
            pos += len(t) + len(_SEP_UTF8)
        words = sum(r.total_words for r in run)
        failed = sum(r.failed_stage is not None for r in run)
        pagenos = [r.page_number for r in run if r.page_number is not None]
        docs.append((urls[start], _SEP_UTF8.join(texts), i - start, words, pagenos, failed, offs))
        start = i
    return _doc_table(docs)


# a pa.string() column's offsets are int32
_MAX_COLUMN_BYTES = 2**31 - 1


def _doc_table(docs: list[tuple]) -> pa.Table:
    """The ``DOC_OUT_SCHEMA`` table of ``docs``, one ``(url,
    extracted_text as utf-8 bytes, n_pages, total_words, page_numbers,
    n_failed_pages, page_offsets)`` each, made straight from Arrow
    buffers.  In pyarrow 16, ``pa.array``, ``pa.scalar``,
    ``Table.from_pydict``/``from_pylist`` and ``Schema.empty_table()``
    import pandas, ~31 MB and ~0.17 s in every per-file task's worker,
    which runs nothing of pandas.  A table whose text outgrows the int32
    offsets comes out in chunks."""
    if sum(len(d[1]) for d in docs) > _MAX_COLUMN_BYTES and len(docs) > 1:
        half = len(docs) // 2
        return pa.concat_tables([_doc_table(docs[:half]), _doc_table(docs[half:])])
    urls, texts, n_pages, words, pagenos, failed, offs = list(zip(*docs)) or [()] * 7
    arrays = [
        _string_array([None if u is None else u.encode("utf-8") for u in urls]),
        _string_array(texts),
        _int_array("q", n_pages),
        _int_array("q", words),
        _list_array("i", pagenos),
        _int_array("q", failed),
        _list_array("q", offs),
    ]
    return pa.Table.from_arrays(arrays, schema=DOC_OUT_SCHEMA)


def _string_array(values) -> pa.Array:
    """A string array of utf-8 ``values`` (None is null)."""
    n = len(values)
    nulls = [i for i, v in enumerate(values) if v is None]
    validity = None
    if nulls:
        bits = bytearray(b"\xff") * ((n + 7) // 8)
        for i in nulls:
            bits[i >> 3] ^= 1 << (i & 7)
        validity = pa.py_buffer(bits)
    offsets = pa.py_buffer(array("i", accumulate((len(v or b"") for v in values), initial=0)))
    data = pa.py_buffer(b"".join(filter(None, values)))
    return pa.Array.from_buffers(pa.string(), n, [validity, offsets, data], len(nulls))


# ``array`` typecode -> the Arrow integer type of the same width
_INT_TYPES = {"i": pa.int32(), "q": pa.int64()}


def _int_array(code: str, values) -> pa.Array:
    """A null-free integer array of ``array`` typecode ``code``."""
    values = array(code, values)
    return pa.Array.from_buffers(_INT_TYPES[code], len(values), [None, pa.py_buffer(values)])


def _list_array(code: str, lists) -> pa.Array:
    """A null-free list array of integer ``lists``."""
    child = _int_array(code, chain.from_iterable(lists))
    offsets = pa.py_buffer(array("i", accumulate(map(len, lists), initial=0)))
    typ = pa.list_(child.type)
    return pa.Array.from_buffers(typ, len(lists), [None, offsets], children=[child])


def _docs_from_block(batch: pa.Table) -> pa.Table:
    """Group-and-reassemble every url inside one block of extracted pages:
    the block's columns, in ``_page_order`` (so output is deterministic),
    through ``_assemble_docs``, the loop the job's ``extract_docs`` feeds
    straight from its pages."""
    b = batch.take(_page_order(batch))
    rows = list(map(PageRow, *(b.column(c).to_pylist() for c in PageRow._fields)))
    return _assemble_docs(b.column("url").to_pylist(), rows)


def reassemble_docs_partitioned(pages_ds):
    """Shuffle-free reassembly for url-partitioned input.

    PRECONDITION: every input block holds ALL pages of each url it
    contains — true when the pages table is laid out url-ranged /
    url-hash-partitioned (corpus.write_pages_parquet and
    ``partition_pages_by_url`` both guarantee it) AND the read does not
    split files (``read_pages``: one block per file).  This function does
    not check it: a violation yields two doc rows for one url.  The job
    does not use it: its per-file tasks (``run_with_manifest``) run
    ``extract_docs`` in-process on the urls its census found in one file
    only, and send the rest to ``reassemble_docs`` (the url exchange, for
    arbitrary inputs).  ``batch_size=None`` = one batch per block,
    preserving file alignment."""
    return pages_ds.map_batches(_docs_from_block, batch_format="pyarrow", batch_size=None)
