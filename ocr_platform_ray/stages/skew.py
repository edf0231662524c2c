"""Skew handling: oversized-blob splitting (SURVEY.md §4 'skew', §7
hard-parts #3/#4).

The reference's natural skew splitter is 1 page = 1 job (a 1000-page book
is just 1000 jobs, apps/queue/src/lib/ocr.ts:40-54).  Our page rows can
still be individually huge (a 500 MB ``html`` blob); this pre-pass splits
any payload over ``max_bytes`` into continuation page rows at top-level
block boundaries, so no single task/batch ever holds the whole blob.

Split semantics (deterministic): chunk k of a page gets
``warc_ts + k microseconds`` — order is preserved inside the url group and
the downstream pipeline treats chunks as ordinary pages.  The split is at
``</p>``/``</div>``/``</h*>`` close-tag boundaries so each chunk is
independently parseable; the reassembled document is the in-order
concatenation of chunk extractions (golden-tested).  The trade is explicit:
a split page's text layout equals the layout of its chunk sequence, which
is stable for a fixed ``max_bytes`` config.
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray.data as rd

_SPLIT_POINT_RE = re.compile(rb"</(?:p|div|h[1-6]|li|blockquote)\s*>", re.I)


def split_payload(html: bytes, max_bytes: int) -> list[bytes]:
    """Split an oversized payload at block close-tag boundaries into chunks
    of at most ~max_bytes (a chunk may exceed it only when no boundary
    exists inside the window — then it is cut hard at max_bytes)."""
    if len(html) <= max_bytes:
        return [html]
    chunks = []
    pos = 0
    n = len(html)
    while n - pos > max_bytes:
        window = html[pos : pos + max_bytes]
        cut = None
        for m in _SPLIT_POINT_RE.finditer(window):
            cut = m.end()
        if cut is None or cut == 0:
            cut = max_bytes
        chunks.append(html[pos : pos + cut])
        pos += cut
    chunks.append(html[pos:])
    return [c for c in chunks if c]


def explode_oversized(
    pages: rd.Dataset | pa.Table, *, max_bytes: int = 4 * 1024 * 1024, batch_size: int = 64
) -> rd.Dataset | pa.Table:
    """Pre-pass before extraction: rows whose ``html`` exceeds max_bytes
    become multiple rows with warc_ts+k-microsecond continuation stamps.
    Normal rows pass through untouched (no copy of their payload).  On a
    ``pa.Table`` (one file's pages inside the job's per-file task) the
    same ``batch_size``-row batches are split in-process."""

    def split_batch(batch: pa.Table) -> pa.Table:
        sizes = [len(v) if v is not None else 0 for v in batch.column("html").to_pylist()]
        if all(s <= max_bytes for s in sizes):
            return batch
        cols = {name: batch.column(name).to_pylist() for name in batch.schema.names}
        out: dict[str, list] = {name: [] for name in batch.schema.names}
        for i in range(batch.num_rows):
            html = cols["html"][i]
            parts = split_payload(html, max_bytes) if html else [html]
            for k, part in enumerate(parts):
                for name in batch.schema.names:
                    if name == "html":
                        out[name].append(part)
                    elif name == "warc_ts" and k > 0:
                        import datetime

                        out[name].append(cols[name][i] + datetime.timedelta(microseconds=k))
                    elif name == "text" and k > 0:
                        out[name].append("")  # prior text belongs to chunk 0
                    else:
                        out[name].append(cols[name][i])
        arrays = [pa.array(out[f.name], f.type) for f in batch.schema]
        return pa.Table.from_arrays(arrays, schema=batch.schema)

    if isinstance(pages, pa.Table):
        n = pages.num_rows
        return pa.concat_tables(
            [split_batch(pages.slice(i, batch_size)) for i in range(0, n, batch_size)]
            or [pages]
        )
    return pages.map_batches(split_batch, batch_format="pyarrow", batch_size=batch_size)
