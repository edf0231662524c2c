"""Fixed Arrow schemas for every table the engine processes.

The reference declares its data model up front in Prisma
(``packages/db/prisma/schema.prisma:20-102`` — Book / Page rows); we do the
same with ``pyarrow.Schema`` so every stage validates its emit shape
(SURVEY.md §1.3, E4 "JSON-schema-enforced stage outputs",
``apps/queue/src/pipeline/segment.ts:4-24``).
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Input: Common-Crawl-style pages table (BASELINE.json input_hint).
# One row = one page of one document; multiple rows share a `url`
# (the reference's Page rows sharing a bookId, schema.prisma:80-102).
# ---------------------------------------------------------------------------
PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Per-page extraction output (pre-reassembly).  Mirrors the reference's
# segmented page {header, body, footnotes, pageNumber}
# (apps/queue/src/pipeline/segment.ts:26-37) plus the page-worker derived
# columns (totalWords, flags, ocrStatus -> failed_stage;
# apps/queue/src/queues/page/worker.ts:37-66).
# ---------------------------------------------------------------------------
SPAN_TYPE = pa.struct(
    [
        pa.field("kind", pa.string()),  # heading | para | footnote
        pa.field("start", pa.int64()),  # byte offset into `body` (utf-8)
        pa.field("end", pa.int64()),
    ]
)

PAGE_OUT_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("page_idx", pa.int32()),
        pa.field("header", pa.string()),        # nullable
        pa.field("body", pa.string()),          # never null ("" for empty pages)
        pa.field("footnotes", pa.string()),     # nullable
        pa.field("page_number", pa.int32()),    # nullable printed number
        pa.field("spans", pa.list_(SPAN_TYPE)),
        pa.field("total_words", pa.int64()),
        pa.field("flags", pa.list_(pa.string())),
        pa.field("failed_stage", pa.string()),  # nullable: CORRECT/CONVERT_TO_HTML/SEGMENT
    ]
)

# Flag vocabulary (schema.prisma:151-155 PageFlag enum).
FLAG_NEEDS_REVIEW = "NEEDS_ADDITIONAL_REVIEW"
FLAG_EMPTY = "EMPTY"

# Stage names for failure attribution (pipeline/index.ts:60-104 failedStage).
STAGE_CORRECT = "CORRECT"
STAGE_CONVERT = "CONVERT_TO_HTML"
STAGE_SEGMENT = "SEGMENT"

# Leading bytes of the synthetic layout payload (corpus.py writes it,
# stages/extract.py parses it).
FAKEPDF_MAGIC = b"%FAKEPDF\n"

# ---------------------------------------------------------------------------
# Per-document output (post groupby(url) reassembly).  `extracted_text` is
# the byte-identical artifact of the north rule: pages concatenated in
# (warc_ts, page_idx) order (the reference's (bookId, pdfPageNumber) unique
# ordering, schema.prisma:100).
# ---------------------------------------------------------------------------
DOC_OUT_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("extracted_text", pa.string()),
        pa.field("n_pages", pa.int64()),
        pa.field("total_words", pa.int64()),
        pa.field("page_numbers", pa.list_(pa.int32())),
        pa.field("n_failed_pages", pa.int64()),
        # per-url span offsets (north rule: "extracted text and span
        # offsets per url"): byte offset (utf-8) where each page's text
        # starts inside extracted_text; page i spans
        # [page_offsets[i], page_offsets[i+1] - len(PAGE_SEP)) — exact
        # page-level lineage into the concatenated artifact
        pa.field("page_offsets", pa.list_(pa.int64())),
    ]
)

# ---------------------------------------------------------------------------
# Sidecar metadata table (the Airtable/catalog records,
# texts.airtable.ts:26-39; FIXTURES.md §2).
# ---------------------------------------------------------------------------
DOCS_META_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("external_ref", pa.string()),
        pa.field("arabic_name", pa.string()),
        pa.field("transliteration", pa.string()),
        pa.field("other_names", pa.list_(pa.string())),
        pa.field("genres", pa.list_(pa.string())),
        pa.field(
            "splits",
            pa.list_(pa.struct([pa.field("start", pa.int32()), pa.field("end", pa.int32())])),
        ),
        pa.field("created_at", pa.timestamp("us")),
        pa.field("pub_details_raw", pa.string()),
    ]
)
