"""ocr_platform_ray — a Ray-Data-native data-processing engine.

A from-scratch rebuild of the query / data-processing capabilities of the
reference ``seemorg/ocr-platform`` (a TypeScript OCR book pipeline:
BullMQ + Postgres + Azure OCR + LLM stages), re-expressed as
``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy Arrow
batches.  See SURVEY.md for the operator-by-operator mapping.

Layout:
    schemas       -- fixed pyarrow schemas (the reference's Prisma schema analogue)
    corpus        -- deterministic synthetic Common-Crawl-style pages generator
    stages/       -- the per-page extraction pipeline (normalize -> structure ->
                     segment), map_batches stages
    functions/    -- scalar library (word count, slug, hijri, parsers, ...)
    ops/          -- relational + training-data operators (joins, dedup,
                     similarity search, text stats, windows)
    pipelines/    -- end-to-end pipelines (flagship extraction, catalog ingest)
    state/        -- checkpoint manifests / resume, broadcast dims
    multimodal/   -- binary-column decode stages (stubbed codecs, real plumbing)

No module in this package calls ``ray.init()`` / ``ray.shutdown()`` — the
caller (driver, bench.py, tests' conftest) owns the Ray session.
"""

__version__ = "0.1.0"

# Make every Ray closure built from this package self-contained (workers
# don't share the driver's sys.path) — see _portable.py.
from ._portable import ensure_portable as _ensure_portable  # noqa: E402

_ensure_portable()
