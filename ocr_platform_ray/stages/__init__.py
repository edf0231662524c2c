"""Extraction pipeline stages (SURVEY.md §2.2 M1-M8, §2.3 T1/T3).

The reference's per-page pipeline is OCR -> correct -> convert-to-html ->
segment (apps/queue/src/pipeline/index.ts:19-104), each stage an LLM call.
Here the same dataflow is deterministic code: ``extract.extract_page`` is
the fused M1+M2+M3 operator (the reference's own "final" fused stage,
pipeline/final.ts:78-137, fuses them identically), and ``ExtractPages`` is
its stateless ``map_batches`` callable.
"""
