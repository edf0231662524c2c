"""End-to-end training-data curation — the composition that makes the
engine useful at 100 TB (task spec: dedup + quality + language + split as
first-class components):

    pages -> extraction (byte-stable text per url)
          -> quality stats + language ID (vectorized / warm-state stages)
          -> quality gate (length + punctuation + langid agreement)
          -> exact dedup on content hash (keep min-url representative)
          -> MinHash-LSH near-dedup -> cluster -> keep representatives
          -> deterministic train/val/test split by url hash

Every stage is a Dataset transform; the only shuffles are the extraction
reassembly (or none, partitioned layout) and the dedup groupbys — stats,
langid, filtering, and split assignment are embarrassingly parallel maps.
"""

from __future__ import annotations

import pandas as pd
import ray.data as rd

from ..ops.dedup import (
    dedup_keep_representatives,
    exact_dedup,
    minhash_lsh_duplicates,
    strip_repeated_paragraphs,
)
from ..functions.unicode import fix_mojibake, unicode_normalize
from ..functions.url import DEFAULT_URL_BLOCKLIST, url_quality_filter
from ..ops.c4 import c4_clean
from ..ops.spans import strip_duplicated_spans
from ..state.manifest import checkpoint_dataset, checkpoint_lookup
from ..ops.textstats import (
    GOPHER_SIGNAL_COLS,
    LangId,
    add_text_stats,
    dedup_lines_array,
    gopher_quality_gate,
)
from .extraction import extraction_pipeline


def _pandas_block(t, drop: frozenset = frozenset(), swap: dict | None = None):
    """Arrow block -> PANDAS block for the curation chain: Ray's
    tensor-extension arrow->pandas conversion fails on null-bearing
    variable-length list columns (page_numbers/page_offsets), so list
    cells are rebuilt as object-ndarray cells by hand (the
    thaw_list_columns convention).  ``drop`` removes stage-internal
    columns; ``swap`` maps output column -> source column (e.g. the C4
    rewritten text)."""
    import numpy as _np
    import pyarrow as _pa

    swap = swap or {}
    cols: dict = {}
    for f in t.schema:
        if f.name in drop:
            continue
        col = t.column(f.name)
        if f.name in swap:
            cols[f.name] = t.column(swap[f.name]).to_pandas()
        elif _pa.types.is_list(f.type) or "Tensor" in type(f.type).__name__:
            cols[f.name] = pd.Series(
                [None if v is None else _np.asarray(v) for v in col.to_pylist()],
                dtype=object,
            )
        else:
            cols[f.name] = col.to_pandas()
    return pd.DataFrame(cols)


def quality_gate(
    docs: rd.Dataset,
    *,
    text_col: str = "extracted_text",
    min_tokens: int = 10,
    max_punct_ratio: float = 0.3,
) -> rd.Dataset:
    """Stats + langid + threshold filter.  Adds the signal columns, keeps
    rows passing the gate (the reference's EMPTY/NEEDS_REVIEW flagging
    generalized to corpus-quality filtering)."""
    scored = add_text_stats(docs, text_col)
    scored = scored.map_batches(LangId(text_col), batch_format="pandas")

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        keep = (b["n_tokens"] >= min_tokens) & (b["punct_ratio"] <= max_punct_ratio)
        return b[keep]

    return scored.map_batches(gate, batch_format="pandas")


def assign_split(docs: rd.Dataset, *, key_col: str = "url") -> rd.Dataset:
    """Deterministic train/val/test by key hash (stable under reshuffles,
    re-runs, and parallelism; 8/1/1)."""
    import numpy as np

    def add(b: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(b[key_col].to_numpy()) % 10
        out = b.copy()
        out["split"] = np.where(h < 8, "train", np.where(h == 8, "val", "test"))
        return out

    return docs.map_batches(add, batch_format="pandas")


def curate_corpus(
    pages: rd.Dataset,
    *,
    partitioned_input: bool = False,
    near_dup_threshold: float = 0.9,
    min_tokens: int = 10,
    url_filter: bool = False,
    url_blocklist: frozenset[str] | set[str] | None = None,
    url_threshold: int = 100,
    fix_text: bool = False,
    line_dedup: bool = False,
    c4: bool = False,
    c4_blocklist: tuple = (),
    gopher: bool = False,
    gopher_thresholds: dict | None = None,
    strip_boilerplate: bool = False,
    boilerplate_min_docs: int = 10,
    cut_dup_spans: bool = False,
    dup_span_width: int = 8,
    dup_span_min_count: int = 2,
    scale_routes: bool = False,
    checkpoint_dir: str | None = None,
) -> rd.Dataset:
    """The full chain.  Returns curated docs with columns:
    url, extracted_text, n_pages, total_words, quality signals, pred_lang,
    split, n_dups (exact-dup group size).

    ``url_filter=True`` prepends the RefinedWeb URL filter (Penedo 2023
    §3.1.2, functions/url.py: domain blocklist + soft banned-word score)
    BEFORE extraction — the published ordering, and the cheapest possible
    drop point: a blocked page never costs a parse.  ``url_blocklist`` /
    ``url_threshold`` tune it; the audit score column is dropped so the
    chain's schema is unchanged.

    ``fix_text=True`` inserts the Unicode repair pass straight after
    extraction (functions/unicode.py: mojibake encode-roundtrip repair,
    then NFC) — text already clean and NFC round-trips byte-identically
    (tested), so the stage is a no-op on healthy corpora.

    ``line_dedup=True`` inserts the RefinedWeb line-wise correction
    (ops.textstats.dedup_doc_lines) after the text repair and BEFORE the
    quality gates — the published repetition-removal-first ordering;
    each NON-EMPTY line keeps its first in-document occurrence (blank
    separator lines always survive — the Gopher empty-line lesson), so
    duplicate-free documents round-trip byte-identically.

    ``c4=True`` applies the published C4 cleaning rules (Raffel 2020
    §2.2, ops/c4.py) after the basic quality gate: failing pages drop,
    surviving documents' ``extracted_text`` is REBUILT from the
    retained lines (``total_words`` keeps the pre-clean extraction
    count — lineage into the extractor, not the cleaned text).

    ``gopher=True`` inserts the published Gopher rule bundle
    (ops.textstats.gopher_quality_gate, Rae 2021 A1.1) after the basic
    quality gate — rules-before-dedup, the RefinedWeb ordering; pass
    ``gopher_thresholds`` to adjust the published cutoffs.  Output
    schema is unchanged (signal columns dropped after filtering).

    ``strip_boilerplate`` inserts the cross-document chunk-dedup stage
    (ops.dedup.strip_repeated_paragraphs) between the quality gate and the
    doc-level dedups — paragraphs occurring in >= boilerplate_min_docs
    documents (site footers, nav text the per-page heuristics can't see
    across documents) are removed before hashing, so shared boilerplate
    can't mask real near-dups or fake exact ones.

    ``cut_dup_spans`` appends the ExactSubstr stage
    (ops.spans.strip_duplicated_spans) AFTER document-level dedup — the
    RefinedWeb/Lee-et-al ordering: fuzzy dedup first removes whole
    near-duplicate documents, then repeated >= width-token windows
    surviving ACROSS the kept representatives are cut at token
    granularity.  Tokenization is single-space split, so a window may
    span line boundaries via newline-bearing tokens — exact-content
    semantics either way; untouched documents round-trip
    byte-identically (split(' ')/join(' ') is the identity).

    ``scale_routes=True`` forces every dedup stage onto its fully
    DISTRIBUTED route — bucketed exact-dedup winners, Dataset-native
    minhash pair verification, label-propagation clusters + bucketed
    anti-join loser drop — so nothing corpus-growth-sized (winner map,
    pair list, loser set) ever lands on the driver.  The default lets
    the size-aware planners probe (``clusters="auto"`` on the
    representative filter: driver union-find while the pair list fits,
    the distributed chain past the threshold).  Routes are
    equivalence-tested (same curated rows either way).

    ``checkpoint_dir`` upgrades the chain's lineage pins to DURABLE
    manifest-committed parquet checkpoints
    (``state.manifest.checkpoint_dataset``): the gated-docs and
    post-dedup stages each commit atomically, a SIGKILLed run resumes
    at the last committed stage (byte-identical output, tested), and at
    100 TB the pinned intermediate survives driver loss instead of
    dying with the object store.  Use a fresh directory per input
    corpus version — stage params are recorded and checked, input
    identity is the caller's contract (same as run_with_manifest)."""
    if url_filter:
        # RefinedWeb §3.1.2 ordering: URL filtering comes FIRST — before
        # any extraction compute is spent on a page.  Map-only row filter
        # inside each block, so the partitioned route's file-aligned
        # precondition holds (a url's pages share one score and drop or
        # stay together).  url_score is dropped to keep the pages schema
        # — and therefore the whole chain's output schema — unchanged.
        bl = (
            DEFAULT_URL_BLOCKLIST
            if url_blocklist is None
            else frozenset(url_blocklist)
        )
        pages = url_quality_filter(
            pages, "url", threshold=url_threshold, blocklist=bl
        ).drop_columns(["url_score"])
    docs = extraction_pipeline(pages, partitioned_input=partitioned_input)
    if fix_text:
        docs = fix_mojibake(docs, "extracted_text")
        docs = unicode_normalize(docs, "extracted_text", form="NFC")
    if line_dedup:
        # RefinedWeb line-wise correction (repetition removal BEFORE the
        # quality filters, the published ordering): each line keeps its
        # first in-document occurrence.  Map-only; the block goes back to
        # PANDAS so downstream pandas stages never hit the
        # tensor-extension null conversion (the c4/gopher precedent).
        def line_clean(t):
            # arrow in, arrow OUT: set_column keeps the page columns
            # plain list<int> (exactly the extraction output's block
            # shape, which every downstream stage already consumes) —
            # a pandas detour here would rebuild them as object-ndarray
            # cells and Ray's block builder would re-type them with the
            # tensor extension, whose null arrow->pandas path crashes
            new = dedup_lines_array(
                t.column("extracted_text"), ignore_empty=True
            )
            i = t.schema.get_field_index("extracted_text")
            return t.set_column(i, "extracted_text", new)

        docs = docs.map_batches(line_clean, batch_format="pyarrow")
    docs = quality_gate(docs, min_tokens=min_tokens)
    if c4:
        docs = c4_clean(
            docs, "extracted_text", blocklist=c4_blocklist, filter_rows=True
        )

        def c4_swap(t) -> pd.DataFrame:
            # emit a PANDAS block (the chain's block format) with the C4
            # rewritten text swapped in — see _pandas_block
            return _pandas_block(
                t,
                drop=frozenset(
                    {"c4_text", "c4_n_lines_kept", "c4_n_sentences", "c4_pass"}
                ),
                swap={"extracted_text": "c4_text"},
            )

        docs = docs.map_batches(c4_swap, batch_format="pyarrow")
    if gopher:
        # the published Gopher rule bundle as an extra document gate
        # (RefinedWeb ordering: rules before dedup).  Signal columns are
        # dropped after filtering so the chain's output schema is
        # identical with the stage on or off; the block goes back to
        # PANDAS via _pandas_block so downstream pandas stages (the
        # boilerplate explode) never hit the tensor-extension null
        # conversion.
        docs = gopher_quality_gate(
            docs, "extracted_text", thresholds=gopher_thresholds, filter_rows=True
        )

        def gopher_drop(t) -> pd.DataFrame:
            return _pandas_block(t, drop=frozenset(GOPHER_SIGNAL_COLS))

        docs = docs.map_batches(gopher_drop, batch_format="pyarrow")
    if strip_boilerplate:
        # line granularity: extracted_text joins headers with '\n' and
        # pages with the form-feed separator, so a '\n\n' chunk would glue
        # boilerplate to the next page's first block; a repeated LINE is
        # the natural cross-document boilerplate unit here
        docs = strip_repeated_paragraphs(
            docs, "extracted_text", "url", sep="\n", min_docs=boilerplate_min_docs
        )
    # pin ONCE: the dedup stages below consume `docs` several times
    # (winner aggregate, signature pass, representative filter) and Ray
    # Datasets re-execute their lineage per consumption — without this the
    # extraction chain runs 4x.  The pinned table is extracted text only
    # (a small fraction of input bytes); the object store spills if needed.
    # With checkpoint_dir the pin is a durable parquet commit instead.
    stage_params = {
        "min_tokens": min_tokens,
        "url_filter": url_filter,
        "url_blocklist": sorted(url_blocklist) if url_blocklist else None,
        "url_threshold": url_threshold,
        "fix_text": fix_text,
        "line_dedup": line_dedup,
        "c4": c4,
        # list, not tuple: checkpoint params round-trip through JSON and
        # a tuple would never equal its stored list form (identity break)
        "c4_blocklist": list(c4_blocklist),
        "gopher": gopher,
        "gopher_thresholds": gopher_thresholds,
        "strip_boilerplate": strip_boilerplate,
        "boilerplate_min_docs": boilerplate_min_docs,
        "partitioned_input": partitioned_input,
    }
    dedup_params = {
        **stage_params,
        "near_dup_threshold": near_dup_threshold,
        "scale_routes": scale_routes,
    }
    # consult the post-dedup marker BEFORE building the dedup stages:
    # their construction is itself eager (size probes, label-propagation
    # rounds), so checkpoint_dataset alone cannot prevent a resumed run
    # from re-running them — measured: a fully-committed 192k rerun still
    # executed 12 dedup datasets before this lookup existed
    deduped_hit = (
        checkpoint_lookup(checkpoint_dir, "deduped", params=dedup_params)
        if checkpoint_dir is not None
        else None
    )
    if deduped_hit is not None:
        docs = deduped_hit
    else:
        if checkpoint_dir is not None:
            docs = checkpoint_dataset(
                docs, checkpoint_dir, "gated", params=stage_params
            )
        else:
            docs = docs.materialize()
        docs = exact_dedup(
            docs,
            "extracted_text",
            "url",
            winners="bucketed" if scale_routes else "broadcast",
        )
        pairs = minhash_lsh_duplicates(
            docs,
            "extracted_text",
            "url",
            threshold=near_dup_threshold,
            as_dataset=scale_routes,
        )
        docs = dedup_keep_representatives(
            docs, pairs, "url", clusters="distributed" if scale_routes else "auto"
        )
    if checkpoint_dir is not None and deduped_hit is None:
        # durable post-dedup commit: downstream consumers re-read
        # parquet; a killed run resumes here
        docs = checkpoint_dataset(docs, checkpoint_dir, "deduped", params=dedup_params)
    elif checkpoint_dir is None and cut_dup_spans:
        # pin again: the span stage consumes the post-dedup docs 2-4x
        # (window counts + strip map; twice more on the bucketed route)
        # and each consumption would re-run the dedup filter lineage —
        # same hazard as the pin above
        docs = docs.materialize()
    if cut_dup_spans:
        docs = strip_duplicated_spans(
            docs,
            "extracted_text",
            "url",
            width=dup_span_width,
            min_count=dup_span_min_count,
        )
    return assign_split(docs)
