"""Catalog metadata ingest — the batch rendering of the reference's
Airtable -> Usul DB workflow (SURVEY.md §3.3):

  read sidecar table -> normalize records (M10) -> exact-dedup on the
  external ref (D2, create.ts:61-80) -> deterministic unique-slug ranking
  (D3, services/usul/book.ts:18-31) -> broadcast-join dims -> parse
  publishing details (M11) -> per-dimension counters (A4) -> write.

The reference's slug-uniqueness probe loop ("try slug, slug-1, slug-2 ...")
is replaced by one groupby(slug) + in-group rank: deterministic, no probe
round-trips, identical assignment (first occurrence keeps the bare slug,
later ones get -1, -2 in created_at order).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.publishing import parse_publishing_details
from ..functions.slug import canonicalize_translit_chars, slugify
from ..functions.translit import transliterate_arabic
from ..ops.exchange import exchange


def normalize_records(meta: rd.Dataset) -> rd.Dataset:
    """M10 record normalizer (texts.airtable.ts:62-107 semantics): strip the
    leading '*' from transliteration, slugify it, parse the labeled
    publishing-details string (M11), and derive a rule-based IJMES
    romanization of the Arabic name (M12 — the reference transliterates
    names at ingest via an LLM; the deterministic romanizer stands in)."""

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        translit = b["transliteration"].str.removeprefix("*")
        out["transliteration"] = translit
        out["slug"] = translit.map(slugify)
        out["name_translit"] = [
            canonicalize_translit_chars(transliterate_arabic(n)) for n in b["arabic_name"]
        ]
        parsed = b["pub_details_raw"].map(parse_publishing_details)
        for field in ("investigator", "publisher", "edition_number", "publication_year"):
            out[field] = parsed.map(lambda d, f=field: d[f])
        return out

    return meta.map_batches(norm, batch_format="pandas")


def dedup_external_ref(meta: rd.Dataset) -> rd.Dataset:
    """D2 idempotent-ingest dedup: one row per external_ref, keeping the
    earliest created_at (tie-break url) — deterministic under any
    parallelism.  One shard exchange, vectorized first-row-per-key."""

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["external_ref", "created_at", "url"], kind="mergesort")
        return g[~g["external_ref"].duplicated()]

    return exchange(meta, "external_ref", pick)


def assign_unique_slugs(meta: rd.Dataset) -> rd.Dataset:
    """D3 slug-uniqueness ranking: within each slug group, rank by
    (created_at, url); rank 0 keeps the slug, rank k gets ``slug-k``.
    One shard exchange; the rank is a vectorized cumcount per slug."""

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["slug", "created_at", "url"], kind="mergesort")
        k = g.groupby("slug").cumcount()
        g = g.copy()
        g["slug"] = np.where(k == 0, g["slug"], g["slug"] + "-" + k.astype(str))
        return g

    return exchange(meta, "slug", rank)


def validate_splits(meta: rd.Dataset, pages_per_url: pd.DataFrame) -> pd.DataFrame:
    """M18 page-count invariant: every url's splits ranges must cover
    exactly [0, n_pages) (apps/web/test.ts:105-131 cross-check).  Returns
    rows that violate it (empty frame = all consistent)."""

    def check(b: pd.DataFrame) -> pd.DataFrame:
        spans = b["splits"].map(
            lambda s: sum(r["end"] - r["start"] + 1 for r in s) if s is not None and len(s) else 0
        )
        out = b[["url"]].copy()
        out["span_pages"] = spans
        return out

    spans = meta.map_batches(check, batch_format="pandas").to_pandas()
    merged = spans.merge(pages_per_url, on="url", how="left")
    bad = merged[merged["span_pages"] != merged["n_pages"]]
    return bad.reset_index(drop=True)


def merge_documents(
    docs: rd.Dataset,
    plan: pd.DataFrame,
) -> rd.Dataset:
    """PDF merge + ``splitsData`` builder — the batch rendering of the
    reference's multi-volume merge (apps/web/src/hooks/useMergePdf.ts:5-28):
    concatenate N PARSED source documents per plan row into one merged
    document and emit the ``[{start, end}]`` page-span lineage the
    reference builds while copying pages (1-based inclusive, per source,
    exactly its splitsData shape).  Round-trips ``validate_splits``.

    ``plan`` columns: ``merged_url`` (output document id), ``url``
    (source volume), ``seq`` (volume order).  Returns ONLY the merged
    documents (union with untouched docs is the caller's choice), with
    the extraction schema plus ``splits``:

      * extracted_text — sources joined with the page separator, so the
        merged text is byte-identical to extracting the concatenated
        volume (page-count conservation is property-tested)
      * n_pages / total_words / n_failed_pages summed; page_numbers
        concatenated; page_offsets rebased to merged-text byte offsets
      * splits — [{"start": s, "end": e}] per source volume

    Ray shape: the plan is a dimension table (one row per VOLUME, not
    per page) -> broadcast tag map-side; ONE merged-url hash-shard
    exchange co-locates each merged document's volumes; per-shard
    assembly is a single pass over (merged_url, seq)-sorted rows (the
    ``_docs_from_block`` pattern).  Partitioning assumption: one merged
    document's volumes fit one shard — volumes per book are few by
    construction."""
    import ray

    from ..stages.reassemble import PAGE_SEP
    from ..state.broadcast import cached_get

    need = {"merged_url", "url", "seq"}
    if not need <= set(plan.columns):
        raise ValueError(f"plan needs columns {sorted(need)}")
    plan_ref = ray.put(plan[["merged_url", "url", "seq"]])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        p = cached_get(plan_ref)
        return b.merge(p, on="url", how="inner")

    sep_bytes = len(PAGE_SEP.encode("utf-8"))

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["merged_url", "seq"], kind="mergesort")
        o_url, o_text, o_np, o_tw, o_pn, o_nf, o_off, o_splits = ([] for _ in range(8))
        for murl, grp in g.groupby("merged_url", sort=False):
            texts = list(grp["extracted_text"])
            o_url.append(murl)
            o_text.append(PAGE_SEP.join(texts))
            o_np.append(int(grp["n_pages"].sum()))
            o_tw.append(int(grp["total_words"].sum()))
            o_nf.append(int(grp["n_failed_pages"].sum()))
            o_pn.append(
                np.concatenate([np.asarray(p, dtype=np.int32) for p in grp["page_numbers"]])
            )
            offs, splits = [], []
            shift, page_cursor = 0, 0
            for text, src_off, n_p in zip(texts, grp["page_offsets"], grp["n_pages"]):
                offs.append(np.asarray(src_off, dtype=np.int64) + shift)
                shift += len(text.encode("utf-8")) + sep_bytes
                splits.append({"start": page_cursor + 1, "end": page_cursor + int(n_p)})
                page_cursor += int(n_p)
            o_off.append(np.concatenate(offs) if offs else np.zeros(0, dtype=np.int64))
            o_splits.append(splits)
        return pd.DataFrame(
            {
                "url": pd.Series(o_url, dtype="object"),
                "extracted_text": pd.Series(o_text, dtype="object"),
                "n_pages": pd.Series(o_np, dtype="int64"),
                "total_words": pd.Series(o_tw, dtype="int64"),
                "page_numbers": pd.Series(o_pn, dtype="object"),
                "n_failed_pages": pd.Series(o_nf, dtype="int64"),
                "page_offsets": pd.Series(o_off, dtype="object"),
                "splits": pd.Series(o_splits, dtype="object"),
            }
        )

    return exchange(docs.map_batches(tag, batch_format="pandas"), "merged_url", assemble)


def merge_with_previous(new_meta: rd.Dataset, prev_meta: rd.Dataset) -> rd.Dataset:
    """M15 version-normalizer semantics (book-versions.ts:59-145): when a
    record's url is unchanged from the previous run, carry forward the
    previous run's derived fields (``splits`` lineage here, the analogue of
    splitsData/aiSupported) instead of recomputing; new urls keep their own
    values.  Broadcast join — the previous catalog is a small dimension."""
    import ray

    from ..state.broadcast import cached_get

    prev = prev_meta.to_pandas()[["url", "splits"]].rename(columns={"splits": "__prev_splits"})
    ref = ray.put(prev)

    def merge(b: pd.DataFrame) -> pd.DataFrame:
        p = cached_get(ref)
        out = b.merge(p, on="url", how="left")
        has_prev = out["__prev_splits"].notna()
        out.loc[has_prev, "splits"] = out.loc[has_prev, "__prev_splits"]
        return out.drop(columns="__prev_splits")

    return new_meta.map_batches(merge, batch_format="pandas")


def catalog_ingest(meta: rd.Dataset, prev_meta: rd.Dataset | None = None) -> rd.Dataset:
    """Full ingest chain (normalize -> dedup -> unique slugs[, merge with
    the previous run's catalog])."""
    out = assign_unique_slugs(dedup_external_ref(normalize_records(meta)))
    if prev_meta is not None:
        out = merge_with_previous(out, prev_meta)
    return out
