"""Exact duplicated-substring (token-window) dedup — the ExactSubstr
family member (Lee et al. 2021, "Deduplicating Training Data Makes
Language Models Better", arXiv:2107.06499): any ``width``-token window
whose content occurs >= ``min_count`` times across the corpus is a
duplicated span, and spans are measured/removed at TOKEN granularity
(union of covering windows) — the sub-paragraph complement to
``ops.dedup``'s document-level (exact/minhash) and paragraph-level
(repeated_paragraphs) members.  The reference dedups only at document /
external-ref granularity (packages/db/src/schema/books.ts slug+ref
uniqueness); this is the training-data extension.

Scale shape (the suffix-array build of the paper re-expressed as Ray
exchanges): window STRINGS never exist — each batch hashes all its
tokens in ONE ``pd.util.hash_array`` call and folds token hashes into
order-sensitive window hashes with ``width`` vectorized passes; only
(hash, partial-count) rows cross the count exchange.  The duplicated-
hash table then either returns driver-side (broadcast route, probed
``<= broadcast_threshold_rows``) or stays a Dataset through a bucketed
semi join + id-shard exchange (corpus-scale route; routes
equivalence-tested).  Tokenization is single-space split, mirroring
DuckDB ``string_split(text, ' ')`` so the SQL oracle groups by the
window string while this op groups by its hash — identical up to
2^-63 collisions (the ngram_jaccard_pairs convention).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state.broadcast import cached_get
from .exchange import exchange
from .relational import (
    auto_join,
    probe_head,
    semi_join,
    sharded_group_agg,
)

_FNV = np.uint64(0x100000001B3)


def _finalize64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (same avalanche as dedup._band_hashes)."""
    h = h.copy()
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


_BLOOM_K = 4
_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _bloom_indices(gh: np.ndarray, m_bits: int):
    """k=4 double-hashed bit positions per 64-bit window hash (Kirsch &
    Mitzenmacher 2006: h1 + i*h2 preserves the Bloom false-positive
    bound).  gh is the already-avalanched window hash (int64 view)."""
    h1 = gh.view(np.uint64)
    h2 = h1 * _GOLD
    h2 ^= h2 >> np.uint64(29)
    h2 |= np.uint64(1)  # odd -> full-period stride
    m = np.uint64(m_bits)
    return [((h1 + np.uint64(i) * h2) % m) for i in range(_BLOOM_K)]


def build_dup_bloom(counts: rd.Dataset, *, m_bits: int = 1 << 23) -> np.ndarray:
    """Bloom bitmap (uint64 words) over a duplicated-window-hash Dataset —
    the Dolma-style fixed-memory dedup structure (Soldaini et al. 2024;
    CCNet uses the same idea for paragraph hashes): broadcast state is
    ``m_bits/8`` BYTES no matter how many duplicated hashes exist, at the
    price of a false-positive rate ~(1-e^{-kn/m})^k (over-flagging only —
    a true duplicated window is NEVER missed).  Build is distributed: one
    per-batch partial bitmap, OR-streamed on the driver (traffic =
    n_blocks x m/8; the accumulator itself is fixed-size).

    ``m_bits`` is rounded UP to a whole number of 64-bit words (min 64);
    ``_bloom_test`` derives the modulus from the bitmap length, so build
    and probe can never disagree about the index range."""
    n_words = (max(m_bits, 64) + 63) // 64
    m_bits = n_words * 64

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bits = np.zeros(n_words, dtype=np.uint64)
        gh = b["gh"].to_numpy(dtype=np.int64)
        for idx in _bloom_indices(gh, m_bits):
            np.bitwise_or.at(bits, (idx >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (idx & np.uint64(63)))
        return pd.DataFrame({"bits": [bits.tobytes()]})

    acc = np.zeros(n_words, dtype=np.uint64)
    for batch in counts.select_columns(["gh"]).map_batches(
        partial, batch_format="pandas"
    ).iter_batches(batch_format="pandas"):
        for raw in batch["bits"]:
            acc |= np.frombuffer(raw, dtype=np.uint64)
    return acc


def _bloom_test(bits: np.ndarray, gh: np.ndarray) -> np.ndarray:
    """Vectorized k-probe membership test against a Bloom bitmap (the
    modulus is the bitmap's own length — no way to drift from build)."""
    if len(gh) == 0:
        return np.zeros(0, dtype=bool)
    m_bits = bits.size * 64
    hit = np.ones(len(gh), dtype=bool)
    for idx in _bloom_indices(gh, m_bits):
        word = bits[(idx >> np.uint64(6)).astype(np.int64)]
        hit &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
    return hit


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a SORTED array via searchsorted —
    O(n log m).  (np.isin cannot exploit sortedness: its sort kind
    re-sorts the concatenation on every call.)"""
    if len(sorted_arr) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx[idx == len(sorted_arr)] = len(sorted_arr) - 1
    return sorted_arr[idx] == values


def _batch_windows(texts, width: int):
    """All ``width``-token windows of a batch: flat arrays
    ``(row_idx, pos, window_hash)`` ordered by (row, pos), plus per-row
    window counts, per-row token offsets and the flat token list.

    One ``pd.util.hash_array`` call over EVERY token of the batch, then
    ``width`` vectorized multiply-xor passes fold token hashes into
    window hashes — no per-window Python, no window strings built.
    int64 view for cross-block schema stability (ops/dedup.py note)."""
    tok_lists = [t.split(" ") for t in texts]
    n_toks = np.array([len(t) for t in tok_lists], dtype=np.int64)
    flat_toks = [w for toks in tok_lists for w in toks]
    tok_h = (
        pd.util.hash_array(np.asarray(flat_toks, dtype=object), categorize=False)
        if flat_toks
        else np.empty(0, dtype=np.uint64)
    )
    offs = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(n_toks, out=offs[1:])
    n_win = np.maximum(n_toks - width + 1, 0)
    row_idx = np.repeat(np.arange(len(texts), dtype=np.int64), n_win)
    win_end = np.cumsum(n_win)
    pos = np.arange(len(row_idx), dtype=np.int64) - np.repeat(win_end - n_win, n_win)
    starts = offs[:-1].repeat(n_win) + pos
    h = np.zeros(len(starts), dtype=np.uint64)
    for c in range(width):
        h = h * _FNV ^ tok_h[starts + c]
    return row_idx, pos, _finalize64(h).view(np.int64), n_win, offs, flat_toks


def _coverage_lengths(doc_codes: np.ndarray, pos: np.ndarray, width: int, n_docs: int) -> np.ndarray:
    """Union length of intervals ``[pos, pos+width)`` per doc, given rows
    sorted by (doc_codes, pos) with (doc, pos) unique.  Segmented-
    vectorized: a window past its predecessor contributes
    ``min(gap, width)`` tokens; the first window of a doc contributes
    ``width``."""
    out = np.zeros(n_docs, dtype=np.int64)
    if len(pos) == 0:
        return out
    first = np.empty(len(pos), dtype=bool)
    first[0] = True
    first[1:] = doc_codes[1:] != doc_codes[:-1]
    contrib = np.empty(len(pos), dtype=np.int64)
    contrib[1:] = np.minimum(pos[1:] - pos[:-1], width)
    contrib[first] = width
    starts = np.flatnonzero(first)
    out[doc_codes[starts]] = np.add.reduceat(contrib, starts)
    return out


def duplicated_window_counts(
    ds: rd.Dataset,
    text_col: str,
    *,
    width: int = 8,
    min_count: int = 2,
) -> rd.Dataset:
    """Dataset[(gh, cnt)] of window hashes occurring >= min_count times
    corpus-wide.  Map-side combiner (in-batch value_counts) so the count
    exchange moves one row per DISTINCT (batch, hash), then
    ``sharded_group_agg`` — the driver never sees the count table."""

    def explode_counts(b: pd.DataFrame) -> pd.DataFrame:
        _, _, gh, _, _, _ = _batch_windows(list(b[text_col]), width)
        if len(gh) == 0:
            return pd.DataFrame(
                {"gh": pd.Series(dtype="int64"), "cnt": pd.Series(dtype="int64")}
            )
        vals, counts = np.unique(gh, return_counts=True)
        return pd.DataFrame({"gh": vals, "cnt": counts.astype(np.int64)})

    return sharded_group_agg(
        ds.map_batches(explode_counts, batch_format="pandas"),
        ["gh"],
        {"cnt": ("cnt", "sum")},
    ).map_batches(lambda b: b[b["cnt"] >= min_count], batch_format="pandas")


def _resolve_dup_route(
    counts: rd.Dataset, method: str, threshold: int, bloom_bits: int
):
    """Shared route planner for stats/strip.  Returns ``(member, counts)``
    where ``member`` is a worker-side membership closure ``gh -> bool[]``
    over the duplicated-hash set (broadcast sorted array, or Bloom
    bitmap for ``method="bloom"``), or None -> the caller must run the
    distributed bucketed route."""
    if method == "bloom":
        bits_ref = ray.put(build_dup_bloom(counts, m_bits=bloom_bits))

        def member(gh: np.ndarray) -> np.ndarray:
            return _bloom_test(cached_get(bits_ref), gh)

        return member, counts
    dup_arr = None
    if method == "broadcast":
        head = counts.to_pandas()
        dup_arr = (
            np.sort(head["gh"].to_numpy(dtype=np.int64))
            if len(head)
            else np.empty(0, dtype=np.int64)
        )
    elif method == "bucketed":
        return None, counts
    else:  # auto: limit-probe the duplicated-hash table
        head = probe_head(counts, threshold)
        if head is None:
            return None, counts
        dup_arr = (
            np.empty(0, dtype=np.int64)
            if head.shape[1] == 0  # empty Dataset -> columnless frame
            else np.sort(head["gh"].to_numpy(dtype=np.int64))
        )
    dup_ref = ray.put(dup_arr)

    def member(gh: np.ndarray) -> np.ndarray:
        return _in_sorted(cached_get(dup_ref), gh)

    return member, counts


def dup_span_stats(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    width: int = 8,
    min_count: int = 2,
    method: str = "auto",
    broadcast_threshold_rows: int = 2_000_000,
    bloom_bits: int = 1 << 23,
) -> rd.Dataset:
    """Per-document duplicated-span statistics: ``(id, n_windows,
    n_dup_windows, n_dup_tokens)`` where n_dup_tokens is the union
    coverage of all duplicated windows (the fraction ExactSubstr would
    cut).  Docs shorter than ``width`` tokens report zeros.

    Broadcast route: ONE count exchange; stats are then map-only against
    the sorted broadcast duplicated-hash array.  Bucketed route: the
    window list semi-joins the duplicated-hash Dataset on the bucketed
    exchange, and per-doc coverage reduces on an id-shard exchange —
    nothing corpus- or dup-table-proportional on the driver.
    ``method="bloom"``: map-only like broadcast, but the broadcast state
    is a FIXED-SIZE Bloom bitmap (``bloom_bits/8`` bytes however large
    the duplicated-hash table grows — the Dolma/CCNet structure); counts
    may OVERCOUNT at the Bloom false-positive rate, never undercount."""
    counts = duplicated_window_counts(ds, text_col, width=width, min_count=min_count)
    member, counts = _resolve_dup_route(
        counts, method, broadcast_threshold_rows, bloom_bits
    )

    if member is not None:

        def stats(b: pd.DataFrame) -> pd.DataFrame:
            row_idx, pos, gh, n_win, _, _ = _batch_windows(list(b[text_col]), width)
            is_dup = member(gh)
            n = len(b)
            return pd.DataFrame(
                {
                    id_col: b[id_col].to_numpy(),
                    "n_windows": n_win,
                    "n_dup_windows": np.bincount(
                        row_idx[is_dup], minlength=n
                    ).astype(np.int64),
                    "n_dup_tokens": _coverage_lengths(
                        row_idx[is_dup], pos[is_dup], width, n
                    ),
                }
            )

        return ds.map_batches(stats, batch_format="pandas")

    # ---- bucketed (corpus-scale duplicated-hash table) route ----
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        row_idx, pos, gh, _, _, _ = _batch_windows(list(b[text_col]), width)
        return pd.DataFrame(
            {id_col: b[id_col].to_numpy()[row_idx], "pos": pos, "gh": gh}
        )

    def base(b: pd.DataFrame) -> pd.DataFrame:
        # pure length arithmetic — t.count(' ') + 1 == len(t.split(' '));
        # no reason to re-hash the corpus just for per-row window counts
        n_toks = np.fromiter(
            (t.count(" ") + 1 for t in b[text_col]), dtype=np.int64, count=len(b)
        )
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(),
                "n_windows": np.maximum(n_toks - width + 1, 0),
            }
        )

    windows = ds.map_batches(explode, batch_format="pandas")
    marked = semi_join(
        windows, counts.select_columns(["gh"]), "gh", method="bucketed"
    ).select_columns([id_col, "pos"])

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        codes, uniques = pd.factorize(g[id_col], sort=True)
        cov = _coverage_lengths(
            codes, g["pos"].to_numpy(dtype=np.int64), width, len(uniques)
        )
        return pd.DataFrame(
            {
                id_col: uniques,
                "n_dup_windows": np.bincount(codes, minlength=len(uniques)).astype(
                    np.int64
                ),
                "n_dup_tokens": cov,
            }
        )

    dup_stats = exchange(marked, id_col, per_shard)
    joined = auto_join(
        ds.map_batches(base, batch_format="pandas"),
        dup_stats,
        id_col,
        how="left",
        broadcast_threshold_rows=broadcast_threshold_rows,
    )

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[id_col, "n_windows"]].copy()
        for c in ("n_dup_windows", "n_dup_tokens"):
            out[c] = b[c].fillna(0).astype("int64") if c in b else np.int64(0)
        return out

    return joined.map_batches(fill, batch_format="pandas")


def strip_duplicated_spans(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    width: int = 8,
    min_count: int = 2,
    method: str = "auto",
    broadcast_threshold_rows: int = 2_000_000,
    bloom_bits: int = 1 << 23,
) -> rd.Dataset:
    """Remove every token covered by a duplicated window from each
    document (ExactSubstr cut at token granularity), preserving the
    single-space join of the survivors.  Output schema equals the input
    schema on ALL routes (the auto_join route-independence convention).
    Bucketed route: each doc's text meets its duplicated-window
    positions on one id-shard exchange (both sides projected to an
    identical (id, pos, text) schema — the union-of-schemas caution
    from asof_join/join_bucket); any other input columns are then
    joined back dtype-exact via one more bucketed exchange.
    ``method="bloom"``: map-only strip against a fixed-size Bloom
    bitmap (see ``dup_span_stats``) — may OVER-cut at the false-positive
    rate, never misses a truly duplicated window."""
    counts = duplicated_window_counts(ds, text_col, width=width, min_count=min_count)
    member, counts = _resolve_dup_route(
        counts, method, broadcast_threshold_rows, bloom_bits
    )

    def _strip_rows(texts, dup_pos_per_row, out_texts):
        """Rebuild each text keeping tokens outside the covered union.
        dup_pos_per_row yields (tokens, sorted dup window starts)."""
        for toks, starts in dup_pos_per_row:
            if len(starts) == 0:
                out_texts.append(" ".join(toks))
                continue
            delta = np.zeros(len(toks) + width + 1, dtype=np.int64)
            np.add.at(delta, starts, 1)
            np.add.at(delta, starts + width, -1)
            covered = np.cumsum(delta[: len(toks)]) > 0
            out_texts.append(" ".join([t for t, c in zip(toks, covered) if not c]))

    if member is not None:

        def strip(b: pd.DataFrame) -> pd.DataFrame:
            texts = list(b[text_col])
            row_idx, pos, gh, _, offs, flat_toks = _batch_windows(texts, width)
            is_dup = member(gh)
            d_row, d_pos = row_idx[is_dup], pos[is_dup]
            row_starts = np.searchsorted(d_row, np.arange(len(texts) + 1))
            out_texts: list[str] = []
            _strip_rows(
                texts,
                (
                    (
                        flat_toks[offs[i] : offs[i + 1]],
                        d_pos[row_starts[i] : row_starts[i + 1]],
                    )
                    for i in range(len(texts))
                ),
                out_texts,
            )
            out = b.copy()
            out[text_col] = out_texts
            return out

        return ds.map_batches(strip, batch_format="pandas")

    # ---- bucketed route: dup positions + doc text meet on an id shard ----
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        row_idx, pos, gh, _, _, _ = _batch_windows(list(b[text_col]), width)
        return pd.DataFrame(
            {id_col: b[id_col].to_numpy()[row_idx], "pos": pos, "gh": gh}
        )

    marked = (
        semi_join(
            ds.map_batches(explode, batch_format="pandas"),
            counts.select_columns(["gh"]),
            "gh",
            method="bucketed",
        )
        .select_columns([id_col, "pos"])
        .map_batches(
            lambda b: b.assign(**{text_col: ""}), batch_format="pandas"
        )
    )
    docs = ds.map_batches(
        lambda b: b[[id_col, text_col]].assign(pos=np.int64(-1))[
            [id_col, "pos", text_col]
        ],
        batch_format="pandas",
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        is_doc = g["pos"].to_numpy() == -1
        doc_rows = g[is_doc]
        win = g[~is_doc].sort_values([id_col, "pos"], kind="mergesort")
        pos_by_id = {
            i: sub.to_numpy(dtype=np.int64)
            for i, sub in win.groupby(id_col)["pos"]
        }
        texts = list(doc_rows[text_col])
        out_texts: list[str] = []
        empty = np.empty(0, dtype=np.int64)
        _strip_rows(
            texts,
            (
                (t.split(" "), pos_by_id.get(i, empty))
                for i, t in zip(doc_rows[id_col], texts)
            ),
            out_texts,
        )
        return pd.DataFrame({id_col: doc_rows[id_col].to_numpy(), text_col: out_texts})

    stripped = exchange(marked.union(docs), id_col, per_shard)
    # route-independent output schema (the auto_join convention): the
    # exchange carried only (id, pos, text), so any other input columns
    # are joined back — one more bucketed exchange at corpus scale,
    # which is what keeps dtypes exact (a null-filled union would upcast
    # every int payload column to float in the marked rows' blocks)
    sch = ds.schema()
    orig_cols = sch.names if sch is not None else [id_col, text_col]
    extra = [c for c in orig_cols if c not in (id_col, text_col)]
    if not extra:
        return stripped.map_batches(lambda b: b[orig_cols], batch_format="pandas")
    rest = ds.select_columns([id_col, *extra])
    joined = auto_join(rest, stripped, id_col, how="inner")
    return joined.map_batches(lambda b: b[orig_cols], batch_format="pandas")
