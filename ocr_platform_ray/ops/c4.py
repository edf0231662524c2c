"""C4 web-text cleaning rules (Raffel et al. 2020, §2.2) as Ray Data
operators — the other canonical published filter bundle next to Gopher
(`ops/textstats.py::gopher_quality_gate`).

Two halves, matching the paper's structure:

* ``c4_clean`` — the LINE- and PAGE-level rules.  Entirely map-only
  (zero exchanges): one Arrow kernel pass per batch, every rule a
  vectorized RE2 match over the flattened line list, kept lines
  reassembled per row with ``pc.binary_join``.  SQL-oracled pattern-
  for-pattern against DuckDB (both regex engines are RE2).
* ``c4_span_dedup`` — the CORPUS-level rule ("we removed all but one of
  any three-sentence span occurring more than once in the data set").
  One hash-only exchange carries (span_hash, id, pos); the loser
  positions meet their documents on an id-shard exchange (the
  ``strip_duplicated_spans`` bucketed pattern) or a driver broadcast
  below a probed threshold (``auto_join`` house convention) — document
  text never rides the span exchange.

Rule fidelity notes (documented choices where the paper under-specifies):

* "terminal punctuation mark" = ``.  !  ?  "`` (the paper names period,
  exclamation mark, question mark, end quotation mark); trailing
  whitespace after the mark is tolerated.
* a "word" is an ``\\S+`` run (the Gopher kernel's definition, shared so
  the two bundles agree on word counts).
* "sentence" for the 3-sentence page minimum = count of ``[.!?]``
  sentence-enders in the CLEANED text; for the span dedup, sentences are
  the chunks produced by splitting after each maximal ``[.!?]+`` run,
  whitespace-stripped, empties dropped.  Span identity hashes the
  NORMALIZED sentence (casefolded, inner whitespace collapsed) so
  formatting differences don't defeat the dedup.
* the blocklist rule ("List of Dirty, Naughty ...") is parameterized;
  no list ships with this repo, so the default is empty.

Reference behavior being re-expressed: the reference's per-page block
classifier drops nav/script boilerplate (apps/queue/src/pipeline,
stages/extract.py here); C4's published rules are the corpus-scale
web-text analogue the training-data pipeline needs.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .dedup import _sha64
from .exchange import exchange
from .relational import probe_head

# RE2-compatible patterns, mirrored literally in the SQL oracle.
_TERMINAL_PUNCT_PAT = r'[.!?"]\s*$'
_JAVASCRIPT_PAT = r"(?i)\bjavascript\b"
_SENTENCE_END_PAT = r"[.!?]"
_WORD_PAT = r"\S+"

C4_MIN_LINE_WORDS = 5
C4_MIN_SENTENCES = 3

# sentence chunking for the span dedup: split AFTER each maximal [.!?]+
# run (re.split with a capture keeps the delimiters so text reassembles
# losslessly)
_SENT_SPLIT_RE = re.compile(r"([.!?]+)")
_WS_RE = re.compile(r"\s+")


def c4_clean(
    ds: rd.Dataset,
    text_col: str = "text",
    *,
    blocklist: tuple[str, ...] = (),
    filter_rows: bool = False,
) -> rd.Dataset:
    """C4 line + page rules, map-only.  Appends:

      c4_text         — the text rebuilt from RETAINED lines (ends in a
                        terminal punctuation mark, >= 5 words, and no
                        "javascript" word — the paper's three line rules)
      c4_n_lines_kept — how many lines survived
      c4_n_sentences  — sentence-ender count over c4_text
      c4_pass         — >= 3 sentences AND no "lorem ipsum" AND no "{"
                        AND no blocklist word (the page rules)

    ``filter_rows=True`` drops failing pages instead of flagging them.
    """
    import pyarrow.compute as pc

    block_pats = tuple(rf"(?i)\b{re.escape(w)}\b" for w in blocklist)

    def clean(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)

        lines = pc.split_pattern(col, pattern="\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = lines.flatten()
        offs = lines.offsets.to_numpy().astype(np.int64) - lines.offsets[0].as_py()

        term = pc.match_substring_regex(flat, pattern=_TERMINAL_PUNCT_PAT).to_numpy(
            zero_copy_only=False
        )
        n_words = pc.count_substring_regex(flat, pattern=_WORD_PAT).to_numpy(
            zero_copy_only=False
        )
        js = pc.match_substring_regex(flat, pattern=_JAVASCRIPT_PAT).to_numpy(
            zero_copy_only=False
        )
        keep = term & (n_words >= C4_MIN_LINE_WORDS) & ~js

        # rebuild per-row kept-line lists without leaving Arrow: filter the
        # flat line array, recompute offsets from the per-row kept counts,
        # then one binary_join per batch
        k_c = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
        kept_per_row = k_c[offs[1:]] - k_c[offs[:-1]]
        new_offs = np.concatenate([[0], np.cumsum(kept_per_row)]).astype(np.int32)
        kept_flat = flat.filter(pa.array(keep))
        kept_lists = pa.ListArray.from_arrays(pa.array(new_offs), kept_flat)
        c4_text = pc.binary_join(kept_lists, "\n")

        n_sent = pc.count_substring_regex(
            c4_text, pattern=_SENTENCE_END_PAT
        ).to_numpy(zero_copy_only=False)

        low = pc.utf8_lower(col)
        lorem = pc.match_substring(low, pattern="lorem ipsum").to_numpy(
            zero_copy_only=False
        )
        brace = pc.match_substring(col, pattern="{").to_numpy(zero_copy_only=False)
        blocked = np.zeros(n, dtype=bool)
        for pat in block_pats:
            blocked |= pc.match_substring_regex(col, pattern=pat).to_numpy(
                zero_copy_only=False
            )
        ok = (n_sent >= C4_MIN_SENTENCES) & ~lorem & ~brace & ~blocked

        out = batch
        for name, arr in (
            ("c4_text", c4_text),
            ("c4_n_lines_kept", pa.array(kept_per_row, pa.int64())),
            ("c4_n_sentences", pa.array(n_sent.astype(np.int64), pa.int64())),
            ("c4_pass", pa.array(ok, pa.bool_())),
        ):
            out = out.append_column(name, arr)
        if filter_rows:
            out = out.filter(pa.array(ok))
        return out

    return ds.map_batches(clean, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Three-sentence span dedup (the corpus-level C4 rule)
# --------------------------------------------------------------------------
def _split_sentences(text: str) -> list[str]:
    """Sentence chunks WITH their terminal punctuation, original spacing
    preserved (so surviving sentences rejoin losslessly); empty /
    whitespace-only chunks dropped."""
    parts = _SENT_SPLIT_RE.split(text)
    # parts = [chunk, delim, chunk, delim, ..., tail]
    out = []
    for i in range(0, len(parts) - 1, 2):
        s = parts[i] + parts[i + 1]
        if s.strip():
            out.append(s)
    tail = parts[-1]
    if tail.strip():
        out.append(tail)
    return out


def _span_hashes(sent_lists: list[list[str]], width: int):
    """(row_idx, pos, span_hash) for every width-sentence window, hashing
    ALL sentences in ONE flat call (the _shingle_hashes_batch pattern),
    span identity = hash of the window's normalized-sentence hash tuple."""
    flat_norm = [
        _WS_RE.sub(" ", s.strip()).lower() for sents in sent_lists for s in sents
    ]
    flat_h = _sha64(flat_norm)
    rows, poss, spans = [], [], []
    pos0 = 0
    gold = np.uint64(0x9E3779B97F4A7C15)
    for r, sents in enumerate(sent_lists):
        m = len(sents)
        if m >= width:
            h = flat_h[pos0 : pos0 + m]
            acc = h[: m - width + 1].copy()
            for j in range(1, width):
                acc = (acc ^ h[j : m - width + 1 + j]) * gold
            rows.append(np.full(m - width + 1, r, dtype=np.int64))
            poss.append(np.arange(m - width + 1, dtype=np.int64))
            spans.append(acc)
        pos0 += m
    if not rows:
        z = np.empty(0, dtype=np.int64)
        return z, z, np.empty(0, dtype=np.uint64)
    return np.concatenate(rows), np.concatenate(poss), np.concatenate(spans)


def c4_span_dedup(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    *,
    width: int = 3,
    method: str = "auto",
    broadcast_threshold_rows: int = 2_000_000,
) -> rd.Dataset:
    """Remove all but one occurrence of any ``width``-sentence span that
    appears more than once in the corpus (C4 §2.2's dedup rule).

    Deterministic winner: the lexicographically smallest (id, pos)
    occurrence keeps its sentences; every other occurrence has the
    span's sentences removed (union coverage across a document's losing
    spans, the strip_duplicated_spans delta trick).  Output schema ==
    input schema with ``text_col`` rewritten; ROW CONTENT is
    route-identical (equivalence-tested), but row ORDER is only
    preserved on the broadcast route — the bucketed route emits rows in
    shard/group order (the strip_duplicated_spans convention; sort by
    id downstream if order matters).

    Scale shape: the span exchange carries only (gh, id, pos) — text
    never rides it.  ``method="auto"`` probes the loser list with
    ``limit(threshold+1)`` (the auto_join planner): below the threshold
    the loser positions broadcast and the strip is map-only; above it
    they meet their documents on one id-shard exchange.
    """
    if method not in ("auto", "broadcast", "bucketed"):
        raise ValueError(f"unknown method {method!r}")

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        sent_lists = [_split_sentences(t) for t in b[text_col]]
        row_idx, pos, gh = _span_hashes(sent_lists, width)
        ids = b[id_col].to_numpy()[row_idx] if len(row_idx) else b[id_col].to_numpy()[:0]
        return pd.DataFrame({id_col: ids, "pos": pos, "gh": gh.astype("uint64")})

    occurrences = ds.map_batches(explode, batch_format="pandas")

    # losers per span hash: every occurrence except min (id, pos), only
    # for hashes with >= 2 occurrences.  One hash-shard exchange, one
    # vectorized pandas pass per shard (sharded_group_agg shape — the
    # winner rule needs the (id, pos) pair so a plain agg spec can't
    # express it).
    def per_shard_losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["gh", id_col, "pos"], kind="mergesort")
        dup = g["gh"].duplicated(keep=False).to_numpy()
        first = ~g["gh"].duplicated(keep="first").to_numpy()
        losers = g[dup & ~first]
        return losers[[id_col, "pos"]]

    losers = exchange(occurrences, "gh", per_shard_losers)

    def _strip_rows(originals, starts_per_row):
        # untouched docs pass through BYTE-IDENTICAL without even being
        # sentence-split (reconstruction from chunks could differ on a
        # whitespace-only tail; losers are the rare case at web dup rates)
        out_texts = []
        for orig, starts in zip(originals, starts_per_row):
            if len(starts) == 0:
                out_texts.append(orig)
                continue
            sents = _split_sentences(orig)
            delta = np.zeros(len(sents) + width + 1, dtype=np.int64)
            np.add.at(delta, starts, 1)
            np.add.at(delta, starts + width, -1)
            covered = np.cumsum(delta[: len(sents)]) > 0
            out_texts.append("".join(s for s, c in zip(sents, covered) if not c))
        return out_texts

    if method == "auto":
        head = probe_head(losers, broadcast_threshold_rows)
        if head is not None:
            method, loser_df = "broadcast", head
        else:
            method = "bucketed"
    elif method == "broadcast":
        loser_df = losers.to_pandas()

    if method == "broadcast":
        import ray

        from ..state.broadcast import cached_get

        if len(loser_df) == 0:
            return ds  # no span occurs twice -> corpus unchanged

        by_id: dict = {}
        for i, sub in loser_df.groupby(id_col)["pos"]:
            by_id[i] = np.sort(sub.to_numpy(dtype=np.int64))
        ref = ray.put(by_id)

        def strip(b: pd.DataFrame) -> pd.DataFrame:
            table = cached_get(ref)
            empty = np.empty(0, dtype=np.int64)
            starts = [table.get(i, empty) for i in b[id_col]]
            out = b.copy()
            out[text_col] = _strip_rows(list(b[text_col]), starts)
            return out

        return ds.map_batches(strip, batch_format="pandas")

    # ---- bucketed route: loser positions meet docs on an id shard ----
    marked = losers.map_batches(
        lambda b: b.assign(**{text_col: ""})[[id_col, "pos", text_col]],
        batch_format="pandas",
    )
    docs = ds.map_batches(
        lambda b: b[[id_col, text_col]].assign(pos=np.int64(-1))[
            [id_col, "pos", text_col]
        ],
        batch_format="pandas",
    )

    def per_shard_strip(g: pd.DataFrame) -> pd.DataFrame:
        is_doc = g["pos"].to_numpy() == -1
        doc_rows = g[is_doc]
        pos_tbl = g[~is_doc].sort_values([id_col, "pos"], kind="mergesort")
        by_id = {i: sub.to_numpy(dtype=np.int64) for i, sub in pos_tbl.groupby(id_col)["pos"]}
        empty = np.empty(0, dtype=np.int64)
        starts = [by_id.get(i, empty) for i in doc_rows[id_col]]
        return pd.DataFrame(
            {
                id_col: doc_rows[id_col].to_numpy(),
                text_col: _strip_rows(list(doc_rows[text_col]), starts),
            }
        )

    stripped = exchange(marked.union(docs), id_col, per_shard_strip)
    sch = ds.schema()
    orig_cols = sch.names if sch is not None else [id_col, text_col]
    extra = [c for c in orig_cols if c not in (id_col, text_col)]
    if not extra:
        return stripped.map_batches(lambda b: b[orig_cols], batch_format="pandas")
    from .relational import auto_join

    rest = ds.select_columns([id_col, *extra])
    joined = auto_join(rest, stripped, id_col, how="inner")
    return joined.map_batches(lambda b: b[orig_cols], batch_format="pandas")
