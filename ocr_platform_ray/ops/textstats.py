"""Text-analysis operators for training-data curation: quality stats,
token counting, language-ID heuristic, document fingerprinting.

All vectorized per batch; langid holds its n-gram profiles as actor state
(the T3 warm-state pattern)."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.textscan import flat_tokens_nonempty

_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be with for on at by from as that this it".split()
)


def add_text_stats(ds: rd.Dataset, text_col: str) -> rd.Dataset:
    """Append quality-signal columns: n_chars, n_tokens (whitespace),
    n_bpe_tokens (regex pretokenizer), punct_ratio, stopword_ratio,
    chars_per_token, quality_score (bounded composite).

    Arrow-native hot path (zero-copy batches, pyarrow.compute RE2
    kernels): every count is a C-level kernel; the only numpy step is the
    per-row stopword reduction over the flattened token list (offsets +
    cumsum — still vectorized).  This is the curation chain's hottest
    map stage."""
    import pyarrow as pa
    import pyarrow.compute as pc

    stop_set = pa.array(sorted(_STOPWORDS), pa.string())
    # RE2 classes: punctuation = not letter/number/whitespace (the
    # alnum-complement the per-char Python loop used to compute)
    punct_pat = r"[^\p{L}\p{N}\s]"
    bpe_pat = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"

    def stats(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n_chars = pc.cast(pc.utf8_length(col), pa.int64())
        n_tokens = pc.cast(pc.count_substring_regex(col, pattern=r"\S+"), pa.int64())
        n_bpe = pc.cast(pc.count_substring_regex(col, pattern=bpe_pat), pa.int64())
        n_punct = pc.count_substring_regex(col, pattern=punct_pat)

        nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
        nt = n_tokens.to_numpy(zero_copy_only=False).astype(np.float64)
        punct_ratio = n_punct.to_numpy(zero_copy_only=False) / np.maximum(nc, 1.0)

        toks = pc.utf8_split_whitespace(col)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.utf8_lower(toks.flatten())
        hits = pc.is_in(flat, value_set=stop_set).to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy().astype(np.int64) - toks.offsets[0].as_py()
        cums = np.concatenate([[0], np.cumsum(hits.astype(np.int64))])
        stop_per_row = cums[offsets[1:]] - cums[offsets[:-1]]
        stopword_ratio = stop_per_row / np.maximum(nt, 1.0)

        length_score = np.clip(nt, 0, 400) / 400.0
        quality = np.round(
            0.5 * length_score
            + 0.25 * (1.0 - np.clip(punct_ratio, 0, 1))
            + 0.25 * np.clip(stopword_ratio, 0, 0.5) * 2.0,
            6,
        )
        out = batch
        for name, arr in (
            ("n_chars", n_chars),
            ("n_tokens", n_tokens),
            ("n_bpe_tokens", n_bpe),
            ("punct_ratio", pa.array(punct_ratio, pa.float64())),
            ("stopword_ratio", pa.array(stopword_ratio, pa.float64())),
            ("chars_per_token", pa.array(nc / np.maximum(nt, 1.0), pa.float64())),
            ("quality_score", pa.array(quality, pa.float64())),
        ):
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(stats, batch_format="pyarrow")


def add_repetition_stats(
    ds: rd.Dataset, text_col: str, *, ignore_empty_lines: bool = False
) -> rd.Dataset:
    """Gopher-style within-document repetition signals (Rae et al. 2021's
    quality filters, the training-data staple the cross-document chunk
    dedup doesn't cover): per row append

      n_lines            — ``text.split("\\n")`` segments (empties kept)
      n_distinct_lines   — distinct such segments
      dup_line_frac      — (n_lines - n_distinct_lines) / n_lines
      mean_word_len      — mean character length over words split on
                           ``[ \\n]`` (empties dropped)

    ``ignore_empty_lines=True`` drops zero-length segments from the
    line counts BEFORE the distinct/dup math — the rule's published
    intent is repeated CONTENT lines, and with empties kept any
    document of >= 3 blank-line-separated paragraphs carries enough
    duplicate ""s to fail Gopher's 0.30 cutoff on its own (measured:
    clean 6-paragraph prose scored dup_line_frac 0.364).  The gate
    (`gopher_quality_gate`) sets it; the default keeps the documented
    raw-signal semantics.

    Fully vectorized: Arrow split kernels; per-row distinct counts come
    from ONE flat hash call + a lexsort boundary count (no per-row
    Python).  Exactly SQL-mirrorable (string_split / list_distinct /
    regexp splits) — the oracled ``repetition_stats`` query."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def stats(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)

        lines = pc.split_pattern(col, pattern="\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        offs = lines.offsets.to_numpy().astype(np.int64) - lines.offsets[0].as_py()
        counts = offs[1:] - offs[:-1]
        flat = lines.flatten()
        row_ids = np.repeat(np.arange(n), counts)
        if ignore_empty_lines and len(flat):
            keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
            flat = flat.filter(pa.array(keep))
            row_ids = row_ids[keep]
            counts = np.bincount(row_ids, minlength=n).astype(np.int64)
        h = (
            pd.util.hash_array(np.asarray(flat.to_pylist(), dtype=object))
            if len(flat)
            else np.empty(0, dtype=np.uint64)
        )
        n_distinct = np.zeros(n, dtype=np.int64)
        if len(h):
            order = np.lexsort((h, row_ids))
            rr, rh = row_ids[order], h[order]
            new = np.ones(len(rr), dtype=bool)
            new[1:] = (rr[1:] != rr[:-1]) | (rh[1:] != rh[:-1])
            n_distinct = np.bincount(rr[new], minlength=n).astype(np.int64)
        n_lines = counts
        dup_frac = (n_lines - n_distinct) / np.maximum(n_lines, 1).astype(np.float64)

        words = pc.split_pattern_regex(col, pattern="[ \n]")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        woffs = words.offsets.to_numpy().astype(np.int64) - words.offsets[0].as_py()
        wlens = pc.utf8_length(words.flatten()).to_numpy(zero_copy_only=False).astype(np.int64)
        csum_len = np.concatenate([[0], np.cumsum(wlens)])
        csum_cnt = np.concatenate([[0], np.cumsum((wlens > 0).astype(np.int64))])
        sum_len = csum_len[woffs[1:]] - csum_len[woffs[:-1]]
        n_words = csum_cnt[woffs[1:]] - csum_cnt[woffs[:-1]]
        mean_wl = sum_len / np.maximum(n_words, 1).astype(np.float64)

        out = batch
        for name, arr in (
            ("n_lines", pa.array(n_lines, pa.int64())),
            ("n_distinct_lines", pa.array(n_distinct, pa.int64())),
            ("dup_line_frac", pa.array(dup_frac, pa.float64())),
            ("mean_word_len", pa.array(mean_wl, pa.float64())),
        ):
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(stats, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Language ID (character n-gram profile heuristic)
# --------------------------------------------------------------------------
# Committed deterministic profile table (no model download, built from
# public knowledge of script blocks + high-frequency character n-grams).
# Two evidence kinds per language:
#   ranges — Unicode codepoint blocks (script-distinct languages; counted
#            vectorized over the codepoint array).  Languages sharing a
#            script (ru/uk/bg; ar/fa/ur; zh/ja) are separated by
#            distinguishing grams on top of the shared range.
#   grams  — frequent character n-grams incl. word boundaries (Latin-script
#            languages) or distinguishing letters (shared-script pairs).
_LANG_PROFILES: dict[str, dict] = {
    # --- script-distinct -------------------------------------------------
    "ar": {"ranges": [(0x0600, 0x06FF)], "grams": ("ال", " في", " من")},
    "fa": {"ranges": [(0x0600, 0x06FF)], "grams": ("پ", "چ", "ژ", "گ", " است", " که")},
    "zh": {"ranges": [(0x4E00, 0x9FFF)], "grams": ("的", "是", "了")},
    "ja": {"ranges": [(0x3040, 0x30FF)], "grams": ("の", "に", "は", "を")},
    "ko": {"ranges": [(0xAC00, 0xD7AF), (0x1100, 0x11FF)], "grams": ()},
    "ru": {"ranges": [(0x0400, 0x04FF)], "grams": ("ы", "э", " и ", "ть", "ого")},
    "uk": {"ranges": [(0x0400, 0x04FF)], "grams": ("ї", "є", "і", "ння")},
    "el": {"ranges": [(0x0370, 0x03FF)], "grams": (" και", " της")},
    "he": {"ranges": [(0x0590, 0x05FF)], "grams": (" של", " את")},
    "hi": {"ranges": [(0x0900, 0x097F)], "grams": (" है", " की")},
    "th": {"ranges": [(0x0E00, 0x0E7F)], "grams": ()},
    "ta": {"ranges": [(0x0B80, 0x0BFF)], "grams": ()},
    "bn": {"ranges": [(0x0980, 0x09FF)], "grams": ()},
    "ka": {"ranges": [(0x10A0, 0x10FF)], "grams": ()},
    "hy": {"ranges": [(0x0530, 0x058F)], "grams": ()},
    # --- Latin-script (trigram/stopword profiles) ------------------------
    "en": {"ranges": [], "grams": (" th", "the", "ing", " an", "and", " of")},
    "es": {"ranges": [], "grams": (" de", "os ", " la", "ión", "que", " el ")},
    "fr": {"ranges": [], "grams": (" le", " de", "les", "ent ", " et ", "eau")},
    "de": {"ranges": [], "grams": ("der", "ich", "sch", "und", "ein", " zu ")},
    "it": {"ranges": [], "grams": (" di", "che", "zion", "gli ", " il ", "ò ")},
    "pt": {"ranges": [], "grams": ("ção", "ão ", " não", " um", " de", "os ")},
    "nl": {"ranges": [], "grams": (" de", "het ", "een ", "ij", " van ", "aa")},
    "sv": {"ranges": [], "grams": (" och ", " är ", "det ", "ng ", "å")},
    "da": {"ranges": [], "grams": (" og ", " af ", "det ", "er ", "ø")},
    "no": {"ranges": [], "grams": (" og ", " av ", "ikke ", "er ", "ø")},
    "fi": {"ranges": [], "grams": ("ää", "lla", "en ", "ssa", "ja ")},
    "pl": {"ranges": [], "grams": ("nie", "rz", "ów", "ść", "ą", "ę")},
    "cs": {"ranges": [], "grams": ("ř", "ě", "ů", " je ", "ou ")},
    "tr": {"ranges": [], "grams": ("bir ", "lar", "ın", "ş", "ğ", "ı")},
    "ro": {"ranges": [], "grams": ("ul ", "ă", "ș", "ț", " și ")},
    "hu": {"ranges": [], "grams": (" az ", "gy", "sz", "ő", "ű", "ek ")},
    "id": {"ranges": [], "grams": ("ang ", "yang ", " di", "kan ", "nya")},
    "vi": {"ranges": [], "grams": ("ư", "ơ", "đ", "ạ", "ế", "ậ", "ộ", "ờ", "ẹ", "ả", "nh")},
}


class LangId:
    """Actor-pool stage: score each text against fixed char-ngram profiles,
    emit predicted lang + confidence.  Stateful setup (profiles) once per
    actor (__init__), fully batch-vectorized scoring:

      * gram hits — one C-level ``pyarrow.compute.count_substring`` kernel
        per (profile, gram) over the WHOLE batch column (~150 kernel calls
        per batch instead of rows x 150 Python ``str.count`` calls;
        count_substring is non-overlapping, matching ``str.count`` —
        verified on self-overlapping patterns).
      * script-range hits — per-range membership over the batch's flat
        codepoint array, segment-summed back to rows via cumsum + offsets.

    ``_score`` (the original per-row scorer) is kept as the reference the
    batch path is equivalence-tested against."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.profiles = _LANG_PROFILES

    def _score(self, text: str) -> tuple[str, float]:
        if not text:
            return "unknown", 0.0
        sample = text[:2000]
        best_lang, best = "unknown", 0.0
        n = len(sample)
        cp = (
            None
            if sample.isascii()
            else np.frombuffer(sample.encode("utf-32-le"), dtype=np.uint32)
        )
        for lang, prof in self.profiles.items():
            if prof["ranges"]:
                if cp is None:
                    script_hits = 0
                else:
                    script_hits = 0
                    for lo, hi in prof["ranges"]:
                        script_hits += int(((cp >= lo) & (cp <= hi)).sum())
            else:
                script_hits = 0
            gram_hits = sum(sample.count(g) for g in prof["grams"])
            score = script_hits / n + 3.0 * gram_hits / max(1, n)
            if score > best:
                best_lang, best = lang, score
        return best_lang, round(min(1.0, best * 5), 6)

    def _score_batch(self, texts: list) -> tuple[list[str], list[float]]:
        import pyarrow as pa
        import pyarrow.compute as pc

        n_rows = len(texts)
        samples = [(t or "")[:2000] for t in texts]
        lens = np.fromiter((len(s) for s in samples), dtype=np.int64, count=n_rows)
        nonempty = lens > 0
        col = pa.array(samples, pa.string())
        # flat codepoint array + row offsets (utf-32-le: 1 unit / codepoint)
        flat = np.frombuffer("".join(samples).encode("utf-32-le"), dtype=np.uint32)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        n_f = lens.astype(np.float64)
        n_max = np.maximum(lens, 1).astype(np.float64)
        names = list(self.profiles)
        scores = np.zeros((n_rows, len(names)), dtype=np.float64)
        # every script range starts at U+0370+: when the batch holds no
        # such codepoint, all range hits AND all non-ASCII gram counts are
        # provably zero — skip those kernels (the common English-corpus
        # batch runs ~half the kernels and no range scans; equivalence
        # with the per-row scorer is unchanged and tested)
        plain = flat.size == 0 or int(flat.max()) < 0x0370
        for j, lang in enumerate(names):
            prof = self.profiles[lang]
            sh = np.zeros(n_rows, dtype=np.int64)
            if not plain:
                for lo, hi in prof["ranges"]:
                    hits = ((flat >= lo) & (flat <= hi)).astype(np.int64)
                    c = np.concatenate([[0], np.cumsum(hits)])
                    sh += c[offsets[1:]] - c[offsets[:-1]]
            gh = np.zeros(n_rows, dtype=np.int64)
            for g in prof["grams"]:
                if plain and not g.isascii():
                    continue
                gh += pc.count_substring(col, pattern=g).to_numpy(zero_copy_only=False)
            # identical op order to _score: (sh / n) + ((3.0 * gh) / max(1, n))
            with np.errstate(divide="ignore", invalid="ignore"):
                scores[:, j] = np.where(nonempty, sh / n_f + 3.0 * gh / n_max, 0.0)
        best_j = np.argmax(scores, axis=1)  # first max == dict-order tiebreak
        best = scores[np.arange(n_rows), best_j]
        langs = [names[j] if b > 0 else "unknown" for j, b in zip(best_j, best)]
        confs = [round(min(1.0, b * 5), 6) if b > 0 else 0.0 for b in best]
        return langs, confs

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        langs, confs = self._score_batch(list(batch[self.text_col]))
        out["pred_lang"] = langs
        out["lang_confidence"] = confs
        return out


def langid_scores(ds: rd.Dataset, text_col: str = "text", *, concurrency=(1, 8)) -> rd.Dataset:
    return ds.map_batches(LangId(text_col), batch_format="pandas")


# --------------------------------------------------------------------------
# Document fingerprinting (rolling hash + winnowing)
# --------------------------------------------------------------------------
def doc_fingerprint(ds: rd.Dataset, text_col: str, *, k: int = 8, window: int = 4) -> rd.Dataset:
    """Winnowing fingerprint: polynomial hash over char k-grams, keep the
    min hash per sliding window (classic MOSS scheme), emit the sorted
    distinct fingerprint set + a 64-bit digest of it.

    Fully vectorized: codepoints via one utf-32 decode, k-gram hashes as a
    (n, k) sliding-window dot product with natural uint64 wraparound
    arithmetic (mod 2^64 — deterministic; replaces a per-character Python
    rolling-hash loop that cost ~1 ms/KB)."""
    B = np.uint64(131)
    powers = (B ** np.arange(k - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        digests, fps = [], []
        for text in batch[text_col]:
            t = re.sub(r"\s+", " ", text.lower()).strip()
            if len(t) < k:
                fps.append([])
                digests.append(0)
                continue
            codes = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
            grams = np.lib.stride_tricks.sliding_window_view(codes, k)
            with np.errstate(over="ignore"):
                hashes = (grams * powers).sum(axis=1, dtype=np.uint64)
            # winnowing: min per window of consecutive hashes
            if len(hashes) <= window:
                sel = {int(hashes.min())}
            else:
                strided = np.lib.stride_tricks.sliding_window_view(hashes, window)
                sel = set(strided.min(axis=1).tolist())
            sel = sorted(sel)
            fps.append(sel)
            digests.append(
                int.from_bytes(
                    hashlib.sha1(np.array(sel, dtype=np.uint64).tobytes()).digest()[:8], "big"
                )
            )
        out["fingerprint"] = fps
        out["fp_digest"] = np.array(digests, dtype=np.uint64)
        return out

    return ds.map_batches(fp, batch_format="pandas")


def token_document_frequency(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 1,
    split: str = " ",
    n_shards: int = 64,
):
    """Vocabulary document frequency (df): for every space-delimited token,
    the number of DISTINCT documents containing it — the corpus-statistics
    pass behind IDF weighting, stopword induction, and vocabulary builds.

    Combiner shape: each batch emits per-token partial df after an
    in-batch (doc, token) dedup (pandas hash drop_duplicates + one
    value_counts — no per-row Python), so the reduce moves |vocab| x
    |batches| partial rows, not corpus tokens; the size-aware
    ``auto_group_agg`` finish keeps the scale path.  Returns
    ``(token, df)`` with ``df >= min_df``; a Dataset on the exchange
    route, pandas below the driver threshold (callers normalize)."""
    from .relational import auto_group_agg

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        pairs = (
            b[[id_col, text_col]]
            .assign(token=b[text_col].str.split(split))
            .explode("token")[[id_col, "token"]]
            .drop_duplicates()
        )
        vc = pairs["token"].value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(), "df": vc.to_numpy().astype("int64")})

    partials = ds.map_batches(partial, batch_format="pandas")
    reduced = auto_group_agg(partials, ["token"], {"df": ("df", "sum")}, n_shards=n_shards)
    if isinstance(reduced, pd.DataFrame):
        return reduced[reduced["df"] >= min_df].reset_index(drop=True)
    return reduced.map_batches(lambda b: b[b["df"] >= min_df], batch_format="pandas")


# --------------------------------------------------------------------------
# Gopher quality-filter rule bundle (Rae et al. 2021, arXiv:2112.11446
# Appendix A1.1 — the published web-text document filters)
# --------------------------------------------------------------------------
# Signals the existing add_text_stats/add_repetition_stats don't cover,
# with the exact published thresholds as a map-only gate.  Every signal is
# an RE2 kernel (pyarrow.compute) over the batch — DuckDB's regex engine
# is RE2 too, so each column is SQL-mirrorable pattern-for-pattern
# (regexp_extract_all / list_filter), the `gopher_quality` tail oracle.

_GOPHER_REQUIRED = ("the", "be", "to", "of", "and", "that", "have", "with")
_GOPHER_SYMBOL_PAT = r"#|\.\.\.|…"
_GOPHER_BULLET_PAT = r"^\s*[•‣▪*-]"
_GOPHER_ELLIPSIS_PAT = r"(\.\.\.|…)\s*$"

# published thresholds (Rae 2021 A1.1); dup_line_frac's 0.30 is from the
# repetition table of the same appendix
# every column the gopher_quality_gate STAGED pipeline appends
# (add_gopher_stats + add_repetition_stats + the pass flag) — consumers
# that filter-then-drop (pipelines/curate.py) import THIS list so a new
# signal column can never silently leak into their output schema
GOPHER_SIGNAL_COLS = [
    "n_words",
    "mean_word_len_ws",
    "symbol_word_ratio",
    "bullet_line_frac",
    "ellipsis_line_frac",
    "alpha_word_frac",
    "n_required_words",
    "n_lines",
    "n_distinct_lines",
    "dup_line_frac",
    "mean_word_len",
    "gopher_pass",
]

GOPHER_THRESHOLDS = {
    "min_words": 50,
    "max_words": 100_000,
    "min_mean_word_len": 3.0,
    "max_mean_word_len": 10.0,
    "max_symbol_word_ratio": 0.1,
    "max_bullet_line_frac": 0.9,
    "max_ellipsis_line_frac": 0.3,
    "min_alpha_word_frac": 0.8,
    "min_required_words": 2,
    "max_dup_line_frac": 0.30,
}


def _per_row_fracs(list_arr, flat_bool, n_rows):
    """Fraction of true flags per list row (offsets + cumsum — the
    stopword_ratio pattern)."""
    offs = list_arr.offsets.to_numpy().astype(np.int64) - list_arr.offsets[0].as_py()
    cums = np.concatenate([[0], np.cumsum(flat_bool.astype(np.int64))])
    per_row = cums[offs[1:]] - cums[offs[:-1]]
    counts = offs[1:] - offs[:-1]
    return per_row, counts


def add_gopher_stats(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Append the Gopher document-quality signals:

      n_words             — RE2 ``\\S+`` token count
      mean_word_len_ws    — mean character length over those tokens
      symbol_word_ratio   — (# + ellipsis occurrences) / n_words
      bullet_line_frac    — lines starting with a bullet glyph
      ellipsis_line_frac  — lines ending with an ellipsis
      alpha_word_frac     — words containing at least one letter
      n_required_words    — how many of Gopher's 8 English function
                            words appear (whole-word, case-folded)
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    def stats(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)

        # words: split on \s+ runs then drop empties (a leading/trailing
        # whitespace leaves empty segments) — elementwise equal to DuckDB
        # regexp_extract_all(text, '\S+'), RE2 on both engines
        toks = pc.split_pattern_regex(col, pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        flat_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = flat_len > 0
        offs = toks.offsets.to_numpy().astype(np.int64) - toks.offsets[0].as_py()
        c_cnt = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        c_len = np.concatenate([[0], np.cumsum(flat_len)])
        n_words = c_cnt[offs[1:]] - c_cnt[offs[:-1]]
        sum_len = c_len[offs[1:]] - c_len[offs[:-1]]  # empties add 0
        mean_wl = sum_len / np.maximum(n_words, 1).astype(np.float64)

        alpha = pc.match_substring_regex(flat, pattern=r"\p{L}").to_numpy(
            zero_copy_only=False
        )
        a_c = np.concatenate([[0], np.cumsum(alpha.astype(np.int64))])
        alpha_per_row = a_c[offs[1:]] - a_c[offs[:-1]]
        alpha_frac = alpha_per_row / np.maximum(n_words, 1).astype(np.float64)

        n_sym = pc.count_substring_regex(col, pattern=_GOPHER_SYMBOL_PAT).to_numpy(
            zero_copy_only=False
        )
        sym_ratio = n_sym / np.maximum(n_words, 1).astype(np.float64)

        lines = pc.split_pattern(col, pattern="\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        lflat = lines.flatten()
        bullet = pc.match_substring_regex(lflat, pattern=_GOPHER_BULLET_PAT).to_numpy(
            zero_copy_only=False
        )
        ell = pc.match_substring_regex(lflat, pattern=_GOPHER_ELLIPSIS_PAT).to_numpy(
            zero_copy_only=False
        )
        b_per, l_cnt = _per_row_fracs(lines, bullet, n)
        e_per, _ = _per_row_fracs(lines, ell, n)
        bullet_frac = b_per / np.maximum(l_cnt, 1).astype(np.float64)
        ell_frac = e_per / np.maximum(l_cnt, 1).astype(np.float64)

        low = pc.utf8_lower(col)
        req = np.zeros(n, dtype=np.int64)
        for w in _GOPHER_REQUIRED:
            hit = pc.match_substring_regex(low, pattern=rf"\b{w}\b").to_numpy(
                zero_copy_only=False
            )
            req += hit.astype(np.int64)

        out = batch
        for name, arr in (
            ("n_words", pa.array(n_words, pa.int64())),
            ("mean_word_len_ws", pa.array(mean_wl, pa.float64())),
            ("symbol_word_ratio", pa.array(sym_ratio, pa.float64())),
            ("bullet_line_frac", pa.array(bullet_frac, pa.float64())),
            ("ellipsis_line_frac", pa.array(ell_frac, pa.float64())),
            ("alpha_word_frac", pa.array(alpha_frac, pa.float64())),
            ("n_required_words", pa.array(req, pa.int64())),
        ):
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(stats, batch_format="pyarrow")


def gopher_quality_gate(
    ds: rd.Dataset,
    text_col: str = "text",
    *,
    thresholds: dict | None = None,
    filter_rows: bool = False,
) -> rd.Dataset:
    """The Gopher rule bundle as a gate: ``add_gopher_stats`` +
    ``add_repetition_stats`` (for dup_line_frac), then a map-only boolean
    ``gopher_pass`` against the published thresholds — or the filtered
    corpus with ``filter_rows=True``.  Zero exchanges end to end."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = dict(GOPHER_THRESHOLDS)
    if thresholds:
        t.update(thresholds)
    # dup_line_frac over NON-EMPTY lines: the rule targets repeated
    # content lines; with empties kept, blank paragraph separators alone
    # fail any >=3-paragraph document (see add_repetition_stats)
    staged = add_repetition_stats(
        add_gopher_stats(ds, text_col), text_col, ignore_empty_lines=True
    )

    def gate(batch: pa.Table) -> pa.Table:
        def col(name):
            c = batch.column(name)
            return (c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c).to_numpy(
                zero_copy_only=False
            )

        ok = (
            (col("n_words") >= t["min_words"])
            & (col("n_words") <= t["max_words"])
            & (col("mean_word_len_ws") >= t["min_mean_word_len"])
            & (col("mean_word_len_ws") <= t["max_mean_word_len"])
            & (col("symbol_word_ratio") <= t["max_symbol_word_ratio"])
            & (col("bullet_line_frac") <= t["max_bullet_line_frac"])
            & (col("ellipsis_line_frac") <= t["max_ellipsis_line_frac"])
            & (col("alpha_word_frac") >= t["min_alpha_word_frac"])
            & (col("n_required_words") >= t["min_required_words"])
            & (col("dup_line_frac") <= t["max_dup_line_frac"])
        )
        out = batch.append_column("gopher_pass", pa.array(ok, pa.bool_()))
        if filter_rows:
            out = out.filter(pa.array(ok))
        return out

    return staged.map_batches(gate, batch_format="pyarrow")


def add_compression_ratio(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Append zlib compressibility signals: ``n_bytes`` (utf-8),
    ``n_zlib_bytes`` (zlib level 6), ``compression_ratio`` =
    compressed/raw.  Machine-generated / highly repetitive text
    compresses far below natural prose, making the ratio a cheap
    crawl-filter signal.  Map-only; each row is one zlib C call (work
    proportional to the text, dispatch negligible)."""
    import pyarrow as pa
    import zlib

    def stats(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        raw = [t.encode("utf-8") if t is not None else b"" for t in col.to_pylist()]
        n_bytes = np.fromiter((len(b) for b in raw), dtype=np.int64, count=len(raw))
        n_z = np.fromiter(
            (len(zlib.compress(b, 6)) for b in raw), dtype=np.int64, count=len(raw)
        )
        ratio = n_z / np.maximum(n_bytes, 1).astype(np.float64)
        out = batch
        for name, arr in (
            ("n_bytes", pa.array(n_bytes, pa.int64())),
            ("n_zlib_bytes", pa.array(n_z, pa.int64())),
            ("compression_ratio", pa.array(ratio, pa.float64())),
        ):
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(stats, batch_format="pyarrow")


def dedup_lines_array(col, *, ignore_empty: bool = False):
    """Array-level kernel behind `dedup_doc_lines`: a string Array ->
    the same strings with each line's later in-document repeats removed
    (``ignore_empty=True`` always keeps blank separator lines).  Exposed
    so pipeline stages holding PANDAS blocks (the curation chain's
    tensor-extension workaround) can run the identical kernel without an
    arrow-batch conversion."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lines = pc.split_pattern(col, pattern="\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat = lines.flatten()
    offs = lines.offsets.to_numpy().astype(np.int64) - lines.offsets[0].as_py()
    n_per_row = offs[1:] - offs[:-1]
    row_idx = np.repeat(np.arange(len(col), dtype=np.int64), n_per_row)
    # exact first-occurrence mask (duplicated() hashes internally but
    # verifies on collision — no false drops)
    flat_py = flat.to_pylist()
    keep = ~pd.DataFrame(
        {"r": row_idx, "s": flat_py}
    ).duplicated().to_numpy()
    if ignore_empty:
        # structural blank lines always survive (the Gopher
        # empty-line lesson: treating separators as content destroys
        # every multi-paragraph document)
        keep |= np.fromiter(
            (x == "" for x in flat_py), dtype=bool, count=len(flat_py)
        )
    k_c = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
    kept_per_row = k_c[offs[1:]] - k_c[offs[:-1]]
    new_offs = np.concatenate([[0], np.cumsum(kept_per_row)]).astype(np.int32)
    kept_lists = pa.ListArray.from_arrays(
        pa.array(new_offs), flat.filter(pa.array(keep))
    )
    return pc.binary_join(kept_lists, "\n")


def dedup_doc_lines(
    ds: rd.Dataset, text_col: str = "text", *, ignore_empty: bool = False
) -> rd.Dataset:
    """WITHIN-document duplicate-line removal (the RefinedWeb-style
    line-wise correction; the ACTION form of the `dup_line_frac` signal,
    and the within-doc counterpart of the cross-document
    `strip_repeated_paragraphs`): keep each line's FIRST occurrence in
    its document, drop later repeats, rejoin with ``\\n``
    (``ignore_empty=True`` keeps every blank separator line).

    Map-only and fully vectorized (`dedup_lines_array`): one flat hash
    call over every line of the batch, first-occurrence mask per
    (row, line) via pandas duplicated on the (row_idx, hash) pair,
    rebuild with ``pc.binary_join``.  Exactly SQL-mirrorable (unnest +
    generate_subscripts + row_number) — the oracled ``dedup_doc_lines``
    query."""
    import pyarrow as pa

    def clean(batch: pa.Table) -> pa.Table:
        out_col = dedup_lines_array(
            batch.column(text_col), ignore_empty=ignore_empty
        )
        i = batch.schema.get_field_index(text_col)
        return batch.set_column(i, text_col, out_col)

    return ds.map_batches(clean, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Script composition (per-doc codepoint-class ratios)
# ---------------------------------------------------------------------------
# Explicit CODEPOINT RANGES (not Unicode script properties) so a SQL
# oracle over the identical character classes is exact.  (lo, hi)
# inclusive; class order fixed.
SCRIPT_CLASSES: list[tuple[str, list[tuple[int, int]]]] = [
    ("latin", [(0x41, 0x5A), (0x61, 0x7A)]),
    ("digit", [(0x30, 0x39)]),
    ("arabic", [(0x0600, 0x06FF)]),
    ("cyrillic", [(0x0400, 0x04FF)]),
    ("cjk", [(0x4E00, 0x9FFF)]),
]


def add_char_entropy(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Per-doc character-level Shannon entropy (bits/char) +
    distinct-codepoint count — the two ends both signal junk: near-zero
    entropy is padding/repetition (``aaaa…``, keyboard mashing on one
    row), unusually high entropy is base64/binary/encrypted blobs that
    survived extraction.  A standard cheap companion to the
    compression-ratio signal (`add_compression_ratio`) — entropy is the
    zero-pass lower bound the compressor approaches.

    Fully vectorized, MAP-ONLY: the batch's texts decode to ONE uint32
    codepoint array (the `add_script_ratios` utf-32 reinterpret), per-
    (doc, codepoint) counts come from one ``np.unique`` over a fused
    ``row·0x110000 + cp`` key, and per-doc Σ c·log2(c) / distinct
    counts each collapse with one ``bincount``.  Entropy uses the exact
    identity  H = log2(L) − (Σ c·log2 c)/L  (no per-char probability
    array is ever built)."""

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        n = len(b)
        texts = b[text_col].fillna("").astype(str)
        lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
        if n == 0 or int(lens.sum()) == 0:
            out["char_entropy"] = np.zeros(n, dtype="float64")
            out["n_distinct_chars"] = np.zeros(n, dtype="int64")
            return out
        flat = "".join(texts.tolist())
        cps = np.frombuffer(flat.encode("utf-32-le"), dtype="<u4").astype(np.int64)
        row_id = np.repeat(np.arange(n, dtype=np.int64), lens)
        uk, counts = np.unique(row_id * 0x110000 + cps, return_counts=True)
        docs = uk // 0x110000
        seg = np.bincount(docs, weights=counts * np.log2(counts), minlength=n)
        ent = np.zeros(n, dtype="float64")
        nz = lens > 0
        ent[nz] = np.log2(lens[nz]) - seg[nz] / lens[nz]
        out["char_entropy"] = ent
        out["n_distinct_chars"] = np.bincount(docs, minlength=n).astype("int64")
        return out

    return ds.map_batches(stats, batch_format="pandas")


def add_script_ratios(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Per-doc script-composition signal (mixed-script detection — a
    spam/mojibake tell the published quality filters don't capture):
    ``n_chars`` plus one raw ``{class}_ratio`` per SCRIPT_CLASSES entry
    (callers round for SQL comparison).

    Fully vectorized, MAP-ONLY: the batch's texts decode to ONE uint32
    codepoint array (utf-32-le reinterpret — no per-char Python), each
    class tests membership via one searchsorted over its range
    boundaries, and per-row counts come from one bincount over
    codepoint row-ids (robust to zero-length rows anywhere)."""

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        texts = b[text_col].fillna("").astype(str)
        lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
        out["n_chars"] = lens
        if len(b) == 0 or int(lens.sum()) == 0:
            for name, _ in SCRIPT_CLASSES:
                out[f"{name}_ratio"] = np.zeros(len(b), dtype="float64")
            return out
        flat = "".join(texts.tolist())
        cps = np.frombuffer(flat.encode("utf-32-le"), dtype="<u4")
        row_id = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        safe = np.maximum(lens, 1).astype("float64")
        for name, ranges in SCRIPT_CLASSES:
            bounds = np.fromiter(
                (x for lo, hi in ranges for x in (lo, hi + 1)), dtype=np.uint32
            )
            # odd searchsorted slot <=> codepoint inside one of the ranges
            inside = np.searchsorted(bounds, cps, side="right") % 2 == 1
            per_row = np.bincount(row_id[inside], minlength=len(texts))
            out[f"{name}_ratio"] = per_row / safe
        return out

    return ds.map_batches(stats, batch_format="pandas")


def add_readability(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Per-doc readability pair — Flesch reading ease (Flesch 1948) and
    Flesch-Kincaid grade level (Kincaid et al. 1975), the published
    formulas verbatim:

        ease  = 206.835 - 1.015*(words/sentences) - 84.6*(syllables/words)
        grade = 0.39*(words/sentences) + 11.8*(syllables/words) - 15.59

    with the standard machine approximations: words = ``\\S+`` runs,
    sentences = ``[.!?]+`` runs (clamped to >= 1 when the doc has
    words), syllables = ``[aeiouyAEIOUY]+`` vowel-group runs.  Training
    pipelines bucket on these as a cheap fluency/complexity signal next
    to the Gopher stats.

    MAP-ONLY, three RE2 Arrow kernels per batch (one per count), float
    arithmetic in the exact published operand order — DuckDB's regex
    engine is RE2 too, so a SQL oracle mirrors every count and both
    formulas bit-for-bit.  Zero-word docs emit 0.0 for both scores."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        texts = pa.array(b[text_col].fillna("").astype(str), pa.string())
        w = pc.count_substring_regex(texts, pattern=r"\S+").to_numpy(
            zero_copy_only=False
        ).astype("int64")
        s = pc.count_substring_regex(texts, pattern=r"[.!?]+").to_numpy(
            zero_copy_only=False
        ).astype("int64")
        y = pc.count_substring_regex(
            texts, pattern=r"[aeiouyAEIOUY]+"
        ).to_numpy(zero_copy_only=False).astype("int64")
        sc = np.maximum(s, 1).astype("float64")
        wf = w.astype("float64")
        with np.errstate(divide="ignore", invalid="ignore"):
            ease = 206.835 - 1.015 * (wf / sc) - 84.6 * (y / wf)
            grade = 0.39 * (wf / sc) + 11.8 * (y / wf) - 15.59
        zero = w == 0
        ease[zero] = 0.0
        grade[zero] = 0.0
        out["n_words"] = w
        out["n_sentences"] = s
        out["n_syllables"] = y
        out["flesch_ease"] = ease
        out["fk_grade"] = grade
        return out

    return ds.map_batches(stats, batch_format="pandas")


def zipf_fit(
    ds: rd.Dataset,
    text_col: str = "text",
    *,
    top_k: int = 1000,
    n_shards: int = 32,
    driver_threshold_rows: int = 2_000_000,
) -> pd.DataFrame:
    """Zipf rank–frequency fit over the corpus vocabulary (Zipf 1949 —
    the corpus-statistics health check: natural language tracks
    freq ∝ rank^s with s ≈ −1; a fit far off −1 flags boilerplate
    floods, template spam or tokenizer damage): OLS of ln(freq) on
    ln(rank) over the ``top_k`` most frequent tokens, rank by
    (count DESC, token) — a deterministic total order.

    Scale shape: the corpus-wide work is exactly ONE token-count reduce
    (in-batch value_counts combiners into the size-aware
    `auto_group_agg` finish); the exchange route local-prunes each
    block to its own top-k before the driver sees anything, so at most
    ``n_blocks · top_k`` candidate rows ever land driver-side (the
    bm25 local-prune rule — a block's rank-k'th count lower-bounds the
    global k'th).  The regression runs on the k-dim table with libm
    logs and STRICTLY SEQUENTIAL sums in rank order; DuckDB's ordered
    SUM re-associates by ~1e-13 (the Benford/entropy house note), so
    mirrors ROUND the outputs.

    Returns one row: k, n1 (top token's count), slope, intercept, r2."""
    import math

    if top_k < 2:
        raise ValueError("top_k must be >= 2")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        flat, _ = flat_tokens_nonempty(b[text_col])
        vc = pd.Series(flat).value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(), "n": vc.to_numpy()})

    from .relational import auto_group_agg

    counts = auto_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["token"],
        {"n": ("n", "sum")},
        driver_threshold_rows=driver_threshold_rows,
        n_shards=n_shards,
    )
    if not isinstance(counts, pd.DataFrame):
        pruned = counts.map_batches(
            lambda b: b.sort_values(
                ["n", "token"], ascending=[False, True]
            ).head(top_k),
            batch_format="pandas",
        ).to_pandas()
        counts = pruned
    if len(counts) == 0 or "n" not in counts.columns:
        return pd.DataFrame(
            {
                "k": pd.Series([0], dtype="int64"),
                "n1": pd.Series([0], dtype="int64"),
                "slope": pd.Series([np.nan]),
                "intercept": pd.Series([np.nan]),
                "r2": pd.Series([np.nan]),
            }
        )
    top = (
        counts.sort_values(["n", "token"], ascending=[False, True])
        .head(top_k)
        .reset_index(drop=True)
    )
    k = len(top)
    ns = top["n"].to_numpy(dtype="int64")
    sx = sy = sxy = sxx = syy = 0.0
    for r in range(k):  # sequential, rank ascending — the mirrored order
        x = math.log(float(r + 1))
        y = math.log(float(ns[r]))
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
        syy += y * y
    kn = float(k)
    den = kn * sxx - sx * sx
    num = kn * sxy - sx * sy
    slope = num / den if den != 0.0 else np.nan
    intercept = (sy - slope * sx) / kn if den != 0.0 else np.nan
    deny = kn * syy - sy * sy
    r2 = (num * num) / (den * deny) if den != 0.0 and deny != 0.0 else np.nan
    return pd.DataFrame(
        {
            "k": pd.Series([k], dtype="int64"),
            "n1": pd.Series([int(ns[0])], dtype="int64"),
            "slope": pd.Series([slope], dtype="float64"),
            "intercept": pd.Series([intercept], dtype="float64"),
            "r2": pd.Series([r2], dtype="float64"),
        }
    )


def heaps_fit(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    *,
    n_shards: int = 32,
    min_checkpoint: int = 8,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Heaps'-law vocabulary-growth fit (Heaps 1978 / Herdan 1960 —
    V(n) ≈ K·n^β, the companion corpus-statistics check to `zipf_fit`:
    natural text grows vocabulary at β ≈ 0.4–0.6; template floods
    flatten it, OCR noise inflates it): V(n) = distinct tokens among
    the first ``n`` tokens of the corpus in ``id_col`` order, evaluated
    at power-of-two checkpoints (plus N), then OLS of ln V on ln n.

    V(n) needs NO sequential scan: each token's FIRST global position
    is ``min over docs (doc_start + first local position)``, where
    per-(doc, token) first positions come from one tokenize pass (docs
    are whole within their batch, so the in-batch min is final) and
    doc starts come from `ops/pack.range_prefix_sum` (the packer's
    two-pass ordered prefix sum — no global sort).  One bucketed join
    on doc id, one token-keyed min reduce, then checkpoint counts from
    fixed-width searchsorted combiners — the vocabulary table never
    lands anywhere whole.  A window-cumsum SQL oracle mirrors every
    count exactly; the OLS is the `zipf_fit` sequential-libm form
    (mirrors ROUND — ordered-SUM reassociation).

    Returns ``(fit, curve)``: fit = one row (n_total, v_total, beta,
    ln_k, r2); curve = (n, v) at the checkpoints."""
    import math

    from .pack import range_prefix_sum
    from .relational import auto_group_agg, bucketed_hash_join

    def doc_lens(b: pd.DataFrame) -> pd.DataFrame:
        _, doc_of = flat_tokens_nonempty(b[text_col])
        nlen = np.bincount(doc_of, minlength=len(b)).astype("int64")
        return pd.DataFrame({id_col: b[id_col].to_numpy(), "n_toks": nlen})

    def first_local(b: pd.DataFrame) -> pd.DataFrame:
        flat, doc_of = flat_tokens_nonempty(b[text_col])
        if len(flat) == 0:
            return pd.DataFrame(
                {id_col: pd.Series(dtype=b[id_col].dtype),
                 "token": pd.Series(dtype=object),
                 "lpos": pd.Series(dtype="int64")}
            )
        counts = np.bincount(doc_of, minlength=len(b)).astype("int64")
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        lpos = np.arange(len(flat), dtype="int64") - starts[doc_of]
        df = pd.DataFrame(
            {id_col: b[id_col].to_numpy()[doc_of], "token": flat, "lpos": lpos}
        )
        # docs are whole within the batch -> this min is final per doc
        return df.groupby([id_col, "token"], as_index=False)["lpos"].min()

    offs = range_prefix_sum(
        ds.map_batches(doc_lens, batch_format="pandas"),
        id_col,
        "n_toks",
        n_shards=n_shards,
        out_col="start",
    ).materialize()
    tot_parts = offs.map_batches(
        lambda b: pd.DataFrame({"s": [int(b["n_toks"].sum()) if len(b) else 0]}),
        batch_format="pandas",
    ).to_pandas()
    n_total = int(tot_parts["s"].sum()) if len(tot_parts) else 0
    if n_total == 0:
        fit = pd.DataFrame(
            {"n_total": pd.Series([0], dtype="int64"),
             "v_total": pd.Series([0], dtype="int64"),
             "beta": [np.nan], "ln_k": [np.nan], "r2": [np.nan]}
        )
        return fit, pd.DataFrame({"n": pd.Series(dtype="int64"),
                                  "v": pd.Series(dtype="int64")})

    firsts = ds.map_batches(first_local, batch_format="pandas")
    joined = bucketed_hash_join(
        firsts,
        offs.map_batches(lambda b: b[[id_col, "start"]], batch_format="pandas"),
        on=id_col,
        n_buckets=n_shards,
    )

    def gpos(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"token": b["token"],
             "fp": b["start"].to_numpy(dtype="int64")
             + b["lpos"].to_numpy(dtype="int64")}
        )
        return out

    first_pos = auto_group_agg(
        joined.map_batches(gpos, batch_format="pandas"),
        ["token"],
        {"fp": ("fp", "min")},
        n_shards=n_shards,
    )

    cps = []
    c = int(min_checkpoint)
    while c < n_total:
        cps.append(c)
        c *= 2
    cps.append(n_total)
    cp_arr = np.asarray(cps, dtype="int64")

    def cp_counts(b: pd.DataFrame) -> pd.DataFrame:
        fp = np.sort(b["fp"].to_numpy(dtype="int64"))
        v = np.searchsorted(fp, cp_arr, side="left")  # fp < n
        return pd.DataFrame({"j": np.arange(len(cps), dtype="int64"), "v": v})

    if isinstance(first_pos, pd.DataFrame):
        fp = np.sort(first_pos["fp"].to_numpy(dtype="int64"))
        vcounts = np.searchsorted(fp, cp_arr, side="left").astype("int64")
    else:
        parts = first_pos.map_batches(cp_counts, batch_format="pandas").to_pandas()
        vcounts = (
            parts.groupby("j")["v"].sum().reindex(range(len(cps)), fill_value=0)
            .to_numpy(dtype="int64")
        )
    curve = pd.DataFrame({"n": cp_arr, "v": vcounts})
    sx = sy = sxy = sxx = syy = 0.0
    k = 0
    for n_c, v_c in zip(cp_arr, vcounts):
        if v_c <= 0:
            continue
        k += 1
        x, y = math.log(float(n_c)), math.log(float(v_c))
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
        syy += y * y
    kn = float(k)
    den = kn * sxx - sx * sx
    num = kn * sxy - sx * sy
    beta = num / den if k >= 2 and den != 0.0 else np.nan
    ln_k = (sy - beta * sx) / kn if k >= 2 and den != 0.0 else np.nan
    deny = kn * syy - sy * sy
    r2 = (num * num) / (den * deny) if k >= 2 and den != 0.0 and deny != 0.0 else np.nan
    fit = pd.DataFrame(
        {
            "n_total": pd.Series([n_total], dtype="int64"),
            "v_total": pd.Series([int(vcounts[-1])], dtype="int64"),
            "beta": pd.Series([beta], dtype="float64"),
            "ln_k": pd.Series([ln_k], dtype="float64"),
            "r2": pd.Series([r2], dtype="float64"),
        }
    )
    return fit, curve
