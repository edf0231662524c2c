"""Text scalar functions: word count, HTML strip, normalization.

Reference parity:
  - word count M6: strip HTML then count tokens matching the Unicode class
    ``[\\p{L}\\p{M}\\p{N}]+`` (apps/queue/src/queues/page/worker.ts:12-17,
    duplicated at apps/web/src/lib/page.ts:3-20).  Python ``re`` lacks
    ``\\p`` classes, so the equivalent is built from ``[^\\W_]`` (letters +
    digits, no underscore) plus the Unicode combining-mark ranges that
    Arabic diacritics live in — a mark between two letters must NOT split
    the token.
  - HTML strip M7: tag removal (string-strip-html semantics: tags ->
    nothing, block boundaries -> space).
  - normalization M1 ("correct" stage semantics, pipeline/correct.ts:3-49):
    deterministic Unicode NFC + whitespace collapse instead of the
    reference's LLM call (see SURVEY.md preamble for why).

Exact fast paths (same output as the regex-only forms, pinned by
tests/test_functions.py and tests/test_properties.py):
  - ``normalize_text``: every character ``_CTRL_RE`` removes, and each of
    ``\\t\\n\\r\\f\\v``, is Unicode Cc/Cf, so none is ``isprintable()``; a
    printable string only needs its space runs folded and its ends trimmed.
  - ``count_words``: the combining-mark ranges are all non-ASCII, so on
    ASCII text ``WORD_RE`` matches exactly the runs of ``[A-Za-z0-9]``,
    which a byte translate plus ``bytes.split`` counts.
"""

from __future__ import annotations

import re
import unicodedata

# Combining-mark ranges (Mn) commonly present in Arabic + Latin text.
_MARKS = "\u0300-\u036F\u0610-\u061A\u064B-\u065F\u0670\u06D6-\u06ED\u08D3-\u08FF"
WORD_RE = re.compile(rf"(?:[^\W_]|[{_MARKS}])+", re.UNICODE)

# ASCII bytes -> themselves for [A-Za-z0-9], space for everything else:
# on ASCII text the runs WORD_RE matches are exactly the runs left intact
_ASCII_WORD_TABLE = bytes(
    b if chr(b).isascii() and chr(b).isalnum() else 0x20 for b in range(256)
)

_TAG_RE = re.compile(r"<[^>]*>")
# matches only whitespace runs that actually need rewriting (a run
# containing a non-space horizontal ws char, or 2+ spaces) — single spaces
# between words pass untouched, so most text needs zero replacements
_WS_RE = re.compile(r"[ \t\r\f\v]*[\t\r\f\v][ \t\r\f\v]*| {2,}")
_MULTI_NL_RE = re.compile(r"\n{3,}")
# Unicode category C (control/format) characters that appear in web text,
# minus \n and \t which we keep: a compiled class is ~10x faster than a
# per-char unicodedata.category scan in the hot path.
_CTRL_RE = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f​-‏‪-‮⁠-⁤﻿]"
)


def strip_html(text: str) -> str:
    """Remove markup tags, leaving a space at tag boundaries (M7)."""
    if "<" not in text:
        return text
    return _TAG_RE.sub(" ", text)


def count_words(text: str | None) -> int:
    """Unicode-aware word count over HTML-stripped text (M6)."""
    if not text:
        return 0
    text = strip_html(text)
    if text.isascii():
        return len(text.encode("ascii").translate(_ASCII_WORD_TABLE).split())
    return len(WORD_RE.findall(text))


def normalize_text(text: str) -> str:
    """Deterministic 'correct'-stage normalization (M1): NFC, strip control
    chars and soft hyphens, collapse horizontal whitespace, trim lines."""
    # NFC is the identity on ASCII; skipping it is the single biggest win
    t = text if text.isascii() else unicodedata.normalize("NFC", text).replace("­", "")
    if t.isprintable():  # no control chars, no newline, no tab/CR/FF/VT
        return (_WS_RE.sub(" ", t) if "  " in t else t).strip()
    t = _CTRL_RE.sub("", t)
    t = _WS_RE.sub(" ", t)
    if "\n" not in t:  # common case: single-line block text
        return t.strip()
    lines = [ln.strip() for ln in t.split("\n")]
    t = "\n".join(lines).strip()
    return _MULTI_NL_RE.sub("\n\n", t)
