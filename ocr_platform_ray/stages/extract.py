"""The fused per-page extraction operator: decode -> normalize ("correct",
M1) -> block-structure ("convert-to-html", M2) -> segment (M3), with the
reference's error semantics (M5: failures short-circuit with the
best-so-far text and a ``failed_stage`` label, never dropping the row —
apps/queue/src/pipeline/utils.ts:38-57, pipeline/index.ts:60-104) and flag
assignment (M8: ``NEEDS_ADDITIONAL_REVIEW`` on failure, ``EMPTY`` on empty
body — apps/queue/src/queues/page/worker.ts:41-66).

Each page is one pass from its bytes to its row (``_extract_row``).  The
payload backend is selected per row by content sniffing (the reference's
``mode`` engine selection, pipeline/utils.ts:5-8 / E2), and every backend
feeds its blocks, in reading order, to one segmentation state machine
(``_Page``) that builds {header, body, footnotes, page_number}
(segment.ts:26-37 output shape):
  * HTML: one pass tokenizes (``_BLOCK_TOKEN_RE.split``), classifies each
    block as the tag stack closes it (boilerplate strip by tag/class/
    link-density heuristics, the deterministic analogue of the
    convert-to-html prompt's structure rules, convert-to-html.ts:3-18) and
    segments it.
  * PDF byte streams and FAKEPDF layout lines: positioned boxes -> XY-cut
    reading-order reconstruction (north_star's PDF path).

Everything is pure and deterministic: byte-identical output per (html,
text) input regardless of parallelism, block order, or batch size.
"""

from __future__ import annotations

import html as _htmllib
import re
from typing import NamedTuple

import pyarrow as pa

from ..functions.text import count_words, normalize_text
from ..schemas import (
    FAKEPDF_MAGIC,
    FLAG_EMPTY,
    FLAG_NEEDS_REVIEW,
    STAGE_CONVERT,
    STAGE_CORRECT,
    STAGE_SEGMENT,
)
from .pdf import pdf_page_boxes

# --- compiled parser state (module level, shared by every task) -----------
_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_SCRIPT_STYLE_RE = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.S | re.I)
_BLOCK_TOKEN_RE = re.compile(
    r"<(/?)(h[1-6]|p|div|nav|aside|section|article|header|footer|ul|ol|li|table|tr|td|blockquote|hr|br)\b([^>]*)>",
    re.I,
)
_CLASS_RE = re.compile(r'class\s*=\s*["\']([^"\']*)["\']', re.I)
_A_TEXT_RE = re.compile(r"<a\b[^>]*>(.*?)</a\s*>", re.S | re.I)
_SUP_RE = re.compile(r"<sup\b[^>]*>\s*(\d+)\s*</sup\s*>", re.S | re.I)
_TAG_RE = re.compile(r"<[^>]*>")
_FOOTNOTE_START_RE = re.compile(r"^\(?\d+[.)]\s")
_CHARSET_RE = re.compile(rb"charset\s*=\s*[\"']?\s*([A-Za-z0-9_\-]+)", re.I)
_CHARSET_ALIASES = {
    "utf-8": "utf-8",
    "utf8": "utf-8",
    "iso-8859-1": "latin-1",
    "latin-1": "latin-1",
    "latin1": "latin-1",
    "windows-1252": "cp1252",
    "cp1252": "cp1252",
    "us-ascii": "ascii",
}
# boilerplate when the class holds any of these words
_BOILER_CLASS_RE = re.compile("menu|share|ad-|ads|banner|social|sidebar")

_HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
_BOILER_TAGS = {"nav", "aside", "footer"}
_FAKEPDF_PREFIX = FAKEPDF_MAGIC.decode()
_FAKEPDF_ROLES = {"head": "heading", "para": "para", "foot": "footnote", "pageno": "pageno"}
# raw pages extracted per slice: bounds the Python objects built at once
PAGE_SLICE = 256


class PageRow(NamedTuple):
    """One page's extraction, the row every doc is assembled from
    (``stages/reassemble.py::_assemble_docs``); its fields are also the
    extracted-page columns the url exchange ships."""

    header: str | None
    body: str
    footnotes: str | None
    page_number: int | None
    total_words: int
    failed_stage: str | None


def _block_text(raw: str) -> str:
    """A block's text: <sup>n</sup> -> [^n] footnote marks
    (convert-to-html.ts:15 contract), other tags dropped, entities
    resolved, normalized; "" for boilerplate by text — link-dominated
    (<a> text over half the text), or a markup-dominated short block
    (widgets, buttons, icon rows: clean chars / raw chars incl. markup
    under 0.1, the classic text-density signal, north_star "text-density
    block classification").  Tag-free blocks (the common case) skip every
    regex pass."""
    if "<" not in raw:
        return normalize_text(_htmllib.unescape(raw) if "&" in raw else raw)
    link_chars = (
        sum(len(_TAG_RE.sub("", g)) for g in _A_TEXT_RE.findall(raw)) if "<a" in raw else 0
    )
    t = _SUP_RE.sub(r"[^\1]", raw) if "<sup" in raw else raw
    if "<" in t:
        t = _TAG_RE.sub(" ", t)
    if "&" in t:
        t = _htmllib.unescape(t)  # &amp; / &#39; / named entities
    t = normalize_text(t)
    if (link_chars / max(1, len(t)) > 0.5 and len(t) < 400) or (
        len(t) / max(1, len(raw)) < 0.1 and len(t) < 80
    ):
        return ""
    return t


def _xycut_order(items: list[tuple[float, float, float, float, str, str]]) -> list[tuple[str, str]]:
    """Recursive XY-cut reading-order reconstruction over (x0,y0,x1,y1,role,
    text) boxes: split on the widest horizontal gap first, then vertical,
    recursing; leaves sorted by (y0, x0).  Deterministic (ties broken by
    coordinates then text)."""

    def best_cut(sorted_boxes, lo_idx, hi_idx):
        """(largest projection gap, split index) for one axis."""
        best_gap, best_i = 0.0, -1
        max_hi = sorted_boxes[0][hi_idx]
        for i in range(1, len(sorted_boxes)):
            gap = sorted_boxes[i][lo_idx] - max_hi
            if gap > best_gap:
                best_gap, best_i = gap, i
            max_hi = max(max_hi, sorted_boxes[i][hi_idx])
        return best_gap, best_i

    def cut(boxes):
        if len(boxes) <= 1:
            return list(boxes)
        ys = sorted(boxes, key=lambda b: (b[1], b[0], b[5]))
        xs = sorted(boxes, key=lambda b: (b[0], b[1], b[5]))
        h_gap, h_i = best_cut(ys, 1, 3)  # horizontal cut (project on y)
        v_gap, v_i = best_cut(xs, 0, 2)  # vertical cut (project on x)
        # cut at the LARGEST whitespace gap across both axes (ties ->
        # horizontal): always preferring horizontal would slice two-column
        # layouts at the 1-line inter-row gap and interleave the columns
        if h_gap >= v_gap and h_gap > 0:
            return cut(ys[:h_i]) + cut(ys[h_i:])
        if v_gap > 0:
            return cut(xs[:v_i]) + cut(xs[v_i:])
        return ys
    return [(b[4], b[5]) for b in cut(items)]


def _parse_fakepdf(payload: str) -> list[tuple[str, str]]:
    """Parse the mini layout format (``x0 y0 x1 y1 role text`` lines) and
    return (role, text) in reading order via XY-cut."""
    boxes = []
    for line in payload.splitlines():
        parts = line.split(" ", 5)
        if len(parts) < 6:
            continue
        try:
            x0, y0, x1, y1 = (float(p) for p in parts[:4])
        except ValueError:
            continue
        boxes.append((x0, y0, x1, y1, parts[4], parts[5]))
    return _xycut_order(boxes)


def _failed(stage: str, salvage_text: str) -> tuple[PageRow, None]:
    """M5 semantics: short-circuit with best-so-far text, flag for review."""
    body = normalize_text(salvage_text or "")
    return PageRow(None, body, None, None, count_words(body), stage), None


class _Page:
    """M3 segmentation, one block at a time: every backend feeds ``add``
    its (role, text) blocks in reading order, role in {running_head,
    heading, para, footnote, pageno, hr} (any other role is a para).
    Rules (deterministic, frozen by goldens):
      - header = running-head blocks + headings seen before the first body
        paragraph, joined by '\\n'.
      - body   = paragraphs and later headings, joined by '\\n\\n'; a
        paragraph after an hr is a footnote.
      - footnotes = footnote blocks joined '\\n' (None if none).
      - page_number = first int-parsable pageno block (None if absent)."""

    __slots__ = ("header", "body", "kinds", "footnotes", "page_number", "in_footnotes", "body_started")

    def __init__(self):
        # kinds: "heading" | "para", one per body part
        self.header, self.body, self.kinds, self.footnotes = [], [], [], []
        self.page_number, self.in_footnotes, self.body_started = None, False, False

    def add(self, role: str, text: str) -> None:
        if role == "hr":
            self.in_footnotes = True
        elif role == "pageno":
            if self.page_number is None:
                try:
                    self.page_number = int(text)
                except ValueError:
                    pass
        elif role == "footnote" or (self.in_footnotes and role == "para"):
            self.footnotes.append(text)
        elif role == "running_head":
            if not self.body_started:
                self.header.append(text)
        elif role == "heading":
            if self.body_started:
                self.body.append(text)
                self.kinds.append(role)
            else:
                self.header.append(text)
        else:
            self.body_started = True
            self.body.append(text)
            self.kinds.append("para")

    def build(self) -> PageRow:
        body = "\n\n".join(self.body)
        header = "\n".join(self.header) if self.header else None
        footnotes = "\n".join(self.footnotes) if self.footnotes else None
        total_words = count_words(body) + count_words(footnotes or "")
        return PageRow(header, body, footnotes, self.page_number, total_words, None)


def _add_block(tag: str, cls: str, raw: str, add) -> None:
    """Classify one closed block straight into the page (M2 boilerplate
    strip + role)."""
    if not raw:
        return
    boiler = tag in _BOILER_TAGS or (bool(cls) and _BOILER_CLASS_RE.search(cls) is not None)
    # a boilerplate block is dropped whatever its text, so its text is
    # only built when it holds an entity: unescaping an over-long
    # "&#...;" raises, which fails the page
    if boiler and "&" not in raw:
        return
    text = _block_text(raw)
    if not text or boiler:
        return
    if "pageno" in cls or (tag == "div" and len(text) <= 6 and text.isdigit()):
        role = "pageno"
    elif "header" in cls:
        role = "running_head"
    elif tag in _HEADING_TAGS:
        role = "heading"
    elif ("fn" in cls and "fn" in cls.split()) or _FOOTNOTE_START_RE.match(text):
        role = "footnote"
    else:
        role = "para"
    add(role, text)


def _html_pass(payload: str, add) -> bool:
    """Tokenize, classify and segment HTML in one pass; False when no
    block structure is recognized at all.  A stack of open block tags
    accumulates raw inner HTML; closing (or EOF) classifies the block into
    ``add``.  Nested children consume their own text (parents keep only
    directly-owned text).  Tolerant of unclosed and mismatched tags
    (malformed input must not raise)."""
    payload = _SCRIPT_STYLE_RE.sub(" ", _COMMENT_RE.sub(" ", payload))
    # one C-level split instead of a finditer loop with per-match group()
    # calls: parts = [lead, closing, tag, attrs, between, ...]; a
    # self-closing tag's attrs end in "/"
    parts = _BLOCK_TOKEN_RE.split(payload)
    found = False
    stack: list[tuple[str, str, list[str]]] = []  # (tag, lowercased class, raw parts)
    top = None  # the innermost open block's raw parts
    for closing, tag, attrs, text_after in zip(parts[1::4], parts[2::4], parts[3::4], parts[4::4]):
        tag = tag.lower()
        if tag == "br":
            if top is not None:
                top.append("\n")
        elif tag == "hr":
            found = True
            add("hr", "")
        elif closing:
            if stack and stack[-1][0] == tag:
                _, cls, raw = stack.pop()
                _add_block(tag, cls, "".join(raw), add)
            else:  # pop to matching tag (tolerate mismatches)
                for j in range(len(stack) - 2, -1, -1):
                    if stack[j][0] == tag:
                        while len(stack) > j:
                            t, cls, raw = stack.pop()
                            _add_block(t, cls, "".join(raw), add)
                        break
            top = stack[-1][2] if stack else None
        elif attrs[-1:] != "/":
            found = True
            cm = _CLASS_RE.search(attrs) if "class" in attrs else None
            top = []
            stack.append((tag, cm.group(1).lower() if cm else "", top))
        if text_after and top is not None:
            top.append(text_after)
    while stack:  # unclosed at EOF
        t, cls, raw = stack.pop()
        _add_block(t, cls, "".join(raw), add)
    return found


def _decode(html: bytes) -> str:
    """Charset chain (real CC pages are mixed-encoding): declared meta
    charset (sniffed from the head bytes) strict, then utf-8 strict, then
    latin-1 (total — every byte sequence decodes)."""
    head = html[:2048]
    m = _CHARSET_RE.search(head) if b"charset" in head.lower() else None
    declared = m and _CHARSET_ALIASES.get(m.group(1).decode("ascii", "replace").lower())
    for codec in (declared, "utf-8"):
        if codec:
            try:
                return html.decode(codec)
            except (UnicodeDecodeError, LookupError):
                pass
    return html.decode("latin-1")


def _extract_row(html: bytes | None, prior_text: str | None) -> tuple[PageRow, _Page | None]:
    """Pure fused extraction for one page (M1+M2+M3+M5+M6): (its
    ``PageRow``, the segmented ``_Page``, None on failure)."""
    # ---- stage CORRECT: decode + normalize --------------------------------
    # The failure path is a missing/empty payload: salvage prior text,
    # flag (M5).
    if not html:
        return _failed(STAGE_CORRECT, prior_text)
    page = _Page()
    # ---- stage CONVERT_TO_HTML: structure ---------------------------------
    # real PDF byte stream (E2 backend sniff on BYTES — a PDF must never
    # go through charset decoding): public-spec parser -> positioned
    # boxes -> the same XY-cut + segmentation as the layout backend.
    # Multi-page blobs concatenate pages in page-tree order (normally a
    # blob is one page — S2/S3 explode multi-page documents upstream).
    if html[:5] == b"%PDF-":
        try:
            for boxes in pdf_page_boxes(html):
                for role, text in _xycut_order(boxes):
                    text = normalize_text(text)
                    if text:
                        page.add(role, text)
        except Exception:
            return _failed(STAGE_CONVERT, prior_text)
    else:
        payload = _decode(html)
        try:
            if payload.startswith(_FAKEPDF_PREFIX):
                for role, text in _parse_fakepdf(payload[len(_FAKEPDF_PREFIX) :]):
                    text = normalize_text(text)
                    if text or role == "hr":
                        page.add(_FAKEPDF_ROLES.get(role, "para"), text)
            elif not _html_pass(payload, page.add):
                # E2 fallback chain (pipeline/utils.ts:16-36 semantics): no
                # block structure recognized at all (plain-text payload) ->
                # the whole normalized text is the body.  Only fires when
                # NOTHING was tokenized — recognized-then-dropped
                # boilerplate still yields an EMPTY page.
                t = _TAG_RE.sub(" ", payload)
                if "&" in t:
                    t = _htmllib.unescape(t)
                t = normalize_text(t)
                if t:
                    page.add("para", t)
        except Exception:
            return _failed(STAGE_CONVERT, prior_text)
    # ---- stage SEGMENT ----------------------------------------------------
    try:
        return page.build(), page
    except Exception:
        return _failed(STAGE_SEGMENT, prior_text)


def extract_page(html: bytes, prior_text: str) -> dict:
    """One page's extraction row (M1+M2+M3+M5+M6+M8): ``_extract_row``
    plus the body's spans — (kind, byte_start, byte_end) into the utf-8
    body — and the flags (M8: ``NEEDS_ADDITIONAL_REVIEW`` on failure,
    ``EMPTY`` on an empty body)."""
    (header, body, footnotes, page_number, total_words, failed), page = _extract_row(html, prior_text)
    spans, start = [], 0
    for kind, text in zip(page.kinds, page.body) if page is not None else ():
        end = start + (len(text) if text.isascii() else len(text.encode("utf-8")))
        spans.append({"kind": kind, "start": start, "end": end})
        start = end + 2  # the "\n\n" separator
    flags = ([FLAG_NEEDS_REVIEW] if failed else []) + ([FLAG_EMPTY] if not body else [])
    return {
        "header": header,
        "body": body,
        "footnotes": footnotes,
        "page_number": page_number,
        "spans": spans,
        "total_words": total_words,
        "flags": flags,
        "failed_stage": failed,
    }


# ---------------------------------------------------------------------------
# map_batches stage
# ---------------------------------------------------------------------------
# ``extract_page``'s row: ``ExtractPages``' columns after url and warc_ts
_PAGE_ROW = pa.schema(
    [
        ("header", pa.string()),
        ("body", pa.string()),
        ("footnotes", pa.string()),
        ("page_number", pa.int32()),
        ("spans", pa.list_(pa.struct([("kind", pa.string()), ("start", pa.int64()), ("end", pa.int64())]))),
        ("total_words", pa.int64()),
        ("flags", pa.list_(pa.string())),
        ("failed_stage", pa.string()),
    ]
)


class ExtractPages:
    """``ds.map_batches(ExtractPages(batch_size), batch_format="pyarrow",
    batch_size=None)`` — input (url, warc_ts, html, text[, lang]) rows,
    output per-page extraction columns.  The html column is consumed
    (dropped) here so downstream shuffles move extracted text, not raw
    bytes (SURVEY.md §4 "heavy per-row stages run before the shuffle").

    One call extracts a whole block in ``batch_size``-row zero-copy slices
    and returns ONE table: the Python objects built per slice stay bounded
    by ``batch_size`` pages, and the map needs no ``batch_size`` of its own
    (a numeric one keeps Ray from fusing the map with the read)."""

    def __init__(self, batch_size: int = PAGE_SLICE):
        self.batch_size = batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, k = batch.num_rows, self.batch_size
        if n <= k:
            return self._extract(batch)
        return pa.concat_tables([self._extract(batch.slice(i, k)) for i in range(0, n, k)])

    @staticmethod
    def _extract(batch: pa.Table) -> pa.Table:
        htmls, priors = batch.column("html").to_pylist(), batch.column("text").to_pylist()
        out = pa.Table.from_pylist(list(map(extract_page, htmls, priors)), schema=_PAGE_ROW)
        return out.add_column(0, "url", batch.column("url")).add_column(
            1, "warc_ts", batch.column("warc_ts")
        )
