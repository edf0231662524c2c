"""The fused per-page extraction operator: decode -> normalize ("correct",
M1) -> block-structure ("convert-to-html", M2) -> segment (M3), with the
reference's error semantics (M5: failures short-circuit with the
best-so-far text and a ``failed_stage`` label, never dropping the row —
apps/queue/src/pipeline/utils.ts:38-57, pipeline/index.ts:60-104) and flag
assignment (M8: ``NEEDS_ADDITIONAL_REVIEW`` on failure, ``EMPTY`` on empty
body — apps/queue/src/queues/page/worker.ts:41-66).

Two payload backends, selected per row by content sniffing (the reference's
``mode`` engine selection, pipeline/utils.ts:5-8 / E2):
  * HTML: regex block tokenizer -> boilerplate strip (tag/class/link-density
    heuristics, the deterministic analogue of the convert-to-html prompt's
    structure rules, convert-to-html.ts:3-18) -> segmentation into
    {header, body, footnotes, page_number} (segment.ts:26-37 output shape).
  * FAKEPDF layout lines: bbox parse -> XY-cut reading-order reconstruction
    -> same segmentation (north_star's PDF path).

Everything is pure and deterministic: byte-identical output per (html,
text) input regardless of parallelism, block order, or batch size.
"""

from __future__ import annotations

import html as _htmllib
import re

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

# --- compiled parser state (module level: shared by actor + pure fn) -------
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
_BOILER_CLASS_WORDS = ("menu", "share", "ad-", "ads", "banner", "social", "sidebar")

_HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
_BOILER_TAGS = {"nav", "aside", "footer"}


class _Block:
    __slots__ = ("tag", "cls", "raw")

    def __init__(self, tag: str, cls: str, raw: str):
        self.tag = tag
        self.cls = cls
        self.raw = raw


def _tokenize_blocks(html: str) -> list[_Block]:
    """Split cleaned HTML into flat leaf blocks.  A stack of open block tags
    accumulates raw inner HTML; closing (or EOF) emits the block.  Nested
    children consume their own text (parents keep only directly-owned text).
    Tolerant of unclosed tags (malformed input must not raise)."""
    html = _COMMENT_RE.sub(" ", html)
    html = _SCRIPT_STYLE_RE.sub(" ", html)
    blocks: list[_Block] = []
    # stack entries: [tag, cls, buffer_parts]
    stack: list[list] = []
    # one C-level split instead of a finditer loop with per-match group()
    # calls: parts = [lead, closing, tag, attrs, between, ...]; a
    # self-closing tag's attrs end in "/"
    parts = _BLOCK_TOKEN_RE.split(html)
    for closing, tag, attrs, text_after in zip(parts[1::4], parts[2::4], parts[3::4], parts[4::4]):
        tag = tag.lower()
        if tag == "br":
            if stack:
                stack[-1][2].append("\n")
        elif tag == "hr":
            blocks.append(_Block("hr", "", ""))
        elif closing:
            # pop to matching tag (tolerate mismatches)
            for j in range(len(stack) - 1, -1, -1):
                if stack[j][0] == tag:
                    while len(stack) > j:
                        t, c, buf = stack.pop()
                        blocks.append(_Block(t, c, "".join(buf)))
                    break
        elif attrs[-1:] == "/":
            pass
        else:
            if attrs and "class" in attrs:
                cm = _CLASS_RE.search(attrs)
                cls = cm.group(1).lower() if cm else ""
            else:
                cls = ""
            stack.append([tag, cls, []])
        if stack and text_after:
            stack[-1][2].append(text_after)
    while stack:  # unclosed at EOF
        t, c, buf = stack.pop()
        blocks.append(_Block(t, c, "".join(buf)))
    return blocks


def _inline_to_text(raw: str) -> tuple[str, float, float]:
    """Resolve inline markup inside a block: <sup>n</sup> -> [^n] footnote
    marks (convert-to-html.ts:15 contract), <a> text kept but measured for
    link density.  Returns (clean_text, link_density, text_density) where
    text_density = clean chars / raw chars incl. markup — the classic
    boilerplate signal (north_star "text-density block classification").
    Tag-free blocks (the common case) skip every regex pass."""
    if "<" not in raw:
        t = _htmllib.unescape(raw) if "&" in raw else raw
        return normalize_text(t), 0.0, 1.0
    link_chars = (
        sum(len(_TAG_RE.sub("", g)) for g in _A_TEXT_RE.findall(raw)) if "<a" in raw else 0
    )
    t = _SUP_RE.sub(lambda m: f"[^{m.group(1)}]", raw) if "<sup" in raw else raw
    t = _TAG_RE.sub(" ", t)
    if "&" in t:
        t = _htmllib.unescape(t)  # &amp; / &#39; / named entities
    t = normalize_text(t)
    total = max(1, len(t))
    density = len(t) / max(1, len(raw))
    return t, min(1.0, link_chars / total), density


def _is_boiler_markup(tag: str, cls: str) -> bool:
    """Boilerplate by tag or class alone, whatever the block's text."""
    return tag in _BOILER_TAGS or (bool(cls) and any(w in cls for w in _BOILER_CLASS_WORDS))


def _is_boiler_text(text: str, link_density: float, text_density: float) -> bool:
    if link_density > 0.5 and len(text) < 400:
        return True
    # markup-dominated short block (widgets, buttons, icon rows): almost
    # all bytes are tags, almost none are text
    if text_density < 0.1 and len(text) < 80:
        return True
    return False


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


_EMPTY_RESULT_KEYS = (
    "header",
    "body",
    "footnotes",
    "page_number",
    "spans",
    "total_words",
    "flags",
    "failed_stage",
)


def _failed(stage: str, salvage_text: str) -> dict:
    """M5 semantics: short-circuit with best-so-far text, flag for review."""
    body = normalize_text(salvage_text or "")
    return {
        "header": None,
        "body": body,
        "footnotes": None,
        "page_number": None,
        "spans": [],
        "total_words": count_words(body),
        "flags": [FLAG_NEEDS_REVIEW] + ([FLAG_EMPTY] if not body else []),
        "failed_stage": stage,
    }


def _segment(roles: list[tuple[str, str]]) -> dict:
    """M3: assemble {header, body, footnotes, page_number} + spans from an
    ordered (role, text) block list.  role in {running_head, heading, para,
    footnote, pageno, hr}.  Rules (deterministic, frozen by goldens):
      - header = running-head blocks + headings seen before the first body
        paragraph, joined by '\\n'.
      - body   = paragraphs and later headings, joined by '\\n\\n'.
      - footnotes = footnote blocks joined '\\n' (None if none).
      - page_number = first digit-only pageno block (None if absent).
      - spans = (kind, byte_start, byte_end) into the utf-8 body."""
    header_parts: list[str] = []
    body_parts: list[tuple[str, str]] = []  # (kind, text)
    footnote_parts: list[str] = []
    page_number = None
    in_footnote_zone = False
    body_started = False
    for role, text in roles:
        if role == "hr":
            in_footnote_zone = True
            continue
        if role == "pageno":
            if page_number is None:
                try:
                    page_number = int(text)
                except ValueError:
                    pass
            continue
        if role == "footnote" or (in_footnote_zone and role == "para"):
            footnote_parts.append(text)
            continue
        if role == "running_head":
            if not body_started:
                header_parts.append(text)
            continue
        if role == "heading":
            if body_started:
                body_parts.append(("heading", text))
            else:
                header_parts.append(text)
            continue
        # para
        body_started = True
        body_parts.append(("para", text))

    spans = []
    chunks = []
    offset = 0
    for kind, text in body_parts:
        if chunks:
            offset += 2  # "\n\n" separator
        b = len(text.encode("utf-8"))
        spans.append({"kind": kind, "start": offset, "end": offset + b})
        offset += b
        chunks.append(text)
    body = "\n\n".join(chunks)
    header = "\n".join(header_parts) if header_parts else None
    footnotes = "\n".join(footnote_parts) if footnote_parts else None
    total_words = count_words(body) + count_words(footnotes or "")
    flags = [FLAG_EMPTY] if not body else []
    return {
        "header": header,
        "body": body,
        "footnotes": footnotes,
        "page_number": page_number,
        "spans": spans,
        "total_words": total_words,
        "flags": flags,
        "failed_stage": None,
    }


def extract_page(html: bytes, prior_text: str) -> dict:
    """Pure fused extraction for one page (M1+M2+M3+M5+M6+M8)."""
    # ---- stage CORRECT: decode + normalize --------------------------------
    # charset chain (real CC pages are mixed-encoding): declared meta
    # charset (sniffed from the head bytes) strict, then utf-8 strict,
    # then latin-1 (total — every byte sequence decodes).  The failure
    # path is a missing/empty payload: salvage prior text, flag (M5).
    if not html:
        return _failed(STAGE_CORRECT, prior_text)
    # real PDF byte stream (E2 backend sniff on BYTES — a PDF must never
    # go through charset decoding): public-spec parser -> positioned
    # boxes -> the same XY-cut + segment path as the layout backend.
    # Multi-page blobs concatenate pages in page-tree order (normally a
    # blob is one page — S2/S3 explode multi-page documents upstream).
    if html[:5] == b"%PDF-":
        try:
            roles = []
            for boxes in pdf_page_boxes(html):
                for role, text in _xycut_order(boxes):
                    text = normalize_text(text)
                    if not text:
                        continue
                    roles.append((role, text))
        except Exception:
            return _failed(STAGE_CONVERT, prior_text)
        try:
            return _segment(roles)
        except Exception:
            return _failed(STAGE_SEGMENT, prior_text)
    payload = None
    head = html[:2048]
    m = _CHARSET_RE.search(head) if b"charset" in head.lower() else None
    if m:
        codec = _CHARSET_ALIASES.get(m.group(1).decode("ascii", "replace").lower())
        if codec:
            try:
                payload = html.decode(codec)
            except (UnicodeDecodeError, LookupError):
                payload = None
    if payload is None:
        try:
            payload = html.decode("utf-8")
        except UnicodeDecodeError:
            payload = html.decode("latin-1")

    # ---- stage CONVERT_TO_HTML: structure ---------------------------------
    try:
        if payload.startswith(FAKEPDF_MAGIC.decode()):
            roles_raw = _parse_fakepdf(payload[len(FAKEPDF_MAGIC) :])
            roles = []
            for role, text in roles_raw:
                text = normalize_text(text)
                if not text and role != "hr":
                    continue
                roles.append(
                    {
                        "head": ("heading", text),
                        "para": ("para", text),
                        "foot": ("footnote", text),
                        "pageno": ("pageno", text),
                    }.get(role, ("para", text))
                )
        else:
            blocks = _tokenize_blocks(payload)
            if not blocks:
                # E2 fallback chain (pipeline/utils.ts:16-36 semantics): no
                # block structure recognized at all (plain-text payload) ->
                # the whole normalized text is the body.  Only fires when
                # NOTHING was tokenized — recognized-then-dropped
                # boilerplate still yields an EMPTY page.
                t = _TAG_RE.sub(" ", payload)
                if "&" in t:
                    t = _htmllib.unescape(t)
                t = normalize_text(t)
                return _segment([("para", t)] if t else [])
            roles = []
            for blk in blocks:
                if blk.tag == "hr":
                    roles.append(("hr", ""))
                    continue
                boiler = _is_boiler_markup(blk.tag, blk.cls)
                # such a block is dropped whatever its text, so its text is
                # only built when it holds an entity: unescaping an
                # over-long "&#...;" raises, which fails the page
                if boiler and "&" not in blk.raw:
                    continue
                text, link_density, text_density = _inline_to_text(blk.raw)
                if not text or boiler or _is_boiler_text(text, link_density, text_density):
                    continue
                if "pageno" in blk.cls or (text.isdigit() and len(text) <= 6 and blk.tag == "div"):
                    roles.append(("pageno", text))
                elif "header" in blk.cls:
                    roles.append(("running_head", text))
                elif blk.tag in _HEADING_TAGS:
                    roles.append(("heading", text))
                elif "fn" in blk.cls.split() or _FOOTNOTE_START_RE.match(text):
                    roles.append(("footnote", text))
                else:
                    roles.append(("para", text))
    except Exception:
        return _failed(STAGE_CONVERT, prior_text)

    # ---- stage SEGMENT ----------------------------------------------------
    try:
        return _segment(roles)
    except Exception:
        return _failed(STAGE_SEGMENT, prior_text)


# ---------------------------------------------------------------------------
# Actor-pool stage (T1/T3 pattern: warm state once per actor, work per batch)
# ---------------------------------------------------------------------------
_SPAN_T = pa.list_(
    pa.struct([pa.field("kind", pa.string()), pa.field("start", pa.int64()), pa.field("end", pa.int64())])
)


class ExtractPages:
    """``ds.map_batches(ExtractPages, batch_format="pyarrow",
    concurrency=N)`` — input (url, warc_ts, html, text[, lang]) rows, output
    per-page extraction columns.  The html column is consumed (dropped) here
    so downstream shuffles move extracted text, not raw bytes (SURVEY.md §4
    "heavy per-row stages run before the shuffle")."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        htmls = batch.column("html").to_pylist()
        priors = batch.column("text").to_pylist()
        results = [extract_page(h, t) for h, t in zip(htmls, priors)]
        out = {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "header": pa.array([r["header"] for r in results], pa.string()),
            "body": pa.array([r["body"] for r in results], pa.string()),
            "footnotes": pa.array([r["footnotes"] for r in results], pa.string()),
            "page_number": pa.array([r["page_number"] for r in results], pa.int32()),
            "spans": pa.array([r["spans"] for r in results], _SPAN_T),
            "total_words": pa.array([r["total_words"] for r in results], pa.int64()),
            "flags": pa.array([r["flags"] for r in results], pa.list_(pa.string())),
            "failed_stage": pa.array([r["failed_stage"] for r in results], pa.string()),
        }
        return pa.table(out)
