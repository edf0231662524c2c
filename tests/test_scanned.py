"""Scanned (image-only) PDFs extract text through the deterministic
template-match recognizer (round-4 verdict item #6 — the reference's
OCR stage, apps/queue/src/lib/ocr.ts:77-122, made deterministic):
a scanned article and its text twin extract byte-identically, and the
corpus's scanned url class produces zero flagged pages."""

import numpy as np
import pytest
import ray.data as rd

from ocr_platform_ray.corpus import (
    is_scanned_url,
    make_pages_table,
    page_payload,
    url_for,
)
from ocr_platform_ray.sources.pdfgen import article_items, make_article_pdf
from ocr_platform_ray.sources.scangen import make_scanned_article
from ocr_platform_ray.stages.extract import extract_page
from ocr_platform_ray.stages.ocr import (
    _ATLAS,
    _CANDIDATES,
    _band_cells,
    _bands,
    _glyph_tables,
    _recognize_band,
    recognize_pixels,
)
from ocr_platform_ray.stages.raster import rasterize_boxes


class TestRecognizer:
    def test_rasterize_recognize_round_trip(self):
        boxes = [
            (72.0, 60.0, 200.0, 81.0, "", "HEADING 42"),
            (72.0, 110.0, 400.0, 122.0, "", "THE QUICK BROWN FOX, 123!"),
            (72.0, 130.0, 400.0, 142.0, "", "SECOND LINE: (WITH) PUNCT?"),
        ]
        px = rasterize_boxes(boxes, scale=2.0)
        got = recognize_pixels(px, scale=2.0)
        assert [t for _, _, _, t in got] == [
            "HEADING 42",
            "THE QUICK BROWN FOX, 123!",
            "SECOND LINE: (WITH) PUNCT?",
        ]
        # geometry round-trips exactly: (x, top_y, size) in points
        assert [(x, y, s) for x, y, s, _ in got] == [
            (72.0, 60.0, 21.0),
            (72.0, 110.0, 12.0),
            (72.0, 130.0, 12.0),
        ]

    def test_interior_spaces_and_blank_page(self):
        boxes = [(72.0, 100.0, 300.0, 112.0, "", "A  B   C")]
        px = rasterize_boxes(boxes, scale=2.0)
        assert [t for *_, t in recognize_pixels(px, scale=2.0)] == ["A  B   C"]
        blank = np.full((200, 200), 255, dtype=np.uint8)
        assert recognize_pixels(blank, scale=2.0) == []


def _per_cell_reference(band):
    """The exact sweep of ``_recognize_band`` done cell by cell on raw
    bitmap bytes: (offset, text), None for a blank line, or "no match"
    when no offset matches exactly (the fallback scorer's case)."""
    ch_h = band.shape[0]
    ch_w = int(round(ch_h / 2))
    exact = {}
    for c in _CANDIDATES:  # codepoint order: the first glyph wins a collision
        exact.setdefault(_ATLAS.glyph(ord(c), ch_w, ch_h).tobytes(), c)
    cols = np.flatnonzero(band.any(axis=0))
    xl, xr = int(cols[0]), int(cols[-1])
    for o in range(max(0, xl - ch_w + 1), xl + 1):
        chars = []
        for cell in _band_cells(band, o, xr, ch_w):
            c = exact.get(cell.tobytes())
            if c is None:
                break
            chars.append(c)
        else:
            text = "".join(chars).rstrip(" ")
            return (o, text) if text else None
    return "no match"


class TestPackedLookup:
    """The packed-bitmap lookup finds the same (offset, text) per band as
    a plain per-cell lookup, including at cell sizes where several
    glyphs resize to one bitmap."""

    @staticmethod
    def _bands_of(px):
        rows = px.min(axis=1) < 128
        assert _bands(rows) == _bands((px < 128).any(axis=1))
        return [px[r0:r1] < 128 for r0, r1 in _bands(rows)]

    def test_scangen_pages_match_per_cell_reference(self):
        case = TestScannedTwinParity.CASES[0]
        items = article_items(
            case["title"],
            case["paragraphs"],
            page_number=case["page_number"],
            footnote=case["footnote"],
        )
        boxes = [
            (it["x"], it["y"], it["x"] + 0.5 * it["size"] * len(it["text"]),
             it["y"] + it["size"], "", it["text"])
            for it in items
        ]
        for scale in (2.0, 1.0, 0.75):
            refs = [
                (band, _per_cell_reference(band))
                for band in self._bands_of(rasterize_boxes(boxes, scale=scale))
            ]
            if scale == 2.0:  # the scangen scale: every line is an exact render
                assert [ref[1] for _, ref in refs] == [it["text"] for it in items]
            for band, ref in refs:
                if ref != "no match":
                    assert _recognize_band(band) == ref, scale

    def test_tiny_cells_with_colliding_glyphs(self):
        # every candidate glyph, one short line each, lines far apart
        lines = [_CANDIDATES[i : i + 9] for i in range(0, len(_CANDIDATES), 9)]
        collided = exact_bands = 0
        for size in (2.0, 3.0, 4.0, 5.0, 6.0):
            boxes = [
                (10.0, 10.0 + 12 * k, 10.0 + 0.5 * size * len(t), 10.0 + 12 * k + size, "", t)
                for k, t in enumerate(lines)
            ]
            ch_h = int(round(size))
            ch_w = max(1, int(round(0.5 * size)))
            exact, _ = _glyph_tables(ch_w, ch_h)
            collided += len(exact) < len(_CANDIDATES)
            for band in self._bands_of(rasterize_boxes(boxes, page_h=200.0, scale=1.0)):
                ref = _per_cell_reference(band)
                if ref != "no match":
                    exact_bands += 1
                    assert _recognize_band(band) == ref, size
        assert collided >= 3 and exact_bands >= 20


class TestScannedTwinParity:
    CASES = [
        dict(
            title="CHAPTER 3",
            paragraphs=[
                "THE QUICK BROWN FOX JUMPS OVER A LAZY DOG WHILE RIVERS OF "
                "TEXT FLOW THROUGH ANCIENT LIBRARIES WHERE SCHOLARS ANNOTATE "
                "EVERY MARGIN WITH CAREFUL NOTES",
                "ABOUT HISTORY LANGUAGE AND THE SLOW WORK OF MEMORY",
            ],
            page_number=3,
            footnote="1. CAREFUL NOTES ABOUT HISTORY",
        ),
        dict(title="A", paragraphs=["SINGLE SHORT LINE."], page_number=None, footnote=None),
    ]

    def test_scanned_extracts_byte_identical_to_text_twin(self):
        for case in self.CASES:
            scanned = make_scanned_article(
                case["title"],
                case["paragraphs"],
                page_number=case["page_number"],
                footnote=case["footnote"],
            )
            twin = make_article_pdf(
                case["title"],
                case["paragraphs"],
                page_number=case["page_number"],
                footnote=case["footnote"],
            )
            a, b = extract_page(scanned, ""), extract_page(twin, "")
            assert a["failed_stage"] is None and a["flags"] == []
            for k in ("header", "body", "footnotes", "page_number", "spans"):
                assert a[k] == b[k], (k, case["title"])

    def test_scanned_pdf_has_no_text_operators(self):
        pdf = make_scanned_article("CHAPTER 1", ["NO TEXT OPERATORS HERE."])
        assert b"Tj" not in pdf and b"TJ" not in pdf and b"/Font" not in pdf


@pytest.mark.usefixtures("ray_session")
class TestScannedCorpusClass:
    def test_scanned_urls_extract_clean(self):
        from ocr_platform_ray.pipelines.extraction import extraction_pipeline

        df = extraction_pipeline(rd.from_arrow(make_pages_table(60))).to_pandas()
        scanned = df[df.url.isin([url_for(u) for u in range(60) if is_scanned_url(u)])]
        assert len(scanned) == 5
        assert (scanned["n_failed_pages"] == 0).all()
        assert (scanned["total_words"] > 0).all()

    def test_scanned_payload_is_image_only_pdf(self):
        html, _prior, lang = page_payload(9, 0)
        assert html[:5] == b"%PDF-" and lang == "en"
        assert b"/Font" not in html and b"/Image" in html
