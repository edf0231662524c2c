"""Scanned (image-only) PDFs extract text through the deterministic
template-match recognizer (round-4 verdict item #6 — the reference's
OCR stage, apps/queue/src/lib/ocr.ts:77-122, made deterministic):
a scanned article and its text twin extract byte-identically, and the
corpus's scanned url class produces zero flagged pages."""

import zlib

import numpy as np
import pytest
import ray.data as rd

from ocr_platform_ray.corpus import (
    is_scanned_url,
    make_pages_table,
    page_payload,
    url_for,
)
from ocr_platform_ray.sources.pdfgen import (
    _PdfBuilder,
    ahx_encode,
    article_items,
    encrypt_pdf_aes128,
    encrypt_pdf_rc4,
    make_article_pdf,
)
from ocr_platform_ray.sources.scangen import make_scanned_article
from ocr_platform_ray.stages.extract import ExtractPages, extract_page
from ocr_platform_ray.stages.ocr import (
    _ATLAS,
    _CANDIDATES,
    _SIZE_CACHE,
    _band_cells,
    _bands,
    _glyph_tables,
    _recognize_band,
    recognize_pixels,
    recognize_rows,
)
from ocr_platform_ray.stages.pdf import (
    _decode_stream,
    _ocr_image_runs,
    _page_content,
    _pages_in_order,
    _stream_bytes,
    page_font_decoders,
    pdf_info,
    pdf_outline,
    pdf_page_count,
    scan_objects,
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


def _article_boxes(case):
    items = article_items(
        case["title"],
        case["paragraphs"],
        page_number=case["page_number"],
        footnote=case["footnote"],
    )
    return [
        (it["x"], it["y"], it["x"] + 0.5 * it["size"] * len(it["text"]),
         it["y"] + it["size"], "", it["text"])
        for it in items
    ]


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
        boxes = _article_boxes(TestScannedTwinParity.CASES[0])
        for scale in (2.0, 1.0, 0.75):
            refs = [
                (band, _per_cell_reference(band))
                for band in self._bands_of(rasterize_boxes(boxes, scale=scale))
            ]
            if scale == 2.0:  # the scangen scale: every line is an exact render
                assert [ref[1] for _, ref in refs] == [b[5] for b in boxes]
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


def _image_pdf(images, *, contents_is_image=False, tounicode_is_image=False):
    """A one-page 612 x 792 pt PDF whose /XObject resources are
    ``images``: (extra image-dict bytes, stream bytes exactly as stored).
    The flags point the page's /Contents, or a font's /ToUnicode, at the
    first image — a malformed file, but one the parser must read."""
    b = _PdfBuilder()
    root = b.reserve()
    refs = [
        b.add(
            b"<< /Type /XObject /Subtype /Image " + extra
            + b" /Length " + str(len(raw)).encode()
            + b" >>\nstream\n" + raw + b"\nendstream"
        )
        for extra, raw in images
    ]
    contents = refs[0] if contents_is_image else b.stream_obj(b"", b"q Q")
    fonts = b""
    if tounicode_is_image:
        font = b.add(
            b"<< /Type /Font /Subtype /Type0 /ToUnicode " + str(refs[0]).encode() + b" 0 R >>"
        )
        fonts = b" /Font << /F1 " + str(font).encode() + b" 0 R >>"
    xobjects = b" ".join(b"/Im%d %d 0 R" % (k + 1, r) for k, r in enumerate(refs))
    page = b.add(
        b"<< /Type /Page /Parent " + str(root).encode() + b" 0 R /MediaBox [0 0 612 792]"
        b" /Resources << /XObject << " + xobjects + b" >>" + fonts + b" >>"
        b" /Contents " + str(contents).encode() + b" 0 R >>"
    )
    b.set(root, b"<< /Type /Pages /Kids [" + str(page).encode() + b" 0 R] /Count 1 >>")
    return b.render(b.add(b"<< /Type /Catalog /Pages " + str(root).encode() + b" 0 R >>"))


def _gray(px) -> bytes:
    h, w = px.shape
    return b"/Width %d /Height %d /ColorSpace /DeviceGray /BitsPerComponent 8" % (w, h)


def _flate(px, raw) -> tuple[bytes, bytes]:
    return _gray(px) + b" /Filter /FlateDecode", raw


def _oracle_lines(pdf):
    """The full decode the chunked one replaces: each gray image through
    ``_decode_stream`` (``zlib.decompress`` plus salvage of a truncated
    stream), the whole pixel array recognized at once.  Per page, the
    lines as ``_ocr_image_runs`` reports them."""
    objects = scan_objects(pdf)
    pages = []
    for page in _pages_in_order(objects):
        runs = []
        for _name, ref in sorted(page["Resources"]["XObject"].items()):
            val, enc = objects[ref.num]
            try:
                sdata = _decode_stream(val, enc.raw)
            except (ValueError, zlib.error):
                continue
            w, h = val["Width"], val["Height"]
            if len(sdata) < w * h:
                continue
            px = np.frombuffer(sdata[: w * h], dtype=np.uint8).reshape(h, w)
            for x, ty, size, text in recognize_pixels(px, scale=w / 612.0):
                runs.append((x, 792.0 - ty - size, size, text))
        pages.append(runs)
    return pages


def _chunked_lines(pdf):
    objects = scan_objects(pdf)
    return [
        [(r.x, r.y, r.size, r.text) for r in _ocr_image_runs(page, objects, 792.0, 612.0)]
        for page in _pages_in_order(objects)
    ]


@pytest.fixture
def zlib_calls(monkeypatch):
    """Counts of whole-buffer ``zlib.decompress`` calls and of inflaters
    created, made while the test runs."""
    calls = {"decompress": 0, "decompressobj": 0}

    def counting(name):
        real = getattr(zlib, name)

        def wrapper(*a, **k):
            calls[name] += 1
            return real(*a, **k)

        return wrapper

    for name in calls:
        monkeypatch.setattr(zlib, name, counting(name))
    return calls


class TestChunkedImageDecode:
    """The chunked inflate of a scanned page image recognizes the same
    lines as a full ``zlib.decompress`` of it, on clean, damaged and
    unusual streams alike."""

    PX = rasterize_boxes(_article_boxes(TestScannedTwinParity.CASES[0]), scale=2.0)

    def _check(self, pdf, zlib_calls, *, chunked, recognized=True):
        want = _oracle_lines(pdf)
        zlib_calls["decompress"] = 0
        assert _chunked_lines(pdf) == want
        assert bool(want[0]) == recognized
        # a clean lone-Flate image never goes through zlib.decompress
        assert (zlib_calls["decompress"] == 0) == chunked

    def test_scangen_pages(self, zlib_calls):
        for case in TestScannedTwinParity.CASES:
            pdf = make_scanned_article(
                case["title"], case["paragraphs"],
                page_number=case["page_number"], footnote=case["footnote"],
            )
            self._check(pdf, zlib_calls, chunked=True)

    def test_damaged_streams(self, zlib_calls):
        px = self.PX
        clean = zlib.compress(px.tobytes())
        # random bytes after the image compress badly, so a cut inside
        # them leaves a prefix that still holds every pixel
        noise = np.random.default_rng(5).integers(0, 256, 40_000, dtype=np.uint8).tobytes()
        padded = zlib.compress(px.tobytes() + noise)
        cases = [
            ("truncated, prefix >= W x H", padded[:-2000], True),
            ("truncated, prefix < W x H", clean[: len(clean) // 2], False),
            ("corrupt adler32", clean[:-1] + bytes([clean[-1] ^ 1]), False),
            ("bad zlib header", bytes([clean[0] ^ 0xFF]) + clean[1:], False),
            ("one row short", zlib.compress(px[:-1].tobytes()), False),
            ("empty stream", b"", False),
        ]
        for name, raw, recognized in cases:
            pdf = _image_pdf([_flate(px, raw)])
            self._check(pdf, zlib_calls, chunked=False, recognized=recognized)

    def test_bytes_after_stream_end(self, zlib_calls):
        raw = zlib.compress(self.PX.tobytes()) + b"\x00trailing bytes after the zlib stream"
        self._check(_image_pdf([_flate(self.PX, raw)]), zlib_calls, chunked=True)

    def test_widths_that_do_not_divide_the_step(self, zlib_calls):
        px = self.PX
        band = px[np.flatnonzero(px.min(axis=1) < 128)[0] - 3 :][:40]
        for img in (
            px[:, :997],  # prime width
            np.ascontiguousarray(px[:700, :613]),
            np.tile(band, (1, 101)),  # one row is wider than a whole step
        ):
            pdf = _image_pdf([_flate(img, zlib.compress(img.tobytes()))])
            self._check(pdf, zlib_calls, chunked=True)

    def test_two_images_on_one_page(self, zlib_calls):
        top, rest = self.PX[:400], self.PX[400:]
        pdf = _image_pdf([_flate(img, zlib.compress(img.tobytes())) for img in (top, rest)])
        self._check(pdf, zlib_calls, chunked=True)
        assert len({y for _x, y, _s, _t in _oracle_lines(pdf)[0]}) > 2

    def test_filter_chain_and_predictor_take_the_full_decode(self, zlib_calls):
        px = self.PX
        chain = (
            _gray(px) + b" /Filter [/ASCIIHexDecode /FlateDecode]",
            ahx_encode(zlib.compress(px.tobytes())),
        )
        rows = b"".join(b"\x00" + row.tobytes() for row in px)  # PNG "None" rows
        predictor = (
            _gray(px) + b" /Filter /FlateDecode /DecodeParms << /Predictor 12 /Columns %d >>"
            % px.shape[1],
            zlib.compress(rows),
        )
        for image in (chain, predictor):
            self._check(_image_pdf([image]), zlib_calls, chunked=False)

    def test_encrypted_scanned_pdfs(self, zlib_calls):
        case = TestScannedTwinParity.CASES[1]
        plain = make_scanned_article(case["title"], case["paragraphs"])
        want = extract_page(plain, "")
        for encrypt in (encrypt_pdf_rc4, encrypt_pdf_aes128):
            pdf = encrypt(plain)
            self._check(pdf, zlib_calls, chunked=True)
            got = extract_page(pdf, "")
            assert got["failed_stage"] is None and got["body"] == want["body"], encrypt

    def test_recognize_rows_matches_whole_page_on_any_slabbing(self):
        px = self.PX
        want = recognize_pixels(px, scale=2.0)
        for cut in (1, 7, 96, 500):
            slabs = [px[i : i + cut] for i in range(0, len(px), cut)]
            assert recognize_rows(slabs, scale=2.0) == want, cut


class TestStreamAccessor:
    """Every reader of stream bytes gets the fully decoded stream, even
    from an image object a malformed file points it at."""

    def test_contents_and_tounicode_pointing_at_an_image(self, zlib_calls):
        px = rasterize_boxes(
            [(10.0, 10.0, 40.0, 22.0, "", "AB 12")], page_w=100.0, page_h=40.0, scale=2.0
        )
        raw = zlib.compress(px.tobytes())
        for flags in ({"contents_is_image": True}, {"tounicode_is_image": True}):
            pdf = _image_pdf([_flate(px, raw)], **flags)
            objects = scan_objects(pdf)
            page = _pages_in_order(objects)[0]
            if flags.get("contents_is_image"):
                assert _page_content(page, objects) == zlib.decompress(raw)
            else:
                assert set(page_font_decoders(page, objects)) == {"F1"}
                tu = page["Resources"]["Font"]["F1"]
                assert _stream_bytes(objects, objects[tu.num][0]["ToUnicode"].num) == zlib.decompress(raw)
            # the image, already decoded for the reader above, still
            # recognizes exactly as the full decode does
            got = [(r.x, r.y, r.size, r.text) for r in _ocr_image_runs(page, objects, 792.0, 612.0)]
            assert got == _oracle_lines(pdf)[0] and got
            assert extract_page(pdf, "")["failed_stage"] is None

    def test_page_count_outline_and_info_inflate_no_image(self, zlib_calls):
        pdf = make_scanned_article("CHAPTER 1", ["NOTHING HERE IS INFLATED."])
        assert pdf_page_count(pdf) == 1
        assert pdf_outline(pdf) == [] and pdf_info(pdf) == {}
        assert zlib_calls == {"decompress": 0, "decompressobj": 0}


class TestGlyphCachePickle:
    def test_task_closure_does_not_carry_the_glyph_caches(self):
        from ray import cloudpickle

        # start from the caches of a fresh process
        _SIZE_CACHE.clear()
        _ATLAS._resized.clear()
        before = len(cloudpickle.dumps(ExtractPages()))
        extract_page(make_scanned_article("CHAPTER 1", ["FILLS THE CACHE."]), "")
        assert _SIZE_CACHE and _ATLAS._resized
        assert len(cloudpickle.dumps(ExtractPages())) == before
        assert cloudpickle.loads(cloudpickle.dumps(_SIZE_CACHE)) == {}
        assert cloudpickle.loads(cloudpickle.dumps(_ATLAS))._resized == {}
