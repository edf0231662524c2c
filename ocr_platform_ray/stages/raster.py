"""PDF page rasterization (S4's first half): render a parsed page to
grayscale pixels at a scale factor, default 2x — the capability at
reference apps/queue/src/lib/ocr.ts:56-71 (pdf-to-img 2x page render
feeding the OCR model), rebuilt on the repo's own PDF parser + vendored
PNG encoder (no image libs in this container).

What is REAL here: page geometry (MediaBox-sized canvas, scale factor),
text placement (each text box from ``pdf_page_boxes`` paints at its exact
x/y with its font size; lines, columns, headings and footnotes land where
the PDF put them), per-glyph rendering from a built-in 5x7 bitmap font
(A-Z, 0-9 and common punctuation; lowercase renders as small caps — the
classic terminal-font compromise), and the PNG bytes (vendored encoder,
round-trips through ``multimodal.codecs.decode_png``).  Codepoints outside
the font table render as a DETERMINISTIC per-codepoint dot pattern
(documented limit: no typographic outlines in this sandbox) so non-Latin
text still produces stable, position-correct ink.

Scale shape: one actor-pool ``map_batches`` stage (font atlas + resize
cache built once per actor, T3 warm-state), pages explode 1 row -> n_pages
rows, PNG payloads are bytes columns; batch_size stays small because a
2x letter page is ~1.9 MB of pixels before encoding."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..multimodal.codecs import encode_png
from .font import _GlyphAtlas
from .pdf import pdf_page_boxes


def rasterize_boxes(
    boxes: list[tuple],
    *,
    page_w: float = 612.0,
    page_h: float = 792.0,
    scale: float = 2.0,
    atlas: _GlyphAtlas | None = None,
) -> np.ndarray:
    """One page of ``pdf_page_boxes`` output -> (h, w) uint8 grayscale
    (255 = paper, 0 = ink).  Character cells follow the parser's own
    advance model (0.5 em per char), so rendered ink lands exactly where
    the box geometry says."""
    atlas = atlas or _GlyphAtlas()
    H, W = int(round(page_h * scale)), int(round(page_w * scale))
    page = np.full((H, W), 255, dtype=np.uint8)
    for x0, ty, _x1, _by, _role, text in boxes:
        size = max(_by - ty, 1.0)
        ch_w = max(1, int(round(0.5 * size * scale)))
        ch_h = max(1, int(round(size * scale)))
        y0 = int(round(ty * scale))
        if y0 < 0 or y0 >= H:  # off-canvas box (malformed matrix input)
            continue
        for i, ch in enumerate(text):
            cp = ord(ch)
            if cp == 0x20:
                continue
            x = int(round(x0 * scale)) + i * ch_w
            if x >= W:
                break
            if x < 0:  # clipped left of the canvas; later chars may enter
                continue
            g = atlas.glyph(cp, ch_w, ch_h)
            gh, gw = min(ch_h, H - y0), min(ch_w, W - x)
            region = page[y0 : y0 + gh, x : x + gw]
            region[g[:gh, :gw]] = 0
    return page


class RasterizePdfPages:
    """Actor-pool stage: (url, html=pdf bytes) rows -> one row per page
    with PNG payload + geometry.  Atlas + resize cache live in __init__
    (once per actor); failures emit a failed row instead of poisoning the
    batch (M5 semantics)."""

    def __init__(self, *, scale: float = 2.0, blob_col: str = "html"):
        self.scale = scale
        self.blob_col = blob_col
        self.atlas = _GlyphAtlas()

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        urls, idxs, pngs, widths, heights, inks, fails = [], [], [], [], [], [], []
        for url, blob in zip(batch["url"], batch[self.blob_col]):
            try:
                pages = pdf_page_boxes(bytes(blob))
            except Exception:
                urls.append(url)
                idxs.append(0)
                pngs.append(b"")
                widths.append(0)
                heights.append(0)
                inks.append(0.0)
                fails.append(True)
                continue
            for pi, boxes in enumerate(pages):
                px = rasterize_boxes(boxes, scale=self.scale, atlas=self.atlas)
                urls.append(url)
                idxs.append(pi)
                pngs.append(encode_png(px))
                heights.append(px.shape[0])
                widths.append(px.shape[1])
                inks.append(round(float((px < 128).mean()), 6))
                fails.append(False)
        return pd.DataFrame(
            {
                "url": urls,
                "page_idx": np.asarray(idxs, dtype=np.int64),
                "png": pngs,
                "width": np.asarray(widths, dtype=np.int64),
                "height": np.asarray(heights, dtype=np.int64),
                "ink_ratio": np.asarray(inks, dtype=np.float64),
                "raster_failed": np.asarray(fails, dtype=bool),
            }
        )


def rasterize_pdf_pages(
    ds: rd.Dataset,
    *,
    scale: float = 2.0,
    blob_col: str = "html",
    concurrency=(1, 8),
    batch_size: int = 4,
) -> rd.Dataset:
    """Distributed page rasterization: small batches (a 2x letter page is
    ~1.9 MB of pixels pre-encode), actor pool holding the glyph atlas."""
    return ds.map_batches(
        RasterizePdfPages,
        fn_constructor_kwargs={"scale": scale, "blob_col": blob_col},
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=concurrency,
    )
