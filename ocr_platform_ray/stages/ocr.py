"""Deterministic page recognition — the inverse of ``stages/raster.py``.

The reference OCRs every rasterized page through Azure prebuilt-read
(apps/queue/src/lib/ocr.ts:77-122), so a purely scanned (image-only) PDF
still yields text.  This module is that capability under the repo's
byte-identical determinism rule (SURVEY §0): template matching against
the SAME 5x7 glyph atlas the rasterizer paints with (stages/font.py), so
a page rendered by ``rasterize_boxes`` recognizes back to its exact
source text.

Contract (what the fixture generator guarantees, and what real scanned
input must look like for exact recovery):

* glyph cells sit on a uniform grid per line: cell height = the
  rasterized font size, cell width = half of it (the parser's 0.5 em
  advance model) — integer pixel sizes;
* every line contains at least one full-cell-height glyph (uppercase
  letters and digits all span the full 7 rows), so the ink band height
  IS the cell height;
* line bands do not touch vertically (the article layout's 14 pt pitch
  at 12 pt size leaves a 4 px gap at 2x);
* characters come from the atlas's font table (the small-caps font
  renders lowercase identically to uppercase, so recognition emits
  uppercase — scanned fixtures carry uppercase text to keep the
  byte-identity invariant exact).

Lines violating the contract still recognize deterministically (best
match by fewest mismatched pixels, ties to the lowest offset / lowest
codepoint) — they just aren't guaranteed exact.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .font import _FONT_ART, _GlyphAtlas, _PerProcessCache

# candidate characters, deterministic order (codepoint ascending);
# lowercase is excluded — it renders identically to uppercase
_CANDIDATES = "".join(sorted(_FONT_ART.keys(), key=ord))


# per-process caches (recognition is a pure function of the pixels; the
# atlas and per-size tables are content-independent)
_ATLAS = _GlyphAtlas()
_SIZE_CACHE: dict[tuple[int, int], tuple[dict, np.ndarray]] = _PerProcessCache()


def _glyph_tables(ch_w: int, ch_h: int) -> tuple[dict, np.ndarray]:
    """Per cell size: (exact-match dict {packed_bitmap: char}, (G, ch_h,
    ch_w) bool stack).  A packed bitmap is the cell's row-major pixels
    through ``np.packbits`` (zero-padded to whole bytes, so equal keys
    mean equal bitmaps).  On exact-render input every cell hits the dict
    (first candidate in codepoint order wins a collision — several
    glyphs can resize to one bitmap at tiny sizes); the stack only backs
    the off-contract fallback scorer."""
    key = (ch_w, ch_h)
    hit = _SIZE_CACHE.get(key)
    if hit is not None:
        return hit
    stack = np.stack([_ATLAS.glyph(ord(c), ch_w, ch_h) for c in _CANDIDATES])
    exact: dict = {}
    for c, g in zip(_CANDIDATES, np.packbits(stack.reshape(len(stack), -1), axis=1)):
        exact.setdefault(g.tobytes(), c)
    _SIZE_CACHE[key] = (exact, stack)
    return exact, stack


def _bands(rows: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of consecutive ink-bearing rows (``rows`` = per-row
    ink flags) -> [(r0, r1)...]."""
    if not rows.any():
        return []
    d = np.diff(rows.astype(np.int8))
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1) + 1
    if rows[0]:
        starts = np.concatenate([[0], starts])
    if rows[-1]:
        ends = np.concatenate([ends, [len(rows)]])
    return list(zip(starts.tolist(), ends.tolist()))


def _band_slice(band: np.ndarray, o: int, width: int) -> np.ndarray:
    """Columns [o, o + width) of the band, zero-padded past its right edge."""
    seg = np.zeros((band.shape[0], width), dtype=bool)
    avail = min(width, band.shape[1] - o)
    seg[:, :avail] = band[:, o : o + avail]
    return seg


def _band_cells(band: np.ndarray, o: int, xr: int, ch_w: int) -> np.ndarray:
    """Slice the band into (n_cells, ch_h, ch_w) starting at offset o."""
    n_cells = -(-(xr + 1 - o) // ch_w)
    seg = _band_slice(band, o, n_cells * ch_w)
    return seg.reshape(band.shape[0], n_cells, ch_w).transpose(1, 0, 2)


def _recognize_band(band: np.ndarray) -> tuple[int, str] | None:
    """One line band (ch_h rows of bool ink) -> (x_offset_px, text).

    Sweeps the ch_w possible grid offsets ending at the first ink
    column.  Fast path: on rasterizer output every cell of the TRUE
    grid is an exact glyph render, so a packed-bitmap dict lookup
    identifies it — the first cell alone rejects most wrong offsets, and
    a surviving offset packs the whole line in one call and looks up
    fixed-width byte slices — no per-pixel scoring at all.  If no offset
    matches exactly (off-contract input), falls back to XOR-popcount best-match; ties
    break to the smallest offset, then the lowest codepoint per cell."""
    ch_h = band.shape[0]
    ch_w = int(round(ch_h / 2))
    if ch_w < 1:
        return None
    cols = np.flatnonzero(band.any(axis=0))
    xl, xr = int(cols[0]), int(cols[-1])
    exact, stack = _glyph_tables(ch_w, ch_h)
    lo = max(0, xl - ch_w + 1)
    n_off = xl + 1 - lo
    nb = -(-ch_h * ch_w // 8)  # packed bytes per cell
    # the first cell of every candidate offset, packed in one call: a
    # wrong offset almost always fails there, before its line is sliced
    firsts = sliding_window_view(_band_slice(band, lo, n_off - 1 + ch_w), ch_w, axis=1)
    heads = np.packbits(firsts.transpose(1, 0, 2).reshape(n_off, -1), axis=1).tobytes()
    for o in range(lo, xl + 1):
        k = (o - lo) * nb
        if heads[k : k + nb] not in exact:
            continue
        cells = _band_cells(band, o, xr, ch_w)
        packed = np.packbits(cells.reshape(len(cells), -1), axis=1).tobytes()
        chars = [exact.get(packed[j : j + nb]) for j in range(0, len(packed), nb)]
        if None not in chars:
            text = "".join(chars).rstrip(" ")
            return (o, text) if text else None
    # off-contract fallback: best match by fewest mismatched pixels
    best = None  # (total_mismatch, offset, text)
    for o in range(lo, xl + 1):
        cells = _band_cells(band, o, xr, ch_w)
        mism = (cells[:, None, :, :] ^ stack[None, :, :, :]).sum(axis=(2, 3))
        pick = mism.argmin(axis=1)
        total = int(mism[np.arange(len(cells)), pick].sum())
        if best is None or total < best[0]:
            text = "".join(_CANDIDATES[g] for g in pick).rstrip(" ")
            best = (total, o, text)
    if best is None or not best[2]:
        return None
    return best[1], best[2]


def _ink_bands(slabs: Iterable[np.ndarray]):
    """Yield ``(first_row, rows < 128)`` for each line band of a page that
    arrives as consecutive slabs of whole rows.  A band is a maximal run
    of rows holding a pixel < 128, whichever slabs it spans; only the
    rows of the band still open at a slab's lower edge are kept."""
    rows: list[np.ndarray] = []  # thresholded rows of the open band
    r0 = top = 0  # first row of the open band / of the current slab
    for px in slabs:
        if not len(px):
            continue
        inked = px.min(axis=1) < 128
        if rows and not inked[0]:
            yield r0, np.concatenate(rows)
            rows = []
        for a, b in _bands(inked):
            if not rows:
                r0 = top + a
            rows.append(px[a:b] < 128)
            if b < len(px):
                yield r0, np.concatenate(rows)
                rows = []
        top += len(px)
    if rows:
        yield r0, np.concatenate(rows)


def recognize_rows(
    slabs: Iterable[np.ndarray], *, scale: float
) -> list[tuple[float, float, float, str]]:
    """Grayscale page pixels (255 = paper), given as consecutive slabs
    of whole rows top to bottom -> recognized lines as
    ``(x_pt, top_y_pt, size_pt, text)`` in page points (top-down y),
    ready to synthesize TextRuns for the standard line-merge / XY-cut /
    segment path.  Each slab is thresholded as it arrives, so the page
    never has to exist in memory at once."""
    out = []
    for r0, band in _ink_bands(slabs):
        got = _recognize_band(band)
        if got is None:
            continue
        o, text = got
        out.append((o / scale, r0 / scale, len(band) / scale, text))
    return out


def recognize_pixels(
    px: np.ndarray, *, scale: float
) -> list[tuple[float, float, float, str]]:
    """``recognize_rows`` over a whole page held as one array."""
    return recognize_rows([px], scale=scale)
