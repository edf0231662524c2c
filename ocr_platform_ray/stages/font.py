"""The deterministic 5x7 fixture font: glyph art, fallback dot
patterns, and the resize-cached atlas.  Shared by the rasterizer
(stages/raster.py, S4) and its inverse, the template-matching recognizer
(stages/ocr.py) — one font table so render and recognize can never
drift."""

from __future__ import annotations

import hashlib

import numpy as np

# 5x7 bitmap font ('#' = ink).  Small-caps: lowercase maps to uppercase.
_FONT_ART = {
    "A": ".###.|#...#|#...#|#####|#...#|#...#|#...#",
    "B": "####.|#...#|#...#|####.|#...#|#...#|####.",
    "C": ".###.|#...#|#....|#....|#....|#...#|.###.",
    "D": "####.|#...#|#...#|#...#|#...#|#...#|####.",
    "E": "#####|#....|#....|####.|#....|#....|#####",
    "F": "#####|#....|#....|####.|#....|#....|#....",
    "G": ".###.|#...#|#....|#.###|#...#|#...#|.###.",
    "H": "#...#|#...#|#...#|#####|#...#|#...#|#...#",
    "I": ".###.|..#..|..#..|..#..|..#..|..#..|.###.",
    "J": "..###|...#.|...#.|...#.|...#.|#..#.|.##..",
    "K": "#...#|#..#.|#.#..|##...|#.#..|#..#.|#...#",
    "L": "#....|#....|#....|#....|#....|#....|#####",
    "M": "#...#|##.##|#.#.#|#.#.#|#...#|#...#|#...#",
    "N": "#...#|##..#|#.#.#|#..##|#...#|#...#|#...#",
    "O": ".###.|#...#|#...#|#...#|#...#|#...#|.###.",
    "P": "####.|#...#|#...#|####.|#....|#....|#....",
    "Q": ".###.|#...#|#...#|#...#|#.#.#|#..#.|.##.#",
    "R": "####.|#...#|#...#|####.|#.#..|#..#.|#...#",
    "S": ".####|#....|#....|.###.|....#|....#|####.",
    "T": "#####|..#..|..#..|..#..|..#..|..#..|..#..",
    "U": "#...#|#...#|#...#|#...#|#...#|#...#|.###.",
    "V": "#...#|#...#|#...#|#...#|#...#|.#.#.|..#..",
    "W": "#...#|#...#|#...#|#.#.#|#.#.#|##.##|#...#",
    "X": "#...#|#...#|.#.#.|..#..|.#.#.|#...#|#...#",
    "Y": "#...#|#...#|.#.#.|..#..|..#..|..#..|..#..",
    "Z": "#####|....#|...#.|..#..|.#...|#....|#####",
    "0": ".###.|#...#|#..##|#.#.#|##..#|#...#|.###.",
    "1": "..#..|.##..|..#..|..#..|..#..|..#..|.###.",
    "2": ".###.|#...#|....#|...#.|..#..|.#...|#####",
    "3": ".###.|#...#|....#|..##.|....#|#...#|.###.",
    "4": "...#.|..##.|.#.#.|#..#.|#####|...#.|...#.",
    "5": "#####|#....|####.|....#|....#|#...#|.###.",
    "6": ".###.|#....|#....|####.|#...#|#...#|.###.",
    "7": "#####|....#|...#.|..#..|..#..|.#...|.#...",
    "8": ".###.|#...#|#...#|.###.|#...#|#...#|.###.",
    "9": ".###.|#...#|#...#|.####|....#|....#|.###.",
    ".": ".....|.....|.....|.....|.....|.##..|.##..",
    ",": ".....|.....|.....|.....|.##..|..#..|.#...",
    ":": ".....|.##..|.##..|.....|.##..|.##..|.....",
    ";": ".....|.##..|.##..|.....|.##..|..#..|.#...",
    "!": "..#..|..#..|..#..|..#..|..#..|.....|..#..",
    "?": ".###.|#...#|....#|...#.|..#..|.....|..#..",
    "'": "..#..|..#..|.....|.....|.....|.....|.....",
    '"': ".#.#.|.#.#.|.....|.....|.....|.....|.....",
    "(": "...#.|..#..|.#...|.#...|.#...|..#..|...#.",
    ")": ".#...|..#..|...#.|...#.|...#.|..#..|.#...",
    "-": ".....|.....|.....|#####|.....|.....|.....",
    "+": ".....|..#..|..#..|#####|..#..|..#..|.....",
    "=": ".....|.....|#####|.....|#####|.....|.....",
    "/": "....#|...#.|...#.|..#..|.#...|.#...|#....",
    " ": ".....|.....|.....|.....|.....|.....|.....",
}

_GLYPH_H, _GLYPH_W = 7, 5


def _art_to_bits(art: str) -> np.ndarray:
    rows = art.split("|")
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


def _fallback_glyph(cp: int) -> np.ndarray:
    """Deterministic 5x7 dot pattern for codepoints outside the font table
    (stable everywhere: sha256 of the codepoint).  Bottom row kept blank so
    adjacent lines don't fuse."""
    dig = hashlib.sha256(str(cp).encode()).digest()
    bits = np.unpackbits(np.frombuffer(dig[: (_GLYPH_H * _GLYPH_W + 7) // 8], dtype=np.uint8))
    g = bits[: _GLYPH_H * _GLYPH_W].reshape(_GLYPH_H, _GLYPH_W).astype(bool)
    g[-1, :] = False
    return g


class _PerProcessCache(dict):
    """A dict that pickles as an empty one.  The package travels to Ray
    workers by value, module globals included, so a cache filled in the
    submitting process would otherwise ride along in every task closure."""

    def __reduce__(self):
        return type(self), ()


class _GlyphAtlas:
    """Font table + nearest-neighbor resize cache (per-actor state)."""

    def __init__(self):
        self.base = {ord(ch): _art_to_bits(a) for ch, a in _FONT_ART.items()}
        self._resized: dict[tuple[int, int, int], np.ndarray] = _PerProcessCache()

    def glyph(self, cp: int, w: int, h: int) -> np.ndarray:
        key = (cp, w, h)
        hit = self._resized.get(key)
        if hit is not None:
            return hit
        # small caps: lowercase renders as its uppercase form
        base_cp = cp - 32 if ord("a") <= cp <= ord("z") else cp
        g = self.base.get(base_cp)
        if g is None:
            g = _fallback_glyph(cp)
        yi = (np.arange(h) * _GLYPH_H // max(h, 1)).clip(0, _GLYPH_H - 1)
        xi = (np.arange(w) * _GLYPH_W // max(w, 1)).clip(0, _GLYPH_W - 1)
        out = g[np.ix_(yi, xi)]
        self._resized[key] = out
        return out
