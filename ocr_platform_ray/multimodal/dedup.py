"""Perceptual image deduplication — the multimodal twin of the text
near-dup family: decoded images hash to a 64-bit dHash (difference
hash: area-averaged 9x8 grayscale grid, horizontal gradient signs) and
near-duplicates surface through the banded hamming machinery
(`ops/dedup.fingerprint_near_dup_pairs`, Manku 2007 pigeonhole — a
re-encoded / lightly-noised / slightly-resized copy flips few gradient
signs, so it lands within a small hamming radius of its original,
while the band exchange keeps candidates bucketed, never all-pairs).

dHash over aHash (the feature extractor's mean-threshold ``phash``
column): the mean threshold is global, so uniform brightness shifts
flip many bits at once; gradient SIGNS are brightness-invariant.  Area
averaging (integral via ``np.add.reduceat`` twice) rather than
nearest-sampling makes the grid robust to per-pixel noise — each cell
averages hundreds of pixels.

Scale shape: the hash stage is map-only over the decoded-pixels column
(the multimodal actor-stage convention — images are heavy payloads in
small batches); only (id, 8-byte hash) rides the band exchange.  Raw
pixels never shuffle.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..ops.dedup import fingerprint_near_dup_pairs


def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash of one decoded image (h, w, 3) or (h, w):
    grayscale -> area-average to a 9x8 grid -> bit (r, c) = cell[r, c] >
    cell[r, c+1], packed row-major little-endian."""
    g = img.astype(np.float64)
    if g.ndim == 3:
        g = g.mean(axis=2)
    h, w = g.shape
    if h < 8 or w < 9:
        # duplicate reduceat boundaries would yield zero-width cells
        # (inf/nan comparisons — a silently degenerate hash)
        raise ValueError(f"image {h}x{w} smaller than the 9x8 hash grid")
    # area averaging: reduceat over nearly-equal row/col segments
    rb = (np.arange(8, dtype=np.int64) * h) // 8
    cb = (np.arange(9, dtype=np.int64) * w) // 9
    sums = np.add.reduceat(np.add.reduceat(g, rb, axis=0), cb, axis=1)
    rc = np.diff(np.concatenate([rb, [h]]))[:, None]
    cc = np.diff(np.concatenate([cb, [w]]))[None, :]
    cells = sums / (rc * cc)
    bits = (cells[:, :-1] > cells[:, 1:]).astype(np.uint8).ravel()
    return int(np.packbits(bits, bitorder="little").view(np.uint64)[0])


def _exact_hash64(raw: bytes) -> int:
    """Exact-identity fallback fingerprint for payloads too small for a
    perceptual grid: byte-identical inputs pair (hamming 0), everything
    else is far apart — tiny thumbnails must never all collide into one
    perceptual bucket."""
    return int.from_bytes(hashlib.sha1(raw).digest()[:8], "big")


class AddDHash:
    """Actor-pool stage: decoded ``pixels`` column -> ``dhash`` int64.
    Images below the 9x8 grid fall back to the exact-identity hash."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        pixels = batch.column("pixels").to_pylist()
        ws = batch.column("width").to_pylist()
        hs = batch.column("height").to_pylist()
        out = np.zeros(len(pixels), dtype=np.uint64)
        for i, (p, w, h) in enumerate(zip(pixels, ws, hs)):
            if h >= 8 and w >= 9:
                img = np.frombuffer(p, dtype=np.uint8).reshape(h, w, 3)
                out[i] = dhash64(img)
            else:
                out[i] = _exact_hash64(p)
        return batch.append_column(
            "dhash", pa.array(out.astype(np.int64), pa.int64())
        )


def add_dhash(ds: rd.Dataset, *, concurrency=(1, 8), batch_size: int = 32) -> rd.Dataset:
    """Append a 64-bit perceptual dHash to a decoded-images Dataset
    (the `decode_images` output schema)."""
    return ds.map_batches(
        AddDHash, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
    )


def image_near_dup_pairs(
    ds: rd.Dataset,
    id_col: str = "media_id",
    *,
    max_hamming: int = 6,
    n_bands: int = 8,
    **kwargs,
) -> pd.DataFrame | rd.Dataset:
    """Near-duplicate image pairs of a decoded-images Dataset:
    ``add_dhash`` then banded hamming pairs (complete recall at
    hamming <= n_bands - 1; see `fingerprint_near_dup_pairs` for the
    exchange shape and skew control).  Returns (id_a, id_b, hamming)."""
    hashed = add_dhash(ds).map_batches(
        lambda b: b.select([id_col, "dhash"]), batch_format="pyarrow"
    )
    return fingerprint_near_dup_pairs(
        hashed, "dhash", id_col,
        max_hamming=max_hamming, n_bands=n_bands, **kwargs,
    )


def afp64(pcm: np.ndarray, frame_len: int = 2048, hop: int = 1024) -> int:
    """64-bit spectral fingerprint of one PCM clip (chromaprint-style
    reduction): frame -> rfft magnitudes -> average into an (8 time x 9
    LOG-SPACED frequency band) grid -> bit (t, f) = grid[t, f] >
    grid[t, f+1], packed row-major little-endian.  Gradient SIGNS are
    gain-invariant (a volume change scales every magnitude), and each
    cell averages many (frame, bin) values, so light noise flips few
    bits.  Bands are log-spaced (DC skipped) because real signals are
    lowpass-ish: linear bands pile all energy into band 0 and leave the
    rest comparing noise floors — measured 0-2 noise-copy bits and
    >= 11 cross-clip bits on broadband fixtures vs collisions with
    linear bands.  Clips shorter than one frame hash to 0."""
    if frame_len < 2 or hop < 1:
        raise ValueError(f"need frame_len >= 2 and hop >= 1, got {frame_len}/{hop}")
    x = np.asarray(pcm, dtype=np.float64)
    n_frames = 1 + (len(x) - frame_len) // hop if len(x) >= frame_len else 0
    if n_frames <= 0:
        return 0
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    spec = np.abs(np.fft.rfft(x[idx], axis=1))  # (n_frames, bins)
    bins = spec.shape[1]
    tb = (np.arange(8, dtype=np.int64) * n_frames) // 8
    fb = np.unique(np.round(np.geomspace(1, bins - 1, 10)).astype(np.int64))[:9]
    sums = np.add.reduceat(np.add.reduceat(spec, tb, axis=0), fb, axis=1)
    tc = np.diff(np.concatenate([tb, [n_frames]]))[:, None]
    fc = np.diff(np.concatenate([fb, [bins]]))[None, :]
    cells = sums / (tc * fc)
    if cells.shape[1] < 9:
        # degenerate frame_len: fewer than 9 distinct band edges — pad
        # by repeating the last band (stable, still deterministic)
        cells = np.pad(cells, ((0, 0), (0, 9 - cells.shape[1])), mode="edge")
    bits = (cells[:, :-1] > cells[:, 1:]).astype(np.uint8).ravel()
    return int(np.packbits(bits, bitorder="little").view(np.uint64)[0])


class AddAudioFingerprint:
    """Actor-pool stage: decoded ``pcm`` column -> ``afp`` int64."""

    def __init__(self, frame_len: int = 2048, hop: int = 1024):
        self.frame_len, self.hop = frame_len, hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        pcms = batch.column("pcm").to_pylist()
        out = np.zeros(len(pcms), dtype=np.uint64)
        for i, raw in enumerate(pcms):
            x = np.frombuffer(raw, dtype=np.float32)
            if len(x) >= self.frame_len:
                out[i] = afp64(x, self.frame_len, self.hop)
            else:
                # sub-frame clip: exact-identity fallback — hash-0 for
                # every short clip would pair them all as "dups"
                out[i] = _exact_hash64(raw)
        return batch.append_column(
            "afp", pa.array(out.astype(np.int64), pa.int64())
        )


def add_audio_fingerprint(
    ds: rd.Dataset, *, frame_len: int = 2048, hop: int = 1024,
    concurrency=(1, 8), batch_size: int = 16,
) -> rd.Dataset:
    """Append a 64-bit spectral fingerprint to a decoded-audio Dataset
    (the `decode_audio` output schema)."""
    return ds.map_batches(
        AddAudioFingerprint,
        fn_constructor_args=(frame_len, hop),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def audio_near_dup_pairs(
    ds: rd.Dataset,
    id_col: str = "media_id",
    *,
    max_hamming: int = 6,
    n_bands: int = 8,
    **kwargs,
) -> pd.DataFrame | rd.Dataset:
    """Near-duplicate audio pairs of a decoded-audio Dataset:
    `add_audio_fingerprint` then the same banded hamming machinery as
    the image route.  Returns (id_a, id_b, hamming)."""
    hashed = add_audio_fingerprint(ds).map_batches(
        lambda b: b.select([id_col, "afp"]), batch_format="pyarrow"
    )
    return fingerprint_near_dup_pairs(
        hashed, "afp", id_col,
        max_hamming=max_hamming, n_bands=n_bands, **kwargs,
    )


def video_near_dup_pairs(
    ds: rd.Dataset,
    id_col: str = "media_id",
    *,
    every_n: int = 10,
    max_hamming: int = 6,
    n_bands: int = 8,
    min_match_frac: float = 0.8,
) -> pd.DataFrame:
    """Near-duplicate video pairs: sample every Nth frame
    (`decode.sample_frames`), dHash each sampled frame, find per-SLOT
    frame matches (``within_col="frame_idx"`` — only frames at the same
    timestamp slot are candidates, the aligned-copy model), and keep
    video pairs whose matched-slot fraction >= ``min_match_frac`` of the
    longer video's sampled frames.  Returns (id_a, id_b, n_matched,
    match_frac).

    Scale shape: frames hash map-side (pixels never shuffle); the slot
    exchange carries (video_id, slot, 8-byte hash); the per-pair match
    counts and per-video frame counts reduce through the size-aware
    finish.  The result is video-pair-sized (report output)."""
    from ..ops.relational import auto_group_agg
    from .decode import sample_frames

    frames = sample_frames(ds, every_n)
    hashed = add_dhash(frames).map_batches(
        lambda b: b.select([id_col, "frame_idx", "dhash"]),
        batch_format="pyarrow",
    ).materialize()  # consumed by the pair pass AND the per-video counts

    pairs = fingerprint_near_dup_pairs(
        hashed, "dhash", id_col,
        max_hamming=max_hamming, n_bands=n_bands,
        within_col="frame_idx", as_dataset=True,
    )
    matched = auto_group_agg(
        pairs.map_batches(
            lambda b: b.groupby(["id_a", "id_b"], as_index=False).agg(
                n_matched=("hamming", "size")
            ),
            batch_format="pandas",
        ),
        ["id_a", "id_b"],
        {"n_matched": ("n_matched", "sum")},
    )
    if not isinstance(matched, pd.DataFrame):
        matched = matched.to_pandas()
    counts = auto_group_agg(
        hashed.map_batches(
            lambda b: b.groupby(id_col, as_index=False).agg(
                n_frames=("frame_idx", "size")
            ),
            batch_format="pandas",
        ),
        [id_col],
        {"n_frames": ("n_frames", "sum")},
    )
    if not isinstance(counts, pd.DataFrame):
        counts = counts.to_pandas()
    if matched.empty or matched.shape[1] == 0:
        return pd.DataFrame(
            {
                "id_a": pd.Series(dtype="object"),
                "id_b": pd.Series(dtype="object"),
                "n_matched": pd.Series(dtype="int64"),
                "match_frac": pd.Series(dtype="float64"),
            }
        )
    cmap = counts.set_index(id_col)["n_frames"]
    denom = np.maximum(
        matched["id_a"].map(cmap).to_numpy(), matched["id_b"].map(cmap).to_numpy()
    )
    matched["match_frac"] = matched["n_matched"].to_numpy() / denom
    matched["n_matched"] = matched["n_matched"].astype("int64")
    out = matched[matched["match_frac"] >= min_match_frac]
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
