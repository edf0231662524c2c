"""TFRecord source + sink — the training-data container format of the
TensorFlow/JAX input-pipeline world (next to parquet/JSONL/WARC/IPC/ORC).
Everything here is from the two public specs:

* the TFRecord framing (TensorFlow docs, `tensorflow/core/lib/io/
  record_writer.h`): each record is
  ``uint64 length (LE) | uint32 masked_crc32c(length) (LE) |
  data[length] | uint32 masked_crc32c(data) (LE)``, with
  ``mask(c) = ((c >> 15) | (c << 17)) + 0xa282ead8 (mod 2^32)`` and
  CRC-32C = the Castagnoli CRC (reflected poly 0x82F63B78,
  init/xorout 0xFFFFFFFF — check value crc32c(b"123456789") =
  0xE3069283, KAT-pinned in tests);
* the `tf.train.Example` protobuf schema (``example.proto`` /
  ``feature.proto``) over the protobuf wire format: Example{1:
  Features}, Features{1: map<string, Feature>}, Feature one of
  BytesList=1 / FloatList=2 / Int64List=3, float lists packed
  little-endian float32, int64 lists packed two's-complement varints.

Scale shape: the CRC is the only byte-proportional compute and it is
vectorized ACROSS records — records right-align into a lane matrix
(leading zeros are the identity on a zero register, and the init term
``L^n(init)`` is restored per record from a shared zero-walk table), so
one numpy table-lookup step processes a whole column of lanes; lanes
chunk in length-sorted order so one huge record can't inflate the pad
area.  Example encode/decode is per-record Python by nature (TFRecord
is a row-framed format, the WARC-sink precedent) but touches each byte
O(1) times.

Sink mirrors the JSONL/WET house contract: one file per input block,
content-keyed deterministic names (idempotent byte-identical reruns),
tmp + ``os.replace`` atomic publish, identical-block collision error,
stale-shard cleanup after publish.  Read is per-file streaming tasks
with bounded yielded batches.

`float_list` is float32 by definition — writing float64 columns is
lossy (documented; the roundtrip test pins the float32 cast).
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct

import numpy as np
import pandas as pd
import ray.data as rd

from ._infer import infer_column_plan


# --------------------------------------------------------------------------
# CRC-32C (Castagnoli) — reflected table, lane-vectorized batch form
# --------------------------------------------------------------------------
def _make_table() -> np.ndarray:
    tab = np.empty(256, dtype=np.uint32)
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
        tab[i] = c
    return tab


_TABLE = _make_table()
_INIT = 0xFFFFFFFF


def crc32c(data: bytes) -> int:
    """Scalar CRC-32C (the reference form; the batch path below is the
    hot one)."""
    c = _INIT
    tab = _TABLE
    for b in data:
        c = (c >> 8) ^ int(tab[(c ^ b) & 0xFF])
    return c ^ 0xFFFFFFFF


# The CRC step with byte b is affine: reg' = L(reg) ^ T[b] with
# L(reg) = (reg >> 8) ^ T[reg & 0xFF] GF(2)-linear.  So "advance a
# register by n zero bytes" is the linear operator L^n, representable
# for any n as four 256-entry byte-slice tables; operators for n = 2^k
# build by doubling (apply M_{2^(k-1)} to its own 32 basis images) —
# per-process lazy caches, never shipped.
_ADV_TABLES: dict[int, tuple] = {}
_ADV_BASIS: dict[int, np.ndarray] = {}


def _apply_tables(ts, reg: np.ndarray) -> np.ndarray:
    return (
        ts[0][reg & np.uint32(0xFF)]
        ^ ts[1][(reg >> np.uint32(8)) & np.uint32(0xFF)]
        ^ ts[2][(reg >> np.uint32(16)) & np.uint32(0xFF)]
        ^ ts[3][reg >> np.uint32(24)]
    )


def _tables_from_basis(basis: np.ndarray) -> tuple:
    ts = []
    for k in range(4):
        t = np.zeros(256, dtype=np.uint32)
        for v in range(1, 256):
            low = v & -v
            t[v] = t[v ^ low] ^ basis[8 * k + low.bit_length() - 1]
        ts.append(t)
    return tuple(ts)


def _advance_tables(log2n: int) -> tuple:
    """Byte-slice tables for L^(2^log2n) (advance by 2^log2n zero bytes)."""
    if log2n in _ADV_TABLES:
        return _ADV_TABLES[log2n]
    if log2n == 0:
        tab = _TABLE
        basis = np.empty(32, dtype=np.uint32)
        for bit in range(32):
            reg = np.uint32(1 << bit)
            basis[bit] = (reg >> np.uint32(8)) ^ tab[reg & np.uint32(0xFF)]
    else:
        prev = _advance_tables(log2n - 1)
        basis = _apply_tables(prev, _ADV_BASIS[log2n - 1])  # M∘M
    _ADV_BASIS[log2n] = basis
    ts = _tables_from_basis(basis)
    _ADV_TABLES[log2n] = ts
    return ts


def _advance_by(reg: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """reg[i] advanced by lens[i] zero bytes — O(log max_len) masked
    table applications, vectorized across lanes."""
    out = np.asarray(reg, dtype=np.uint32).copy()
    m = int(lens.max()) if len(lens) else 0
    k = 0
    while (1 << k) <= m:
        sel = ((lens >> k) & 1).astype(bool)
        if sel.any():
            out[sel] = _apply_tables(_advance_tables(k), out[sel])
        k += 1
    return out


def crc32c_batch(payloads: list[bytes]) -> np.ndarray:
    """CRC-32C of every payload, vectorized across payloads at any
    record-count/record-length mix.

    Two-level lanes: each record splits into S-byte pieces (the FIRST
    piece short and left-zero-padded — leading zeros are the identity
    on a zero register), every piece is a lane of one (pieces, S)
    matrix, so the byte loop is S steps over total_bytes/S-wide vectors
    REGARDLESS of how few records there are.  Piece registers then fold
    per record with the advance-by-S operator (right-aligned in the
    piece dimension — zero pieces are again free), and the init term
    ``L^len(init)`` is restored per record by binary advance.  Returns
    uint32."""
    n = len(payloads)
    if n == 0:
        return np.zeros(0, dtype=np.uint32)
    lens = np.fromiter((len(p) for p in payloads), dtype=np.int64, count=n)
    max_len = int(lens.max())
    init = np.full(n, _INIT, dtype=np.uint32)
    if max_len == 0:
        return _advance_by(init, lens) ^ np.uint32(0xFFFFFFFF)
    log2s = min(8, max(3, int(max_len - 1).bit_length()))
    seg = 1 << log2s
    n_pieces = (lens + seg - 1) // seg
    max_pieces = int(n_pieces.max())
    total_pieces = int(n_pieces.sum())
    starts = np.concatenate([[0], np.cumsum(n_pieces)[:-1]]).astype(np.int64)
    mat = np.zeros((total_pieces, seg), dtype=np.uint8)
    for i in range(n):
        p = payloads[i]
        if not p:
            continue
        arr = np.frombuffer(p, dtype=np.uint8)
        head = int(lens[i] % seg) or seg
        r0 = int(starts[i])
        mat[r0, seg - head :] = arr[:head]
        rest = arr[head:]
        if rest.size:
            mat[r0 + 1 : r0 + int(n_pieces[i])] = rest.reshape(-1, seg)
    tab = _TABLE
    reg = np.zeros(total_pieces, dtype=np.uint32)
    for j in range(seg):
        reg = (reg >> np.uint32(8)) ^ tab[(reg ^ mat[:, j]) & np.uint32(0xFF)]
    # right-aligned per-record piece registers, folded with advance-by-S
    pr = np.zeros((n, max_pieces), dtype=np.uint32)
    rows = np.repeat(np.arange(n), n_pieces)
    offs = np.arange(total_pieces) - np.repeat(starts, n_pieces)
    cols = max_pieces - np.repeat(n_pieces, n_pieces) + offs
    pr[rows, cols] = reg
    adv = _advance_tables(log2s)
    acc = np.zeros(n, dtype=np.uint32)
    for t in range(max_pieces):
        acc = _apply_tables(adv, acc) ^ pr[:, t]
    return _advance_by(init, lens) ^ acc ^ np.uint32(0xFFFFFFFF)


def _mask_crc(crc: np.ndarray | int):
    """TFRecord's CRC masking (record_writer.h): rotate-right 15 + magic."""
    c = np.asarray(crc, dtype=np.uint32)
    return ((c >> np.uint32(15)) | (c << np.uint32(17))) + np.uint32(0xA282EAD8)


# --------------------------------------------------------------------------
# protobuf wire helpers (tf.train.Example subset)
# --------------------------------------------------------------------------
def _varint(v: int) -> bytes:
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    val = 0
    while True:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, pos
        shift += 7
        if shift > 70:
            raise ValueError("tfrecord: varint overflow (corrupt Example)")


def _bytes_list(vals) -> bytes:
    out = bytearray()
    for v in vals:
        out += b"\x0a" + _varint(len(v)) + v
    return bytes(out)


def _float_list(vals) -> bytes:
    raw = np.asarray(vals, dtype="<f4").tobytes()
    return b"\x0a" + _varint(len(raw)) + raw


def _int64_list(vals) -> bytes:
    body = bytearray()
    for v in vals:
        body += _varint(int(v) & 0xFFFFFFFFFFFFFFFF)
    return b"\x0a" + _varint(len(body)) + bytes(body)


_KIND_TAG = {"bytes": b"\x0a", "float": b"\x12", "int64": b"\x1a"}


def _feature(kind: str, list_body: bytes) -> bytes:
    return _KIND_TAG[kind] + _varint(len(list_body)) + list_body


def _example(features: list[tuple[bytes, bytes]]) -> bytes:
    """``features`` = [(utf8 key, Feature message bytes)] — assembled in
    the given (sorted-column) order so encoding is deterministic."""
    body = bytearray()
    for key, feat in features:
        entry = b"\x0a" + _varint(len(key)) + key + b"\x12" + _varint(len(feat)) + feat
        body += b"\x0a" + _varint(len(entry)) + entry
    return b"\x0a" + _varint(len(body)) + bytes(body)


def _skip_field(buf: bytes, pos: int, wire: int) -> int:
    if wire == 0:
        _, pos = _read_varint(buf, pos)
        return pos
    if wire == 1:
        return pos + 8
    if wire == 2:
        ln, pos = _read_varint(buf, pos)
        return pos + ln
    if wire == 5:
        return pos + 4
    raise ValueError(f"tfrecord: unsupported wire type {wire}")


def _parse_list(kind: str, buf: bytes) -> list:
    pos, end = 0, len(buf)
    vals: list = []
    while pos < end:
        tag, pos = _read_varint(buf, pos)
        field, wire = tag >> 3, tag & 7
        if field != 1:
            pos = _skip_field(buf, pos, wire)
            continue
        if kind == "bytes":
            ln, pos = _read_varint(buf, pos)
            vals.append(buf[pos : pos + ln])
            pos += ln
        elif kind == "float":
            if wire == 2:  # packed (the writer default)
                ln, pos = _read_varint(buf, pos)
                vals.extend(
                    np.frombuffer(buf, dtype="<f4", count=ln // 4, offset=pos).tolist()
                )
                pos += ln
            else:  # unpacked fixed32
                vals.append(struct.unpack_from("<f", buf, pos)[0])
                pos += 4
        else:  # int64
            if wire == 2:  # packed
                ln, pos = _read_varint(buf, pos)
                stop = pos + ln
                while pos < stop:
                    v, pos = _read_varint(buf, pos)
                    vals.append(v - (1 << 64) if v >= 1 << 63 else v)
            else:
                v, pos = _read_varint(buf, pos)
                vals.append(v - (1 << 64) if v >= 1 << 63 else v)
    return vals


_KIND_BY_FIELD = {1: "bytes", 2: "float", 3: "int64"}


def parse_example(buf: bytes) -> dict[str, tuple[str, list]]:
    """tf.train.Example bytes -> {key: (kind, values)} with kind in
    bytes/float/int64.  Unknown fields skip wire-correctly."""
    out: dict[str, tuple[str, list]] = {}
    pos, end = 0, len(buf)
    while pos < end:
        tag, pos = _read_varint(buf, pos)
        if tag >> 3 != 1 or tag & 7 != 2:  # not Example.features
            pos = _skip_field(buf, pos, tag & 7)
            continue
        flen, pos = _read_varint(buf, pos)
        fend = pos + flen
        while pos < fend:  # Features: repeated map entries (field 1)
            etag, pos = _read_varint(buf, pos)
            if etag >> 3 != 1 or etag & 7 != 2:
                pos = _skip_field(buf, pos, etag & 7)
                continue
            elen, pos = _read_varint(buf, pos)
            eend = pos + elen
            key: str | None = None
            while pos < eend:  # entry: 1=key, 2=Feature
                ktag, pos = _read_varint(buf, pos)
                field, wire = ktag >> 3, ktag & 7
                if field == 1 and wire == 2:
                    ln, pos = _read_varint(buf, pos)
                    key = buf[pos : pos + ln].decode("utf-8")
                    pos += ln
                elif field == 2 and wire == 2:
                    ln, pos = _read_varint(buf, pos)
                    fbuf = buf[pos : pos + ln]
                    pos += ln
                    fpos = 0
                    while fpos < ln:  # Feature: oneof kind
                        ftag, fpos = _read_varint(fbuf, fpos)
                        ffield, fwire = ftag >> 3, ftag & 7
                        kind = _KIND_BY_FIELD.get(ffield)
                        if kind is None or fwire != 2:
                            fpos = _skip_field(fbuf, fpos, fwire)
                            continue
                        lln, fpos = _read_varint(fbuf, fpos)
                        if key is None:
                            raise ValueError("tfrecord: Feature before map key")
                        out[key] = (kind, _parse_list(kind, fbuf[fpos : fpos + lln]))
                        fpos += lln
                else:
                    pos = _skip_field(buf, pos, wire)
    return out


# --------------------------------------------------------------------------
# column <-> feature mapping
# --------------------------------------------------------------------------
def _column_plan(b: pd.DataFrame) -> list[tuple[str, str, bool]]:
    """[(column, tf kind, is_list)] — the shared sink inference
    (`sources/_infer.py`) mapped onto tf.Example kinds: int -> int64,
    float -> float, str/bytes -> bytes (BytesList carries both; encode
    UTF-8s strings per value)."""
    kind_map = {"int": "int64", "float": "float", "str": "bytes", "bytes": "bytes"}
    try:
        return [
            (col, kind_map[kind], is_list)
            for col, kind, is_list in infer_column_plan(b)
        ]
    except ValueError as e:
        raise ValueError(f"write_tfrecord: {e}") from None


def _encode_rows(b: pd.DataFrame) -> list[bytes]:
    """One tf.train.Example per row.  Null values OMIT the feature (the
    tf.Example convention); readers fill missing keys with None/NaN."""
    plan = _column_plan(b)
    cols = {c: b[c].to_numpy() for c, _, _ in plan}
    nulls = {c: b[c].isna().to_numpy() for c, _, _ in plan}
    keys = {c: c.encode("utf-8") for c, _, _ in plan}
    records: list[bytes] = []
    for i in range(len(b)):
        feats: list[tuple[bytes, bytes]] = []
        for col, kind, is_list in plan:
            if nulls[col][i]:
                continue
            v = cols[col][i]
            if kind == "bytes":
                vals = (
                    [x.encode("utf-8") if isinstance(x, str) else bytes(x) for x in v]
                    if is_list
                    else [v.encode("utf-8") if isinstance(v, str) else bytes(v)]
                )
                body = _bytes_list(vals)
            elif kind == "float":
                body = _float_list(v if is_list else [v])
            else:
                body = _int64_list(v if is_list else [v])
            feats.append((keys[col], _feature(kind, body)))
        records.append(_example(feats))
    return records


def frame_records(records: list[bytes]) -> bytes:
    """TFRecord-frame a record list: batch-CRC both the 8-byte length
    headers and the payloads, then splice."""
    lens = [struct.pack("<Q", len(r)) for r in records]
    len_crc = _mask_crc(crc32c_batch(lens)).astype("<u4")
    dat_crc = _mask_crc(crc32c_batch(records)).astype("<u4")
    parts: list[bytes] = []
    for i, r in enumerate(records):
        parts.append(lens[i])
        parts.append(len_crc[i].tobytes())
        parts.append(r)
        parts.append(dat_crc[i].tobytes())
    return b"".join(parts)


def iter_framed(buf: bytes, *, verify_crc: bool = True, path: str = "?"):
    """Yield record payload bytes from a TFRecord byte buffer; CRC
    verification is batched over the whole file."""
    pos, end = 0, len(buf)
    recs: list[bytes] = []
    headers: list[bytes] = []
    stored: list[tuple[int, int]] = []
    while pos < end:
        if pos + 12 > end:
            raise ValueError(f"tfrecord: truncated header in {path}")
        (ln,) = struct.unpack_from("<Q", buf, pos)
        if pos + 16 + ln > end:
            raise ValueError(f"tfrecord: truncated record in {path}")
        headers.append(buf[pos : pos + 8])
        stored.append(
            (
                struct.unpack_from("<I", buf, pos + 8)[0],
                struct.unpack_from("<I", buf, pos + 12 + ln)[0],
            )
        )
        recs.append(buf[pos + 12 : pos + 12 + ln])
        pos += 16 + ln
    if verify_crc and recs:
        want_len = _mask_crc(crc32c_batch(headers))
        want_dat = _mask_crc(crc32c_batch(recs))
        got = np.asarray(stored, dtype=np.uint32)
        bad = (got[:, 0] != want_len) | (got[:, 1] != want_dat)
        if bad.any():
            raise ValueError(
                f"tfrecord: CRC mismatch on record {int(np.nonzero(bad)[0][0])} "
                f"of {path}"
            )
    yield from recs


# --------------------------------------------------------------------------
# Dataset sink / source
# --------------------------------------------------------------------------
def write_tfrecord_dataset(
    ds: rd.Dataset,
    out_dir: str,
    *,
    compress: bool = False,
) -> list[str]:
    """Dataset -> TFRecord shards of tf.train.Examples, one file per
    input block (no driver funnel).  Content-keyed sha1 names =
    idempotent byte-identical reruns; tmp + ``os.replace`` atomic
    publish; identical-block collision error and stale-shard cleanup
    exactly as the JSONL sink.  Returns the published file list.

    float64 columns narrow to float32 (`FloatList` is float32 by
    definition); nulls omit the feature per the tf.Example convention."""
    os.makedirs(out_dir, exist_ok=True)

    def write_block(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"path": pd.Series([], dtype=object)})
        payload = frame_records(_encode_rows(b))
        key = hashlib.sha1(payload).hexdigest()[:16]
        path = os.path.join(
            out_dir, f"part-{key}.tfrecord" + (".gz" if compress else "")
        )
        tmp = path + f".tmp-{os.getpid()}"
        with open(tmp, "wb") as out:
            out.write(gzip.compress(payload, mtime=0) if compress else payload)
        os.replace(tmp, path)
        return pd.DataFrame({"path": [path]})

    out = ds.map_batches(write_block, batch_format="pandas")
    paths = [p for b in out.iter_batches(batch_format="pandas") for p in b["path"]]
    if len(paths) != len(set(paths)):
        raise ValueError(
            "write_tfrecord_dataset: two byte-identical input blocks mapped to "
            "the same content-keyed shard (rows would be lost on a directory "
            "read) — repartition the input or add a distinguishing column"
        )
    keep = set(os.path.basename(p) for p in paths)
    for f in os.listdir(out_dir):
        if (
            f.startswith("part-")
            and (f.endswith(".tfrecord") or f.endswith(".tfrecord.gz"))
            and f not in keep
        ):
            os.unlink(os.path.join(out_dir, f))
    return sorted(paths)


def _file_layout(
    rows: list[dict[str, tuple[str, list]]],
    *,
    columns: list[str] | None,
    list_cols: frozenset[str],
) -> tuple[list[str], frozenset[str]]:
    """(ordered keys, list-layout keys) decided over ALL of a file's rows
    — per-yield inference let a column silently flip scalar/list across
    batch boundaries (and a projected column vanish from all-null
    batches); every yield of a file now shares one layout.  With
    ``columns`` given, every requested column emits even when the file
    never carries it (None-filled) — block schemas stay stable."""
    seen: set[str] = set()
    for r in rows:
        seen.update(r)
    keys = list(columns) if columns is not None else sorted(seen)
    multi = {
        k
        for k in keys
        if k in list_cols or any(k in r and len(r[k][1]) != 1 for r in rows)
    }
    return keys, frozenset(multi)


def _rows_to_frame(
    rows: list[dict[str, tuple[str, list]]],
    *,
    keys: list[str],
    list_keys: frozenset[str],
    binary_cols: set[str],
) -> pd.DataFrame:
    data: dict[str, list] = {}
    for k in keys:
        vals: list = []
        is_list = k in list_keys
        for r in rows:
            if k not in r:
                vals.append(None)
                continue
            kind, v = r[k]
            if kind == "bytes" and k not in binary_cols:
                v = [x.decode("utf-8") for x in v]
            if is_list:
                vals.append(v)
            else:
                vals.append(v[0] if v else None)
        data[k] = vals
    df = pd.DataFrame(data, columns=keys)
    # firm up numeric dtypes where no nulls forced object/float widening
    for k in keys:
        col = df[k]
        if col.dtype == object and len(col) and not col.isna().any():
            v0 = col.iloc[0]
            if isinstance(v0, int):
                try:
                    df[k] = col.astype("int64")
                except (TypeError, OverflowError):
                    pass
    return df


def read_tfrecord(
    paths: list[str] | str,
    *,
    columns: list[str] | None = None,
    binary_cols: set[str] | frozenset[str] = frozenset(),
    list_cols: set[str] | frozenset[str] = frozenset(),
    batch_rows: int = 256,
    verify_crc: bool = True,
) -> rd.Dataset:
    """Read TFRecord files of tf.train.Examples into a Dataset — one
    streaming parse task per file (the WARC source shape), bounded
    ``batch_rows`` yields.  ``columns`` prunes features right after
    parse (and every requested column emits even when a file lacks it —
    None-filled, so block schemas stay stable); ``binary_cols`` names
    bytes features to keep as ``bytes`` (others decode UTF-8).  Scalar
    vs list layout is decided consistently over each WHOLE file: a key
    is a list column if ``list_cols`` declares it or any record in the
    file holds != 1 values (a file of all-singleton lists without a
    declaration still reads as scalars — TFRecord carries no schema,
    exactly TF's own ``VarLenFeature`` spec requirement).  The file's
    rows are held in memory for that decision — files are block-sized
    from this module's own sink; the raw buffer is already fully read
    either way.  Gzip is inferred from the ``.gz`` extension."""
    if isinstance(paths, str):
        paths = (
            sorted(
                os.path.join(paths, f)
                for f in os.listdir(paths)
                if f.endswith((".tfrecord", ".tfrecord.gz", ".tfrecords"))
            )
            if os.path.isdir(paths)
            else [paths]
        )
    if not paths:
        raise ValueError("read_tfrecord: no .tfrecord files to read")
    want = set(columns) if columns is not None else None
    bset = frozenset(binary_cols)
    lset = frozenset(list_cols)

    def parse(batch: pd.DataFrame):
        for path in batch["path"]:
            with open(path, "rb") as fh:
                buf = fh.read()
            if path.endswith(".gz"):
                buf = gzip.decompress(buf)
            rows: list[dict] = []
            for rec in iter_framed(buf, verify_crc=verify_crc, path=path):
                ex = parse_example(rec)
                if want is not None:
                    ex = {k: v for k, v in ex.items() if k in want}
                rows.append(ex)
            keys, list_keys = _file_layout(rows, columns=columns, list_cols=lset)
            for i in range(0, max(len(rows), 1), batch_rows):
                chunk = rows[i : i + batch_rows]
                if chunk:
                    yield _rows_to_frame(
                        chunk, keys=keys, list_keys=list_keys, binary_cols=bset
                    )

    files = rd.from_items([{"path": p} for p in paths])
    return files.map_batches(parse, batch_size=1, batch_format="pandas")
