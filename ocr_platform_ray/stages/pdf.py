"""Real PDF byte-stream text extraction (public ISO 32000 subset).

Replaces the synthetic FAKEPDF layout format as the PDF backend of
``extract_page`` — the capability at reference apps/queue/src/lib/ocr.ts:
20-54 (pdf-lib document load + page iteration), rebuilt as a pure-python
parser feeding the existing bbox/XY-cut reading-order path:

  object scanner (``N G obj``) -> dict/array/string tokenizer ->
  FlateDecode streams (zlib) -> /ObjStm expansion -> page tree walk ->
  content-stream interpreter (BT/ET, Tf, Td/TD/Tm/T*/TL, Tj/TJ/'/\")
  -> positioned text runs -> line grouping + paragraph merge ->
  role classification (font size + position) -> XY-cut order.

Supported: classic xref and xref-stream files (the scanner never trusts
xref offsets — it walks ``obj``..``endobj`` spans directly, which also
salvages mildly damaged files), FlateDecode / LZWDecode /
ASCIIHexDecode / ASCII85Decode / RunLengthDecode (incl. cascades) and
uncompressed streams,
PNG Predictor DecodeParms (sub/up/average/paeth — xref AND content
streams), literal strings with octal/char escapes, hex strings, object
streams, ToUnicode CMaps (bfchar / bfrange offset + array forms, 1- and
2-byte code widths) for Type0/CID subset fonts — non-Latin text decodes
correctly; fonts without a CMap decode as WinAnsi/latin-1 — and
Standard-security-handler encryption with an EMPTY user password:
RC4 (V 1/2, R 2/3 and V4 /CFM /V2 — ISO 32000-1 §7.6.2-7.6.3 algorithms
2/4/5 reimplemented), AES-128-CBC (V4 /CFM /AESV2, R4, "sAlT" object
keys) and AES-256-CBC (V5 /AESV3, R5/R6 — ISO 32000-2 Algorithm 2.B
hardened hash, /UE key unwrap) on the vendored FIPS-197 core
(``stages/aes.py``); the reference opens encrypted files via pdf-lib's
``ignoreEncryption: true`` (ocr.ts:24) — this parser goes further and
actually decrypts.
Not interpreted (documented limits): non-empty user passwords and
non-Standard handlers — these raise ValueError, which ``extract_page``
maps to the M5 failed-stage salvage row rather than crashing the
pipeline; likewise inline images and exact glyph metrics (x-advance is
an average-width estimate — enough for reading order)."""

from __future__ import annotations

import base64
import hashlib
import re
import zlib

import numpy as np

from .aes import aes_cbc_decrypt, aes_cbc_encrypt, pkcs7_unpad
from .ocr import recognize_pixels, recognize_rows

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"


class Ref:
    __slots__ = ("num",)

    def __init__(self, num: int):
        self.num = num

    def __repr__(self):  # pragma: no cover
        return f"Ref({self.num})"


def _skip_ws(data: bytes, i: int) -> int:
    n = len(data)
    while i < n:
        c = data[i]
        if c in _WS:
            i += 1
        elif c == 0x25:  # % comment to EOL
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
        else:
            break
    return i


def _parse_name(data: bytes, i: int) -> tuple[str, int]:
    i += 1  # '/'
    start = i
    n = len(data)
    while i < n and data[i] not in _WS and data[i] not in _DELIM:
        i += 1
    raw = data[start:i]
    if b"#" in raw:  # #xx hex escapes in names
        out = bytearray()
        j = 0
        while j < len(raw):
            if raw[j : j + 1] == b"#" and j + 2 < len(raw):
                out.append(int(raw[j + 1 : j + 3], 16))
                j += 3
            else:
                out.append(raw[j])
                j += 1
        raw = bytes(out)
    return raw.decode("latin-1"), i


_STR_ESC = {
    ord("n"): b"\n",
    ord("r"): b"\r",
    ord("t"): b"\t",
    ord("b"): b"\b",
    ord("f"): b"\x0c",
    ord("("): b"(",
    ord(")"): b")",
    ord("\\"): b"\\",
}


def _parse_literal_string(data: bytes, i: int) -> tuple[bytes, int]:
    i += 1  # '('
    out = bytearray()
    depth = 1
    n = len(data)
    while i < n:
        c = data[i]
        if c == 0x5C:  # backslash
            i += 1
            if i >= n:
                break
            e = data[i]
            if e in _STR_ESC:
                out += _STR_ESC[e]
                i += 1
            elif 0x30 <= e <= 0x37:  # octal \d{1,3}
                oct_digits = bytearray()
                while i < n and len(oct_digits) < 3 and 0x30 <= data[i] <= 0x37:
                    oct_digits.append(data[i])
                    i += 1
                out.append(int(oct_digits.decode(), 8) & 0xFF)
            elif e in (0x0A, 0x0D):  # line continuation
                i += 1
                if e == 0x0D and i < n and data[i] == 0x0A:
                    i += 1
            else:
                out.append(e)
                i += 1
            continue
        if c == 0x28:
            depth += 1
        elif c == 0x29:
            depth -= 1
            if depth == 0:
                return bytes(out), i + 1
        out.append(c)
        i += 1
    return bytes(out), i


def _parse_hex_string(data: bytes, i: int) -> tuple[bytes, int]:
    j = data.index(b">", i)
    hx = re.sub(rb"[^0-9A-Fa-f]", b"", data[i + 1 : j])
    if len(hx) % 2:
        hx += b"0"
    return bytes.fromhex(hx.decode()), j + 1


_NUM_RE = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)")
_REF_RE = re.compile(rb"(\d+)\s+(\d+)\s+R\b")


def parse_value(data: bytes, i: int):
    """Parse one PDF object value at ``i`` -> (value, next_index)."""
    i = _skip_ws(data, i)
    c = data[i : i + 1]
    if c == b"/":
        return _parse_name(data, i)
    if data[i : i + 2] == b"<<":
        i += 2
        d: dict = {}
        while True:
            i = _skip_ws(data, i)
            if data[i : i + 2] == b">>":
                return d, i + 2
            key, i = _parse_name(data, i)
            val, i = parse_value(data, i)
            d[key] = val
    if c == b"<":
        return _parse_hex_string(data, i)
    if c == b"(":
        return _parse_literal_string(data, i)
    if c == b"[":
        i += 1
        arr = []
        while True:
            i = _skip_ws(data, i)
            if data[i : i + 1] == b"]":
                return arr, i + 1
            v, i = parse_value(data, i)
            arr.append(v)
    if data[i : i + 4] == b"true":
        return True, i + 4
    if data[i : i + 5] == b"false":
        return False, i + 5
    if data[i : i + 4] == b"null":
        return None, i + 4
    m = _REF_RE.match(data, i)
    if m:
        return Ref(int(m.group(1))), m.end()
    m = _NUM_RE.match(data, i)
    if m:
        tok = m.group(0)
        return (float(tok) if b"." in tok else int(tok)), m.end()
    raise ValueError(f"pdf: unparseable value at byte {i}: {data[i:i+16]!r}")


def _inflate_salvage(raw: bytes) -> bytes:
    """zlib.decompress, salvaging the successfully-inflated PREFIX of a
    truncated/corrupt deflate stream (real-world PDFs cut mid-download):
    decompressobj yields everything decoded before the error instead of
    throwing the whole stream away."""
    try:
        return zlib.decompress(raw)
    except zlib.error:
        z = zlib.decompressobj()
        out = b""
        try:
            out = z.decompress(raw)
            out += z.flush()
        except zlib.error:
            pass
        if out:
            return out
        raise


def _lzw_decode(data: bytes, early: int = 1) -> bytes:
    """LZWDecode (ISO 32000-1 §7.4.4 — TIFF-style variable-width LZW):
    9..12-bit codes MSB-first, 256 = clear-table, 257 = EOD; code width
    grows one bit early per /EarlyChange (default 1).  Scalar loop — LZW
    appears in legacy text streams only, never in hot batch paths."""
    CLEAR, EOD = 256, 257
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    out = bytearray()
    prev: bytes | None = None
    width = 9
    bitbuf = nbits = 0
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == CLEAR:
                del table[258:]
                width = 9
                prev = None
                continue
            if code == EOD:
                return bytes(out)
            if code < len(table):
                entry = table[code]
            elif code == len(table) and prev is not None:
                entry = prev + prev[:1]  # KwKwK case
            else:
                raise ValueError("pdf: corrupt LZW stream")
            out += entry
            if prev is not None:
                table.append(prev + entry[:1])
            prev = entry
            if len(table) >= (1 << width) - early and width < 12:
                width += 1  # EarlyChange: grow one code early (default)
    return bytes(out)


def _ahx_decode(data: bytes) -> bytes:
    """ASCIIHexDecode (ISO 32000-1 §7.4.2): whitespace ignored, ``>``
    is EOD, an odd trailing digit pads with 0."""
    s = bytes(data).translate(None, _WS + b"\v")
    end = s.find(b">")
    if end != -1:
        s = s[:end]
    if len(s) % 2:
        s += b"0"
    return bytes.fromhex(s.decode("ascii"))


def _a85_decode(data: bytes) -> bytes:
    """ASCII85Decode (ISO 32000-1 §7.4.3): whitespace ignored, ``z`` =
    four zero bytes, ``~>`` is EOD, partial final group of n chars
    yields n-1 bytes (base64.a85decode implements exactly this group
    arithmetic; framing/whitespace handled here)."""
    s = bytes(data).translate(None, _WS + b"\v")
    end = s.find(b"~>")
    if end != -1:
        s = s[:end]
    return base64.a85decode(s)


def _rle_decode(data: bytes) -> bytes:
    """RunLengthDecode (ISO 32000-1 §7.4.5): length byte L — 0..127
    copies the next L+1 bytes, 129..255 repeats the next byte 257-L
    times, 128 is EOD."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        L = data[i]
        if L == 128:
            break
        if L < 128:
            out += data[i + 1 : i + 2 + L]
            i += 2 + L
        else:
            out += data[i + 1 : i + 2] * (257 - L)
            i += 2
    return bytes(out)


def _decode_stream(d: dict, raw: bytes) -> bytes:
    filt = d.get("Filter")
    if filt is None:
        return raw
    filters = filt if isinstance(filt, list) else [filt]
    parms_all = d.get("DecodeParms")
    parms_list = (
        parms_all
        if isinstance(parms_all, list)
        else [parms_all] * len(filters)
    )
    for f, parms in zip(filters, parms_list):
        if f == "FlateDecode":
            raw = _inflate_salvage(raw)
        elif f == "LZWDecode":
            early = parms.get("EarlyChange", 1) if isinstance(parms, dict) else 1
            raw = _lzw_decode(raw, early)
        elif f == "ASCIIHexDecode":
            raw = _ahx_decode(raw)
        elif f == "ASCII85Decode":
            raw = _a85_decode(raw)
        elif f == "RunLengthDecode":
            raw = _rle_decode(raw)
        else:
            # image codecs (DCTDecode/JPXDecode/CCITT/JBIG2) and exotic
            # text filters: the OBJECT survives with sdata=None — pages
            # salvage the text around such XObjects instead of failing
            raise ValueError(f"pdf: unsupported filter {f}")
        if isinstance(parms, dict) and parms.get("Predictor", 1) > 1:
            raw = _png_unpredict(raw, parms)
    return raw


def _png_unpredict(data: bytes, parms: dict) -> bytes:
    """PNG up/sub/paeth predictors (xref streams commonly use Up)."""
    colors = parms.get("Colors", 1)
    bpc = parms.get("BitsPerComponent", 8)
    columns = parms.get("Columns", 1)
    bpp = max(1, colors * bpc // 8)
    rowlen = columns * bpp
    out = bytearray()
    prev = bytearray(rowlen)
    for r in range(0, len(data), rowlen + 1):
        ft = data[r]
        row = bytearray(data[r + 1 : r + 1 + rowlen])
        if ft == 1:  # Sub
            for i in range(bpp, rowlen):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ft == 2:  # Up
            for i in range(rowlen):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ft == 3:  # Average
            for i in range(rowlen):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + (left + prev[i]) // 2) & 0xFF
        elif ft == 4:  # Paeth
            for i in range(rowlen):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                cc = prev[i - bpp] if i >= bpp else 0
                p = a + b - cc
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else cc)
                row[i] = (row[i] + pred) & 0xFF
        out += row
        prev = row
    return bytes(out)


class _Encoded:
    """A stream's bytes as the file stores them: decrypted, filters not
    yet applied.  ``scan_objects`` leaves the stream of every
    dict-valued object in this form."""

    __slots__ = ("raw",)

    def __init__(self, raw: bytes):
        self.raw = raw


def _stream_bytes(objects: dict, num: int) -> bytes | None:
    """Decoded bytes of stream object ``num``: the one accessor that page
    contents, ToUnicode CMaps, object streams and Form XObjects read
    through.  ``_decode_stream`` runs on first use and its result
    replaces the encoded bytes in ``objects``; None when the object has
    no stream or its filters fail."""
    val, sdata = objects.get(num, (None, None))
    if isinstance(sdata, _Encoded):
        try:
            sdata = _decode_stream(val, sdata.raw)
        except (ValueError, zlib.error):
            sdata = None
        objects[num] = (val, sdata)
    return sdata


# inflate output per step of the chunked image decode: below glibc's
# 128 KiB mmap threshold, so each step reuses heap memory instead of
# faulting in fresh pages
_INFLATE_STEP = 120 * 1024


def _inflate_rows(raw: bytes, width: int, height: int):
    """Yield the first ``height`` rows of a FlateDecode 8-bit gray image
    as (k, width) uint8 slabs, inflating at most ``_INFLATE_STEP`` bytes
    (rounded down to whole rows) at a time.  The stream is inflated to
    its end either way, so its adler32 check runs as in
    ``zlib.decompress``.  Raises zlib.error where ``zlib.decompress``
    would (corrupt data, bad checksum, truncated stream) and when the
    stream holds fewer than width x height bytes."""
    step = max(1, _INFLATE_STEP // width) * width
    need = width * height
    d = zlib.decompressobj()
    tail, carry = raw, b""
    while not d.eof:
        out = d.decompress(tail, step)
        tail = d.unconsumed_tail
        if not out and not tail:
            raise zlib.error("truncated stream")
        if need:
            # max_length caps a step without promising a full one, so a
            # partial row carries over to the next
            buf = carry + out if carry else out
            n = min(len(buf), need) // width * width
            if n:
                yield np.frombuffer(buf, dtype=np.uint8, count=n).reshape(-1, width)
            need -= n
            carry = buf[n:] if need else b""
    if need:
        raise zlib.error("image shorter than width x height")


# ---------------------------------------------------------------------------
# Standard security handler (ISO 32000-1 §7.6): RC4, empty user password
# ---------------------------------------------------------------------------
_PW_PAD = bytes(
    [
        0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41, 0x64, 0x00, 0x4E, 0x56,
        0xFF, 0xFA, 0x01, 0x08, 0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
        0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
    ]
)


def _rc4(key: bytes, data: bytes) -> bytes:
    s = list(range(256))
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % len(key)]) & 0xFF
        s[i], s[j] = s[j], s[i]
    out = bytearray(len(data))
    i = j = 0
    for n, c in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        out[n] = c ^ s[(s[i] + s[j]) & 0xFF]
    return bytes(out)


def _find_encrypt(data: bytes, objects: dict) -> tuple[object, bytes]:
    """Locate the /Encrypt entry: classic ``trailer`` dicts first, then
    xref-stream dicts (/Type /XRef).  Returns (encrypt_ref_or_None,
    first_file_id_bytes)."""
    enc_ref, file_id = None, b""

    def absorb(d: dict):
        nonlocal enc_ref, file_id
        if "Encrypt" in d:
            enc_ref = d["Encrypt"]
        fid = d.get("ID")
        if isinstance(fid, list) and fid and isinstance(fid[0], bytes):
            file_id = fid[0]

    for m in re.finditer(rb"trailer", data):
        try:
            d, _ = parse_value(data, m.end())
        except (ValueError, IndexError):
            continue
        if isinstance(d, dict):
            absorb(d)
    if enc_ref is None:
        for _, (v, _s) in objects.items():
            if isinstance(v, dict) and v.get("Type") == "XRef":
                absorb(v)
    return enc_ref, file_id


def _std_security_key(enc: dict, file_id: bytes) -> bytes:
    """Algorithm 2: file encryption key for the EMPTY user password."""
    r = int(enc.get("R", 2))
    o = enc.get("O", b"")
    p = int(enc.get("P", -1))
    n = 5 if r == 2 else max(5, min(16, int(enc.get("Length", 40)) // 8))
    h = hashlib.md5()
    h.update(_PW_PAD)  # empty user password, padded
    h.update(o[:32])
    h.update((p & 0xFFFFFFFF).to_bytes(4, "little"))
    h.update(file_id)
    if r >= 4 and enc.get("EncryptMetadata", True) is False:
        h.update(b"\xff\xff\xff\xff")
    key = h.digest()
    if r >= 3:
        for _ in range(50):
            key = hashlib.md5(key[:n]).digest()
    return key[:n]


def _verify_empty_user_password(key: bytes, enc: dict, file_id: bytes) -> bool:
    """Algorithms 4/5 check against /U."""
    r = int(enc.get("R", 2))
    u = enc.get("U", b"")
    if not isinstance(u, bytes):
        return False
    if r == 2:
        return _rc4(key, _PW_PAD) == u[:32]
    x = _rc4(key, hashlib.md5(_PW_PAD + file_id).digest())
    for i in range(1, 20):
        x = _rc4(bytes(b ^ i for b in key), x)
    return x[:16] == u[:16]


def _hash_r6(password: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """ISO 32000-2 Algorithm 2.B hardened hash (R6).  The 128-bit
    big-endian "mod 3" equals the byte sum mod 3 (256 ≡ 1 mod 3)."""
    k = hashlib.sha256(password + salt + udata).digest()
    i = 0
    while True:
        k1 = (password + k + udata) * 64
        e = aes_cbc_encrypt(k[:16], k[16:32], k1)
        k = {0: hashlib.sha256, 1: hashlib.sha384, 2: hashlib.sha512}[
            sum(e[:16]) % 3
        ](e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            return k[:32]


def _aes_stream_decrypt(key: bytes, raw: bytes) -> bytes:
    """PDF AES stream layout: 16-byte IV prefix + CBC ciphertext with
    PKCS#7 padding; tolerate ragged tails (salvage spirit)."""
    if len(raw) < 32:
        return b""
    iv, body = raw[:16], raw[16:]
    body = body[: len(body) - len(body) % 16]
    return pkcs7_unpad(aes_cbc_decrypt(key, iv, body))


def _make_stream_decryptor(data: bytes, objects: dict, gens: dict):
    """None when the file is unencrypted; a (num, raw)->bytes decryptor
    when it uses the Standard handler with an EMPTY user password —
    RC4 (V1/V2, R2/R3; V4 /CFM /V2), AES-128-CBC (V4 /CFM /AESV2, R4)
    or AES-256-CBC (V5 /AESV3, R5/R6); raises ValueError otherwise
    (passworded / unknown handler) — the caller maps that to the M5
    salvage row."""
    enc_ref, file_id = _find_encrypt(data, objects)
    if enc_ref is None:
        return None, set()
    enc = enc_ref
    exclude = set()
    if isinstance(enc, Ref):
        exclude.add(enc.num)
        enc = objects.get(enc.num, (None, None))[0]
    if not isinstance(enc, dict):
        raise ValueError("pdf: encrypted (unresolvable /Encrypt dict)")
    v = int(enc.get("V", 0))
    if enc.get("Filter") != "Standard" or v not in (1, 2, 4, 5):
        raise ValueError(
            f"pdf: unsupported encryption (Filter={enc.get('Filter')!r} V={v})"
        )
    # xref streams are never encrypted (ISO 32000-1 §7.5.8.2)
    for num, (val, _s) in objects.items():
        if isinstance(val, dict) and val.get("Type") == "XRef":
            exclude.add(num)

    if v == 5:
        # AES-256: SHA-2 password validation, file key unwrapped from /UE
        r = int(enc.get("R", 6))
        u, ue = enc.get("U", b""), enc.get("UE", b"")
        if r not in (5, 6) or len(u) < 48 or len(ue) < 32:
            raise ValueError(f"pdf: unsupported encryption (V=5 R={r})")
        vsalt, ksalt = u[32:40], u[40:48]
        if r == 6:
            if _hash_r6(b"", vsalt) != u[:32]:
                raise ValueError("pdf: password-protected (non-empty user password)")
            ik = _hash_r6(b"", ksalt)
        else:  # R5 (deprecated Adobe extension): single SHA-256
            if hashlib.sha256(vsalt).digest() != u[:32]:
                raise ValueError("pdf: password-protected (non-empty user password)")
            ik = hashlib.sha256(ksalt).digest()
        file_key = aes_cbc_decrypt(ik, b"\x00" * 16, ue[:32])

        def decrypt_v5(num: int, raw: bytes) -> bytes:
            return _aes_stream_decrypt(file_key, raw)

        return decrypt_v5, exclude

    cfm = "V2"  # RC4 unless a V4 crypt filter says AESV2
    if v == 4:
        stmf = enc.get("StmF", "Identity")
        if stmf == "Identity":
            return None, set()  # streams pass through untouched
        cf = enc.get("CF")
        cfd = cf.get(stmf, cf.get("StdCF", {})) if isinstance(cf, dict) else {}
        cfm = cfd.get("CFM", "V2") if isinstance(cfd, dict) else "V2"
        if cfm not in ("V2", "AESV2"):
            raise ValueError(f"pdf: unsupported crypt filter {cfm!r}")
    key = _std_security_key(enc, file_id)
    if not _verify_empty_user_password(key, enc, file_id):
        raise ValueError("pdf: password-protected (non-empty user password)")
    salt = b"sAlT" if cfm == "AESV2" else b""

    def decrypt(num: int, raw: bytes) -> bytes:
        gen = gens.get(num, 0)
        ok = hashlib.md5(
            key + num.to_bytes(3, "little") + gen.to_bytes(2, "little") + salt
        ).digest()[: min(len(key) + 5, 16)]
        if cfm == "AESV2":
            return _aes_stream_decrypt(ok, raw)
        return _rc4(ok, raw)

    return decrypt, exclude


def scan_objects(data: bytes) -> dict[int, tuple]:
    """Walk ``N G obj`` .. ``endobj`` spans in file order (never trusting
    xref offsets — salvages mildly damaged files), returning
    {num: (value, stream_or_None)}.  A stream of a dict-valued object is
    held decrypted but still encoded (``_Encoded``); read it through
    ``_stream_bytes``, which decodes it on first use, so a stream nothing
    reads is never inflated.  Matches that fall inside a
    previously-consumed object (e.g. binary stream bytes that happen to
    contain 'obj') are skipped via the moving cursor."""
    objects: dict[int, tuple] = {}
    gens: dict[int, int] = {}
    cursor = 0
    for m in _OBJ_RE.finditer(data):
        if m.start() < cursor:
            continue
        num = int(m.group(1))
        gens[num] = int(m.group(2))
        i = _skip_ws(data, m.end())
        try:
            val, i = parse_value(data, i)
        except (ValueError, IndexError):
            cursor = m.end()
            continue
        i = _skip_ws(data, i)
        stream_data = None
        if data[i : i + 6] == b"stream":
            i += 6
            if data[i : i + 2] == b"\r\n":
                i += 2
            elif data[i : i + 1] in (b"\n", b"\r"):
                i += 1
            length = val.get("Length") if isinstance(val, dict) else None
            end = -1
            if isinstance(length, int):
                cand = i + length
                if data[cand : cand + 20].lstrip(b"\r\n ").startswith(b"endstream"):
                    end = cand
            if end < 0:
                end = data.find(b"endstream", i)
                if end < 0:
                    cursor = i
                    continue
                # trailing EOL before the keyword belongs to the marker
                while end > i and data[end - 1] in (0x0A, 0x0D):
                    end -= 1
            stream_data = data[i:end]
            i = data.find(b"endobj", end)
            i = i + 6 if i >= 0 else end
        objects[num] = (val, stream_data)
        cursor = i
    # decrypt (Standard-handler RC4, empty user password), then expand
    # object streams — the only streams decoded here
    decryptor, no_decrypt = _make_stream_decryptor(data, objects, gens)
    for num, (val, sdata) in objects.items():
        if sdata is not None and isinstance(val, dict):
            if decryptor is not None and num not in no_decrypt:
                sdata = decryptor(num, sdata)
            objects[num] = (val, _Encoded(sdata))
    for num, (val, _s) in list(objects.items()):
        if not isinstance(val, dict) or val.get("Type") != "ObjStm":
            continue
        sdata = _stream_bytes(objects, num)
        if sdata:
            n_objs = val.get("N", 0)
            first = val.get("First", 0)
            i = 0
            pairs = []
            for _ in range(n_objs):
                i = _skip_ws(sdata, i)
                m1 = _NUM_RE.match(sdata, i)
                i = _skip_ws(sdata, m1.end())
                m2 = _NUM_RE.match(sdata, i)
                i = m2.end()
                pairs.append((int(m1.group(0)), int(m2.group(0))))
            for onum, off in pairs:
                try:
                    v, _ = parse_value(sdata, first + off)
                    objects.setdefault(onum, (v, None))
                except (ValueError, IndexError):
                    continue
    return objects


def _resolve(v, objects):
    seen = 0
    while isinstance(v, Ref) and seen < 32:
        v = objects.get(v.num, (None, None))[0]
        seen += 1
    return v


class TextRun:
    __slots__ = ("x", "y", "size", "text")

    def __init__(self, x: float, y: float, size: float, text: str):
        self.x, self.y, self.size, self.text = x, y, size, text


# ---------------------------------------------------------------------------
# ToUnicode CMaps (the LaTeX/Word subset-font text encoding)
# ---------------------------------------------------------------------------
_HEX_ITEM = rb"<([0-9A-Fa-f]+)>"
_CODESPACE_RE = re.compile(
    rb"begincodespacerange(.*?)endcodespacerange", re.S
)
_BFCHAR_RE = re.compile(rb"beginbfchar(.*?)endbfchar", re.S)
_BFRANGE_RE = re.compile(rb"beginbfrange(.*?)endbfrange", re.S)
_HEX_PAIR_RE = re.compile(_HEX_ITEM + rb"\s+" + _HEX_ITEM)
_HEX_TRIPLE_RE = re.compile(_HEX_ITEM + rb"\s+" + _HEX_ITEM + rb"\s+" + _HEX_ITEM)
_HEX_ARRAY_RE = re.compile(
    _HEX_ITEM + rb"\s+" + _HEX_ITEM + rb"\s+\[((?:\s*<[0-9A-Fa-f]+>)+)\s*\]"
)


def _u16(hx: bytes) -> str:
    raw = bytes.fromhex(hx.decode())
    return raw.decode("utf-16-be", "replace")


def parse_tounicode(cmap: bytes):
    """ToUnicode CMap stream -> (code_width_bytes, {code_int: str}).
    Supports begincodespacerange (code width), bfchar pairs, and bfrange
    (offset form and array form) — the subset every PDF producer emits."""
    width = 1
    m = _CODESPACE_RE.search(cmap)
    if m:
        h = re.search(_HEX_ITEM, m.group(1))
        if h:
            width = max(1, len(h.group(1)) // 2)
    table: dict[int, str] = {}
    for sec in _BFCHAR_RE.finditer(cmap):
        for src, dst in _HEX_PAIR_RE.findall(sec.group(1)):
            table[int(src, 16)] = _u16(dst)
    for sec in _BFRANGE_RE.finditer(cmap):
        body = sec.group(1)
        for lo, hi, arr in _HEX_ARRAY_RE.findall(body):
            dsts = re.findall(_HEX_ITEM, arr)
            for i, d in enumerate(dsts):
                table[int(lo, 16) + i] = _u16(d)
        # strip array entries before scanning offset-form triples
        body_wo = _HEX_ARRAY_RE.sub(b"", body)
        for lo, hi, dst in _HEX_TRIPLE_RE.findall(body_wo):
            lo_i, hi_i = int(lo, 16), int(hi, 16)
            base = int(dst, 16)
            if hi_i - lo_i > 65535:
                continue  # malformed guard
            for code in range(lo_i, hi_i + 1):
                table[code] = chr(base + (code - lo_i)) if base + (code - lo_i) <= 0x10FFFF else "�"
    return width, table


def _make_decoder(width: int, table: dict[int, str]):
    def decode(raw: bytes) -> str:
        out = []
        for i in range(0, len(raw) - width + 1, width):
            code = int.from_bytes(raw[i : i + width], "big")
            out.append(table.get(code, "�"))
        return "".join(out)

    return decode


def _latin1_decode(raw: bytes) -> str:
    return raw.decode("latin-1")


def page_font_decoders(page: dict, objects: dict):
    """Per-page {font_resource_name: bytes->str decoder} from /Resources
    /Font entries carrying a /ToUnicode CMap; fonts without one decode as
    WinAnsi/latin-1 (the simple-font default)."""
    decoders: dict[str, object] = {}
    res = _resolve(page.get("Resources"), objects)
    fonts = _resolve(res.get("Font"), objects) if isinstance(res, dict) else None
    if not isinstance(fonts, dict):
        return decoders
    for name, fref in fonts.items():
        font = _resolve(fref, objects)
        if not isinstance(font, dict):
            continue
        tu = font.get("ToUnicode")
        if isinstance(tu, Ref):
            stream = _stream_bytes(objects, tu.num)
            if stream:
                try:
                    width, table = parse_tounicode(stream)
                    decoders[name] = _make_decoder(width, table)
                except (ValueError, OverflowError):
                    continue
    return decoders


_CS_TOKEN_RE = re.compile(rb"/?[A-Za-z'\"][A-Za-z0-9*'\"]*|\[|\]|\(|<|[+-]?(?:\d+\.?\d*|\.\d+)")
# inline-image terminator: whitespace-delimited EI after the binary data
_INLINE_EI_RE = re.compile(rb"[\x00\t\n\x0c\r ]EI(?=[\x00\t\n\x0c\r ]|$)")


def _has_own_fonts(node: dict, objects: dict) -> bool:
    res = _resolve(node.get("Resources"), objects)
    fonts = _resolve(res.get("Font"), objects) if isinstance(res, dict) else None
    return isinstance(fonts, dict) and bool(fonts)


def _page_xobjects(node: dict, objects: dict, fallback_decoders: dict) -> dict:
    """{resource_name: (content_bytes, decoders)} for the /Form XObjects
    of a page (or form) /Resources dict — text shown via ``name Do``
    executes these streams.  A form carrying its OWN /Resources /Font
    dict scopes its decoders to those fonts (even when none has a
    ToUnicode CMap — an empty decoder map means latin-1, NOT the page's
    CMaps, which would garble a plain font that shadows a page CID
    name); a form with no font resources inherits the caller's.  Nested
    ``Do`` calls resolve against this page-level name map (documented
    approximation; per-form nested XObject scopes are not walked)."""
    out: dict[str, tuple] = {}
    res = _resolve(node.get("Resources"), objects)
    xo = _resolve(res.get("XObject"), objects) if isinstance(res, dict) else None
    if not isinstance(xo, dict):
        return out
    for name, ref in xo.items():
        if not isinstance(ref, Ref):
            continue
        val = objects.get(ref.num, (None, None))[0]
        if not isinstance(val, dict) or val.get("Subtype") != "Form":
            continue
        sdata = _stream_bytes(objects, ref.num)
        if sdata is None:
            continue
        dec = (
            page_font_decoders(val, objects)
            if _has_own_fonts(val, objects)
            else fallback_decoders
        )
        out[name] = (sdata, dec)
    return out


def interpret_content(
    content: bytes,
    decoders: dict | None = None,
    *,
    xobjects: dict | None = None,
    depth: int = 0,
) -> list[TextRun]:
    """Execute the text-positioning subset of a content stream.  Tracks the
    text matrix translation + font size; emits one TextRun per show op
    (Tj / TJ / ' / \"), advancing x by an average-width estimate (enough
    for reading order; exact glyph metrics aren't needed for text).
    ``decoders`` maps font resource names to bytes->str decoders (ToUnicode
    CMaps); fonts without one decode as WinAnsi/latin-1.  ``xobjects``
    maps resource names to (content, decoders) Form XObjects executed by
    the ``Do`` operator (depth-limited; form coordinates are taken as
    page coordinates — consistent with the interpreter ignoring ``cm``)."""
    decoders = decoders or {}
    cur_decode = _latin1_decode
    runs: list[TextRun] = []
    stack: list = []  # operand stack
    tm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]  # a b c d e f
    lm = list(tm)  # line matrix
    size = 12.0
    leading = 0.0
    i, n = 0, len(content)

    def show(txt: bytes):
        t = cur_decode(txt)
        if t:
            eff = size * (abs(tm[3]) or 1.0)
            runs.append(TextRun(tm[4], tm[5], eff, t))
            tm[4] += 0.5 * eff * len(t)  # average-width advance

    def newline(tx: float, ty: float):
        # Td: translate the LINE matrix, text matrix restarts there
        lm[4] += tx * lm[0] + ty * lm[2]
        lm[5] += tx * lm[1] + ty * lm[3]
        tm[:] = lm

    while i < n:
        c = content[i : i + 1]
        if c in (b"(",):
            s, i = _parse_literal_string(content, i)
            stack.append(s)
            continue
        if c == b"<" and content[i : i + 2] != b"<<":
            s, i = _parse_hex_string(content, i)
            stack.append(s)
            continue
        if content[i : i + 2] == b"<<":
            d, i = parse_value(content, i)
            stack.append(d)
            continue
        m = _CS_TOKEN_RE.match(content, i)
        if not m:
            i += 1
            continue
        tok = m.group(0)
        i = m.end()
        if tok == b"BI":
            # inline image: skip to the EI delimiter past the binary
            # payload (whose bytes would otherwise derail the tokenizer —
            # a stray 0x28 would swallow everything to the next 0x29)
            j = content.find(b"ID", i)
            e = _INLINE_EI_RE.search(content, j + 2 if j >= 0 else i)
            i = e.end() if e else n
            stack.clear()
            continue
        if tok in (b"[", b"]"):
            stack.append(tok)
            continue
        if tok[:1] == b"/":
            stack.append(tok[1:].decode("latin-1"))
            continue
        if tok[:1].isdigit() or tok[:1] in (b"+", b"-", b"."):
            stack.append(float(tok))
            continue
        op = tok
        try:
            if op == b"Tf" and len(stack) >= 1:
                size = float(stack[-1])
                if len(stack) >= 2 and isinstance(stack[-2], str):
                    cur_decode = decoders.get(stack[-2], _latin1_decode)
            elif op == b"Td" and len(stack) >= 2:
                newline(float(stack[-2]), float(stack[-1]))
            elif op == b"TD" and len(stack) >= 2:
                leading = -float(stack[-1])
                newline(float(stack[-2]), float(stack[-1]))
            elif op == b"TL" and len(stack) >= 1:
                leading = float(stack[-1])
            elif op == b"Tm" and len(stack) >= 6:
                tm[:] = [float(v) for v in stack[-6:]]
                lm[:] = tm
            elif op == b"T*":
                newline(0.0, -leading)
            elif op == b"BT":
                tm[:] = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
                lm[:] = tm
            elif op == b"Tj" and stack and isinstance(stack[-1], bytes):
                show(stack[-1])
            elif op == b"'" and stack and isinstance(stack[-1], bytes):
                newline(0.0, -leading)
                show(stack[-1])
            elif op == b'"' and stack and isinstance(stack[-1], bytes):
                newline(0.0, -leading)
                show(stack[-1])
            elif op == b"Do" and stack and isinstance(stack[-1], str):
                if xobjects and depth < 8:
                    sub = xobjects.get(stack[-1])
                    if sub is not None:
                        runs.extend(
                            interpret_content(
                                sub[0], sub[1], xobjects=xobjects, depth=depth + 1
                            )
                        )
            elif op == b"TJ":
                # collect back to the matching '['
                j = len(stack) - 1
                while j >= 0 and stack[j] != b"]":
                    j -= 1
                k = j - 1
                while k >= 0 and stack[k] != b"[":
                    k -= 1
                items = stack[k + 1 : j] if k >= 0 else []
                parts = []
                for it in items:
                    if isinstance(it, bytes):
                        parts.append(it)
                    elif isinstance(it, float) and it < -180:
                        parts.append(b" ")  # big negative kern = word gap
                show(b"".join(parts))
        except (ValueError, TypeError, IndexError):
            pass
        stack.clear()
    return runs


def _pages_in_order(objects: dict) -> list[dict]:
    """Page dicts in page-tree order (Root -> Pages -> Kids), falling back
    to file order when the tree is broken."""
    roots = [v for v, _ in objects.values() if isinstance(v, dict) and v.get("Type") == "Catalog"]
    ordered: list[dict] = []

    def walk(node):
        node = _resolve(node, objects)
        if not isinstance(node, dict) or len(ordered) > 10000:
            return
        t = node.get("Type")
        if t == "Pages":
            for kid in _resolve(node.get("Kids"), objects) or []:
                walk(kid)
        elif t == "Page":
            ordered.append(node)

    for root in roots:
        walk(root.get("Pages"))
    if not ordered:
        ordered = [
            v for num, (v, _) in sorted(objects.items())
            if isinstance(v, dict) and v.get("Type") == "Page"
        ]
    return ordered


def pdf_page_count(data: bytes) -> int:
    """S2 page-count probe over a real PDF byte stream."""
    return len(_pages_in_order(scan_objects(data)))


def _page_content(page: dict, objects: dict) -> bytes:
    contents = page.get("Contents")
    refs = contents if isinstance(contents, list) else [contents]
    parts = []
    for r in refs:
        if isinstance(r, Ref):
            sdata = _stream_bytes(objects, r.num)
            if sdata is not None:
                parts.append(sdata)
    return b"\n".join(parts)


def _media_height(page: dict, objects: dict) -> float:
    mb = _resolve(page.get("MediaBox"), objects)
    if isinstance(mb, list) and len(mb) == 4:
        try:
            return float(mb[3]) - float(mb[1])
        except (TypeError, ValueError):
            pass
    return 792.0


def _media_width(page: dict, objects: dict) -> float:
    mb = _resolve(page.get("MediaBox"), objects)
    if isinstance(mb, list) and len(mb) == 4:
        try:
            return float(mb[2]) - float(mb[0])
        except (TypeError, ValueError):
            pass
    return 612.0


def _ocr_image_runs(page: dict, objects: dict, h: float, w: float) -> list:
    """Deterministic recognition for IMAGE-ONLY pages (the reference's
    OCR path, apps/queue/src/lib/ocr.ts:77-122, made deterministic):
    when a page shows no text at all, decode its full-page grayscale
    image XObjects (8-bit /DeviceGray with a supported filter — the
    scanned-book fixture shape) and template-match the pixels against
    the rasterizer's own glyph atlas (stages/ocr.py).  Returns
    synthesized TextRuns feeding the SAME line-merge / XY-cut / segment
    path as parsed text, so a scanned page and its text twin extract
    byte-identically.  Non-decodable images (DCT/JPX/CCITT) yield no
    runs — the page salvages as flagged-empty exactly as before.

    An image whose only filter is FlateDecode (no DecodeParms) is
    inflated in slabs of whole rows straight into ``recognize_rows``,
    so the full image never exists in memory.  If that inflate raises
    (corrupt, truncated or short stream), the image takes the full
    ``_decode_stream`` path instead, which salvages what it can — the
    recognized lines are the same either way."""
    res = _resolve(page.get("Resources"), objects)
    xo = _resolve(res.get("XObject"), objects) if isinstance(res, dict) else None
    if not isinstance(xo, dict):
        return []
    runs = []
    for _name, ref in sorted(xo.items()):
        if not isinstance(ref, Ref):
            continue
        val, sdata = objects.get(ref.num, (None, None))
        if (
            not isinstance(val, dict)
            or sdata is None
            or val.get("Subtype") != "Image"
            or val.get("ColorSpace") != "DeviceGray"
            or val.get("BitsPerComponent") != 8
        ):
            continue
        try:
            width, height = int(val["Width"]), int(val["Height"])
        except (KeyError, TypeError, ValueError):
            continue
        if width <= 0 or height <= 0:
            continue
        # contract: the scanned image paints the full page (cm = page
        # box), so pixel->point scale is the width ratio
        scale = width / max(w, 1.0)
        lines = None
        if (
            isinstance(sdata, _Encoded)
            and val.get("Filter") in ("FlateDecode", ["FlateDecode"])
            and val.get("DecodeParms") is None
        ):
            try:
                lines = recognize_rows(_inflate_rows(sdata.raw, width, height), scale=scale)
            except zlib.error:
                pass
        if lines is None:
            sdata = _stream_bytes(objects, ref.num)
            if sdata is None or len(sdata) < width * height:
                continue
            px = np.frombuffer(sdata[: width * height], dtype=np.uint8).reshape(
                height, width
            )
            lines = recognize_pixels(px, scale=scale)
        for x_pt, ty_pt, size_pt, text in lines:
            runs.append(TextRun(x_pt, h - ty_pt - size_pt, size_pt, text))
    return runs


def pdf_page_boxes(data: bytes) -> list[list[tuple[float, float, float, float, str, str]]]:
    """Parse a PDF -> per page, a list of (x0, y0_top_down, x1, y1, role,
    text) boxes ready for the XY-cut path: runs grouped into lines, lines
    merged into paragraph blocks (same left edge + tight leading), roles
    classified by font size + page position (heading / para / footnote /
    pageno)."""
    objects = scan_objects(data)
    pages = _pages_in_order(objects)
    if not pages:
        raise ValueError("pdf: no pages found")
    out = []
    for page in pages:
        h = _media_height(page, objects)
        decoders = page_font_decoders(page, objects)
        runs = interpret_content(
            _page_content(page, objects),
            decoders,
            xobjects=_page_xobjects(page, objects, decoders),
        )
        if not runs:
            # image-only (scanned) page: deterministic template-match
            # recognition over its grayscale image XObjects
            runs = _ocr_image_runs(page, objects, h, _media_width(page, objects))
        # flip to top-down y (XY-cut sorts top-to-bottom ascending y)
        lines: dict[tuple[float, float], list[TextRun]] = {}
        for r in runs:
            key = (round(h - r.y - r.size, 1), round(r.size, 2))
            lines.setdefault(key, []).append(r)
        line_items = []
        for (ty, sz), rs in lines.items():
            rs.sort(key=lambda r: r.x)
            # same-baseline runs merge with a space on small gaps but SPLIT
            # into separate boxes on column-sized gaps (> 3 em) — joining
            # across a column gutter would interleave two-column layouts
            groups: list[list[TextRun]] = [[rs[0]]]
            for prev, cur in zip(rs, rs[1:]):
                gap = cur.x - (prev.x + 0.5 * prev.size * len(prev.text))
                if gap > 3.0 * sz:
                    groups.append([cur])
                else:
                    groups[-1].append(cur)
            for grp in groups:
                text = grp[0].text
                for prev, cur in zip(grp, grp[1:]):
                    gap = cur.x - (prev.x + 0.5 * prev.size * len(prev.text))
                    text += (" " if gap > 0.35 * sz else "") + cur.text
                x0 = grp[0].x
                x1 = grp[-1].x + 0.5 * sz * len(grp[-1].text)
                line_items.append([x0, ty, x1, ty + sz, sz, text])
        if not line_items:
            out.append([])
            continue
        # merge within a COLUMN: sort by (left edge, y) so each column's
        # lines are consecutive; XY-cut re-establishes reading order over
        # the merged blocks afterwards
        line_items.sort(key=lambda it: (it[0], it[1]))
        sizes = sorted(it[4] for it in line_items)
        median = sizes[(len(sizes) - 1) // 2]  # lower median: a 2-line page
        # (heading + one body line) must measure against the BODY size
        merged = []
        for it in line_items:
            if merged:
                p = merged[-1]
                same_col = abs(p[0] - it[0]) < 2.0
                tight = 0 < (it[1] - p[3]) < 0.75 * it[4] or abs(it[1] - p[3]) < 0.01
                same_size = abs(p[4] - it[4]) < 0.01
                if same_col and same_size and tight and abs(it[4] - median) < 0.01:
                    p[5] += " " + it[5]
                    p[2] = max(p[2], it[2])
                    p[3] = it[3]
                    continue
            merged.append(list(it))
        boxes = []
        for x0, ty, x1, by, sz, text in merged:
            if text.strip().isdigit() and len(text.strip()) <= 6:
                role = "pageno"
            elif sz >= 1.25 * median:
                role = "heading"
            elif sz <= 0.8 * median and ty > 0.75 * h:
                role = "footnote"
            else:
                role = "para"
            boxes.append((x0, ty, x1, by, role, text))
        out.append(boxes)
    return out


def _pdf_text_string(v) -> str | None:
    """PDF text-string decode (ISO 32000-1 §7.9.2.2): UTF-16BE when the
    BOM leads, PDFDocEncoding (latin-1 superset — close enough for the
    printable range) otherwise."""
    if isinstance(v, bytes):
        if v[:2] == b"\xfe\xff":
            try:
                return v[2:].decode("utf-16-be")
            except UnicodeDecodeError:
                return v[2:].decode("utf-16-be", "replace")
        return v.decode("latin-1")
    if isinstance(v, str):
        return v
    return None


def pdf_outline(data: bytes) -> list[dict]:
    """Document outline (bookmarks) — the chapter structure a
    multi-volume book carries in metadata (ISO 32000-1 §12.3.3; the
    reference's page-to-chapter segmentation reads the same tree via
    its PDF library): ``[{level, title, page_index}]`` in reading
    order.  Destinations resolve through both the direct ``/Dest``
    array and the ``/A`` GoTo action; items whose destination page
    cannot be resolved report ``page_index = None``.  Broken or absent
    outline trees yield ``[]`` (never a raise — the M5 salvage rule)."""
    objects = scan_objects(data)
    pages = _pages_in_order(objects)
    index_of = {id(p): i for i, p in enumerate(pages)}
    # Ref -> page dict identity (pages resolve to the same dict objects)
    out: list[dict] = []

    def page_index(dest) -> int | None:
        dest = _resolve(dest, objects)
        if isinstance(dest, dict):  # named-destination dict {D: [...]}
            dest = _resolve(dest.get("D"), objects)
        if isinstance(dest, list) and dest:
            pg = _resolve(dest[0], objects)
            return index_of.get(id(pg))
        return None

    def walk(node, level: int, seen: set) -> None:
        node = _resolve(node, objects)
        while isinstance(node, dict) and len(out) < 10000:
            if id(node) in seen:  # cycle guard
                return
            seen.add(id(node))
            title = _pdf_text_string(node.get("Title"))
            dest = node.get("Dest")
            if dest is None:
                act = _resolve(node.get("A"), objects)
                if isinstance(act, dict):
                    dest = act.get("D")
            if title is not None:
                out.append(
                    {
                        "level": level,
                        "title": title,
                        "page_index": page_index(dest),
                    }
                )
            if node.get("First") is not None:
                walk(node.get("First"), level + 1, seen)
            node = _resolve(node.get("Next"), objects)

    try:
        roots = [
            v for v, _ in objects.values()
            if isinstance(v, dict) and v.get("Type") == "Catalog"
        ]
        for root in roots:
            ol = _resolve(root.get("Outlines"), objects)
            if isinstance(ol, dict):
                walk(ol.get("First"), 1, set())
    except (ValueError, TypeError, KeyError, RecursionError):
        return []
    return out


_INFO_RE = re.compile(rb"/Info\s+(\d+)\s+\d+\s+R")


def pdf_info(data: bytes) -> dict:
    """Document Info dictionary (ISO 32000-1 §14.3.3 — Title / Author /
    Subject / Keywords / Producer / CreationDate, the catalog metadata
    the reference's record normalizer ingests): resolved via the LAST
    trailer's ``/Info`` reference (incremental updates supersede), text
    strings decoded per §7.9.2.2.  Absent or broken → ``{}`` (the M5
    salvage rule)."""
    m = None
    for m in _INFO_RE.finditer(data):
        pass
    if m is None:
        return {}
    try:
        objects = scan_objects(data)
        v, _ = objects.get(int(m.group(1)), (None, None))
        if not isinstance(v, dict):
            return {}
        out = {}
        for k, raw in v.items():
            s = _pdf_text_string(raw)
            if s is not None:
                out[k] = s
        return out
    except (ValueError, TypeError, KeyError):
        return {}
