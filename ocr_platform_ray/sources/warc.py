"""WARC / WET readers and writers (ISO 28500 / WARC 1.0-1.1) — the native
container format of Common-Crawl-style corpora, which the north-star input
table models (BASELINE.json input_hint: url / warc_ts / html / text / lang).

Reference parity: the reference ingests raw page blobs fetched per book
(``apps/queue/src/lib/ocr.ts:20-33``) — this module is the batch analogue
for web-archive input: a crawl segment's ``.warc.gz`` files become the
pages table directly, so the flagship extraction pipeline
(``pipelines/extraction.py``) runs unchanged over either layout, and
extracted text can be emitted back out as WET ``conversion`` records (the
format Common Crawl itself publishes extracted text in).

Scale shape
-----------
* ``read_warc`` parallelism is per *file* — exactly how crawl archives are
  laid out (many ~1 GiB independent ``.warc.gz`` members per segment).
  Each file is parsed by one task that *streams* records off a
  decompressing reader and yields Arrow batches of ``batch_rows`` pages, so
  a file never has to fit decompressed in worker heap and downstream
  stages pipeline behind the parse (generator ``map_batches`` UDF).
* Record parsing is sequential per file by format construction (WARC is a
  concatenated-record byte stream; gzip members are the only split points)
  — the per-record Python loop is the format floor, and gzip inflate + I/O
  dominate it.  Everything after the parse is vectorized Arrow.
* Writers emit one gzip *member per record* (the Common Crawl convention,
  WARC 1.0 annex D) so future range-splitting readers can resynchronize.

Format notes (from the public spec, ISO 28500:2017 / iipc warc-1.1):
* record = version line, named fields (continuation lines start with
  space/tab), CRLF CRLF, ``Content-Length`` body octets, CRLF CRLF.
* ``response`` records carry ``application/http; msgtype=response`` — the
  page payload follows the first CRLFCRLF of the HTTP block.
* ``revisit`` records (profile ``identical-payload-digest``) mark captures
  whose payload was not stored — mapped to ``html = NULL`` (the pages
  table's missing-payload salvage path, M5).
* ``conversion`` records carry derived text (WET) — mapped to ``text``.
* ``WARC-Identified-Content-Language`` is the Common-Crawl extension field
  for detected language; extension fields are explicitly allowed by the
  spec and ignored by other tools.
"""

from __future__ import annotations

import datetime
import gzip
import hashlib
import io
import os

import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..schemas import PAGES_SCHEMA

_CRLF = b"\r\n"
_GZIP_MAGIC = b"\x1f\x8b"
_REVISIT_PROFILE = "http://netpreserve.org/warc/1.0/revisit/identical-payload-digest"


# ---------------------------------------------------------------------------
# Record-level primitives (pure functions of bytes — unit-testable)
# ---------------------------------------------------------------------------

def _warc_date(ts: datetime.datetime) -> str:
    """ISO 8601 Z form; fractional seconds only when present (WARC 1.0
    mandates second granularity, 1.1 allows higher — we round-trip both)."""
    if ts.microsecond:
        return ts.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_warc_date(s: str) -> datetime.datetime:
    s = s.strip()
    if s.endswith("Z"):
        s = s[:-1]
    fmt = "%Y-%m-%dT%H:%M:%S.%f" if "." in s else "%Y-%m-%dT%H:%M:%S"
    return datetime.datetime.strptime(s, fmt)


def _record_id(*parts: str) -> str:
    """Deterministic urn:uuid record id (spec requires globally-unique ids;
    hashing the identifying fields keeps fixture bytes reproducible)."""
    h = hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()
    return f"<urn:uuid:{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:32]}>"


def build_record(
    warc_type: str,
    headers: list[tuple[str, str]],
    body: bytes,
) -> bytes:
    """Serialize one WARC/1.0 record (uncompressed)."""
    lines = [b"WARC/1.0", f"WARC-Type: {warc_type}".encode("utf-8")]
    for k, v in headers:
        lines.append(f"{k}: {v}".encode("utf-8"))
    lines.append(f"Content-Length: {len(body)}".encode("utf-8"))
    head = _CRLF.join(lines) + _CRLF + _CRLF
    return head + body + _CRLF + _CRLF


def response_record(
    url: str,
    ts: datetime.datetime,
    payload: bytes,
    *,
    lang: str = "",
    http_content_type: str = "text/html",
) -> bytes:
    """One stored capture: WARC response record wrapping an HTTP/1.1 block."""
    http = (
        b"HTTP/1.1 200 OK\r\n"
        + f"Content-Type: {http_content_type}\r\n".encode("utf-8")
        + f"Content-Length: {len(payload)}\r\n".encode("utf-8")
        + _CRLF
        + payload
    )
    headers = [
        ("WARC-Record-ID", _record_id("response", url, _warc_date(ts))),
        ("WARC-Date", _warc_date(ts)),
        ("WARC-Target-URI", url),
        ("Content-Type", "application/http; msgtype=response"),
    ]
    if lang:
        headers.append(("WARC-Identified-Content-Language", lang))
    return build_record("response", headers, http)


def revisit_record(url: str, ts: datetime.datetime, *, lang: str = "") -> bytes:
    """Capture whose payload was not stored (maps back to html = NULL)."""
    headers = [
        ("WARC-Record-ID", _record_id("revisit", url, _warc_date(ts))),
        ("WARC-Date", _warc_date(ts)),
        ("WARC-Target-URI", url),
        ("WARC-Profile", _REVISIT_PROFILE),
    ]
    if lang:
        headers.append(("WARC-Identified-Content-Language", lang))
    return build_record("revisit", headers, b"")


def warcinfo_record(filename: str) -> bytes:
    body = b"software: ocr-platform-ray\r\nformat: WARC File Format 1.0\r\n"
    headers = [
        ("WARC-Record-ID", _record_id("warcinfo", filename)),
        ("WARC-Date", _warc_date(datetime.datetime(2024, 1, 1))),
        ("WARC-Filename", filename),
        ("Content-Type", "application/warc-fields"),
    ]
    return build_record("warcinfo", headers, body)


def _iter_records(stream: io.BufferedIOBase):
    """Yield (headers: dict lower->str, body: bytes) per record off a
    buffered byte stream.  Tolerates leading blank lines between records
    and header continuation lines (space/tab prefix, spec §4)."""
    while True:
        line = stream.readline()
        if not line:
            return
        if line in (_CRLF, b"\n"):
            continue  # inter-record padding already consumed
        if not line.startswith(b"WARC/"):
            raise ValueError(f"expected WARC version line, got {line[:40]!r}")
        headers: dict[str, str] = {}
        last_key = None
        while True:
            line = stream.readline()
            if not line:
                raise ValueError("truncated WARC header block")
            if line in (_CRLF, b"\n"):
                break
            if line[:1] in (b" ", b"\t") and last_key is not None:
                headers[last_key] += " " + line.decode("utf-8", "replace").strip()
                continue
            k, _, v = line.decode("utf-8", "replace").partition(":")
            last_key = k.strip().lower()
            headers[last_key] = v.strip()
        n = int(headers.get("content-length", "0"))
        body = stream.read(n)
        if len(body) != n:
            raise ValueError("truncated WARC record body")
        yield headers, body


def _open_warc(path: str) -> io.BufferedIOBase:
    raw = open(path, "rb")
    magic = raw.read(2)
    raw.seek(0)
    if magic == _GZIP_MAGIC:
        # GzipFile transparently reads concatenated members (one per record)
        return io.BufferedReader(gzip.GzipFile(fileobj=raw))  # type: ignore[arg-type]
    return io.BufferedReader(raw)  # type: ignore[arg-type]


def _http_payload(body: bytes) -> bytes:
    """Payload of an application/http block = octets after the first
    CRLFCRLF (the payload itself may contain CRLFCRLF — split once)."""
    i = body.find(b"\r\n\r\n")
    return body[i + 4 :] if i >= 0 else body


def parse_warc_file(
    path: str,
    *,
    record_types: tuple[str, ...] = ("response", "revisit"),
    batch_rows: int = 256,
):
    """Generator: stream a WARC/WET file into pages-schema Arrow tables.

    ``response`` -> html bytes (text ""); ``revisit`` -> html NULL;
    ``conversion`` -> text (html NULL).  Other record types are skipped.
    """
    urls: list[str] = []
    tss: list[datetime.datetime] = []
    htmls: list[bytes | None] = []
    texts: list[str] = []
    langs: list[str] = []

    def flush() -> pa.Table:
        t = pa.Table.from_pydict(
            {"url": urls, "warc_ts": tss, "html": htmls, "text": texts, "lang": langs},
            schema=PAGES_SCHEMA,
        )
        urls.clear(), tss.clear(), htmls.clear(), texts.clear(), langs.clear()
        return t

    stream = _open_warc(path)
    try:
        for headers, body in _iter_records(stream):
            wt = headers.get("warc-type", "")
            if wt not in record_types:
                continue
            urls.append(headers.get("warc-target-uri", ""))
            tss.append(_parse_warc_date(headers.get("warc-date", "1970-01-01T00:00:00Z")))
            langs.append(headers.get("warc-identified-content-language", ""))
            if wt == "response":
                ctype = headers.get("content-type", "")
                payload = _http_payload(body) if ctype.startswith("application/http") else body
                htmls.append(payload)
                texts.append("")
            elif wt == "revisit":
                htmls.append(None)
                texts.append("")
            else:  # conversion (WET)
                htmls.append(None)
                texts.append(body.decode("utf-8", "replace"))
            if len(urls) >= batch_rows:
                yield flush()
    finally:
        stream.close()
    if urls:
        yield flush()
    else:
        # typed-empty so an all-skipped file still contributes schema
        yield pa.Table.from_pydict({n: [] for n in PAGES_SCHEMA.names}, schema=PAGES_SCHEMA)


# ---------------------------------------------------------------------------
# Dataset-level API
# ---------------------------------------------------------------------------

def read_warc(
    paths: list[str] | str,
    *,
    record_types: tuple[str, ...] = ("response", "revisit"),
    batch_rows: int = 256,
) -> rd.Dataset:
    """Crawl-archive files -> pages-table Dataset (PAGES_SCHEMA).

    One parse task per file (the archive's natural partition unit); each
    task is a generator yielding ``batch_rows``-row Arrow tables, so blocks
    stream out with backpressure instead of materializing a decompressed
    file.  Paths must be worker-visible (shared store), same contract as
    ``read_parquet`` everywhere else in the engine.
    """
    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = sorted(
                os.path.join(paths, f)
                for f in os.listdir(paths)
                if f.endswith((".warc", ".warc.gz", ".wet", ".wet.gz"))
            )
        else:
            paths = [paths]
    if not paths:
        raise ValueError("read_warc: no input files")

    def parse(batch: pd.DataFrame):
        for p in batch["path"]:
            yield from parse_warc_file(
                p, record_types=record_types, batch_rows=batch_rows
            )

    files = rd.from_items([{"path": p} for p in paths])
    return files.map_batches(parse, batch_size=1, batch_format="pandas")


def write_warc(
    path: str,
    rows,
    *,
    compress: bool = True,
    warcinfo: bool = True,
) -> str:
    """Serialize page rows (dicts with url/warc_ts/html/lang) to one WARC
    file — gzip member per record when ``compress`` (the CC layout).
    Atomic publish (tmp + rename) so a killed writer never leaves a
    half-file a resuming reader would trip on."""
    tmp = path + ".tmp"

    def emit(out, rec: bytes):
        out.write(gzip.compress(rec, mtime=0) if compress else rec)

    with open(tmp, "wb") as out:
        if warcinfo:
            emit(out, warcinfo_record(os.path.basename(path)))
        for r in rows:
            ts = r["warc_ts"]
            if isinstance(ts, pd.Timestamp):
                ts = ts.to_pydatetime()
            html = r.get("html")
            lang = r.get("lang", "") or ""
            if html is None:
                emit(out, revisit_record(r["url"], ts, lang=lang))
            else:
                emit(out, response_record(r["url"], ts, bytes(html), lang=lang))
    os.replace(tmp, path)
    return path


def write_pages_warc(
    out_dir: str,
    table: pa.Table,
    *,
    urls_per_shard: int = 20,
    compress: bool = True,
) -> list[str]:
    """Pages table -> sharded ``.warc.gz`` fixture layout: shard by url (a
    url's captures stay in one file, mirroring the url-ranged parquet
    shards) with page order inside a shard preserved."""
    os.makedirs(out_dir, exist_ok=True)
    rows = table.to_pylist()
    order: list[str] = []
    seen: set[str] = set()
    for r in rows:
        if r["url"] not in seen:
            seen.add(r["url"])
            order.append(r["url"])
    shard_of = {u: i // urls_per_shard for i, u in enumerate(order)}
    shards: dict[int, list[dict]] = {}
    for r in rows:
        shards.setdefault(shard_of[r["url"]], []).append(r)
    ext = ".warc.gz" if compress else ".warc"
    return [
        write_warc(os.path.join(out_dir, f"crawl-{s:05d}{ext}"), shards[s], compress=compress)
        for s in sorted(shards)
    ]
