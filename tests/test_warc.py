"""WARC / WET source tests (sources/warc.py): record-level roundtrips,
parser tolerance (continuation headers, fractional dates, gzip vs plain),
and the extraction route-equivalence invariant."""

import datetime
import gzip

import pandas as pd
import pyarrow as pa
import pytest

from ocr_platform_ray.corpus import make_pages_table
from ocr_platform_ray.schemas import PAGES_SCHEMA
from ocr_platform_ray.sources.warc import (
    build_record,
    parse_warc_file,
    read_warc,
    response_record,
    warcinfo_record,
    write_pages_warc,
    write_warc,
)


def _cleared_text(t: pa.Table) -> pa.Table:
    return t.set_column(
        t.schema.get_field_index("text"), "text", pa.array([""] * len(t), pa.string())
    )


@pytest.mark.usefixtures("ray_session")
class TestWarcSource:
    def test_roundtrip_pages_table(self, tmp_path):
        # 24 urls covers: real-PDF binary payloads (url 8, 20), missing
        # payload -> revisit (url 2), Arabic langs, cp1252 bytes (url 6)
        t = make_pages_table(24)
        paths = write_pages_warc(str(tmp_path / "warc"), t, urls_per_shard=5)
        assert len(paths) == 5
        got = (
            read_warc(paths)
            .to_pandas()
            .sort_values(["url", "warc_ts"])
            .reset_index(drop=True)
        )
        want = (
            _cleared_text(t)
            .to_pandas()
            .sort_values(["url", "warc_ts"])
            .reset_index(drop=True)
        )
        assert list(got["url"]) == list(want["url"])
        assert list(got["warc_ts"]) == list(want["warc_ts"])
        assert list(got["lang"]) == list(want["lang"])
        for g, w in zip(got["html"], want["html"]):
            if w is None:
                assert g is None  # revisit record -> NULL payload
            else:
                assert bytes(g) == bytes(w)  # byte-identical incl. PDF binary
        assert (got["text"] == "").all()

    def test_plain_equals_gzip(self, tmp_path):
        t = make_pages_table(6)
        rows = t.to_pylist()
        p_gz = write_warc(str(tmp_path / "a.warc.gz"), rows, compress=True)
        p_plain = write_warc(str(tmp_path / "a.warc"), rows, compress=False)
        a = pa.concat_tables(parse_warc_file(p_gz)).to_pandas()
        b = pa.concat_tables(parse_warc_file(p_plain)).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        # gzip file really is per-record concatenated members
        raw = open(p_gz, "rb").read()
        assert raw.count(b"\x1f\x8b\x08") >= len(rows)

    def test_header_continuation_and_fractional_date(self, tmp_path):
        rec = build_record(
            "response",
            [
                ("WARC-Record-ID", "<urn:uuid:0>"),
                ("WARC-Date", "2024-03-05T06:07:08.250000Z"),
                ("WARC-Target-URI", "https://example.org/a"),
                ("Content-Type", "application/http; msgtype=response"),
            ],
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<p>hi</p>",
        )
        # fold the Content-Type header onto a continuation line (spec 4)
        rec = rec.replace(
            b"Content-Type: application/http; msgtype=response",
            b"Content-Type: application/http;\r\n\t msgtype=response",
        )
        # recompute nothing: Content-Length covers the body only, unchanged
        path = tmp_path / "c.warc"
        path.write_bytes(rec)
        [tbl] = list(parse_warc_file(str(path)))
        assert tbl.column("html").to_pylist() == [b"<p>hi</p>"]
        assert tbl.column("warc_ts").to_pylist() == [
            datetime.datetime(2024, 3, 5, 6, 7, 8, 250000)
        ]

    def test_payload_containing_crlfcrlf_splits_once(self, tmp_path):
        payload = b"before\r\n\r\nafter"  # payload with an embedded blank line
        rec = response_record(
            "https://example.org/x", datetime.datetime(2024, 1, 1), payload
        )
        path = tmp_path / "d.warc"
        path.write_bytes(rec)
        [tbl] = list(parse_warc_file(str(path)))
        assert tbl.column("html").to_pylist() == [payload]

    def test_skipped_only_file_yields_typed_empty(self, tmp_path):
        path = tmp_path / "e.warc"
        path.write_bytes(warcinfo_record("e.warc"))
        ds = read_warc(str(path))
        assert ds.count() == 0
        assert ds.schema().names == PAGES_SCHEMA.names

    def test_truncated_file_raises(self, tmp_path):
        rec = response_record(
            "https://example.org/t", datetime.datetime(2024, 1, 1), b"x" * 100
        )
        path = tmp_path / "f.warc"
        path.write_bytes(rec[: len(rec) - 60])
        with pytest.raises(ValueError, match="truncated"):
            list(parse_warc_file(str(path)))

    def test_directory_input_and_extension_filter(self, tmp_path):
        t = make_pages_table(4)
        write_pages_warc(str(tmp_path), t, urls_per_shard=2)
        (tmp_path / "notes.txt").write_text("ignore me")
        got = read_warc(str(tmp_path)).to_pandas()
        assert len(got) == len(t)

    def test_extraction_route_equivalence_query(self):
        from ocr_platform_ray.pipelines.queries import QUERIES

        out = QUERIES["warc_extract_docs"]("unused")
        assert len(out) == 40
        assert list(out.columns) == ["url", "n_pages", "total_words", "text_sha256"]
