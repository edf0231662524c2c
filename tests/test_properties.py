"""Property-based tests (hypothesis): invariants that must hold for ANY
input, not just fixture cases (SURVEY.md §5 item 3)."""

import datetime
import unicodedata

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ocr_platform_ray.functions.hijri import gregorian_to_hijri, hijri_to_gregorian
from ocr_platform_ray.functions.score import command_score
from ocr_platform_ray.functions.slug import slugify
from ocr_platform_ray.functions.text import count_words, normalize_text
from ocr_platform_ray.stages.extract import extract_page
from ocr_platform_ray.stages.skew import split_payload


class TestExtractTotal:
    """extract_page is a TOTAL function: any bytes in, a valid row out."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=2000), st.text(max_size=200))
    def test_never_raises_and_shape_stable(self, payload, prior):
        r = extract_page(payload, prior)
        assert set(r) == {
            "header", "body", "footnotes", "page_number", "spans",
            "total_words", "flags", "failed_stage",
        }
        assert isinstance(r["body"], str)
        assert r["total_words"] >= 0
        for s in r["spans"]:
            assert 0 <= s["start"] <= s["end"] <= len(r["body"].encode("utf-8"))

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=1000), st.text(max_size=100))
    def test_deterministic(self, payload, prior):
        assert extract_page(payload, prior) == extract_page(payload, prior)


class TestSplitPayloadProps:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=5000), st.integers(min_value=16, max_value=1000))
    def test_lossless_and_bounded(self, blob, max_bytes):
        chunks = split_payload(blob, max_bytes)
        assert b"".join(chunks) == blob
        if len(blob) > max_bytes:
            # every chunk respects the bound up to one block-boundary overhang
            assert all(len(c) <= max_bytes for c in chunks)


def _normalize_text_regex_only(text: str) -> str:
    """normalize_text without its printable fast path (the oracle)."""
    from ocr_platform_ray.functions import text as T

    t = text if text.isascii() else unicodedata.normalize("NFC", text).replace("\u00ad", "")
    t = T._WS_RE.sub(" ", T._CTRL_RE.sub("", t))
    if "\n" not in t:
        return t.strip()
    t = "\n".join(ln.strip() for ln in t.split("\n")).strip()
    return T._MULTI_NL_RE.sub("\n\n", t)


def _count_words_regex_only(text: str | None) -> int:
    """count_words without its ASCII fast path (the oracle)."""
    from ocr_platform_ray.functions.text import WORD_RE, strip_html

    return len(WORD_RE.findall(strip_html(text))) if text else 0


# control, format, whitespace, NBSP, soft hyphen, ZWSP, BOM, Arabic mark,
# tag and entity pieces: every character class the fast paths branch on
_ADVERSARIAL = st.lists(
    st.sampled_from(
        [
            "a", "Z", "9", "_", "-", ".", " ", "  ", "\t", "\n", "\n\n\n", "\r",
            "\f", "\v", "\x00", "\x1f", "\x7f", "\x85", "\x9f", "\u00a0",
            "\u00ad", "\u200b", "\u200d", "\u202a", "\u2060", "\u2064",
            "\ufeff", "\u2028", "\u3000", "\u064e", "\u0301", "e\u0301",
            "\u00e9", "\u0643\u0650\u062a\u064e\u0627\u0628", "\u0663",
            "\u00b2", "<p>", "</b>", "<", ">", "&amp;", "&",
        ]
    ),
    max_size=16,
).map("".join)
# printable-only pieces: the strings that take normalize_text's fast path
_PRINTABLE = st.lists(
    st.sampled_from(["a", "9", "_", " ", "  ", "   ", "\u00e9", "\u064e", "<b>", "&amp;"]),
    max_size=12,
).map("".join)
_TEXTS = st.one_of(_ADVERSARIAL, _PRINTABLE, st.text(max_size=60))


class TestTextFastPathOracle:
    @settings(max_examples=500, deadline=None)
    @given(_TEXTS)
    def test_normalize_text_equals_regex_only(self, t):
        assert normalize_text(t) == _normalize_text_regex_only(t)

    @settings(max_examples=500, deadline=None)
    @given(_TEXTS)
    def test_count_words_equals_regex_only(self, t):
        assert count_words(t) == _count_words_regex_only(t)


class TestScalarProps:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=300))
    def test_normalize_idempotent(self, t):
        once = normalize_text(t)
        assert normalize_text(once) == once

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=300))
    def test_slug_charset(self, t):
        s = slugify(t)
        assert all(c.islower() or c.isdigit() or c == "-" for c in s)
        assert not s.startswith("-") and not s.endswith("-")

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_word_count_nonneg_and_ws_insensitive(self, t):
        n = count_words(t)
        assert n >= 0
        assert count_words("  " + t + "  ") == n

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=30), st.text(max_size=10))
    def test_command_score_bounds(self, target, query):
        s = command_score(target, query)
        assert 0.0 <= s <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=1500),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=29),
    )
    def test_hijri_roundtrip(self, hy, hm, hd):
        g = hijri_to_gregorian(hy, hm, hd)
        assert gregorian_to_hijri(*g) == (hy, hm, hd)

    @settings(max_examples=100, deadline=None)
    @given(st.dates(min_value=datetime.date(700, 1, 1), max_value=datetime.date(2500, 1, 1)))
    def test_gregorian_roundtrip(self, d):
        h = gregorian_to_hijri(d.year, d.month, d.day)
        assert hijri_to_gregorian(*h) == (d.year, d.month, d.day)


class TestPdfParserTotal:
    """The PDF byte-stream path is TOTAL under extract_page: any bytes
    after a %PDF- magic produce a valid salvaged row, never an exception."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=2000), st.text(max_size=100))
    def test_pdf_prefixed_fuzz_never_raises(self, junk, prior):
        r = extract_page(b"%PDF-1.5\n" + junk, prior)
        assert isinstance(r["body"], str)
        assert r["failed_stage"] in (None, "CONVERT_TO_HTML", "SEGMENT")

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=1000))
    def test_pdf_fuzz_deterministic(self, junk):
        payload = b"%PDF-" + junk
        assert extract_page(payload, "") == extract_page(payload, "")


class TestLevenshteinProps:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetry_and_bounds(self, a, b):
        from ocr_platform_ray.ops.fuzzy import levenshtein

        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert d >= abs(len(a) - len(b))
        assert d <= max(len(a), len(b))
        assert (d == 0) == (a == b)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
    def test_triangle_inequality(self, a, b, c):
        from ocr_platform_ray.ops.fuzzy import levenshtein

        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=10), st.text(max_size=10), st.integers(min_value=0, max_value=4))
    def test_cutoff_consistent(self, a, b, k):
        from ocr_platform_ray.ops.fuzzy import levenshtein

        full = levenshtein(a, b)
        cut = levenshtein(a, b, cutoff=k)
        assert (cut == full) if full <= k else (cut > k)


class TestSketchProps:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=400),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_within_range(self, vals, q):
        import numpy as np

        from ocr_platform_ray.ops.sketch import sketch_from_values, sketch_quantile

        sk = sketch_from_values(np.array(vals), k=64)
        est = sketch_quantile(sk, q)
        assert min(vals) - 1e-9 <= est <= max(vals) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=64))
    def test_exact_under_k(self, vals):
        import numpy as np

        from ocr_platform_ray.ops.sketch import sketch_from_values, sketch_quantile

        sk = sketch_from_values(np.array(vals), k=64)
        assert abs(sketch_quantile(sk, 0.5) - float(np.median(vals))) < 1e-9


class TestBpeProps:
    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
    def test_encode_reconstructs_pretokens(self, t):
        from ocr_platform_ray.functions.bpe import BpeTokenizer, load_merges, pretokenize

        tok = BpeTokenizer(load_merges())
        toks = tok.encode(t)
        joined = "".join(toks).replace("</w>", " ").strip()
        assert joined == " ".join(pretokenize(t.lower()))


class TestCodecProps:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1, 3, 4]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_png_roundtrip_any_shape(self, h, w, ch, seed):
        import numpy as np

        from ocr_platform_ray.multimodal.codecs import decode_png, encode_png

        rng = np.random.RandomState(seed)
        img = rng.randint(0, 256, (h, w) if ch == 1 else (h, w, ch), dtype=np.uint8)
        got = decode_png(encode_png(img))
        assert got.shape == (h, w, 3)
        if ch == 3:
            assert np.array_equal(got, img)
        elif ch == 4:
            assert np.array_equal(got, img[..., :3])
        else:
            assert np.array_equal(got[..., 0], img)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=500),
        st.sampled_from([8000, 16000, 44100]),
    )
    def test_wav_roundtrip(self, samples, sr):
        import numpy as np

        from ocr_platform_ray.multimodal.codecs import decode_wav, encode_wav

        x, got_sr = decode_wav(encode_wav(np.array(samples), sr))
        assert got_sr == sr and len(x) == len(samples)
        assert np.abs(x - np.array(samples)).max() < 1e-3


class TestAesProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.binary(min_size=16, max_size=16),
        st.sampled_from([16, 24, 32]),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cbc_roundtrip_any_key_any_length(self, iv, klen, n_blocks, seed):
        import numpy as np

        from ocr_platform_ray.stages.aes import aes_cbc_decrypt, aes_cbc_encrypt

        rng = np.random.RandomState(seed)
        key = rng.bytes(klen)
        data = rng.bytes(16 * n_blocks)
        assert aes_cbc_decrypt(key, iv, aes_cbc_encrypt(key, iv, data)) == data

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_pkcs7_roundtrip(self, data):
        from ocr_platform_ray.stages.aes import pkcs7_pad, pkcs7_unpad

        padded = pkcs7_pad(data)
        assert len(padded) % 16 == 0 and len(padded) > len(data)
        assert pkcs7_unpad(padded) == data


class TestUrlProperties:
    _url = st.builds(
        lambda scheme, www, host, port, path, params, frag: (
            scheme + "://" + www + host + port + path
            + ("?" + "&".join(params) if params else "")
            + frag
        ),
        st.sampled_from(["http", "HTTP", "https", "HTTPS"]),
        st.sampled_from(["", "www.", "WWW."]),
        st.from_regex(r"[a-z][a-z0-9\-]{0,10}\.(com|org)", fullmatch=True),
        st.sampled_from(["", ":80", ":443", ":8080"]),
        st.from_regex(r"(/[a-z0-9]{0,6}){0,3}/?", fullmatch=True),
        st.lists(st.from_regex(r"(utm_)?[a-z]{1,4}=[a-z0-9]{0,4}", fullmatch=True), max_size=4),
        st.sampled_from(["", "#frag", "#a/b?c=1"]),
    )

    @settings(max_examples=150, deadline=None)
    @given(_url)
    def test_canonicalize_idempotent(self, url):
        from ocr_platform_ray.functions.url import canonicalize_url

        c = canonicalize_url(url)
        assert canonicalize_url(c) == c

    @settings(max_examples=150, deadline=None)
    @given(_url)
    def test_canonicalize_insensitive_to_noise(self, url):
        # fragment and utm params never change the canonical form
        from ocr_platform_ray.functions.url import canonicalize_url

        base = url.split("#", 1)[0]
        sep = "&" if "?" in base else "?"
        assert canonicalize_url(base + sep + "utm_x=1#other") == canonicalize_url(url)


class TestDupSpanKernelProps:
    """Pure-kernel invariants of ops/spans.py (no Ray): window-hash
    grouping must equal window-STRING grouping, coverage must equal the
    naive interval union, and stats/strip must agree token-for-token."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["a", "b", "c"]), min_size=0, max_size=12
            ).map(" ".join),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=2, max_value=4),
    )
    def test_stats_strip_coverage_consistency(self, texts, width):
        import numpy as np

        from ocr_platform_ray.ops.spans import (
            _batch_windows,
            _coverage_lengths,
            _in_sorted,
        )

        row_idx, pos, gh, n_win, offs, flat_toks = _batch_windows(texts, width)

        # naive model over window STRINGS (the tiny alphabet forces real
        # duplicates; a 64-bit hash collision would need ~2^32 windows)
        from collections import Counter

        win_strings = []
        for i, t in enumerate(texts):
            toks = t.split(" ")
            for j in range(max(len(toks) - width + 1, 0)):
                win_strings.append((i, j, " ".join(toks[j : j + width])))
        assert len(win_strings) == len(gh)
        cnt = Counter(s for _, _, s in win_strings)

        # hash grouping == string grouping (same multiset of group sizes
        # AND same per-window duplicated flag)
        hcnt = Counter(gh.tolist())
        want_dup = np.array([cnt[s] >= 2 for _, _, s in win_strings])
        got_dup = np.array([hcnt[h] >= 2 for h in gh.tolist()])
        assert (want_dup == got_dup).all()

        # coverage == naive interval union of duplicated windows
        dup_sorted = np.sort(np.unique(gh[got_dup])) if got_dup.any() else np.empty(0, dtype=np.int64)
        is_dup = _in_sorted(dup_sorted, gh)
        cov = _coverage_lengths(row_idx[is_dup], pos[is_dup], width, len(texts))
        for i, t in enumerate(texts):
            covered = set()
            for r, j, s in win_strings:
                if r == i and cnt[s] >= 2:
                    covered.update(range(j, j + width))
            assert cov[i] == len(covered)
            # stats/strip agreement: stripping removes EXACTLY the
            # covered tokens
            toks = t.split(" ")
            kept = [tok for j, tok in enumerate(toks) if j not in covered]
            assert len(toks) - cov[i] == len(kept)


def _job_files(n_urls, n_files, interleave, split, shuffle, null):
    """The whole input and its files: urls in ranges of consecutive urls
    or dealt round-robin; ``split = (url, distance)`` moves a many-page
    url's first page ``distance`` files on; ``shuffle`` seeds a row order
    inside each file; ``null`` nulls one url."""
    import random

    import pyarrow as pa

    from ocr_platform_ray.corpus import make_pages_table, n_pages_for, url_for
    from ocr_platform_ray.pipelines.extraction import PAGE_COLUMNS

    t = make_pages_table(n_urls).select(PAGE_COLUMNS)
    home = {url_for(u): u % n_files if interleave else u * n_files // n_urls for u in range(n_urls)}
    urls = t.column("url").to_pylist()
    file_of = [home[u] for u in urls]
    if split is not None and n_files > 1:
        many = [url_for(u) for u in range(n_urls) if n_pages_for(u) >= 2]
        url, distance = many[split[0] % len(many)], 1 + split[1] % (n_files - 1)
        ts = t.column("warc_ts").to_pylist()
        first = min((i for i, u in enumerate(urls) if u == url), key=lambda i: ts[i])
        file_of[first] = (home[url] + distance) % n_files
    if null is not None:
        gone = url_for(null % n_urls)
        t = t.set_column(0, "url", pa.array([None if u == gone else u for u in urls], pa.string()))
    files = []
    for k in range(n_files):
        rows = [i for i, f in enumerate(file_of) if f == k]
        if shuffle is not None:
            random.Random(shuffle + k).shuffle(rows)
        files.append(t.take(rows))
    return t, files


@pytest.mark.usefixtures("ray_session")
class TestJobPublishesEachUrlOnce:
    """The job's invariant under any layout, grouping, rerun and redo:
    each named url is published once, with the doc that extracting and
    reassembling the whole input in one process gives it, and every
    published part has its manifest."""

    def _check(self, out, want):
        import glob
        import os

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from ocr_platform_ray.state.manifest import completed_parts

        files = glob.glob(os.path.join(out, "part-*", "*.parquet"))
        docs = pa.concat_tables([pq.read_table(f) for f in files]).select(want.schema.names)
        named = docs.filter(pc.is_valid(docs.column("url"))).to_pylist()
        assert len({d["url"] for d in named}) == len(named), "a url is published twice"
        ref = want.filter(pc.is_valid(want.column("url"))).to_pylist()
        assert {d["url"]: d for d in named} == {d["url"]: d for d in ref}
        null_pages = [pc.sum(t.filter(pc.is_null(t.column("url"))).column("n_pages")).as_py()
                      for t in (docs, want)]
        assert null_pages[0] == null_pages[1]
        dirs = {int(d[-5:]) for d in glob.glob(os.path.join(out, "part-?????"))}
        assert dirs == set(completed_parts(out))

    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_urls=st.integers(4, 12),
        n_files=st.integers(1, 4),
        interleave=st.booleans(),
        split=st.none() | st.tuples(st.integers(0, 11), st.integers(0, 2)),
        shuffle=st.none() | st.integers(0, 99),
        stats=st.booleans(),
        null=st.none() | st.integers(0, 11),
        fpp=st.integers(1, 4),
        fpp_rerun=st.integers(1, 4),
        partitioned=st.booleans(),
        redo=st.integers(0, 11),
    )
    # one url's first page in file 0, its other pages in file 3, 2 files
    # per part: each part once published its own copy of the url
    @example(n_urls=12, n_files=4, interleave=True, split=(1, 0), shuffle=None, stats=True,
             null=None, fpp=2, fpp_rerun=4, partitioned=False, redo=3)
    def test_run_rerun_redo(self, n_urls, n_files, interleave, split, shuffle, stats, null,
                            fpp, fpp_rerun, partitioned, redo):
        import os
        import tempfile

        import pyarrow.parquet as pq

        from ocr_platform_ray.corpus import url_for
        from ocr_platform_ray.pipelines.extraction import (
            PAGE_COLUMNS,
            extract_docs,
            extraction_pipeline,
            run_extraction,
        )
        from ocr_platform_ray.stages.extract import ExtractPages
        from ocr_platform_ray.stages.reassemble import _docs_from_block
        from ocr_platform_ray.state.manifest import redo_urls

        whole, files = _job_files(n_urls, n_files, interleave, split, shuffle, null)
        want = _docs_from_block(ExtractPages()(whole))
        with tempfile.TemporaryDirectory() as d:
            src, out = os.path.join(d, "pages"), os.path.join(d, "out")
            os.makedirs(src)
            for k, t in enumerate(files):
                pq.write_table(t, os.path.join(src, f"pages-{k:05d}.parquet"),
                               write_statistics=stats)
            run_extraction(src, out, fragments_per_part=fpp, partitioned_input=partitioned)
            self._check(out, want)
            run_extraction(src, out, fragments_per_part=fpp_rerun)
            self._check(out, want)
            named = [url_for(u) for u in range(n_urls) if null is None or u != null % n_urls]
            r = redo_urls(src, out, [named[redo % len(named)]], extraction_pipeline,
                          extract_docs, columns=PAGE_COLUMNS)
            assert r["redone_parts"] == 1
            self._check(out, want)
