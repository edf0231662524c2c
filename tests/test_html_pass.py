"""The per-page HTML pass and the per-file doc assembly on shapes the
corpus goldens never reach: pages drawn from a seeded HTML grammar
(nested, unclosed and mismatched block tags, mixed case, class variants,
``<br>``/``<hr>``, ``<a>``/``<sup>``, comments, scripts, entities,
charset metas), pinned by a digest, and ``extract_docs`` held equal to
``ExtractPages`` then ``_docs_from_block``; the doc table built from
Arrow buffers held equal to ``Table.from_pydict``'s."""

import datetime
import hashlib
import json
import os
import random
from operator import itemgetter
from unittest import mock

import pyarrow as pa
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ocr_platform_ray.pipelines.extraction import extract_docs
from ocr_platform_ray.schemas import DOC_OUT_SCHEMA, FAKEPDF_MAGIC
from ocr_platform_ray.stages import reassemble
from ocr_platform_ray.stages.extract import ExtractPages, PageRow, extract_page
from ocr_platform_ray.stages.reassemble import PAGE_SEP, _assemble_docs, _docs_from_block
from ocr_platform_ray.stages.reassemble import page_text

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "html_grammar_sha.json")

_TAGS = [
    "p", "P", "div", "DIV", "Div", "h1", "h2", "H3", "h6", "nav", "aside", "footer",
    "section", "article", "header", "ul", "ol", "li", "LI", "table", "tr", "td",
    "blockquote",
]
_CLASSES = [
    None, "", "fn", "FN", "fn note", "x fn", "fnx", "pageno", "page-no", "pageno big",
    "header", "running-header", "Header", "menu", "top-menu", "ads", "ad-slot",
    "share", "banner", "social", "sidebar", "body", "text lead", "note",
]
_WORDS = [
    "alpha", "Beta", "gamma", "delta", "the", "of", "1.", "(2)", "3)", "12", "7",
    "x", "café", "naïve", "كتاب", " ", "​", "\t",
    "\n", "&amp;", "&lt;b&gt;", "&#39;", "&nbsp;", "&copy;", "&#x41;", "&bogus;", "&",
    "<", ">", "­", "﻿",
]
_OVERLONG_ENTITY = "&#" + "9" * 5000 + ";"


def _words(rng: random.Random, lo: int = 0, hi: int = 8) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


def _attrs(rng: random.Random) -> str:
    cls = rng.choice(_CLASSES)
    out = []
    if rng.random() < 0.2:
        out.append(' id="b%d"' % rng.randint(0, 9))
    if cls is not None:
        q = rng.choice(['"', "'"])
        key = rng.choice(["class", "CLASS", "class ", "data-class"])
        out.append(f" {key}={q}{cls}{q}")
    if rng.random() < 0.05:
        out.append(" /")
    return "".join(out)


def _inline(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.15:
        return f'<a href="/x">{_words(rng, 1, 4)}</a>'
    if r < 0.25:
        return f"<sup>{rng.randint(1, 20)}</sup>"
    if r < 0.3:
        return "<sup>x</sup>"
    if r < 0.4:
        return f"<b>{_words(rng, 1, 3)}</b>"
    if r < 0.45:
        return f'<span class="s">{_words(rng, 1, 3)}</span>'
    if r < 0.5:
        return rng.choice(["<br>", "<BR/>", "<br />", "<hr>", "<HR/>"])
    if r < 0.55:
        return f"<!-- {_words(rng, 0, 3)} <p> -->"
    if r < 0.58:
        return "<script>var a = '<p>x</p>';</script>"
    if r < 0.6:
        return "<style>p { color: red }</style>"
    if r < 0.62:
        return "<img src=x>"
    return _words(rng, 1, 10)


def _node(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth > 3 or r < 0.3:
        return _inline(rng)
    tag = rng.choice(_TAGS)
    inner = "".join(_node(rng, depth + 1) for _ in range(rng.randint(0, 4)))
    close = rng.random()
    if close < 0.75:
        end = f"</{tag}>"
    elif close < 0.85:
        end = ""  # unclosed
    elif close < 0.95:
        end = f"</{rng.choice(_TAGS)}>"  # mismatched
    else:
        end = f"</{tag.upper()} >"
    return f"<{tag}{_attrs(rng)}>{inner}{end}"


def grammar_page(rng: random.Random) -> bytes:
    """One page of the HTML grammar, as the bytes a crawler stores."""
    r = rng.random()
    if r < 0.04:
        return _words(rng, 0, 12).encode()  # no block structure at all
    if r < 0.06:
        return b""
    body = "".join(_node(rng, 0) for _ in range(rng.randint(1, 8)))
    if rng.random() < 0.2:
        body += f'<div class="pageno">{rng.randint(1, 999)}</div>'
    if rng.random() < 0.1:
        body += f"<div>{rng.randint(0, 9999999)}</div>"
    if rng.random() < 0.05:
        body = f"<p>{_OVERLONG_ENTITY}</p>" + body
    if rng.random() < 0.03:
        body = f'<nav class="menu">{_OVERLONG_ENTITY}</nav>' + body
    charset = rng.choice([None, None, "utf-8", "latin-1", "windows-1252", "us-ascii", "koi8-r"])
    head = f'<meta charset="{charset}">' if charset else ""
    page = f"<html><head>{head}</head><body>{body}</body></html>"
    codec = {"latin-1": "latin-1", "windows-1252": "cp1252"}.get(charset or "", "utf-8")
    return page.encode(codec, "replace") if rng.random() < 0.9 else page.encode("utf-16")


def _page_digest(r: dict) -> bytes:
    return json.dumps(r, sort_keys=True, ensure_ascii=False).encode()


class TestHtmlGrammarGolden:
    """``extract_page`` over pages drawn from the grammar, digest pinned."""

    def test_digest(self):
        with open(GOLDEN) as f:
            want = json.load(f)
        rng = random.Random(want["seed"])
        h, failed = hashlib.sha256(), 0
        for i in range(want["pages"]):
            r = extract_page(grammar_page(rng), f"prior {i}")
            failed += r["failed_stage"] is not None
            h.update(_page_digest(r))
        assert (h.hexdigest(), failed) == (want["sha256"], want["failed_pages"])


_TS0 = datetime.datetime(2024, 1, 1)


def _payloads():
    from ocr_platform_ray.sources.pdfgen import make_article_pdf
    from ocr_platform_ray.sources.scangen import make_scanned_article

    grammar = st.integers(0, 2**32 - 1).map(lambda s: grammar_page(random.Random(s)))
    fake = st.sampled_from(
        [
            FAKEPDF_MAGIC + b"0 0 10 1 head Title\n0 2 10 3 para Body text.\n0 9 1 10 pageno 4",
            FAKEPDF_MAGIC + b"0 0 10 1 para a\n0 5 10 6 hr x\n0 7 10 8 foot 1. note",
            FAKEPDF_MAGIC + b"garbage line\n",
        ]
    )
    pdfs = st.sampled_from(
        [
            make_article_pdf("Chapter 1", ["One para.", "Two para."], page_number=3),
            make_scanned_article("CHAPTER 2", ["SCANNED BODY."]),
            b"%PDF-1.5\nnot a real pdf",
        ]
    )
    return st.one_of(grammar, fake, pdfs, st.sampled_from([None, b""]))


@st.composite
def _pages(draw):
    """A pages table: a few urls (one of them null), each with pages in
    shuffled ``warc_ts`` order."""
    rows = []
    for u in range(draw(st.integers(1, 4))):
        url = None if draw(st.booleans()) and u == 0 else f"https://g.example/{u}"
        n = draw(st.integers(1, 4))
        for p in draw(st.permutations(range(n))):
            rows.append((url, _TS0 + datetime.timedelta(seconds=p), draw(_PAYLOADS), f"prior {p}"))
    rows = draw(st.permutations(rows))
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        }
    )


_PAYLOADS = _payloads()


class TestExtractDocsMatchesBlockPath:
    """The job's per-file ``extract_docs`` and the residual part's
    ``ExtractPages`` -> ``_docs_from_block`` give the same docs."""

    @settings(
        max_examples=60,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_pages())
    def test_same_docs(self, pages):
        assert extract_docs(pages).equals(_docs_from_block(ExtractPages()(pages)))


# ASCII, Arabic and astral-plane characters; "" is drawn too
_TEXT = st.text(st.sampled_from(["a", "Z", " ", "\n", "\x0c", "ك", "ت", "𝔸", "😀"]), max_size=5)
_PAGE_ROWS = st.builds(
    PageRow,
    header=st.none() | _TEXT,
    body=_TEXT,
    footnotes=st.none() | _TEXT,
    page_number=st.none() | st.integers(1, 2**31 - 1),
    total_words=st.integers(0, 2**40),
    failed_stage=st.none() | st.just("ocr"),
)
# (url, its pages): distinct urls, a null one among them
_DOCS = st.lists(
    st.tuples(st.none() | _TEXT, st.lists(_PAGE_ROWS, min_size=1, max_size=4)),
    max_size=6,
    unique_by=itemgetter(0),
)


def _pydict_docs(docs) -> pa.Table:
    """The reference: each doc's columns in Python, ``Table.from_pydict``."""
    cols = {name: [] for name in DOC_OUT_SCHEMA.names}
    for url, run in docs:
        texts = [page_text(r.header, r.body, r.footnotes) for r in run]
        starts = [len((t + PAGE_SEP).encode()) for t in texts[:-1]]
        cols["url"].append(url)
        cols["extracted_text"].append(PAGE_SEP.join(texts))
        cols["n_pages"].append(len(run))
        cols["total_words"].append(sum(r.total_words for r in run))
        cols["page_numbers"].append([r.page_number for r in run if r.page_number is not None])
        cols["n_failed_pages"].append(sum(r.failed_stage is not None for r in run))
        cols["page_offsets"].append([sum(starts[:i]) for i in range(len(run))])
    return pa.Table.from_pydict(cols, schema=DOC_OUT_SCHEMA)


class TestDocTableFromBuffers:
    """``_assemble_docs`` builds its table from Arrow buffers (no pandas
    import in the per-file task's worker); it equals ``from_pydict``'s,
    also when the text outgrows one chunk's offsets."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_DOCS, st.sampled_from([reassemble._MAX_COLUMN_BYTES, 8]))
    @example([], reassemble._MAX_COLUMN_BYTES)
    def test_equals_from_pydict(self, docs, max_column_bytes):
        urls = [url for url, run in docs for _ in run]
        rows = [row for _, run in docs for row in run]
        with mock.patch.object(reassemble, "_MAX_COLUMN_BYTES", max_column_bytes):
            got = _assemble_docs(urls, rows)
        got.validate(full=True)
        assert got.equals(_pydict_docs(docs))
