"""Deterministic synthetic Common-Crawl-style pages corpus (FIXTURES.md §1).

Every page is generated from a per-`(seed, url_idx, page_idx)` RNG, so any
subset of urls can be generated in any order / in parallel and the bytes are
identical — the property the golden-file tests and the two-parallelism-level
determinism test rely on (SURVEY.md §5, §7 "hard parts" #1).

The HTML grammar exercises every extraction operator in SURVEY.md §2.2:
header blocks (running head + h1/h2/h3), body paragraphs of varying text
density, boilerplate (nav / share-bar / script / style) that must be
stripped, a footnote section with mixed numbering styles ``(1)`` / ``1.`` /
``1)`` and ``<sup>`` back-references (convert-to-html.ts:15 contract), a
digit-only printed-page-number block (segment.ts:26-37), plus edge rows:
empty page, undecodable bytes (failed-stage path, pipeline/utils.ts:38-57),
an oversized blob (skew), a 10x-page-count straggler url, Arabic text with
combining marks (word-count regex semantics, page/worker.ts:15), and
fake-PDF layout payloads for the XY-cut path.
"""

from __future__ import annotations

import datetime
import random

import pyarrow as pa

from .schemas import FAKEPDF_MAGIC
from .sources.pdfgen import make_article_pdf
from .sources.scangen import make_scanned_article

SEED = 42
_BASE_TS = datetime.datetime(2024, 1, 1)

_EN_WORDS = (
    "the quick brown fox jumps over a lazy dog while rivers of text flow "
    "through ancient libraries where scholars annotate every margin with "
    "careful notes about history language and the slow work of memory"
).split()

# Arabic words, some with combining diacritical marks (U+064B-U+0652).
_AR_WORDS = [
    "كِتَاب", "العِلْم", "نُور", "مَخْطُوطة", "فَصْل", "بَاب", "صَفْحَة",
    "تَحْقِيق", "نَاشِر", "مُؤَلِّف", "تَارِيخ", "لُغَة", "حَاشِيَة", "مَتْن",
]

_BOILER_NAV = '<nav class="menu"><a href="/">Home</a> <a href="/about">About</a> <a href="/contact">Contact</a></nav>'
_BOILER_SHARE = '<div class="share-bar"><a href="#fb">Share</a> <a href="#tw">Tweet</a> <a href="#pin">Pin</a></div>'
_BOILER_SCRIPT = '<script>var x = 1; track("page");</script>'
_BOILER_STYLE = "<style>.menu { color: red; }</style>"

# Special url indices (fixed, documented edge cases).
URL_EMPTY_PAGE = 1      # has one empty page  -> EMPTY flag
URL_MALFORMED = 2       # has one undecodable page -> failed_stage=CORRECT
URL_OVERSIZED = 3       # has one oversized html blob (skew test)
URL_STRAGGLER = 4       # 10x median page count (straggler test)
URL_FAKEPDF = 5         # pages carry fake-PDF layout payloads (XY-cut path)
URL_CP1252 = 6         # page 0 declares windows-1252 (charset-sniff path)
# Recurring class: REAL PDF byte streams (genuine ISO 32000 files from the
# public-spec writer) — every url with url_idx % 12 == 8.  Writer variant
# alternates per page (classic-xref / ObjStm / Tm / CID); Arabic-vocab
# urls always use the CID/Identity-H + ToUnicode form (the only way
# non-Latin text travels through a PDF).
URL_REALPDF_MOD = 12
URL_REALPDF_REM = 8
# Recurring class: SCANNED (image-only) PDFs — every url with
# url_idx % 12 == 9.  Pages carry NO text operators, only a full-page
# grayscale raster of the article layout; extraction goes through the
# deterministic template-match recognizer (stages/ocr.py).  Content is
# UPPERCASE English (the small-caps fixture font collapses case, and the
# byte-identity invariant needs exact pixel round-trips).
URL_SCANNED_MOD = 12
URL_SCANNED_REM = 9


def is_realpdf_url(url_idx: int) -> bool:
    return url_idx % URL_REALPDF_MOD == URL_REALPDF_REM


def is_scanned_url(url_idx: int) -> bool:
    return url_idx % URL_SCANNED_MOD == URL_SCANNED_REM


def url_for(url_idx: int) -> str:
    return f"https://corpus.example/doc/{url_idx:08d}"


def n_pages_for(url_idx: int, seed: int = SEED) -> int:
    if url_idx == URL_STRAGGLER:
        return 40  # ~10x the median of 1..8
    rng = random.Random(f"{seed}:np:{url_idx}")
    return rng.randint(1, 8)


def _words(rng: random.Random, vocab: list[str], n: int) -> str:
    return " ".join(rng.choice(vocab) for _ in range(n))


def _make_fakepdf(rng: random.Random, vocab: list[str], page_idx: int) -> bytes:
    """A miniature deterministic layout format for the PDF/XY-cut path:
    one token per line: ``x0 y0 x1 y1 role text...`` (role: head/para/foot/pageno).
    Lines are emitted in shuffled order; the extractor must reconstruct
    reading order from the coordinates (north_star "XY-cut over bounding
    boxes").  ~Half the pages are TWO-COLUMN (a vertical gutter between
    x=300 and x=330): reading order is the whole left column, then the
    whole right column — only a genuine recursive XY-cut gets this right
    (a naive y-sort interleaves the columns)."""
    lines = []
    two_col = page_idx % 2 == 0  # deterministic alternation -> goldens pin both layouts
    lines.append((10, 10, 610, 24, "head", f"Chapter {page_idx + 1}"))
    if two_col:
        y = 40
        for c in range(rng.randint(2, 3)):
            txt = _words(rng, vocab, rng.randint(6, 12))
            lines.append((10, y, 300, y + 12, "para", f"L{c} " + txt))
            y += 20
        y = 44  # right column rows offset so y-sort would interleave
        for c in range(rng.randint(2, 3)):
            txt = _words(rng, vocab, rng.randint(6, 12))
            lines.append((330, y, 610, y + 12, "para", f"R{c} " + txt))
            y += 20
    else:
        y = 40
        for _ in range(rng.randint(2, 4)):
            txt = _words(rng, vocab, rng.randint(8, 20))
            lines.append((10, y, 500, y + 12, "para", txt))
            y += 20
    if rng.random() < 0.6:
        lines.append((10, 700, 610, 712, "foot", f"({rng.randint(1,3)}) " + _words(rng, vocab, 6)))
    if rng.random() < 0.7:
        lines.append((280, 760, 300, 772, "pageno", str(page_idx + 1)))
    order = list(range(len(lines)))
    rng.shuffle(order)  # physical order != reading order
    body = "".join(
        f"{l[0]} {l[1]} {l[2]} {l[3]} {l[4]} {l[5]}\n" for l in (lines[i] for i in order)
    )
    return FAKEPDF_MAGIC + body.encode("utf-8")


def page_payload(url_idx: int, page_idx: int, seed: int = SEED) -> tuple[bytes, str, str]:
    """Returns (html_bytes, prior_text, lang) for one page — pure function."""
    rng = random.Random(f"{seed}:{url_idx}:{page_idx}")
    is_ar = url_idx % 7 == 0
    vocab = _AR_WORDS if is_ar else _EN_WORDS
    lang = "ar" if is_ar else "en"

    # --- edge pages -------------------------------------------------------
    if url_idx == URL_EMPTY_PAGE and page_idx == 0:
        html = "<html><body>" + _BOILER_NAV + _BOILER_SCRIPT + "</body></html>"
        return html.encode("utf-8"), "", lang
    if url_idx == URL_MALFORMED and page_idx == 0:
        # missing payload -> failed_stage=CORRECT, salvage prior text (M5)
        return None, _words(rng, vocab, 12), lang
    if url_idx == URL_FAKEPDF:
        payload = _make_fakepdf(rng, vocab, page_idx)
        return payload, _words(rng, vocab, 10), lang
    if url_idx == URL_CP1252 and page_idx == 0:
        # declared windows-1252: € (0x80) and é (0xE9) are invalid utf-8
        html = (
            '<html><head><meta charset="windows-1252"></head><body>'
            "<p>Price: 10€ at the café</p></body></html>"
        )
        return html.encode("cp1252"), _words(rng, vocab, 8), lang
    if is_scanned_url(url_idx):
        # image-only PDF (the scanned-book shape): no text operators,
        # extraction must go through the deterministic recognizer.  The
        # zero-flagged invariant is pinned by tests against the text twin.
        paras = [
            _words(rng, _EN_WORDS, rng.randint(10, 18)).upper()
            for _ in range(rng.randint(1, 3))
        ]
        pdf = make_scanned_article(
            f"CHAPTER {page_idx + 1}",
            paras,
            page_number=page_idx + 1 if rng.random() < 0.7 else None,
            footnote=("1. " + _words(rng, _EN_WORDS, 6).upper())
            if rng.random() < 0.6
            else None,
        )
        return pdf, _words(rng, _EN_WORDS, 10), "en"
    if is_realpdf_url(url_idx):
        # genuine PDF byte stream (stages/pdf.py parses it): one article
        # page per row, writer variant alternating by page index; Arabic
        # text requires the CID/ToUnicode form (WinAnsi can't carry it)
        variant = page_idx % 7
        paras = [_words(rng, vocab, rng.randint(10, 18)) for _ in range(rng.randint(1, 3))]
        pdf = make_article_pdf(
            f"Chapter {page_idx + 1}",
            paras,
            page_number=page_idx + 1 if rng.random() < 0.7 else None,
            footnote=("1. " + _words(rng, vocab, 6)) if rng.random() < 0.6 else None,
            use_objstm=variant in (1, 3),
            use_tm=variant in (2, 3),
            use_cid=is_ar or variant == 4,
            use_lzw=variant == 5,
            dct_image=variant == 6,
        )
        return pdf, _words(rng, vocab, 10), lang

    # --- regular HTML page ------------------------------------------------
    parts = ["<html><head>", _BOILER_STYLE, "</head><body>", _BOILER_NAV]
    if rng.random() < 0.7:  # running head present on ~70% of pages
        parts.append(f'<div class="header">Document {url_idx} — Part {page_idx + 1}</div>')
    if rng.random() < 0.4:
        parts.append(f"<h1>{_words(rng, vocab, 3)}</h1>")
    if rng.random() < 0.5:
        parts.append(f"<h2>{_words(rng, vocab, 2)}</h2>")
    parts.append(_BOILER_SHARE)

    n_paras = rng.randint(2, 6)
    if url_idx == URL_OVERSIZED and page_idx == 0:
        n_paras = 400  # oversized blob
    n_footnotes = rng.randint(0, 3)
    fn_style = rng.choice(["paren", "dot", "halfparen"])
    for p in range(n_paras):
        words = _words(rng, vocab, rng.randint(10, 40))
        sup = f"<sup>{p % max(1, n_footnotes) + 1}</sup>" if n_footnotes and rng.random() < 0.5 else ""
        parts.append(f"<p>{words}{sup}</p>")
        if rng.random() < 0.2:
            parts.append(f"<h3>{_words(rng, vocab, 2)}</h3>")
    if rng.random() < 0.15:  # stray high-link-density block (boilerplate by density)
        links = " ".join(f'<a href="/t/{i}">{rng.choice(vocab)}</a>' for i in range(8))
        parts.append(f"<div>{links}</div>")

    if n_footnotes:
        parts.append("<hr/>")
        for i in range(1, n_footnotes + 1):
            mark = {"paren": f"({i})", "dot": f"{i}.", "halfparen": f"{i})"}[fn_style]
            parts.append(f'<div class="fn">{mark} {_words(rng, vocab, rng.randint(4, 10))}</div>')
    if rng.random() < 0.7:
        parts.append(f'<div class="pageno">{page_idx + 1}</div>')
    parts.append("</body></html>")
    html = "\n".join(parts)
    prior = _words(random.Random(f"{seed}:prior:{url_idx}:{page_idx}"), vocab, 15)
    return html.encode("utf-8"), prior, lang


def make_pages_rows(url_indices, seed: int = SEED):
    """Yield page-row dicts for the given url indices (deterministic)."""
    for u in url_indices:
        url = url_for(u)
        for p in range(n_pages_for(u, seed)):
            html, prior, lang = page_payload(u, p, seed)
            ts = _BASE_TS + datetime.timedelta(seconds=u * 100000 + p)
            yield {"url": url, "warc_ts": ts, "html": html, "text": prior, "lang": lang}


def make_pages_table(n_urls: int, seed: int = SEED) -> pa.Table:
    """Build the pages table for urls [0, n_urls) as one Arrow table."""
    from .schemas import PAGES_SCHEMA

    rows = list(make_pages_rows(range(n_urls), seed))
    cols = {name: [r[name] for r in rows] for name in PAGES_SCHEMA.names}
    return pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)


def write_pages_parquet(out_dir: str, n_urls: int, seed: int = SEED, urls_per_shard: int = 200) -> list[str]:
    """Write the corpus as sharded parquet (one file per url range) using Ray
    for parallel generation — the layout a resumable 100 TB read expects
    (many independent fragments, §4)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from .schemas import PAGES_SCHEMA

    os.makedirs(out_dir, exist_ok=True)
    shards = [(lo, min(lo + urls_per_shard, n_urls)) for lo in range(0, n_urls, urls_per_shard)]

    def gen_shard(batch):
        paths = []
        for i, lo, hi in zip(batch["shard"], batch["lo"], batch["hi"]):
            rows = list(make_pages_rows(range(int(lo), int(hi)), seed))
            cols = {name: [r[name] for r in rows] for name in PAGES_SCHEMA.names}
            t = pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)
            path = os.path.join(out_dir, f"pages-{int(i):05d}.parquet")
            pq.write_table(t, path + ".tmp")
            os.replace(path + ".tmp", path)  # atomic publish
            paths.append(path)
        return {"path": paths}

    meta = rd.from_items(
        [{"shard": i, "lo": lo, "hi": hi} for i, (lo, hi) in enumerate(shards)]
    )
    out = meta.map_batches(gen_shard, batch_size=1)
    return sorted(
        p for b in out.iter_batches(batch_format="pyarrow") for p in b.column("path").to_pylist()
    )


def make_docs_meta_table(n_urls: int, seed: int = SEED) -> pa.Table:
    """Sidecar metadata table (FIXTURES.md §2) — one row per url, with a few
    duplicate external_refs for the exact-dedup path (create.ts:61-80)."""
    from .schemas import DOCS_META_SCHEMA

    rows = []
    for u in range(n_urls):
        rng = random.Random(f"{seed}:meta:{u}")
        is_ar = u % 7 == 0
        # every 11th url shares the previous url's external_ref (dup ingest)
        ref_idx = u - 1 if (u % 11 == 0 and u > 0) else u
        translit = ("*" if rng.random() < 0.2 else "") + f"kitab-{u}"
        rows.append(
            {
                "url": url_for(u),
                "external_ref": f"rec{ref_idx:06d}",
                "arabic_name": rng.choice(_AR_WORDS) + f" {u}",
                "transliteration": translit,
                "other_names": [f"alt-{u}-{i}" for i in range(rng.randint(0, 3))],
                "genres": rng.sample(["fiqh", "hadith", "tafsir", "history", "lugha"], rng.randint(0, 3)),
                "splits": [{"start": 0, "end": n_pages_for(u, seed) - 1}],
                "created_at": _BASE_TS + datetime.timedelta(hours=u),
                "pub_details_raw": (
                    f"المحقق: محقق {u} / دار النشر: دار {u % 5} / "
                    f"رقم الطبعة: {u % 4 + 1} / عام النشر: {1400 + u % 40}"
                ),
            }
        )
    cols = {name: [r[name] for r in rows] for name in DOCS_META_SCHEMA.names}
    return pa.Table.from_pydict(cols, schema=DOCS_META_SCHEMA)
