"""Unit tests for the scalar library (SURVEY.md §5 item 2)."""

from ocr_platform_ray.functions import (
    canonicalize_translit_chars,
    command_score,
    count_words,
    empty_to_none,
    fold_localized_entries,
    gregorian_to_hijri_year,
    hijri_to_gregorian_year,
    normalize_text,
    parse_publishing_details,
    remove_diacritics,
    slugify,
    strip_html,
)
from ocr_platform_ray.functions.hijri import gregorian_to_hijri, hijri_to_gregorian


class TestWordCount:
    def test_basic(self):
        assert count_words("hello world") == 2

    def test_strips_html_first(self):
        assert count_words("<p>hello <b>world</b></p>") == 2

    def test_underscore_not_word_char(self):
        # reference regex [\p{L}\p{M}\p{N}]+ excludes underscore -> splits
        assert count_words("a_b") == 2

    def test_arabic_with_diacritics_single_token(self):
        # combining marks must not split tokens (page/worker.ts:15)
        assert count_words("كِتَاب") == 1
        assert count_words("كِتَاب العِلْم") == 2

    def test_numbers(self):
        assert count_words("123 abc") == 2

    def test_empty_and_none(self):
        assert count_words("") == 0
        assert count_words(None) == 0


class TestNormalize:
    def test_collapse_ws(self):
        assert normalize_text("a   b\t c") == "a b c"

    def test_soft_hyphen_removed(self):
        assert normalize_text("cor­pus") == "corpus"

    def test_multi_newlines_capped(self):
        assert normalize_text("a\n\n\n\n\nb") == "a\n\nb"

    def test_strip_html(self):
        assert strip_html("<p>x</p>").strip() == "x"


class TestTextFastPaths:
    """The conditions that make normalize_text's and count_words' fast
    paths exact, checked over every character they depend on."""

    def test_ctrl_and_line_chars_are_not_printable(self):
        # a printable string has nothing for _CTRL_RE to remove and no
        # line to trim, so the fast path only has space runs to fold
        from ocr_platform_ray.functions.text import _CTRL_RE

        ctrl = [chr(cp) for cp in range(0x110000) if _CTRL_RE.match(chr(cp))]
        assert len(ctrl) == 78  # C0 minus \t\n\r, DEL + C1, 16 format chars
        for c in ctrl + list("\t\n\r\f\v"):
            assert not c.isprintable(), hex(ord(c))

    def test_ascii_table_agrees_with_word_re(self):
        from ocr_platform_ray.functions.text import _ASCII_WORD_TABLE, WORD_RE

        for b in range(128):
            c = chr(b)
            in_word = WORD_RE.fullmatch(c) is not None
            assert _ASCII_WORD_TABLE[b] == (b if in_word else 0x20), repr(c)
            assert count_words(f"x{c}y") == (1 if in_word else 2), repr(c)

    def test_fast_paths_keep_edge_cases(self):
        assert normalize_text("  a  b  ") == "a b"
        assert normalize_text("a\u00a0 b") == "a\u00a0 b"  # NBSP is not printable
        assert normalize_text("\u200ba\u00ad\ufeffb ") == "ab"
        assert count_words("don't stop-me now_2") == 6
        assert count_words("caf\u00e9 au lait") == 3


class TestSlug:
    def test_diacritics(self):
        assert remove_diacritics("café") == "cafe"
        assert slugify("Café au Lait!") == "cafe-au-lait"

    def test_translit_chars(self):
        assert canonicalize_translit_chars("ʻulama'") == "ʿulamaʾ"

    def test_edges_trimmed(self):
        assert slugify("--Hello--") == "hello"


class TestHijri:
    def test_epoch(self):
        # 1 Muharram AH 1 = 19 July 622 CE (proleptic Gregorian, tabular)
        assert hijri_to_gregorian(1, 1, 1) == (622, 7, 19)

    def test_roundtrip(self):
        for hy, hm, hd in [(1, 1, 1), (1446, 2, 15), (800, 12, 29), (1000, 6, 1)]:
            g = hijri_to_gregorian(hy, hm, hd)
            assert gregorian_to_hijri(*g) == (hy, hm, hd)

    def test_year_helpers_monotonic(self):
        years = [gregorian_to_hijri_year(y) for y in range(1900, 2030)]
        assert years == sorted(years)
        assert gregorian_to_hijri_year(2024) in (1445, 1446)
        assert 1990 <= hijri_to_gregorian_year(1446) <= 2030


class TestPublishingParser:
    def test_full(self):
        raw = "المحقق: فلان / دار النشر: دار الكتب / رقم الطبعة: 2 / عام النشر: 1420"
        out = parse_publishing_details(raw)
        assert out["investigator"] == "فلان"
        assert out["publisher"] == "دار الكتب"
        assert out["edition_number"] == "2"
        assert out["publication_year"] == "1420"
        assert out["publisher_location"] is None

    def test_empty(self):
        assert parse_publishing_details(None)["publisher"] is None


class TestMisc:
    def test_fold_localized(self):
        assert fold_localized_entries(
            [{"locale": "ar", "text": "x"}, {"locale": "en", "text": "y"}, {"locale": "ar", "text": "z"}]
        ) == {"ar": "x", "en": "y"}

    def test_empty_to_none(self):
        assert empty_to_none("") is None
        assert empty_to_none("  ") is None
        assert empty_to_none("a") == "a"
        assert empty_to_none(0) == 0

    def test_command_score_ordering(self):
        exact = command_score("hello", "hello")
        prefix = command_score("hello world", "hello")
        scattered = command_score("hxexlxlxo", "hello")
        none = command_score("xyz", "hello")
        assert exact >= prefix > scattered > none == 0.0


class TestUrlCanonicalization:
    def test_canonicalize_rules(self):
        from ocr_platform_ray.functions.url import canonicalize_url as c

        assert c("HTTPS://WWW.Site.COM:443/a/b/?z=1&a=2&utm_source=x#frag") == (
            "https://site.com/a/b?a=2&z=1"
        )
        assert c("http://x.com:80/") == "http://x.com"
        assert c("http://x.com:8080/p") == "http://x.com:8080/p"  # non-default kept
        assert c("https://x.com/p///") == "https://x.com/p"
        assert c("https://x.com/p?utm_a=1&utm_b=2") == "https://x.com/p"
        assert c("https://x.com") == "https://x.com"
        # www only stripped as a host PREFIX
        assert c("https://notwww.com/www.deep") == "https://notwww.com/www.deep"

    def test_add_canonical_url_matches_scalar(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ocr_platform_ray.functions.url import add_canonical_url, canonicalize_url

        urls = [
            "HTTPS://WWW.A.COM:443/x/?b=2&a=1&utm_s=x#f",
            "https://a.com/x?a=1&b=2",
            "http://b.org:80",
            "https://c.net/only/",
            "ftp-ish-not-url",
        ]
        df = pd.DataFrame({"i": range(len(urls)), "url": urls})
        out = add_canonical_url(rd.from_pandas(df), "url").to_pandas().sort_values("i")
        assert list(out["canonical_url"]) == [canonicalize_url(u) for u in urls]


class TestArabicTransliteration:
    def test_ijmes_romanization_table(self):
        from ocr_platform_ray.functions.translit import transliterate_arabic as tr

        cases = [
            ("مُحَمَّد", "muḥammad"),      # shadda gemination
            ("كِتَاب", "kitāb"),           # kasra + long ā merge
            ("كتاب", "ktāb"),              # unvocalized -> consonantal
            ("الكتاب", "al-ktāb"),         # definite article
            ("العِلْم", "al-ʿilm"),        # ʿayn + sukun
            ("قُرْآن", "qurʾān"),          # mid-word madda
            ("شَمْس", "shams"),            # sh digraph
            ("٠١٢٣", "0123"),              # Arabic-Indic digits
            ("أَمِير", "ʾamīr"),           # hamza seat + ī merge
            ("مُصْطَفَى", "muṣṭafā"),      # emphatics + alif maqsura
            ("مَكْتَبَة", "maktaba"),      # final ta marbuta
            ("سُورَة", "sūra"),            # ū merge + final ta marbuta
            ("كُتُبٌ", "kutubun"),         # tanwin
            ("hello عَرَبِي world", "hello ʿarabī world"),  # mixed passthrough
        ]
        for src, want in cases:
            assert tr(src) == want, (src, tr(src), want)

    def test_sun_letter_assimilation_and_vocalization(self):
        # round-4 rules (reference transliterate.ts:121-146 share):
        # sun-letter assimilation, vocalized article, tanwin-on-alif
        from ocr_platform_ray.functions.translit import transliterate_arabic as tr

        cases = [
            ("الشمس", "ash-shms"),         # unvocalized sun letter
            ("اَلشَّمْس", "ash-shams"),    # vocalized + shadda geminate merge
            ("الرَّحِيم", "ar-raḥīm"),     # r sun letter
            ("النُّور", "an-nūr"),         # n sun letter
            ("التِّين", "at-tīn"),         # t sun letter
            ("القَمَر", "al-qamar"),       # moon letter: NO assimilation
            ("اَلْكِتَاب", "al-kitāb"),    # fully vocalized article
            ("ٱلْكِتَاب", "al-kitāb"),     # hamzat-wasl article seat
            ("كِتَابًا", "kitāban"),       # tanwin on alif (sign-first)
            ("كِتَاباً", "kitāban"),       # tanwin on alif (seat-first)
        ]
        for src, want in cases:
            assert tr(src) == want, (src, tr(src), want)

    def test_latin_text_passthrough_and_canonical_compose(self):
        from ocr_platform_ray.functions.slug import canonicalize_translit_chars
        from ocr_platform_ray.functions.translit import transliterate_arabic as tr

        assert tr("plain latin text 123!") == "plain latin text 123!"
        # composes with the reference's deterministic post-pass (M12)
        assert canonicalize_translit_chars(tr("عِلْم")) == "ʿilm"

    def test_dataset_operator(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ocr_platform_ray.functions.translit import add_transliteration

        df = pd.DataFrame({"i": [0, 1], "t": ["الكتاب", "hello"]})
        out = add_transliteration(rd.from_pandas(df), "t").to_pandas().sort_values("i")
        assert list(out["translit"]) == ["al-ktāb", "hello"]
