"""Deterministic Arabic -> IJMES-style Latin romanization (M12).

The reference transliterates via an LLM prompt encoding the IJMES table
(apps/web/src/lib/openai/transliterate.ts:1-146) and then applies a
deterministic char canonicalization.  No model runs in this engine, so
this module implements the RULE-BASED core of the same public IJMES
convention: the 1:1 consonant table (ʾ ʿ ḥ ṣ ḍ ṭ ẓ, digraphs th/kh/dh/
sh/gh), short/long vowels and tanwīn, shadda gemination (doubles the
previous consonant unit), the definite-article rule (word-initial ال ->
"al-"), tāʾ marbūṭa -> "a", Arabic-Indic digits and punctuation.

Round-4 additions (the reference LLM's rule-expressible share,
transliterate.ts:121-146): SUN-LETTER ASSIMILATION (الشمس -> "ash-shms",
vocalized اَلشَّمْس -> "ash-shams" — the article's lām assimilates into
t/th/d/dh/r/z/s/sh/ṣ/ḍ/ṭ/ẓ/l/n and a following shadda geminate merges
into the article), VOCALIZED-ARTICLE detection (اَلْكِتَاب parses as
al- + kitāb; hamzat-wasl seat ٱ handled), and TANWĪN-ON-ALIF (كتابًا /
كتاباً -> "ktāban": the alif seat of fathatan is silent in either
codepoint order).

Documented limits (the LLM's lexical share, deliberately out of scope
per SURVEY M12): unvocalized text romanizes consonantally (كتاب ->
"ktāb"; with vowels كِتَاب -> "kitāb"), no morphological iʿrāb.  Fully
deterministic and composes with ``canonicalize_translit_chars`` (the
reference's post-pass)."""

from __future__ import annotations

# IJMES consonants + vowel signs (public convention)
_MAP = {
    "ء": "ʾ", "ب": "b", "ت": "t", "ث": "th", "ج": "j", "ح": "ḥ",
    "خ": "kh", "د": "d", "ذ": "dh", "ر": "r", "ز": "z", "س": "s",
    "ش": "sh", "ص": "ṣ", "ض": "ḍ", "ط": "ṭ", "ظ": "ẓ", "ع": "ʿ",
    "غ": "gh", "ف": "f", "ق": "q", "ك": "k", "ل": "l", "م": "m",
    "ن": "n", "ه": "h", "و": "w", "ي": "y",
    "ى": "ā",
    "أ": "ʾ", "إ": "ʾ", "ؤ": "ʾ", "ئ": "ʾ",
    "َ": "a",   # fatha
    "ِ": "i",   # kasra
    "ُ": "u",   # damma
    "ً": "an",  # fathatan
    "ٍ": "in",  # kasratan
    "ٌ": "un",  # dammatan
    "ْ": "",    # sukun
    "ـ": "",    # tatweel
    "،": ",", "؛": ";", "؟": "?",
}
_DIGITS = {chr(0x0660 + i): str(i) for i in range(10)}
_MAP.update(_DIGITS)
_SHADDA = "ّ"
_TA_MARBUTA = "ة"
_WASLA = "ٱ"  # hamzat-wasl alif
_ARABIC_LETTER = set(_MAP) | {_SHADDA, _TA_MARBUTA, "ا", "آ", _WASLA}
_VOWEL_UNITS = frozenset({"", "a", "i", "u", "ā", "ī", "ū", "an", "in", "un", "al-"})
# sun letters BY ROMANIZED UNIT: the article's lām assimilates into these
_SUN_UNITS = frozenset({"t", "th", "d", "dh", "r", "z", "s", "sh", "ṣ", "ḍ", "ṭ", "ẓ", "l", "n"})


def _parse_article(word: str) -> int:
    """Length of a word-initial definite article (plain ال, vocalized
    اَلْ, or wasla-seated ٱل); 0 when the word doesn't start with one or
    nothing follows it."""
    if not word or word[0] not in ("ا", _WASLA):
        return 0
    j = 1
    if j < len(word) and word[j] == "َ":  # fatha on the seat
        j += 1
    if j >= len(word) or word[j] != "ل":
        return 0
    j += 1
    if j < len(word) and word[j] == "ْ":  # sukun on the lām
        j += 1
    return j if j < len(word) else 0


def _assimilate_sun(out: list[str]) -> None:
    """al- + sun letter -> a<sun>- (ash-shams class); a shadda geminate
    on the sun letter merges into the article (one copy survives)."""
    for j in range(1, len(out)):
        u = out[j]
        if u in _VOWEL_UNITS:
            continue
        if u in _SUN_UNITS:
            out[0] = "a" + u + "-"
            if j + 1 < len(out) and out[j + 1] == u:
                del out[j]  # geminate's first copy belongs to the article
        return


def _romanize_word(word: str) -> str:
    out: list[str] = []
    i = 0
    # definite article: word-initial ال / اَلْ / ٱل -> "al-"
    art = _parse_article(word)
    if art:
        out.append("al-")
        i = art
    elif word.startswith("آ"):
        out.append("ā")  # word-initial madda
        i = 1
    elif word[0] in ("ا", _WASLA):
        out.append("a")  # bare word-initial alif is a vowel seat, not ā
        i = 1
    while i < len(word):
        ch = word[i]
        i += 1
        if ch == _SHADDA:
            # geminate the most recent CONSONANT unit (the letter's vowel
            # sign may precede or follow the shadda in codepoint order)
            for j in range(len(out) - 1, -1, -1):
                if out[j] not in _VOWEL_UNITS:
                    out.insert(j + 1, out[j])
                    break
            continue
        if ch == _TA_MARBUTA:
            if i == len(word):
                if not (out and out[-1] == "a"):  # -َة is just "a"
                    out.append("a")
            else:
                out.append("t")
            continue
        # long vowels: short sign + matching seat letter merge (a+ا=ā,
        # i+ي=ī, u+و=ū); bare seats are ā / y / w
        if ch in ("ا", "ى", _WASLA):  # alif / alif maqsura / hamzat wasl
            if out and out[-1] == "an":
                continue  # tanwin seat (كتابًا): the alif is silent
            if out and out[-1] == "a":
                out[-1] = "ā"
            else:
                out.append("ā")
            continue
        if ch == "ي":
            if out and out[-1] == "i":
                out[-1] = "ī"
            else:
                out.append("y")
            continue
        if ch == "و":
            if out and out[-1] == "u":
                out[-1] = "ū"
            else:
                out.append("w")
            continue
        if ch == "آ":
            out.append("ʾā")  # mid-word madda
            continue
        if ch == "ً" and out and out[-1] == "ā":
            out[-1] = "an"  # seat-first order (كتاباً): ā was the seat
            continue
        out.append(_MAP.get(ch, ch))
    if out and out[0] == "al-":
        _assimilate_sun(out)
    return "".join(out)


def transliterate_arabic(text: str) -> str:
    """Romanize every maximal Arabic-script run; other characters pass
    through unchanged (mixed-language strings stay intact)."""
    out: list[str] = []
    word: list[str] = []
    for ch in text:
        if ch in _ARABIC_LETTER:
            word.append(ch)
        else:
            if word:
                out.append(_romanize_word("".join(word)))
                word = []
            out.append(ch)
    if word:
        out.append(_romanize_word("".join(word)))
    return "".join(out)
