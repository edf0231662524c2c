"""Porter stemmer (Porter 1980, "An algorithm for suffix stripping",
Program 14(3) — implemented from the paper's rule tables) — the classic
English normalization pass for retrieval/token statistics: conflates
inflected forms (connect / connected / connecting / connection →
connect) so BM25/TF-IDF/df counts pool evidence across morphology.

The measure m counts VC sequences in the [C](VC)^m[V] form of a word;
rules fire longest-suffix-first within each step, gated on m or other
conditions of the STEM exactly as the paper tables specify.  Pinned by
the paper's own step-by-step example vocabulary in tests."""

from __future__ import annotations

import pandas as pd

_VOWELS = set("aeiou")


def _is_cons(w: str, i: int) -> bool:
    c = w[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_cons(w, i - 1)
    return True


def _measure(stem: str) -> int:
    m = 0
    prev_v = False
    for i in range(len(stem)):
        v = not _is_cons(stem, i)
        if prev_v and not v:
            m += 1
        prev_v = v
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _double_cons(w: str) -> bool:
    return (
        len(w) >= 2
        and w[-1] == w[-2]
        and _is_cons(w, len(w) - 1)
    )


def _cvc(w: str) -> bool:
    if len(w) < 3:
        return False
    if not (
        _is_cons(w, len(w) - 3)
        and not _is_cons(w, len(w) - 2)
        and _is_cons(w, len(w) - 1)
    ):
        return False
    return w[-1] not in "wxy"


def porter_stem(word: str) -> str:
    w = (word or "").lower()
    if len(w) <= 2 or not w.isalpha():
        return w
    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]
    # step 1b
    flag = False
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        flag = True
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        flag = True
    if flag:
        if w.endswith(("at", "bl", "iz")):
            w = w + "e"
        elif _double_cons(w) and w[-1] not in "lsz":
            w = w[:-1]
        elif _measure(w) == 1 and _cvc(w):
            w = w + "e"
    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"
    # step 2 (longest match on the penultimate letter, per the paper)
    for suf, rep in (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
        ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
        ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
        ("biliti", "ble"),
    ):
        if w.endswith(suf):
            stem = w[: len(w) - len(suf)]
            if _measure(stem) > 0:
                w = stem + rep
            break
    # step 3
    for suf, rep in (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ):
        if w.endswith(suf):
            stem = w[: len(w) - len(suf)]
            if _measure(stem) > 0:
                w = stem + rep
            break
    # step 4
    for suf in (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
        "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
        "ous", "ive", "ize",
    ):
        if w.endswith(suf):
            stem = w[: len(w) - len(suf)]
            if suf == "ion" and not stem.endswith(("s", "t")):
                break
            if _measure(stem) > 1:
                w = stem
            break
    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _cvc(stem)):
            w = stem
    # step 5b
    if _measure(w) > 1 and _double_cons(w) and w.endswith("l"):
        w = w[:-1]
    return w


def porter_stem_batch(s: pd.Series) -> pd.Series:
    """Per-element stemming over a token Series (tokens are short and
    the rule walk is a few suffix probes each — the per-record scorer
    shape; callers stem the DISTINCT token table, not the corpus, so
    the loop is vocabulary-sized)."""
    uniq = pd.Series(s.fillna("").unique())
    lut = dict(zip(uniq, uniq.map(porter_stem)))
    return s.fillna("").map(lut)
