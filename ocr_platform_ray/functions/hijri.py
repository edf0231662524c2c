"""Hijri <-> Gregorian date conversion (M13, apps/web/src/lib/hijri.ts:3-122).

The reference uses the standard julian-day-pivot tabular (arithmetic) Islamic
calendar — a public-domain algorithm (Kuwaiti/tabular calendar).  The
rebuild implements the same arithmetic with pure integer math so it is
vectorizable and expressible as a DuckDB SQL oracle (all floor divisions).
"""

from __future__ import annotations

ISLAMIC_EPOCH = 1948440  # julian day of 1 Muharram AH 1 (tabular, astronomical/Friday epoch)


def _gregorian_to_jd(year: int, month: int, day: int) -> int:
    a = (14 - month) // 12
    y = year + 4800 - a
    m = month + 12 * a - 3
    return day + (153 * m + 2) // 5 + 365 * y + y // 4 - y // 100 + y // 400 - 32045


def _jd_to_gregorian(jd: int) -> tuple[int, int, int]:
    a = jd + 32044
    b = (4 * a + 3) // 146097
    c = a - 146097 * b // 4
    d = (4 * c + 3) // 1461
    e = c - 1461 * d // 4
    m = (5 * e + 2) // 153
    day = e - (153 * m + 2) // 5 + 1
    month = m + 3 - 12 * (m // 10)
    year = 100 * b + d - 4800 + m // 10
    return year, month, day


def gregorian_to_hijri(year: int, month: int, day: int) -> tuple[int, int, int]:
    jd = _gregorian_to_jd(year, month, day)
    days = jd - ISLAMIC_EPOCH
    hy = (30 * days + 10646) // 10631
    start_of_year = ISLAMIC_EPOCH + (10631 * hy - 10617) // 30
    doy = jd - start_of_year  # 0-based day of hijri year
    hm = min(11, doy // 29)   # refine below (months alternate 30/29)
    while _hijri_month_start(hy, hm) > doy:
        hm -= 1
    hd = doy - _hijri_month_start(hy, hm) + 1
    return hy, hm + 1, hd


def _hijri_month_start(hy: int, m0: int) -> int:
    return (m0 * 59 + 1) // 2  # months alternate 30,29,...


def hijri_to_gregorian(hy: int, hm: int, hd: int) -> tuple[int, int, int]:
    jd = ISLAMIC_EPOCH + (10631 * hy - 10617) // 30 + _hijri_month_start(hy, hm - 1) + hd - 1
    return _jd_to_gregorian(jd)


def gregorian_to_hijri_year(gy: int) -> int:
    """Year-level helper (hijri.ts year helpers): hijri year at Jan 1 of gy.
    Expressible in SQL as floor arithmetic over the julian day of Jan 1."""
    return gregorian_to_hijri(gy, 1, 1)[0]
