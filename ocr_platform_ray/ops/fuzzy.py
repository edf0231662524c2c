"""Dataset-scale fuzzy string matching (J4 extension).

The reference matches free-text titles with a scalar fuzzy scorer
(``command_score``, apps/web/test.ts:8-99) over candidate lists; at corpus
scale the missing piece is CANDIDATE GENERATION without an all-pairs scan.
``fuzzy_join_lev`` provides it with the PassJoin partitioning scheme
(Li, Deng, Feng — EDBT 2011, public algorithm): if lev(a, b) <= d then at
least one of a's d+1 segments occurs as a substring of b at a start
position shifted by at most d — so blocking on (length, segment_idx,
segment) keys from the indexed side and (length, segment_idx, substring)
probe keys from the other side is EXACT (guaranteed recall), and only the
candidate pairs are verified with a banded edit-distance DP.

Exchange shape: one hash-shard shuffle over the (len, seg_idx, segment)
keys (same pattern as stages/reassemble.py), vectorized in-shard
cross-side merge, then a pair-set-sized verification with vectorized
prefilters (equal-length hamming accept; character-frequency lower-bound
reject) so the Python DP touches only genuinely ambiguous pairs."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.score import command_score
from ..state.broadcast import cached_get
from .exchange import exchange


def levenshtein(a: str, b: str, *, cutoff: int | None = None) -> int:
    """Unit-cost edit distance (matches DuckDB ``levenshtein``); with
    ``cutoff``, returns cutoff+1 as soon as the distance must exceed it
    (banded DP)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if cutoff is not None and lb - la > cutoff:
        return cutoff + 1
    if la == 0:
        return lb
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        cur = [j] + [0] * la
        cb = b[j - 1]
        lo = 1 if cutoff is None else max(1, j - cutoff)
        hi = la if cutoff is None else min(la, j + cutoff)
        if cutoff is not None:
            if lo > 1:
                cur[lo - 1] = cutoff + 1
            best = cutoff + 1
        for i in range(lo, hi + 1):
            c = min(
                prev[i] + 1,
                cur[i - 1] + 1,
                prev[i - 1] + (a[i - 1] != cb),
            )
            cur[i] = c
            if cutoff is not None and c < best:
                best = c
        if cutoff is not None:
            if hi < la:
                cur[hi + 1 :] = [cutoff + 1] * (la - hi)
            if best > cutoff:
                return cutoff + 1
        prev = cur
    return prev[la]


def _verify_dists(sa: np.ndarray, sb: np.ndarray, d: int) -> np.ndarray:
    """Exact distances for candidate string pairs: vectorized equal-length
    hamming accept first (for hamming <= 2 and equal lengths, lev ==
    hamming exactly — a single non-substitution op changes length), then
    the banded DP for the ambiguous remainder only."""
    la = np.fromiter((len(s) for s in sa), dtype=np.int64, count=len(sa))
    lb = np.fromiter((len(s) for s in sb), dtype=np.int64, count=len(sb))
    dist = np.full(len(sa), -1, dtype=np.int64)
    ham_cap = min(d, 2)
    eq = la == lb
    if eq.any():
        for L in np.unique(la[eq]):
            sel = np.nonzero(eq & (la == L))[0]
            if L == 0:
                dist[sel] = 0
                continue
            A = np.frombuffer("".join(sa[sel]).encode("utf-32-le"), dtype=np.uint32).reshape(
                len(sel), L
            )
            B = np.frombuffer("".join(sb[sel]).encode("utf-32-le"), dtype=np.uint32).reshape(
                len(sel), L
            )
            ham = (A != B).sum(axis=1)
            ok = ham <= ham_cap
            dist[sel[ok]] = ham[ok]
    for k in np.nonzero(dist < 0)[0]:
        dist[k] = levenshtein(sa[k], sb[k], cutoff=d)
    return dist


def _verify_bucketed(
    cand_ds: rd.Dataset,
    left: rd.Dataset,
    right: rd.Dataset,
    id_col: str,
    str_col: str,
    d: int,
    with_command_score: bool,
    empty_out: pd.DataFrame,
) -> pd.DataFrame:
    """Distributed candidate verification: dedupe pairs with a shard
    reduce, join the strings back via the bucketed exchange (no driver
    id-set), verify inside map_batches — only qualifying pairs return."""
    from .relational import bucketed_hash_join, sharded_group_agg

    dedup = sharded_group_agg(cand_ds, ["id_l", "id_r"], {"__n": ("id_l", "size")})
    dedup = dedup.map_batches(
        lambda b: b[["id_l", "id_r"]], batch_format="pandas"
    )
    lstr = left.map_batches(
        lambda b: pd.DataFrame({"id_l": b[id_col], "__s_l": b[str_col]}), batch_format="pandas"
    )
    rstr = right.map_batches(
        lambda b: pd.DataFrame({"id_r": b[id_col], "__s_r": b[str_col]}), batch_format="pandas"
    )
    j = bucketed_hash_join(dedup, lstr, "id_l", how="inner")
    j = bucketed_hash_join(j, rstr, "id_r", how="inner")

    def score(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return empty_out.copy()
        sa = b["__s_l"].to_numpy(dtype=object)
        sb = b["__s_r"].to_numpy(dtype=object)
        dist = _verify_dists(sa, sb, d)
        out = b[["id_l", "id_r"]].assign(lev_dist=dist)
        keep = out["lev_dist"] <= d
        out = out[keep]
        if with_command_score:
            out = out.assign(
                cscore=[
                    round(command_score(x, y), 6)
                    for x, y in zip(sa[keep.to_numpy()], sb[keep.to_numpy()])
                ]
            )
        return out

    out = j.map_batches(score, batch_format="pandas").to_pandas()
    if out.empty:
        return empty_out
    out = out.astype({"id_l": "int64", "id_r": "int64", "lev_dist": "int64"})
    return out.sort_values(["id_l", "id_r"]).reset_index(drop=True)


def _segments(length: int, d: int) -> list[tuple[int, int]]:
    """PassJoin even partition of a length-`length` string into d+1
    segments -> [(start, seg_len)]; the last ``length % (d+1)`` segments
    are one longer."""
    m = d + 1
    base, extra = divmod(length, m)
    out = []
    pos = 0
    for i in range(m):
        ln = base + (1 if i >= m - extra else 0)
        out.append((pos, ln))
        pos += ln
    return out


def fuzzy_join_lev(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    id_col: str = "id",
    str_col: str = "name",
    max_dist: int = 2,
    with_command_score: bool = False,
    verify: str = "broadcast",
    blocking: str = "auto",
    blocking_threshold_rows: int = 20_000,
) -> pd.DataFrame:
    """All (left, right) pairs with levenshtein <= max_dist, exactly —
    PassJoin blocking + banded-DP verification; no all-pairs scan.
    Returns (id_l, id_r, lev_dist[, cscore]) sorted.

    ``with_command_score`` annotates each surviving pair with the
    reference's fuzzy scorer (M17 command_score) — the J4 'fuzzy name
    match' composition at dataset scale.

    ``blocking``: "auto" probes both sides with ``limit(threshold+1)``
    (the auto_join planner idea) — when both fit, the segment/substring
    key tables build and merge on the driver with ZERO exchanges (the
    probe heads double as the verification string maps, so the whole
    join is two bounded executions); above the threshold, the hash-shard
    "exchange" route.  Routes are equivalence-tested.

    ``verify``: "broadcast" fetches involved strings via one id-set
    filter (pair-set-sized); "bucketed" joins the candidate pairs against
    each side with the explicit bucketed exchange and verifies inside
    map_batches — no driver-held id set (the corpus-scale route;
    equivalence-tested)."""
    d = max_dist

    def left_keys(b: pd.DataFrame) -> pd.DataFrame:
        ids, lens, segi, segs = [], [], [], []
        for i, s in zip(b[id_col], b[str_col]):
            if len(s) <= d:
                # short left string (len <= d): its d+1 segments include a
                # ZERO-length one, which the pigeonhole argument lets match
                # anywhere — emit a catch-all block keyed by the length
                # (right side pairs it with lengths within +-d)
                ids.append(i)
                lens.append(len(s))
                segi.append(-1)
                segs.append("")
            for si, (pos, ln) in enumerate(_segments(len(s), d)):
                if ln == 0:
                    continue
                ids.append(i)
                lens.append(len(s))
                segi.append(si)
                segs.append(s[pos : pos + ln])
        out = pd.DataFrame({"rid": ids, "L": lens, "si": segi, "seg": segs})
        out["__side"] = "l"
        return out

    def right_keys(b: pd.DataFrame) -> pd.DataFrame:
        ids, lens, segi, segs = [], [], [], []
        for i, s in zip(b[id_col], b[str_col]):
            ls = len(s)
            # catch-all probes for SHORT left strings (len <= d): any
            # right within +-d of that length is a candidate
            for L in range(max(0, ls - d), min(d, ls + d) + 1):
                ids.append(i)
                lens.append(L)
                segi.append(-1)
                segs.append("")
            for L in range(max(1, ls - d), ls + d + 1):
                for si, (pos, ln) in enumerate(_segments(L, d)):
                    if ln == 0:
                        continue
                    for q in range(max(0, pos - d), min(ls - ln, pos + d) + 1):
                        ids.append(i)
                        lens.append(L)
                        segi.append(si)
                        segs.append(s[q : q + ln])
        out = pd.DataFrame({"rid": ids, "L": lens, "si": segi, "seg": segs})
        out["__side"] = "r"
        return out

    empty_pairs = pd.DataFrame(
        {"id_l": pd.Series(dtype="int64"), "id_r": pd.Series(dtype="int64")}
    )
    pairs = None
    lmap = rmap = None  # filled by the driver route; fetched otherwise
    if blocking == "auto":
        from .relational import probe_head

        lhead = probe_head(left, blocking_threshold_rows)
        rhead = probe_head(right, blocking_threshold_rows) if lhead is not None else None
        if lhead is not None and rhead is not None:
            if lhead.shape[1] == 0 or rhead.shape[1] == 0:  # empty side
                pairs = empty_pairs
                lmap, rmap = {}, {}
            else:
                m = left_keys(lhead).merge(
                    right_keys(rhead), on=["L", "si", "seg"], suffixes=("_l", "_r")
                )
                pairs = (
                    m[["rid_l", "rid_r"]]
                    .drop_duplicates()
                    .rename(columns={"rid_l": "id_l", "rid_r": "id_r"})
                )
                lmap = dict(zip(lhead[id_col], lhead[str_col]))
                rmap = dict(zip(rhead[id_col], rhead[str_col]))
        else:
            blocking = "exchange"

    lk = left.map_batches(left_keys, batch_format="pandas")
    rk = right.map_batches(right_keys, batch_format="pandas")

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"id_l": pd.Series(dtype="int64"), "id_r": pd.Series(dtype="int64")}
        )
        if "__side" not in g.columns:
            return empty
        lg = g[g["__side"] == "l"]
        rg = g[g["__side"] == "r"]
        if lg.empty or rg.empty:
            return empty
        m = lg.merge(rg, on=["L", "si", "seg"], suffixes=("_l", "_r"))
        if m.empty:
            return empty
        out = m[["rid_l", "rid_r"]].drop_duplicates()
        return out.rename(columns={"rid_l": "id_l", "rid_r": "id_r"})

    empty_out = pd.DataFrame(
        {
            "id_l": pd.Series(dtype="int64"),
            "id_r": pd.Series(dtype="int64"),
            "lev_dist": pd.Series(dtype="int64"),
        }
    )
    if pairs is None:  # exchange blocking route
        cand_ds = exchange(lk.union(rk), ["seg", "L"], shard_pairs)
        if verify == "bucketed":
            return _verify_bucketed(
                cand_ds, left, right, id_col, str_col, d, with_command_score, empty_out
            )
        cand = cand_ds.to_pandas()
        if cand.empty:
            return empty_out
        pairs = cand.drop_duplicates()
    else:  # driver blocking route — strings already on hand
        if pairs.empty:
            return empty_out
        if verify == "bucketed":
            return _verify_bucketed(
                rd.from_pandas(pairs), left, right, id_col, str_col, d,
                with_command_score, empty_out,
            )

    if lmap is None:
        # verification: fetch only involved strings (pair-set-sized); at
        # 10^12 rows this broadcast fetch becomes a bucketed join on id
        inv_l = frozenset(pairs["id_l"])
        inv_r = frozenset(pairs["id_r"])
        l_ref, r_ref = ray.put(inv_l), ray.put(inv_r)

        def pick(ref):
            def f(b: pd.DataFrame) -> pd.DataFrame:
                return b[b[id_col].isin(cached_get(ref))][[id_col, str_col]]

            return f

        lmap = dict(
            zip(*(lambda df: (df[id_col], df[str_col]))(
                left.map_batches(pick(l_ref), batch_format="pandas").to_pandas()
            ))
        )
        rmap = dict(
            zip(*(lambda df: (df[id_col], df[str_col]))(
                right.map_batches(pick(r_ref), batch_format="pandas").to_pandas()
            ))
        )
    sa = np.array([lmap[i] for i in pairs["id_l"]], dtype=object)
    sb = np.array([rmap[i] for i in pairs["id_r"]], dtype=object)
    dist = _verify_dists(sa, sb, d)
    out = pairs.assign(lev_dist=dist)
    out = out[out["lev_dist"] <= d].copy()
    if out.empty:
        return empty_out
    out["id_l"] = out["id_l"].astype("int64")
    out["id_r"] = out["id_r"].astype("int64")
    out["lev_dist"] = out["lev_dist"].astype("int64")
    if with_command_score:
        out["cscore"] = [
            round(command_score(lmap[a], rmap[b]), 6) for a, b in zip(out["id_l"], out["id_r"])
        ]
    return out.sort_values(["id_l", "id_r"]).reset_index(drop=True)