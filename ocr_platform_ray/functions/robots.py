"""Robots Exclusion Protocol filter (RFC 9309) — the crawl-policy gate a
Common-Crawl-style pipeline applies before fetching/keeping pages.

The reference fetches per-book assets unconditionally (its sources are
licensed archives); a web-crawl engine must honor per-host robots.txt.
This module implements the RFC 9309 group/rule model from the public
spec: ``User-agent`` groups (a group applies when its product token
matches the caller's agent or is ``*``; the most specific agent group
wins and ``*`` applies only when no named group does), ``Allow`` /
``Disallow`` path rules, longest-prefix-match precedence with Allow
winning equal-length ties (§2.2.2), empty ``Disallow:`` = allow-all,
no applicable rule = allow.  Wildcard metacharacters (``*``/``$``) are
NOT interpreted — rules containing them are dropped with the
conservative effect documented per call site (the overwhelming majority
of real rules are literal prefixes).

Scale shape: the parsed per-host rule table is host-dimension-sized and
ships ONCE via ``ray.put`` + ``cached_get`` (the T2 broadcast rule);
the page-side match is map-only — host/path extraction is one regex
kernel each, then one vectorized ``startswith`` pass per (host, rule)
over that host's rows.  A rules table too large to broadcast would use
the bucketed host join (``ops/relational.bucketed_hash_join`` on host)
— same match kernel per bucket; not needed below ~10^7 hosts.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..state.broadcast import cached_get

# host capture EXCLUDES ':?#' (functions/url.py's convention): a url with
# an explicit port or a query-only path must still hit its host's rules
_HOST_RE = re.compile(r"^[a-z]+://([^/:?#]+)", re.IGNORECASE)
_PATH_RE = re.compile(r"^[a-z]+://[^/]*(/[^#?]*)?", re.IGNORECASE)


def parse_robots_rules(
    txt: str, *, agent: str = "*"
) -> list[tuple[bool, str]]:
    """robots.txt -> [(allow, path_prefix)] for the given agent.

    RFC 9309 group selection: collect rules from the group(s) whose
    ``User-agent`` token case-insensitively equals ``agent``; fall back
    to the ``*`` group(s) ONLY when no named group EXISTS — a named
    group whose rules were all dropped (empty Disallow, wildcards) or
    that has no rules at all still governs and means allow-all, exactly
    as the spec reads it.  Consecutive User-agent lines share one
    group.  Rules with ``*``/``$`` wildcards or empty Disallow values
    are dropped (documented limitation)."""
    named: list[tuple[bool, str]] = []
    star: list[tuple[bool, str]] = []
    cur_agents: list[str] = []
    in_group_body = False
    saw_named = False
    for raw in txt.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if in_group_body:
                cur_agents = []
                in_group_body = False
            cur_agents.append(val.lower())
            if val.lower() == agent.lower():
                # group EXISTENCE selects it, independent of whether any
                # of its rules survive the parse
                saw_named = True
            continue
        if key not in ("allow", "disallow"):
            continue
        in_group_body = True
        if not cur_agents:
            continue  # rule before any User-agent line: ignored (spec)
        if "*" in val or "$" in val:
            continue
        if key == "disallow" and val == "":
            continue  # empty Disallow = allow-all (no rule)
        if agent.lower() in cur_agents:
            named.append((key == "allow", val))
        elif "*" in cur_agents:
            star.append((key == "allow", val))
    return named if saw_named else star


def robots_filter(
    ds: rd.Dataset,
    robots: pd.DataFrame | rd.Dataset,
    *,
    url_col: str = "url",
    agent: str = "*",
    keep_col: str | None = None,
) -> rd.Dataset:
    """Drop rows whose url a host's robots.txt disallows for ``agent``
    (hosts without robots.txt allow everything).  ``robots`` is a
    (host, robots_txt) table — parsed ONCE driver-side, broadcast once.
    With ``keep_col``, rows are kept and annotated instead of dropped."""
    if isinstance(robots, rd.Dataset):
        robots = robots.to_pandas()
    rules_by_host = {
        str(h).lower(): parse_robots_rules(str(t), agent=agent)
        for h, t in zip(robots["host"], robots["robots_txt"])
    }
    rules_ref = ray.put(rules_by_host)

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            if keep_col is not None:
                out = b.copy()
                out[keep_col] = pd.Series([], dtype=bool)
                return out
            return b
        rules = cached_get(rules_ref)
        b = b.reset_index(drop=True)  # positional group indices below
        urls = b[url_col].astype(str)
        hosts = urls.str.extract(_HOST_RE, expand=False).fillna("").str.lower()
        paths = urls.str.extract(_PATH_RE, expand=False).fillna("/")
        paths = paths.where(paths != "", "/")
        keep = np.ones(len(b), dtype=bool)
        # one vectorized startswith pass per (present host, rule)
        for host, idx in hosts.groupby(hosts).groups.items():
            host_rules = rules.get(host)
            if not host_rules:
                continue
            p = paths.loc[idx]
            best_len = np.full(len(p), -1, dtype=np.int64)
            best_allow = np.ones(len(p), dtype=bool)
            for allow, prefix in host_rules:
                m = p.str.startswith(prefix).to_numpy()
                lp = len(prefix)
                better = m & (
                    (lp > best_len) | ((lp == best_len) & allow & ~best_allow)
                )
                best_len[better] = lp
                best_allow[better] = allow
            keep[np.asarray(idx, dtype=np.int64)] = best_allow
        out = b.copy()
        if keep_col is not None:
            out[keep_col] = keep
            return out
        return out[keep]

    return ds.map_batches(gate, batch_format="pandas")
