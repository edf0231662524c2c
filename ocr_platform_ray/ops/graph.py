"""Graph operators over edge tables — the link-graph half of a
web-crawl pipeline (Common Crawl ships harmonic-centrality/PageRank
ranks next to its text): connected components and PageRank over a
``(src, dst)`` edge Dataset.

Scale shape:
- `connected_components` is min-label propagation — the machinery
  `ops/dedup.dup_clusters_distributed` already proves out (bucketed
  label⋈edge exchange per round, distributed exact convergence check,
  labels never driver-sized) — re-exposed with graph naming so callers
  outside dedup find it.
- `pagerank` is the standard power iteration expressed as Dataset
  passes: per iteration the per-edge weights broadcast once (`ray.put`)
  and ONE map pass over the (src, dst) projection emits (dst, partial)
  combiner rows into a size-aware grouped finish — O(n_iter)
  executions, which IS PageRank's distributed cost (every engine pays
  the per-iteration exchange).  The rank table itself is node-sized and
  driver-resident by contract (the report-output rule) — a corpus
  whose VERTEX set outgrows one machine needs the label-table-as-
  Dataset treatment `dup_clusters_distributed(as_dataset=True)` proves
  out, deliberately not duplicated here.  Float contributions sum in
  block order, so ranks are reproducible to ~1e-12 but not bit-stable
  across block structures (the lm_perplexity float rule — tests
  compare at rtol).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.textscan import flat_finditer
from .dedup import dup_clusters_distributed
from .exchange import SHARD, _hash_labels, exchange, shard_count
from .relational import (
    anti_join,
    auto_group_agg,
    bucketed_hash_join,
    probe_head,
    semi_join,
    sharded_group_agg,
)


def connected_components(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    max_rounds: int = 50,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Connected components of an undirected edge list: (id,
    cluster_id) with cluster_id = min member id.  Isolated nodes (in
    neither column) don't appear — union a (node, node) self-edge list
    to force them in."""
    return dup_clusters_distributed(
        edges,
        id_a=src_col,
        id_b=dst_col,
        max_rounds=max_rounds,
        as_dataset=as_dataset,
    )


def pagerank(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    damping: float = 0.85,
    n_iter: int = 20,
    personalization: dict | None = None,
    route: str = "auto",
    driver_threshold_rows: int = 2_000_000,
) -> pd.DataFrame | rd.Dataset:
    """PageRank over a directed edge list (dangling mass redistributed
    to the teleport distribution — the standard formulation):

        r'(v) = (1-d)*p(v) + d * (Σ_{u->v} r(u)/outdeg(u) + dangling*p(v))

    with p uniform by default.  ``personalization`` = {node: weight}
    gives PERSONALIZED PageRank — teleports land only on the seed set
    (weights normalize; nodes absent from the dict get p = 0).  With a
    trusted seed set this is exactly TrustRank (Gyöngyi et al. 2004),
    the published crawl-graph spam-demotion treatment: pages reachable
    only from outside the trust neighborhood starve.

    Parallel edges count once per occurrence (weight by multiplicity);
    self-loops are legal.  Returns (node, rank) for every node
    appearing in either column; ranks sum to 1.

    The rank table is returned as pandas on the DRIVER route —
    node-count-sized, the report-output contract.  ``route`` picks the
    state residency: "driver" (the measured-fastest small-graph path),
    "dataset" (ranks ride the bucketed exchange as a Dataset end-to-end
    — nothing vertex-sized ever lands on the driver or the object store
    as one object; the `dup_clusters_distributed(as_dataset=True)`
    treatment, for 10^9-vertex crawl graphs), or "auto" (default): the
    node table's size-aware distinct finish doubles as the probe — when
    the vertex set fits ``driver_threshold_rows`` the probe already IS
    the node table and the driver route costs nothing extra, else the
    dataset route is planned.  The dataset route returns a (node, rank)
    Dataset (unordered; ranks rtol-equivalent to the driver route — the
    float-association rule)."""
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if route not in ("auto", "driver", "dataset"):
        raise ValueError(f"pagerank: unknown route {route!r}")
    if personalization is not None:
        total = float(sum(personalization.values()))
        if not personalization or total <= 0 or min(personalization.values()) < 0:
            raise ValueError(
                "pagerank: personalization needs non-negative weights with a "
                "positive sum"
            )
    proj = edges.map_batches(
        lambda b: b[[src_col, dst_col]], batch_format="pandas"
    ).materialize()  # consumed once per iteration + degree/node passes

    # nodes = distinct(src) ∪ distinct(dst): per-batch unique combiner,
    # size-aware finish on the stacked projection
    def stack(b: pd.DataFrame) -> pd.DataFrame:
        vals = np.unique(
            np.concatenate([b[src_col].to_numpy(), b[dst_col].to_numpy()])
        )
        return pd.DataFrame({"node": vals})

    if route == "dataset":
        return _pagerank_dataset(
            proj, stack, src_col, dst_col, damping, n_iter,
            personalization,
        )
    nodes = auto_group_agg(
        proj.map_batches(stack, batch_format="pandas"),
        ["node"],
        {"__one": ("node", "count")},
        driver_threshold_rows=driver_threshold_rows,
    )
    if not isinstance(nodes, pd.DataFrame):
        if route == "auto":
            # vertex set larger than the driver contract: ranks must
            # ride the exchange
            return _pagerank_dataset(
                proj, stack, src_col, dst_col, damping, n_iter,
                personalization,
            )
        nodes = nodes.to_pandas()
    nodes = nodes[["node"]].sort_values("node").reset_index(drop=True)
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": pd.Series(dtype="object"),
                             "rank": pd.Series(dtype="float64")})

    deg = auto_group_agg(
        proj.map_batches(
            lambda b: b.groupby(src_col, as_index=False).agg(outdeg=(src_col, "size")),
            batch_format="pandas",
        ),
        [src_col],
        {"outdeg": ("outdeg", "sum")},
    )
    if not isinstance(deg, pd.DataFrame):
        deg = deg.to_pandas()

    if personalization is None:
        p_vec = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        total = float(sum(personalization.values()))
        p_vec = (
            nodes["node"].map(personalization).fillna(0.0).to_numpy(dtype=np.float64)
            / total
        )
        if p_vec.sum() <= 0:
            raise ValueError(
                "pagerank: no personalization seed appears in the graph"
            )
        p_vec = p_vec / p_vec.sum()  # seeds outside the graph renormalize away

    ranks = nodes.assign(rank=p_vec)
    for _ in range(n_iter):
        rd_tab = ranks.merge(deg, left_on="node", right_on=src_col, how="left")
        dangling = float(rd_tab.loc[rd_tab["outdeg"].isna(), "rank"].sum())
        sending = rd_tab[rd_tab["outdeg"].notna()]
        # per-edge weights broadcast ONCE per iteration (`ray.put`, the
        # T2 pattern) — each batch looks its sources up and emits
        # (dst, partial-sum) combiner rows; the grouped finish is
        # size-aware.  One map execution per iteration instead of a
        # join + agg chain (measured 3-4x fewer executions).
        wser = pd.Series(
            (sending["rank"] / sending["outdeg"]).to_numpy(),
            index=sending["node"].to_numpy(),
        )
        wref = ray.put(wser)

        def contrib_partial(b: pd.DataFrame, _wref=wref) -> pd.DataFrame:
            # plain ray.get, NOT cached_get: the weights change every
            # iteration and _GET_CACHE never evicts — caching would
            # accumulate n_iter node-sized Series per worker
            w = b[src_col].map(ray.get(_wref))
            sub = pd.DataFrame({dst_col: b[dst_col], "c": w}).dropna()
            return sub.groupby(dst_col, as_index=False).agg(c=("c", "sum"))

        summed = auto_group_agg(
            proj.map_batches(contrib_partial, batch_format="pandas"),
            [dst_col],
            {"c": ("c", "sum")},
        )
        if not isinstance(summed, pd.DataFrame):
            summed = summed.to_pandas()
        merged = nodes.merge(summed, left_on="node", right_on=dst_col, how="left")
        base = ((1.0 - damping) + damping * dangling) * p_vec
        ranks = nodes.assign(
            rank=base + damping * merged["c"].fillna(0.0).to_numpy()
        )
    return ranks.reset_index(drop=True)


def _pagerank_dataset(
    proj: rd.Dataset,
    stack,
    src_col: str,
    dst_col: str,
    damping: float,
    n_iter: int,
    personalization: dict | None,
) -> rd.Dataset:
    """PageRank with the rank table as a DATASET end-to-end — the
    `dup_clusters_distributed(as_dataset=True)` treatment for vertex
    sets that outgrow one machine (round-4 verdict item #3).

    Per iteration: ranks join out-degrees through the bucketed exchange
    (dangling mass = one float partial per block), the weighted rank
    joins the EDGE projection on src (edges re-exchange per round, the
    same shape as the label-propagation loop), per-batch (dst, c)
    combiner rows collapse in a hash-shard reduce, and the new rank
    table materializes — nothing vertex- or edge-sized ever lands on
    the driver.  Semantics identical to the driver route (dangling
    redistribution, multiplicity-weighted parallel edges,
    personalization renormalized over present seeds); float association
    differs, so ranks agree at rtol, not bitwise."""
    from .relational import bucketed_hash_join, sharded_group_agg

    nodes = (
        sharded_group_agg(
            proj.map_batches(stack, batch_format="pandas"),
            ["node"],
            {"__one": ("node", "count")},
        )
        .map_batches(lambda b: b[["node"]], batch_format="pandas")
        .materialize()
    )
    n = nodes.count()
    if n == 0:
        return rd.from_pandas(
            pd.DataFrame(
                {"node": pd.Series(dtype="object"), "rank": pd.Series(dtype="float64")}
            )
        )

    deg = (
        sharded_group_agg(
            proj.map_batches(
                lambda b: b.groupby(src_col, as_index=False).agg(
                    outdeg=(src_col, "size")
                ),
                batch_format="pandas",
            ),
            [src_col],
            {"outdeg": ("outdeg", "sum")},
        )
        .map_batches(
            lambda b: b.rename(columns={src_col: "node"}), batch_format="pandas"
        )
        .materialize()
    )

    def _scalar_sum(ds: rd.Dataset, col: str) -> float:
        parts = ds.map_batches(
            lambda b: pd.DataFrame({"s": [float(b[col].sum())]}),
            batch_format="pandas",
        ).to_pandas()
        return float(parts["s"].sum()) if len(parts) else 0.0

    if personalization is None:
        inv_n = 1.0 / n

        def with_p(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": b["node"], "p": inv_n})

        nodes_p = nodes.map_batches(with_p, batch_format="pandas").materialize()
    else:
        total = float(sum(personalization.values()))
        pref = ray.put(dict(personalization))

        def raw_p(b: pd.DataFrame, _pref=pref) -> pd.DataFrame:
            raw = b["node"].map(ray.get(_pref)).fillna(0.0) / total
            return pd.DataFrame({"node": b["node"], "p": raw.to_numpy()})

        raw = nodes.map_batches(raw_p, batch_format="pandas").materialize()
        mass = _scalar_sum(raw, "p")
        if mass <= 0:
            raise ValueError("pagerank: no personalization seed appears in the graph")

        def renorm(b: pd.DataFrame, _m=mass) -> pd.DataFrame:
            out = b.copy()
            out["p"] = out["p"] / _m
            return out

        nodes_p = raw.map_batches(renorm, batch_format="pandas").materialize()

    ranks = nodes_p.map_batches(
        lambda b: pd.DataFrame({"node": b["node"], "p": b["p"], "rank": b["p"]}),
        batch_format="pandas",
    ).materialize()

    for _ in range(n_iter):
        j = bucketed_hash_join(ranks, deg, on="node", how="left").materialize()

        def dang_part(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"s": [float(b.loc[b["outdeg"].isna(), "rank"].sum())]}
            )

        dparts = j.map_batches(dang_part, batch_format="pandas").to_pandas()
        dangling = float(dparts["s"].sum()) if len(dparts) else 0.0

        def weights(b: pd.DataFrame) -> pd.DataFrame:
            sub = b[b["outdeg"].notna()]
            return pd.DataFrame(
                {
                    src_col: sub["node"],
                    "__w": (sub["rank"] / sub["outdeg"]).to_numpy(),
                }
            )

        wsrc = j.map_batches(weights, batch_format="pandas")
        ej = bucketed_hash_join(proj, wsrc, on=src_col, how="inner")

        def contrib(b: pd.DataFrame) -> pd.DataFrame:
            sub = pd.DataFrame({"node": b[dst_col], "c": b["__w"]})
            return sub.groupby("node", as_index=False).agg(c=("c", "sum"))

        summed = sharded_group_agg(
            ej.map_batches(contrib, batch_format="pandas"),
            ["node"],
            {"c": ("c", "sum")},
        )
        nj = bucketed_hash_join(nodes_p, summed, on="node", how="left")

        def update(b: pd.DataFrame, _d=dangling) -> pd.DataFrame:
            base = ((1.0 - damping) + damping * _d) * b["p"].to_numpy()
            return pd.DataFrame(
                {
                    "node": b["node"],
                    "p": b["p"],
                    "rank": base + damping * b["c"].fillna(0.0).to_numpy(),
                }
            )

        ranks = nj.map_batches(update, batch_format="pandas").materialize()

    return ranks.map_batches(
        lambda b: b[["node", "rank"]], batch_format="pandas"
    )


def hits(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    n_iter: int = 20,
    route: str = "auto",
    driver_threshold_rows: int = 2_000_000,
) -> pd.DataFrame | rd.Dataset:
    """HITS hubs-and-authorities (Kleinberg 1999, the classic
    mutual-reinforcement pair next to PageRank):

        a'(v) = Σ_{u->v} h(u)   then L2-normalize
        h'(u) = Σ_{u->v} a'(v)  then L2-normalize

    Parallel edges count once per occurrence; self-loops are legal.
    Returns (node, hub, authority) for every node in either column,
    each score vector L2-normalized (all-zero vectors — no edges —
    stay zero).

    Scale shape = ``pagerank``'s: per half-iteration the current score
    Series broadcasts once (`ray.put`) and ONE map pass over the
    (src, dst) projection emits combiner rows into a size-aware grouped
    finish — two exchanges per iteration, which IS the distributed cost
    of HITS.  Float sums follow the lm_perplexity float rule (rtol
    reproducible, not bit-stable across block structures).

    ``route`` follows the `pagerank` contract: "driver" (node-sized
    score Series on the driver, the report-output default below the
    threshold), "dataset" (hub/authority tables as Datasets riding the
    bucketed exchange — `_hits_dataset`; returns a (node, hub,
    authority) Dataset, unordered, rtol-equivalent), or "auto"
    (default): the node table's size-aware distinct finish doubles as
    the probe."""
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    if route not in ("auto", "driver", "dataset"):
        raise ValueError(f"hits: unknown route {route!r}")
    proj = edges.map_batches(
        lambda b: b[[src_col, dst_col]], batch_format="pandas"
    ).materialize()  # consumed 2x per iteration + the node pass

    def stack(b: pd.DataFrame) -> pd.DataFrame:
        vals = np.unique(
            np.concatenate([b[src_col].to_numpy(), b[dst_col].to_numpy()])
        )
        return pd.DataFrame({"node": vals})

    if route == "dataset":
        return _hits_dataset(proj, stack, src_col, dst_col, n_iter)
    nodes = auto_group_agg(
        proj.map_batches(stack, batch_format="pandas"),
        ["node"],
        {"__one": ("node", "count")},
        driver_threshold_rows=driver_threshold_rows,
    )
    if not isinstance(nodes, pd.DataFrame):
        if route == "auto":
            return _hits_dataset(proj, stack, src_col, dst_col, n_iter)
        nodes = nodes.to_pandas()
    nodes = nodes[["node"]].sort_values("node").reset_index(drop=True)
    n = len(nodes)
    if n == 0:
        return pd.DataFrame(
            {
                "node": pd.Series(dtype="object"),
                "hub": pd.Series(dtype="float64"),
                "authority": pd.Series(dtype="float64"),
            }
        )

    def _half_step(scores: pd.Series, from_col: str, to_col: str) -> pd.Series:
        """One propagation: out(v) = Σ_{edge} scores[edge.from] grouped
        by edge.to, L2-normalized over all nodes."""
        ref = ray.put(scores)

        def partial(b: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            # plain ray.get, NOT cached_get: scores change every half-
            # iteration and _GET_CACHE never evicts
            w = b[from_col].map(ray.get(_ref))
            sub = pd.DataFrame({"node": b[to_col], "c": w}).dropna()
            return sub.groupby("node", as_index=False).agg(c=("c", "sum"))

        summed = auto_group_agg(
            proj.map_batches(partial, batch_format="pandas"),
            ["node"],
            {"c": ("c", "sum")},
        )
        if not isinstance(summed, pd.DataFrame):
            summed = summed.to_pandas()
        out = (
            nodes.merge(summed, on="node", how="left")["c"]
            .fillna(0.0)
            .to_numpy(dtype="float64")
        )
        norm = float(np.sqrt((out * out).sum()))
        if norm > 0.0:
            out = out / norm
        return pd.Series(out, index=nodes["node"].to_numpy())

    hub = pd.Series(1.0 / float(np.sqrt(n)), index=nodes["node"].to_numpy())
    authority = hub
    for _ in range(n_iter):
        authority = _half_step(hub, src_col, dst_col)
        hub = _half_step(authority, dst_col, src_col)
    return pd.DataFrame(
        {
            "node": nodes["node"].to_numpy(),
            "hub": hub.to_numpy(),
            "authority": authority.to_numpy(),
        }
    )


def _hits_dataset(
    proj: rd.Dataset,
    stack,
    src_col: str,
    dst_col: str,
    n_iter: int,
) -> rd.Dataset:
    """HITS with the score tables as DATASETS end-to-end (the
    `_pagerank_dataset` treatment): per half-iteration the current score
    table joins the edge projection through the bucketed exchange, each
    matching batch emits (to, c) combiner rows into a hash-shard reduce,
    and the L2 norm is one float partial per block — nothing vertex-
    sized ever lands on the driver.  Scores are rtol-equivalent to the
    driver route's (float association differs)."""
    from .relational import bucketed_hash_join, sharded_group_agg

    nodes = (
        sharded_group_agg(
            proj.map_batches(stack, batch_format="pandas"),
            ["node"],
            {"__one": ("node", "count")},
        )
        .map_batches(lambda b: b[["node"]], batch_format="pandas")
        .materialize()
    )
    n = nodes.count()
    if n == 0:
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "node": pd.Series(dtype="object"),
                    "hub": pd.Series(dtype="float64"),
                    "authority": pd.Series(dtype="float64"),
                }
            )
        )

    def _sq_sum(ds: rd.Dataset, col: str) -> float:
        parts = ds.map_batches(
            lambda b: pd.DataFrame({"s": [float((b[col] ** 2).sum())]}),
            batch_format="pandas",
        ).to_pandas()
        return float(parts["s"].sum()) if len(parts) else 0.0

    def _half_step_ds(scores: rd.Dataset, from_col: str, to_col: str) -> rd.Dataset:
        keyed = scores.map_batches(
            lambda b, _f=from_col: b[["node", "score"]].rename(
                columns={"node": _f}
            ),
            batch_format="pandas",
        )
        ej = bucketed_hash_join(proj, keyed, on=from_col, how="inner")

        def contrib(b: pd.DataFrame, _t=to_col) -> pd.DataFrame:
            sub = pd.DataFrame({"node": b[_t], "c": b["score"]})
            return sub.groupby("node", as_index=False).agg(c=("c", "sum"))

        summed = sharded_group_agg(
            ej.map_batches(contrib, batch_format="pandas"),
            ["node"],
            {"c": ("c", "sum")},
        )
        joined = bucketed_hash_join(nodes, summed, on="node", how="left").map_batches(
            lambda b: pd.DataFrame(
                {"node": b["node"], "score": b["c"].fillna(0.0).to_numpy()}
            ),
            batch_format="pandas",
        ).materialize()
        norm = float(np.sqrt(_sq_sum(joined, "score")))
        if norm <= 0.0:
            return joined

        def renorm(b: pd.DataFrame, _n=norm) -> pd.DataFrame:
            out = b.copy()
            out["score"] = out["score"] / _n
            return out

        return joined.map_batches(renorm, batch_format="pandas").materialize()

    init = 1.0 / float(np.sqrt(n))
    hub = nodes.map_batches(
        lambda b, _i=init: pd.DataFrame({"node": b["node"], "score": _i}),
        batch_format="pandas",
    ).materialize()
    authority = hub
    for _ in range(n_iter):
        authority = _half_step_ds(hub, src_col, dst_col)
        hub = _half_step_ds(authority, dst_col, src_col)

    merged = bucketed_hash_join(
        hub.map_batches(
            lambda b: b.rename(columns={"score": "hub"}), batch_format="pandas"
        ),
        authority.map_batches(
            lambda b: b.rename(columns={"score": "authority"}),
            batch_format="pandas",
        ),
        on="node",
        how="inner",
    )
    return merged.map_batches(
        lambda b: b[["node", "hub", "authority"]], batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Link extraction: raw pages -> host-level edge table
# ---------------------------------------------------------------------------

_HREF_DQ = re.compile(r'href\s*=\s*"([^"]*)"', re.IGNORECASE)
_HREF_SQ = re.compile(r"href\s*=\s*'([^']*)'", re.IGNORECASE)
_SCHEME_HOST = re.compile(r"^[a-z]+://([^/:?#]+)", re.IGNORECASE)
_PROTO_REL_HOST = re.compile(r"^//([^/:?#]+)")
# a closing " and ' before the row separator: an unbalanced quote in one
# page's html can never extend a match across the row boundary
_ROW_SEP = "\"'\x00\"'"


def _flat_findall(rx: "re.Pattern", htmls: pd.Series) -> tuple[np.ndarray, list[str]]:
    """ONE compiled-regex pass over the batch's concatenated html via the
    shared flat scan (``functions/textscan`` — same kernel as the card
    redactor): returns (row index per match, matched group values)."""
    rows, vals = [], []
    for row, m, _ in flat_finditer(rx, htmls.tolist(), _ROW_SEP):
        rows.append(row)
        vals.append(m.group(1))
    return np.asarray(rows, dtype=np.int64), vals


def extract_host_links(
    pages: rd.Dataset,
    *,
    url_col: str = "url",
    html_col: str = "html",
    finish: str = "auto",
) -> rd.Dataset | pd.DataFrame:
    """Anchor-href extraction over raw pages -> host-level weighted edge
    table ``(src_host, dst_host, n_links)`` — the input side of
    ``pagerank`` / ``connected_components`` for a crawl corpus.

    Resolution rules (the SQL-mirrorable subset of RFC 3986 reference
    resolution, applied at HOST granularity):
      absolute http(s) link -> its host; protocol-relative ``//h/...``
      -> its host; fragment-only / mailto: / javascript: -> dropped;
      anything else (relative path) -> the page's own host.

    Scale shape: MAP-ONLY extraction — per batch, html decodes once and
    BOTH quote-style regexes run as one compiled pass over the
    concatenated batch text; matches classify vectorized; per-batch
    (src,dst) combiner partials feed the size-aware grouped finish
    (auto_group_agg).  Raw html never rides an exchange."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "src_host": pd.Series([], dtype=object),
                "dst_host": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if len(b) == 0:
            return empty
        htmls = b[html_col]
        # sample a NON-NULL value: a None in row 0 (e.g. a revisit record
        # from read_warc) must not skip the bytes decode for the rest
        sample = htmls.dropna()
        if len(sample) and isinstance(sample.iloc[0], (bytes, bytearray)):
            htmls = htmls.str.decode("utf-8", errors="replace")
        htmls = htmls.fillna("").astype(str)
        src_hosts = (
            b[url_col].astype(str).str.extract(_SCHEME_HOST, expand=False).fillna("")
        )
        frames = []
        for rx in (_HREF_DQ, _HREF_SQ):
            row_idx, vals = _flat_findall(rx, htmls)
            if not vals:
                continue
            links = pd.Series(vals, dtype=object)
            src = src_hosts.to_numpy()[row_idx]
            low = links.str.lower()
            is_abs = low.str.startswith(("http://", "https://"))
            is_proto = links.str.startswith("//")
            is_drop = low.str.startswith(("#", "mailto:", "javascript:"))
            # COPY: a bare pd.Series(src) would view src's buffer and the
            # masked assignments below would overwrite the src column too
            dst = pd.Series(src.copy(), dtype=object)  # relative -> own host
            dst[is_abs] = links[is_abs].str.extract(_SCHEME_HOST, expand=False)
            dst[is_proto] = links[is_proto].str.extract(_PROTO_REL_HOST, expand=False)
            dst[is_drop] = None
            keep = dst.notna() & (dst != "")
            frames.append(pd.DataFrame({"src_host": src[keep.to_numpy()], "dst_host": dst[keep]}))
        if not frames:
            return empty
        allm = pd.concat(frames, ignore_index=True)
        out = allm.groupby(["src_host", "dst_host"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    partials = pages.map_batches(partial, batch_format="pandas")
    out = auto_group_agg(
        partials, ["src_host", "dst_host"], {"n_links": ("n", "sum")}, finish=finish
    )
    return out


# Anchor + text in ONE match: the SQL-mirrorable subset — anchors whose
# inner content holds no nested element (RE2 both engines; non-greedy
# attribute skip, text capped at the first '<').
_A_TEXT_DQ = re.compile(
    r'<a\s[^>]*?href\s*=\s*"([^"]*)"[^>]*>([^<]*)</a>', re.IGNORECASE
)
_A_TEXT_SQ = re.compile(
    r"<a\s[^>]*?href\s*=\s*'([^']*)'[^>]*>([^<]*)</a>", re.IGNORECASE
)
# explicit ASCII whitespace class — Python's \s is unicode-wide, RE2's is
# not; the explicit class makes the two engines agree (the main_content
# lesson from the session-7 review)
_WS_RUN = re.compile(r"[ \t\r\n\f\v]+")


def extract_anchor_texts(
    pages: rd.Dataset,
    *,
    url_col: str = "url",
    html_col: str = "html",
    finish: str = "auto",
) -> rd.Dataset | pd.DataFrame:
    """Anchor-TEXT extraction over raw pages -> ``(dst_host, anchor,
    n_links)`` — the classic anchor-text corpus (every destination's
    incoming link descriptions), the retrieval-training complement of
    `extract_host_links`' edge table: anchor text is an independent
    human-written summary of the TARGET page, the signal behind
    query-document pairs mined from crawls.

    Matching rule (the SQL-mirrorable subset): ``<a ... href="...">text
    </a>`` where the inner text holds no nested element; text
    whitespace-collapses (explicit ASCII class, both engines) and empty
    anchors drop.  Host resolution follows `extract_host_links`
    (absolute / protocol-relative -> target host, fragment / mailto: /
    javascript: -> dropped, relative -> the page's own host).

    Scale shape: MAP-ONLY extraction — one compiled pass per quote
    style over the batch's concatenated html, vectorized
    classification, per-batch (dst_host, anchor) combiner partials into
    the size-aware grouped finish.  Raw html never rides an exchange."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "dst_host": pd.Series([], dtype=object),
                "anchor": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if len(b) == 0:
            return empty
        htmls = b[html_col]
        sample = htmls.dropna()
        if len(sample) and isinstance(sample.iloc[0], (bytes, bytearray)):
            htmls = htmls.str.decode("utf-8", errors="replace")
        htmls = htmls.fillna("").astype(str)
        src_hosts = (
            b[url_col].astype(str).str.extract(_SCHEME_HOST, expand=False).fillna("")
        )
        frames = []
        for rx in (_A_TEXT_DQ, _A_TEXT_SQ):
            rows, hrefs, texts = [], [], []
            for row, m, _ in flat_finditer(rx, htmls.tolist(), _ROW_SEP):
                rows.append(row)
                hrefs.append(m.group(1))
                texts.append(m.group(2))
            if not hrefs:
                continue
            links = pd.Series(hrefs, dtype=object)
            # strip SPACES only (post-collapse the edges are single
            # spaces) — Python's bare strip() is unicode-wide, SQL's
            # trim is not; the explicit char set keeps engines agreeing
            anchor = (
                pd.Series(texts, dtype=object)
                .str.replace(_WS_RUN, " ", regex=True)
                .str.strip(" ")
            )
            src = src_hosts.to_numpy()[np.asarray(rows, dtype=np.int64)]
            low = links.str.lower()
            is_abs = low.str.startswith(("http://", "https://"))
            is_proto = links.str.startswith("//")
            is_drop = low.str.startswith(("#", "mailto:", "javascript:"))
            dst = pd.Series(src.copy(), dtype=object)  # relative -> own host
            dst[is_abs] = links[is_abs].str.extract(_SCHEME_HOST, expand=False)
            dst[is_proto] = links[is_proto].str.extract(_PROTO_REL_HOST, expand=False)
            dst[is_drop] = None
            keep = dst.notna() & (dst != "") & (anchor != "")
            frames.append(
                pd.DataFrame({"dst_host": dst[keep], "anchor": anchor[keep]})
            )
        if not frames:
            return empty
        allm = pd.concat(frames, ignore_index=True)
        out = allm.groupby(["dst_host", "anchor"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    partials = pages.map_batches(partial, batch_format="pandas")
    return auto_group_agg(
        partials, ["dst_host", "anchor"], {"n_links": ("n", "sum")}, finish=finish
    )


def _canon_simple_edges(edges: rd.Dataset, src_col: str, dst_col: str) -> rd.Dataset:
    """Canonical undirected simple edge set (a < b): self-loops drop,
    duplicate and reversed edges collapse — in-batch drop_duplicates
    combiner, then ONE tuple-hash exchange.  Materialized (the callers
    consume it several times)."""

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        s, d = b[src_col].to_numpy(), b[dst_col].to_numpy()
        keep = s != d
        s, d = s[keep], d[keep]
        return pd.DataFrame(
            {"a": np.minimum(s, d), "b": np.maximum(s, d)}
        ).drop_duplicates()

    return exchange(
        edges.map_batches(canon, batch_format="pandas"),
        ["a", "b"],
        lambda g: g.drop_duplicates(),
    ).materialize()


def _edge_degrees(e: rd.Dataset, deg_threshold_rows: int):
    """(node, deg) over a canonical edge set — endpoint value_counts
    combiner into the size-aware finish (pandas below the probe,
    Dataset past it)."""

    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = pd.concat([b["a"], b["b"]], ignore_index=True).value_counts()
        return pd.DataFrame({"node": vc.index.to_numpy(), "n": vc.to_numpy()})

    return auto_group_agg(
        e.map_batches(deg_partial, batch_format="pandas"),
        ["node"],
        {"deg": ("n", "sum")},
        driver_threshold_rows=deg_threshold_rows,
    )


def _orient_edges(e: rd.Dataset, deg) -> rd.Dataset:
    """Degree-oriented edges (Schank & Wagner 2005): u -> v from the
    lower-(degree, id) endpoint, bounding out-neighborhoods by
    O(sqrt(m)), for the u-sharded wedge self-merge.  ``deg`` may be the
    driver frame (broadcast lookup) or a Dataset (two bucketed joins)."""

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"u": b["a"], "v": b["b"]})
        a_first = (b["da"].to_numpy() < b["db"].to_numpy()) | (
            (b["da"].to_numpy() == b["db"].to_numpy())
            & (b["a"].to_numpy() < b["b"].to_numpy())
        )
        return pd.DataFrame(
            {
                "u": np.where(a_first, b["a"], b["b"]),
                "v": np.where(a_first, b["b"], b["a"]),
            }
        )

    if isinstance(deg, pd.DataFrame):
        # dim-sized node table: broadcast once, degree lookup map-side
        dref = ray.put(deg.set_index("node")["deg"])

        def add_deg(b: pd.DataFrame, _dref=dref) -> pd.DataFrame:
            dm = ray.get(_dref)
            out = b.copy()
            out["da"] = b["a"].map(dm).to_numpy()
            out["db"] = b["b"].map(dm).to_numpy()
            return orient(out)

        return e.map_batches(add_deg, batch_format="pandas")
    da = deg.map_batches(
        lambda b: b.rename(columns={"node": "a", "deg": "da"}),
        batch_format="pandas",
    )
    db = deg.map_batches(
        lambda b: b.rename(columns={"node": "b", "deg": "db"}),
        batch_format="pandas",
    )
    j = bucketed_hash_join(e, da, on="a")
    j = bucketed_hash_join(j, db, on="b")
    return j.map_batches(orient, batch_format="pandas")


def triangle_count(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    deg_threshold_rows: int = 2_000_000,
) -> int:
    """Exact triangle count of the undirected simple graph induced by
    ``edges``: self-loops drop, duplicate and reversed edges collapse.
    The classic link-graph cohesion statistic (clustering coefficient's
    numerator) next to `pagerank`/`hits`; node ids must be orderable.

    Degree-oriented node-iterator (Schank & Wagner 2005): each
    undirected edge is oriented from its lower-(degree, id) endpoint to
    the higher, bounding every vertex's out-neighborhood by O(sqrt(m))
    — the skew control that keeps the wedge self-join safe on power-law
    web graphs where a hub's raw neighborhood is corpus-sized.

    Scale shape: ONE tuple-hash exchange dedupes the canonical edge
    list (in-batch drop_duplicates combiner first); degrees come from a
    (node, n) combiner into the size-aware finish (`auto_group_agg` —
    driver+broadcast when the node table is dim-sized, bucketed degree
    joins past the probe); wedges are generated per u-shard with a
    vectorized self-merge (per-shard transient memory is the shard's
    wedge count, <= m*sqrt(m)/shards after orientation) and
    pre-counted per closing pair (the combiner), and the closing-edge
    check is one bucketed inner join against the edge set on the
    canonical pair.  Only scalar partial sums land on the driver.  The
    edge projection (two id columns) is materialized once because three
    passes consume it (degrees, wedges, closing join)."""
    e = _canon_simple_edges(edges, src_col, dst_col)
    if e.count() == 0:
        # an empty Dataset has no schema — the joins below can't plan
        return 0
    deg = _edge_degrees(e, deg_threshold_rows)

    oriented = _orient_edges(e, deg)

    def wedge_counts(g: pd.DataFrame) -> pd.DataFrame:
        f = g[["u", "v"]]
        m = f.merge(f, on="u")
        m = m[m["v_x"].to_numpy() < m["v_y"].to_numpy()]
        if not len(m):
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype=f["v"].dtype),
                    "b": pd.Series([], dtype=f["v"].dtype),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        # v_x < v_y is already the canonical (min, max) id order of E
        out = (
            pd.DataFrame({"a": m["v_x"].to_numpy(), "b": m["v_y"].to_numpy()})
            .groupby(["a", "b"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out["n"] = out["n"].astype("int64")
        return out

    wedges = exchange(oriented, "u", wedge_counts)
    closed = bucketed_hash_join(wedges, e, on=["a", "b"])
    parts = closed.map_batches(
        lambda b: pd.DataFrame({"s": [np.int64(b["n"].sum()) if len(b) else np.int64(0)]}),
        batch_format="pandas",
    ).to_pandas()
    return int(parts["s"].sum()) if len(parts) else 0


def kcore_subgraph(
    edges: rd.Dataset,
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    survivor_threshold_rows: int = 2_000_000,
    max_rounds: int = 10_000,
) -> rd.Dataset:
    """Maximal subgraph in which every vertex has degree >= ``k`` — the
    k-core (Seidman 1983), by distributed peeling (Matula & Beck 1983:
    repeatedly delete sub-k vertices until none remain).  The cohesion
    filter next to `pagerank`/`hits`/`triangle_count`: crawl-graph
    pipelines peel to kill spam farms and orphan chains before ranking.
    Operates on the undirected simple graph (self-loops drop, duplicate
    and reversed edges collapse — the `triangle_count` canonicalization,
    ONE tuple-hash exchange).

    Scale shape per round: degrees come from an in-batch endpoint
    value_counts combiner into the size-aware `auto_group_agg` finish;
    surviving vertices either broadcast as one set (when the survivor
    table fit the driver probe — both endpoints filter in ONE map pass)
    or drop losers via the bucketed semi-join exchange on each endpoint.
    Convergence is one edge count per round: a round that deletes no
    edge changes no degree, so the peel is complete.  Rounds = the peel
    depth of the graph (small for web graphs; a path graph is the
    O(n/k) worst case).  Returns the canonical k-core edge Dataset with
    the input column names.

    The naive-peel equality, planted-core recovery and both survivor
    routes are pytest-pinned (`TestKcore`)."""
    from .relational import _typed_empty, semi_join

    if k < 1:
        raise ValueError("kcore_subgraph: need k >= 1")

    e = _canon_simple_edges(edges, src_col, dst_col)
    n_edges = e.count()
    # an emptied core exits with a TYPED schema (schema() stays
    # (src, dst)-typed; note Ray's to_pandas() on ANY empty Dataset
    # returns a columnless frame — the probe_head house rule — so
    # consumers check shape[1]).  The peel runs on the canonical (a, b)
    # columns (the shared-helper contract); exits rename back.
    empty = _typed_empty(
        (e if n_edges else edges).schema(),
        ["a", "b"] if n_edges else [src_col, dst_col],
    )
    empty.columns = [src_col, dst_col]

    def _restore(ds_ab: rd.Dataset) -> rd.Dataset:
        if (src_col, dst_col) == ("a", "b"):
            return ds_ab
        return ds_ab.map_batches(
            lambda b: b.rename(columns={"a": src_col, "b": dst_col}),
            batch_format="pandas",
        )

    for _ in range(max_rounds):
        if n_edges == 0:
            return rd.from_pandas(empty)
        deg = _edge_degrees(e, survivor_threshold_rows)
        if isinstance(deg, pd.DataFrame):
            alive = deg.loc[deg["deg"] >= k, "node"]
            aref = ray.put(frozenset(alive))

            def keep_alive(b: pd.DataFrame, _aref=aref) -> pd.DataFrame:
                # plain ray.get: the ref is per ROUND — the never-evicting
                # broadcast cache would pin every round's set (the
                # pagerank per-iteration-weights rule)
                alive_set = ray.get(_aref)
                m = (
                    b["a"].isin(alive_set).to_numpy()
                    & b["b"].isin(alive_set).to_numpy()
                )
                return b[m]

            e2 = e.map_batches(keep_alive, batch_format="pandas").materialize()
        else:
            alive_ds = deg.map_batches(
                lambda b: b.loc[b["deg"] >= k, ["node"]], batch_format="pandas"
            )
            e2 = e
            for col in ("a", "b"):
                keys = alive_ds.map_batches(
                    lambda b, _c=col: b.rename(columns={"node": _c}),
                    batch_format="pandas",
                )
                e2 = semi_join(e2, keys, col, method="bucketed")
            e2 = e2.materialize()
        n2 = e2.count()
        if n2 == n_edges:
            return _restore(e2)
        e, n_edges = e2, n2
    raise RuntimeError(f"kcore_subgraph: no fixpoint in {max_rounds} rounds")


def clustering_coefficient(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    deg_threshold_rows: int = 2_000_000,
) -> pd.DataFrame:
    """Per-node local clustering coefficient (Watts & Strogatz 1998)
    over the undirected simple graph:

        cc(v) = 2 * T(v) / (deg(v) * (deg(v) - 1)),   cc = 0 for deg < 2

    where T(v) = triangles containing v — the per-node refinement of
    `triangle_count` (spam-farm detection reads high cc at low rank;
    crawl-graph pipelines ship it next to the centrality columns).

    Scale shape: the shared `_canon_simple_edges` / `_edge_degrees` /
    `_orient_edges` stages, then the wedge self-merge KEEPS its apex
    (rows (a, b, u) instead of pre-counted pairs — the per-node
    attribution needs all three corners), one bucketed closing join
    against the edge set, and per-node triangle counts from a
    three-endpoint value_counts combiner into the size-aware finish.
    Exchange volume = oriented wedge rows, O(m*sqrt(m)) after the
    degree orientation.  Returns a node-sized pandas report (the
    `pagerank` output contract): (node, deg, triangles, cc) — cc is an
    exact ratio of integers, so it is bit-stable across block
    structures."""
    e = _canon_simple_edges(edges, src_col, dst_col)
    if e.count() == 0:
        return pd.DataFrame(
            {
                "node": pd.Series(dtype="object"),
                "deg": pd.Series(dtype="int64"),
                "triangles": pd.Series(dtype="int64"),
                "cc": pd.Series(dtype="float64"),
            }
        )
    deg = _edge_degrees(e, deg_threshold_rows)
    oriented = _orient_edges(e, deg)

    def wedge_rows(g: pd.DataFrame) -> pd.DataFrame:
        f = g[["u", "v"]]
        m = f.merge(f, on="u")
        m = m[m["v_x"].to_numpy() < m["v_y"].to_numpy()]
        return pd.DataFrame(
            {"a": m["v_x"].to_numpy(), "b": m["v_y"].to_numpy(), "u": m["u"].to_numpy()}
        )

    wedges = exchange(oriented, "u", wedge_rows)
    closed = bucketed_hash_join(wedges, e, on=["a", "b"])

    def tri_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = pd.concat(
            [b["a"], b["b"], b["u"]], ignore_index=True
        ).value_counts()
        return pd.DataFrame({"node": vc.index.to_numpy(), "n": vc.to_numpy()})

    tri = auto_group_agg(
        closed.map_batches(tri_partial, batch_format="pandas"),
        ["node"],
        {"triangles": ("n", "sum")},
        driver_threshold_rows=deg_threshold_rows,
    )
    deg_df = deg if isinstance(deg, pd.DataFrame) else deg.to_pandas()
    tri_df = tri if isinstance(tri, pd.DataFrame) else tri.to_pandas()
    if tri_df.shape[1] == 0:  # no triangles at all (empty to_pandas quirk)
        tri_df = pd.DataFrame({"node": pd.Series(dtype=deg_df["node"].dtype),
                               "triangles": pd.Series(dtype="int64")})
    out = deg_df.merge(tri_df, on="node", how="left")
    out["triangles"] = out["triangles"].fillna(0).astype("int64")
    out["deg"] = out["deg"].astype("int64")
    d = out["deg"].to_numpy(dtype="float64")
    t = out["triangles"].to_numpy(dtype="float64")
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = 2.0 * t / (d * (d - 1.0))
    cc[out["deg"].to_numpy() < 2] = 0.0
    out["cc"] = cc
    return out.sort_values("node").reset_index(drop=True)


def bfs_distances(
    edges: rd.Dataset,
    seeds,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    directed: bool = True,
    max_hops: int = 30,
    route: str = "auto",
    driver_threshold_rows: int = 2_000_000,
) -> pd.DataFrame | rd.Dataset:
    """Minimum hop distance from a seed set — breadth-first frontier
    expansion over a (src, dst) edge Dataset (the crawl-graph "within k
    hops of the trusted domains" selection TrustRank approximates, here
    exact; also SQL's ``WITH RECURSIVE`` shortest-unweighted-path).

    Returns (node, dist) for every node reachable from ``seeds`` in at
    most ``max_hops`` edges (seeds themselves at dist 0, whether or not
    they appear in the edge list); unreachable nodes are absent, exactly
    like the recursive-CTE formulation.  ``directed=False`` walks edges
    both ways.

    Scale shape: the edge projection materializes once and never moves —
    each round broadcasts the CURRENT FRONTIER once (`ray.put`, the T2
    pattern), one map pass emits each batch's deduplicated successor set
    as combiner rows, and a size-aware distinct finish collapses them;
    candidates are then anti-joined against the visited table
    driver-side.  O(diameter) executions — BFS's distributed floor; the
    per-round exchange payload is the frontier's successor-id set, never
    the edges.

    ``route``: "driver" holds the visited/dist table on the driver (the
    report-output contract, fastest below the threshold); "dataset"
    keeps visited AND frontier as Datasets — successors come from a
    bucketed semi-join of the edges against the frontier, new nodes
    from a bucketed anti-join against the visited table, so nothing
    vertex-sized ever lands on the driver (the
    `dup_clusters_distributed(as_dataset=True)` treatment, round-4
    verdict item #3) and the result is a (node, dist) Dataset
    (unordered, values exactly equal to the driver route's);
    "auto" (default) probes the materialized edge projection with
    ``limit(threshold+1)`` — an edge list that fits
    ``driver_threshold_rows`` bounds the vertex set, so the driver
    route is safe; past it the dataset route is planned.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    if route not in ("auto", "driver", "dataset"):
        raise ValueError(f"bfs_distances: unknown route {route!r}")
    seeds = list(dict.fromkeys(seeds))
    if not seeds:
        raise ValueError("bfs_distances: empty seed set")

    cols = [src_col, dst_col]
    proj = edges.map_batches(
        lambda b: b[cols].dropna(), batch_format="pandas"
    ).materialize()  # consumed once per round
    if route == "dataset" or (
        route == "auto"
        and probe_head(proj, driver_threshold_rows) is None
    ):
        return _bfs_dataset(proj, seeds, src_col, dst_col, directed, max_hops)

    dist: dict = {s: 0 for s in seeds}
    frontier = set(seeds)
    for h in range(max_hops):
        fref = ray.put(frozenset(frontier))

        def succ_partial(b: pd.DataFrame, _fref=fref) -> pd.DataFrame:
            # frontier read once per batch from the object store — the
            # edge batch never leaves its task; emit the batch's
            # DISTINCT successors only (combiner: frontier-sized rows,
            # not edge-sized)
            f = ray.get(_fref)
            out = b.loc[b[src_col].isin(f), dst_col]
            if not directed:
                out = pd.concat(
                    [out, b.loc[b[dst_col].isin(f), src_col]],
                    ignore_index=True,
                )
            vals = pd.unique(out)
            return pd.DataFrame({"node": vals})

        cand = auto_group_agg(
            proj.map_batches(succ_partial, batch_format="pandas"),
            ["node"],
            {"__one": ("node", "count")},
        )
        if not isinstance(cand, pd.DataFrame):
            cand = cand.to_pandas()
        if cand.shape[1] == 0:  # columnless empty to_pandas quirk
            break
        new = [v for v in cand["node"].tolist() if v not in dist]
        if not new:
            break
        for v in new:
            dist[v] = h + 1
        frontier = set(new)

    out = pd.DataFrame(
        {"node": list(dist.keys()), "dist": np.fromiter(dist.values(), dtype="int64")}
    )
    return out.sort_values(["dist", "node"]).reset_index(drop=True)


def _bfs_dataset(
    proj: rd.Dataset,
    seeds: list,
    src_col: str,
    dst_col: str,
    directed: bool,
    max_hops: int,
) -> rd.Dataset:
    """BFS with visited/frontier as DATASETS riding the bucketed
    exchange (round-4 verdict item #3): per round the edge projection
    semi-joins against the frontier (bucketed — the frontier never
    lands on the driver), each matching batch emits its distinct
    successors as combiner rows into a hash-shard distinct, and the
    bucketed anti-join against the visited table yields the new
    frontier.  The only driver-visible value per round is one int (the
    new-frontier count, the convergence check).  Distances are exactly
    the driver route's."""
    visited = rd.from_pandas(
        pd.DataFrame({"node": pd.Series(seeds), "dist": np.int64(0)})
    ).materialize()
    frontier = visited

    def distinct_nodes(parts: rd.Dataset) -> rd.Dataset:
        return sharded_group_agg(
            parts, ["node"], {"__one": ("node", "count")}
        ).map_batches(lambda b: b[["node"]], batch_format="pandas")

    for h in range(max_hops):
        f_src = frontier.map_batches(
            lambda b: b[["node"]].rename(columns={"node": src_col}),
            batch_format="pandas",
        )
        succ = semi_join(proj, f_src, src_col, method="bucketed").map_batches(
            lambda b: pd.DataFrame({"node": pd.unique(b[dst_col])}),
            batch_format="pandas",
        )
        if not directed:
            f_dst = frontier.map_batches(
                lambda b: b[["node"]].rename(columns={"node": dst_col}),
                batch_format="pandas",
            )
            rev = semi_join(proj, f_dst, dst_col, method="bucketed").map_batches(
                lambda b: pd.DataFrame({"node": pd.unique(b[src_col])}),
                batch_format="pandas",
            )
            succ = succ.union(rev)
        cand = distinct_nodes(succ)
        new = (
            anti_join(cand, visited, "node", method="bucketed")
            .map_batches(
                lambda b, _d=np.int64(h + 1): pd.DataFrame(
                    {"node": b["node"], "dist": _d}
                ),
                batch_format="pandas",
            )
            .materialize()
        )
        if new.count() == 0:
            break
        visited = visited.union(new).materialize()
        frontier = new
    return visited


def link_prediction_scores(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    deg_threshold_rows: int = 2_000_000,
    max_center_degree: int = 10_000,
    as_dataset: bool = False,
) -> pd.DataFrame | rd.Dataset:
    """Common-neighbors + Adamic–Adar link prediction (Liben-Nowell &
    Kleinberg 2003; Adamic & Adar 2003) — "which pages/entities are
    likely to link next", the predictive readout over the same crawl
    graph pagerank/HITS rank: for every NON-adjacent pair (u, v) at
    distance 2 in the undirected simple graph,

        cn(u,v) = |N(u) ∩ N(v)|          (exact int64)
        aa(u,v) = Σ_{w ∈ N(u)∩N(v)} 1 / ln(deg(w))

    with the aa terms reduced per pair in ascending-``w`` order over
    libm logs (np.log rounds off libm — a unique-degree lookup keeps
    every term bit-identical to SQL ``ln``).  The segment reduce is
    ``np.add.reduceat``, whose accumulation can differ from a strictly
    sequential SQL ``SUM(term ORDER BY w)`` by one ulp on ≥3-term pairs
    (probed) — mirrors ROUND both sides (the grouped_cat_entropy
    precedent); cn is exact int64 regardless.  The result is
    block-structure independent (each pair's terms are co-located and
    reduced once).  Wedge centers need deg ≥ 2, so ln(deg) > 0.

    Scale shape: the triangle machinery's canonical edge set + size-
    aware degree reduce; adjacency explodes BOTH directions, wedges
    generate per center-shard with a vectorized self-merge, and the
    (u, v, w, deg_w) triples meet the tagged edge set in ONE
    (u, v)-hash exchange where existing edges are dropped and each
    pair's terms — co-located whole by construction — reduce with one
    lexsort + reduceat pass.  ``max_center_degree`` caps the per-center
    wedge blowup (the `max_posting` skew rule): mega-hub centers are
    SKIPPED — documented under-count; their 1/ln(deg) weight is the
    smallest in the graph and distance-2-via-megahub pairs are noise
    predictions by construction.  The same cap must appear in any SQL
    mirror."""
    e = _canon_simple_edges(edges, src_col, dst_col)
    if e.count() == 0:
        out = pd.DataFrame(
            {
                "u": pd.Series(dtype="object"),
                "v": pd.Series(dtype="object"),
                "cn": pd.Series(dtype="int64"),
                "aa": pd.Series(dtype="float64"),
            }
        )
        return rd.from_pandas(out) if as_dataset else out
    deg = _edge_degrees(e, deg_threshold_rows)

    # adjacency (w = center, x = neighbor), both directions
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "w": np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()]),
                "x": np.concatenate([b["b"].to_numpy(), b["a"].to_numpy()]),
            }
        )

    adj = e.map_batches(explode, batch_format="pandas")
    n_shards = shard_count()

    def uv_labelled(out: pd.DataFrame) -> pd.DataFrame:
        # the (u, v) exchange label, written where the rows are built
        out[SHARD] = _hash_labels(out, ["u", "v"], n_shards).astype("int64")
        return out

    def wedge_rows(g: pd.DataFrame) -> pd.DataFrame:
        # g: (w, x, dw) of capped-degree centers, w-sharded
        m = g.merge(g[["w", "x"]], on="w")
        m = m[m["x_x"].to_numpy() < m["x_y"].to_numpy()]
        return uv_labelled(
            pd.DataFrame(
                {
                    "u": m["x_x"].to_numpy(),
                    "v": m["x_y"].to_numpy(),
                    "w": m["w"].to_numpy(),
                    "dw": m["dw"].to_numpy(),
                }
            )
        )

    if isinstance(deg, pd.DataFrame):
        dref = ray.put(deg.set_index("node")["deg"])

        def wedges(g: pd.DataFrame, _dref=dref) -> pd.DataFrame:
            dm = ray.get(_dref)
            g = g.assign(dw=g["w"].map(dm).to_numpy())
            return wedge_rows(g[g["dw"] <= max_center_degree])

        trip = exchange(adj, "w", wedges)
    else:
        dws = deg.map_batches(
            lambda b: b.rename(columns={"node": "w", "deg": "dw"}),
            batch_format="pandas",
        )
        adj_deg = bucketed_hash_join(adj, dws, on="w")
        trip = exchange(
            adj_deg.map_batches(
                lambda b: b[b["dw"] <= max_center_degree], batch_format="pandas"
            ),
            "w",
            wedge_rows,
        )

    # tag existing edges into the SAME (u, v) exchange so adjacency
    # filtering needs no separate join
    def tag_edges(b: pd.DataFrame) -> pd.DataFrame:
        return uv_labelled(
            pd.DataFrame(
                {
                    "u": b["a"].to_numpy(),
                    "v": b["b"].to_numpy(),
                    "w": b["a"].to_numpy(),  # placeholder, ignored
                    "dw": np.full(len(b), -1, dtype="int64"),  # edge marker
                }
            )
        )

    tagged = trip.union(e.map_batches(tag_edges, batch_format="pandas"))

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        is_edge = g["dw"].to_numpy() == -1
        if is_edge.any():
            bad = g.loc[is_edge, ["u", "v"]].drop_duplicates()
            g = g.merge(bad, on=["u", "v"], how="left", indicator=True)
            g = g[g["_merge"] == "left_only"].drop(columns="_merge")
        g = g[g["dw"].to_numpy() != -1]
        if not len(g):
            return pd.DataFrame(
                {
                    "u": pd.Series(dtype=g["u"].dtype if len(g.columns) else "object"),
                    "v": pd.Series(dtype=g["v"].dtype if len(g.columns) else "object"),
                    "cn": pd.Series(dtype="int64"),
                    "aa": pd.Series(dtype="float64"),
                }
            )
        g = g.sort_values(["u", "v", "w"], kind="mergesort").reset_index(drop=True)
        # libm ln via a unique-degree lookup, NOT np.log: numpy's SIMD
        # log rounds one ulp off libm on many inputs (ln(3) already) and
        # SQL engines use libm; degrees are dim-sized so the exact table
        # is cheap
        dwv = g["dw"].to_numpy(dtype="float64")
        uq = np.unique(dwv)
        lut = np.array([math.log(x) for x in uq], dtype="float64")
        term = 1.0 / lut[np.searchsorted(uq, dwv)]
        grp = g.groupby(["u", "v"], sort=False)
        starts = np.concatenate(([0], np.cumsum(grp.size().to_numpy())[:-1]))
        aa = np.add.reduceat(term, starts)
        first = g.iloc[starts]
        return pd.DataFrame(
            {
                "u": first["u"].to_numpy(),
                "v": first["v"].to_numpy(),
                "cn": grp.size().to_numpy().astype("int64"),
                "aa": aa,
            }
        )

    scores = exchange(tagged, None, reduce_pairs)
    if as_dataset:
        return scores
    out = scores.to_pandas()
    if len(out) == 0 or "cn" not in out.columns:
        return pd.DataFrame(
            {
                "u": pd.Series(dtype="object"),
                "v": pd.Series(dtype="object"),
                "cn": pd.Series(dtype="int64"),
                "aa": pd.Series(dtype="float64"),
            }
        )
    return out.sort_values(["u", "v"]).reset_index(drop=True)


def label_propagation_communities(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    max_iters: int = 20,
) -> pd.DataFrame:
    """Community detection by synchronous label propagation (Raghavan,
    Albert & Kumara 2007) — the near-linear community pass over the
    crawl graph next to pagerank/HITS/k-core (host clusters, mirror
    farms, link rings): every node starts as its own label and each
    round adopts the most frequent label among its neighbors (ties →
    smallest label; a node with no better-supported label keeps its
    own), until no label changes or ``max_iters``.

    Deterministic by construction: the synchronous update with the
    (count DESC, label ASC) argmax is a pure function of the round's
    label table, so results are independent of block structure and
    input order (unlike the paper's random-order asynchronous variant).
    Synchronous LPA can oscillate on bipartite-ish structures — the
    standard caveat — which ``max_iters`` bounds; the returned
    ``converged`` flag reports it.

    Scale shape (the pagerank contract): the label table is node-dim
    and driver-resident, broadcast once per round (``ray.put``); each
    round is ONE map pass over the both-directions edge projection
    emitting (node, neighbor-label) count partials into the size-aware
    finish.  O(iters) executions — LPA's distributed floor.  Returns
    (node, community) with ``community`` = the label (a member node
    id), plus ``converged`` on the frame's attrs."""
    e = _canon_simple_edges(edges, src_col, dst_col)
    if e.count() == 0:
        out = pd.DataFrame(
            {"node": pd.Series(dtype="object"),
             "community": pd.Series(dtype="object")}
        )
        out.attrs["converged"] = True
        return out
    adj = e.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()]),
                "nbr": np.concatenate([b["b"].to_numpy(), b["a"].to_numpy()]),
            }
        ),
        batch_format="pandas",
    ).materialize()
    nodes = auto_group_agg(
        adj.map_batches(
            lambda b: pd.DataFrame({"node": b["node"].unique()}).assign(one=1),
            batch_format="pandas",
        ),
        ["node"],
        {"one": ("one", "max")},
    )
    if not isinstance(nodes, pd.DataFrame):
        nodes = nodes.to_pandas()
    labels = pd.Series(nodes["node"].to_numpy(), index=nodes["node"].to_numpy())
    converged = False
    for _ in range(max_iters):
        lref = ray.put(labels)

        def count_partial(b: pd.DataFrame, _lref=lref) -> pd.DataFrame:
            lm = ray.get(_lref)
            out = pd.DataFrame(
                {"node": b["node"].to_numpy(),
                 "lab": lm.loc[b["nbr"].to_numpy()].to_numpy()}
            )
            g = out.groupby(["node", "lab"], as_index=False).size()
            g["n"] = g["size"].astype("int64")
            return g[["node", "lab", "n"]]

        red = auto_group_agg(
            adj.map_batches(count_partial, batch_format="pandas"),
            ["node", "lab"],
            {"n": ("n", "sum")},
        )
        if not isinstance(red, pd.DataFrame):
            red = red.to_pandas()
        red = red.sort_values(
            ["node", "n", "lab"], ascending=[True, False, True],
            kind="mergesort",
        )
        best = red.drop_duplicates("node", keep="first")
        new = pd.Series(best["lab"].to_numpy(), index=best["node"].to_numpy())
        new = new.reindex(labels.index)
        keep_mask = new.isna()
        new[keep_mask] = labels[keep_mask]
        if (new.to_numpy() == labels.to_numpy()).all():
            converged = True
            break
        labels = new
    out = pd.DataFrame(
        {"node": labels.index.to_numpy(), "community": labels.to_numpy()}
    ).sort_values("node").reset_index(drop=True)
    out.attrs["converged"] = converged
    return out
