"""Incremental dedup against PERSISTED state — the continuous-ingestion
pattern: each new increment (a day's crawl, one queue drain) is deduped
against everything ever accepted, and the accepted hashes become state
for the next increment.  The reference ingests continuously through its
queue (apps/queue/src/pipeline); this is that lifecycle for the dedup
family, composed with the manifest commit discipline
(``state/manifest.py``).

Semantics: a row survives iff its content hash is UNSEEN by every prior
committed ingest AND it is the min-``id_col`` occurrence within its own
increment (arrival-order precedence across ingests, deterministic
min-id within one — the production rule: old data wins).

Scale shape:
- content hashes bucket by ``h % n_buckets``; the increment's rows move
  through ONE hash-shard exchange, and each bucket task reads ONLY its
  own bucket's state files (hash-only, one file per prior ingest) —
  state reads scale with |state|/n_buckets per task, never corpus-wide.
- state appends are (hash)-only parquet, one file per (bucket, ingest),
  written idempotently (same filename, deterministic content) from the
  bucket tasks; VISIBILITY is gated by the driver-committed ingest
  marker written last, so a SIGKILLed ingest never contaminates the
  next attempt (its torn files are excluded and overwritten).
- the survivors themselves are committed under the ingest id: re-running
  a committed ingest returns the identical result without recomputing
  or re-appending (idempotent replay, the ``run_with_manifest`` rule).

Multi-node note: bucket tasks read and write state with plain
filesystem calls, so ``state_dir`` must be storage every worker sees —
a shared filesystem or (swapping the os/glob/pq calls for fsspec) an
object store.  Single atomic-rename visibility is the only filesystem
semantic relied on.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .dedup import _sha64
from .exchange import exchange
from .relational import freeze_list_columns, thaw_list_columns


def _bucket_dir(state_dir: str, b: int) -> str:
    return os.path.join(state_dir, "buckets", f"b{b:03d}")


def _marker_path(state_dir: str, ingest_id: str) -> str:
    return os.path.join(state_dir, "ingests", ingest_id + ".json")


def _survivors_dir(state_dir: str, ingest_id: str) -> str:
    return os.path.join(state_dir, "ingests", ingest_id)


def committed_ingests(state_dir: str) -> list[str]:
    """Ingest ids with a committed marker, in commit order."""
    pat = os.path.join(state_dir, "ingests", "*.json")
    out = []
    for p in sorted(glob.glob(pat)):
        try:
            with open(p) as f:
                m = json.load(f)
            out.append((m.get("seq", 0), os.path.basename(p)[: -len(".json")]))
        except (json.JSONDecodeError, OSError):
            continue  # torn marker = uncommitted
    return [name for _, name in sorted(out)]


def _replay_or_precheck(
    state_dir: str, ingest_id: str, layout: dict
) -> tuple[rd.Dataset | None, set[str]]:
    """Shared ingest preamble: return (committed replay, None) or
    (None, committed ingest set) after validating the ingest id and that
    ``layout`` (n_buckets + operator params baked into the state's
    identity) matches every prior committed marker."""
    if "/" in ingest_id or not ingest_id:
        raise ValueError(f"ingest_id must be a non-empty path segment: {ingest_id!r}")
    marker = _marker_path(state_dir, ingest_id)
    if os.path.exists(marker):
        with open(marker) as f:
            m = json.load(f)
        spec = {c: np.dtype(t) for c, t in m.get("spec", {}).items()}
        return thaw_list_columns(
            rd.read_parquet(_survivors_dir(state_dir, ingest_id)), spec
        ), set()
    committed = set(committed_ingests(state_dir))
    for prior in committed:
        with open(_marker_path(state_dir, prior)) as f:
            got = json.load(f).get("layout")
        if got != layout:
            raise ValueError(
                f"state {state_dir!r} was built with layout={got}; got {layout}"
            )
        break
    return None, committed


def _commit_ingest(
    survivors: rd.Dataset,
    state_dir: str,
    ingest_id: str,
    spec: dict,
    layout: dict,
    n_committed: int,
) -> rd.Dataset:
    """Durable survivors + commit marker LAST (the checkpoint_dataset
    discipline): a kill anywhere before the marker leaves no committed
    trace."""
    sdir = _survivors_dir(state_dir, ingest_id)
    marker = _marker_path(state_dir, ingest_id)
    os.makedirs(os.path.join(state_dir, "ingests"), exist_ok=True)
    tmp = sdir + ".tmp"
    for p in (tmp, sdir):
        if os.path.exists(p):
            shutil.rmtree(p)
    survivors.write_parquet(tmp)
    if not glob.glob(os.path.join(tmp, "*.parquet")):
        # a fully-duplicate increment has ZERO survivors: write_parquet
        # emits no files (and may not even create the dir) — commit an
        # explicit empty fragment so the marker still lands and replay
        # reads an empty, correctly-typed table
        os.makedirs(tmp, exist_ok=True)
        schema = survivors.schema()
        if schema is not None and schema.names:
            fields = []
            for n, t in zip(schema.names, schema.types):
                if not isinstance(t, pa.DataType):
                    # pandas-block schema: numpy dtypes; object -> string
                    try:
                        t = pa.from_numpy_dtype(t)
                    except (pa.ArrowNotImplementedError, TypeError):
                        t = pa.string()
                fields.append((n, t))
            empty = pa.schema(fields).empty_table()
        else:
            empty = pa.table({"__empty": pa.array([], pa.int64())})
        pq.write_table(empty, os.path.join(tmp, "empty.parquet"))
    os.replace(tmp, sdir)
    mtmp = marker + ".tmp"
    with open(mtmp, "w") as f:
        json.dump(
            {
                "seq": n_committed,
                "layout": layout,
                "spec": {c: t.name for c, t in spec.items()},
            },
            f,
        )
    os.replace(mtmp, marker)
    spec_np = {c: np.dtype(t.name) for c, t in spec.items()}
    return thaw_list_columns(rd.read_parquet(sdir), spec_np)


def incremental_exact_dedup(
    ds: rd.Dataset,
    content_col: str,
    id_col: str,
    state_dir: str,
    *,
    ingest_id: str,
    n_buckets: int = 64,
) -> rd.Dataset:
    """Dedup one increment against the committed state (see module
    docstring), append the survivors' hashes, commit, and return the
    survivors (full input schema + ``n_dups`` = in-increment duplicate
    count).  Replaying a committed ``ingest_id`` is a read."""
    layout = {"op": "exact", "n_buckets": n_buckets}
    replay, committed = _replay_or_precheck(state_dir, ingest_id, layout)
    if replay is not None:
        return replay
    marker = _marker_path(state_dir, ingest_id)

    # in-batch combiner (the exact_dedup pattern): hash, collapse
    # duplicates early, carry partial counts
    def add_hash(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        out["__h"] = _sha64(b[content_col].to_numpy()).astype("int64")
        out["n_dups"] = 1
        agg = {c: "first" for c in out.columns if c not in (id_col, "n_dups", "__h")}
        agg[id_col] = "min"
        agg["n_dups"] = "sum"
        return out.sort_values(id_col).groupby("__h", as_index=False).agg(agg)

    frozen, spec = freeze_list_columns(ds)
    hashed = frozen.map_batches(add_hash, batch_format="pandas")

    def hash_bucket(b: pd.DataFrame) -> np.ndarray:
        return b["__h"].to_numpy().astype(np.uint64) % np.uint64(n_buckets)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        b = int(hash_bucket(g.iloc[:1])[0])
        # finish the in-increment combine: all rows of a hash are here
        agg = {c: "first" for c in g.columns if c not in (id_col, "n_dups", "__h")}
        agg[id_col] = "min"
        agg["n_dups"] = "sum"
        g = g.sort_values(id_col).groupby("__h", as_index=False).agg(agg)
        # state lookup: ONLY this bucket's files from COMMITTED ingests
        # (a torn prior attempt of any uncommitted ingest — including
        # this one — is invisible and gets overwritten)
        bdir = _bucket_dir(os.path.dirname(os.path.dirname(marker)), b)
        known: list[np.ndarray] = []
        for p in sorted(glob.glob(os.path.join(bdir, "*.parquet"))):
            if os.path.basename(p)[: -len(".parquet")] in committed:
                known.append(pq.read_table(p, columns=["h"])["h"].to_numpy())
        if known:
            seen = np.concatenate(known)
            keep = ~np.isin(g["__h"].to_numpy(), seen)
            g = g[keep]
        # idempotent state append: fixed filename, deterministic content,
        # atomic tmp+rename; invisible until the driver commits the marker
        os.makedirs(bdir, exist_ok=True)
        new_h = np.sort(g["__h"].to_numpy())
        tmp = os.path.join(bdir, f".{ingest_id}.tmp")
        pq.write_table(pa.table({"h": pa.array(new_h, pa.int64())}), tmp)
        os.replace(tmp, os.path.join(bdir, f"{ingest_id}.parquet"))
        return g.drop(columns=["__h"])

    survivors = exchange(hashed, hash_bucket, per_bucket)
    return _commit_ingest(
        survivors, state_dir, ingest_id, spec, layout, len(committed)
    )


def incremental_minhash_dedup(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    state_dir: str,
    *,
    ingest_id: str,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.8,
    n_buckets: int = 64,
) -> rd.Dataset:
    """Incremental NEAR-dedup (MinHash-LSH) against persisted state —
    ``incremental_exact_dedup``'s semantics with band-bucket state: a
    row survives iff it is the in-increment representative
    (``minhash_lsh_duplicates`` + ``dedup_keep_representatives``,
    min-id) AND no committed document shares an LSH band with estimated
    Jaccard >= ``threshold`` (old data wins).

    State layout: one parquet per (bucket, ingest) holding
    (band, bh, id, sig-bytes) for every ACCEPTED document's bands,
    bucketed by ``hash(band, bh) % n_buckets`` — candidate verification
    happens ENTIRELY inside the bucket task against the stored
    signatures (no extra exchange for the old side; the signature is
    duplicated per band in state, a deliberate bands-x space-for-
    locality trade documented here).  Commit/replay/torn-ingest
    discipline is shared with the exact variant (driver marker last,
    idempotent per-(bucket, ingest) files).  Use a state_dir per
    operator — exact and minhash state don't mix (layout-guarded)."""
    from .dedup import _band_hashes, _MinHashSig, dedup_keep_representatives, minhash_lsh_duplicates
    from .relational import anti_join

    layout = {
        "op": "minhash",
        "n_buckets": n_buckets,
        "num_perm": num_perm,
        "bands": bands,
        "shingle_k": shingle_k,
        "threshold": threshold,
    }
    replay, committed = _replay_or_precheck(state_dir, ingest_id, layout)
    if replay is not None:
        return replay

    # ---- phase 0: in-increment near-dedup (existing machinery) ----
    pairs = minhash_lsh_duplicates(
        ds, text_col, id_col, num_perm=num_perm, bands=bands,
        shingle_k=shingle_k, threshold=threshold,
    )
    if isinstance(pairs, pd.DataFrame):
        pairs = rd.from_pandas(pairs) if len(pairs) else None
    reps = (
        dedup_keep_representatives(ds, pairs, id_col, clusters="auto")
        if pairs is not None
        else ds
    )
    frozen, spec = freeze_list_columns(reps)
    frozen = frozen.materialize()  # consumed by sig pass + survivor filter

    rows_per_band = num_perm // bands
    sigger = _MinHashSig(text_col, id_col, num_perm, shingle_k)

    def explode_with_sig(b: pd.DataFrame) -> pd.DataFrame:
        sig = sigger(b)
        n = len(sig)
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: sig[id_col].iloc[:0],
                    "band": pd.Series(dtype="int64"),
                    "bh": pd.Series(dtype="int64"),
                    "sig": pd.Series(dtype="object"),
                }
            )
        sig_mat = np.stack([np.asarray(s, dtype=np.uint64) for s in sig["sig"]])
        bhs = _band_hashes(sig_mat, bands, rows_per_band)
        return pd.DataFrame(
            {
                id_col: np.repeat(sig[id_col].to_numpy(), bands),
                "band": np.tile(np.arange(bands, dtype=np.int64), n),
                "bh": bhs.astype("int64"),
                "sig": [r.tobytes() for r in np.repeat(sig_mat, bands, axis=0)],
            }
        )

    def band_bucket(b: pd.DataFrame) -> np.ndarray:
        # bucket on (band, bh) jointly so a band's bucket is stable
        key = b["bh"].to_numpy().astype(np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        ) + b["band"].to_numpy().astype(np.uint64)
        return key % np.uint64(n_buckets)

    exploded = frozen.select_columns([id_col, text_col]).map_batches(
        explode_with_sig, batch_format="pandas"
    ).materialize()  # consumed twice: match phase + state append

    def _read_bucket_state(b: int) -> pd.DataFrame | None:
        bdir = _bucket_dir(state_dir, b)
        frames = []
        for p in sorted(glob.glob(os.path.join(bdir, "*.parquet"))):
            if os.path.basename(p)[: -len(".parquet")] in committed:
                frames.append(pq.read_table(p).to_pandas())
        return pd.concat(frames, ignore_index=True) if frames else None

    # ---- phase 1: matched new ids (id-only output per bucket) ----
    def per_bucket_match(g: pd.DataFrame) -> pd.DataFrame:
        old = _read_bucket_state(int(band_bucket(g.iloc[:1])[0]))
        if old is None or len(old) == 0:
            return pd.DataFrame({id_col: g[id_col].iloc[:0]})
        m = g.merge(old, on=["band", "bh"], suffixes=("_new", "_old"))
        if len(m) == 0:
            return pd.DataFrame({id_col: g[id_col].iloc[:0]})
        a = np.frombuffer(b"".join(m["sig_new"]), dtype=np.uint64).reshape(
            len(m), num_perm
        )
        bb = np.frombuffer(b"".join(m["sig_old"]), dtype=np.uint64).reshape(
            len(m), num_perm
        )
        est = (a == bb).mean(axis=1)
        hit = m.loc[est >= threshold, f"{id_col}_new"].drop_duplicates()
        return pd.DataFrame({id_col: hit.to_numpy()})

    matched = exchange(exploded, band_bucket, per_bucket_match)
    survivors = anti_join(frozen, matched, id_col, method="auto")
    survivors = survivors.materialize()  # consumed by commit + state append

    # ---- phase 2: append surviving docs' band entries to state ----
    from .relational import semi_join

    surviving_bands = semi_join(
        exploded, survivors.select_columns([id_col]), id_col, method="auto"
    )

    def per_bucket_append(g: pd.DataFrame) -> pd.DataFrame:
        b = int(band_bucket(g.iloc[:1])[0])
        bdir = _bucket_dir(state_dir, b)
        os.makedirs(bdir, exist_ok=True)
        out = g.sort_values([id_col, "band"])[["band", "bh", id_col, "sig"]]
        t = pa.table(
            {
                "band": pa.array(out["band"].to_numpy(), pa.int64()),
                "bh": pa.array(out["bh"].to_numpy(), pa.int64()),
                id_col: pa.array(out[id_col].to_list()),
                "sig": pa.array(out["sig"].to_list(), pa.binary()),
            }
        )
        tmp = os.path.join(bdir, f".{ingest_id}.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(bdir, f"{ingest_id}.parquet"))
        return pd.DataFrame({"__b": [b]})

    # the append pass is side-effecting; drain it fully before committing
    exchange(surviving_bands, band_bucket, per_bucket_append).count()

    return _commit_ingest(
        survivors, state_dir, ingest_id, spec, layout, len(committed)
    )
