"""SQLite source + sink — the embedded-database interchange format
(operational exports, app telemetry, annotation tools and label studios
all hand data over as ``.sqlite``/``.db`` files), next to parquet /
JSONL / Avro / TFRecord.  Stdlib ``sqlite3`` only.

Write: one ``.sqlite`` shard per input block (the JSONL sink shape — no
driver funnel), each holding the rows table plus a ``_opr_schema`` side
table pinning column ORDER and logical kinds (SQLite's type affinity
can't distinguish bool / timestamp from INTEGER; the side table makes
the roundtrip exact).  Timestamps store as INTEGER epoch microseconds.
Names are content-keyed (sha1 of the finished file bytes — SQLite's
file image is a pure function of the creation op sequence for a fresh
database), so reruns overwrite byte-identically; publish is atomic
(tmp + ``os.replace``) and stale shards from a previous run are removed
after publish, the JSONL sink's directory-consistency contract.

Read: one task per (file, rowid range) — SQLite is a rowid-clustered
B-tree, so ``WHERE rowid BETWEEN lo AND hi`` is an index range scan,
which gives real intra-file parallelism on a single large database (the
operational case: someone hands the pipeline one 50 GB ``.db``).
``columns=`` pushes the projection into the SELECT.  Foreign databases
without ``_opr_schema`` map by declared column affinity
(INTEGER/REAL/TEXT/BLOB).  Connections open ``immutable=1`` read-only.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

_AFFINITY = {"int": "INTEGER", "float": "REAL", "str": "TEXT",
             "bytes": "BLOB", "bool": "INTEGER", "ts_us": "INTEGER"}


def _sqlite_plan(b: pd.DataFrame) -> list[tuple[str, str]]:
    """[(column, kind)] in INPUT column order (the side table pins it).
    bool/timestamp get their own kinds (exact roundtrip); lists/structs
    raise — SQLite has no nested values."""
    plan: list[tuple[str, str]] = []
    for col in b.columns:
        if '"' in col:
            raise ValueError(f"column name {col!r} contains a double quote")
        s = b[col]
        if pd.api.types.is_bool_dtype(s):
            plan.append((col, "bool"))
        elif pd.api.types.is_datetime64_any_dtype(s):
            plan.append((col, "ts_us"))
        elif pd.api.types.is_integer_dtype(s):
            plan.append((col, "int"))
        elif pd.api.types.is_float_dtype(s):
            plan.append((col, "float"))
        else:
            nonnull = s[s.notna()]
            if len(nonnull) == 0:
                raise ValueError(
                    f"column {col!r} has no non-null value in a block — "
                    "no kind evidence (drop it or fill it)"
                )
            v = nonnull.iloc[0]
            if isinstance(v, str):
                plan.append((col, "str"))
            elif isinstance(v, (bytes, bytearray)):
                plan.append((col, "bytes"))
            elif isinstance(v, bool) or isinstance(v, (int, np.integer)):
                plan.append((col, "bool" if isinstance(v, bool) else "int"))
            elif isinstance(v, (float, np.floating)):
                plan.append((col, "float"))
            else:
                raise ValueError(
                    f"column {col!r} has unsupported value type "
                    f"{type(v).__name__} for SQLite (no nested values)"
                )
    return plan


def _to_cells(s: pd.Series, kind: str) -> list:
    """Column -> list of python cells (None for NULL) for executemany."""
    if kind == "ts_us":
        vals = s.to_numpy().astype("datetime64[us]").astype("int64")
        mask = s.notna().to_numpy()
        return [int(v) if m else None for v, m in zip(vals, mask)]
    if kind == "bool":
        return [None if pd.isna(v) else int(bool(v)) for v in s]
    if kind == "int":
        return [None if pd.isna(v) else int(v) for v in s]
    if kind == "float":
        return [None if pd.isna(v) else float(v) for v in s]
    return [None if pd.isna(v) else (bytes(v) if kind == "bytes" else str(v))
            for v in s]


def write_sqlite_dataset(
    ds: rd.Dataset,
    out_dir: str,
    *,
    table: str = "data",
) -> list[str]:
    """Dataset -> ``part-<sha1>.sqlite`` shard files, one per input
    block.  Same directory-consistency contract as the JSONL sink:
    byte-identical blocks raise (their shards would collapse), stale
    shards from a previous run are removed after publish.  Returns the
    published file list."""
    if '"' in table:
        raise ValueError("table name must not contain a double quote")
    os.makedirs(out_dir, exist_ok=True)

    def write_block(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"path": pd.Series([], dtype=object)})
        plan = _sqlite_plan(b)
        tmp = os.path.join(
            out_dir, f".tmp-{os.getpid()}-{hashlib.sha1(repr(sorted(b.columns)).encode()).hexdigest()[:8]}.sqlite"
        )
        if os.path.exists(tmp):
            os.unlink(tmp)
        con = sqlite3.connect(tmp)
        try:
            con.execute("PRAGMA journal_mode=OFF")
            con.execute("PRAGMA synchronous=OFF")
            con.execute(
                'CREATE TABLE "_opr_schema" (pos INTEGER, col TEXT, kind TEXT)'
            )
            con.executemany(
                'INSERT INTO "_opr_schema" VALUES (?, ?, ?)',
                [(i, c, k) for i, (c, k) in enumerate(plan)],
            )
            cols_sql = ", ".join(
                f'"{c}" {_AFFINITY[k]}' for c, k in plan
            )
            con.execute(f'CREATE TABLE "{table}" ({cols_sql})')
            cells = [_to_cells(b[c], k) for c, k in plan]
            qs = ", ".join("?" for _ in plan)
            con.executemany(
                f'INSERT INTO "{table}" VALUES ({qs})', zip(*cells)
            )
            con.commit()
        finally:
            con.close()
        with open(tmp, "rb") as f:
            key = hashlib.sha1(f.read()).hexdigest()[:16]
        path = os.path.join(out_dir, f"part-{key}.sqlite")
        os.replace(tmp, path)
        return pd.DataFrame({"path": [path]})

    out = ds.map_batches(write_block, batch_format="pandas")
    paths = [
        p for b in out.iter_batches(batch_format="pandas") for p in b["path"]
    ]
    if len(paths) != len(set(paths)):
        raise ValueError(
            "write_sqlite_dataset: two byte-identical input blocks mapped "
            "to the same content-keyed shard (rows would be lost on a "
            "directory read) — repartition the input"
        )
    keep = set(os.path.basename(p) for p in paths)
    for f in os.listdir(out_dir):
        if f.startswith("part-") and f.endswith(".sqlite") and f not in keep:
            os.unlink(os.path.join(out_dir, f))
    return sorted(paths)


def _file_plan(path: str, table: str) -> list[tuple[str, str]]:
    """Column plan for one database: the ``_opr_schema`` side table when
    present (our sink), else declared-affinity mapping (foreign DBs)."""
    con = sqlite3.connect(f"file:{path}?immutable=1", uri=True)
    try:
        names = {
            r[0]
            for r in con.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        if table not in names:
            raise ValueError(f"{path}: no table {table!r} (have {sorted(names)})")
        if "_opr_schema" in names:
            rows = con.execute(
                'SELECT pos, col, kind FROM "_opr_schema" ORDER BY pos'
            ).fetchall()
            return [(c, k) for _, c, k in rows]
        decl = con.execute(f'PRAGMA table_info("{table}")').fetchall()
        out = []
        for _, name, dtype, *_rest in decl:
            t = (dtype or "").upper()
            if "INT" in t:
                out.append((name, "int"))
            elif t in ("REAL", "FLOAT", "DOUBLE") or "REAL" in t:
                out.append((name, "float"))
            elif "BLOB" in t:
                out.append((name, "bytes"))
            else:
                out.append((name, "str"))
        return out
    finally:
        con.close()


_PA_TYPE = {"int": pa.int64(), "float": pa.float64(), "str": pa.string(),
            "bytes": pa.binary(), "bool": pa.bool_()}


def _cells_to_arrow(cols: list[list], plan: list[tuple[str, str]]) -> pa.Table:
    arrays, names = [], []
    for (name, kind), vals in zip(plan, cols):
        if kind == "ts_us":
            arr = pa.array(vals, pa.int64()).cast(pa.timestamp("us"))
        elif kind == "bool":
            arr = pa.array(
                [None if v is None else bool(v) for v in vals], pa.bool_()
            )
        else:
            arr = pa.array(vals, _PA_TYPE[kind])
        arrays.append(arr)
        names.append(name)
    return pa.table(dict(zip(names, arrays)))


def read_sqlite(
    path: str,
    *,
    table: str = "data",
    columns: list[str] | None = None,
    rows_per_task: int = 65536,
) -> rd.Dataset:
    """A ``.sqlite`` file (or a directory of shards) -> Dataset.  One
    read task per (file, rowid range); projection pushes into the
    SELECT.  All files in a directory must agree on the (projected)
    column plan — mixed-schema directories raise at plan time."""
    if '"' in table:
        raise ValueError("table name must not contain a double quote")
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if f.endswith((".sqlite", ".db")) and not f.startswith(".tmp-")
        )
    else:
        files = [path]
    if not files:
        raise ValueError(f"read_sqlite: no .sqlite/.db files under {path!r}")

    specs, ref_plan = [], None
    for f in files:
        plan = _file_plan(f, table)
        if columns is not None:
            by = dict(plan)
            missing = [c for c in columns if c not in by]
            if missing:
                raise ValueError(f"{f}: missing columns {missing}")
            plan = [(c, by[c]) for c in columns]
        if ref_plan is None:
            ref_plan = plan
        elif plan != ref_plan:
            raise ValueError(
                f"read_sqlite: column plan of {f} diverges from "
                f"{files[0]} — mixed-schema directory"
            )
        con = sqlite3.connect(f"file:{f}?immutable=1", uri=True)
        try:
            lo, hi = con.execute(
                f'SELECT MIN(rowid), MAX(rowid) FROM "{table}"'
            ).fetchone()
        finally:
            con.close()
        if lo is None:
            specs.append({"file": f, "lo": 0, "hi": -1})
            continue
        start = lo
        while start <= hi:
            end = min(start + rows_per_task - 1, hi)
            specs.append({"file": f, "lo": start, "hi": end})
            start = end + 1

    plan = ref_plan
    sel = ", ".join(f'"{c}"' for c, _ in plan)

    def read_range(batch: pd.DataFrame):
        for _, spec in batch.iterrows():
            con = sqlite3.connect(f"file:{spec['file']}?immutable=1", uri=True)
            try:
                rows = con.execute(
                    f'SELECT {sel} FROM "{table}" WHERE rowid BETWEEN ? AND ? '
                    "ORDER BY rowid",
                    (int(spec["lo"]), int(spec["hi"])),
                ).fetchall()
            finally:
                con.close()
            cols = (
                [list(c) for c in zip(*rows)]
                if rows
                else [[] for _ in plan]
            )
            # rows within a range task come back in rowid (insert) order;
            # block order ACROSS tasks follows Ray's execution order, the
            # engine-wide contract (consumers sort or aggregate)
            yield _cells_to_arrow(cols, plan)

    items = rd.from_items(specs)
    return items.map_batches(read_range, batch_size=1, batch_format="pandas")
