"""The query slice of the traced run: the tracked queries of ``bench.py``
over a generated star schema, and their checks against the DuckDB
oracles.

The tables mirror the layout of the repository's test tables (one parquet
file per table, one row group each, the same columns and value domains)
at sf 0.1.  They are generated from a fixed seed, so ``--seed`` does not
change them, and cached in ``perfbench/.cache/query_slice-<hash of this
file>``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
TABLES_SEED = 42

# bench.py's tracked-12 slice without ``near_dedup_docs``: that query
# writes its oracle sidecar to a fixed path under /tmp, outside the
# benchmark's directory
QUERIES = (
    "tpch_q1",
    "lineitem_join_revenue",
    "orders_by_segment",
    "top_orders_revenue",
    "events_hourly",
    "event_sessions",
    "exact_dedup_docs",
    "minhash_dup_pairs",
    "knn_cosine_top10",
    "word_count_per_doc",
    "stratified_sample",
)
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()

N_CUSTOMER, N_SUPPLIER, N_PART = 15_000, 1_000, 20_000
N_ORDERS, N_LINEITEM, N_EVENTS = 150_000, 600_000, 100_000
N_DOCS, N_NEAR_DUPS, N_EXACT_DUPS, N_VECS, DIM = 5_000, 250, 8, 2_000, 64
VOCAB = (
    "a agg batch big column customer data fast filter group hash join key line merge "
    "order part query row scan slow small sort spark stream table the value vector window"
).split()
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
LANGS, LANG_WEIGHTS = ["en", "de", "es", "fr", "zh"], [0.41, 0.14, 0.15, 0.15, 0.15]


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _days(rng, start: str, n_days: int, n: int) -> np.ndarray:
    return np.datetime64(start, "us") + rng.integers(0, n_days, n) * np.timedelta64(1, "D")


def make_tables(seed: int = TABLES_SEED) -> dict:
    """Every table as a dict of numpy columns; the same seed gives the
    same tables.  Also returns the planted near-duplicate doc pairs."""
    rng = np.random.default_rng(seed)
    t: dict[str, dict] = {}
    t["region"] = {
        "r_regionkey": np.arange(5, dtype=np.int32),
        "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
    }
    t["nation"] = {
        "n_nationkey": np.arange(25, dtype=np.int32),
        "n_name": [f"NATION{k:02d}" for k in range(25)],
        "n_regionkey": np.arange(25, dtype=np.int32) % 5,
    }
    t["customer"] = {
        "c_custkey": np.arange(N_CUSTOMER, dtype=np.int64),
        "c_name": [f"Customer#{k:09d}" for k in range(N_CUSTOMER)],
        "c_nationkey": rng.integers(0, 25, N_CUSTOMER).astype(np.int32),
        "c_acctbal": _money(rng, -999.99, 9999.99, N_CUSTOMER),
        "c_mktsegment": rng.choice(SEGMENTS, N_CUSTOMER),
    }
    t["supplier"] = {
        "s_suppkey": np.arange(N_SUPPLIER, dtype=np.int64),
        "s_name": [f"Supplier#{k:09d}" for k in range(N_SUPPLIER)],
        "s_nationkey": rng.integers(0, 25, N_SUPPLIER).astype(np.int32),
        "s_acctbal": _money(rng, -999.99, 9999.99, N_SUPPLIER),
    }
    t["part"] = {
        "p_partkey": np.arange(N_PART, dtype=np.int64),
        "p_name": [f"part {k}" for k in range(N_PART)],
        "p_brand": [f"Brand#{a}{b}" for a, b in rng.integers(1, 6, (N_PART, 2))],
        "p_type": rng.choice(["STANDARD BRASS", "SMALL TIN", "LARGE STEEL", "PROMO COPPER"], N_PART),
        "p_size": rng.integers(1, 51, N_PART).astype(np.int32),
        "p_retailprice": _money(rng, 900.0, 2000.0, N_PART),
    }
    t["orders"] = {
        "o_orderkey": np.arange(N_ORDERS, dtype=np.int64),
        "o_custkey": rng.integers(0, N_CUSTOMER, N_ORDERS),
        "o_orderstatus": rng.choice(["F", "O", "P"], N_ORDERS),
        "o_totalprice": _money(rng, 1000.0, 500000.0, N_ORDERS),
        "o_orderdate": _days(rng, "1995-01-01", 2405, N_ORDERS),
        "o_orderpriority": rng.choice(PRIORITIES, N_ORDERS),
    }
    t["lineitem"] = {
        "l_orderkey": rng.integers(0, N_ORDERS, N_LINEITEM),
        "l_partkey": rng.integers(0, N_PART, N_LINEITEM),
        "l_suppkey": rng.integers(0, N_SUPPLIER, N_LINEITEM),
        "l_linenumber": rng.integers(1, 8, N_LINEITEM).astype(np.int32),
        "l_quantity": rng.integers(1, 51, N_LINEITEM).astype(np.float64),
        "l_extendedprice": _money(rng, 900.0, 105000.0, N_LINEITEM),
        "l_discount": rng.integers(0, 11, N_LINEITEM) / 100,
        "l_tax": rng.integers(0, 9, N_LINEITEM) / 100,
        "l_returnflag": rng.choice(["A", "N", "R"], N_LINEITEM),
        "l_linestatus": rng.choice(["F", "O"], N_LINEITEM),
        "l_shipdate": _days(rng, "1995-01-02", 2499, N_LINEITEM),
    }
    gaps_us = rng.exponential(26e6, N_EVENTS).astype(np.int64)
    t["events"] = {
        "event_id": np.arange(N_EVENTS, dtype=np.int64),
        "ts": np.datetime64("2024-01-01", "us") + np.cumsum(gaps_us).astype("timedelta64[us]"),
        "user_id": rng.integers(0, 1500, N_EVENTS),
        "event_type": rng.choice(EVENT_TYPES, N_EVENTS),
        "value": np.round(np.minimum(rng.exponential(50.0, N_EVENTS), 560.0), 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, N_EVENTS)],
    }

    texts = [" ".join(rng.choice(VOCAB, n)) for n in rng.integers(10, 101, N_DOCS)]
    copies = rng.choice(N_DOCS, N_NEAR_DUPS + N_EXACT_DUPS, replace=False)
    sources = rng.choice(np.setdiff1d(np.arange(N_DOCS), copies), len(copies))
    near_pairs = []
    for i, (dst, src) in enumerate(zip(copies, sources)):
        texts[dst] = texts[src] + (" dup" if i < N_NEAR_DUPS else "")
        if i < N_NEAR_DUPS:
            near_pairs.append((int(min(src, dst)), int(max(src, dst))))
    t["documents"] = {
        "doc_id": np.arange(N_DOCS, dtype=np.int64),
        "text": texts,
        "lang": rng.choice(LANGS, N_DOCS, p=LANG_WEIGHTS),
        "source": [f"src{k % 20}" for k in range(N_DOCS)],
        "n_chars": np.array([len(x) for x in texts], dtype=np.int64),
    }
    vecs = rng.standard_normal((N_VECS, DIM)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    t["embeddings"] = {
        "vec_id": np.arange(N_VECS, dtype=np.int64),
        "embedding": list(vecs),
        "label": rng.integers(0, 10, N_VECS).astype(np.int32),
    }
    return {"tables": t, "near_pairs": near_pairs}


def write_tables(out_dir: str, seed: int = TABLES_SEED) -> list:
    """Write one parquet file per table; returns the planted near-dup
    pairs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    made = make_tables(seed)
    os.makedirs(out_dir, exist_ok=True)
    for name, cols in made["tables"].items():
        if name == "embeddings":
            cols = dict(cols, embedding=pa.array([v.tolist() for v in cols["embedding"]], pa.list_(pa.float32())))
        pq.write_table(pa.table(cols), os.path.join(out_dir, f"{name}.parquet"))
    return made["near_pairs"]


def tables_dir() -> str:
    with open(os.path.abspath(__file__), "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    return os.path.join(CACHE_DIR, f"query_slice-{key}")


def prepare() -> tuple[str, list]:
    """(tables directory, planted near-dup pairs), built once and reused
    from the cache afterwards."""
    final = tables_dir()
    pairs_path = os.path.join(final, "near_pairs.json")
    if not os.path.exists(pairs_path):
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        pairs = write_tables(os.path.join(tmp, "tables"))
        with open(os.path.join(tmp, "near_pairs.json"), "w") as f:
            json.dump(pairs, f)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    with open(pairs_path) as f:
        return os.path.join(final, "tables"), [tuple(p) for p in json.load(f)]


def _tools():
    """``tools/check_correctness.py``: the repository's conversion of a
    query result to pandas and its order-insensitive value hash."""
    tools = os.path.join(os.path.dirname(BENCH_DIR), "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    import check_correctness

    return check_correctness


def run_pass(sf_dir: str) -> tuple[dict, dict]:
    """Every query of the slice once, in order, each result consumed into
    pandas.  Returns ({name: seconds}, {name: result})."""
    from ocr_platform_ray.pipelines.queries import QUERIES as ALL

    to_pandas = _tools().to_pandas
    secs, results = {}, {}
    for name in QUERIES:
        t0 = time.perf_counter()
        results[name] = to_pandas(ALL[name](sf_dir))
        secs[name] = time.perf_counter() - t0
    return secs, results


def check_results(results: dict, sf_dir: str, near_pairs: list) -> list[str]:
    """Problems in one pass's results; empty = correct.  A query with an
    oracle must match it in rows, columns and the order-insensitive value
    hash of ``tools/check_correctness.py``.  ``minhash_dup_pairs`` has no
    oracle; it must report every planted near-duplicate pair."""
    import duckdb

    from ocr_platform_ray.pipelines.queries import ORACLE_SQL

    value_hash = _tools().value_hash
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    problems = []
    for name, got in results.items():
        if name in ORACLE_SQL:
            want = con.sql(ORACLE_SQL[name]).df()
            if len(got) != len(want):
                problems.append(f"{name}: {len(got)} rows, oracle {len(want)}")
            elif sorted(got.columns) != sorted(want.columns):
                problems.append(f"{name}: columns {sorted(got.columns)}, oracle {sorted(want.columns)}")
            elif value_hash(got) != value_hash(want):
                problems.append(f"{name}: value hash differs from the oracle")
        else:
            found = {(min(a, b), max(a, b)) for a, b in zip(got["id_a"], got["id_b"])}
            missed = sum(p not in found for p in near_pairs)
            if missed:
                problems.append(f"{name}: {missed} planted near-dup pairs missing")
    con.close()
    return problems
