"""Output checks, run after the timed window.  They read only what the
job committed, so they hold for any implementation of the job."""

from __future__ import annotations

import glob
import os
from collections import Counter

from inputs import text_digest


def read_docs(output_dir: str) -> list[dict]:
    """Every committed doc row of a ``run_extraction`` output directory."""
    import pyarrow.parquet as pq

    rows = []
    for path in sorted(glob.glob(os.path.join(output_dir, "part-*", "*.parquet"))):
        t = pq.read_table(path, columns=["url", "extracted_text", "n_failed_pages"])
        rows.extend(t.to_pylist())
    return rows


def check_docs(rows: list[dict], reference: dict) -> list[str]:
    """Problems found in one output, one line per bad url; empty = correct.

    Each url appears exactly once, its text digest matches the reference,
    and the failed-page count equals what the corpus fixture expects."""
    want = reference["digests"]
    seen = Counter(r["url"] for r in rows)
    problems = [f"{u}: {n} rows" for u, n in seen.items() if n != 1]
    problems += [f"{u}: missing" for u in want if u not in seen]
    problems += [f"{u}: unexpected url" for u in seen if u not in want]
    problems += [
        f"{r['url']}: extracted_text digest mismatch"
        for r in rows
        if r["url"] in want and text_digest(r["extracted_text"]) != want[r["url"]]
    ]
    failed = sum(r["n_failed_pages"] for r in rows)
    if failed != reference["expected_failed_pages"]:
        problems.append(f"failed_pages {failed} != expected {reference['expected_failed_pages']}")
    return problems
