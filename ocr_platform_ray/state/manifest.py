"""Checkpoint manifests + partition-granularity resume (SURVEY.md §4).

The reference's durability is a per-row status machine in Postgres
(``BookStatus`` / ``PageOcrStatus``, packages/db/prisma/schema.prisma:
133-155): a crashed run resumes because finished pages exist and unfinished
jobs stay queued.  The batch equivalent: output is partitioned into
write-once shards keyed by deterministic partition id; a partition is
either absent (unprocessed) or has an atomically-published output directory
plus a ``_manifest/part-*.json`` lineage record (input fragments, row
count, url checksum, wall time).  On restart, committed partitions are
skipped; incomplete ones (no manifest) are recomputed — idempotent because
partition ids are deterministic (the reference's unique
``(bookId, pdfPageNumber)`` idempotence, schema.prisma:100 / D4/D5).

Partitioning assumption (documented per SURVEY.md custom-operator rule):
one partition = a contiguous group of input fragments, and a url's pages
never span fragment groups.  The corpus writer (corpus.write_pages_parquet)
lays shards out url-ranged, which guarantees this; for arbitrary inputs,
an ingest repartition-by-url-hash pass establishes the invariant first.

Within a partition, a url's pages may or may not span files.  A part whose
files each fit one read block and show disjoint footer url ranges (or
whose caller asserts the layout) is *aligned*: each of its files runs one
plain Ray task that reads, extracts, reassembles and writes it, and the
part commits as its last file lands.  Every other part runs the url
exchange afterwards, part by part, as a Ray Data execution.  An aligned
part that holds a url twice is recomputed through the exchange.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
import zlib

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd


def _list_fragments(input_path: str) -> list[str]:
    if os.path.isdir(input_path):
        return sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    return [input_path]


def completed_parts(output_dir: str) -> dict[int, dict]:
    """Read committed manifests -> {part_id: manifest}."""
    out = {}
    for p in glob.glob(os.path.join(output_dir, "_manifest", "part-*.json")):
        try:
            with open(p) as f:
                m = json.load(f)
            out[int(m["part_id"])] = m
        except (json.JSONDecodeError, KeyError, ValueError):
            continue  # torn manifest = not committed
    return out


_NULL_URL = b"\x00"  # the checksum's fixed marker for a null url


def _url_checksum(part_dir: str) -> tuple[int, int, bool]:
    """(rows, crc-of-sorted-urls, whether any url repeats) over a written
    partition — cheap lineage fingerprint for the manifest, and the
    commit's check that a doc-per-url part holds each url once.  The
    urls are sorted across the whole part, so the crc does not depend on
    how the part's docs are split into files.  A null url (its pages come
    out as one doc row per input file) sorts first, hashes as a fixed
    marker and never counts as a repeat."""
    urls = []
    for f in glob.glob(os.path.join(part_dir, "*.parquet")):
        urls += pq.read_table(f, columns=["url"]).column("url").to_pylist()
    named = sorted(u for u in urls if u is not None)
    crc = 0
    for _ in range(len(urls) - len(named)):
        crc = zlib.crc32(_NULL_URL, crc)
    for u in named:
        crc = zlib.crc32(u.encode(), crc)
    return len(urls), crc, len(set(named)) < len(named)


def _url_ranges(md: pq.FileMetaData) -> list[tuple] | None:
    """Per-row-group ``(min, max)`` of a fragment's ``url`` column from its
    parquet footer (no data read); None when some non-empty row group has
    no url statistics."""
    names = [md.schema.column(i).path for i in range(md.num_columns)]
    if "url" not in names:
        return None
    col = names.index("url")
    ranges = []
    for rg in range(md.num_row_groups):
        if md.row_group(rg).num_rows == 0:
            continue
        stats = md.row_group(rg).column(col).statistics
        if stats is None or not stats.has_min_max:
            return None
        ranges.append((stats.min, stats.max))
    return ranges


def _part_layout(
    footers: list[pq.FileMetaData], max_block_bytes: int | None, asserted: bool = False
) -> str:
    """Why a fragment group may, or may not, skip the url exchange, from
    its files' footers alone: ``"large file"`` when some file is bigger
    than one read block, whatever the caller asserts; else ``"asserted"``
    when the caller asserts the layout, or ``"footers"`` when every file
    has url statistics and the files' ``[min, max]`` ranges, sorted by
    min, are strictly disjoint (a shared boundary url counts as overlap);
    else ``"no stats"`` or ``"overlap"``."""
    for md in footers:
        size = sum(md.row_group(rg).total_byte_size for rg in range(md.num_row_groups))
        if max_block_bytes is not None and size > max_block_bytes:
            return "large file"
    if asserted:
        return "asserted"
    spans = []
    for md in footers:
        ranges = _url_ranges(md)
        if ranges is None:
            return "no stats"
        if ranges:
            spans.append((min(lo for lo, _ in ranges), max(hi for _, hi in ranges)))
    spans.sort()
    if any(hi >= lo for (_, hi), (lo, _) in zip(spans, spans[1:])):
        return "overlap"
    return "footers"


def _file_task(file_fn, columns: list[str] | None):
    """The aligned files' task: read one file whole, run ``file_fn`` on
    its pages, write the docs to ``<tmp_dir>/<file stem>.parquet`` (a
    retry overwrites its failed attempt) and return the file, its pages
    and the task's seconds.  Nothing it reaches may import ``ray.data``
    or, through ``pq.read_table``, ``pyarrow.dataset``: the worker pays
    for either import, more than a small file's task costs."""

    def land_file(path: str, tmp_dir: str) -> tuple[str, int, float]:
        t0 = time.perf_counter()
        pages = pq.ParquetFile(path).read(columns=columns)
        docs = file_fn(pages)
        if docs.num_rows:
            stem = os.path.splitext(os.path.basename(path))[0]
            pq.write_table(docs, os.path.join(tmp_dir, stem + ".parquet"))
        return path, pages.num_rows, time.perf_counter() - t0

    return land_file


def run_with_manifest(
    input_path: str,
    output_dir: str,
    pipeline_fn,
    file_fn,
    *,
    resume: bool = True,
    fragments_per_part: int = 8,
    columns: list[str] | None = None,
    file_aligned_blocks: bool = False,
) -> dict:
    """Run every pending partition (a group of ``fragments_per_part``
    input files) with atomic publish (write to a ``part-NNNNN.tmp`` dir,
    rename) + a manifest per part.

    ``pipeline_fn(pages_ds)`` (like ``extraction_pipeline``) and
    ``file_fn(pages_table)`` (like ``extract_docs``) emit one row per url,
    the second from one file's pages that hold every page of their urls.
    Before any work runs, ``_part_layout`` sorts each pending part into
    *aligned* or *exchange*: a part with a file bigger than one read block
    (``DataContext.target_max_block_size``) runs the exchange; any other
    is aligned when ``file_aligned_blocks=True`` asserts the layout
    (url-ranged or url-hash-sharded files) or when its files' footer url
    ranges are disjoint.

    Every pending aligned file of the job runs one plain Ray task
    (``_file_task``: read, ``file_fn``, write into its part's tmp dir),
    retried when its worker dies, never on an error it raises.  The
    driver drains the tasks (``ray.wait``) and commits a part as soon as
    its last file has landed with its footer's row count.  Exchange parts
    run afterwards, one Ray Data execution each: ``pipeline_fn`` over the
    part's files read one block per file, then ``write_parquet``.  The
    aligned precondition is checked, not trusted: an aligned part whose
    output holds a url twice (two files sharing a url, wrong statistics)
    is recomputed through the exchange before it is published.

    The manifest records ``"reassembly"`` (``"aligned"`` |
    ``"exchange"``), ``"reassembly_reason"`` (``"asserted"``,
    ``"footers"``, ``"no stats"``, ``"large file"``, ``"overlap"`` or
    ``"duplicate-recomputed"``) and ``"wall_s"``: for an aligned part the
    sum of its file tasks' seconds as the tasks report them (aligned parts
    overlap in time, so elapsed time would not describe the part), for an
    exchange part the elapsed time of its run (plus its discarded
    aligned tasks' seconds when it was recomputed).  ``rows_per_s`` is
    rows over ``wall_s``.  A task that fails stops no other: every part
    whose files all land is committed and every exchange part runs, then
    the job raises the first task's error; the failed parts leave only
    their ``.tmp`` dirs, which a rerun deletes and recomputes.

    Every pending file's footer is read once, before any work runs.  A
    part with an unreadable footer is not run; every other part runs and
    commits, and the job then raises one ``ValueError`` naming the
    unreadable files.  A part is unpublished (manifest first, then its
    directory) before it is recomputed, and so is every part beyond the
    current grouping: output grouped more finely by an earlier run would
    otherwise publish its urls twice.

    Returns {"parts", "skipped", "rows", "wall_s"}."""
    frags = _list_fragments(input_path)
    groups = [frags[i : i + fragments_per_part] for i in range(0, len(frags), fragments_per_part)]
    manifest_dir = os.path.join(output_dir, "_manifest")
    os.makedirs(manifest_dir, exist_ok=True)
    done = completed_parts(output_dir) if resume else {}
    max_block = rd.DataContext.get_current().target_max_block_size

    def part_dir(pid: int) -> str:
        return os.path.join(output_dir, f"part-{pid:05d}")

    def unpublish(pid: int) -> None:
        mpath = os.path.join(manifest_dir, f"part-{pid:05d}.json")
        for path in (mpath, part_dir(pid), part_dir(pid) + ".tmp"):
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)

    names = os.listdir(manifest_dir) + os.listdir(output_dir)
    ids = {n[5:].split(".")[0] for n in names if n.startswith("part-")}
    for pid in sorted(int(i) for i in ids if i.isdigit()):
        if pid >= len(groups):
            unpublish(pid)

    total_rows, skipped = 0, 0
    t0 = time.monotonic()
    pending = []
    for pid, group in enumerate(groups):
        # committed = manifest matches AND the published output directory
        # still exists — a deleted/lost shard must recompute, not silently
        # count its manifest rows
        if pid in done and done[pid].get("inputs") == group and os.path.isdir(part_dir(pid)):
            total_rows += done[pid]["rows"]
            skipped += 1
        else:
            unpublish(pid)  # incomplete or stale earlier attempt -> recompute
            pending.append(pid)
    footers: dict[str, pq.FileMetaData] = {}
    unreadable: dict[str, str] = {}
    for pid in pending:
        for f in groups[pid]:
            try:
                footers[f] = pq.read_metadata(f)
            except (OSError, pa.ArrowException) as e:
                unreadable[f] = f"{type(e).__name__}: {e}"
    reasons: dict[int, str] = {}  # runnable pending pid -> reassembly_reason
    for pid in pending:
        if any(f in unreadable for f in groups[pid]):
            continue
        layout = [footers[f] for f in groups[pid]]
        reasons[pid] = _part_layout(layout, max_block, file_aligned_blocks)
    aligned = [pid for pid, r in reasons.items() if r in ("asserted", "footers")]
    exchange = [pid for pid in reasons if pid not in aligned]

    def commit(pid: int, reassembly: str, wall: float) -> None:
        nonlocal total_rows
        tmp_dir = part_dir(pid) + ".tmp"
        rows, crc, repeats = _url_checksum(tmp_dir)
        if reassembly == "aligned" and repeats:
            # a url's pages reached two blocks: never publish two doc rows
            shutil.rmtree(tmp_dir)
            reasons[pid] = "duplicate-recomputed"
            exchange.append(pid)
            return
        os.replace(tmp_dir, part_dir(pid))  # atomic publish
        out_bytes = sum(
            os.path.getsize(os.path.join(part_dir(pid), f)) for f in os.listdir(part_dir(pid))
        )
        manifest = {
            "part_id": pid,
            "inputs": groups[pid],
            "rows": rows,
            "url_crc32": crc,
            "out_bytes": out_bytes,
            "wall_s": round(wall, 3),
            "rows_per_s": round(rows / wall, 1) if wall > 0 else None,
            "reassembly": reassembly,
            "reassembly_reason": reasons[pid],
        }
        mpath = os.path.join(manifest_dir, f"part-{pid:05d}.json")
        with open(mpath + ".tmp", "w") as f:
            json.dump(manifest, f)
        os.replace(mpath + ".tmp", mpath)
        total_rows += rows

    task_s = dict.fromkeys(aligned, 0.0)
    part_of = {f: pid for pid in aligned for f in groups[pid]}
    waiting = {pid: set(groups[pid]) for pid in aligned}
    for pid in aligned:
        os.makedirs(part_dir(pid) + ".tmp")
    land = ray.remote(max_retries=-1, scheduling_strategy="SPREAD")(_file_task(file_fn, columns))
    refs = [land.remote(f, part_dir(pid) + ".tmp") for f, pid in part_of.items()]
    errors = []
    try:
        while refs:
            (ref,), refs = ray.wait(refs)
            try:
                f, pages, secs = ray.get(ref)
            except ray.exceptions.RayError as e:
                errors.append(e)
                continue
            pid = part_of[f]
            task_s[pid] += secs
            if pages != footers[f].num_rows:
                errors.append(ValueError(f"{f}: read {pages} of {footers[f].num_rows} rows"))
                continue
            waiting[pid].discard(f)
            if not waiting[pid]:
                commit(pid, "aligned", task_s[pid])
    finally:
        for ref in refs:  # the driver failed: stop the tasks it will not drain
            ray.cancel(ref)

    for pid in sorted(exchange):
        tp = time.monotonic()
        ds = rd.read_parquet(groups[pid], columns=columns, override_num_blocks=len(groups[pid]))
        pipeline_fn(ds).write_parquet(part_dir(pid) + ".tmp")
        commit(pid, "exchange", time.monotonic() - tp + task_s.get(pid, 0.0))
    if errors:
        raise errors[0]
    if unreadable:
        raise ValueError(
            f"{len(unreadable)} input file(s) have an unreadable parquet footer; "
            "their parts were not run, every other part is committed: "
            + "; ".join(f"{f} ({e})" for f, e in sorted(unreadable.items()))
        )
    return {
        "parts": len(groups),
        "skipped": skipped,
        "rows": total_rows,
        "wall_s": round(time.monotonic() - t0, 3),
    }


def checkpoint_lookup(
    root: str,
    name: str,
    *,
    params: dict | None = None,
) -> rd.Dataset | None:
    """Return the committed checkpoint Dataset when the marker exists and
    its recorded params match, else None.  Callers whose stage
    CONSTRUCTION is itself eager (size probes, propagation rounds — the
    curation dedup chain) must consult this BEFORE building the stage:
    ``checkpoint_dataset`` can skip execution of a lazy upstream, but it
    cannot un-run work that executed while the plan was being built."""
    import numpy as np

    from ..ops.relational import thaw_list_columns

    d = os.path.join(root, name)
    marker = os.path.join(root, name + ".json")
    if os.path.exists(marker) and os.path.isdir(d):
        try:
            with open(marker) as f:
                m = json.load(f)
        except json.JSONDecodeError:
            m = None  # torn marker -> recompute
        if m is not None and m.get("params") == (params or {}):
            spec = {c: np.dtype(t) for c, t in m.get("spec", {}).items()}
            return thaw_list_columns(rd.read_parquet(d), spec)
    return None


def checkpoint_dataset(
    ds: rd.Dataset,
    root: str,
    name: str,
    *,
    params: dict | None = None,
) -> rd.Dataset:
    """Stage-granularity checkpoint — the curation-chain analogue of the
    partition manifest (same commit discipline: atomic tmp-dir rename +
    a marker written last).  Writes the stage output ONCE to
    ``<root>/<name>`` and hands back a ``read_parquet`` Dataset, so

      * downstream consumptions re-read parquet instead of re-executing
        the whole upstream lineage (the ``.materialize()`` lineage pin,
        made DURABLE — at 100 TB a pinned object-store copy dies with
        the job; a committed parquet checkpoint does not), and
      * a killed run resumes at the last committed stage: a marker whose
        ``params`` match means skip, anything else (missing marker, torn
        write, changed params) recomputes.

    ``params`` must capture every argument that shapes the stage's
    OUTPUT; input-corpus identity is the caller's contract (use a fresh
    ``root`` per corpus version, exactly like ``run_with_manifest``'s
    output_dir).  Ragged list columns are frozen to per-row bytes for
    the write and thawed on read (Ray tensor-extension parquet
    round-trips are not stable); the dtype spec rides in the marker."""
    from ..ops.relational import freeze_list_columns, thaw_list_columns

    import numpy as np

    hit = checkpoint_lookup(root, name, params=params)
    if hit is not None:
        return hit
    d = os.path.join(root, name)
    marker = os.path.join(root, name + ".json")
    params = params or {}
    tmp = d + ".tmp"
    for p in (tmp, d):
        if os.path.exists(p):
            shutil.rmtree(p)
    os.makedirs(root, exist_ok=True)
    frozen, spec = freeze_list_columns(ds)
    frozen.write_parquet(tmp)
    os.replace(tmp, d)  # atomic publish; marker committed last
    mtmp = marker + ".tmp"
    with open(mtmp, "w") as f:
        json.dump({"params": params, "spec": {c: t.name for c, t in spec.items()}}, f)
    os.replace(mtmp, marker)
    return thaw_list_columns(rd.read_parquet(d), spec)


def _fragment_contains(path: str, urls: set[str]) -> bool:
    """Check via parquet row-group statistics (no data read) whether a
    fragment could contain any of the urls."""
    ranges = _url_ranges(pq.read_metadata(path))
    if ranges is None:
        return True  # no stats -> assume yes
    return any(lo <= u <= hi for lo, hi in ranges for u in urls)


def _committed_part_size(frags: list[str], done: dict[int, dict]) -> int:
    """The ``fragments_per_part`` a committed job ran with, from its
    manifests' ``inputs``: part ``pid`` starts at file ``pid × size``, and
    part 0 is full unless it is the only part."""
    pid, m = min(done.items())
    return len(m["inputs"]) if pid == 0 else frags.index(m["inputs"][0]) // pid


def redo_urls(
    input_path: str,
    output_dir: str,
    urls: list[str],
    pipeline_fn,
    file_fn,
    *,
    columns: list[str] | None = None,
) -> dict:
    """D5 / §3.2 redo semantics: recompute exactly the partitions whose
    input fragments may contain the given urls (located via parquet
    row-group stats, no data read), atomically replacing their output
    shards + manifest lines.  The partitions are the committed job's own:
    their size comes from its manifests, so a redo never regroups the
    output.  The reference's LIFO-priority redo job becomes 'run the
    small recompute job first' (O4)."""
    target = set(urls)
    frags = _list_fragments(input_path)
    done = completed_parts(output_dir)
    if not done:
        raise ValueError(f"no committed part in {output_dir}: run the job before a redo")
    fragments_per_part = _committed_part_size(frags, done)
    groups = [frags[i : i + fragments_per_part] for i in range(0, len(frags), fragments_per_part)]
    invalidated = 0
    for pid, group in enumerate(groups):
        if any(_fragment_contains(f, target) for f in group):
            mpath = os.path.join(output_dir, "_manifest", f"part-{pid:05d}.json")
            if os.path.exists(mpath):
                os.remove(mpath)
                invalidated += 1
    result = run_with_manifest(
        input_path,
        output_dir,
        pipeline_fn,
        file_fn,
        resume=True,
        fragments_per_part=fragments_per_part,
        columns=columns,
    )
    result["redone_parts"] = result["parts"] - result["skipped"]
    result["invalidated"] = invalidated
    return result
