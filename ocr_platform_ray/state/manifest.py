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

One partition is a contiguous group of input files, and a url's pages may
sit in any files.  A census of every file's urls, read before any work,
sorts them: a url held by one file is *local*, and each file runs one
plain Ray task that reads, extracts, reassembles and writes its local
urls, its part committing as its last file lands.  Every other url is
*residual*: one Ray Data execution reassembles them all through the url
exchange into one residual part, so each url is published once.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import shutil
import time
import zlib

import pyarrow as pa
import pyarrow.compute as pc
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
_NO_URLS = pa.array([], pa.string())


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


def _url_census(files: list[str]) -> tuple[dict, dict, pa.Array, dict]:
    """Read every file's footer and ``url`` column, once, before any work.

    Returns ``(footers, urls, residual, unreadable)``: ``urls[f]`` holds
    file ``f``'s distinct urls, ``residual`` every named url that is not
    local, and ``unreadable[f]`` why ``f`` could not be read.  A url is
    local when exactly one file holds it and that file is not large (the
    sum of its row groups' sizes exceeds
    ``DataContext.target_max_block_size``: a task does not read it whole).
    A null url is local to each file that holds it."""
    max_block = rd.DataContext.get_current().target_max_block_size
    footers, urls, unreadable = {}, {}, {}
    for f in files:
        try:
            pf = pq.ParquetFile(f)
            col = pf.read(columns=["url"]).column("url")
        except (OSError, pa.ArrowException) as e:
            unreadable[f] = f"{type(e).__name__}: {e}"
            continue
        footers[f] = pf.metadata
        urls[f] = pc.unique(col).cast(pa.string())
    every = pa.concat_arrays([_NO_URLS, *urls.values()])
    counts = pc.value_counts(every)
    residual = [counts.field("values").filter(pc.greater(counts.field("counts"), 1))]
    for f, md in footers.items():
        size = sum(md.row_group(rg).total_byte_size for rg in range(md.num_row_groups))
        if max_block is not None and size > max_block:
            residual.append(urls[f])
    return footers, urls, pc.unique(pa.concat_arrays(residual)).drop_null(), unreadable


def _file_task(file_fn, columns: list[str] | None):
    """The per-file task: read one file whole, drop the pages of the
    residual urls it holds, run ``file_fn`` on the rest, write the docs to
    ``<tmp_dir>/<file stem>.parquet`` (a retry overwrites its failed
    attempt) and return the file, the rows it read and the task's
    seconds.  Nothing it reaches may import ``ray.data`` or, through
    ``pq.read_table``, ``pyarrow.dataset``: the worker pays for either
    import, more than a small file's task costs."""

    def land_file(path: str, tmp_dir: str, residual: pa.Array) -> tuple[str, int, float]:
        t0 = time.perf_counter()
        pages = pq.ParquetFile(path).read(columns=columns)
        rows = pages.num_rows
        if len(residual):
            pages = pages.filter(pc.invert(pc.is_in(pages.column("url"), value_set=residual)))
        docs = file_fn(pages)
        if docs.num_rows:
            stem = os.path.splitext(os.path.basename(path))[0]
            pq.write_table(docs, os.path.join(tmp_dir, stem + ".parquet"))
        return path, rows, time.perf_counter() - t0

    return land_file


@functools.lru_cache(maxsize=8)
def _lander(file_fn, columns: tuple[str, ...] | None):
    """The per-file task as a Ray remote function, made once per driver
    process: Ray exports it once per session, where a new one every job
    would re-pickle the package-by-value closure each time.  So within a
    session every job's task runs the package's module globals as they
    were at the first job's export: a monkeypatch made later in the
    session does not reach the workers unless the test calls
    ``_lander.cache_clear()`` first."""
    task = _file_task(file_fn, None if columns is None else list(columns))
    return ray.remote(max_retries=-1, scheduling_strategy="SPREAD")(task)


def run_with_manifest(
    input_path: str,
    output_dir: str,
    pipeline_fn,
    file_fn,
    *,
    resume: bool = True,
    fragments_per_part: int = 8,
    columns: list[str] | None = None,
) -> dict:
    """Run every pending partition with atomic publish (write to a
    ``part-NNNNN.tmp`` dir, rename) + a manifest per part.  The parts are
    the groups of ``fragments_per_part`` input files, then, when some url
    is residual, one residual part.

    ``file_fn(pages_table)`` (like ``extract_docs``) emits one row per url
    from pages that hold every page of their urls; ``pipeline_fn(pages_ds)``
    (like ``extraction_pipeline``) does so for any layout.  Before any work
    runs, ``_url_census`` reads every file's urls and names the residual
    ones: split across files, or in a large file.  Every pending file that
    holds a local url runs one plain Ray task (``_file_task``: read, drop
    the residual urls' pages, ``file_fn``, write into its part's tmp dir),
    retried when its worker dies, never on an error it raises.  The driver
    drains the tasks (``ray.wait``) and commits a part as soon as its last
    file has landed with its footer's row count.  After the stream, the
    residual part, when pending, runs as one Ray Data execution:
    ``pipeline_fn`` over the residual urls' pages of the files that hold
    them (its ``inputs``), read one block per file, then
    ``write_parquet``.  Each url is so published once, whatever the
    layout and the grouping.  A part that would publish a url twice raises
    instead.

    The manifest records ``"reassembly"`` (``"aligned"`` | ``"residual"``),
    ``"residual_urls"`` (how many residual urls its inputs hold: a part
    committed under another census recomputes) and ``"wall_s"``: for an
    aligned part the sum of its file tasks' seconds as the tasks report
    them (aligned parts overlap in time, so elapsed time would not
    describe the part), for the residual part the elapsed time of its run.
    ``rows_per_s`` is rows over ``wall_s``.  A task that fails stops no
    other: every part whose files all land is committed and the residual
    part runs, then the job raises the first task's error; the failed
    parts leave only their ``.tmp`` dirs, which a rerun deletes and
    recomputes.

    A part with a file the census could not read does not run; every
    other part runs and commits, and the job then raises one
    ``ValueError`` naming the unreadable files.  A part is unpublished
    (manifest first, then its directory) before it is recomputed, and so
    is every part id beyond the current parts: output grouped more finely
    by an earlier run would otherwise publish its urls twice.

    Returns {"parts", "skipped", "rows", "wall_s"}."""
    frags = _list_fragments(input_path)
    groups = [frags[i : i + fragments_per_part] for i in range(0, len(frags), fragments_per_part)]
    manifest_dir = os.path.join(output_dir, "_manifest")
    os.makedirs(manifest_dir, exist_ok=True)
    done = completed_parts(output_dir) if resume else {}
    footers, urls, residual, unreadable = _url_census(frags)
    held = {f: u.filter(pc.is_in(u, value_set=residual)) for f, u in urls.items()}

    def part(inputs: list[str], reassembly: str) -> tuple[list[str], str, int]:
        mine = pa.concat_arrays([_NO_URLS] + [held[f] for f in inputs if f in held])
        return inputs, reassembly, len(pc.unique(mine))

    parts = {pid: part(group, "aligned") for pid, group in enumerate(groups)}
    if len(residual):
        parts[len(groups)] = part([f for f in frags if len(held.get(f, ()))], "residual")

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
        if pid not in parts:
            unpublish(pid)

    total_rows, skipped = 0, 0
    t0 = time.monotonic()
    pending = []
    for pid, spec in parts.items():
        # committed = manifest matches AND the published output directory
        # still exists — a deleted/lost shard must recompute, not silently
        # count its manifest rows
        m = done.get(pid, {})
        if (m.get("inputs"), m.get("reassembly"), m.get("residual_urls")) == spec and (
            os.path.isdir(part_dir(pid))
        ):
            total_rows += m["rows"]
            skipped += 1
        else:
            unpublish(pid)  # incomplete or stale earlier attempt -> recompute
            if not any(f in unreadable for f in spec[0]):
                pending.append(pid)

    def commit(pid: int, wall: float) -> None:
        nonlocal total_rows
        tmp_dir = part_dir(pid) + ".tmp"
        rows, crc, repeats = _url_checksum(tmp_dir)
        if repeats:
            raise ValueError(f"{tmp_dir} holds a url twice; the part is not published")
        os.replace(tmp_dir, part_dir(pid))  # atomic publish
        out_bytes = sum(
            os.path.getsize(os.path.join(part_dir(pid), f)) for f in os.listdir(part_dir(pid))
        )
        inputs, reassembly, n_residual = parts[pid]
        manifest = {
            "part_id": pid,
            "inputs": inputs,
            "rows": rows,
            "url_crc32": crc,
            "out_bytes": out_bytes,
            "wall_s": round(wall, 3),
            "rows_per_s": round(rows / wall, 1) if wall > 0 else None,
            "reassembly": reassembly,
            "residual_urls": n_residual,
        }
        mpath = os.path.join(manifest_dir, f"part-{pid:05d}.json")
        with open(mpath + ".tmp", "w") as f:
            json.dump(manifest, f)
        os.replace(mpath + ".tmp", mpath)
        total_rows += rows

    aligned = [pid for pid in pending if parts[pid][1] == "aligned"]
    # a file runs when it holds a local url (a null url is one)
    part_of = {f: pid for pid in aligned for f in groups[pid] if len(urls[f]) > len(held[f])}
    waiting = {pid: {f for f in groups[pid] if f in part_of} for pid in aligned}
    task_s = dict.fromkeys(aligned, 0.0)
    for pid in aligned:
        os.makedirs(part_dir(pid) + ".tmp")
        if not waiting[pid]:
            commit(pid, 0.0)
    land = _lander(file_fn, None if columns is None else tuple(columns))
    refs = [land.remote(f, part_dir(pid) + ".tmp", held[f]) for f, pid in part_of.items()]
    errors = []
    try:
        while refs:
            (ref,), refs = ray.wait(refs)
            try:
                f, rows, secs = ray.get(ref)
            except ray.exceptions.RayError as e:
                errors.append(e)
                continue
            pid = part_of[f]
            task_s[pid] += secs
            if rows != footers[f].num_rows:
                errors.append(ValueError(f"{f}: read {rows} of {footers[f].num_rows} rows"))
                continue
            waiting[pid].discard(f)
            if not waiting[pid]:
                commit(pid, task_s[pid])
    finally:
        for ref in refs:  # the driver failed: stop the tasks it will not drain
            ray.cancel(ref)

    rid = len(groups)  # the residual part
    if rid in pending:
        tp = time.monotonic()
        inputs = parts[rid][0]
        ds = rd.read_parquet(
            inputs,
            columns=columns,
            override_num_blocks=len(inputs),
            filter=pc.field("url").isin(residual),
        )
        pipeline_fn(ds).write_parquet(part_dir(rid) + ".tmp")
        commit(rid, time.monotonic() - tp)
    if errors:
        raise errors[0]
    if unreadable:
        raise ValueError(
            f"{len(unreadable)} input file(s) are unreadable; "
            "their parts were not run, every other part is committed: "
            + "; ".join(f"{f} ({e})" for f, e in sorted(unreadable.items()))
        )
    return {
        "parts": len(parts),
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


def _committed_part_size(frags: list[str], done: dict[int, dict]) -> int:
    """The ``fragments_per_part`` a committed job ran with, from its
    aligned manifests' ``inputs``: part ``pid`` starts at file
    ``pid × size``, and part 0 is full unless it is the only part."""
    pid, m = min((pid, m) for pid, m in done.items() if m.get("reassembly") == "aligned")
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
    """D5 / §3.2 redo semantics: recompute exactly the partitions that
    publish the given urls, atomically replacing their output shards +
    manifest lines.  The url census locates them: a local url's part is
    the one of the file that holds it, a residual url's is the residual
    part.  The partitions are the committed job's own: their size comes
    from its manifests, so a redo never regroups the output.  The
    reference's LIFO-priority redo job becomes 'run the small recompute
    job first' (O4)."""
    frags = _list_fragments(input_path)
    done = completed_parts(output_dir)
    if not any(m.get("reassembly") == "aligned" for m in done.values()):
        raise ValueError(f"no committed part in {output_dir}: run the job before a redo")
    fragments_per_part = _committed_part_size(frags, done)
    groups = [frags[i : i + fragments_per_part] for i in range(0, len(frags), fragments_per_part)]
    _, file_urls, residual, _ = _url_census(frags)
    target = pa.array(sorted(set(urls)), pa.string())
    local = target.filter(pc.invert(pc.is_in(target, value_set=residual)))
    redo = {len(groups)} if len(local) < len(target) else set()
    for pid, group in enumerate(groups):
        holders = [file_urls[f] for f in group if f in file_urls]
        if any(pc.any(pc.is_in(local, value_set=u)).as_py() for u in holders):
            redo.add(pid)
    invalidated = 0
    for pid in redo:
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
