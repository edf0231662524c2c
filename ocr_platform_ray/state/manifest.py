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
files' footers show disjoint url ranges and one read block per file (or
whose caller asserts the layout) is read one block per file and
reassembled without the url exchange; every other part runs the exchange.  The commit checks the choice: an aligned
part that holds a url twice is recomputed through the exchange before it
is published.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
import zlib

import pyarrow.parquet as pq
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


def _url_checksum(part_dir: str) -> tuple[int, int, bool]:
    """(rows, crc-of-sorted-urls, whether any url repeats) over a written
    partition — cheap lineage fingerprint for the manifest, and the
    commit's check that a doc-per-url part holds each url once."""
    rows, crc, seen = 0, 0, set()
    for f in sorted(glob.glob(os.path.join(part_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["url"])
        rows += t.num_rows
        for u in sorted(t.column("url").to_pylist()):
            crc = zlib.crc32(u.encode(), crc)
            seen.add(u)
    return rows, crc, len(seen) < rows


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


def _part_layout(group: list[str], cpus: int, max_block_bytes: int | None) -> str:
    """Why a fragment group may, or may not, skip the url exchange, from
    footers alone: ``"footers"`` when every file has url statistics and
    fits one read block (a bigger file is emitted as several), the files'
    ``[min, max]`` ranges, sorted by min, are strictly disjoint (a shared
    boundary url counts as overlap), and the group has a file per CPU (an
    aligned part runs one task per file, the exchange's read at least one
    per CPU); else ``"no stats"``, ``"large file"``, ``"overlap"`` or
    ``"few files"``."""
    spans = []
    for f in group:
        md = pq.read_metadata(f)
        ranges = _url_ranges(md)
        if ranges is None:
            return "no stats"
        size = sum(md.row_group(rg).total_byte_size for rg in range(md.num_row_groups))
        if max_block_bytes is not None and size > max_block_bytes:
            return "large file"
        if ranges:
            spans.append((min(lo for lo, _ in ranges), max(hi for _, hi in ranges)))
    spans.sort()
    if any(hi >= lo for (_, hi), (lo, _) in zip(spans, spans[1:])):
        return "overlap"
    return "footers" if len(group) >= cpus else "few files"


def _cluster_cpus() -> int:
    import ray

    if not ray.is_initialized():
        ray.init()  # the part's read would start it anyway
    return int(ray.cluster_resources().get("CPU", 1))


def run_with_manifest(
    input_path: str,
    output_dir: str,
    pipeline_fn,
    *,
    resume: bool = True,
    fragments_per_part: int = 8,
    columns: list[str] | None = None,
    file_aligned_blocks: bool = False,
) -> dict:
    """Run ``pipeline_fn(read_parquet(fragment_group))`` per partition with
    atomic publish (write to ``part-NNNNN.tmp`` dir, rename) + manifest.

    ``pipeline_fn(ds, partitioned_input=...)`` (like
    ``extraction_pipeline``) emits one row per url and is told per part
    which reassembly to build.  The part is *aligned* — read one block
    per fragment file, ``partitioned_input=True`` — when
    ``file_aligned_blocks=True`` asserts the layout (url-ranged or
    url-hash-sharded files; no footer is read) or when ``_part_layout``
    finds a file per cluster CPU, each small enough for one read block,
    with disjoint footer url ranges; otherwise it is read with Ray's
    default blocks and gets ``partitioned_input=False`` (the url
    exchange).  The aligned precondition is checked, not trusted: an
    aligned part whose written output holds a url twice (a file split
    across blocks, wrong statistics) is recomputed through the exchange
    before it is published.  The manifest records ``"reassembly"``
    (``"aligned"`` | ``"exchange"``) and ``"reassembly_reason"``
    (``"asserted"``, ``"footers"``, ``"few files"``, ``"no stats"``,
    ``"large file"``, ``"overlap"`` or ``"duplicate-recomputed"``).
    Size ``fragments_per_part`` >= cluster cores for full within-part
    parallelism on the aligned path.

    Returns {"parts", "skipped", "rows", "wall_s"}."""
    frags = _list_fragments(input_path)
    groups = [frags[i : i + fragments_per_part] for i in range(0, len(frags), fragments_per_part)]
    os.makedirs(os.path.join(output_dir, "_manifest"), exist_ok=True)
    done = completed_parts(output_dir) if resume else {}

    def build(group: list[str], aligned: bool, tmp_dir: str) -> tuple[int, int, bool]:
        read_kwargs: dict = {"columns": columns}
        if aligned:
            read_kwargs["override_num_blocks"] = len(group)
        ds = rd.read_parquet(group, **read_kwargs)
        pipeline_fn(ds, partitioned_input=aligned).write_parquet(tmp_dir)
        return _url_checksum(tmp_dir)

    total_rows, skipped = 0, 0
    t0 = time.monotonic()
    for pid, group in enumerate(groups):
        # committed = manifest matches AND the published output directory
        # still exists — a deleted/lost shard must recompute, not silently
        # count its manifest rows
        if (
            pid in done
            and done[pid].get("inputs") == group
            and os.path.isdir(os.path.join(output_dir, f"part-{pid:05d}"))
        ):
            total_rows += done[pid]["rows"]
            skipped += 1
            continue
        part_dir = os.path.join(output_dir, f"part-{pid:05d}")
        tmp_dir = part_dir + ".tmp"
        for d in (part_dir, tmp_dir):
            if os.path.exists(d):
                shutil.rmtree(d)  # incomplete earlier attempt -> recompute
        tp = time.monotonic()
        if file_aligned_blocks:
            reason = "asserted"
        else:
            max_block = rd.DataContext.get_current().target_max_block_size
            reason = _part_layout(group, _cluster_cpus(), max_block)
        aligned = reason in ("asserted", "footers")
        rows, crc, repeats = build(group, aligned, tmp_dir)
        if aligned and repeats:
            # a url's pages reached two blocks: never publish two doc rows
            shutil.rmtree(tmp_dir)
            reason, aligned = "duplicate-recomputed", False
            rows, crc, _ = build(group, aligned, tmp_dir)
        os.replace(tmp_dir, part_dir)  # atomic publish
        out_bytes = sum(
            os.path.getsize(os.path.join(part_dir, f)) for f in os.listdir(part_dir)
        )
        wall = time.monotonic() - tp
        manifest = {
            "part_id": pid,
            "inputs": group,
            "rows": rows,
            "url_crc32": crc,
            "out_bytes": out_bytes,
            "wall_s": round(wall, 3),
            "rows_per_s": round(rows / wall, 1) if wall > 0 else None,
            "reassembly": "aligned" if aligned else "exchange",
            "reassembly_reason": reason,
        }
        mpath = os.path.join(output_dir, "_manifest", f"part-{pid:05d}.json")
        with open(mpath + ".tmp", "w") as f:
            json.dump(manifest, f)
        os.replace(mpath + ".tmp", mpath)
        total_rows += rows
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


def redo_urls(
    input_path: str,
    output_dir: str,
    urls: list[str],
    pipeline_fn,
    *,
    fragments_per_part: int = 8,
    columns: list[str] | None = None,
) -> dict:
    """D5 / §3.2 redo semantics: recompute exactly the partitions whose
    input fragments may contain the given urls (located via parquet
    row-group stats, no data read), atomically replacing their output
    shards + manifest lines.  The reference's LIFO-priority redo job
    becomes 'run the small recompute job first' (O4)."""
    target = set(urls)
    frags = _list_fragments(input_path)
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
        resume=True,
        fragments_per_part=fragments_per_part,
        columns=columns,
    )
    result["redone_parts"] = result["parts"] - result["skipped"]
    result["invalidated"] = invalidated
    return result
