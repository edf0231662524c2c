"""CLI entry points — the operational surface a user of the reference's
queue/HTTP endpoints would switch to (SURVEY.md §3: POST /book/ocr ->
``extract``; POST /page/:id/ocr redo -> ``redo``; upload/ingest ->
``repartition``).

    python -m ocr_platform_ray extract --input DIR --output DIR [--no-resume]
    python -m ocr_platform_ray repartition --input DIR --output DIR [--shards N]
    python -m ocr_platform_ray redo --input DIR --output DIR --url URL [--url ...]
    python -m ocr_platform_ray probe --input DIR
    python -m ocr_platform_ray gen-corpus --output DIR --urls N
    python -m ocr_platform_ray status --output DIR
    python -m ocr_platform_ray explain --query NAME --sf-dir DIR

Owns the Ray session (guarded init / shutdown) — the only place in the
package besides bench.py that does.  ``gen-corpus`` and ``status`` touch
local files only and start none.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ocr_platform_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("extract", help="run the flagship extraction job (resumable)")
    ex.add_argument("--input", required=True)
    ex.add_argument("--output", required=True)
    ex.add_argument("--no-resume", action="store_true")
    ex.add_argument("--fragments-per-part", type=int, default=64)

    rp = sub.add_parser("repartition", help="url-hash repartition a pages table")
    rp.add_argument("--input", required=True)
    rp.add_argument("--output", required=True)
    rp.add_argument("--shards", type=int, default=64)

    rd_ = sub.add_parser(
        "redo", help="recompute the committed partitions containing the given urls"
    )
    rd_.add_argument("--input", required=True)
    rd_.add_argument("--output", required=True)
    rd_.add_argument("--url", action="append", required=True)

    pr = sub.add_parser("probe", help="page counts per url")
    pr.add_argument("--input", required=True)
    pr.add_argument("--limit", type=int, default=20)

    gc = sub.add_parser("gen-corpus", help="write the deterministic synthetic pages corpus")
    gc.add_argument("--output", required=True)
    gc.add_argument("--urls", type=int, default=1000)
    gc.add_argument("--urls-per-shard", type=int, default=250)

    st = sub.add_parser(
        "status", help="summarize a job's manifest lineage (parts, rows, throughput)"
    )
    st.add_argument("--output", required=True)

    xp = sub.add_parser(
        "explain",
        help="run a registered query under the route observer and print "
        "every size-aware planner decision (broadcast vs exchange, "
        "driver vs distributed) plus the result row count",
    )
    xp.add_argument("--query", required=True, help="queries() registry name")
    xp.add_argument(
        "--sf-dir", required=True, help="scale-factor data directory the query reads"
    )

    args = p.parse_args(argv)
    if args.cmd == "gen-corpus":
        from .corpus import write_pages_parquet

        paths = write_pages_parquet(args.output, args.urls, urls_per_shard=args.urls_per_shard)
        print(json.dumps({"shards": len(paths), "urls": args.urls}))
        return 0
    if args.cmd == "status":
        from .state.manifest import completed_parts

        parts = completed_parts(args.output)
        rows = sum(m["rows"] for m in parts.values())
        out_bytes = sum(m.get("out_bytes", 0) for m in parts.values())
        walls = [m["wall_s"] for m in parts.values() if m.get("wall_s")]
        slowest = max(parts.values(), key=lambda m: m.get("wall_s", 0)) if parts else None
        mix = [m.get("reassembly") for m in parts.values()]
        residual = next((m for m in parts.values() if m.get("reassembly") == "residual"), None)
        peaks = [m["worker_peak_rss_mb"] for m in parts.values() if m.get("worker_peak_rss_mb")]
        print(
            json.dumps(
                {
                    "committed_parts": len(parts),
                    "rows": rows,
                    "out_bytes": out_bytes,
                    "total_wall_s": round(sum(walls), 2),
                    "mean_rows_per_s": round(rows / max(sum(walls), 1e-9), 1),
                    "slowest_part": (
                        {"part_id": slowest["part_id"], "wall_s": slowest["wall_s"]}
                        if slowest
                        else None
                    ),
                    "reassembly": {r: mix.count(r) for r in sorted(set(mix), key=str)},
                    "worker_peak_rss_mb": max(peaks, default=None),
                    "residual_part": residual
                    and {k: residual[k] for k in ("part_id", "rows", "inputs")},
                }
            )
        )
        return 0
    ray = _ray_session()
    try:
        if args.cmd == "extract":
            from .pipelines.extraction import run_extraction

            res = run_extraction(
                args.input,
                args.output,
                resume=not args.no_resume,
                fragments_per_part=args.fragments_per_part,
            )
            print(json.dumps(res))
        elif args.cmd == "repartition":
            import ray.data as rdata

            from .sources.ingest import partition_pages_by_url

            paths = partition_pages_by_url(
                rdata.read_parquet(args.input), args.output, n_shards=args.shards
            )
            print(json.dumps({"shards": len(paths)}))
        elif args.cmd == "redo":
            from .pipelines.extraction import PAGE_COLUMNS, extract_docs, extraction_pipeline
            from .state.manifest import redo_urls

            res = redo_urls(
                args.input,
                args.output,
                args.url,
                extraction_pipeline,
                extract_docs,
                columns=PAGE_COLUMNS,
            )
            print(json.dumps(res))
        elif args.cmd == "probe":
            import ray.data as rdata

            from .sources.ingest import page_count_probe

            out = page_count_probe(rdata.read_parquet(args.input))
            print(out.head(args.limit).to_string())
            print(f"... {len(out)} urls total")
        elif args.cmd == "explain":
            from .ops.relational import explain_routes
            from .pipelines.queries import QUERIES

            if args.query not in QUERIES:
                raise SystemExit(
                    f"unknown query {args.query!r}; "
                    f"{len(QUERIES)} registered (see pipelines/queries.py)"
                )
            with explain_routes() as routes:
                res = QUERIES[args.query](args.sf_dir)
            n = len(res) if hasattr(res, "__len__") else res.count()
            print(json.dumps({"query": args.query, "rows": int(n),
                              "n_decisions": len(routes)}))
            for r in routes:
                print(json.dumps(r, default=str))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
