"""CLI entry points — the operational surface a user of the reference's
queue/HTTP endpoints would switch to (SURVEY.md §3: POST /book/ocr ->
``extract``; POST /page/:id/ocr redo -> ``redo``; upload/ingest ->
``repartition``).

    python -m ocr_platform_ray extract --input DIR --output DIR [--no-resume]
    python -m ocr_platform_ray repartition --input DIR --output DIR [--shards N]
    python -m ocr_platform_ray redo --input DIR --output DIR --url URL [--url ...]
    python -m ocr_platform_ray probe --input DIR
    python -m ocr_platform_ray gen-corpus --output DIR --urls N
    python -m ocr_platform_ray curate --input DIR --output DIR [--strip-boilerplate]
    python -m ocr_platform_ray status --output DIR
    python -m ocr_platform_ray rasterize --input DIR --output DIR [--scale 2.0]

Owns the Ray session (guarded init / shutdown) — the only place in the
package besides bench.py that does.
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
    ex.add_argument(
        "--partitioned",
        action="store_true",
        help="assert a url-ranged/hash-sharded input layout: every part reassembles "
        "shuffle-free (without it, only parts whose parquet footers prove "
        "that layout do)",
    )

    rp = sub.add_parser("repartition", help="url-hash repartition a pages table")
    rp.add_argument("--input", required=True)
    rp.add_argument("--output", required=True)
    rp.add_argument("--shards", type=int, default=64)

    rd_ = sub.add_parser("redo", help="recompute partitions containing the given urls")
    rd_.add_argument("--input", required=True)
    rd_.add_argument("--output", required=True)
    rd_.add_argument("--url", action="append", required=True)
    rd_.add_argument("--fragments-per-part", type=int, default=8)

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

    cu = sub.add_parser(
        "curate", help="full curation chain: extract -> quality -> dedup -> split"
    )
    cu.add_argument("--input", required=True)
    cu.add_argument("--output", required=True)
    cu.add_argument("--min-tokens", type=int, default=10)
    cu.add_argument("--near-dup-threshold", type=float, default=0.9)
    cu.add_argument("--strip-boilerplate", action="store_true")
    cu.add_argument(
        "--gopher", action="store_true", help="Gopher rule bundle before dedup"
    )
    cu.add_argument(
        "--url-filter", action="store_true",
        help="RefinedWeb URL filter before extraction (blocklist + word score)",
    )
    cu.add_argument("--url-threshold", type=int, default=100)
    cu.add_argument(
        "--fix-text", action="store_true",
        help="Unicode repair after extraction (mojibake + NFC)",
    )
    cu.add_argument(
        "--line-dedup", action="store_true",
        help="RefinedWeb line-wise correction (within-doc duplicate lines)",
    )
    cu.add_argument(
        "--c4", action="store_true", help="C4 line+page cleaning rules"
    )
    cu.add_argument(
        "--scale-routes",
        action="store_true",
        help="force every dedup stage onto its fully distributed route",
    )
    cu.add_argument(
        "--checkpoint-dir",
        default=None,
        help="durable manifest-committed stage checkpoints (SIGKILL-resumable)",
    )
    cu.add_argument(
        "--cut-dup-spans",
        action="store_true",
        help="ExactSubstr stage after doc dedup: cut repeated token windows",
    )
    cu.add_argument("--dup-span-width", type=int, default=8)
    cu.add_argument("--partitioned", action="store_true")
    cu.add_argument(
        "--verify-unique",
        action="store_true",
        help="post-hoc EXACT url-uniqueness audit of the output "
        "(one url-column scan; the check that catches a violated "
        "partitioned-read precondition)",
    )

    rz = sub.add_parser(
        "rasterize", help="render PDF pages to PNG pixels (S4; 2x default)"
    )
    rz.add_argument("--input", required=True, help="pages parquet (url, html)")
    rz.add_argument("--output", required=True)
    rz.add_argument("--scale", type=float, default=2.0)

    cs = sub.add_parser(
        "compact-state",
        help="merge incremental-dedup bucket state files (run quiesced "
        "between ingests; crash-safe, idempotent)",
    )
    cs.add_argument("--state-dir", required=True)

    iw = sub.add_parser(
        "ingest-warc",
        help="process one crawl increment: WARC files -> extraction -> "
        "incremental dedup vs persisted state -> corpus partition "
        "(idempotent; crash-safe atomic publish)",
    )
    iw.add_argument("--warc", required=True, help="WARC file or directory")
    iw.add_argument("--corpus", required=True)
    iw.add_argument("--state", required=True)
    iw.add_argument("--ingest-id", required=True)
    iw.add_argument("--dedup", choices=["exact", "minhash"], default="exact")
    iw.add_argument(
        "--extractor", choices=["flagship", "main_content"], default="flagship",
        help="flagship = multi-page byte-identical extraction; "
        "main_content = raw-HTML boilerplate removal (one capture = one doc)",
    )

    lp = sub.add_parser(
        "lsh-probe",
        help="measured MinHash-LSH recall/precision on a deterministic "
        "corpus sample (tune threshold/bands before a full dedup run)",
    )
    lp.add_argument("--input", required=True, help="parquet file or directory")
    lp.add_argument("--text-col", default="text")
    lp.add_argument("--id-col", default="doc_id")
    lp.add_argument("--threshold", type=float, default=0.8)
    lp.add_argument("--sample-n", type=int, default=512)
    lp.add_argument("--num-perm", type=int, default=64)
    lp.add_argument("--bands", type=int, default=16)

    cp = sub.add_parser(
        "compact",
        help="bin-pack a directory's small parquet fragments into "
        "~target-size files (name-order preserved, idempotent)",
    )
    cp.add_argument("--input", required=True)
    cp.add_argument("--output", required=True)
    cp.add_argument("--target-mb", type=int, default=256)
    cp.add_argument(
        "--delete-inputs", action="store_true",
        help="remove fragments after every output committed",
    )

    cv = sub.add_parser(
        "convert",
        help="convert a table between interchange formats "
        "(parquet/jsonl/csv/ipc/orc in, +warc/wet read-only; "
        "extension-dispatched unless --from/--to given)",
    )
    cv.add_argument("--input", required=True)
    cv.add_argument("--output", required=True)
    cv.add_argument("--from", dest="from_fmt", default=None)
    cv.add_argument("--to", dest="to_fmt", default="parquet")
    cv.add_argument("--columns", nargs="*", default=None)

    rb = sub.add_parser(
        "rag-build",
        help="chunk + embed a documents table into a persisted two-stage "
        "RAG passage index (IVF-PQ candidates + text sidecar)",
    )
    rb.add_argument("--input", required=True, help="parquet file or directory")
    rb.add_argument("--index", required=True)
    rb.add_argument("--text-col", default="text")
    rb.add_argument("--id-col", default="doc_id")
    rb.add_argument("--window", type=int, default=32)
    rb.add_argument("--stride", type=int, default=16)

    rs = sub.add_parser(
        "rag-search",
        help="two-stage top-k passage search over a rag-build index",
    )
    rs.add_argument("--index", required=True)
    rs.add_argument("--query", required=True)
    rs.add_argument("-k", type=int, default=5)

    bi = sub.add_parser(
        "bm25-index",
        help="incrementally (re)index NEW/CHANGED source units into a "
        "persisted BM25 inverted index",
    )
    bi.add_argument("--src", required=True, help="source parquet directory")
    bi.add_argument("--index", required=True)
    bi.add_argument("--text-col", default="text")
    bi.add_argument("--id-col", default="doc_id")

    bs = sub.add_parser(
        "bm25-search",
        help="top-k BM25 over an incrementally-maintained index",
    )
    bs.add_argument("--index", required=True)
    bs.add_argument("--query", required=True)
    bs.add_argument("-k", type=int, default=10)

    dr = sub.add_parser(
        "drift",
        help="Jensen-Shannon token divergence between two corpora "
        "(crawl snapshots, sources, splits) + top drifting tokens",
    )
    dr.add_argument("--a", required=True, help="parquet file or directory")
    dr.add_argument("--b", required=True)
    dr.add_argument("--text-col", default="text")
    dr.add_argument("--top", type=int, default=15)

    au = sub.add_parser(
        "audit",
        help="data-quality audit over a parquet table: one-pass column "
        "profile + Benford first-digit screen on a numeric column",
    )
    au.add_argument("--input", required=True, help="parquet file or directory")
    au.add_argument("--value-col", default=None,
                    help="numeric column for the Benford screen (optional)")
    au.add_argument("--columns", nargs="*", default=None,
                    help="columns to profile (default: all)")

    ex = sub.add_parser(
        "explain",
        help="run a registered query under the route observer and print "
        "every size-aware planner decision (broadcast vs exchange, "
        "driver vs distributed) plus the result row count",
    )
    ex.add_argument("--query", required=True, help="queries() registry name")
    ex.add_argument("--sf-dir", default="/root/testdata/sf0.001")

    mx = sub.add_parser(
        "mix",
        help="assemble a training mixture: source weights, token budgets, "
        "seeded epoch packing, TFRecord output",
    )
    mx.add_argument("--input", required=True, help="parquet docs table")
    mx.add_argument("--out-dir", required=True)
    mx.add_argument("--weights", nargs="+", required=True,
                    metavar="SOURCE=W")
    mx.add_argument("--budgets", nargs="*", default=None,
                    metavar="SOURCE=TOKENS")
    mx.add_argument("--seed", type=int, default=0)
    mx.add_argument("--chunk-tokens", type=int, default=1024)
    mx.add_argument("--id-col", default="doc_id")
    mx.add_argument("--text-col", default="text")
    mx.add_argument("--source-col", default="source")

    cd = sub.add_parser(
        "card",
        help="dataset card (datasheet): rows, column profile, token "
        "volume, language mix, exact-duplicate rate as one JSON",
    )
    cd.add_argument("--input", required=True, help="parquet file or directory")
    cd.add_argument("--text-col", default="text")
    cd.add_argument("--lang-col", default="lang")
    cd.add_argument(
        "--corpus-laws", action="store_true",
        help="add the Zipf-slope / Heaps-exponent statistical-health section",
    )
    cd.add_argument("--id-col", default="doc_id")

    args = p.parse_args(argv)
    ray = _ray_session()
    try:
        if args.cmd == "extract":
            from .pipelines.extraction import run_extraction

            res = run_extraction(
                args.input,
                args.output,
                resume=not args.no_resume,
                fragments_per_part=args.fragments_per_part,
                partitioned_input=args.partitioned,
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
            from .pipelines.extraction import PAGE_COLUMNS, extraction_pipeline
            from .state.manifest import redo_urls

            res = redo_urls(
                args.input,
                args.output,
                args.url,
                extraction_pipeline,
                fragments_per_part=args.fragments_per_part,
                columns=PAGE_COLUMNS,
            )
            print(json.dumps(res))
        elif args.cmd == "probe":
            import ray.data as rdata

            from .sources.ingest import page_count_probe

            out = page_count_probe(rdata.read_parquet(args.input))
            print(out.head(args.limit).to_string())
            print(f"... {len(out)} urls total")
        elif args.cmd == "gen-corpus":
            from .corpus import write_pages_parquet

            paths = write_pages_parquet(
                args.output, args.urls, urls_per_shard=args.urls_per_shard
            )
            print(json.dumps({"shards": len(paths), "urls": args.urls}))
        elif args.cmd == "status":
            from .state.manifest import completed_parts

            parts = completed_parts(args.output)
            rows = sum(m["rows"] for m in parts.values())
            out_bytes = sum(m.get("out_bytes", 0) for m in parts.values())
            walls = [m["wall_s"] for m in parts.values() if m.get("wall_s")]
            slowest = max(parts.values(), key=lambda m: m.get("wall_s", 0)) if parts else None
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
                    }
                )
            )
        elif args.cmd == "curate":
            import ray.data as rdata

            from .pipelines.curate import curate_corpus
            from .pipelines.extraction import PAGE_COLUMNS, read_pages_file_aligned

            # --partitioned selects the shuffle-free reassembly, whose
            # precondition is a FILE-ALIGNED read (an unaligned read can
            # split one file's pages across blocks and emit a straddling
            # url as two doc rows — found at 192k-url scale: 94 dup docs)
            pages_in = (
                read_pages_file_aligned(args.input)
                if args.partitioned
                else rdata.read_parquet(args.input, columns=PAGE_COLUMNS)
            )
            docs = curate_corpus(
                pages_in,
                partitioned_input=args.partitioned,
                min_tokens=args.min_tokens,
                url_filter=args.url_filter,
                url_threshold=args.url_threshold,
                fix_text=args.fix_text,
                line_dedup=args.line_dedup,
                c4=args.c4,
                gopher=args.gopher,
                near_dup_threshold=args.near_dup_threshold,
                strip_boilerplate=args.strip_boilerplate,
                cut_dup_spans=args.cut_dup_spans,
                dup_span_width=args.dup_span_width,
                scale_routes=args.scale_routes,
                checkpoint_dir=args.checkpoint_dir,
            )
            docs.write_parquet(args.output)
            import pyarrow.parquet as pq
            import glob as _g

            n = sum(
                pq.ParquetFile(f).metadata.num_rows
                for f in _g.glob(f"{args.output}/*.parquet")
            )
            res = {"curated_docs": n, "output": args.output}
            if args.verify_unique:
                import duckdb

                nd = duckdb.sql(
                    f"SELECT count(DISTINCT url) FROM read_parquet('{args.output}/*.parquet')"
                ).fetchone()[0]
                res["distinct_urls"] = int(nd)
                res["unique_ok"] = bool(nd == n)
            print(json.dumps(res))
        elif args.cmd == "rasterize":
            import ray.data as rdata

            from .stages.raster import rasterize_pdf_pages

            pages = rasterize_pdf_pages(
                rdata.read_parquet(args.input, columns=["url", "html"]),
                scale=args.scale,
            )
            pages.write_parquet(args.output)
            import glob as _g

            import pyarrow.parquet as pq

            n = sum(
                pq.ParquetFile(f).metadata.num_rows
                for f in _g.glob(f"{args.output}/*.parquet")
            )
            print(json.dumps({"pages": n, "output": args.output, "scale": args.scale}))
        elif args.cmd == "ingest-warc":
            from .pipelines.crawl import ingest_crawl_increment

            res = ingest_crawl_increment(
                args.warc, args.corpus, args.state,
                ingest_id=args.ingest_id, dedup=args.dedup,
                extractor=args.extractor,
            )
            print(json.dumps(res))
        elif args.cmd == "lsh-probe":
            import ray.data as rd

            from .ops.dedup import minhash_recall_probe

            res = minhash_recall_probe(
                rd.read_parquet(args.input),
                args.text_col, args.id_col,
                threshold=args.threshold, sample_n=args.sample_n,
                num_perm=args.num_perm, bands=args.bands,
            )
            print(json.dumps(res))
        elif args.cmd == "compact":
            from .ops.layout import compact_parquet_dir

            written = compact_parquet_dir(
                args.input,
                args.output,
                target_bytes=args.target_mb << 20,
                delete_inputs=args.delete_inputs,
            )
            print(json.dumps({"files_written": len(written)}))
        elif args.cmd == "convert":
            from .sources.auto import detect_format, read_auto, write_auto

            src_fmt = args.from_fmt or detect_format(args.input)
            ds = read_auto(args.input, fmt=src_fmt, columns=args.columns)
            import os as _os

            _os.makedirs(args.output, exist_ok=True)
            n_files = write_auto(ds, args.output, args.to_fmt)
            print(
                json.dumps(
                    {"from": src_fmt, "to": args.to_fmt, "files_written": n_files}
                )
            )
        elif args.cmd == "drift":
            import ray.data as rdata

            from .ops.drift import token_divergence

            t = token_divergence(
                rdata.read_parquet(args.a),
                rdata.read_parquet(args.b),
                args.text_col,
            )
            if not isinstance(t, __import__("pandas").DataFrame):
                t = t.to_pandas()
            js = float(t["js_term"].sum())
            top = t.sort_values(
                ["js_term", "token"], ascending=[False, True]
            ).head(args.top)
            # distribution-level drift: exact KS over doc LENGTHS
            from .ops.drift import ks_two_sample

            def _len_side(path, side):
                return rdata.read_parquet(path).map_batches(
                    lambda b, _s=side: __import__("pandas").DataFrame(
                        {
                            "g": "all",
                            "side": _s,
                            "v": b[args.text_col].fillna("").str.len()
                            .astype("float64"),
                        }
                    ),
                    batch_format="pandas",
                )
            ks = ks_two_sample(
                _len_side(args.a, "a").union(_len_side(args.b, "b")),
                "v", "side", "a", "b", ["g"],
            )
            d = float(ks["d"].iloc[0]) if len(ks) else None
            print(json.dumps({
                "js_divergence_bits": round(js, 6),
                "doc_length_ks_d": None if d is None else round(d, 6),
            }))
            print(top.to_string(index=False))
        elif args.cmd == "audit":
            import ray.data as rdata

            from .ops.profile import dataset_profile
            from .ops.validate import benford_audit

            ds = rdata.read_parquet(args.input)
            cols = args.columns or list(ds.schema().names)
            prof = dataset_profile(ds, cols)
            print(prof.to_string(index=False))
            if args.value_col:
                ben = benford_audit(ds, args.value_col)
                chi2 = float(ben["chi2_term"].sum())
                print(
                    json.dumps(
                        {
                            "benford_chi2": round(chi2, 4),
                            "benford_n": int(ben["n"].sum()),
                            # chi2(8 dof) 0.001 critical value — the
                            # published screen threshold
                            "benford_suspicious": bool(chi2 > 26.12),
                        }
                    )
                )
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
        elif args.cmd == "card":
            import ray.data as rdata

            from .ops.card import dataset_card

            ds = rdata.read_parquet(args.input)
            names = set(ds.schema().names)
            card = dataset_card(
                ds,
                text_col=args.text_col if args.text_col in names else None,
                lang_col=args.lang_col if args.lang_col in names else None,
                corpus_laws=args.corpus_laws,
                id_col=args.id_col if args.id_col in names else None,
            )
            print(json.dumps(card, default=str, indent=1))
        elif args.cmd == "mix":
            import ray.data as rdata

            from .pipelines.mixture import prepare_training_mix

            weights = {
                k: float(v)
                for k, v in (w.split("=", 1) for w in args.weights)
            }
            budgets = None
            if args.budgets:
                budgets = {
                    k: (None if v.lower() == "none" else int(v))
                    for k, v in (b.split("=", 1) for b in args.budgets)
                }
                for src in weights:
                    budgets.setdefault(src, None)
            ch, files = prepare_training_mix(
                rdata.read_parquet(args.input),
                weights=weights,
                budgets=budgets,
                seed=args.seed,
                chunk_tokens=args.chunk_tokens,
                id_col=args.id_col,
                text_col=args.text_col,
                source_col=args.source_col,
                out_dir=args.out_dir,
            )
            n = ch.count()
            print(json.dumps({"chunks": int(n), "files_written": len(files)}))
        elif args.cmd == "rag-build":
            import ray.data as rdata

            from .pipelines.rag import build_passage_index

            n = build_passage_index(
                rdata.read_parquet(args.input),
                args.index,
                text_col=args.text_col,
                id_col=args.id_col,
                window=args.window,
                stride=args.stride,
            )
            print(json.dumps({"passages_indexed": n}))
        elif args.cmd == "rag-search":
            from .pipelines.rag import search_passages

            res = search_passages(args.index, [args.query], k=args.k)
            print(res.to_string(index=False))
        elif args.cmd == "bm25-index":
            from .ops.search import bm25_index_new_partitions

            rep = bm25_index_new_partitions(
                args.src, args.index, id_col=args.id_col, text_col=args.text_col
            )
            print(json.dumps(rep))
        elif args.cmd == "bm25-search":
            from .ops.search import bm25_search_incremental

            res = bm25_search_incremental(args.index, args.query, k=args.k)
            print(res.to_string(index=False))
        elif args.cmd == "compact-state":
            from .ops.incremental import compact_bucket_state

            rep = compact_bucket_state(args.state_dir)
            print(
                json.dumps(
                    {
                        "buckets": int(len(rep)),
                        "files_before": int(rep["files_before"].sum()) if len(rep) else 0,
                        "files_after": int(rep["files_after"].sum()) if len(rep) else 0,
                        "rows": int(rep["n_rows"].sum()) if len(rep) else 0,
                    }
                )
            )
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
