"""The north rule's literal criterion: the same job at two parallelism
levels in FRESH processes produces byte-identical output."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

# the checkout under test, put on the child driver's sys.path (its Ray
# workers must not need it)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(ncpu: int, corpus: str) -> str:
    code = textwrap.dedent(f"""
        import ray, hashlib, json, sys
        ray.init(address="local", num_cpus={ncpu}, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        sys.path.insert(0, {ROOT!r})
        import ray.data as rd
        from ocr_platform_ray.pipelines.extraction import extraction_pipeline
        ds = rd.read_parquet("{corpus}")
        df = extraction_pipeline(ds).to_pandas()
        h = {{r.url: hashlib.sha256(r.extracted_text.encode()).hexdigest()
             for r in df.itertuples()}}
        digest = hashlib.sha256(
            "".join(v for _, v in sorted(h.items())).encode()).hexdigest()
        print(json.dumps({{"digest": digest, "n": len(h)}}))
        ray.shutdown()
    """)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd="/tmp"
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_two_process_two_parallelism_byte_identity(tmp_path, ray_session):
    from ocr_platform_ray.corpus import write_pages_parquet

    corpus = str(tmp_path / "pages")
    write_pages_parquet(corpus, 30, urls_per_shard=10)
    a = _run(2, corpus)
    b = _run(6, corpus)
    assert a["n"] == b["n"] == 30
    assert a["digest"] == b["digest"]


def test_foreign_cwd_worker_imports(ray_session):
    """Regression: worker-executed closures (incl. the encrypted-PDF
    corpus builders) must not need the package importable from the
    worker's cwd — lazy relative imports inside their bodies break
    pickle-by-value workers when the driver runs from a foreign cwd."""
    code = textwrap.dedent("""
        import ray, json, sys
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        sys.path.insert(0, REPO_ROOT)
        from ocr_platform_ray.pipelines.queries import (
            q_extract_pdf_docs, q_rasterize_pdf_pages,
        )
        a = q_extract_pdf_docs("/root/testdata/sf0.001")
        b = q_rasterize_pdf_pages("/root/testdata/sf0.001")
        print(json.dumps({"pdf_rows": len(a),
                          "pdf_failed": int(a["n_failed_pages"].sum()),
                          "raster_rows": len(b)}))
        ray.shutdown()
    """).replace("REPO_ROOT", repr(ROOT))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd="/tmp"
    ).stdout
    res = json.loads(out.strip().splitlines()[-1])
    assert res["pdf_rows"] == 40 and res["pdf_failed"] == 0
    assert res["raster_rows"] == 16
