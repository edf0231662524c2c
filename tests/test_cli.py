"""The command line, run as a user runs it: ``python -m ocr_platform_ray``
in a subprocess whose working directory is outside the repository."""

import glob
import json
import os
import re
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_platform_ray.corpus import url_for

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = {"extract", "repartition", "redo", "probe", "gen-corpus", "status", "explain"}


def _cli(cwd, *args) -> subprocess.CompletedProcess:
    path = [REPO] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "ocr_platform_ray", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc


def _json(proc) -> dict:
    """The command's result: the last stdout line that is a JSON object."""
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no JSON line in {proc.stdout!r}")


class TestCli:
    def test_help_lists_the_job_commands(self, tmp_path):
        out = _cli(tmp_path, "--help").stdout
        choices = re.search(r"\{([a-z,-]+)\}", out)[1]
        assert set(choices.split(",")) == COMMANDS

    def test_extract_status_redo_status(self, tmp_path):
        """Url 3's first page moved to the last file: the url census sends
        it to the residual part, which ``status`` reports."""
        pages, out = str(tmp_path / "pages"), str(tmp_path / "out")
        r = _json(_cli(tmp_path, "gen-corpus", "--output", pages, "--urls", "40",
                       "--urls-per-shard", "10"))
        assert r == {"shards": 4, "urls": 40}
        files = sorted(glob.glob(os.path.join(pages, "*.parquet")))
        first, last = pq.read_table(files[0]), pq.read_table(files[-1])
        first_page = pc.index(first.column("url"), url_for(3)).as_py()
        pq.write_table(pa.concat_tables([last, first.slice(first_page, 1)]), files[-1])
        pq.write_table(
            pa.concat_tables([first.slice(0, first_page), first.slice(first_page + 1)]),
            files[0],
        )
        r = _json(_cli(tmp_path, "extract", "--input", pages, "--output", out,
                       "--fragments-per-part", "2"))
        assert r["parts"] == 3 and r["rows"] == 40
        residual = {"part_id": 2, "rows": 1, "inputs": [files[0], files[-1]]}
        r = _json(_cli(tmp_path, "status", "--output", out))
        assert r["committed_parts"] == 3 and r["rows"] == 40
        assert r["reassembly"] == {"aligned": 2, "residual": 1}
        assert r["residual_part"] == residual
        r = _json(_cli(tmp_path, "redo", "--input", pages, "--output", out,
                       "--url", url_for(25)))
        assert r["redone_parts"] == 1 and r["skipped"] == 2 and r["rows"] == 40
        r = _json(_cli(tmp_path, "status", "--output", out))
        assert r["committed_parts"] == 3 and r["rows"] == 40
        assert r["reassembly"] == {"aligned": 2, "residual": 1}
        assert r["residual_part"] == residual
        urls = [
            u
            for f in sorted(glob.glob(os.path.join(out, "part-*", "*.parquet")))
            for u in pq.read_table(f, columns=["url"]).column("url").to_pylist()
        ]
        assert sorted(urls) == sorted(url_for(i) for i in range(40))
