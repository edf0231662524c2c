"""Benchmark of the shipped extraction job, ``run_extraction``.

    python3 perfbench/run.py --workload html_aligned --seed 1 --seconds 20 --trace 0

Builds (or reuses) the workload's seeded input and reference, sets Ray
up, runs the job repeatedly for ``--seconds`` and checks every output
against the reference.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
line before it carries host context: the burn-loop timings, the set-up
cycles and, per repetition, the wall, the process-tree CPU seconds and
the hypervisor steal.  See NOTES.md.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, ROOT]

from inputs import WORKLOADS, prepare  # noqa: E402

WORK_DIR = os.path.join(BENCH_DIR, ".work")
RAY_DIR = os.path.join(BENCH_DIR, ".ray")
OBJECT_STORE_BYTES = 512 * 1024**2
SETUP_CYCLES = 3
MIN_REPS = 3
# Ray puts unix sockets under its temp dir; AF_UNIX paths stop at 107
# bytes and the session part adds ~65, so a deep checkout keeps Ray's
# default temp dir
MAX_RAY_DIR_LEN = 40


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS when set, else the
    CPUs this process may run on."""
    return int(os.environ.get("OMP_NUM_THREADS") or 0) or len(os.sched_getaffinity(0))


def host_burn_s() -> float:
    """A fixed pure-Python loop, timed: host speed context."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i & 7
    return time.perf_counter() - t0


def ray_init() -> None:
    import ray
    from ray.data import DataContext

    kwargs = {}
    if len(RAY_DIR) <= MAX_RAY_DIR_LEN:
        kwargs["_temp_dir"] = RAY_DIR
    ray.init(
        address="local",
        num_cpus=nproc(),
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def set_up(workload, pages_dir: str) -> list[float]:
    """Start Ray and warm it with the job over one fragment, several
    times; Ray stays up after the last cycle.  Returns each cycle's time."""
    import ray

    from layers import run_job

    warm_in = os.path.join(WORK_DIR, "warm-in")
    os.makedirs(warm_in)
    first = sorted(f for f in os.listdir(pages_dir) if f.endswith(".parquet"))[0]
    shutil.copy(os.path.join(pages_dir, first), warm_in)
    cycles = []
    for i in range(SETUP_CYCLES):
        if i:
            ray.shutdown()
        t0 = time.perf_counter()
        ray_init()
        run_job(workload, warm_in, os.path.join(WORK_DIR, f"warm-out-{i}"))
        cycles.append(time.perf_counter() - t0)
    return cycles


def timed_runs(workload, pages_dir: str, seconds: float):
    """Run the job until ``seconds`` have passed.  Returns the walls, the
    output directories and, as host context, the hypervisor steal seen
    during each repetition."""
    from layers import run_job
    from procstat import host_steal_s, tree_cpu_s

    walls, cpus, steals, outs = [], [], [], []
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < t_end:
        out = os.path.join(WORK_DIR, f"rep-{len(walls)}")
        s0, c0 = host_steal_s(), tree_cpu_s()
        t0 = time.perf_counter()
        run_job(workload, pages_dir, out)
        walls.append(time.perf_counter() - t0)
        cpus.append(tree_cpu_s() - c0)
        steals.append(host_steal_s() - s0)
        outs.append(out)
    return walls, outs, {"walls_s": walls, "cpu_s": cpus, "steal_s": steals}


def traced_runs(workload, pages_dir: str, seed: int, seconds: float):
    """Every per-layer metric: the extraction layers traced for
    ``seconds``, then one pass of the query slice."""
    import layers
    import queryslice

    udf = layers.udf_layers(pages_dir, seed)
    passes, outs, problems = [], [], []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        out = os.path.join(WORK_DIR, f"trace-{len(passes)}")
        m, resume = layers.ray_pass(workload, pages_dir, out)
        if resume.get("skipped") != resume.get("parts"):
            problems.append(f"{out}: resume redid {resume['parts'] - resume['skipped']} parts")
        passes.append(m)
        outs.append(out)
    metrics = layers.combine(udf, passes, nproc())

    sf_dir, near_pairs = queryslice.prepare()
    secs, results = queryslice.run_pass(sf_dir)
    metrics.update({f"query.{name}_s": (s, "s") for name, s in secs.items()})
    problems += queryslice.check_results(results, sf_dir, near_pairs)
    return metrics, outs, problems, len(results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "ocr_platform_ray", "__init__.py")):
        print(f"no ocr_platform_ray package under {ROOT}", file=sys.stderr)
        return 2

    import ray
    import ray.data  # noqa: F401

    import ocr_platform_ray.pipelines.extraction  # noqa: F401

    from checks import check_docs, read_docs
    from procstat import descendants, wait_gone, worker_peak_rss_mb

    import_s = time.monotonic() - T_START
    workload = WORKLOADS[args.workload]
    burn_start = host_burn_s()
    pages_dir, ref = prepare(workload, args.seed)

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    shutil.rmtree(RAY_DIR, ignore_errors=True)
    context, problems, queries_checked = {}, [], 0
    try:
        cycles = set_up(workload, pages_dir)
        if args.trace:
            metrics, outs, problems, queries_checked = traced_runs(
                workload, pages_dir, args.seed, args.seconds
            )
        else:
            walls, outs, context = timed_runs(workload, pages_dir, args.seconds)
            metrics = {
                "wall_s": (min(walls), "s"),
                "setup_s": (import_s + statistics.median(cycles), "s"),
                "peak_rss_mb": (worker_peak_rss_mb(), "MB"),
            }
    finally:
        wait_gone(descendants(), stop=ray.shutdown)

    for out in outs:
        problems += check_docs(read_docs(out), ref)
    burn_end = host_burn_s()
    if args.trace:
        metrics["host.burn_s"] = ((burn_start + burn_end) / 2, "s")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    shutil.rmtree(RAY_DIR, ignore_errors=True)

    context.update(
        workload=args.workload,
        seed=args.seed,
        num_cpus=nproc(),
        import_s=import_s,
        setup_cycles_s=cycles,
        host_burn_s=[burn_start, burn_end],
        problems=problems[:20],
    )
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(ref["digests"]) * len(outs) + queries_checked,
                "failed": len(problems),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
