"""CLI-job benchmark for dirspace: seeded streams of CLI configs through
``dirspace.cli.run`` and ``cli.serialize(report, "json")``, in process.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

One closed-loop client runs one job at a time in a fresh worker process
(worker.py), with BLAS and OpenMP pools of one thread (WORKER_ENV): on a
shared host a second thread waits on whichever core a neighbour holds.  The
worker warms up on tiny jobs, then repeats whole passes of the workload
(jobs.py) until --seconds have elapsed and at least worker.MIN_PASSES ran,
timing each job's wall time over cli.run + serialize.

Times are reported in seconds at reference speed (speed.py): each job's wall
time is scaled by how much slower or faster than reference a fixed
calibration kernel, run between jobs, ran within a second of that job.  This
takes out the minutes-long phases in which a shared VM runs everything
10-30 % slower; the unscaled wall times are in the detail line.

--trace 0 prints the end-to-end metrics:

    jobs_per_s    timed jobs over their summed time
    job_s.p50     median time per job, over all timed jobs
    job_s.p90     90th-percentile time per job (statistics.quantiles, n=10);
                  the detail line counts the jobs beyond it (at least 10)
    setup_s       median over SETUP_PROBES fresh interpreters of the time to
                  import dirspace.cli and finish the workload's smallest job,
                  scaled by the kernel run in the same interpreter after it
    peak_rss_mb   peak resident memory of the worker process
    fail_ratio    share of the pass's jobs that raised or failed check.py

--trace 1 runs the worker for --seconds/2 untraced and --seconds/2 with the
wrappers of tracer.py installed, and prints per-layer metrics per pass:
``<layer>.<function>.calls|total_s|self_s``, the work counts in
tracer.COUNTS, and ``trace.overhead_ratio`` (traced over untraced jobs/s).
Layer times are unscaled wall times.
A wrapper whose target no longer exists is skipped and its metrics are left
out.  Spans are written to .bench_out/<workload>-<seed>/spans.jsonl.

Every run dumps its jobs to .bench_out/<workload>-<seed>/jobs/ for replay
with ``dirspace <command> --config FILE``, and prints a JSON line with the
environment, job counts and check failures before the result line.

The result line counts each job of the pass once: ``attempted`` is the
number of jobs in a pass and ``failed`` the number that raised or failed the
checks against references (known defects included), so both depend on the
seed alone.  ``correct`` is false when a job raised, or its report changed
between passes.  Check results are cached in .bench_out/checked.json, keyed
by the check code, the job and its report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


#: BLAS and OpenMP pools of one thread in every worker (see the module doc),
#: and a fixed string-hash seed, so that one job list allocates alike in every run
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _worker(*args, timeout: float = WORKER_TIMEOUT_S) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT, env={**os.environ, **WORKER_ENV},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    nproc = os.cpu_count()
    l3 = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": has_numba,
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": int(WORKER_ENV["OPENBLAS_NUM_THREADS"]),
        "OPENBLAS_NUM_THREADS": WORKER_ENV["OPENBLAS_NUM_THREADS"],
        "l3_cache": l3,
        "bytes_computed": "computed from array sizes (iterations x 2 x rows x cols x itemsize), not measured bandwidth",
        "git_commit": commit,
    }


def check_reports(wl, out: dict, cache_path: Path) -> tuple[dict, list]:
    """Failures per job index (problems list) and structural problems.

    Check results are cached by (check code, job, report without its wall
    time), so a job whose report is unchanged is not checked again.
    """
    import check
    from dirspace import _rng

    def inputs(job):
        """The job's random inputs, drawn as cli.py draws them."""
        seed, stream = job.get("seed"), job.get("stream", 0)
        if job["command"] == "doublesum":
            def vector(i):
                length = 2 + int(_rng.uniforms(seed, stream + i, [0])[0] * (job.get("max_len", 512) - 1))
                return _rng.uniforms(seed ^ 0xA5A5, stream + i, list(range(length)))

            return vector
        if job["command"] == "random-sim":
            if job["dist"] != "rademacher":
                raise ValueError(f"no reference multipliers for {job['dist']!r}")
            return lambda r, count: _rng.rademacher(seed, stream + r, list(range(count)))
        return None

    failures = {}
    structural = []
    for key, error in out["errors"].items():
        failures[int(key)] = [f"raised {error}"]
        structural.append(f"job {key} raised {error}")
    for i in out["changed"]:
        structural.append(f"job {i}: report changed between passes")
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    version = hashlib.sha256((HERE / "check.py").read_bytes() + (HERE / "tolerances.json").read_bytes())
    for key, text in out["reports"].items():
        job = wl.jobs[int(key)]
        digest = version.copy()
        digest.update((json.dumps(job, sort_keys=True) + out["digests"][key]).encode())
        entry = digest.hexdigest()
        if entry not in cache:
            cache[entry] = check.check_job(job, json.loads(text), inputs(job))
        if cache[entry]:
            failures[int(key)] = cache[entry]
    tmp = cache_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache))
    tmp.replace(cache_path)
    return failures, structural


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dirspace" / "cli.py").is_file():
        return _fail(f"no dirspace source tree under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import jobs

    if args.workload not in jobs.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {jobs.WORKLOADS}")
    wl = jobs.generate(args.workload, args.seed)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"
    jobs.dump(wl, out_dir / "jobs")

    phase_s = {}
    started = time.perf_counter()
    try:
        if args.trace:
            out = _worker("trace", ROOT, args.workload, args.seed, args.seconds, out_dir / "spans.jsonl")
        else:
            setup = [_worker("setup", ROOT, json.dumps(wl.smallest), timeout=60) for _ in range(SETUP_PROBES)]
            phase_s["setup_probes"] = time.perf_counter() - started
            out = _worker("run", ROOT, args.workload, args.seed, args.seconds)
        phase_s["worker"] = time.perf_counter() - started - phase_s.get("setup_probes", 0.0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(str(exc))

    check_start = time.perf_counter()
    failures, structural = check_reports(wl, out, ROOT / ".bench_out" / "checked.json")
    phase_s["check"] = time.perf_counter() - check_start
    passes = len(out["scaled"])
    times = [t for p in out["scaled"] for t in p]  # seconds at reference speed
    walls = [t for p in out["wall"] for t in p]
    p90 = statistics.quantiles(times, n=10)[-1]
    jobs_per_s = len(times) / sum(times)
    if args.trace:
        plain = [t for p in out["plain_scaled"] for t in p]
        metrics = {"trace.overhead_ratio": {"value": jobs_per_s / (len(plain) / sum(plain)), "unit": "1"}}
        for name, st in out["layers"].items():
            for key, value in st.items():
                unit = "s" if key.endswith("_s") else ("B" if key.startswith("bytes") else "count")
                metrics[f"{name}.{key}"] = {"value": value / passes, "unit": unit}
    else:
        metrics = {
            "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
            "job_s.p50": {"value": statistics.median(times), "unit": "s"},
            "job_s.p90": {"value": p90, "unit": "s"},
            "setup_s": {"value": statistics.median(p["wall_s"] * p["factor"] for p in setup), "unit": "s"},
            "peak_rss_mb": {"value": out["maxrss_kb"] / 1024.0, "unit": "MB"},
            "fail_ratio": {"value": len(failures) / len(wl.jobs), "unit": "1"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "jobs_per_pass": len(wl.jobs),
        "passes": passes,
        "jobs_timed": len(times),
        "jobs_beyond_p90": sum(t > p90 for t in times),
        "unscaled_wall": {
            "jobs_per_s": len(walls) / sum(walls),
            "job_s.p50": statistics.median(walls),
            "job_s.p90": statistics.quantiles(walls, n=10)[-1],
            "setup_s": None if args.trace else statistics.median(p["wall_s"] for p in setup),
        },
        "speed_kernel_s": {"runs": len(out["kernel_s"]), "median": statistics.median(out["kernel_s"]),
                           "min": min(out["kernel_s"]), "max": max(out["kernel_s"])},
        "failures": {str(i): p for i, p in sorted(failures.items())},
        "structural": structural,
        "missing_layers": out.get("missing", []),
        "phase_s": phase_s,
        "setup_probes": None if args.trace else setup,
        "self_s_sum": out.get("self_s_sum"),
        "traced_wall_s": sum(walls) if args.trace else None,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not structural, "attempted": len(wl.jobs), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
