"""ksearch benchmark: one workload, one seed, every metric by name and unit.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-canonical --seed 7 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``sweep-canonical``  ``ksearch experiment`` over 4 cells of the 5-year feed
- ``learn-daily``      ``ksearch learn --kind both`` on a 288-sample window feed
- ``design-grid``      12,672 individually timed library ``design`` calls

Every job runs in a fresh interpreter (``perfbench/job.py``), because the
library's design and frontier caches are process-wide and a CLI user always
starts them cold.  With ``--trace 0`` the job is repeated about
``--seconds`` worth of times (``REPEAT_BUDGET_S``) and the metrics are
medians over the repeats (per call, for design latency); job and design
times are scaled to one reference speed of the host (``hostspeed.py``).
Set-up time is the raw median of ``SETUP_PROBES`` fresh interpreters
importing ``ksearch.cli``, spread between the repeats.  With
``--trace 1`` one untraced and one traced job run, and the per-layer
numbers come from the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The full result, with provenance, is also written
to ``.perfbench/result-<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
WORKLOADS = ("sweep-canonical", "learn-daily", "design-grid")
SETUP_PROBES = 9
# Run time budgeted for one repeat of a job, with its share of set-up
# probes and checks: a run makes round(--seconds / budget) repeats, so the
# count follows from --seconds alone, not from how fast the program
# happens to be.  At --seconds 40 that is 2, 2 and 3 repeats, 25-45 s.
REPEAT_BUDGET_S = {"sweep-canonical": 20.0, "learn-daily": 18.0, "design-grid": 12.0}
MAX_REPEATS = 5
# main() kills every child once the run has taken this long, so the run
# ends within three minutes even if the program hangs
RUN_BUDGET_S = 170.0
_deadline: float | None = None


def remaining_s() -> float | None:
    """Timeout for the next child: what is left of the run's budget."""
    return None if _deadline is None else max(1.0, _deadline - time.monotonic())


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def setup_probe(env: dict) -> float:
    """Seconds from spawning an interpreter until ``ksearch.cli`` is imported.

    The child prints CLOCK_MONOTONIC right after the import; that clock is
    system-wide, so it compares with the parent's reading taken at spawn.
    Unlike the jobs, this time is not scaled by the reference kernel: timed
    in a fresh process, the kernel varies with the core the process lands
    on more than the import does (scaling raised the spread of the probes).
    """
    code = "import ksearch.cli, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=remaining_s(), check=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


def run_job(workload: str, seed: int, trace: int, env: dict) -> dict:
    """Run perfbench/job.py in a fresh interpreter and return its result."""
    result_path = os.path.join(OUT_DIR, f"job-{workload}-s{seed}-t{trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--result", result_path]
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining_s())
    wall = time.perf_counter() - start
    if done.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"job {workload} seed {seed} trace {trace} "
                           f"exited {done.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["wall_s"] = wall
    return result


def source_digest() -> str:
    """SHA-256 over src/ (the checkout the benchmark runs in is not a git repo)."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance() -> dict:
    commit = None
    if os.path.isdir(".git"):  # a bare checkout may sit inside another repository
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=remaining_s())
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_jobs(workload: str, seed: int, jobs: list[dict]) -> dict:
    """Fold every job's operations, failures and output checks together."""
    expected = recorded_digest(workload, seed)
    mismatches = [m for job in jobs for m in job["mismatches"]]
    if workload != "design-grid":
        for job in jobs:
            if expected is not None and "sha256" in job and job["sha256"] != expected:
                mismatches.append(f"CSV sha256 {job['sha256']} != recorded {expected}")
    attempted = sum(job["attempted"] for job in jobs)
    op_failures = sum(job["op_failures"] for job in jobs)
    failed = op_failures + len(mismatches)
    return {
        "correct": not mismatches and all(job.get("exit_code", 0) == 0 for job in jobs),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "untyped_fail_share": (sum(job["untyped_failures"] for job in jobs) / failed
                               if failed else 0.0),
        "mismatches": mismatches,
        "digest": ("n/a" if workload == "design-grid" else
                   "unrecorded" if expected is None else "checked"),
    }


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def design_latency(jobs: list[dict]) -> dict:
    """p50 and tail over design calls, each call at its median over the jobs.

    Every job times the same calls in the same order.
    """
    per_call = np.median([job["design_latencies_s"] for job in jobs], axis=0) * 1e3
    q = tail_percentile(len(per_call))
    return {"p50_ms": float(np.percentile(per_call, 50)),
            "tail_ms": float(np.percentile(per_call, q)),
            "tail_percentile": q, "samples": len(per_call)}


def end_to_end(setup: list[float], jobs: list[dict]) -> dict:
    """The BENCHMARK.json end-to-end metrics over a run's repeats.

    Job and design times are at the reference speed of hostspeed.py; raw
    ones are in the report and the result file.
    """
    design = design_latency(jobs)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "job_s": {"value": statistics.median(job["job_s"] for job in jobs), "unit": "s"},
        "design_p50_ms": {"value": design["p50_ms"], "unit": "ms"},
        "design_tail_ms": {"value": design["tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(j["peak_rss_mb"] for j in jobs),
                        "unit": "MB"},
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    units = {"_calls": "count", "_failures": "count", "_s": "s", "_ratio": "ratio",
             "_bytes_computed": "B", "_per_window": "count", ".windows": "count"}
    metrics = {}
    for name, value in traced["layers"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = {"value": value, "unit": unit}
    base, with_spans = untraced["job_s"], traced["job_s"]
    metrics["trace.job_s_untraced"] = {"value": base, "unit": "s"}
    metrics["trace.job_s_traced"] = {"value": with_spans, "unit": "s"}
    metrics["trace.job_overhead_share"] = {"value": with_spans / base - 1.0, "unit": "ratio"}
    p50 = design_latency([untraced])["p50_ms"]
    traced_p50 = design_latency([traced])["p50_ms"]
    metrics["trace.design_p50_overhead_share"] = {"value": traced_p50 / p50 - 1.0,
                                                  "unit": "ratio"}
    return metrics


def report(workload: str, seed: int, result: dict) -> None:
    """Readable lines: the seven end-to-end metrics (README), checks, provenance."""
    prov, checks = result["provenance"], result["checks"]
    print(f"perfbench {workload} seed={seed} trace={result['trace']} "
          f"commit={prov['commit'] or 'n/a'} src={prov['source_sha256'][:12]} "
          f"python={prov['python']} numpy={prov['numpy']} nproc={prov['nproc']} "
          f"cpu={prov['cpu_model']!r}")
    load = result["load"]
    print(f"  load before={load['before']} after={load['after']}"
          + ("  WARNING: run started with load >= nproc" if load["loaded_at_start"] else ""))
    if "summary" in result:
        kernel_us = statistics.median(job["kernel_median_us"] for job in result["jobs"])
        print(f"  {'metric':<20} {'ref speed':>12} {'raw':>12}   (reference kernel "
              f"{kernel_us:.1f} us here, {hostspeed.KERNEL_REF_S * 1e6:.1f} us at ref speed)")
        for name, value, raw, unit in result["summary"]:
            shown = "n/a" if value is None else f"{value:.6g}"
            shown_raw = "" if raw is None else f"{raw:.6g}"
            print(f"  {name:<20} {shown:>12} {shown_raw:>12}   {unit}")
    for name, entry in result.get("failure_classes", {}).items():
        print(f"  failure {name}: {entry['count']} (first: {entry['first']})")
    print(f"  checks: digest={checks['digest']} mismatches={len(checks['mismatches'])} "
          f"{json.dumps(result.get('extra_checks', {}))}")
    for line in checks["mismatches"][:10]:
        print(f"  MISMATCH {line}")
    for job in result["jobs"]:
        if "error" in job:
            print(f"  ERROR {job['error']}")


def main() -> int:
    parser = argparse.ArgumentParser(description="ksearch benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join("src", "ksearch", "cli.py")):
        return fail("src/ksearch not found: run from the root of a ksearch checkout")
    if not 0 <= args.seed < 1 << 64:
        return fail("--seed must be an unsigned 64-bit integer")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    load_before = os.getloadavg()
    prov = provenance()

    feed = None
    if args.workload == "learn-daily":
        # the feed is written before anything is timed; job.py owns its format
        sys.path[:0] = ["src", HERE]
        import job

        feed = job.write_feed(args.seed)

    setup, jobs, metrics = [], [], {}
    try:
        if args.trace:
            untraced = run_job(args.workload, args.seed, 0, env)
            traced = run_job(args.workload, args.seed, 1, env)
            jobs = [untraced, traced]
            metrics = per_layer(untraced, traced)
        else:
            repeats = min(MAX_REPEATS,
                          max(1, round(args.seconds / REPEAT_BUDGET_S[args.workload])))
            setup_probe(env)  # untimed: compiles bytecode on a fresh checkout
            # probes are spread over the run, so that their median does not
            # rest on one stretch of the host's speed
            for repeat in range(repeats):
                share = range(repeat * SETUP_PROBES // repeats,
                              (repeat + 1) * SETUP_PROBES // repeats)
                setup += [setup_probe(env) for _ in share]
                jobs.append(run_job(args.workload, args.seed, 0, env))
            metrics = end_to_end(setup, jobs)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        if feed is not None:
            os.remove(feed)  # 7 MB per seed; rewritten by the next run

    checks = check_jobs(args.workload, args.seed, jobs)
    load_after = os.getloadavg()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": prov,
        "load": {"before": [round(x, 2) for x in load_before],
                 "after": [round(x, 2) for x in load_after],
                 "loaded_at_start": load_before[0] >= (prov["nproc"] or 1)},
        "repeats": len(jobs), "setup_probes_s": setup, "jobs": jobs,
        "checks": checks, "failure_classes": jobs[0]["failure_classes"],
        "extra_checks": jobs[0]["checks"], "metrics": metrics,
    }
    if not args.trace:
        windows = jobs[0].get("windows")
        job_s = metrics["job_s"]["value"]
        design = design_latency(jobs)
        raw_job_s = statistics.median(job["job_raw_s"] for job in jobs)
        # (name, at reference speed, raw, unit); the last three are not times
        result["summary"] = [
            ("setup_s", metrics["setup_s"]["value"], metrics["setup_s"]["value"], "s"),
            ("job_s", job_s, raw_job_s, "s"),
            ("windows_per_s", windows / job_s if windows else None,
             windows / raw_job_s if windows else None, "1/s"),
            ("design_p50_ms", metrics["design_p50_ms"]["value"],
             statistics.median(job["design_raw_p50_ms"] for job in jobs),
             f"ms (of {design['samples']} calls)"),
            ("design_tail_ms", metrics["design_tail_ms"]["value"], None,
             f"ms (p{design['tail_percentile']} of {design['samples']} calls)"),
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], None, "MB"),
            ("fail_share", checks["fail_share"], None, "share"),
            ("untyped_fail_share", checks["untyped_fail_share"], None, "share of failures"),
        ]
    for job in jobs:  # per-call latencies are summarised above
        job.pop("design_latencies_s")
    path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(args.workload, args.seed, result)
    print(json.dumps({"correct": checks["correct"], "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
