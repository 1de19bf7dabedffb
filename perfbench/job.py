"""One benchmark job, run in a fresh interpreter so every ksearch cache is cold.

``_cached_design`` (the learner's design cache) and ``_frontier`` are
process-wide ``lru_cache``s; a CLI user always starts with them empty, so
``run.py`` starts this file as a new process for every job::

    python3 perfbench/job.py --workload learn-daily --seed 3 --trace 0 \\
        --result .perfbench/job.json

The job imports ``ksearch.cli`` (from ``src/`` on ``PYTHONPATH``), runs the
workload's job once, and writes a JSON result: the job's time (raw and at
the reference speed of :mod:`hostspeed`), its design latencies, peak RSS,
operations attempted and failed, the output checks, and with ``--trace 1``
the per-layer numbers of :mod:`tracing`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time

import numpy as np

import ksearch.cli
from ksearch import augmented, core, instances, worstcase
from ksearch.core import PriceBounds, ProblemKind, SearchInstance
from ksearch.errors import KSearchError

# perfbench/ modules: the script's own directory is first on sys.path
from hostspeed import Sampler
from tracing import Tracer

OUT_DIR = ".perfbench"
# a guarantee holds when the ratio is within the library's 1e-9 ratio
# tolerance (check_design adds an ulp-scale cushion for summing k values)
RATIO_TOL = 1e-9
LAMBDA_GRID = tuple(i / 32 for i in range(33))

SWEEP_WINDOW, SWEEP_STRIDE, SWEEP_KS = 3024, 432, (5, 100)
LEARN_WINDOW, LEARN_STRIDE, LEARN_K = 288, 48, 10
# 1239 days of 10-minute samples (70% of the built-in 5-year feed): a job
# of ~15 s, so a run fits two, while the design cache still overflows its
# 65,536 entries (~80k misses) as it does on the full feed
LEARN_SAMPLES = 1239 * 144
# design latency is also sampled on the CLI workloads, at their own inputs;
# learn-daily's k=10 designs are cheap and their tail sits close to the
# median, so it takes more calls to pin that tail down
DESIGN_SAMPLE = {"sweep-canonical": 4000, "learn-daily": 8000}
SAMPLE_PASSES = 3
LEARN_ROWS_CHECKED = 16  # per kind


def cli_argv(workload: str, seed: int) -> list[str]:
    """The exact ksearch command line of a CLI workload (paths are relative)."""
    if workload == "sweep-canonical":
        return ["experiment", "--kind", "max", "--k", "5,100", "--rho", "0.0,0.2",
                "--error-level", "1.0", "--theta-mult", "1.0", "--seed", str(seed),
                "--output", f"{OUT_DIR}/sweep-canonical-s{seed}.csv"]
    return ["learn", "--kind", "both", "--k", str(LEARN_K), "--window", str(LEARN_WINDOW),
            "--stride", str(LEARN_STRIDE), "--seed", str(seed),
            "--input", feed_path(seed), "--output", f"{OUT_DIR}/learn-daily-s{seed}.csv"]


def feed_path(seed: int) -> str:
    return f"{OUT_DIR}/feed-s{seed}.csv"


def write_feed(seed: int) -> str:
    """The seed's synthetic series, LEARN_SAMPLES long, as a timestamp,price CSV."""
    series = instances.gen_synthetic_series(LEARN_SAMPLES, seed=seed)
    path = feed_path(seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,price\n")
        fh.writelines(f"{t},{p!r}\n" for t, p in zip(series.timestamps, series.prices))
    return path


def timed_design(sampler: Sampler, prediction, lam, bounds, k, kind):
    """One design call through the public module attribute (traced if wrapped).

    Returns (start, raw seconds, design or None, exception or None); the
    raw seconds exclude any reference kernel that interrupted the call.
    Any exception is caught here because the grid deliberately covers
    inputs where the library fails; each failure is classified by the caller.
    """
    spent = sampler.spent
    start = time.perf_counter()
    try:
        result, error = augmented.design(prediction, lam, bounds, k, kind), None
    except Exception as exc:  # noqa: BLE001  (untyped failures are measured)
        result, error = None, exc
    seconds = time.perf_counter() - start - (sampler.spent - spent)
    return start, seconds, result, error


def scaled(sampler: Sampler, starts: list[float], raw: list[float]) -> list[float]:
    """Raw call times at the reference speed of the kernel around each call."""
    return (np.asarray(raw) * sampler.local_scales(np.asarray(starts))).tolist()


def window_predictions(prices: np.ndarray, window: int, stride: int, kind: ProblemKind):
    """Look-back predictions of sliding_windows, recomputed with numpy."""
    pick = np.max if kind.is_max else np.min
    starts = range(window, len(prices) - window + 1, stride)
    return [float(pick(prices[s - window : s])) for s in starts]


# --------------------------------------------------------------------------
# design-grid


def grid_points():
    """kind x 16 theta x k x 11 lambda x 9 P, in the order failures are named."""
    points = []
    for kind in (ProblemKind.MAX, ProblemKind.MIN):
        for theta in np.logspace(0.25, 4.0, 16):
            bounds = PriceBounds(1.0, float(theta))
            preds = [min(max(float(p), 1.0), bounds.p_max)
                     for p in np.logspace(0.0, math.log10(bounds.p_max), 9)]
            for k in (1, 10, 100, 1000):
                for i in range(11):
                    for prediction in preds:
                        points.append((kind, bounds, k, i / 10, prediction))
    return points


def repro(kind, bounds, k, lam, prediction) -> str:
    return (f"ksearch thresholds --kind {kind.value} --pmin {bounds.p_min!r} "
            f"--pmax {bounds.p_max!r} --k {k} --lambda {lam!r} --prediction {prediction!r}")


def check_design(d, worst: np.ndarray) -> str | None:
    """Outside check of one successful design; returns a problem or None."""
    target = d.target
    ratio = float(augmented.interval_ratios(d.schedule).max())
    if ratio > target.gamma + RATIO_TOL + 1e-11 * target.gamma:
        return f"interval ratio {ratio!r} > gamma {target.gamma!r}"
    at_p = augmented.prediction_ratio(d.schedule, d.prediction)
    if at_p > target.eta + RATIO_TOL + 1e-11 * target.eta:
        return f"prediction ratio {at_p!r} > eta {target.eta!r}"
    if target.lam == 1.0:
        got = np.asarray(d.schedule.values)
        if got.shape != worst.shape or np.any(np.abs(got - worst) > RATIO_TOL * worst):
            return "lambda=1 schedule differs from worst_case_thresholds"
    return None


def run_design_grid(seed: int, tracer, sampler: Sampler) -> dict:
    points = grid_points()
    order = list(range(len(points)))
    random.Random(seed).shuffle(order)
    # references for the lambda=1 check; worst_case_thresholds shares no
    # cache with design, so computing them first warms nothing
    worst = {}
    for kind, bounds, k, _, _ in points:
        if (bounds, k, kind) not in worst:
            try:
                values = worstcase.worst_case_thresholds(bounds, k, kind).schedule.values
            except Exception:  # noqa: BLE001  (the same defect fails design too)
                values = ()
            worst[(bounds, k, kind)] = np.asarray(values)
    if tracer is not None:
        tracer.install()

    starts = [0.0] * len(points)
    raw = [0.0] * len(points)
    failures: list[tuple[int, type]] = []
    mismatches: list[str] = []
    lambda1 = exact_lambda1 = 0
    for idx in order:
        kind, bounds, k, lam, prediction = points[idx]
        starts[idx], raw[idx], result, exc = timed_design(
            sampler, prediction, lam, bounds, k, kind)
        sampler.tick()
        if exc is not None:
            failures.append((idx, type(exc)))  # not the exception: its frames hold memory
            continue
        # checked as it comes, so no schedule outlives its check
        ref = worst[(bounds, k, kind)]
        problem = check_design(result, ref)
        if problem is not None:
            mismatches.append(f"{problem}: {repro(*points[idx])}")
        if lam == 1.0:
            lambda1 += 1
            exact_lambda1 += bool(np.array_equal(np.asarray(result.schedule.values), ref))
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    latencies = scaled(sampler, starts, raw)

    # failure taxonomy; "first" is in grid order, not in the seeded call order
    classes: dict[str, dict] = {}
    for idx, cls in sorted(failures, key=lambda item: item[0]):
        typed = issubclass(cls, KSearchError)
        name = ("" if typed else "untyped:") + cls.__name__
        entry = classes.setdefault(name, {"typed": typed, "count": 0,
                                          "first": repro(*points[idx])})
        entry["count"] += 1
    return {
        # the calls only, not the checks between them
        "job_s": math.fsum(latencies),
        "job_raw_s": math.fsum(raw),
        "peak_rss_mb": rss,
        "design_latencies_s": latencies,
        "design_raw_p50_ms": float(np.median(raw)) * 1e3,
        "attempted": len(points),
        "op_failures": len(failures),
        "untyped_failures": sum(c["count"] for c in classes.values() if not c["typed"]),
        "failure_classes": classes,
        "mismatches": mismatches,
        "checks": {"successes_checked": len(points) - len(failures),
                   "lambda1_successes": lambda1, "lambda1_bit_identical": exact_lambda1},
    }


# --------------------------------------------------------------------------
# CLI workloads


def design_sample(workload: str, seed: int, prices: np.ndarray, sampler: Sampler):
    """Time the workload's DESIGN_SAMPLE design calls at its own inputs.

    The sweep samples its k=100 cells only: k=5 designs cost a third as
    much, and a median taken across two cost clusters jumps between them
    with the mix.  learn-daily alternates its two kinds, which cost alike.
    The points are timed in SAMPLE_PASSES passes and each keeps its median
    over the passes: a stall of the host lasts a few consecutive calls of
    one pass, and would otherwise land in a tail of a few dozen calls.
    Returns (scaled seconds per point, raw seconds per point, failures).
    """
    bounds = PriceBounds(float(prices.min()), float(prices.max()))
    if workload == "sweep-canonical":
        combos = [(ProblemKind.MAX, max(SWEEP_KS),
                   window_predictions(prices, SWEEP_WINDOW, SWEEP_STRIDE, ProblemKind.MAX))]
    else:
        combos = [(kind, LEARN_K, window_predictions(prices, LEARN_WINDOW, LEARN_STRIDE, kind))
                  for kind in (ProblemKind.MAX, ProblemKind.MIN)]
    rng = random.Random(seed)
    points = []
    for i in range(DESIGN_SAMPLE[workload]):
        kind, k, preds = combos[i % len(combos)]
        points.append((rng.choice(preds), rng.choice(LAMBDA_GRID), bounds, k, kind))
    passes = []
    for _ in range(SAMPLE_PASSES):
        calls = []
        for point in points:
            calls.append(timed_design(sampler, *point))
            sampler.tick()
        passes.append(calls)
    failures = sum(exc is not None for _, _, _, exc in passes[0])
    raw = np.array([[seconds for _, seconds, _, _ in calls] for calls in passes])
    scaled_passes = [scaled(sampler, [start for start, _, _, _ in calls], row)
                     for calls, row in zip(passes, raw)]
    return np.median(scaled_passes, axis=0).tolist(), np.median(raw, axis=0), failures


def read_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def check_sweep(path: str, prices: np.ndarray) -> list[str]:
    rows = read_rows(path)
    expected = len(range(SWEEP_WINDOW, len(prices) - SWEEP_WINDOW + 1, SWEEP_STRIDE))
    problems = []
    if len(rows) != 4 * 3:
        problems.append(f"sweep has {len(rows)} rows, expected 12")
    means = {}
    for rho, level, k, mult, algorithm, windows, mean, median, q1, q3 in rows:
        if int(windows) != expected:
            problems.append(f"cell rho={rho} k={k}: {windows} windows, expected {expected}")
        if not 1.0 - 1e-9 <= float(q1) <= float(median) <= float(q3):
            problems.append(f"cell rho={rho} k={k} {algorithm}: quartiles out of order")
        means[(rho, k, algorithm)] = float(mean)
    for (rho, k, algorithm), mean in means.items():
        if algorithm == "ota-hindsight" and mean > means[(rho, k, "ota-on")] * (1 + 1e-12):
            problems.append(f"cell rho={rho} k={k}: hindsight mean above worst-case mean")
    return problems


def check_learn(path: str, prices: np.ndarray, seed: int) -> tuple[list[str], int]:
    """Regret recurrence on every row; a seeded sample recomputed via run_ota."""
    rows = read_rows(path)
    bounds = PriceBounds(float(prices.min()), float(prices.max()))
    starts = range(LEARN_WINDOW, len(prices) - LEARN_WINDOW + 1, LEARN_STRIDE)
    problems = []
    rng = random.Random(seed)
    recomputed = 0
    for kind in (ProblemKind.MAX, ProblemKind.MIN):
        mine = [r for r in rows if r[0] == kind.value]
        if len(mine) != len(starts):
            problems.append(f"{kind.value}: {len(mine)} rounds, expected {len(starts)}")
            continue
        cum = 0.0
        for t, (_, rnd, lam, chosen, best, regret) in enumerate(mine, start=1):
            cum += float(chosen) - float(best)
            if int(rnd) != t or float(regret) != cum:
                problems.append(f"{kind.value} round {rnd}: regret recurrence broken")
                break
        for t in sorted(rng.sample(range(len(starts)), LEARN_ROWS_CHECKED)):
            start = starts[t]
            pick = max if kind.is_max else min
            prediction = float(pick(prices[start - LEARN_WINDOW : start]))
            inst = SearchInstance(tuple(prices[start : start + LEARN_WINDOW]), LEARN_K, bounds)
            lam = float(mine[t][2])
            schedule = augmented.design(prediction, lam, bounds, LEARN_K, kind).schedule
            total = core.run_ota(schedule, inst).total_value
            opt = core.offline_opt(inst, kind)
            ratio = opt / total if kind.is_max else total / opt
            recomputed += 1
            if abs(ratio - float(mine[t][3])) > 1e-9 * ratio:
                problems.append(f"{kind.value} round {t + 1}: chosen_ratio {mine[t][3]} "
                                f"but run_ota gives {ratio!r}")
    return problems, recomputed


def run_cli_workload(workload: str, seed: int, tracer, sampler: Sampler) -> dict:
    argv = cli_argv(workload, seed)
    if tracer is not None:
        tracer.install()
    crash = None
    spent = sampler.spent
    start = time.perf_counter()
    try:
        with sampler.interrupting():
            code = ksearch.cli.main(argv)
    except Exception as exc:  # noqa: BLE001  (a traceback is an untyped failure)
        code, crash = None, exc
    end = time.perf_counter()
    job_raw_s = end - start - (sampler.spent - spent)
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    samples = LEARN_SAMPLES if workload == "learn-daily" else instances.FIVE_YEAR_SAMPLES
    prices = np.asarray(instances.gen_synthetic_series(samples, seed=seed).prices)
    if workload == "sweep-canonical":
        windows = len(SWEEP_KS) * 2 * len(
            range(SWEEP_WINDOW, len(prices) - SWEEP_WINDOW + 1, SWEEP_STRIDE))
    else:
        windows = 2 * len(range(LEARN_WINDOW, len(prices) - LEARN_WINDOW + 1, LEARN_STRIDE))
    result = {"job_s": job_raw_s * sampler.mean_scale(start, end), "job_raw_s": job_raw_s,
              "peak_rss_mb": rss, "exit_code": code, "windows": windows,
              "attempted": 1, "op_failures": int(code != 0),
              "untyped_failures": int(crash is not None),
              "failure_classes": {}, "mismatches": [], "checks": {}}
    out_path = argv[-1]
    if code != 0:  # counted in op_failures; the checks below need the CSV
        result["error"] = (f"ksearch {' '.join(argv)} ended with "
                           f"{'exit code ' + str(code) if crash is None else repr(crash)}")
    else:
        with open(out_path, "rb") as fh:
            result["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        if workload == "sweep-canonical":
            result["mismatches"] += check_sweep(out_path, prices)
        else:
            problems, recomputed = check_learn(out_path, prices, seed)
            result["mismatches"] += problems
            result["checks"]["rows_recomputed"] = recomputed
    # a traced run samples under a tracer of its own, so that the overhead
    # on design latency shows while the job's spans and counters stay clean
    sample_tracer = None if tracer is None else Tracer(tracer.run_id + "-sample")
    if sample_tracer is not None:
        sample_tracer.install()
    latencies, raw, failures = design_sample(workload, seed, prices, sampler)
    if sample_tracer is not None:
        sample_tracer.uninstall()
    result["design_latencies_s"] = latencies
    result["design_raw_p50_ms"] = float(np.median(raw)) * 1e3
    result["attempted"] += len(raw)
    result["op_failures"] += failures
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-canonical", "learn-daily", "design-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-s{args.seed}-pid{os.getpid()}")
    with Sampler() as sampler:
        if args.workload == "design-grid":
            result = run_design_grid(args.seed, tracer, sampler)
        else:
            result = run_cli_workload(args.workload, args.seed, tracer, sampler)
    result["kernel_median_us"] = sampler.kernel_median_s() * 1e6
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        spans = f"{OUT_DIR}/spans-{args.workload}-s{args.seed}.npz"
        tracer.write(spans)
        result["spans"] = {"path": spans, "count": len(tracer.span_start)}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
