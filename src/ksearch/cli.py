"""The ``ksearch`` command line: curves, schedules, simulations, and sweeps.

Subcommands
-----------

- ``pareto``      consistency-robustness frontier as (lambda, gamma, eta) rows
- ``thresholds``  one designed schedule with per-index segment labels
- ``simulate``    three policies replayed over a windowed price feed
- ``experiment``  stress sweep over rho / error level / k / theta multiplier
- ``learn``       the confidence learner's round-by-round regret history

Every output is CSV with a leading comment line recording the tool version,
the command line, and the seed, so a result file is reproducible from its
own header.  Outputs are byte-identical for identical (flags, seed, inputs),
regardless of worker count.

Exit codes: 0 success, 2 invalid flags or parameters, 3 input-data problems,
4 failed internal verification of a designed schedule (indicates a bug, not
a usage error).
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from dataclasses import dataclass

from . import __version__
from .augmented import design, interval_ratios
from .core import PriceBounds, ProblemKind
from .errors import ConstructionError, KSearchError
from .harness import (
    ALGORITHMS,
    build_cells,
    evaluate_windows,
    run_sweep,
    stress_windows,
    summarize,
)
from .instances import (
    STRIDE_SAMPLES,
    WINDOW_SAMPLES,
    PriceSeries,
    gen_synthetic_series,
    ingest_csv,
    sliding_windows,
)
from .learner import DEFAULT_GRID_SIZE, run_learning
from .pareto import FrontierSpec, frontier_curve
from .worstcase import worst_case_thresholds

_COMMANDS = ("pareto", "thresholds", "simulate", "experiment", "learn")


@dataclass(frozen=True)
class CliConfig:
    """Validated parameters of one invocation."""

    command: str
    kind: ProblemKind | None  # None = run both kinds (learn only)
    bounds: PriceBounds
    k: int
    k_list: tuple[int, ...]
    lam: float
    prediction: float | None
    input_path: str | None
    output_path: str | None
    seed: int
    rhos: tuple[float, ...]
    error_levels: tuple[float, ...]
    theta_mults: tuple[float, ...]
    points: int
    workers: int
    window_len: int
    stride: int
    argv: tuple[str, ...]


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _add_common(parser: argparse.ArgumentParser, kinds=("max", "min")) -> None:
    parser.add_argument("--kind", choices=kinds, default=kinds[0],
                        help="search direction (default: %(default)s)")
    parser.add_argument("--pmin", type=float, default=5.0,
                        help="lower price bound (default: %(default)s)")
    parser.add_argument("--pmax", type=float, default=50.0,
                        help="upper price bound (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="seed for every random draw (default: %(default)s)")
    parser.add_argument("--output", metavar="CSV", default=None,
                        help="output path (default: stdout)")


def _add_feed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", metavar="CSV", default=None,
                        help="price feed with a 'price' column and optional "
                             "'timestamp'; omitted = seeded synthetic feed")
    parser.add_argument("--window", type=int, default=WINDOW_SAMPLES,
                        metavar="N", help="samples per trading window "
                        "(default: %(default)s = three weeks at 10 minutes)")
    parser.add_argument("--stride", type=int, default=STRIDE_SAMPLES,
                        metavar="N", help="samples between window starts "
                        "(default: %(default)s = three days)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksearch",
        description="Threshold algorithms for online k-max / k-min search.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pareto", help="emit the consistency-robustness frontier")
    _add_common(p)
    p.add_argument("--k", type=int, default=100, help="budget (default: %(default)s)")
    p.add_argument("--points", type=int, default=101,
                   help="number of confidence grid points (default: %(default)s)")

    p = sub.add_parser("thresholds", help="emit one designed threshold schedule")
    _add_common(p)
    p.add_argument("--k", type=int, default=100, help="budget (default: %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="confidence in the worst-case fallback, 0..1 "
                        "(default: %(default)s)")
    p.add_argument("--prediction", type=float, required=True,
                   help="predicted extreme price within the bounds")

    p = sub.add_parser("simulate", help="replay three policies over a price feed")
    _add_common(p)
    _add_feed(p)
    p.add_argument("--k", type=int, default=100, help="budget (default: %(default)s)")
    p.add_argument("--error-level", dest="error_levels", type=_float_list,
                   default=(1.0,), metavar="L1,L2,...",
                   help="prediction error levels in [0,1]; 0 = perfect, "
                        "1 = raw look-back (default: 1.0)")

    p = sub.add_parser("experiment", help="stress sweep over a parameter grid")
    _add_common(p)
    _add_feed(p)
    p.add_argument("--k", dest="k_list", type=_int_list, default=(100,),
                   metavar="K1,K2,...", help="budgets to sweep (default: 100)")
    p.add_argument("--rho", dest="rhos", type=_float_list, default=(0.0,),
                   metavar="R1,R2,...",
                   help="tail-hardening probabilities in [0,1] (default: 0.0)")
    p.add_argument("--error-level", dest="error_levels", type=_float_list,
                   default=(1.0,), metavar="L1,L2,...",
                   help="prediction error levels in [0,1] (default: 1.0)")
    p.add_argument("--theta-mult", dest="theta_mults", type=_float_list,
                   default=(1.0,), metavar="M1,M2,...",
                   help="fluctuation-ratio multipliers >= 1 (default: 1.0)")
    p.add_argument("--workers", type=int, default=1,
                   help="process count for sweep cells (default: %(default)s)")

    p = sub.add_parser("learn", help="run the confidence learner over a feed")
    _add_common(p, kinds=("both", "max", "min"))
    _add_feed(p)
    p.add_argument("--k", type=int, default=100, help="budget (default: %(default)s)")

    return parser


def _config_from_args(args: argparse.Namespace, argv) -> CliConfig:
    bounds = PriceBounds(args.pmin, args.pmax)  # validates 0 < pmin <= pmax
    if not 0 <= args.seed < 1 << 64:
        raise KSearchError(f"seed must be an unsigned 64-bit integer, got {args.seed}")

    kind = None if getattr(args, "kind", "max") == "both" else ProblemKind(args.kind)
    k_list = tuple(getattr(args, "k_list", ()) or ())
    k = getattr(args, "k", 0) or (k_list[0] if k_list else 0)
    for budget in (k, *k_list):
        if not budget >= 1:
            raise KSearchError(f"budget k must be a positive integer, got {budget}")

    lam = getattr(args, "lam", 1.0)
    if not 0.0 <= lam <= 1.0:
        raise KSearchError(f"--lambda must lie in [0, 1], got {lam}")
    prediction = getattr(args, "prediction", None)
    if prediction is not None and not bounds.contains(prediction):
        raise KSearchError(
            f"--prediction {prediction} outside bounds [{bounds.p_min}, {bounds.p_max}]"
        )

    points = getattr(args, "points", 2)
    if points < 2:
        raise KSearchError(f"--points must be at least 2, got {points}")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise KSearchError(f"--workers must be positive, got {workers}")
    window_len = getattr(args, "window", WINDOW_SAMPLES)
    stride = getattr(args, "stride", STRIDE_SAMPLES)
    for name, val in (("--window", window_len), ("--stride", stride)):
        if val < 1:
            raise KSearchError(f"{name} must be positive, got {val}")
    if hasattr(args, "window"):
        for budget in (k, *k_list):
            if budget > window_len:
                raise KSearchError(
                    f"budget k={budget} exceeds the {window_len} samples of --window"
                )

    rhos = tuple(getattr(args, "rhos", (0.0,)))
    error_levels = tuple(getattr(args, "error_levels", (1.0,)))
    theta_mults = tuple(getattr(args, "theta_mults", (1.0,)))
    for name, vals, lo, hi in (
        ("--rho", rhos, 0.0, 1.0),
        ("--error-level", error_levels, 0.0, 1.0),
        ("--theta-mult", theta_mults, 1.0, float("inf")),
    ):
        if not vals:
            raise KSearchError(f"{name} needs at least one value")
        for v in vals:
            if not lo <= v <= hi:
                raise KSearchError(f"{name} values must lie in [{lo}, {hi}], got {v}")

    input_path = getattr(args, "input", None)
    if input_path is not None and not os.path.isfile(input_path):
        raise KSearchError(f"--input file not found: {input_path}")

    return CliConfig(
        command=args.command,
        kind=kind,
        bounds=bounds,
        k=k,
        k_list=k_list or (k,),
        lam=lam,
        prediction=prediction,
        input_path=input_path,
        output_path=args.output,
        seed=args.seed,
        rhos=rhos,
        error_levels=error_levels,
        theta_mults=theta_mults,
        points=points,
        workers=workers,
        window_len=window_len,
        stride=stride,
        argv=tuple(argv),
    )


# --------------------------------------------------------------------------
# output plumbing


def _stamp(cfg: CliConfig) -> str:
    # --workers never affects the rows, so it is excluded from the stamp to
    # keep outputs byte-identical across worker counts
    argv = list(cfg.argv)
    if "--workers" in argv:
        at = argv.index("--workers")
        del argv[at : at + 2]
    argv = [arg for arg in argv if not arg.startswith("--workers=")]
    command_line = shlex.join(["ksearch", *argv])
    return f"ksearch {__version__} | command: {command_line} | seed: {cfg.seed}"


def _write_csv(cfg: CliConfig, comments, header, rows) -> None:
    lines = [f"# {line}" for line in (_stamp(cfg), *comments)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if cell is None else repr(cell)
                              if isinstance(cell, float) else str(cell)
                              for cell in row))
    text = "\n".join(lines) + "\n"
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_series(cfg: CliConfig) -> tuple[PriceSeries, str]:
    if cfg.input_path is not None:
        return ingest_csv(cfg.input_path), cfg.input_path
    return (
        gen_synthetic_series(seed=cfg.seed, bounds=cfg.bounds),
        f"synthetic(seed={cfg.seed})",
    )


# --------------------------------------------------------------------------
# subcommands


def cmd_pareto(cfg: CliConfig) -> int:
    spec = FrontierSpec(cfg.bounds, cfg.k, cfg.kind)
    curve = frontier_curve(spec, cfg.points)
    comments = [
        f"kind={cfg.kind.value} pmin={cfg.bounds.p_min!r} pmax={cfg.bounds.p_max!r} "
        f"k={cfg.k} theta={spec.theta!r} cr_star={spec.cr_star!r}",
    ]
    rows = [(pt.lam, pt.gamma, pt.eta) for pt in curve]
    _write_csv(cfg, comments, ("lambda", "gamma", "eta"), rows)
    return 0


def cmd_thresholds(cfg: CliConfig) -> int:
    result = design(cfg.prediction, cfg.lam, cfg.bounds, cfg.k, cfg.kind)
    solution = worst_case_thresholds(cfg.bounds, cfg.k, cfg.kind)
    max_ratio = float(max(interval_ratios(result.schedule)))
    equivalent = max_ratio <= solution.cr + 1e-6
    comments = [
        f"kind={cfg.kind.value} pmin={cfg.bounds.p_min!r} pmax={cfg.bounds.p_max!r} "
        f"k={cfg.k} lambda={cfg.lam!r} prediction={result.prediction!r}",
        f"case={result.case_label} j_star={result.j_star} m_star={result.m_star} "
        f"i_star={result.i_star} sigma_star={result.sigma_star} "
        f"p_tilde_1={result.p_tilde_1!r} p_tilde_2={result.p_tilde_2!r}",
        f"eta={result.target.eta!r} gamma={result.target.gamma!r}",
        f"max_interval_ratio={max_ratio!r} cr_star={solution.cr!r} "
        f"worst_case_equivalent={'true' if equivalent else 'false'}",
    ]
    labels = result.segment_labels()
    rows = [
        (index, value, label)
        for index, (value, label) in enumerate(
            zip(result.schedule.values, labels), start=1
        )
    ]
    _write_csv(cfg, comments, ("index", "value", "segment"), rows)
    return 0


def _grid_comment() -> str:
    return (
        f"lambda_grid: {DEFAULT_GRID_SIZE} uniform points on [0,1]; "
        f"regret_baseline: best fixed grid confidence at horizon"
    )


def cmd_simulate(cfg: CliConfig) -> int:
    series, source = _load_series(cfg)
    windows = sliding_windows(series, cfg.window_len, cfg.stride, cfg.k, cfg.kind)
    bounds = windows[0].instance.bounds
    comments = [
        f"kind={cfg.kind.value} k={cfg.k} window={cfg.window_len} "
        f"stride={cfg.stride} windows={len(windows)} source={source}",
        f"bounds=[{bounds.p_min!r},{bounds.p_max!r}] "
        f"error_levels={','.join(repr(v) for v in cfg.error_levels)}",
        _grid_comment(),
    ]
    rows = []
    for level in cfg.error_levels:
        stressed = stress_windows(windows, cfg.kind, 0.0, level, cfg.seed)
        results = evaluate_windows(stressed, cfg.kind, bounds, cfg.k, cfg.seed)
        for algorithm in ALGORITHMS:
            for res in results:
                rows.append((
                    "ratio", level, res.index, algorithm,
                    res.confidence(algorithm), res.ratio(algorithm),
                ))
            mean, median, q1, q3 = summarize(r.ratio(algorithm) for r in results)
            for stat, value in (("mean", mean), ("median", median),
                                ("q1", q1), ("q3", q3)):
                rows.append((stat, level, None, algorithm, None, value))
    header = ("record", "error_level", "window", "algorithm", "lambda", "value")
    _write_csv(cfg, comments, header, rows)
    return 0


def cmd_experiment(cfg: CliConfig) -> int:
    series, source = _load_series(cfg)
    cells = build_cells(cfg.rhos, cfg.error_levels, cfg.k_list, cfg.theta_mults)
    summaries = run_sweep(
        series, cells, cfg.kind, cfg.seed, cfg.window_len, cfg.stride, cfg.workers
    )
    comments = [
        f"kind={cfg.kind.value} window={cfg.window_len} stride={cfg.stride} "
        f"cells={len(cells)} source={source}",
        _grid_comment(),
    ]
    rows = [
        (
            s.cell.rho, s.cell.error_level, s.cell.k, s.cell.theta_mult,
            s.algorithm, s.window_count, s.mean, s.median, s.q1, s.q3,
        )
        for s in summaries
    ]
    header = ("rho", "error_level", "k", "theta_mult", "algorithm",
              "windows", "mean", "median", "q1", "q3")
    _write_csv(cfg, comments, header, rows)
    return 0


def cmd_learn(cfg: CliConfig) -> int:
    series, source = _load_series(cfg)
    kinds = (ProblemKind.MAX, ProblemKind.MIN) if cfg.kind is None else (cfg.kind,)
    comments = [
        f"kinds={'+'.join(kd.value for kd in kinds)} k={cfg.k} "
        f"window={cfg.window_len} stride={cfg.stride} source={source}",
        _grid_comment(),
    ]
    rows = []
    for kd in kinds:
        windows = sliding_windows(series, cfg.window_len, cfg.stride, cfg.k, kd)
        bounds = windows[0].instance.bounds
        learner, history = run_learning(windows, kd, bounds, cfg.k, cfg.seed)
        for rec in history:
            rows.append((
                kd.value, rec.round, rec.chosen_lambda, rec.chosen_ratio,
                rec.best_fixed_ratio, rec.cumulative_regret,
            ))
        weights = ";".join(
            f"{g!r}:{w!r}" for g, w in zip(learner.grid, learner.weights)
        )
        comments.append(f"final_weights[{kd.value}]: {weights}")
    header = ("kind", "round", "chosen_lambda", "chosen_ratio",
              "best_fixed_ratio", "cum_regret")
    _write_csv(cfg, comments, header, rows)
    return 0


_DISPATCH = {
    "pareto": cmd_pareto,
    "thresholds": cmd_thresholds,
    "simulate": cmd_simulate,
    "experiment": cmd_experiment,
    "learn": cmd_learn,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and bad flags (2)
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args, argv)
    except KSearchError as exc:
        print(f"ksearch: error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg)
    except ConstructionError as exc:
        print(f"ksearch: verification failure: {exc}", file=sys.stderr)
        return 4
    except (KSearchError, OSError) as exc:
        print(f"ksearch: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
