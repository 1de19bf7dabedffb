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
a usage error; a failed design is followed by the ``ksearch thresholds``
call that repeats it).  Each flag checks its own range when it is parsed, so a
single bad value (``--k 0``, ``--lambda 1.5``) prints argparse's usage line
and an error naming the flag; checks that span several flags (the price
bounds, ``--prediction`` within them, budgets within ``--window``, an
existing ``--input``, no ``--pmin``/``--pmax`` next to ``--input``, whose
bounds come from the feed, and without it a ``--window`` that fits twice in
the synthetic feed) print ``ksearch: error: ...``.  Both exit 2.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys

from . import __version__
from .augmented import design, interval_ratios
from .core import PriceBounds, ProblemKind
from .errors import ConstructionError, KSearchError
from .harness import ALGORITHMS, build_cells, evaluate_windows, run_sweep, summarize
from .instances import (
    FIVE_YEAR_SAMPLES,
    STRIDE_SAMPLES,
    WINDOW_SAMPLES,
    PriceSeries,
    adjust_error,
    gen_synthetic_series,
    ingest_csv,
    sliding_windows,
)
from .learner import DEFAULT_GRID_SIZE, GRID, run_learning
from .pareto import FrontierSpec, frontier_curve
from .worstcase import worst_case_thresholds


def _flag_type(parse, accept, domain: str):
    """An argparse ``type=`` that parses a value and requires it to be ``domain``."""

    def convert(text: str):
        try:
            value = parse(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")

    return convert


def _comma_list(item):
    """The ``type=`` of a comma-separated list of ``item`` values."""
    return lambda text: tuple(item(part) for part in text.split(","))


_positive_int = _flag_type(int, lambda v: v >= 1, "a positive integer")
_grid_points = _flag_type(int, lambda v: v >= 2, "an integer >= 2")
_u64 = _flag_type(int, lambda v: 0 <= v < 1 << 64, "an unsigned 64-bit integer")
_unit_float = _flag_type(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_theta_mult = _flag_type(float, lambda v: 1.0 <= v < math.inf, "a finite number >= 1")


_DEFAULT_BAND = (5.0, 50.0)


def _add_common(parser: argparse.ArgumentParser, kinds=("max", "min")) -> None:
    parser.add_argument("--kind", choices=kinds, default=kinds[0],
                        help="search direction (default: %(default)s)")
    # None marks a flag left out: the feed commands reject either with --input
    parser.add_argument("--pmin", type=float, default=None,
                        help=f"lower price bound (default: {_DEFAULT_BAND[0]})")
    parser.add_argument("--pmax", type=float, default=None,
                        help=f"upper price bound (default: {_DEFAULT_BAND[1]})")
    parser.add_argument("--seed", type=_u64, default=0, metavar="U64",
                        help="seed for every random draw (default: %(default)s)")
    parser.add_argument("--output", metavar="CSV", default=None,
                        help="output path (default: stdout)")


def _add_feed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", metavar="CSV", default=None,
                        help="price feed with a 'price' column and optional "
                             "'timestamp'; omitted = seeded synthetic feed")
    parser.add_argument("--window", type=_positive_int, default=WINDOW_SAMPLES,
                        metavar="N", help="samples per trading window "
                        "(default: %(default)s = three weeks at 10 minutes)")
    parser.add_argument("--stride", type=_positive_int, default=STRIDE_SAMPLES,
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
    p.set_defaults(func=cmd_pareto)
    _add_common(p)
    p.add_argument("--k", type=_positive_int, default=100,
                   help="budget (default: %(default)s)")
    p.add_argument("--points", type=_grid_points, default=101,
                   help="number of confidence grid points (default: %(default)s)")

    p = sub.add_parser("thresholds", help="emit one designed threshold schedule")
    p.set_defaults(func=cmd_thresholds)
    _add_common(p)
    p.add_argument("--k", type=_positive_int, default=100,
                   help="budget (default: %(default)s)")
    p.add_argument("--lambda", dest="lam", type=_unit_float, default=0.5,
                   help="confidence in the worst-case fallback, 0..1 "
                        "(default: %(default)s)")
    p.add_argument("--prediction", type=float, required=True,
                   help="predicted extreme price within the bounds")

    p = sub.add_parser("simulate", help="replay three policies over a price feed")
    p.set_defaults(func=cmd_simulate)
    _add_common(p)
    _add_feed(p)
    p.add_argument("--k", type=_positive_int, default=100,
                   help="budget (default: %(default)s)")
    p.add_argument("--error-level", dest="error_levels", type=_comma_list(_unit_float),
                   default=(1.0,), metavar="L1,L2,...",
                   help="prediction error levels in [0,1]; 0 = perfect, "
                        "1 = raw look-back (default: 1.0)")

    p = sub.add_parser("experiment", help="stress sweep over a parameter grid")
    p.set_defaults(func=cmd_experiment)
    _add_common(p)
    _add_feed(p)
    p.add_argument("--k", dest="k_list", type=_comma_list(_positive_int), default=(100,),
                   metavar="K1,K2,...", help="budgets to sweep (default: 100)")
    p.add_argument("--rho", dest="rhos", type=_comma_list(_unit_float), default=(0.0,),
                   metavar="R1,R2,...",
                   help="tail-hardening probabilities in [0,1] (default: 0.0)")
    p.add_argument("--error-level", dest="error_levels", type=_comma_list(_unit_float),
                   default=(1.0,), metavar="L1,L2,...",
                   help="prediction error levels in [0,1] (default: 1.0)")
    p.add_argument("--theta-mult", dest="theta_mults", type=_comma_list(_theta_mult),
                   default=(1.0,), metavar="M1,M2,...",
                   help="fluctuation-ratio multipliers >= 1 (default: 1.0)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process count for sweep cells (default: %(default)s)")

    p = sub.add_parser("learn", help="run the confidence learner over a feed")
    p.set_defaults(func=cmd_learn)
    _add_common(p, kinds=("both", "max", "min"))
    _add_feed(p)
    p.add_argument("--k", type=_positive_int, default=100,
                   help="budget (default: %(default)s)")

    return parser


def _check_across_flags(args: argparse.Namespace) -> PriceBounds:
    """Checks that span several flags; returns the validated price bounds."""
    if getattr(args, "input", None) is not None and (args.pmin, args.pmax) != (None, None):
        raise KSearchError(
            "--pmin/--pmax only set the synthetic feed's band; "
            "with --input the bounds come from the feed"
        )
    pmin = _DEFAULT_BAND[0] if args.pmin is None else args.pmin
    pmax = _DEFAULT_BAND[1] if args.pmax is None else args.pmax
    bounds = PriceBounds(pmin, pmax)  # validates 0 < pmin <= pmax
    prediction = getattr(args, "prediction", None)
    if prediction is not None and not bounds.contains(prediction):
        raise KSearchError(
            f"--prediction {prediction} outside bounds [{bounds.p_min}, {bounds.p_max}]"
        )
    if hasattr(args, "window"):  # the feed commands: simulate, experiment, learn
        for budget in getattr(args, "k_list", None) or (args.k,):
            if budget > args.window:
                raise KSearchError(
                    f"budget k={budget} exceeds the {args.window} samples of --window"
                )
        if args.input is not None and not os.path.isfile(args.input):
            raise KSearchError(f"--input file not found: {args.input}")
        if args.input is None and 2 * args.window > FIVE_YEAR_SAMPLES:
            raise KSearchError(f"--window {args.window} needs {2 * args.window} samples "
                               f"with its look-back; the synthetic feed has {FIVE_YEAR_SAMPLES}")
    return bounds


# --------------------------------------------------------------------------
# output plumbing


def _stamp(args: argparse.Namespace) -> str:
    # --workers never affects the rows, so it is excluded from the stamp to
    # keep outputs byte-identical across worker counts: every occurrence,
    # with its value, under any prefix argparse accepts for it (--wo up)
    tokens, argv = iter(args.argv), []
    for arg in tokens:
        option, equals, _ = arg.partition("=")
        if len(option) >= len("--wo") and "--workers".startswith(option):
            if not equals:
                next(tokens, None)
        else:
            argv.append(arg)
    command_line = shlex.join(["ksearch", *argv])
    return f"ksearch {__version__} | command: {command_line} | seed: {args.seed}"


def _write_csv(args: argparse.Namespace, comments, header, rows) -> None:
    lines = [f"# {line}" for line in (_stamp(args), *comments)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if cell is None else repr(cell)
                              if isinstance(cell, float) else str(cell)
                              for cell in row))
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_series(args: argparse.Namespace, bounds: PriceBounds) -> tuple[PriceSeries, str]:
    if args.input is not None:
        return ingest_csv(args.input), args.input
    return (
        gen_synthetic_series(seed=args.seed, bounds=bounds),
        f"synthetic(seed={args.seed})",
    )


# --------------------------------------------------------------------------
# subcommands


def cmd_pareto(args: argparse.Namespace, bounds: PriceBounds) -> int:
    spec = FrontierSpec(bounds, args.k, ProblemKind(args.kind))
    curve = frontier_curve(spec, args.points)
    comments = [
        f"kind={args.kind} pmin={bounds.p_min!r} pmax={bounds.p_max!r} "
        f"k={args.k} theta={spec.theta!r} cr_star={spec.cr_star!r}",
    ]
    rows = [(pt.lam, pt.gamma, pt.eta) for pt in curve]
    _write_csv(args, comments, ("lambda", "gamma", "eta"), rows)
    return 0


def cmd_thresholds(args: argparse.Namespace, bounds: PriceBounds) -> int:
    kind = ProblemKind(args.kind)
    result = design(args.prediction, args.lam, bounds, args.k, kind)
    solution = worst_case_thresholds(bounds, args.k, kind)
    max_ratio = float(max(interval_ratios(result.schedule)))
    equivalent = max_ratio <= solution.cr + 1e-6
    comments = [
        f"kind={args.kind} pmin={bounds.p_min!r} pmax={bounds.p_max!r} "
        f"k={args.k} lambda={args.lam!r} prediction={result.prediction!r}",
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
    _write_csv(args, comments, ("index", "value", "segment"), rows)
    return 0


def _grid_comment() -> str:
    return (
        f"lambda_grid: {DEFAULT_GRID_SIZE} uniform points on [0,1]; "
        f"regret_baseline: best fixed grid confidence at horizon"
    )


def cmd_simulate(args: argparse.Namespace, bounds: PriceBounds) -> int:
    series, source = _load_series(args, bounds)
    stream = sliding_windows(series, args.window, args.stride, args.k, ProblemKind(args.kind))
    bounds = stream.bounds
    comments = [
        f"kind={args.kind} k={args.k} window={args.window} "
        f"stride={args.stride} windows={len(stream)} source={source}",
        f"bounds=[{bounds.p_min!r},{bounds.p_max!r}] "
        f"error_levels={','.join(repr(v) for v in args.error_levels)}",
        _grid_comment(),
    ]
    rows = []
    for level in args.error_levels:
        results = evaluate_windows(adjust_error(stream, level), args.seed)
        for algorithm in ALGORITHMS:
            ratios, confidences = results[algorithm]
            rows.extend(("ratio", level, index, algorithm, confidence, ratio)
                        for index, (confidence, ratio) in enumerate(zip(confidences, ratios)))
            mean, median, q1, q3 = summarize(ratios)
            for stat, value in (("mean", mean), ("median", median),
                                ("q1", q1), ("q3", q3)):
                rows.append((stat, level, None, algorithm, None, value))
    header = ("record", "error_level", "window", "algorithm", "lambda", "value")
    _write_csv(args, comments, header, rows)
    return 0


def cmd_experiment(args: argparse.Namespace, bounds: PriceBounds) -> int:
    series, source = _load_series(args, bounds)
    cells = build_cells(args.rhos, args.error_levels, args.k_list, args.theta_mults)
    summaries = run_sweep(series, cells, ProblemKind(args.kind), args.seed,
                          args.window, args.stride, args.workers)
    comments = [
        f"kind={args.kind} window={args.window} stride={args.stride} "
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
    _write_csv(args, comments, header, rows)
    return 0


def cmd_learn(args: argparse.Namespace, bounds: PriceBounds) -> int:
    series, source = _load_series(args, bounds)
    kinds = tuple(ProblemKind) if args.kind == "both" else (ProblemKind(args.kind),)
    comments = [
        f"kinds={'+'.join(kd.value for kd in kinds)} k={args.k} "
        f"window={args.window} stride={args.stride} source={source}",
        _grid_comment(),
    ]
    rows = []
    for kd in kinds:
        stream = sliding_windows(series, args.window, args.stride, args.k, kd)
        weights, history = run_learning(stream, args.seed)
        rows.extend((kd.value, t, *row) for t, row in enumerate(zip(*history), start=1))
        final = ";".join(f"{g!r}:{w!r}" for g, w in zip(GRID, weights))
        comments.append(f"final_weights[{kd.value}]: {final}")
    header = ("kind", "round", "chosen_lambda", "chosen_ratio",
              "best_fixed_ratio", "cum_regret")
    _write_csv(args, comments, header, rows)
    return 0


def _thresholds_command(exc: ConstructionError) -> str:
    """The ``ksearch thresholds`` call that repeats a failed design."""
    return (f"ksearch thresholds --kind {exc.kind.value} --pmin {exc.bounds.p_min!r} "
            f"--pmax {exc.bounds.p_max!r} --k {exc.k} --lambda {exc.lam!r} "
            f"--prediction {exc.prediction!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and bad flags (2)
        return int(exc.code or 0)
    args.argv = argv
    try:
        bounds = _check_across_flags(args)
    except KSearchError as exc:
        print(f"ksearch: error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, bounds)
    except ConstructionError as exc:
        print(f"ksearch: verification failure: {exc}", file=sys.stderr)
        if exc.kind is not None:
            print(f"ksearch: reproduce with: {_thresholds_command(exc)}", file=sys.stderr)
        return 4
    except (KSearchError, OSError) as exc:
        print(f"ksearch: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
