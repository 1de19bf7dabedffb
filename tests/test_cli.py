"""Command line interface: flags, exit codes, and CSV output contracts."""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import ksearch
from ksearch import (
    ConstructionError,
    PriceBounds,
    PriceSeries,
    ProblemKind,
    SearchInstance,
    gen_synthetic_series,
    ingest_csv,
    solve_cr,
)
from ksearch.cli import main

BOUNDS = ("--pmin", "5", "--pmax", "50")


@pytest.fixture(scope="session")
def feed_csv(tmp_path_factory):
    series = gen_synthetic_series(num_samples=2200, seed=3)
    path = tmp_path_factory.mktemp("feeds") / "feed.csv"
    path.write_text("price\n" + "\n".join(repr(p) for p in series.prices) + "\n")
    return str(path)


def read_csv(path):
    """Split an output file into (comment list, header tuple, row tuples)."""
    lines = path.read_text().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    data = [ln for ln in lines if not ln.startswith("# ")]
    header = tuple(data[0].split(","))
    rows = [tuple(ln.split(",")) for ln in data[1:]]
    return comments, header, rows


def comment_field(comments, key):
    for comment in comments:
        for token in comment.split():
            if token.startswith(f"{key}="):
                return token[len(key) + 1:]
    raise AssertionError(f"no comment token {key}= in {comments}")


class TestValidation:
    @pytest.mark.parametrize("argv", [
        [],
        ["frontier"],
        ["pareto", "--kind", "up"],
        ["pareto", *BOUNDS, "--points", "1"],
        ["pareto", "--pmin", "0", "--pmax", "50"],
        ["pareto", "--pmin", "50", "--pmax", "5"],
        ["pareto", "--pmin", "1e-320", "--pmax", "1"],  # theta overflows
        ["pareto", *BOUNDS, "--seed", "-1"],
        ["pareto", *BOUNDS, "--seed", str(1 << 64)],
        ["pareto", *BOUNDS, "--k", "0"],
        ["thresholds", *BOUNDS],  # --prediction is required
        ["thresholds", *BOUNDS, "--prediction", "20", "--lambda", "1.5"],
        ["thresholds", *BOUNDS, "--prediction", "200"],
        ["simulate", *BOUNDS, "--error-level", "1.5"],
        ["simulate", *BOUNDS, "--window", "0"],
        ["simulate", "--input", "/nonexistent/feed.csv"],
        ["experiment", *BOUNDS, "--rho", "0.0,1.5"],
        ["experiment", *BOUNDS, "--theta-mult", "0.5"],
        ["experiment", *BOUNDS, "--workers", "0"],
        ["experiment", *BOUNDS, "--k", "0"],
        # a budget larger than the window can never be filled
        ["simulate", *BOUNDS, "--k", "5000"],
        ["learn", *BOUNDS, "--k", "500", "--window", "288"],
        ["experiment", *BOUNDS, "--k", "5,4000"],
        # a fluctuation-ratio multiplier must be finite
        ["experiment", *BOUNDS, "--theta-mult", "inf"],
        # the synthetic feed holds one look-back and one trading window at most
        ["simulate", *BOUNDS, "--window", "127441", "--k", "5"],
        ["experiment", *BOUNDS, "--window", "127441", "--k", "5"],
        ["learn", *BOUNDS, "--window", "127441", "--k", "5"],
    ])
    def test_invalid_usage_exits_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,flag", [
        (["pareto", *BOUNDS, "--k", "0"], "--k"),
        (["pareto", *BOUNDS, "--seed", "-1"], "--seed"),
        (["pareto", *BOUNDS, "--points", "1"], "--points"),
        (["experiment", *BOUNDS, "--workers", "0"], "--workers"),
        (["thresholds", *BOUNDS, "--prediction", "20", "--lambda", "1.5"], "--lambda"),
        (["experiment", *BOUNDS, "--theta-mult", "inf"], "--theta-mult"),
    ])
    def test_single_flag_error_names_the_flag(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ksearch ")
        assert f"error: argument {flag}: " in err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["pareto", "--help"], ["thresholds", "--help"],
        ["simulate", "--help"], ["experiment", "--help"], ["learn", "--help"],
    ])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        capsys.readouterr()


class TestDataErrors:
    def test_malformed_price_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("price\n12.5\nabc\n14.0\n")
        code = main(["simulate", "--input", str(bad),
                     "--window", "1", "--stride", "1", "--k", "1"])
        assert code == 3
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("row,told", [
        # int() refuses a timestamp past Python's digit limit, not as malformed
        ("1" * 5000 + ",5.0",
         f"exceeds Python's {sys.get_int_max_str_digits()}-digit integer limit"),
        ("1" * 4999 + "x,5.0", "is not an integer"),
        ("1," + "9" * 4999 + "z", "is not numeric"),
        ("1," + "0" * 5000, "price must be positive"),
    ])
    def test_long_bad_cells_are_cut_in_the_error(self, tmp_path, monkeypatch, capsys, row, told):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("bad.csv").write_text(f"timestamp,price\n{row}\n2,6.0\n")
        code = main(["simulate", "--input", "bad.csv", "--k", "1", "--window", "1"])
        assert code == 3
        [line] = capsys.readouterr().err.splitlines()
        assert len(line) < 200
        assert line.startswith("ksearch: data error: bad.csv: row 1: ")
        assert told in line and "... (5000 characters)" in line

    @pytest.mark.parametrize("raw,message", [
        (b"price\n12.5\n\xff13.0\n", "not UTF-8 text (invalid start byte)"),
        (b'price\n12.5\n"' + b"9" * 140_000 + b'"\n',
         "row 2: field larger than field limit (131072)"),
    ])
    def test_unreadable_feed_exits_3(self, tmp_path, capsys, raw, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(raw)
        code = main(["simulate", "--input", str(bad),
                     "--window", "1", "--stride", "1", "--k", "1"])
        assert code == 3
        assert capsys.readouterr().err == f"ksearch: data error: {bad}: {message}\n"

    def test_feed_too_short_exits_3(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("price\n" + "\n".join(["12.5"] * 50) + "\n")
        code = main(["simulate", "--input", str(short),
                     "--window", "200", "--stride", "200", "--k", "10"])
        assert code == 3
        capsys.readouterr()

    def test_internal_verification_failure_exits_4(self, feed_csv, monkeypatch, capsys):
        import ksearch.cli as cli_mod

        def boom(*args, **kwargs):
            raise ConstructionError("guarantee violated")

        monkeypatch.setattr(cli_mod, "evaluate_windows", boom)
        code = main(["simulate", "--input", feed_csv,
                     "--window", "200", "--stride", "200", "--k", "10"])
        assert code == 4
        assert "verification failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "experiment", "learn"])
    @pytest.mark.parametrize("band", [
        ("--pmin", "1000", "--pmax", "2000"),  # a valid band the feed would ignore
        ("--pmin", "50", "--pmax", "5"),
        ("--pmin", "1000"),
        ("--pmax", "2000"),
    ])
    def test_band_flags_with_a_feed_exit_2(self, command, band, feed_csv, capsys):
        code = main([command, "--input", feed_csv, *band,
                     "--window", "200", "--stride", "200", "--k", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ksearch: error: --pmin/--pmax only set the synthetic feed")

    def test_feed_without_band_flags_takes_its_own_bounds(self, tmp_path, feed_csv):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--input", feed_csv, "--window", "200",
                     "--stride", "200", "--k", "10", "--output", str(out)]) == 0
        series = ingest_csv(feed_csv)
        comments, _, _ = read_csv(out)
        expected = f"bounds=[{min(series.prices)!r},{max(series.prices)!r}]"
        assert any(comment.startswith(expected) for comment in comments)

    def test_solver_residual_failure_exits_4(self, monkeypatch, capsys):
        import ksearch.worstcase as worstcase_mod

        monkeypatch.setattr(worstcase_mod, "_RESIDUAL_TOL", 0.0)
        assert main(["pareto", *BOUNDS, "--k", "7"]) == 4
        err = capsys.readouterr().err
        assert "verification failure" in err and "residual" in err
        assert "reproduce with" not in err  # not a design: no thresholds call repeats it

    def test_design_failure_prints_a_reproducing_command(self, capsys):
        # sigma* finds no feasible consistency block at this (lambda, band, k)
        argv = ["thresholds", "--kind", "min", "--k", "1", "--pmin", "1",
                "--pmax", "5623.413251903491", "--prediction", "3", "--lambda", "0.3"]
        assert main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("ksearch: verification failure: no feasible consistency block")
        prefix = "ksearch: reproduce with: ksearch "
        assert err[1] == (prefix + "thresholds --kind min --pmin 1.0 --pmax 5623.413251903491 "
                          "--k 1 --lambda 0.3 --prediction 3.0")
        assert main(shlex.split(err[1][len(prefix):])) == 4
        assert capsys.readouterr().err.splitlines() == err


class TestPareto:
    def run(self, tmp_path, *extra):
        out = tmp_path / "pareto.csv"
        assert main(["pareto", *BOUNDS, "--output", str(out), *extra]) == 0
        return read_csv(out)

    def test_documented_example(self, tmp_path):
        comments, header, rows = self.run(
            tmp_path, "--kind", "max", "--k", "20", "--points", "101"
        )
        assert header == ("lambda", "gamma", "eta")
        assert len(rows) == 101
        cr = solve_cr(PriceBounds(5.0, 50.0), 20, ProblemKind.MAX)
        first = tuple(float(v) for v in rows[0])
        last = tuple(float(v) for v in rows[-1])
        assert first == (1.0, pytest.approx(cr), pytest.approx(cr))
        assert last == (0.0, pytest.approx(10.0), pytest.approx(1.0))
        gammas = [float(r[1]) for r in rows]
        etas = [float(r[2]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(gammas, gammas[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(etas, etas[1:]))
        assert all(e <= g + 1e-9 for e, g in zip(etas, gammas))
        assert float(comment_field(comments, "theta")) == 10.0
        assert float(comment_field(comments, "cr_star")) == pytest.approx(cr)

    def test_two_points_are_the_endpoints(self, tmp_path):
        _, _, rows = self.run(tmp_path, "--k", "20", "--points", "2")
        assert len(rows) == 2
        assert float(rows[0][0]) == 1.0 and float(rows[-1][0]) == 0.0

    def test_single_unit_budget_worst_case_is_sqrt_theta(self, tmp_path):
        _, _, rows = self.run(tmp_path, "--k", "1", "--points", "3")
        assert float(rows[0][1]) == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_min_kind_endpoints(self, tmp_path):
        _, _, rows = self.run(tmp_path, "--kind", "min", "--k", "20",
                              "--points", "11")
        assert float(rows[0][1]) == pytest.approx(float(rows[0][2]))
        assert float(rows[-1][1]) == pytest.approx(10.0)
        assert float(rows[-1][2]) == pytest.approx(1.0)


class TestThresholds:
    LAM = "0.939892960247062"  # targets (eta, gamma) close to (1.52, 2.63)

    def run(self, tmp_path, prediction, *extra):
        out = tmp_path / "thresholds.csv"
        code = main(["thresholds", *BOUNDS, "--k", "20",
                     "--prediction", prediction, "--output", str(out), *extra])
        assert code == 0
        return read_csv(out)

    @pytest.mark.parametrize("prediction,case", [
        ("8", "I"), ("12", "II"), ("15", "III"), ("25", "III"),
    ])
    def test_case_labels_across_prediction_range(self, tmp_path, prediction, case):
        comments, header, rows = self.run(tmp_path, prediction, "--lambda", self.LAM)
        assert header == ("index", "value", "segment")
        assert comment_field(comments, "case") == case
        assert float(comment_field(comments, "eta")) == pytest.approx(1.52, abs=0.01)
        assert float(comment_field(comments, "gamma")) == pytest.approx(2.63, abs=0.01)
        assert comment_field(comments, "worst_case_equivalent") == "false"
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        assert {r[2] for r in rows} <= {"z", "c", "r"}
        assert all(5.0 <= float(r[1]) <= 50.0 for r in rows)

    def test_full_worst_case_confidence_is_flagged_equivalent(self, tmp_path):
        comments, _, _ = self.run(tmp_path, "15", "--lambda", "1")
        assert comment_field(comments, "worst_case_equivalent") == "true"


SIM_ARGS = ["--window", "200", "--stride", "200", "--k", "10", "--seed", "7"]


class TestSimulate:
    def test_three_policies_and_guarantees(self, tmp_path, feed_csv):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--kind", "max", "--input", feed_csv,
                     *SIM_ARGS, "--error-level", "0.0,1.0", "--output", str(out)])
        assert code == 0
        comments, header, rows = read_csv(out)
        assert header == ("record", "error_level", "window", "algorithm",
                          "lambda", "value")
        series = ingest_csv(feed_csv)
        bounds = PriceBounds(min(series.prices), max(series.prices))
        cr = solve_cr(bounds, 10, ProblemKind.MAX)

        ratio = [r for r in rows if r[0] == "ratio"]
        stats = [r for r in rows if r[0] != "ratio"]
        n_windows = len({r[2] for r in ratio})
        assert len(ratio) == 2 * 3 * n_windows
        assert len(stats) == 2 * 3 * 4
        assert {r[0] for r in stats} == {"mean", "median", "q1", "q3"}
        by_key = {(r[1], r[2], r[3]): float(r[5]) for r in ratio}
        for (level, window, algorithm), value in by_key.items():
            if algorithm == "ota-on":
                assert value <= cr + 1e-6
                hind = by_key[(level, window, "ota-hindsight")]
                assert hind <= value * (1 + 1e-12)
                assert hind <= by_key[(level, window, "ota-learned")] * (1 + 1e-12)
        on_lambdas = {r[4] for r in ratio if r[3] == "ota-on"}
        assert on_lambdas == {repr(1.0)}
        assert all(r[2] == "" and r[4] == "" for r in stats)

    def test_byte_reproducible(self, tmp_path, feed_csv):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--input", feed_csv, *SIM_ARGS,
                "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_window_filling_the_synthetic_feed(self, tmp_path):
        # twice the window is exactly the synthetic feed: one window fits
        out = tmp_path / "sim.csv"
        code = main(["simulate", *BOUNDS, "--window", "127440", "--k", "1",
                     "--output", str(out)])
        assert code == 0
        comments, _, rows = read_csv(out)
        assert comment_field(comments, "windows") == "1"
        assert {r[2] for r in rows if r[0] == "ratio"} == {"0"}


class TestExperiment:
    def test_worker_count_never_changes_the_bytes(self, tmp_path, feed_csv):
        out = tmp_path / "exp.csv"
        base = ["experiment", "--input", feed_csv,
                "--window", "200", "--stride", "200", "--seed", "7",
                "--k", "5,10", "--rho", "0.0,0.3", "--output", str(out)]
        assert main([*base, "--workers", "1"]) == 0
        serial = out.read_bytes()
        # argparse accepts any prefix down to --wo, and a repeated flag
        for workers in (["--workers", "4"], ["--wo", "2"], ["--work=2"],
                        ["--workers", "1", "--workers", "2"]):
            assert main([*base, *workers]) == 0
            assert out.read_bytes() == serial, workers

    def test_rows_sorted_by_cell_then_algorithm(self, tmp_path, feed_csv):
        out = tmp_path / "exp.csv"
        code = main(["experiment", "--input", feed_csv,
                     "--window", "200", "--stride", "200", "--seed", "7",
                     "--k", "10,5", "--rho", "0.3,0.0", "--error-level", "1.0",
                     "--theta-mult", "1.0", "--output", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ("rho", "error_level", "k", "theta_mult", "algorithm",
                          "windows", "mean", "median", "q1", "q3")
        assert len(rows) == 2 * 2 * 3  # rho values x budgets x algorithms
        keys = [(float(r[0]), float(r[1]), int(r[2]), float(r[3]), r[4])
                for r in rows]
        assert keys == sorted(keys)
        assert all(float(r[6]) >= 1.0 - 1e-9 for r in rows)

    # digests of the rows after the stamp line, recorded before the sweep
    # replayed cells in groups: a cell given twice prints its rows twice
    @pytest.mark.parametrize("flags,digest", [
        (["--rho", "0.2,0.2"],
         "b504765521fe67199b4c0f138dd5d31fd05eb6f011b96e4db59c8dd9c75c3970"),
        (["--k", "5,5"],
         "c158c08d20e62e52354b906fa3c2ac37ffbf45db703c7bca4ca5eb9c653e4460"),
        (["--k", "5,5,10", "--rho", "0.0,0.2,0.2", "--theta-mult", "1.0,4.0"],
         "cf535f5f5c5d76729bfa9eb6a0fb21ef72d3ff9796bd9c29777b21f4d888a668"),
    ])
    def test_duplicate_cells_keep_their_rows(self, flags, digest, feed_csv, monkeypatch):
        feed = pathlib.Path(feed_csv)
        monkeypatch.chdir(feed.parent)  # the source= comment names the feed as given
        for workers in ("1", "2"):
            out = f"dup-{workers}.csv"
            assert main(["experiment", "--input", feed.name, "--window", "200",
                         "--stride", "200", "--seed", "7", *flags,
                         "--workers", workers, "--output", out]) == 0
            rows = (feed.parent / out).read_text().split("\n", 1)[1]
            assert hashlib.sha256(rows.encode()).hexdigest() == digest

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_design_failure_names_its_cell_design(self, workers, tmp_path, capsys):
        # k = 5 designs; k = 100 meets the failing design point at the first
        # window's look-back minimum p_min, in every rho cell
        feed = tmp_path / "feed.csv"
        prices = [1.0, 5623.413251903491] + [50.0] * 198
        feed.write_text("timestamp,price\n"
                        + "".join(f"{t},{p!r}\n" for t, p in enumerate(prices)))
        assert main(["experiment", "--kind", "min", "--k", "5,100", "--rho", "0.0,0.5",
                     "--window", "100", "--stride", "100", "--input", str(feed),
                     "--workers", workers, "--output", str(tmp_path / "exp.csv")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "ksearch: verification failure: robustness violated: max ratio "
            "4405.0208056927895 > gamma 4405.02080564734 (case VI, P=1.0)",
            "ksearch: reproduce with: ksearch thresholds --kind min --pmin 1.0 "
            "--pmax 5623.413251903491 --k 100 --lambda 0.21875 --prediction 1.0",
        ]


class TestLearn:
    def test_design_failure_names_the_first_failing_grid_design(self, tmp_path, capsys):
        # the first window's look-back minimum is p_min: a design-grid failure
        # point, where every grid design below lambda = 7/32 succeeds
        feed = tmp_path / "feed.csv"
        prices = [1.0, 5623.413251903491] + [50.0] * 198
        feed.write_text("timestamp,price\n"
                        + "".join(f"{t},{p!r}\n" for t, p in enumerate(prices)))
        assert main(["learn", "--kind", "min", "--k", "100", "--window", "100",
                     "--stride", "100", "--input", str(feed),
                     "--output", str(tmp_path / "learn.csv")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "ksearch: verification failure: robustness violated: max ratio "
            "4405.0208056927895 > gamma 4405.02080564734 (case VI, P=1.0)",
            "ksearch: reproduce with: ksearch thresholds --kind min --pmin 1.0 "
            "--pmax 5623.413251903491 --k 100 --lambda 0.21875 --prediction 1.0",
        ]

    def test_both_kinds_with_consistent_regret(self, tmp_path, feed_csv):
        out = tmp_path / "learn.csv"
        code = main(["learn", "--kind", "both", "--input", feed_csv,
                     *SIM_ARGS, "--output", str(out)])
        assert code == 0
        comments, header, rows = read_csv(out)
        assert header == ("kind", "round", "chosen_lambda", "chosen_ratio",
                          "best_fixed_ratio", "cum_regret")
        assert {r[0] for r in rows} == {"max", "min"}
        weight_lines = [c for c in comments if c.startswith("final_weights[")]
        assert len(weight_lines) == 2
        for kind in ("max", "min"):
            history = [r for r in rows if r[0] == kind]
            assert [int(r[1]) for r in history] == list(range(1, len(history) + 1))
            cum = 0.0
            for r in history:
                cum += float(r[3]) - float(r[4])
                assert float(r[5]) == pytest.approx(cum, abs=1e-9)

    def test_single_kind_and_seed_determinism(self, tmp_path, feed_csv):
        out = tmp_path / "learn.csv"
        argv = ["learn", "--kind", "max", "--input", feed_csv, *SIM_ARGS,
                "--output", str(out)]
        assert main(argv) == 0
        first = read_csv(out)
        assert all(r[0] == "max" for r in first[2])
        assert main(argv) == 0
        assert read_csv(out) == first

    def test_seed_changes_the_selections(self, tmp_path, feed_csv):
        picks = {}
        for seed in ("7", "8"):
            out = tmp_path / f"learn{seed}.csv"
            code = main(["learn", "--kind", "max", "--input", feed_csv,
                         "--window", "200", "--stride", "50", "--k", "10",
                         "--seed", seed, "--output", str(out)])
            assert code == 0
            picks[seed] = [r[2] for r in read_csv(out)[2]]
        assert picks["7"] != picks["8"]


class TestWeightUnderflow:
    """Hedge weights that underflow to 0.0 are valid learner states."""

    @pytest.fixture(scope="class")
    def one_underflows(self, tmp_path_factory):
        # on every B window, lambda = 0 waits for the predicted 100000.0 and
        # fills at 1.0: a ratio near 1e5 that underflows its weight to 0.0
        block_a = ["100000.0"] + ["1.0"] * 287
        block_b = ["99999.0"] * 10 + ["1.0"] * 278
        path = tmp_path_factory.mktemp("feeds") / "one.csv"
        path.write_text("\n".join(["price"] + (block_a + block_b) * 6) + "\n")
        return str(path)

    @pytest.fixture(scope="class")
    def all_underflow(self, tmp_path_factory):
        # one round in which every ratio is 999.0, so every weight underflows
        prices = ["1e6"] + ["1.0"] * 9 + ["999.0"] + ["1.0"] * 9
        path = tmp_path_factory.mktemp("feeds") / "all.csv"
        path.write_text("\n".join(["price"] + prices) + "\n")
        return str(path)

    ONE_ARGS = ("--kind", "max", "--k", "10", "--window", "288", "--stride", "288")
    ALL_ARGS = ("--kind", "max", "--k", "1", "--window", "10", "--stride", "10")

    @pytest.mark.parametrize("command", ["learn", "simulate", "experiment"])
    def test_every_command_exits_0(self, command, one_underflows, all_underflow,
                                   tmp_path):
        for feed, args in ((one_underflows, self.ONE_ARGS),
                           (all_underflow, self.ALL_ARGS)):
            out = tmp_path / "out.csv"
            assert main([command, *args, "--input", feed, "--output", str(out)]) == 0

    def test_an_underflowed_weight_stays_at_zero(self, one_underflows, tmp_path):
        out = tmp_path / "learn.csv"
        assert main(["learn", *self.ONE_ARGS, "--input", one_underflows,
                     "--output", str(out)]) == 0
        comments, _, _ = read_csv(out)
        (line,) = [c for c in comments if c.startswith("final_weights[max]: ")]
        weights = dict(pair.split(":") for pair in line.split(" ")[1].split(";"))
        assert weights["0.0"] == "0.0"

    def test_a_round_where_every_weight_underflows(self, all_underflow, tmp_path):
        out = tmp_path / "learn.csv"
        assert main(["learn", *self.ALL_ARGS, "--input", all_underflow,
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert "\nmax,1,0.0,999.0,999.0,0.0\n" in text
        comments, _, _ = read_csv(out)
        (line,) = [c for c in comments if c.startswith("final_weights[max]: ")]
        weights = [pair.split(":")[1] for pair in line.split(" ")[1].split(";")]
        assert weights == ["0.030303030303030304"] * 33


def test_near_degenerate_band_designs(capsys):
    argv = ["thresholds", "--pmin", "1", "--pmax", "1.000000000001",
            "--k", "5", "--prediction", "1"]
    assert main(argv) == 0
    assert "case=I" in capsys.readouterr().out


def test_stdout_when_no_output_path(capsys):
    assert main(["pareto", *BOUNDS, "--k", "5", "--points", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ksearch ")
    assert "command: ksearch pareto" in lines[0]
    data = [ln for ln in lines if not ln.startswith("# ")]
    assert data[0] == "lambda,gamma,eta"
    assert len(data) == 4  # header plus three requested points


class TestWindowStream:
    """The feed commands replay windows as offsets into the series."""

    @pytest.mark.parametrize("command", [
        ["learn", "--kind", "both"],
        ["simulate", "--error-level", "0.0,0.5"],
        ["experiment", "--rho", "0.0,1.0", "--theta-mult", "1.0,2.0"],
    ])
    def test_no_object_per_window(self, command, feed_csv, tmp_path, monkeypatch):
        made = []
        check = SearchInstance.__post_init__

        def counted(self):
            made.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(SearchInstance, "__post_init__", counted)
        out = tmp_path / "out.csv"
        assert main([*command, "--input", feed_csv, "--window", "200", "--stride", "50",
                     "--k", "5", "--output", str(out)]) == 0
        assert made == []

    @pytest.mark.parametrize("command, module, calls", [
        (["learn", "--kind", "both"], "cli",
         {"sliding_windows": 2, "adjust_error": 0, "evaluate_windows": 0, "run_learning": 2}),
        (["simulate", "--error-level", "0.0,0.5"], "cli",
         {"sliding_windows": 1, "adjust_error": 2, "evaluate_windows": 2, "run_learning": 0}),
        (["experiment", "--rho", "0.0,1.0", "--theta-mult", "1.0,2.0"], "harness",
         {"sliding_windows": 2, "adjust_error": 2}),
    ])
    def test_commands_call_the_public_window_api(self, command, module, calls, feed_csv,
                                                 tmp_path, monkeypatch):
        # a wrapper on a public window function sees every stream a command cuts
        mod = getattr(ksearch, module)
        counts = dict.fromkeys(calls, 0)
        for name in calls:
            def counted(*args, real=getattr(mod, name), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(mod, name, counted)
        out = tmp_path / "out.csv"
        assert main([*command, "--input", feed_csv, "--window", "200", "--stride", "50",
                     "--k", "5", "--output", str(out)]) == 0
        assert counts == calls

    def test_rounds_are_capped_before_any_replay(self, monkeypatch, capsys):
        # 2^20 windows of one price each, from a flat series of 2^20 + 1
        import ksearch.cli as cli_mod
        import ksearch.learner as learner_mod

        def replayed(*args):
            pytest.fail("designed or replayed before the round count was checked")

        series = PriceSeries(np.full((1 << 20) + 1, 20.0))
        monkeypatch.setattr(cli_mod, "_load_series", lambda args, bounds: (series, "flat"))
        for name in ("_design_grids", "ota_totals", "_offline_optima"):
            monkeypatch.setattr(learner_mod, name, replayed)
        code = main(["learn", "--kind", "both", "--window", "1", "--stride", "1", "--k", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "ksearch: data error: window streams beyond 2^20 rounds are unsupported\n")


WINDOW_POLICIES = {
    (): """\
41 windows; mean ratio per policy
error_level,ota-on,ota-hindsight,ota-learned
0.0,1.715234,1.434490,1.592132
0.5,1.715234,1.346740,1.632845
1.0,1.715234,1.379150,1.648447
learner's heaviest confidence: 0.90625 (weight 0.2053)
""",
    ("--kind", "min", "--error-levels", "0.0,0.3,1.0", "--stride", "100"): """\
101 windows; mean ratio per policy
error_level,ota-on,ota-hindsight,ota-learned
0.0,1.791319,1.346832,1.643571
0.3,1.791319,1.361642,1.685549
1.0,1.791319,1.355557,1.676697
learner's heaviest confidence: 0.75 (weight 0.2051)
""",
}


@pytest.mark.parametrize("flags", list(WINDOW_POLICIES))
def test_window_policies_script_output_is_pinned(flags):
    # recorded while the script still evaluated one window object at a time
    assert _run_script("window_policies.py", *flags) == WINDOW_POLICIES[flags]


def _run_script(name, *flags, env=None):
    """Run scripts/<name> with the library on its path; it must exit 0."""
    root = pathlib.Path(ksearch.__file__).resolve().parent.parent.parent
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, str(root / "scripts" / name), *flags],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_pareto_curves_script_writes_one_frontier_per_budget(tmp_path):
    _run_script("pareto_curves.py", "--budgets", "1,5", "--points", "5",
                "--outdir", str(tmp_path))
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "frontier_max_k1.csv", "frontier_max_k5.csv"]


def test_threshold_gallery_script_writes_one_schedule_per_prediction(tmp_path):
    out = _run_script("threshold_gallery.py", "--kind", "min", "--predictions", "8,25",
                      "--outdir", str(tmp_path))
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "schedule_min_P25.csv", "schedule_min_P8.csv"]
    assert out.count("(case ") == 2


def test_synthetic_sweep_script_leaves_no_temporary_feed(tmp_path):
    scratch, out = tmp_path / "tmp", tmp_path / "sweep.csv"
    scratch.mkdir()
    _run_script("synthetic_sweep.py", "--workers", "1", "--output", str(out),
                env={"TMPDIR": str(scratch)})
    assert len(read_csv(out)[2]) == 4 * len(ksearch.ALGORITHMS)  # 2 rho x 2 k cells
    assert list(scratch.iterdir()) == []


def test_import_leaves_the_process_pool_out():
    # only a sweep with --workers above 1 loads concurrent.futures.process
    src = pathlib.Path(ksearch.__file__).resolve().parent.parent
    code = "import sys, ksearch.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_learn_from_a_feed_leaves_numpy_random_out(tmp_path):
    # the learner draws its Philox doubles without numpy.random
    series = gen_synthetic_series(num_samples=600, seed=3)
    feed = tmp_path / "feed.csv"
    feed.write_text("timestamp,price\n" + "".join(
        f"{t},{p!r}\n" for t, p in zip(series.timestamps, series.prices)))
    argv = ["learn", "--kind", "both", "--k", "5", "--window", "200", "--stride", "50",
            "--input", str(feed), "--output", str(tmp_path / "out.csv")]
    src = pathlib.Path(ksearch.__file__).resolve().parent.parent
    code = f"import sys; from ksearch import cli; print(cli.main({argv!r}), 'numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "0 False\n"
