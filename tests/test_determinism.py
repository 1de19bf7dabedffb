"""Determinism guard: the CSV bytes of the CLI's commands are pinned by digest.

Each case runs the CLI in-process, the feed commands on a small seeded
feed, and hashes every output line except the stamp (the first comment
line, which names the command line).  The ``experiment`` and ``learn`` digests were recorded
before the batched replay kernel replaced the per-schedule replay loop; the
``simulate`` digests, which pin every per-window ratio and confidence after
the prediction error is dialled, were recorded before windows stopped
storing their actual extreme.  A change in any ratio, summary or learner
weight, down to the last bit of a ``repr``, fails here.  The ``pareto``
and ``thresholds`` digests pin the frontier, the worst-case ratio and one
design of each kind outside the feed commands.  The
``experiment-scaled-hardened`` digests pin a theta-scaled series and a
group in which rho = 1 hardens every window; they were recorded before
the pipeline stopped making one window object per window.  Those cases
replay each group as one block of 72 windows; the
``experiment-multiblock-hardened`` digests pin 3,425 windows a price
apart, replayed in 8 blocks with hardened windows in every block, and were
recorded before the hardened optima were taken from the plain optimum
kernel.  The ``learn-multiblock-both`` digest pins 3,425 windows per kind
a price apart, replayed in 11 blocks whose predictions recur from block
to block; it was recorded while the learner still kept grid designs in a
process-wide cache across blocks.  One ``python -O`` interpreter runs every
case once more, so the digests hold with ``assert`` stripped too.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ksearch
from ksearch import gen_synthetic_series
from ksearch.cli import main

FEED = "feed.csv"
FEED_COMMANDS = {"experiment", "simulate", "learn"}
FEED_SAMPLES, FEED_SEED = 4000, 11
WINDOWS = ("--window", "288", "--stride", "48")

CASES = {
    "experiment-max": (
        ["experiment", "--kind", "max", "--k", "5,20", "--rho", "0.0,0.2",
         "--error-level", "0.0,1.0", *WINDOWS],
        "9d90ccc06867a9f0695e822b4146e852311107bb762c283e1cb34375d5e46299",
    ),
    "experiment-min": (
        ["experiment", "--kind", "min", "--k", "5,20", "--rho", "0.0,0.2",
         "--error-level", "0.0,1.0", *WINDOWS],
        "60d549a0634bf0d1db3bb14cad96ccedd6c2c3672b5ac9f5a011a68424be92a8",
    ),
    "experiment-scaled-hardened-max": (
        ["experiment", "--kind", "max", "--k", "5", "--rho", "0.0,1.0",
         "--error-level", "0.5,1.0", "--theta-mult", "1.0,2.0", *WINDOWS],
        "2ab0f3687b6181d61d660c2b7bd4524df3e024acc863ca4231d0d579eb8b3acf",
    ),
    "experiment-scaled-hardened-min": (
        ["experiment", "--kind", "min", "--k", "5", "--rho", "0.0,1.0",
         "--error-level", "0.5,1.0", "--theta-mult", "1.0,2.0", *WINDOWS],
        "aa9dfe227bad417733f8ddb8ae0379729aad0eb884d258d1fba920ac2c801afb",
    ),
    "experiment-multiblock-hardened-max": (
        ["experiment", "--kind", "max", "--k", "5", "--rho", "0.0,0.5",
         "--window", "288", "--stride", "1"],
        "0c6102e6e5121e1e12607368c0d0ab9acc092a06387b35c03d3027e7abf0ddae",
    ),
    "experiment-multiblock-hardened-min": (
        ["experiment", "--kind", "min", "--k", "5", "--rho", "0.0,0.5",
         "--window", "288", "--stride", "1"],
        "e7c26f2f9a388619ab02d4331937acc35ce21d8f6f0dfa1ac4906c5e5af8099e",
    ),
    "simulate-max": (
        ["simulate", "--kind", "max", "--k", "5", "--error-level", "0.0,0.5,1.0",
         *WINDOWS],
        "61578963043a317dfb5b8d8821d4924555b325b97f3b26693aa5743ddc500fdc",
    ),
    "simulate-min": (
        ["simulate", "--kind", "min", "--k", "5", "--error-level", "0.0,0.5,1.0",
         *WINDOWS],
        "ea7dfc09b04ed2b1160dca4bf7a4ff7346b6e1e5188df3bcaf5467acad911e1f",
    ),
    "learn-both": (
        ["learn", "--kind", "both", "--k", "10", "--window", "288", "--stride", "24"],
        "fc752633162a9541099960fd5531f72c12ad19d3c053de04872495b54edabd50",
    ),
    "learn-multiblock-both": (
        ["learn", "--kind", "both", "--k", "10", "--window", "288", "--stride", "1"],
        "18bbbe040b0288d8ffd2d77c16c2280a50071a9d116ee0dff9cc4b2228eb59f5",
    ),
    "pareto-max": (
        ["pareto", "--kind", "max", "--k", "100", "--points", "33"],
        "5a61a7fe80f39b9fa098fdf24fe9e51223c0788b3db9ecd196715f4178354df8",
    ),
    "pareto-min": (
        ["pareto", "--kind", "min", "--k", "100", "--points", "33"],
        "015deecd33507a202b4ebcc2ee68c87a46427b26a812e334499d4791fac1623f",
    ),
    "thresholds-max": (
        ["thresholds", "--kind", "max", "--k", "20", "--lambda", "0.5", "--prediction", "20"],
        "ad01849452a15b0026790c71055469eb7c87e8766f7c5ba1563e2962b9068b76",
    ),
    "thresholds-min": (
        ["thresholds", "--kind", "min", "--k", "20", "--lambda", "0.5", "--prediction", "20"],
        "1d3c0ee8670df293dc2b0fb975ea1befe1bc6fa8dc1fd6f7c7d4804d4ab1a33d",
    ),
}


# runs each case's argv (stdin, JSON) through ``main`` in the feed directory,
# writing ``<case>-O.csv``, and prints the optimize flag and the exit codes
_OPTIMIZED_RUN = """
import json, sys
from ksearch.cli import main
codes = {case: main([*argv, "--output", case + "-O.csv"])
         for case, argv in json.load(sys.stdin).items()}
print(json.dumps([sys.flags.optimize, codes]))
"""


@pytest.fixture(scope="module")
def feed_dir(tmp_path_factory):
    series = gen_synthetic_series(num_samples=FEED_SAMPLES, seed=FEED_SEED)
    path = tmp_path_factory.mktemp("determinism")
    lines = (f"{t},{p!r}\n" for t, p in zip(series.timestamps, series.prices))
    (path / FEED).write_text("timestamp,price\n" + "".join(lines))
    return path


def rows_digest(text: str) -> str:
    stamp, rest = text.split("\n", 1)
    if not stamp.startswith("# ksearch "):
        raise ValueError(f"first line is not a stamp: {stamp!r}")
    return hashlib.sha256(rest.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_rows_match_recorded_digest(case, feed_dir, monkeypatch):
    argv, expected = CASES[case]
    monkeypatch.chdir(feed_dir)  # relative paths keep the source= comment stable
    out = f"{case}.csv"
    feed = ("--input", FEED) if argv[0] in FEED_COMMANDS else ()
    assert main([*argv, "--seed", "5", *feed, "--output", out]) == 0
    assert rows_digest((feed_dir / out).read_text(encoding="utf-8")) == expected


def test_csv_rows_match_recorded_digests_under_python_O(feed_dir):
    argvs = {case: [*argv, "--seed", "5", *(("--input", FEED) if argv[0] in FEED_COMMANDS else ())]
             for case, (argv, _) in CASES.items()}
    src = pathlib.Path(ksearch.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_RUN], input=json.dumps(argvs),
                         cwd=feed_dir, env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [1, {case: 0 for case in CASES}]
    digests = {case: rows_digest((feed_dir / f"{case}-O.csv").read_text(encoding="utf-8"))
               for case in CASES}
    assert digests == {case: expected for case, (_, expected) in CASES.items()}
