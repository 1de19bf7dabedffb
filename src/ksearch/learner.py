"""Online selection of the confidence factor via multiplicative weights.

Repeated k-search rounds form a full-information online learning problem:
after each round, the counterfactual ratio of *every* candidate confidence
value is computable by replaying the round's window against that value's
threshold design.  The learner keeps exponential (Hedge) weights over the
fixed grid ``GRID`` of 33 uniform confidence values on [0,1], samples
proportionally to the weights, and updates with loss = ratio - 1 so a
perfect round costs nothing.

The learner replays a window stream (``core.WindowStream``): windows as
offsets into one price array, with one budget k, one price band, a
prediction each and the kind they were cut for, all checked when the
stream was made (fewer than 2^20 windows among them).  The counterfactual
ratios do not depend on the learner's state, so the whole (window x
confidence) ratio matrix is replayed first (``_stream_ratios``), a block
of windows at a time through the batched kernel ``core.ota_totals``, which
takes the stream and the windows its runs replay (one descent per run and
voluntary selection over one sparse table of price maxima, built over the
block's windows laid end to end with their overlaps shared), and the
block's offline optima in one pass.  The sweep's tail-hardened windows get
their rows from the same blocks: the kernel derives their totals from the
plain runs, and their optima come from the same optimum pass over their
copies with the worst-price tail, so each (window, confidence) pair is
replayed once.  A block holds as many windows as keep its replay, and
the design batch of its predictions, within ``_REPLAY_BLOCK_BYTES``, each
window charged for the prices it adds to the block and for its runs, so
overlapping windows pack more per block than disjoint ones.  The weights
do not depend on the draws either: the Hedge recurrence runs over the
matrix rows first, holding one plain list of weights and keeping each
round's, and one pass then draws every round's grid point from them
(``_draws``), as ``Generator.choice`` draws it from the round's stream.
Every round's first double comes from one vectorised pass of numpy's
``SeedSequence`` and Philox4x64-10 over all the round keys
(``_uniforms``), bit-equal to ``Generator(Philox(key)).random()``, so no
``Philox`` is built and ``numpy.random`` is not imported.
The grid designs of a block's distinct predictions are built together, in
stream order, by one batched pass (``augmented._construct_grid``), and a
block's thresholds gather one (G, k) slab of them per window.  Where the
batch raises, each (prediction, confidence) is designed in turn, so the
first failing design raises its own error.
The Hedge rounds run in ``learner._hedge``, which the harness also calls on
ratio rows it replayed itself; ``run_learning(stream, seed)`` returns the
final weights and the rounds as the columns of a ``RegretHistory``.  A
weight may underflow to 0 on a long or lopsided stream; it then stays at 0,
and a round in which every weight underflows is redone in log space.

Regret is reported against the best fixed grid point in hindsight.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .augmented import _construct_grid, _snap_prediction, design
from .core import PriceBounds, ProblemKind, ThresholdSchedule, WindowStream, ota_totals
from .core import _gather_bytes, _instance, _integer, _offline_optima, _replay_window_bytes
from .errors import InvalidInputError, KSearchError

DEFAULT_GRID_SIZE = 33
GRID = tuple(i / (DEFAULT_GRID_SIZE - 1) for i in range(DEFAULT_GRID_SIZE))
# the replay kernel's arrays for one block of windows stay under this size
_REPLAY_BLOCK_BYTES = 4 << 20
# how far from 1 ``Generator.choice`` lets the probabilities sum
_SUM_TOLERANCE = math.sqrt(np.finfo(float).eps)
_MASK32 = 0xFFFFFFFF
# the sweep's hardening draws key window i by seed * 2^20 + i + 2^63, a
# range disjoint from Hedge's round keys seed * 2^20 + t (t < 2^20)
_HARDEN_KEY_OFFSET = 1 << 63


class RegretHistory(NamedTuple):
    """Hedge's rounds as columns, round t at entry t - 1: the confidence
    drawn, its ratio, the hindsight-best fixed confidence's ratio and the
    regret so far, each a list of Python floats."""

    chosen_lambda: list[float]
    chosen_ratio: list[float]
    best_fixed_ratio: list[float]
    cumulative_regret: list[float]


def _design_bytes(k: int) -> int:
    """The most the grid-design batch holds per prediction, in bytes: per
    grid row, ten float rows of k + 1 and 40 floats of per-row vectors."""
    return 8 * len(GRID) * (10 * (k + 1) + 40)


def _design_grids(predictions, bounds: PriceBounds, k: int, kind: ProblemKind) -> np.ndarray:
    """(P, G, k) thresholds of the grid designs at each of P predictions,
    one row per confidence in ``GRID`` order.

    All rows come from one batched construction.  Where it raises, every
    (prediction, confidence) is designed in turn, in stream order, so the
    first failing design raises its own error, with the call it carries."""
    try:
        batch = _construct_grid(
            [_snap_prediction(prediction, bounds) for prediction in predictions],
            GRID, bounds, k, kind)
    except (KSearchError, ArithmeticError, ValueError):
        batch = [design(prediction, lam, bounds, k, kind).schedule.values
                 for prediction in predictions for lam in GRID]
    return np.reshape(batch, (len(predictions), len(GRID), k))


def _stream_ratios(stream: WindowStream, extra: tuple[ThresholdSchedule, ...] = (),
                   hardened=()) -> np.ndarray:
    """(W + H, G + E) ratios of the stream's W windows, in order, then of
    the H windows ``hardened`` (ascending indices into them) with their last
    k prices set to the band's worst price (p_min for max-search, p_max for
    min-search): each window under every grid design, then each extra.

    The stream is replayed a block at a time by ``core.ota_totals``: as
    many consecutive windows as keep their replay within
    ``_REPLAY_BLOCK_BYTES`` (``_blocks``).  The block's distinct predictions
    are designed in one batch (``_design_grids``, which ``_blocks`` bounds
    too), the extra rows are appended to each prediction's, one gather
    lays them out per window, and the block's offline optima are taken in
    one pass (``core._offline_optima``, which partitions a copy of the
    windows in place).  A hardened window is no replay of its own: its
    totals come from its plain window's runs, and its optimum from the same
    pass over a copy with the tail set.
    """
    runs = len(GRID) + len(extra)
    k, horizon, kind = stream.k, stream.horizon, stream.kind
    hardened = np.asarray(hardened, dtype=np.intp)
    ratios = np.empty((len(stream) + hardened.size, runs))
    hard_at = len(stream)
    tail = kind.near(stream.bounds)
    hard = np.zeros(len(stream), dtype=bool)
    hard[hardened] = True
    extra_rows = np.array([schedule.values for schedule in extra], dtype=float).reshape(-1, k)
    for lo, hi in _blocks(stream, runs, hard):
        predictions = stream.predictions[lo:hi].tolist()
        index = {p: n for n, p in enumerate(dict.fromkeys(predictions))}
        grids = _design_grids(list(index), stream.bounds, k, kind)
        extras = np.broadcast_to(extra_rows, (len(grids), *extra_rows.shape))
        thresholds = np.concatenate([grids, extras], axis=1)[[index[p] for p in predictions]]
        del grids
        picks = np.flatnonzero(hard[lo:hi])
        # one row of run totals per window, then one per hardened window
        totals = ota_totals(thresholds.reshape(-1, k), stream,
                            np.repeat(np.arange(lo, hi), runs), picks + lo)[0].reshape(-1, runs)
        del thresholds
        windows = stream.rows()[lo:hi]
        optima = _offline_optima(windows.copy(), k, kind)
        ratios[lo:hi] = kind.ratio(totals[:hi - lo], optima[:, None])
        if picks.size:
            worst = windows[picks]  # a copy, hardened in place
            worst[:, horizon - k:] = tail
            optima = _offline_optima(worst, k, kind)
            ratios[hard_at:hard_at + picks.size] = kind.ratio(totals[hi - lo:], optima[:, None])
            hard_at += picks.size
    return ratios


def _blocks(stream: WindowStream, runs: int, hardened: np.ndarray):
    """(lo, hi) of each block of a stream's windows: consecutive windows, as
    many as keep their replay (the sum of their ``_replay_window_bytes`` and
    ``_gather_bytes``) and, on its own as the two are never held at once,
    their design batch within ``_REPLAY_BLOCK_BYTES`` (at least one).  A
    window is charged for the min(stride, T) prices it adds to the block's
    span, the first of a block for its whole horizon, so overlapping windows
    pack more per block than disjoint ones; a window marked in the
    ``hardened`` mask is charged for its hardened runs too.  The batch is
    charged ``_design_bytes`` for the first window and for each one whose
    prediction differs from its predecessor's, at least its distinct ones."""
    horizon, k, predictions = stream.horizon, stream.k, stream.predictions
    held = np.cumsum(_replay_window_bytes(horizon, k, runs, min(stream.stride, horizon),
                                          hardened))
    first = _replay_window_bytes(horizon, k, runs, horizon, hardened) + _gather_bytes(k)
    # how many windows after the first, up to each, change their prediction
    changes = np.concatenate(([0], np.cumsum(predictions[1:] != predictions[:-1])))
    designs = max(1, _REPLAY_BLOCK_BYTES // _design_bytes(k))  # the most a batch holds
    lo = 0
    while lo < len(stream):
        # the block [lo, hi) holds first[lo] + held[hi - 1] - held[lo] bytes
        # in its replay and 1 + changes[hi - 1] - changes[lo] predictions
        hi = min(np.searchsorted(held, _REPLAY_BLOCK_BYTES - first[lo] + held[lo], side="right"),
                 np.searchsorted(changes, changes[lo] + designs - 1, side="right"))
        hi = max(int(hi), lo + 1)
        yield lo, hi
        lo = hi


def _draws(weights: np.ndarray, keys) -> np.ndarray:
    """The index each row of ``weights`` draws from the Philox stream of its
    key: ``Generator(Philox(key)).choice(G, p=row / row.sum())``, taken for
    every row in one pass.

    As ``choice`` does, each row's probabilities are accumulated and scaled
    so that the last is 1, and the draw counts those at or below the
    stream's first double, drawn for every key in one vectorised pass
    (``_uniforms``).
    Probabilities that are negative, NaN or do not sum to 1 within sqrt(eps)
    raise ValueError, as they do in ``choice``."""
    probs = weights / weights.sum(axis=1, keepdims=True)
    if not ((probs >= 0.0).all() and (abs(probs.sum(axis=1) - 1.0) <= _SUM_TOLERANCE).all()):
        raise ValueError("probabilities are negative, NaN or do not sum to 1")
    cdf = np.cumsum(probs, axis=1, out=probs)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= _uniforms(keys)[:, None], axis=1)


def _keys(seed, offset: int, count: int) -> range:
    """The Philox keys seed * 2^20 + offset + t of draws t = 0 .. count - 1:
    Hedge's rounds at offset 0, the sweep's windows at ``_HARDEN_KEY_OFFSET``.
    A seed that is not an integer raises InvalidInputError."""
    first = _integer("seed", seed) * (1 << 20) + offset
    return range(first, first + count)


def _uniforms(keys) -> np.ndarray:
    """The first double of the Philox stream of each key of a range or
    tuple, as ``Generator(Philox(key)).random()`` draws it: the top 53 bits
    of the stream's first raw output (``_philox_first``), times 2^-53.  A
    key is an int in [0, 2^128), which numpy seeds from the same four words
    as its zero-padded form; any other raises InvalidInputError."""
    try:
        data = b"".join(key.to_bytes(16, "little") for key in keys)
    except (AttributeError, OverflowError):
        bad = next(key for key in keys if not (isinstance(key, int) and 0 <= key < 1 << 128))
        raise InvalidInputError(f"Philox keys are ints in [0, 2^128), got {bad!r}") from None
    words = np.frombuffer(data, dtype="<u4").reshape(-1, 4).T.astype(np.uint64)
    uniform = (_philox_first(words) >> 11).astype(float)
    uniform *= 2.0**-53
    return uniform


def _philox_first(words: np.ndarray) -> np.ndarray:
    """The first raw output of ``Philox(key)`` for each column of the (4, n)
    little-endian 32-bit words of n keys, all keys at once.

    numpy's ``SeedSequence`` hashes the words into a pool of four and draws
    the two 64-bit Philox key words from it (``generate_state(2, uint64)``);
    Philox4x64-10 then encrypts the counter (1, 0, 0, 0), as the generator
    bumps its zero counter before its first block, and the output is word 0
    of that block.  The 32-bit arithmetic is held in uint64 arrays."""
    hash_const = 0x43B0D7E5  # SeedSequence's INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32  # MULT_A
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32  # MIX_MULT_L, MIX_MULT_R
        return result ^ result >> 16

    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state, hash_const = [], 0x8B51F9DD  # INIT_B
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32  # MULT_B
        word = word * hash_const & _MASK32
        state.append(word ^ word >> 16)
    key = [state[0] | state[1] << 32, state[2] | state[3] << 32]
    zero = np.zeros_like(key[0])
    ctr = [zero + 1, zero, zero, zero]
    for r in range(10):
        if r:  # bump the key by the Weyl constants
            key = [key[0] + 0x9E3779B97F4A7C15, key[1] + 0xBB67AE8584CAA73B]
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, ctr[0])
        hi1, lo1 = _mulhilo(0xCA5A826395121157, ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    return ctr[0]


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the 128-bit products a * b, from the
    32-bit halves of each factor."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    cross = a_hi * b_lo + (a_lo * b_lo >> 32)
    mid = a_lo * b_hi + (cross & _MASK32)
    return a_hi * b_hi + (cross >> 32) + (mid >> 32), a * b


def run_learning(stream: WindowStream, seed: int) -> tuple[tuple[float, ...], RegretHistory]:
    """Run Hedge over a window stream, for the stream's kind, and report
    per-round regret.

    Returns the final weights (aligned with ``GRID``) and the rounds'
    ``RegretHistory``.  The ratios do not depend on the weights, so the
    whole (W, G) ratio matrix is replayed first and ``_hedge`` then runs
    the rounds over it.
    """
    _instance("stream", stream, WindowStream)
    return _hedge(_stream_ratios(stream), seed)


def _hedge(by_round: np.ndarray, seed: int) -> tuple[tuple[float, ...], RegretHistory]:
    """The final weights and the ``RegretHistory`` of Hedge over the (W, G)
    ratios of W rounds, one row per round in ``GRID`` order.

    Round t draws a grid index with probability proportional to its weight,
    from a Philox stream keyed by seed * 2^20 + t, observes every grid
    point's ratio, and multiplies each weight by exp(-rate * (ratio - 1)),
    rate = sqrt(8 ln G / rounds), before renormalizing.  The regret baseline
    is fixed at the horizon: the grid point with the smallest total ratio
    over the whole stream; a round's best_fixed_ratio is that point's ratio
    in that round, and the cumulative regret adds the rounds' gaps left to
    right.  The weights do not depend on the draws, so the weight recurrence
    runs over the rows first, and one pass draws every round from the
    weights it held.  Ratios are >= 1, so the first drawn ratio below
    1 - 1e-9 raises InvalidInputError.
    """
    rounds = len(by_round)
    rate = math.sqrt(8.0 * math.log(len(GRID)) / rounds)
    held = np.empty(by_round.shape)  # each round's weights before its update
    weights = [1.0] * len(GRID)
    for t, row in enumerate(by_round):
        held[t] = weights
        ratios = row.tolist()
        raw = [w * math.exp(-rate * (r - 1.0)) for w, r in zip(weights, ratios)]
        total = math.fsum(raw)
        if total == 0.0:
            # every weight underflowed: redo the round in log space, shifted
            # by its largest exponent; a weight already at 0 stays at 0
            logs = [math.log(w) - rate * (r - 1.0) if w > 0.0 else -math.inf
                    for w, r in zip(weights, ratios)]
            top = max(logs)
            raw = [math.exp(x - top) for x in logs]
            total = math.fsum(raw)
        weights = [w / total for w in raw]
    picks = _draws(held, _keys(seed, 0, rounds))
    chosen = by_round[np.arange(rounds), picks].tolist()
    low = next((ratio for ratio in chosen if ratio < 1.0 - 1e-9), None)
    if low is not None:
        raise InvalidInputError(f"performance ratios are >= 1, got {low}")
    totals = [math.fsum(col.tolist()) for col in by_round.T]
    best = by_round[:, int(np.argmin(totals))].tolist()
    return tuple(weights), RegretHistory([GRID[j] for j in picks.tolist()], chosen, best,
                                         list(accumulate(map(operator.sub, chosen, best))))
