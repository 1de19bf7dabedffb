"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: invalid input / domain problems are
usage errors (exit 2), data-file problems are data errors (exit 3), and
a failed internal design verification is exit 4.
"""


class KSearchError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(KSearchError):
    """An argument violates a documented precondition (shape, sign, range)."""


class DomainError(KSearchError):
    """A numeric parameter lies outside the mathematical domain of an operation."""


class DataFormatError(KSearchError):
    """A data file could not be parsed; message names the offending row."""


class ConstructionError(KSearchError):
    """A designed schedule, or a computation behind one, failed its own verification.

    Besides the schedule checks this covers the worst-case solvers' bracket
    and residual checks and the replay engine's full-budget invariant.  It
    should never fire for parameters inside the feasible region; it
    indicates either an infeasible (eta, gamma) target or an internal bug.

    One raised through ``augmented.design`` carries that call's ``kind``,
    ``bounds``, ``k``, ``lam`` and (snapped) ``prediction``, from which the
    CLI prints a ``ksearch thresholds`` line that reproduces it; elsewhere
    they are None.
    """

    kind = bounds = k = lam = prediction = None
