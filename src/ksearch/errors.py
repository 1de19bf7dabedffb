"""Exception hierarchy shared across the package.

A ``DomainError`` is an ``InvalidInputError``, so one ``except`` catches
every bad argument.  The CLI maps errors onto exit codes by where they
arise: a bad flag, or any ``KSearchError`` from the checks that span
several flags, exits 2; once a command runs, a ``ConstructionError``
exits 4, and any other ``KSearchError`` (an ``InvalidInputError`` for a
feed too short for one window, say) or ``OSError`` exits 3.
"""


class KSearchError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(KSearchError):
    """An argument violates a documented precondition (shape, sign, range)."""


class DomainError(InvalidInputError):
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
