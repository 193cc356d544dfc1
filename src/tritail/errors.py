"""Exception hierarchy for tritail.

Every error raised by this package derives from :class:`TritailError`, so callers
can catch the package's failures with one clause.  Most classes double as a
standard builtin category (``ValueError``, ``ArithmeticError``) so that generic
handlers keep working.
"""

__all__ = [
    "TritailError",
    "ConfigInvalid",
    "DivergentMoment",
    "NotContracting",
    "NoPositiveRoot",
    "DivergentBeforeRoot",
    "NonFiniteState",
    "DegenerateTail",
    "EmptyTail",
    "NonPositiveM",
    "RegimeMismatch",
    "TooFewExceedances",
    "TauNotContracting",
    "PipelineMismatch",
]


class TritailError(Exception):
    """Base class for all tritail errors."""


class ConfigInvalid(TritailError, ValueError):
    """An experiment config, or a saved run report, failed validation.

    Parameters
    ----------
    path : str
        JSON-pointer-style location of the offending field, e.g. ``/law/a1/mu``.
    message : str
        Human-readable description of the violation.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class DivergentMoment(TritailError, ArithmeticError):
    """A requested moment E X^h is +infinity."""


class NotContracting(TritailError, ValueError):
    """E log A >= 0: there is no positive tail-index root to look for."""


class NoPositiveRoot(TritailError, ArithmeticError):
    """m(h) = E A^h stays below 1 for every positive h tried."""


class DivergentBeforeRoot(TritailError, ArithmeticError):
    """m(h) jumps to +infinity while still below 1: no root exists."""


class NonFiniteState(TritailError, FloatingPointError):
    """A simulated state overflowed; the configuration is not stationary."""


class DegenerateTail(TritailError, ValueError):
    """The top order statistics are tied; a tail index cannot be estimated."""


class EmptyTail(TritailError, ValueError):
    """Too few sample points above the requested threshold."""


class NonPositiveM(TritailError, ArithmeticError):
    """The normalizer E A^alpha log A came out non-positive: wrong alpha."""


class RegimeMismatch(TritailError, ValueError):
    """The requested construction needs the other tail-dominance regime."""


class TooFewExceedances(TritailError, ValueError):
    """Fewer threshold exceedances than the estimator's minimum."""


class TauNotContracting(TritailError, ValueError):
    """E A1^alpha2 >= 1: the series-weight bounds do not apply."""


class PipelineMismatch(TritailError, ValueError):
    """Two reports from different pipelines cannot be diffed."""
