"""Exception hierarchy shared by all modules.

Exit-code mapping for the CLI: resource exhaustion (budget, precision,
iteration) maps to exit code 3, every other error to exit code 2.
Verdict-like outcomes (a failed verification, a NotFound search) are
ordinary return values, not exceptions.
"""


class TamedynError(Exception):
    """Base class for all package errors."""


class DivisionByZero(TamedynError):
    pass


class PrecisionExhausted(TamedynError):
    """A SeriesT result is not representable: it has no term below the
    cutoff, or a sum spans more than MAX_SERIES_SPAN exponent indices."""


class RootUnavailable(TamedynError):
    """n-th root not extractable (residue characteristic divides n)."""


class PreconditionViolated(TamedynError):
    pass


class TypeIPoint(TamedynError):
    """Operation requires a point of type II or III."""


class InvalidMarks(TamedynError):
    pass


class NotTame(TamedynError):
    """A local degree is divisible by the residue characteristic.  Raised
    only where a MarkedPolynomial is built, with a witness disk."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExhausted(TamedynError):
    pass


class NotOutsideBaseDisk(TamedynError):
    pass


class NotComparable(TamedynError):
    pass


class WellDefinednessFailure(TamedynError):
    def __init__(self, message, witness_a=None, witness_b=None, level=None):
        super().__init__(message)
        self.witness_a = witness_a
        self.witness_b = witness_b
        self.level = level


class HypothesisViolated(TamedynError):
    def __init__(self, message, clause=None):
        super().__init__(message)
        self.clause = clause


class ContractionFailed(TamedynError):
    pass


class MaxIterExceeded(TamedynError):
    pass


EXHAUSTION_ERRORS = (PrecisionExhausted, BudgetExhausted, MaxIterExceeded)
