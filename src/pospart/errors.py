"""Exception hierarchy.

Every deliberate failure derives from PositivePartError so callers (and the
CLI) can map failures to exit codes without string matching.  Precondition
violations are ValueErrors as well, numerical failures are not.
"""

from __future__ import annotations


class PositivePartError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(PositivePartError, ValueError):
    """An operation was called outside its documented domain."""


class DomainError(PreconditionError):
    """A mathematical kernel was evaluated at an invalid point."""


class SpecParseError(PositivePartError, ValueError):
    """Distribution mini-language input could not be parsed.

    ``offset`` is the 1-based byte position of the failure.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.bare_message = message
        self.offset = offset


class SpecSemanticError(SpecParseError):
    """Input parsed but violates a semantic invariant (e.g. weight sum)."""


class QuadratureError(PositivePartError):
    """Base class for numerical-integration failures."""


class NonFiniteIntegrand(QuadratureError):
    """The integrand returned a non-finite value at an interior node."""

    def __init__(self, t: float):
        super().__init__(f"integrand is not finite at t = {t!r}")
        self.t = t


class BudgetExceeded(QuadratureError):
    """Evaluation cap hit; ``partial`` holds the best result so far."""

    def __init__(self, partial, cap: int):
        super().__init__(f"evaluation budget of {cap} exceeded")
        self.partial = partial
        self.cap = cap


class MomentMismatch(PreconditionError):
    """Raw moments of the two specs in a difference formula disagree."""

    def __init__(self, order: int, gap: float):
        super().__init__(
            f"raw moments of order {order} differ by relative gap {gap:.3e}"
        )
        self.order = order
        self.gap = gap


class NumericalDegeneracy(PositivePartError):
    """A moment matrix is singular beyond tolerance."""


class DegenerateMoment(PositivePartError):
    """A positive-part moment underflowed to an unusable magnitude."""

    def __init__(self, t: float):
        super().__init__(f"positive-part mass is numerically zero at t = {t!r}")
        self.t = t


class BracketFailure(PositivePartError):
    """m(t) - x keeps one sign on the whole range where a root could lie."""

    def __init__(self, lo: float, hi: float, m_lo: float, m_hi: float):
        super().__init__(
            "no root of m(t) = x: m(t) - x keeps one sign on "
            f"[{lo!r}, {hi!r}], m({lo!r}) = {m_lo!r}, m({hi!r}) = {m_hi!r}"
        )
        self.bracket = (lo, hi)
        self.values = (m_lo, m_hi)


class UnmetBudget(PositivePartError):
    """An error bar ends above its budget; ``partial`` holds the integral's
    result when the bar is one."""

    def __init__(self, what: str, bar: float, budget: float, partial=None):
        super().__init__(
            f"the error bar of {what} is {bar:.3g}, above its budget {budget:.3g}"
        )
        self.bar = bar
        self.budget = budget
        self.partial = partial


class SeriesGuard(PreconditionError):
    """Naive-series oracle rejected: rate parameter beyond the guard."""
