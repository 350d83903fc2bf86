"""Exception types shared across the package."""

from __future__ import annotations


class RoughFormsError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSimplexError(RoughFormsError):
    """A simplex is degenerate where a nondegenerate one is required."""


class UnsupportedDimensionError(RoughFormsError):
    """The requested dimension is outside the implemented range."""


class BudgetExceededError(RoughFormsError):
    """An iteration or evaluation budget ran out before the target tolerance.

    ``partial`` carries whatever result was available at the stop, when the
    raising site has one.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NoConvergenceError(RoughFormsError):
    """Level increments of a sewing iteration stopped decreasing."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ExponentViolationError(RoughFormsError):
    """An exponent inequality required by a construction fails."""


class QuadratureBudgetError(RoughFormsError):
    """A quadrature grid would exceed the configured node budget."""


class TruncationTailError(RoughFormsError):
    """A truncated integral's tail estimate exceeds the allowed fraction."""

    def __init__(self, message, tail_fraction=None):
        super().__init__(message)
        self.tail_fraction = tail_fraction


class InsufficientSamplesError(RoughFormsError):
    """A statistical fit has a confidence interval too wide to be usable."""

    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


class ExprSyntaxError(RoughFormsError):
    """Malformed expression source. Carries 1-based line/column."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
        self.field = None  # the config field of the source, if known


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier that is neither a variable nor a known function."""


class NotDifferentiableError(RoughFormsError):
    """Symbolic differentiation hit a non-differentiable node."""


class EvalDomainError(RoughFormsError):
    """Expression evaluation left the domain (division by zero etc.)."""
