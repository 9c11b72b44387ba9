"""Exception types shared across the package."""

from __future__ import annotations


class ValfunError(Exception):
    """Base class for all package errors."""


class ParseError(ValfunError):
    """Syntax error in an expression string."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ProblemFormatError(ValfunError):
    """Structurally invalid problem description (bad keys, dimensions, indices)."""


class EvaluationError(ValfunError):
    """Expression evaluation failed, e.g. division by zero at the query point."""


class DimensionError(ValfunError):
    """An array argument has the wrong shape for the problem dimensions."""


class InfeasibleParameterError(ValfunError):
    """The inner feasible set is empty at the requested parameter.

    The model assumes a nonempty solution set at every parameter of
    interest; callers should treat this as a modelling error, not a
    numerical one.
    """


class UnboundedProblemError(ValfunError):
    """The inner problem has no finite minimum at the requested parameter."""


class KktValidationError(ValfunError):
    """A supplied (x, y, u) triple violates the KKT residual tolerance."""


class HypothesisError(ValfunError):
    """A hard hypothesis of the requested estimate fails (e.g. MFCQ)."""


class DegeneracyError(ValfunError):
    """A linear system required by the requested route is singular or
    violates strict complementarity."""


class CaseRoutingError(ValfunError):
    """No implemented estimate applies to the detected problem structure."""


class BranchCapError(ValfunError):
    """The branch enumeration would exceed the configured cap."""


class LpStatusError(ValfunError):
    """The pivoting routine behind a set query found a float point off its
    rows at their tolerance: the query is undecided, and no piece dropped."""


class UsageError(ValfunError):
    """Bad command-line arguments."""
