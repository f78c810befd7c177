"""Exception types shared across the package."""


class DecisionToolError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(DecisionToolError):
    """Structurally invalid input: hierarchy, matrix, study document, or CSV."""


class UnknownTermError(ValidationError, LookupError):
    """A linguistic term is not part of the scale in use."""


class CompositionError(ValidationError):
    """Global-weight composition received inconsistent weight maps."""


class InfeasibleJudgmentsError(DecisionToolError):
    """No weight vector meets the judgments' zero-spread (hard) bounds.

    Carries the offending (row, col) pairs so callers can report which
    judgments conflict.
    """

    def __init__(self, message: str, pairs=()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class UndefinedStatisticError(DecisionToolError):
    """A statistic's defining formula divides by a zero variance."""
