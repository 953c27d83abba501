"""Exception types shared across the toolkit."""


class PermradError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PermradError, ValueError):
    """Malformed or out-of-range input."""


class NumericError(PermradError, ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result.

    Diagnostic quantities are kept in ``details`` so callers can report them.
    """

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details
