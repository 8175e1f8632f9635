"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: ValidationError -> 2,
DegenerateSampleError and NonFiniteResultError -> 3; I/O failures use the
stdlib OSError -> 4.
"""


class MtgoptError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MtgoptError):
    """An input violates a documented invariant; the message names it."""


class DegenerateSampleError(MtgoptError):
    """A sample or fit is numerically degenerate (e.g. zero variance)."""


class NonFiniteResultError(MtgoptError):
    """A result to be reported is NaN or infinite."""
