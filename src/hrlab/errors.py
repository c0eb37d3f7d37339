"""Exception types shared across the package, and the coercion of count
arguments that refuses with them."""


class HrlabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HrlabError, ValueError):
    """An argument violates a documented precondition."""


class ModelError(HrlabError, RuntimeError):
    """A generative model is internally inconsistent (e.g. non-PSD correlation).

    ``minor_index`` carries the order of the first non-positive leading minor
    when the failure comes from a Cholesky factorization, else None.
    """

    def __init__(self, message, minor_index=None):
        super().__init__(message)
        self.minor_index = minor_index


def _count(value, name):
    """``value`` as ``int(value)`` gives it; where ``int`` fails (an inf or NaN
    count) the refusal is a DomainError."""
    try:
        return int(value)
    except (OverflowError, ValueError):
        raise DomainError(f"{name} must be a finite integer, got {value}") from None
