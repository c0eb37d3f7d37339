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


def _count(value, name, least=None, most=None):
    """``value`` as an int, the one count rule of the package: an inf, NaN or
    non-integral value (2.5, or a string of digits) is refused with a
    DomainError, and so is an integer below ``least`` or above ``most`` where
    that bound is given."""
    try:
        n = int(value)
    except (OverflowError, ValueError):
        n = None
    if n is None or n != value:
        raise DomainError(f"{name} must be a finite integer, got {value}")
    if (least is not None and n < least) or (most is not None and n > most):
        rule = (f"be >= {least}" if most is None else f"be <= {most}" if least is None
                else f"lie in [{least}, {most}]")
        raise DomainError(f"{name} must {rule}, got {n}")
    return n
