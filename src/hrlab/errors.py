"""Exception types shared across the package, and the coercions that refuse
with them: ``_count`` for counts, ``_real`` for scalar reals, ``_floats`` for
arrays, ``_seq`` for containers and ``_instance`` for objects.  A value that
none can take is a DomainError."""

import numpy as np


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
    except (OverflowError, TypeError, ValueError):
        n = None
    if n is None or n != value:
        raise DomainError(f"{name} must be a finite integer, got {value}")
    if (least is not None and n < least) or (most is not None and n > most):
        rule = (f"be >= {least}" if most is None else f"be <= {most}" if least is None
                else f"be {least}" if least == most else f"lie in [{least}, {most}]")
        raise DomainError(f"{name} must {rule}, got {n}")
    return n


def _real(value, name, least=None, most=None, above=None, below=None):
    """``value`` as a float, the one real-number rule of the package: NaN, None,
    text, anything ``float()`` refuses and a value outside the inclusive bounds
    ``least``/``most`` or the strict ``above``/``below`` are a DomainError
    (``phi must lie in (-1, 1), got 1.0``); with no bounds, +-inf is kept."""
    try:
        v = None if isinstance(value, (str, bytes, bytearray)) else float(value)
    except (OverflowError, TypeError, ValueError):
        v = None
    if (v is None or v != v or (least is not None and v < least)
            or (most is not None and v > most) or (above is not None and v <= above)
            or (below is not None and v >= below)):
        lo = f"[{least:g}" if least is not None else f"({above:g}" if above is not None else "[-inf"
        hi = f"{most:g}]" if most is not None else f"{below:g})" if below is not None else "inf]"
        raise DomainError(f"{name} must lie in {lo}, {hi}, got {repr(value) if v is None else v}")
    return v


def _floats(a):
    """``a`` as float64 where numpy holds it as bools, integers or floats (a float64
    array as itself, NaN kept); text, None and other objects are a DomainError."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind in "biuf":
            return arr.astype(float, copy=False)
    except ValueError:  # a ragged nesting
        pass
    raise DomainError(f"expected real numbers, got {a!r:.60}")


def _seq(value, name, least=None, most=None):
    """``tuple(value)``, the one sequence rule: text, what ``tuple()`` cannot
    iterate and a length outside ``least``/``most`` (by ``_count``) are a DomainError."""
    if isinstance(value, (str, bytes, bytearray)) or not np.iterable(value):
        raise DomainError(f"{name} must be a sequence, got {value!r:.60}")
    seq = tuple(value)
    _count(len(seq), f"the length of {name}", least, most)
    return seq


def _instance(value, kind, name):
    """``value`` where it is a ``kind`` (a class or a union of classes), the one
    object rule: anything else, None included, is a DomainError."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in getattr(kind, "__args__", (kind,)))
        raise DomainError(f"{name} must be {names}, got {value!r:.60}")
    return value
