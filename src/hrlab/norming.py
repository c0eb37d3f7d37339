"""Normalizing sequences for Gaussian row maxima and the correlation calibration.

The affine map u_n(s) = a_n * s + b_n rescales row maxima so that they
converge to the Gumbel law, and the calibration (1 - rho_0(n)) * ln(n) = lam^2
links the within-pair correlation of row n to the dependence parameter.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .evd_core import HrParam, as_param


@dataclass(frozen=True)
class Norming:
    """Row size n with its normalizing constants a_n > 0 and b_n."""

    n: int
    a: float
    b: float

    def u(self, s):
        """The affine map u_n(s) = a_n * s + b_n (exact; broadcasts)."""
        out = self.a * np.asarray(s, dtype=float) + self.b
        return float(out) if out.ndim == 0 else out


def norming_constants(n: int) -> Norming:
    """Norming constants a_n = 1/sqrt(2 ln n), b_n = sqrt(2 ln n) - ln(4 pi ln n)/(2 sqrt(2 ln n))."""
    n = int(n)
    if n < 2:
        raise DomainError(f"row size must be >= 2, got {n}")
    r = math.sqrt(2.0 * math.log(n))
    return Norming(n=n, a=1.0 / r, b=r - math.log(4.0 * math.pi * math.log(n)) / (2.0 * r))


def rho0_from_lambda(lam, n: int) -> float:
    """Within-pair correlation rho_0(n) = 1 - lam^2 / ln(n) of row n.

    Rejects the infinite parameter (no single finite-n correlation is
    canonical there) and lam^2 > 2 ln(n) (correlation below -1).
    """
    p = as_param(lam)
    n = int(n)
    if n < 2:
        raise DomainError(f"row size must be >= 2, got {n}")
    if math.isinf(p.value):
        raise DomainError(
            "the infinite dependence parameter has no canonical finite-n "
            "correlation; supply rho_0(n) directly"
        )
    ell = math.log(n)
    # relative slack of a few ulps keeps the legal boundary lam = sqrt(2 ln n)
    # (rho_0 = -1) from being rejected after rounding
    if p.value * p.value > 2.0 * ell * (1.0 + 4e-16):
        raise DomainError(
            f"lam^2={p.value ** 2:g} exceeds 2 ln(n)={2 * ell:g}; "
            "the implied correlation would fall below -1"
        )
    return max(-1.0, 1.0 - p.value * p.value / ell)


def lambda_from_rho0(rho: float, n: int) -> HrParam:
    """Invert the calibration: lam = sqrt((1 - rho) * ln(n))."""
    rho = float(rho)
    n = int(n)
    if n < 2:
        raise DomainError(f"row size must be >= 2, got {n}")
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    return HrParam(math.sqrt((1.0 - rho) * math.log(n)))
