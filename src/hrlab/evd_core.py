"""Bivariate Husler-Reiss distribution: evaluation, copula, and exact sampling.

The family interpolates between complete dependence (parameter 0) and
independence (parameter +inf), with standard Gumbel marginals throughout.
All evaluation routines accept scalars or numpy arrays (broadcasting) and
are total on the declared domains: the three parameter branches are chosen
deterministically and no NaN can leak out at the branch points.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .seeding import as_lineage

_SQRT2 = math.sqrt(2.0)

# Branch thresholds.  Below ZERO_BRANCH the two-term exponent collapses onto
# the comonotone formula to within 1e-4 but starts dividing by a denormal;
# above INF_BRANCH the Gaussian factors are 1 to machine precision.
ZERO_BRANCH = 1e-12
INF_BRANCH = 1e12


@dataclass(frozen=True)
class HrParam:
    """Dependence parameter in [0, +inf]; 0 = complete dependence, inf = independence."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v < 0.0:
            raise DomainError(f"dependence parameter must lie in [0, inf], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_zero(self) -> bool:
        return self.value <= ZERO_BRANCH

    @property
    def is_inf(self) -> bool:
        return self.value >= INF_BRANCH


def as_param(lam) -> HrParam:
    """Coerce a float or HrParam into a validated HrParam."""
    if isinstance(lam, HrParam):
        return lam
    return HrParam(float(lam))


@dataclass(frozen=True)
class MixtureParams:
    """Constants of the strong-dependence mixture limit.

    tau11, tau22, tau12 are the logarithmic cross-correlation limits; lam is
    the Husler-Reiss parameter of the underlying array.  Validity requires
    tau12 <= sqrt(tau11 * tau22) (so the mixing Gaussian pair has a proper
    correlation) and lam^2 >= -tau_tilde (so the shifted parameter is real).
    """

    tau11: float
    tau22: float
    tau12: float
    lam: float

    def __post_init__(self):
        for name in ("tau11", "tau22", "tau12"):
            v = float(getattr(self, name))
            if not (v > 0.0) or math.isinf(v):
                raise DomainError(f"{name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "lam", as_param(self.lam).value)
        if self.tau12 > math.sqrt(self.tau11 * self.tau22) * (1.0 + 1e-12):
            raise DomainError(
                f"tau12={self.tau12} exceeds sqrt(tau11*tau22)="
                f"{math.sqrt(self.tau11 * self.tau22)}"
            )
        if not math.isinf(self.lam) and self.lam * self.lam + self.tau_tilde < -1e-15:
            raise DomainError(
                f"lam^2={self.lam ** 2} < -tau_tilde={-self.tau_tilde}: "
                "shifted parameter would be imaginary"
            )

    @property
    def tau_tilde(self) -> float:
        """tau12 - (tau11 + tau22)/2."""
        return self.tau12 - 0.5 * (self.tau11 + self.tau22)

    @property
    def lambda_tilde(self) -> float:
        """sqrt(lam^2 + tau_tilde), the parameter of the mixed limit law."""
        if math.isinf(self.lam):
            return math.inf
        return math.sqrt(max(0.0, self.lam * self.lam + self.tau_tilde))

    @property
    def rho_zw(self) -> float:
        """Correlation tau12 / sqrt(tau11 * tau22) of the mixing Gaussian pair."""
        return min(1.0, self.tau12 / math.sqrt(self.tau11 * self.tau22))


def _maybe_scalar(a):
    return float(a) if np.ndim(a) == 0 else a


def std_normal_cdf(z):
    """Standard Gaussian CDF, evaluated through erfc for tail accuracy."""
    out = 0.5 * special.erfc(np.negative(z) / _SQRT2)
    return _maybe_scalar(out)


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x))."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(-np.exp(-x))
    return _maybe_scalar(out)


def gumbel_quantile(u):
    """Inverse of the standard Gumbel CDF; u in [0, 1] with infinite endpoints."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        out = -np.log(-np.log(u))
    return _maybe_scalar(out)


def hr_exponent(lam, x, y):
    """Exponent V(x, y) = -log H(x, y) of the bivariate Husler-Reiss CDF.

    Satisfies max(e^-x, e^-y) <= V <= e^-x + e^-y.  +inf arguments are the
    marginalization convention (the corresponding term drops out exactly).
    """
    p = as_param(lam)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        ex = np.exp(-x)
        ey = np.exp(-y)
        if p.is_zero:
            out = np.maximum(ex, ey)
        elif p.is_inf:
            out = ex + ey
        else:
            lv = p.value
            # x == y (also at +-inf) gives a difference of exactly 0
            with np.errstate(invalid="ignore"):
                d = np.where(x == y, 0.0, x - y)
            t = d / (2.0 * lv)
            out = std_normal_cdf(lv + t) * ey + std_normal_cdf(lv - t) * ex
    return _maybe_scalar(out)


def hr_cdf(lam, x, y):
    """Bivariate Husler-Reiss CDF on the Gumbel scale.

    Parameter 0 gives min(Gumbel(x), Gumbel(y)); +inf gives the product law.
    """
    out = np.exp(-np.asarray(hr_exponent(lam, x, y)))
    return _maybe_scalar(out)


def hr_cdf_dx(lam, x, y):
    """Partial derivative of hr_cdf in its first argument (finite branch only).

    The product rule on exp(-V) leaves H * Phi(lam + (y-x)/(2 lam)) * e^-x:
    the two Gaussian-density terms cancel exactly because
    phi(a) e^-y == phi(b) e^-x whenever a^2 - b^2 = 2(x - y).
    """
    p = as_param(lam)
    if p.is_zero or p.is_inf:
        raise DomainError("hr_cdf_dx is defined on the finite parameter branch only")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore"):
        d = np.where(x == y, 0.0, y - x)
    b = p.value + d / (2.0 * p.value)
    with np.errstate(over="ignore"):
        out = np.asarray(hr_cdf(p, x, y)) * std_normal_cdf(b) * np.exp(-x)
    return _maybe_scalar(out)


def hr_copula(lam, u, v):
    """Copula C(u, v) = H(Gumbel^-1(u), Gumbel^-1(v)) of the family.

    Boundary values are exact; the parameter edges reduce to min(u, v) and
    u * v without passing through the quantile transform.
    """
    p = as_param(lam)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)) or np.any((v < 0.0) | (v > 1.0)):
        raise DomainError("copula arguments must lie in [0, 1]")
    if p.is_zero:
        return _maybe_scalar(np.minimum(u, v))
    if p.is_inf:
        return _maybe_scalar(u * v)
    interior = hr_cdf(p, gumbel_quantile(u), gumbel_quantile(v))
    out = np.asarray(interior, dtype=float).copy()
    # pin the boundaries: C(u,1)=u, C(1,v)=v, C(u,0)=C(0,v)=0
    out = np.where((u == 0.0) | (v == 0.0), 0.0, out)
    out = np.where(u == 1.0, v, out)
    out = np.where(v == 1.0, u, out)
    out = np.where((u == 1.0) & (v == 1.0), 1.0, out)
    return _maybe_scalar(out)


def _cond_cdf(lam, x, y, ex):
    # P(Y <= y | X = x) = dH/dx(x, y) / dH/dx(x, +inf)
    #                   = exp(e^-x - V(x, y)) * Phi(lam + (y-x)/(2 lam)),
    # with ex = e^-x.  V is hr_exponent's finite branch in its operation order:
    # its Phi(lam - (x-y)/(2 lam)) is the same float as Phi(b), since
    # x - y == -(y - x) exactly
    d = np.where(x == y, 0.0, y - x)
    q = d / (2.0 * lam)
    phi_b = std_normal_cdf(lam + q)
    with np.errstate(over="ignore"):
        v = std_normal_cdf(lam - q) * np.exp(-y) + phi_b * ex
        return np.exp(ex - v) * phi_b


_UNIT_LO = 2.0**-53
_UNIT_HI = 1.0 - 2.0**-53
_QUANTILE_TOL = 1e-10  # absolute bisection tolerance on y
_BRACKET_STEPS = 130   # doublings allowed to bracket each root


def _conditional_quantile(lam, x, q):
    """Solve the conditional CDF given X=x for each target level q.

    Bracketed bisection; the conditional CDF is continuous and strictly
    increasing in y, so failure to bracket indicates a bug and raises.
    """
    gq = gumbel_quantile(q)
    ex = np.exp(-x)  # x >= -ln(53 ln 2): no overflow
    pad = 2.0 * lam * lam + 2.0
    lo = np.minimum(x, gq) - pad
    hi = np.maximum(x, gq) + pad

    step = 1.0
    for _ in range(_BRACKET_STEPS):
        bad = _cond_cdf(lam, x, lo, ex) > q
        if not bad.any():
            break
        lo = np.where(bad, lo - step, lo)
        step *= 2.0
    else:
        raise RuntimeError("failed to bracket conditional quantile from below")
    step = 1.0
    for _ in range(_BRACKET_STEPS):
        bad = _cond_cdf(lam, x, hi, ex) < q
        if not bad.any():
            break
        hi = np.where(bad, hi + step, hi)
        step *= 2.0
    else:
        raise RuntimeError("failed to bracket conditional quantile from above")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = _cond_cdf(lam, x, mid, ex) <= q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) <= _QUANTILE_TOL:
            break
    else:
        raise RuntimeError("conditional quantile bisection did not converge")
    return 0.5 * (lo + hi)


def hr_sample(lam, count, seed):
    """Draw iid pairs from the bivariate Husler-Reiss law.

    X comes from the Gumbel marginal by inversion; Y from the exact
    conditional CDF via the analytic dH/dx and bracketed root-finding
    (absolute tolerance 1e-10 on y).  Returns an array of shape (count, 2).
    The draw layout (one uniform block per coordinate) is part of the
    determinism contract.
    """
    p = as_param(lam)
    count = int(count)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = as_lineage(seed).generator()
    u1 = np.clip(rng.random(count), _UNIT_LO, _UNIT_HI)
    u2 = np.clip(rng.random(count), _UNIT_LO, _UNIT_HI)
    x = gumbel_quantile(u1)
    if p.is_zero:
        y = x.copy()
    elif p.is_inf:
        y = gumbel_quantile(u2)
    else:
        y = _conditional_quantile(p.value, x, u2)
    return np.column_stack([x, y])
