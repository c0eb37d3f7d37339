"""Bivariate Husler-Reiss distribution: evaluation, copula, and exact sampling.

The family interpolates between complete dependence (parameter 0) and
independence (parameter +inf), with standard Gumbel marginals throughout.
All evaluation routines accept scalars or numpy arrays (broadcasting) and
are total on the declared domains: the three parameter branches are chosen
deterministically and no NaN can leak out at the branch points.

Phi goes through scipy's ``erfc`` ufunc, loaded on first use from its compiled
module ``scipy/special/_special_ufuncs`` alone (``_scipy_extension``), so no
call imports ``scipy.special`` unless that module cannot be loaded.  Importing
the package does not load it either.
"""

import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, _count, _floats, _real
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
        object.__setattr__(self, "value", _real(self.value, "dependence parameter", least=0.0))

    @property
    def is_zero(self) -> bool:
        return self.value <= ZERO_BRANCH

    @property
    def is_inf(self) -> bool:
        return self.value >= INF_BRANCH


def as_param(lam) -> HrParam:
    """Coerce a float or HrParam into a validated HrParam."""
    return lam if isinstance(lam, HrParam) else HrParam(lam)


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
            object.__setattr__(self, name, _real(getattr(self, name), name, above=0.0,
                                                 below=math.inf))
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


def _scipy_extension(subpackage, name):
    """scipy's compiled module ``scipy/<subpackage>/<name>``, loaded from its
    file alone: the subpackage's ``__init__`` does not run, and the module is
    not left in ``sys.modules`` unless it was there before.  A missing module
    raises ImportError naming the scipy version."""
    import scipy
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import module_from_spec

    finder = FileFinder(os.path.join(scipy.__path__[0], subpackage),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.{subpackage}.{name}")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled module "
                          f"scipy/{subpackage}/{name}")
    listed = spec.name in sys.modules
    module = module_from_spec(spec)  # CPython lists a new single-phase module
    spec.loader.exec_module(module)
    if not listed:
        sys.modules.pop(spec.name, None)
    return module


@lru_cache(maxsize=None)
def _erfc():
    """scipy's ``erfc`` ufunc, loaded on the first call from
    ``scipy/special/_special_ufuncs`` alone: about 1 MB, where importing
    ``scipy.special`` costs about 15 MB.  A scipy without that module or its
    ``erfc`` gets ``scipy.special.erfc``, the same ufunc."""
    try:
        return _scipy_extension("special", "_special_ufuncs").erfc
    except (ImportError, AttributeError):
        from scipy.special import erfc

        return erfc


def std_normal_cdf(z, out=None):
    """Standard Gaussian CDF, evaluated through erfc for tail accuracy.  Given
    ``out``, an array of z's shape (it may be z), every step writes there."""
    t = np.divide(np.negative(_floats(z), out=out), _SQRT2, out=out)
    t = _erfc()(t, out=out)
    return _maybe_scalar(np.multiply(0.5, t, out=out))


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x))."""
    with np.errstate(over="ignore"):
        return _maybe_scalar(np.exp(-np.exp(-_floats(x))))


def gumbel_quantile(u):
    """Inverse of the standard Gumbel CDF; u in [0, 1] with infinite endpoints."""
    u = _floats(u)
    if not np.all((u >= 0.0) & (u <= 1.0)):  # also refuses NaN
        raise DomainError("Gumbel quantile levels must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        out = -np.log(-np.log(u))
    return _maybe_scalar(out)


def hr_exponent(lam, x, y):
    """Exponent V(x, y) = -log H(x, y) of the bivariate Husler-Reiss CDF.

    Satisfies max(e^-x, e^-y) <= V <= e^-x + e^-y.  +inf arguments are the
    marginalization convention (the corresponding term drops out exactly).
    Where e^-x or e^-y overflows, V is +inf.
    """
    p = as_param(lam)
    if not (p.is_zero or p.is_inf):
        return _maybe_scalar(_finite_exponent(p.value, x, y)[1])
    with np.errstate(over="ignore"):
        ex, ey = np.exp(-_floats(x)), np.exp(-_floats(y))
        return _maybe_scalar(np.maximum(ex, ey) if p.is_zero else ex + ey)


def _exponent_rows(lam, x, y, ex, work):
    """Phi(b) and V of the finite branch, given ex = e^-x, worked in the rows
    of ``work`` (4, *shape): q = (y - x)/(2 lam), 0 where x == y (also at
    +-inf); b = lam + q; V = Phi(lam - q) e^-y + Phi(b) e^-x, where
    Phi(lam - q) is Phi(lam + (x - y)/(2 lam)) since x - y == -(y - x)
    exactly.  Returns the views (Phi(b), V); row 3 keeps e^-y."""
    q, phi_b, v, ey = (work[i, ...] for i in range(4))  # views, also when work is (4,)
    np.subtract(y, x, out=q)
    np.copyto(q, 0.0, where=np.equal(x, y))
    q /= 2.0 * lam
    std_normal_cdf(np.add(lam, q, out=phi_b), out=phi_b)
    std_normal_cdf(np.subtract(lam, q, out=v), out=v)
    v *= np.exp(np.negative(y, out=ey), out=ey)
    v += np.multiply(phi_b, ex, out=q)
    return phi_b, v


def _finite_exponent(lam, x, y):
    """(Phi(b), V, e^-x) of the finite branch; V is +inf where e^-x or e^-y overflows."""
    x, y = _floats(x), _floats(y)
    work = np.empty((4, *np.broadcast_shapes(x.shape, y.shape)))
    # x == y at +-inf is inf - inf; a Phi underflowing to 0 meets an inf e^-x or e^-y as 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.exp(-x)
        phi_b, v = _exponent_rows(lam, x, y, ex, work)
    return phi_b, np.where(np.isinf(ex) | np.isinf(work[3]), np.inf, v), ex


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
    phi(a) e^-y == phi(b) e^-x whenever a^2 - b^2 = 2(x - y).  It is 0
    wherever H is 0, also where e^-x overflows.
    """
    p = as_param(lam)
    if p.is_zero or p.is_inf:
        raise DomainError("hr_cdf_dx is defined on the finite parameter branch only")
    phi_b, v, ex = _finite_exponent(p.value, x, y)
    h = np.exp(-v)
    with np.errstate(over="ignore", invalid="ignore"):
        out = h * phi_b * ex
    return _maybe_scalar(np.where(h == 0.0, 0.0, out))


def hr_copula(lam, u, v):
    """Copula C(u, v) = H(Gumbel^-1(u), Gumbel^-1(v)) of the family.

    Boundary values are exact; the parameter edges reduce to min(u, v) and
    u * v without passing through the quantile transform.
    """
    p = as_param(lam)
    u, v = _floats(u), _floats(v)
    if not (np.all((u >= 0.0) & (u <= 1.0)) and np.all((v >= 0.0) & (v <= 1.0))):
        raise DomainError("copula arguments must lie in [0, 1]")  # also refuses NaN
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


def _cond_cdf(lam, x, y, ex, out=None, work=None):
    # P(Y <= y | X = x) = dH/dx(x, y) / dH/dx(x, +inf) = exp(e^-x - V(x, y)) * Phi(b),
    # with ex = e^-x.  Phi(b) and V come from _exponent_rows in the rows of
    # ``work``, the result goes to ``out``; both are allocated when not given
    if work is None:
        work = np.empty((4, *np.broadcast_shapes(np.shape(x), np.shape(y))))
    with np.errstate(over="ignore"):
        phi_b, v = _exponent_rows(lam, x, y, ex, work)
        np.exp(np.subtract(ex, v, out=v), out=v)
        return np.multiply(v, phi_b, out=out)


_UNIT_LO = 2.0**-53
_UNIT_HI = 1.0 - 2.0**-53
_QUANTILE_TOL = 1e-10  # absolute bisection tolerance on y
_BRACKET_STEPS = 130   # doublings allowed to bracket each root


def _conditional_quantile(lam, x, q):
    """Solve the conditional CDF given X=x for each target level q.

    Bracketed bisection; the conditional CDF is continuous and strictly
    increasing in y, so failure to bracket indicates a bug and raises.  The
    bounds, midpoints, CDF values, flags and ``_cond_cdf``'s work rows live in
    buffers allocated once per solve.
    """
    ex = np.exp(-x)  # x >= -ln(53 ln 2): no overflow
    pad = 2.0 * lam * lam + 2.0
    gq = gumbel_quantile(q)
    lo = np.minimum(x, gq)
    lo -= pad
    hi = np.maximum(x, gq, out=gq)
    hi += pad
    mid, cdf = np.empty((2, x.size))
    work = np.empty((4, x.size))
    flag = np.empty(x.size, dtype=bool)

    # widen lo while its CDF is above q, then hi while its CDF is below q
    for bound, beyond, widen in ((lo, np.greater, np.subtract), (hi, np.less, np.add)):
        step = 1.0
        for _ in range(_BRACKET_STEPS):
            if not beyond(_cond_cdf(lam, x, bound, ex, cdf, work), q, out=flag).any():
                break
            widen(bound, step, out=bound, where=flag)
            step *= 2.0
        else:
            raise RuntimeError("failed to bracket conditional quantile")

    # each step moves mid into lo where cdf(mid) <= q and into hi elsewhere,
    # by a bitwise select on the uint64 views: exact, and free of the
    # per-element branch a masked copy takes on random flags.  The mask lives
    # in the cdf row and the select's scratch in a work row
    lo_u, hi_u, mid_u = lo.view(np.uint64), hi.view(np.uint64), mid.view(np.uint64)
    mask, bits = cdf.view(np.uint64), work[0].view(np.uint64)
    for _ in range(200):
        np.multiply(0.5, np.add(lo, hi, out=mid), out=mid)
        np.less_equal(_cond_cdf(lam, x, mid, ex, cdf, work), q, out=flag)
        np.negative(flag, out=mask, dtype=np.uint64)  # all ones where flag
        np.bitwise_and(np.bitwise_xor(lo_u, mid_u, out=bits), mask, out=bits)
        lo_u ^= bits                                   # lo = mid where flag
        np.bitwise_and(np.bitwise_xor(mid_u, hi_u, out=bits), mask, out=bits)
        np.bitwise_xor(mid_u, bits, out=hi_u)          # hi = mid elsewhere
        if np.subtract(hi, lo, out=mid).max() <= _QUANTILE_TOL:
            break
    else:
        raise RuntimeError("conditional quantile bisection did not converge")
    return np.multiply(0.5, np.add(lo, hi, out=mid), out=mid)


def hr_sample(lam, count, seed):
    """Draw iid pairs from the bivariate Husler-Reiss law.

    X comes from the Gumbel marginal by inversion; Y from the exact
    conditional CDF via the analytic dH/dx and bracketed root-finding
    (absolute tolerance 1e-10 on y).  Returns an array of shape (count, 2).
    The draw layout (one uniform block per coordinate) is part of the
    determinism contract.
    """
    p = as_param(lam)
    count = _count(count, "count", 1)
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
