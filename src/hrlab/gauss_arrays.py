"""Generative models for bivariate stationary Gaussian triangular arrays.

Three variants:

* ``WeakAR1Model`` couples two AR(1) chains through correlated innovations,
  giving geometrically decaying lag correlations (weak dependence) with the
  within-pair correlation calibrated to the dependence parameter.  O(n).
* ``StrongFactorModel`` adds a shared row-level Gaussian factor so that all
  lagged correlations equal tau_ij / ln(n) (strong dependence).  O(n).
* ``ExplicitModel`` takes arbitrary stationary lag-correlation functions and
  samples through a dense Cholesky factorization (desk-scale n only).

Every sampler is deterministic given a seed lineage; one child stream per
row/replication is part of the contract, so results are identical under any
worker schedule.  A model samples in two steps.  ``_sample(n, rng, out)`` draws
one row's standard normals into ``out``, a row of the model's draw layout
(shape ``_layout(m)`` for a block whose largest row size is m >= n).
``_rows(block, sizes)`` then turns a (B, *layout) block of such rows, whose
sizes do not decrease, into their (B, 2, m) values in one batch; row i is
valid on its first ``sizes[i]`` columns.  ``sample_row`` is a block of one row.

``scipy.signal`` (the AR(1) filter) and ``scipy.linalg`` (LAPACK's Cholesky)
are loaded on first use, so importing the package does not pay for them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ModelError
from .norming import rho0_from_lambda
from .evd_core import MixtureParams, as_param
from .seeding import SeedLineage, as_lineage

_PAIRS = ((1, 1), (1, 2), (2, 2))

EXPLICIT_MAX_N = 4000  # dense 2n x 2n correlation matrix and Cholesky ceiling


@dataclass(frozen=True)
class RowSample:
    """One row of the array: two length-n components plus its seed lineage."""

    n: int
    x1: np.ndarray
    x2: np.ndarray
    seed_lineage: SeedLineage


def _pair(block, rho):
    """Turn the two iid standard-normal components on the first axis of
    ``block`` into a pair with correlation rho, in place: component 1 becomes
    rho z0 + sqrt(1 - rho^2) z1.  ``rho`` is a scalar or broadcasts against a
    component."""
    block[1] *= np.sqrt(np.maximum(0.0, 1.0 - rho * rho))
    block[1] += rho * block[0]
    return block


def _fill(rng, comps, n):
    """Standard normals into the first n columns of the contiguous (2, m)
    array ``comps``, in the order of one (2, n) draw: one draw per component
    when n < m, which equals it."""
    if comps.shape[-1] == n:
        rng.standard_normal(out=comps)
    else:
        for comp in comps:
            rng.standard_normal(out=comp[:n])


def _by_size(fn, sizes):
    """``fn(n)`` for the nondecreasing row sizes of a block, stacked on a
    leading axis: one entry when the sizes are all equal, else one per row."""
    if sizes[0] == sizes[-1]:
        return np.array([fn(sizes[0])])
    return np.array([fn(n) for n in sizes])


@lru_cache(maxsize=None)
def _lfilter():
    """scipy's linear filter; ``scipy.signal`` is imported on the first call."""
    from scipy.signal import lfilter

    return lfilter


def _ar1_path(phi, start, innovations):
    """Stationary AR(1) paths along the last axis: x_k = phi x_{k-1} +
    sqrt(1-phi^2) eps_k, x_0 = start (one start per path).  With phi = 0 the
    innovations are the paths and are returned as they are."""
    if phi == 0.0:
        return innovations
    scaled = math.sqrt(1.0 - phi * phi) * innovations
    zi = np.multiply(phi, start)[..., None]
    return _lfilter()([1.0], [1.0, -phi], scaled, zi=zi)[0]


def _first_size(ell):
    """Smallest row size n >= 2 with ln(n) >= ell."""
    if ell >= math.log(10**9):
        raise DomainError("no valid row size below 1e9")
    n = max(2, math.floor(math.exp(ell)))
    while math.log(n) < ell:
        n += 1
    return n


class _RowSizeRule:
    """Valid row sizes are exactly n >= min_n(), the model's one row-size rule."""

    def validate_n(self, n: int):
        least = self.min_n()
        if n < least:
            raise DomainError(f"row size must be >= {least} for this model, got {n}")


@dataclass(frozen=True)
class WeakAR1Model(_RowSizeRule):
    """Coupled-innovation AR(1) pair; lag correlations phi^k and rho_0(n) phi^k."""

    lam: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "lam", as_param(self.lam).value)
        phi = float(self.phi)
        if not -1.0 < phi < 1.0:
            raise DomainError(f"phi must lie in (-1, 1), got {phi}")
        object.__setattr__(self, "phi", phi)

    def rho0(self, n: int) -> float:
        # the infinite parameter corresponds to independent components
        if math.isinf(self.lam):
            return 0.0
        return rho0_from_lambda(self.lam, n)

    def min_n(self) -> int:
        """Smallest valid row size: rho_0(n) >= -1 exactly when ln n >= lam^2/2."""
        return _first_size(0.0 if math.isinf(self.lam) else self.lam * self.lam / 2.0)

    def lag_corr_array(self, i, j, lags, n):
        # pow costs about 70 ns a lag once phi^k underflows to a signed zero
        # (|phi|^k < 2^-1075), so it runs only where |phi|^k >= 2^-1100: 25
        # binades of margin cover any rounding of the cut.  Past the cut the
        # zero is -0.0 at odd integer k when phi is negative, as pow gives it;
        # a negative phi keeps pow at non-integer k, where it gives NaN.
        k = np.asarray(lags, dtype=float)
        phi = self.phi
        far = k > (1100.0 / -math.log2(abs(phi)) if phi else 0.0)
        base = np.zeros(k.shape)
        if math.copysign(1.0, phi) < 0.0:
            far &= k == np.floor(k)
            np.negative(base, out=base, where=far & (np.floor(0.5 * k) != 0.5 * k))
        np.power(phi, k, out=base, where=~far)
        if i != j:  # in place: the bound sums call this on a million lags at once
            base *= self.rho0(n)
        return base

    def _layout(self, n):
        # a (2, n+1) normal block: column 0 seeds the stationary start,
        # columns 1..n are the innovations
        return (2, n + 1)

    def _sample(self, n, rng, out):
        _fill(rng, out, n + 1)

    def _rows(self, block, sizes):
        _pair(block.swapaxes(0, 1), _by_size(self.rho0, sizes)[:, None])
        return _ar1_path(self.phi, block[:, :, 0], block[:, :, 1:])


@dataclass(frozen=True)
class StrongFactorModel(_RowSizeRule):
    """Shared-factor construction with constant lagged correlations tau_ij / ln(n)."""

    mix: MixtureParams

    def taus(self, n: int) -> tuple[float, float, float]:
        ell = math.log(n)
        return (self.mix.tau11 / ell, self.mix.tau22 / ell, self.mix.tau12 / ell)

    def rho0(self, n: int) -> float:
        return rho0_from_lambda(self.mix.lam, n)

    def residual_corr(self, n: int) -> float:
        t11, t22, t12 = self.taus(n)
        return (self.rho0(n) - t12) / math.sqrt((1.0 - t11) * (1.0 - t22))

    def min_n(self) -> int:
        """Smallest valid row size.  With L = ln n, g = sqrt(tau11 tau22) and
        d = (tau11 + tau22)/2 - g, n is valid exactly when L > max(tau11, tau22),
        L >= lam^2/2 and L >= (lam^2 + tau12 + g)/2 * (1 + d/lambda_tilde^2)."""
        mp = self.mix
        lam2 = mp.lam * mp.lam
        g = math.sqrt(mp.tau11 * mp.tau22)
        d = 0.5 * (math.sqrt(mp.tau11) - math.sqrt(mp.tau22)) ** 2
        lt2 = lam2 + mp.tau_tilde
        # lambda_tilde^2 <= 0 is zero up to rounding: feasible only if d = 0
        span = 1.0 + d / lt2 if lt2 > 0.0 else (1.0 if d == 0.0 else math.inf)
        above_taus = math.nextafter(max(mp.tau11, mp.tau22), math.inf)
        return _first_size(max(above_taus, lam2 / 2.0, 0.5 * (lam2 + mp.tau12 + g) * span))

    def lag_corr_array(self, i, j, lags, n):
        t11, t22, t12 = self.taus(n)
        return np.full(np.shape(lags), {(1, 1): t11, (2, 2): t22}.get((i, j), t12))

    def _layout(self, n):
        # drawn in this order: the factor pair (2,), then the (2, n) residuals
        return (2 * n + 2,)

    def _sample(self, n, rng, out):
        rng.standard_normal(out=out[:2])
        _fill(rng, out[2:].reshape(2, -1), n)

    def _rows(self, block, sizes):
        # component i becomes sqrt(tau_ii) z0_i + sqrt(1 - tau_ii) r_i, in place
        z0, x = block[:, :2], block[:, 2:].reshape(len(block), 2, -1)
        t = _by_size(self.taus, sizes)[:, :2, None]
        _pair(z0.T, self.mix.rho_zw)
        _pair(x.swapaxes(0, 1), _by_size(self.residual_corr, sizes)[:, None])
        x *= np.sqrt(1.0 - t)
        x += np.sqrt(t) * z0[:, :, None]
        return x


@dataclass(frozen=True)
class ExplicitModel(_RowSizeRule):
    """Arbitrary stationary correlation structure, sampled via dense Cholesky.

    ``rho0_fn(n)`` gives the within-pair correlation; ``rho_fn(i, j, k, n)``
    the lag-k correlation of components i and j.  Positive semi-definiteness
    is checked at sampling time; failures raise ModelError with the failing
    leading minor (no silent repair).
    """

    rho0_fn: Callable[[int], float]
    rho_fn: Callable[[int, int, int, int], float]
    label: str = "explicit"

    def rho0(self, n: int) -> float:
        return float(self.rho0_fn(n))

    def min_n(self) -> int:
        return 2

    def lag_corr_array(self, i, j, lags, n):
        return np.array([self.rho_fn(i, j, int(k), n) for k in np.asarray(lags).ravel()])

    def correlation_matrix(self, n: int) -> np.ndarray:
        """Interleaved 2n x 2n correlation matrix (index 2k+i-1 is X_k^(i)).

        Entry (X_a^(i), X_b^(j)) is rho_fn(i, j, b-a) when b >= a and
        rho_fn(j, i, a-b) when b < a, so the matrix is symmetric by construction.
        Sizes above EXPLICIT_MAX_N are refused (cost guard).
        """
        if n > EXPLICIT_MAX_N:
            raise DomainError(f"explicit models are capped at n={EXPLICIT_MAX_N} "
                              f"(dense 2n x 2n matrix), got {n}")
        back = np.subtract.outer(np.arange(n), np.arange(n))  # a - b
        lag = np.abs(back)
        vals = {}
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            v = vals[i, j] = np.empty(n)
            v[0] = 1.0 if i == j else self.rho0(n)
            v[1:] = self.lag_corr_array(i, j, np.arange(1, n), n)
        sigma = np.empty((2 * n, 2 * n))
        for i, j in vals:
            sigma[i - 1 :: 2, j - 1 :: 2] = np.where(back <= 0, vals[i, j][lag], vals[j, i][lag])
        return sigma

    def _layout(self, n):
        # 2n normals, interleaved as the rows of ``correlation_matrix``
        return (2 * n,)

    def _sample(self, n, rng, out):
        rng.standard_normal(out=out[: 2 * n])

    def _rows(self, block, sizes):
        # one matrix-vector product per row: a batched product rounds differently
        x = np.empty((len(block), 2, block.shape[1] // 2))
        for row, v, n in zip(x, block, sizes):
            row[:, :n] = (_explicit_factor(self, n) @ v[: 2 * n]).reshape(n, 2).T
        return x


# one factor: every consumer samples a single (model, n) at a time, and a
# factor at EXPLICIT_MAX_N is 512 MB
@lru_cache(maxsize=1)
def _explicit_factor(model: ExplicitModel, n: int) -> np.ndarray:
    from scipy.linalg import lapack

    sigma = model.correlation_matrix(n)
    c, info = lapack.dpotrf(sigma, lower=1)
    if info > 0:
        raise ModelError(
            f"correlation matrix of model {model.label!r} at n={n} is not "
            f"positive definite: leading minor of order {info} fails",
            minor_index=int(info),
        )
    if info < 0:
        raise ModelError(f"dpotrf rejected argument {-info}")
    return np.tril(c)


ArrayModel = WeakAR1Model | StrongFactorModel | ExplicitModel


def sample_row(model: ArrayModel, n: int, seed) -> RowSample:
    """Sample one row of the triangular array; bit-identical for equal seeds."""
    lineage = as_lineage(seed)
    n = int(n)
    model.validate_n(n)
    block = np.zeros((1, *model._layout(n)))
    model._sample(n, lineage.generator(), out=block[0])
    x1, x2 = model._rows(block, [n])[0]
    return RowSample(n=n, x1=x1, x2=x2, seed_lineage=lineage)


def induced_correlation(model: ArrayModel, i: int, j: int, k: int, n: int) -> float:
    """Exact model correlation of X_s^(i) and X_{s+k}^(j) within row n."""
    if i not in (1, 2) or j not in (1, 2):
        raise DomainError(f"component indices must be 1 or 2, got ({i}, {j})")
    k = int(k)
    if k < 0 or k >= int(n):
        raise DomainError(f"lag must satisfy 0 <= k < n, got k={k}, n={n}")
    if k == 0:
        return 1.0 if i == j else model.rho0(int(n))
    return float(model.lag_corr_array(i, j, [k], int(n))[0])


def row_extremes(row: RowSample) -> tuple[float, float, float, float]:
    """Componentwise (max1, max2, min1, min2) of a row."""
    if row.n < 1:
        raise DomainError("row must be non-empty")
    return (
        float(np.max(row.x1)),
        float(np.max(row.x2)),
        float(np.min(row.x1)),
        float(np.min(row.x2)),
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Evaluation of a dependence-decay assumption along a grid of row sizes.

    For the weak (Berman-type) assumption the per-n statistic is
    max_{cutoff <= k < n} |rho_ij(k, n)| ln(n); for the strong-dependence
    assumption it is max_{cutoff <= k < n} |rho_ij(k, n) ln(k) - tau_ij|.
    ``decaying`` is True when the statistic strictly decreases over the last
    three grid points.
    """

    assumption: str
    n_grid: tuple[int, ...]
    sigma_or_delta: float
    alpha_or_varpi: float
    cutoff: tuple[int, ...]
    statistic: tuple[float, ...]
    decaying: bool


def _scan_abs_corr(model, n):
    lags = np.arange(1, n)
    worst = 0.0
    for i, j in _PAIRS:
        worst = max(worst, float(np.max(np.abs(model.lag_corr_array(i, j, lags, n)))))
    return worst


def validate_assumption(model: ArrayModel, which: str, n_grid, alpha: float,
                        tau=None) -> AssumptionReport:
    """Evaluate assumption "A1" (weak) or "A2" (strong) on a grid of row sizes.

    ``alpha`` is the cutoff exponent (cutoff = floor(n^alpha)); it must lie in
    (0, (1 - s) / (1 + s)) where s is the largest absolute lag correlation
    scanned at the largest grid n.  For A2, ``tau`` supplies (tau11, tau12,
    tau22); it defaults to the model's own mixture constants when present.
    """
    if which not in ("A1", "A2"):
        raise DomainError(f"assumption must be 'A1' or 'A2', got {which!r}")
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or any(n < 2 for n in n_grid) or list(n_grid) != sorted(set(n_grid)):
        raise DomainError("n_grid must be a non-empty strictly increasing list of ints >= 2")
    for n in n_grid:
        model.validate_n(n)

    bound = _scan_abs_corr(model, max(n_grid))
    if bound >= 1.0:
        raise DomainError(f"lag correlations must stay below 1, scan found {bound}")
    admissible = (1.0 - bound) / (1.0 + bound)
    alpha = float(alpha)
    if not 0.0 < alpha < admissible:
        raise DomainError(
            f"alpha={alpha:g} outside the admissible range (0, {admissible:g}) "
            f"implied by the dependence bound {bound:g}"
        )

    if which == "A2":
        if tau is None:
            if isinstance(model, StrongFactorModel):
                tau = (model.mix.tau11, model.mix.tau12, model.mix.tau22)
            else:
                raise DomainError("A2 needs tau=(tau11, tau12, tau22) for this model")
        tau_by_pair = {(1, 1): float(tau[0]), (1, 2): float(tau[1]), (2, 2): float(tau[2])}

    cutoffs, stats = [], []
    for n in n_grid:
        cut = max(1, int(math.floor(n**alpha)))
        lags = np.arange(cut, n)
        stat = 0.0
        for i, j in _PAIRS:
            rho = np.asarray(model.lag_corr_array(i, j, lags, n), dtype=float)
            if which == "A1":
                stat = max(stat, float(np.max(np.abs(rho))) * math.log(n))
            else:
                # ln(k) * |rho - tau/ln(k)| == |rho ln(k) - tau| in exact
                # arithmetic; this form keeps the cancellation exact when the
                # model's correlations are themselves defined as tau / ln(k)
                logs = np.log(lags.astype(float))
                dev = logs * np.abs(rho - tau_by_pair[i, j] / logs)
                stat = max(stat, float(np.max(dev)))
        cutoffs.append(cut)
        stats.append(stat)

    decaying = len(stats) >= 3 and stats[-3] > stats[-2] > stats[-1]
    return AssumptionReport(
        assumption=which,
        n_grid=n_grid,
        sigma_or_delta=bound,
        alpha_or_varpi=alpha,
        cutoff=tuple(cutoffs),
        statistic=tuple(stats),
        decaying=decaying,
    )
