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
valid on its first ``sizes[i]`` columns.  ``sample_row`` is a block of one row
drawn from the seed's own stream.  The one loop that draws many rows, block by
block, is ``experiments._row_blocks``: ``experiments.sample_rows`` copies its
rows out and the Monte Carlo laws reduce them.

The AR(1) filter is scipy's compiled ``_linear_filter``, loaded on first use
from its extension module alone by ``evd_core._scipy_extension``, the loader
of scipy's ``erfc``: ``scipy.signal`` is never imported.
``scipy.linalg`` (LAPACK's Cholesky) is loaded on first use.  So importing the
package pays for neither.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ModelError, _count, _instance, _real, _seq
from .norming import rho0_from_lambda
from .evd_core import MixtureParams, _scipy_extension, as_param
from .seeding import SeedLineage, as_lineage

_PAIRS = ((1, 1), (1, 2), (2, 2))

# bytes of float64 work per block: the drawn variates of a block of rows, and
# the lags of one leaf of a correlation scan or bound sum
_BLOCK_BYTES = 1 << 18

EXPLICIT_MAX_N = 4000  # dense 2n x 2n correlation matrix and Cholesky ceiling
NGRID_MAX = 10**8  # the largest row size of a lag scan or bound sum, O(n) each


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
    """scipy's compiled linear filter, ``_linear_filter`` of
    ``scipy/signal/_sigtools``, loaded on the first call without importing
    ``scipy.signal``, which would cost about 67 MB and 0.8 s."""
    return _scipy_extension("signal", "_sigtools")._linear_filter


def _ar1_path(phi, start, innovations):
    """Stationary AR(1) paths along the last axis: x_k = phi x_{k-1} +
    sqrt(1-phi^2) eps_k, x_0 = start (one start per path).  With phi = 0 the
    innovations are the paths and are returned as they are; otherwise they
    are scaled in place, which saves a block-sized temporary.  The filter gets
    the arguments ``scipy.signal.lfilter([1.0], [1.0, -phi], x, zi=zi)``
    passes it, so the paths are lfilter's to the byte."""
    if phi == 0.0:
        return innovations
    innovations *= math.sqrt(1.0 - phi * phi)
    zi = np.multiply(phi, start)[..., None]
    return _lfilter()(np.array([1.0]), np.array([1.0, -phi]), innovations, -1, zi)[0]


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

    def validate_n(self, n) -> int:
        """``n`` as an int; a row size below min_n() is refused."""
        return _count(n, "row size", self.min_n())


def _row_size(model, n):
    """``n`` as a valid row size of ``model``, where ``model`` is an ArrayModel."""
    return _instance(model, ArrayModel, "model").validate_n(n)


def _scan_sizes(model, n_grid):
    """The row sizes of the non-empty sequence ``n_grid`` as ints, each valid
    for ``model`` and at most NGRID_MAX."""
    return tuple(_row_size(model, _count(n, "row size", most=NGRID_MAX))
                 for n in _seq(n_grid, "n_grid", 1))


@dataclass(frozen=True)
class WeakAR1Model(_RowSizeRule):
    """Coupled-innovation AR(1) pair; lag correlations phi^k and rho_0(n) phi^k."""

    lam: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "lam", as_param(self.lam).value)
        object.__setattr__(self, "phi", _real(self.phi, "phi", above=-1.0, below=1.0))

    def rho0(self, n: int) -> float:
        # the infinite parameter corresponds to independent components
        if math.isinf(self.lam):
            return 0.0
        return rho0_from_lambda(self.lam, n)

    def min_n(self) -> int:
        """Smallest valid row size: rho_0(n) >= -1 exactly when ln n >= lam^2/2."""
        return _first_size(0.0 if math.isinf(self.lam) else self.lam * self.lam / 2.0)

    def lag_corr_array(self, i, j, lags, n, out=None):
        # pow costs about 70 ns a lag once phi^k underflows to a signed zero
        # (|phi|^k < 2^-1075), so it runs only where |phi|^k >= 2^-1100: 25
        # binades of margin cover any rounding of the cut.  Past the cut the
        # zero is -0.0 at odd integer k when phi is negative, as pow gives it;
        # a negative phi keeps pow at non-integer k, where it gives NaN.  The
        # signs come from unmasked arithmetic in ``base``: a masked negate, or
        # float temporaries, would cost several times as much.
        k = np.asarray(lags, dtype=float)
        phi = self.phi
        far = k > (1100.0 / -math.log2(abs(phi)) if phi else 0.0)
        base = np.empty(k.shape) if out is None else out
        if math.copysign(1.0, phi) < 0.0:
            # 2 floor(k/2) - k is 0 at even k and -1 at odd k; at non-integer
            # or infinite k it is neither, and pow takes those lags
            np.floor(np.multiply(0.5, k, out=base), out=base)
            base *= 2.0
            base -= k
            far &= (base == 0.0) | (base == -1.0)
            base *= 0.0  # +0.0 at even k, -0.0 at odd k
        else:
            base.fill(0.0)
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

    def __post_init__(self):
        _instance(self.mix, MixtureParams, "mix")

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

    def lag_corr_array(self, i, j, lags, n, out=None):
        t11, t22, t12 = self.taus(n)
        out = np.empty(np.shape(lags)) if out is None else out
        out.fill({(1, 1): t11, (2, 2): t22}.get((i, j), t12))
        return out

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

    def lag_corr_array(self, i, j, lags, n, out=None):
        values = [self.rho_fn(i, j, int(k), n) for k in np.asarray(lags).ravel()]
        if out is None:
            return np.array(values)
        out[...] = values
        return out

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
    lineage, n = as_lineage(seed), _row_size(model, n)
    block = np.zeros((1, *model._layout(n)))
    model._sample(n, lineage.generator(), out=block[0])
    x1, x2 = model._rows(block, [n])[0]
    return RowSample(n=n, x1=x1, x2=x2, seed_lineage=lineage)


def induced_correlation(model: ArrayModel, i: int, j: int, k: int, n: int) -> float:
    """Exact model correlation of X_s^(i) and X_{s+k}^(j) within row n."""
    i, j = (_count(c, "component index", 1, 2) for c in (i, j))
    size = _row_size(model, n)
    k = _count(k, "lag", 0, size - 1)
    if k == 0:
        return 1.0 if i == j else model.rho0(size)
    return float(model.lag_corr_array(i, j, [k], size)[0])


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

    n_grid: tuple[int, ...]
    sigma_or_delta: float
    cutoff: tuple[int, ...]
    statistic: tuple[float, ...]
    decaying: bool


def _lag_max(fn, lo, hi):
    """np.max of ``fn(lags)`` over the lags lo..hi-1, taken in leaves of
    ``_BLOCK_BYTES`` of lags: a max is exact in any order, and a NaN in any
    leaf gives NaN, as in one array."""
    step = _BLOCK_BYTES // 8
    leaves = (np.arange(a, min(a + step, hi)) for a in range(lo, hi, step))
    return float(np.max([np.max(fn(lags)) for lags in leaves]))


def validate_assumption(model: ArrayModel, which: str, n_grid, alpha: float,
                        tau=None) -> AssumptionReport:
    """Evaluate assumption "A1" (weak) or "A2" (strong) on a grid of row sizes.

    ``alpha`` is the cutoff exponent (cutoff = floor(n^alpha)); it must lie in
    (0, (1 - s) / (1 + s)) where s is the largest absolute lag correlation
    scanned at the largest grid n.  For A2, ``tau`` supplies (tau11, tau12,
    tau22); it defaults to the model's own mixture constants when present.
    A1 takes no ``tau``, and one given with it is refused.
    """
    if which not in ("A1", "A2"):
        raise DomainError(f"assumption must be 'A1' or 'A2', got {which!r}")
    if which == "A1" and tau is not None:
        raise DomainError(f"tau is for A2 only, A1 takes none; got {tau!r:.60}")
    n_grid = _scan_sizes(model, n_grid)  # min_n() >= 2
    if list(n_grid) != sorted(set(n_grid)):
        raise DomainError("n_grid must be a strictly increasing list of row sizes")

    def deviation(kind, i, j, n, lags):
        rho = np.asarray(model.lag_corr_array(i, j, lags, n), dtype=float)
        if kind == "A1":
            return np.abs(rho)
        # ln(k) * |rho - tau/ln(k)| == |rho ln(k) - tau| in exact arithmetic;
        # this form keeps the cancellation exact when the model's
        # correlations are themselves defined as tau / ln(k)
        logs, tau_ij = np.log(lags.astype(float)), tau_by_pair[i, j]
        with np.errstate(divide="ignore", invalid="ignore"):  # at k = 1 it is |0 - tau|
            return np.where(logs > 0.0, logs * np.abs(rho - tau_ij / logs), abs(tau_ij))

    def scan(kind, n, cut, scale=1.0):
        """The max over pairs of scale * max_{cut <= k < n} of the deviation."""
        stat = 0.0
        for i, j in _PAIRS:
            stat = max(stat, _lag_max(lambda lags: deviation(kind, i, j, n, lags), cut, n) * scale)
        return stat

    bound = scan("A1", max(n_grid), 1)
    if bound >= 1.0:
        raise DomainError(f"lag correlations must stay below 1, scan found {bound}")
    admissible = (1.0 - bound) / (1.0 + bound)
    alpha = _real(alpha, f"alpha (at the dependence bound {bound:g})", above=0.0,
                  below=admissible)

    if which == "A2":
        if tau is None and isinstance(model, StrongFactorModel):
            tau = (model.mix.tau11, model.mix.tau12, model.mix.tau22)
        tau_by_pair = {pair: _real(t, "tau entry", above=-math.inf, below=math.inf) for pair, t
                       in zip(_PAIRS, _seq(tau, "A2's tau (tau11, tau12, tau22)", 3, 3))}

    cutoffs = tuple(max(1, int(math.floor(n**alpha))) for n in n_grid)
    stats = tuple(scan(which, n, cut, math.log(n) if which == "A1" else 1.0)
                  for n, cut in zip(n_grid, cutoffs))

    decaying = len(stats) >= 3 and stats[-3] > stats[-2] > stats[-1]
    return AssumptionReport(n_grid=n_grid, sigma_or_delta=bound, cutoff=cutoffs,
                            statistic=stats, decaying=decaying)
