"""Monte Carlo and quadrature machinery confronting simulated extremes with
the limit laws, plus exact evaluation of the comparison-lemma bound series.

Empirical laws draw each replication from its own child RNG stream, keep its
normalized extremes, and count grid events once in the parent, so results are
independent of chunking and worker count.  ASLT paths draw their rows through
the same kernel, one child stream per row size.  The kernel draws rows one
stream at a time into a reused block buffer, then pairs, filters and reduces
the block in one batch.  Bound series involve no simulation at all: they are
exact sums over the model's induced correlations.
"""

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .evd_core import MixtureParams, gumbel_cdf, hr_cdf
from .gauss_arrays import (
    _PAIRS, ArrayModel, ExplicitModel, StrongFactorModel, WeakAR1Model, _ar1_path, _by_size,
    _explicit_factor, _fill, _lfilter, _pair,
)
from .norming import norming_constants
from .seeding import SeedLineage, as_lineage


# ---------------------------------------------------------------------------
# empirical laws of normalized extremes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalLaw2D:
    """Monte Carlo estimate of the bivariate CDF of normalized row maxima."""

    grid_x: np.ndarray
    grid_y: np.ndarray
    cdf: np.ndarray            # shape (len(grid_x), len(grid_y))
    replications: int
    n: int
    master_seed: SeedLineage


@dataclass(frozen=True)
class EmpiricalLaw4D:
    """Monte Carlo estimate of the four-sided max-min event probabilities."""

    grid_x1: np.ndarray
    grid_x2: np.ndarray
    grid_y1: np.ndarray
    grid_y2: np.ndarray
    prob: np.ndarray           # shape (len x1, len x2, len y1, len y2)
    replications: int
    n: int
    master_seed: SeedLineage


def _as_axis(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-d grid")
    if np.any(np.diff(arr) <= 0):
        raise DomainError(f"{name} must be strictly increasing")
    return arr


_BLOCK = 1024  # child streams hashed per ``SeedLineage.children`` call
# drawn variates per row block: short rows batch, rows above half of it go one
# at a time and stay in cache from draw to reduction
_BLOCK_BYTES = 1 << 18


def _streams(lineage, keys):
    for lo in range(0, len(keys), _BLOCK):
        yield from lineage.children(keys[lo : lo + _BLOCK])


def _width(model, n):
    """Variates in one row of the draw layout at row size n (an int or an array)."""
    return math.prod(model._layout(n))


def _block(model, sizes, lo):
    """The end of the block of rows from ``lo``: as many rows as fit in
    ``_BLOCK_BYTES`` when padded to the last, largest, size among them, and
    at least one."""
    cap = _BLOCK_BYTES // 8
    part = sizes[lo : lo + max(1, cap // _width(model, sizes[lo]))]
    if part[-1] != part[0]:  # growing sizes: the rows whose padded block fits
        fits = np.arange(1, len(part) + 1) * _width(model, part) <= cap
        part = part[: max(1, np.count_nonzero(fits))]
    return lo + len(part)


def _reduce(x, sizes, ext):
    """Max and min of each row of ``x`` (B, 2, m) over its first ``sizes[i]``
    columns, into ``ext`` (B, 4); ``sizes`` do not decrease."""
    least = sizes[0]
    x[..., :least].max(axis=-1, out=ext[:, :2])
    x[..., :least].min(axis=-1, out=ext[:, 2:])
    if least < x.shape[-1]:  # rows padded to the block's last size
        tail = x[..., least:]
        keep = (np.arange(least, x.shape[-1]) < np.array(sizes)[:, None])[:, None]
        np.maximum(ext[:, :2], np.where(keep, tail, -np.inf).max(axis=-1), out=ext[:, :2])
        np.minimum(ext[:, 2:], np.where(keep, tail, np.inf).min(axis=-1), out=ext[:, 2:])


def _extremes(model, lineage, keys, sizes):
    """Row i has size ``sizes[i]`` and is drawn from the stream
    ``lineage.child(keys[i])``; it is reduced to (s1, s2, t1, t2), its
    normalized maxima and reflected, normalized minima.  Sizes must not
    decrease.

    Rows go in blocks of consecutive keys, padded to the block's last size.
    Each row is drawn by one ``model._sample`` call into a buffer reused across
    blocks, and one ``model._rows`` call turns the block into row values.  The
    filter is causal, so a row's prefix does not depend on its padding.  The
    norming constants are recomputed only when the row size changes."""
    sizes = np.asarray(sizes)
    if np.any(sizes[1:] < sizes[:-1]):
        raise DomainError("row sizes must not decrease")
    out = np.empty((len(keys), 4))
    ab = np.empty((len(keys), 2))  # each row's (a_n, b_n)
    starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()  # where the size changes
    for lo, hi in zip(starts, starts[1:] + [len(keys)]):
        nm = norming_constants(int(sizes[lo]))
        ab[lo:hi] = nm.a, nm.b
    streams = _streams(lineage, keys)
    listed = sizes.tolist()
    buf = np.zeros(0)
    lo = 0
    while lo < len(keys):
        hi = _block(model, sizes, lo)
        part = listed[lo:hi]
        layout = model._layout(part[-1])
        need = (hi - lo) * math.prod(layout)
        if buf.size < need:  # zeros: padding is always finite
            buf = np.zeros(max(need, _BLOCK_BYTES // 8))
        block = buf[:need].reshape(hi - lo, *layout)
        # zip ends at the block's last row before it takes another stream
        for row, n, child in zip(block, part, streams):
            model._sample(n, child.generator(), out=row)
        _reduce(model._rows(block, part), part, out[lo:hi])
        lo = hi
    np.negative(out[:, 2:], out=out[:, 2:])
    out -= ab[:, 1:]
    out /= ab[:, :1]
    return out


def _hits(ext, x1, x2, y1, y2):
    """The event s1 <= x1, s2 <= x2, t1 < y1, t2 < y2 for each row of the
    extremes ``ext`` (rows, 4) against 1-d threshold vectors: (rows, points)."""
    s1, s2, t1, t2 = ext.T[:, :, None]
    return (s1 <= x1) & (s2 <= x2) & (t1 < y1) & (t2 < y2)


def _all_extremes(model, n, lineage, total, workers):
    """The (total, 4) extremes of replications 0..total-1, in order."""
    if total < 100:
        raise DomainError(f"at least 100 replications required, got {total}")
    model.validate_n(n)
    if workers <= 1:
        return _extremes(model, lineage, range(total), np.full(total, n))
    # chunks follow ``workers`` so results do not depend on the machine; the
    # pool, which forks all its processes at the first submit, is capped
    per = math.ceil(total / workers)
    # build once here what forked workers would otherwise each build
    if isinstance(model, WeakAR1Model) and model.phi != 0.0:
        _lfilter()
    elif isinstance(model, ExplicitModel):
        _explicit_factor(model, n)
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(_extremes, model, lineage, range(lo, min(lo + per, total)),
                               np.full(min(per, total - lo), n))
                   for lo in range(0, total, per)]
        return np.concatenate([fut.result() for fut in futures])


def empirical_max_law(model: ArrayModel, n: int, R: int, grid, seed,
                      workers: int = 1) -> EmpiricalLaw2D:
    """Empirical bivariate CDF of ((M1 - b_n)/a_n, (M2 - b_n)/a_n) on a grid.

    ``grid`` is a pair (grid_x, grid_y) of strictly increasing vectors.
    Counts are integers taken in the parent over every replication's extremes,
    so the result is identical for any worker count.
    """
    n, R = int(n), int(R)
    gx = _as_axis(grid[0], "grid_x")
    gy = _as_axis(grid[1], "grid_y")
    lineage = as_lineage(seed)
    ext = _all_extremes(model, n, lineage, R, workers)
    corner = np.zeros((gx.size + 1, gy.size + 1), dtype=np.int64)
    np.add.at(corner, (np.searchsorted(gx, ext[:, 0]), np.searchsorted(gy, ext[:, 1])), 1)
    counts = corner.cumsum(axis=0).cumsum(axis=1)[: gx.size, : gy.size]
    return EmpiricalLaw2D(
        grid_x=gx, grid_y=gy, cdf=counts / R, replications=R, n=n, master_seed=lineage
    )


def empirical_maxmin_law(model: ArrayModel, n: int, R: int, grid4, seed,
                         workers: int = 1) -> EmpiricalLaw4D:
    """Empirical probabilities of the four-sided event
    -u_n(y1) < m1 <= M1 <= u_n(x1), -u_n(y2) < m2 <= M2 <= u_n(x2)
    on a small 4-d grid (at most 3 points per axis)."""
    n, R = int(n), int(R)
    axes = tuple(_as_axis(a, f"grid4[{i}]") for i, a in enumerate(grid4))
    if any(a.size > 3 for a in axes):
        raise DomainError("grid4 axes are capped at 3 points each (cost guard)")
    lineage = as_lineage(seed)
    mesh = np.meshgrid(*axes, indexing="ij")
    hits = _hits(_all_extremes(model, n, lineage, R, workers), *(m.ravel() for m in mesh))
    counts = hits.sum(axis=0).reshape(mesh[0].shape)
    return EmpiricalLaw4D(
        grid_x1=axes[0], grid_x2=axes[1], grid_y1=axes[2], grid_y2=axes[3],
        prob=counts / R, replications=R, n=n, master_seed=lineage,
    )


def sup_distance(emp: EmpiricalLaw2D, theory) -> float:
    """Max absolute deviation between the empirical CDF and theory(x, y) on the grid."""
    X, Y = np.meshgrid(emp.grid_x, emp.grid_y, indexing="ij")
    try:
        T = np.broadcast_to(np.asarray(theory(X, Y), dtype=float), X.shape)
    except (TypeError, ValueError):
        T = np.vectorize(theory, otypes=[float])(X, Y)
    return float(np.max(np.abs(emp.cdf - T)))


# ---------------------------------------------------------------------------
# strong-dependence mixture limit (Gauss-Hermite quadrature)
# ---------------------------------------------------------------------------

QUAD_MAX_NODES = 1024  # the 2-d rule holds nodes^2 arrays: about 81 MB at the cap


@functools.lru_cache(maxsize=8)
def _hermgauss(nodes):
    """The Gauss-Hermite rule (nodes, weights), solved once per node count and
    shared read-only."""
    nodes = int(nodes)
    if not 8 <= nodes <= QUAD_MAX_NODES:
        raise DomainError(f"quadrature nodes must lie in [8, {QUAD_MAX_NODES}], got {nodes}")
    rule = special.roots_hermite(nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


def mixture_limit_cdf(mp: MixtureParams, x: float, y: float, nodes: int = 128) -> float:
    """Gaussian-location mixture of the Husler-Reiss law: the expectation of
    H_shifted(x + tau11 - sqrt(2 tau11) Z, y + tau22 - sqrt(2 tau22) W) over a
    standard bivariate Gaussian (Z, W) with correlation tau12/sqrt(tau11 tau22).

    Tensor Gauss-Hermite rule with ``nodes`` points per axis after whitening
    (Z, W) -> (Z, rho Z + sqrt(1 - rho^2) W').  The integrand is smooth and
    sub-Gaussian-weighted, so past 64 nodes per axis a
    doubling moves the value by less than 1e-10 on desk-scale parameters.
    """
    h, w = _hermgauss(nodes)
    rho = mp.rho_zw
    z = math.sqrt(2.0) * h
    wmat = rho * z[:, None] + math.sqrt(max(0.0, 1.0 - rho * rho)) * math.sqrt(2.0) * h[None, :]
    xs = x + mp.tau11 - math.sqrt(2.0 * mp.tau11) * z[:, None]
    ys = y + mp.tau22 - math.sqrt(2.0 * mp.tau22) * wmat
    vals = hr_cdf(mp.lambda_tilde, np.broadcast_to(xs, wmat.shape), ys)
    est = float(np.einsum("i,j,ij->", w, w, vals) / math.pi)
    return min(1.0, max(0.0, est))


def univariate_mixture_cdf(tau11: float, x: float, nodes: int = 128) -> float:
    """Expectation of Gumbel(x + tau11 - sqrt(2 tau11) Z) over standard normal Z."""
    tau11 = float(tau11)
    if tau11 < 0.0:
        raise DomainError(f"tau11 must be >= 0, got {tau11}")
    h, w = _hermgauss(nodes)
    z = math.sqrt(2.0) * h
    vals = gumbel_cdf(x + tau11 - math.sqrt(2.0 * tau11) * z)
    est = float(np.dot(w, vals) / math.sqrt(math.pi))
    return min(1.0, max(0.0, est))


def mixture_limit_mc(mp: MixtureParams, x: float, y: float, draws: int, seed):
    """Monte Carlo oracle for mixture_limit_cdf using exact (Z, W) draws.

    Returns (estimate, standard_error).
    """
    rng = as_lineage(seed).generator()
    z, w = _pair(rng.standard_normal((2, int(draws))), mp.rho_zw)
    vals = hr_cdf(
        mp.lambda_tilde,
        x + mp.tau11 - math.sqrt(2.0 * mp.tau11) * z,
        y + mp.tau22 - math.sqrt(2.0 * mp.tau22) * w,
    )
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(int(draws)))


# ---------------------------------------------------------------------------
# almost-sure limit theorem paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coupling:
    """Cross-row dependence of the triangular array along an ASLT path.

    "independent" resamples every row freshly (cross-row correlations are
    identically zero).  "shared" mixes a persistent innovation sequence with
    weight c into every row, bounding cross-row correlations by c < 1 while
    leaving each row's within-row law exactly the model's.
    """

    kind: str = "independent"
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("independent", "shared"):
            raise DomainError(f"coupling kind must be 'independent' or 'shared', got {self.kind!r}")
        c = float(self.c)
        if self.kind == "shared" and not 0.0 <= c < 1.0:
            raise DomainError(f"shared coupling weight must lie in [0, 1), got {c}")
        object.__setattr__(self, "c", c)

    def describe(self) -> str:
        return self.kind if self.kind == "independent" else f"shared(c={self.c:g})"


INDEPENDENT_ROWS = Coupling()


def shared_innovations(c: float) -> Coupling:
    return Coupling("shared", c)


@dataclass(frozen=True)
class ASLTPath:
    """Logarithmic running averages of extreme-event indicators on one path."""

    n_max: int
    k_start: int
    checkpoints: tuple[int, ...]
    points: tuple[tuple[float, float], ...]
    averages: np.ndarray          # (len(points), len(checkpoints))
    maxmin_points: tuple[tuple[float, float, float, float], ...]
    maxmin_averages: np.ndarray   # (len(maxmin_points), len(checkpoints))
    ceiling: np.ndarray           # (sum_{k<=cp} 1/k) / ln(cp)
    coupling: str
    seed: SeedLineage


ASLT_HARD_CAP = 10**5
ASLT_MAX_POINTS = 100  # per family; every report row repeats the points


@dataclass(frozen=True)
class _SharedRows:
    """The rows of ``model`` along an ASLT path with shared coupling: the
    persistent sequence ``eta`` enters every row's innovations with weight c.
    Draw layout: the stationary start pair (2,), then the (2, n) innovations."""

    model: WeakAR1Model
    eta: np.ndarray
    c: float

    def _layout(self, n):
        return (2 * n + 2,)

    def _sample(self, n, rng, out):
        rng.standard_normal(out=out[:2])
        _fill(rng, out[2:].reshape(2, -1), n)

    def _rows(self, block, sizes):
        # the start pair is row-fresh and eta enters the innovations only, so
        # the within-row law is exactly the model's
        c = self.c
        rho0 = _by_size(self.model.rho0, sizes)
        start, e = block[:, :2], block[:, 2:].reshape(len(block), 2, -1)
        _pair(start.T, rho0)
        _pair(e.swapaxes(0, 1), ((rho0 - c) / (1.0 - c))[:, None])
        e *= math.sqrt(1.0 - c)
        e += math.sqrt(c) * self.eta[: e.shape[-1]]
        return _ar1_path(self.model.phi, start, e)


def aslt_average(model: ArrayModel, coupling: Coupling, n_max: int, points, seed,
                 maxmin_points=(), checkpoints=None) -> ASLTPath:
    """One almost-sure-limit-theorem path: the running averages
    (1/ln n) sum_{k<=n} (1/k) I(M_k^(1) <= u_k(x), M_k^(2) <= u_k(y))
    reported at checkpoint row sizes, for each requested (x, y).

    ``maxmin_points`` adds the four-sided indicator variant
    I(-u_k(y1) < m1 <= M1 <= u_k(x1), -u_k(y2) < m2 <= M2 <= u_k(x2)) for
    4-tuples (x1, x2, y1, y2).  Rows are O(k) each, so total work grows like
    n_max^2; n_max above ASLT_HARD_CAP = 1e5, or more than ASLT_MAX_POINTS =
    100 points or max-min points, is refused.

    The sum starts at the model's smallest valid row size ``min_n()`` (>= 2,
    since the norming constants need ln(n) > 0); the discarded initial terms
    are O(1/ln n) and do not affect the limit.
    """
    if not isinstance(model, WeakAR1Model):
        raise DomainError("ASLT paths are implemented for the weak-dependence AR(1) model")
    n_max = int(n_max)
    if n_max < 1000:
        raise DomainError(f"n_max must be >= 1000, got {n_max}")
    if n_max > ASLT_HARD_CAP:
        raise DomainError(f"n_max={n_max} exceeds the cost guard {ASLT_HARD_CAP}")
    points = tuple((float(x), float(y)) for x, y in points)
    maxmin_points = tuple(tuple(float(v) for v in q) for q in maxmin_points)
    if any(len(q) != 4 for q in maxmin_points):
        raise DomainError("maxmin points must be (x1, x2, y1, y2) tuples")
    if max(len(points), len(maxmin_points)) > ASLT_MAX_POINTS:
        raise DomainError(f"at most {ASLT_MAX_POINTS} points of each kind per path (cost guard)")
    if checkpoints is None:
        checkpoints = [n_max // 8, n_max // 4, n_max // 2, n_max]
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))

    lineage = as_lineage(seed)
    k_start = model.min_n()
    if any(not k_start <= cp <= n_max for cp in checkpoints):
        raise DomainError(f"checkpoints must lie in [{k_start}, n_max] for this model")

    rows = range(k_start, n_max + 1)
    if coupling.kind == "shared":
        # child(0) is reserved for the persistent sequence; rows use child(k), k >= 2
        eta = lineage.child(0).generator().standard_normal(n_max)
        # rho_0(k) increases with k, so the first row bounds the residual
        # correlation (rho_0(k) - c) / (1 - c) <= 1 from below for all rows
        rho0 = model.rho0(k_start)
        if (rho0 - coupling.c) / (1.0 - coupling.c) < -1.0:
            raise DomainError(
                f"shared coupling weight c={coupling.c:g} incompatible with "
                f"rho_0({k_start})={rho0:g}"
            )
        model = _SharedRows(model, eta, coupling.c)
    extremes = _extremes(model, lineage, rows, rows)

    # a row minimum is finite, so the max-only point (x, y) is the four-sided
    # event (x, y, +inf, +inf).  cumsum adds in row order, one term at a time,
    # and a miss adds inv_k * False == 0.0, which changes no sum
    events = np.reshape([(*p, math.inf, math.inf) for p in points] + [*maxmin_points], (-1, 4))
    inv_k = 1.0 / np.arange(k_start, n_max + 1)
    wsum = np.cumsum(inv_k[:, None] * _hits(extremes, *events.T), axis=0)
    at = [cp - k_start for cp in checkpoints]
    ell = np.array([math.log(cp) for cp in checkpoints])

    return ASLTPath(
        n_max=n_max,
        k_start=k_start,
        checkpoints=checkpoints,
        points=points,
        averages=wsum[at, : len(points)].T / ell,
        maxmin_points=maxmin_points,
        maxmin_averages=wsum[at, len(points) :].T / ell,
        ceiling=np.cumsum(inv_k)[at] / ell,
        coupling=coupling.describe(),
        seed=lineage,
    )


# ---------------------------------------------------------------------------
# comparison-lemma bound series (exact summation, no simulation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSeries:
    """A comparison-lemma bound sum evaluated along a grid of row sizes."""

    n_grid: tuple[int, ...]
    values: tuple[float, ...]
    kind: str                  # "L1", "L2", "rate" or "cross_rate"
    omega_rule: str


@dataclass(frozen=True)
class AsltRateReport:
    """Within-row and cross-row bound series with the (ln ln n)^-(1+eps) ratio."""

    within_row: BoundSeries
    cross_row: BoundSeries
    epsilon: float
    ratios: tuple[float, ...]
    bounded: bool


def _thresholds(x, y):
    """(x, y) as floats; +-inf drops that coordinate, NaN is refused."""
    x, y = float(x), float(y)
    if math.isnan(x) or math.isnan(y):
        raise DomainError(f"x and y must not be NaN, got x={x}, y={y}")
    return x, y


def _omega(n, x, y):
    nm = norming_constants(n)
    return min(abs(nm.u(x)), abs(nm.u(y)))


_SUM_CHUNK = 1 << 20


def _weak_sum(model, n, omega, kind, taus=None):
    """n * sum_k |rho(k,n) [- tau(n)]| exp(-omega^2 / (1 + scale)), max over pairs."""
    out = 0.0
    w2 = omega * omega
    for pair_idx, (i, j) in enumerate(_PAIRS):
        total = 0.0
        for lo in range(1, n, _SUM_CHUNK):
            lags = np.arange(lo, min(lo + _SUM_CHUNK, n))
            rho = np.abs(np.asarray(model.lag_corr_array(i, j, lags, n), dtype=float))
            if kind == "L2":
                tau_n = taus[pair_idx] / math.log(n)
                scale = np.maximum(rho, tau_n)
                weight = np.abs(np.asarray(model.lag_corr_array(i, j, lags, n)) - tau_n)
            else:
                scale = rho
                weight = rho
            total += float(np.sum(weight * np.exp(-w2 / (1.0 + scale))))
        out = max(out, n * total)
    return out


def comparison_bound_series(model: ArrayModel, kind: str, x: float, y: float,
                            n_grid) -> BoundSeries:
    """Exact bound sums n * sum_{k<n} |rho_ij(k,n)| exp(-omega_n^2/(1+|rho_ij|))
    (kind "L1"), or with rho replaced by its deviation from tau_ij(n) and the
    exponent scaled by max(|rho|, tau_ij(n)) (kind "L2"); the reported value is
    the max over the component pairs.  omega_n = min(|u_n(x)|, |u_n(y)|)."""
    if kind not in ("L1", "L2"):
        raise DomainError(f"kind must be 'L1' or 'L2', got {kind!r}")
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or any(n < 2 for n in n_grid):
        raise DomainError("n_grid must be non-empty with entries >= 2")
    x, y = _thresholds(x, y)
    taus = None
    if kind == "L2":
        if not isinstance(model, StrongFactorModel):
            raise DomainError("L2 needs a model with tau constants (strong-factor)")
        taus = (model.mix.tau11, model.mix.tau12, model.mix.tau22)
    values = tuple(_weak_sum(model, n, _omega(n, x, y), kind, taus) for n in n_grid)
    return BoundSeries(
        n_grid=n_grid, values=values, kind=kind,
        omega_rule=f"omega_n = min(|u_n({x:g})|, |u_n({y:g})|)",
    )


def _rate_rows(num, den, d, gbar, buf):
    """Row sums sum_k gbar(k) exp(num_i / den(k)) for the column ``num`` (B, 1),
    worked in ``buf``: ``exp`` on the first ``d`` columns only, the later ones
    (where ``den`` is exactly 2.0) copied from column d - 1.  A row's sum
    depends on its numerator alone, not on the other rows of the call."""
    e = buf[: len(num) * gbar.size].reshape(-1, gbar.size)
    np.divide(num, den[:d], out=e[:, :d])
    np.exp(e[:, :d], out=e[:, :d])
    e[:, d:] = e[:, d - 1 : d]
    e *= gbar
    return e.sum(axis=1)


_GROUP_ROWS = 32  # rows sharing one bound row in the cross-row rate search


def _cross_rate_value(phi, c, n, omega_n, x, y):
    """max_{2<=m<n} m * sum_{k=1..n} gbar(k) exp(-(omega_m^2+omega_n^2)/(2(1+gbar(k))))
    with the cross-row correlation envelope gbar(k) = c * phi^(k-1).

    The sum over k stops at k_eff, where the envelope underflows.  Rows m go in
    blocks of at most ``_BLOCK_BYTES`` (256 KB) of terms through
    ``_rate_rows``.  The max is a bounded search: the per-m vectors are
    worked from the largest m down, cap entries at a time, and their rows split
    into groups of whole blocks, at least ``_GROUP_ROWS`` rows each.  A group's
    row sums grow with the numerator -(omega_m^2 + omega_n^2), so the row sum
    S_top at its largest numerator bounds them all: m * S_m <= m_hi * S_top,
    with m_hi the group's largest m.  The bound takes a relative margin of
    2^-30 for the few-ulp error of ``exp``, and k_eff * 2^-1060 for its
    absolute error where terms are subnormal.  Groups are summed in descending
    bound order until a bound is <= the running max; a skipped row's value is
    then at most the max of rows that were summed, and summed rows are
    computed exactly as by the full sum, so the result is the same float."""
    if c == 0.0:
        return 0.0
    # truncate where the envelope underflows
    if abs(phi) > 0.0:
        k_eff = min(n, int(math.ceil((745.0 + math.log(max(c, 1e-300))) / -math.log(abs(phi)))) + 2)
    else:
        k_eff = 1
    gbar = np.abs(c * np.power(phi, np.arange(k_eff)))
    den = 2.0 * (1.0 + gbar)
    # columns from d on have the denominator 2.0 of column d - 1
    distinct = np.flatnonzero(den != 2.0)
    d = min(k_eff, int(distinct[-1]) + 2) if distinct.size else 1
    cap = _BLOCK_BYTES // 8
    rows = max(1, cap // k_eff)
    group = rows * -(-_GROUP_ROWS // rows)
    slack = k_eff * 2.0**-1060
    buf = np.empty(rows * k_eff)

    def sums(num):  # the row sums of a column of numerators, a block at a time
        return np.concatenate([_rate_rows(num[b : b + rows], den, d, gbar, buf)
                               for b in range(0, len(num), rows)])

    best = 0.0
    for lo in reversed(range(2, n, cap)):  # the per-m vectors, cap entries at a time
        ms = np.arange(lo, min(lo + cap, n))
        ell = np.log(ms.astype(float))
        r = np.sqrt(2.0 * ell)
        bm = r - np.log(4.0 * math.pi * ell) / (2.0 * r)
        am = 1.0 / r
        num = -(np.minimum(np.abs(am * x + bm), np.abs(am * y + bm))[:, None] ** 2 + omega_n**2)
        starts = np.arange(0, ms.size, group)
        tops = np.maximum.reduceat(num[:, 0], starts)[:, None]
        m_hi = ms[np.minimum(starts + group, ms.size) - 1]
        bounds = m_hi * (sums(tops) * (1.0 + 2.0**-30) + slack)
        for g in np.argsort(-bounds, kind="stable"):
            if bounds[g] <= best:
                break
            part = slice(starts[g], starts[g] + group)
            best = max(best, float((ms[part] * sums(num[part])).max()))
    return best


def aslt_bound_rate(model: ArrayModel, cross_row: Coupling, epsilon: float,
                    n_grid, x: float = 0.0, y: float = 0.0) -> AsltRateReport:
    """The within-row bound sum (as in the L1 series) and its ratio to
    (ln ln n)^-(1+epsilon), plus the cross-row analogue for the requested
    coupling (evaluated on its correlation envelope c * phi^(lag)).  Verdict
    "bounded" holds when the ratio sequence attains its maximum on the first
    half of the grid."""
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or any(n < 16 for n in n_grid):
        raise DomainError("n_grid entries must be >= 16 so that ln ln n > 1")
    x, y = _thresholds(x, y)

    omega_rule = f"omega_n = min(|u_n({x:g})|, |u_n({y:g})|)"
    within_vals = tuple(_weak_sum(model, n, _omega(n, x, y), "L1") for n in n_grid)
    within = BoundSeries(n_grid=n_grid, values=within_vals, kind="rate", omega_rule=omega_rule)

    if cross_row.kind == "shared":
        if not isinstance(model, WeakAR1Model):
            raise DomainError("shared coupling requires the AR(1) model")
        cross_vals = tuple(
            _cross_rate_value(model.phi, cross_row.c, n, _omega(n, x, y), x, y) for n in n_grid
        )
    else:
        cross_vals = tuple(0.0 for _ in n_grid)
    cross = BoundSeries(n_grid=n_grid, values=cross_vals, kind="cross_rate", omega_rule=omega_rule)

    rate = tuple(math.log(math.log(n)) ** (1.0 + epsilon) for n in n_grid)
    ratios = tuple(v * r for v, r in zip(within_vals, rate))
    first_half = ratios[: (len(ratios) + 1) // 2]
    bounded = max(ratios) <= max(first_half) + 1e-300
    return AsltRateReport(within_row=within, cross_row=cross, epsilon=epsilon,
                          ratios=ratios, bounded=bounded)
