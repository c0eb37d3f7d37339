"""Monte Carlo and quadrature machinery confronting simulated extremes with
the limit laws, plus exact evaluation of the comparison-lemma bound series.

Empirical laws draw each replication from its own child RNG stream, keep its
normalized extremes, and count grid events once in the parent, so results are
independent of chunking and worker count.  ASLT paths draw their rows through
the same kernel, one child stream per row size.  The kernel's one block loop,
``_row_blocks``, draws rows one stream at a time into a reused block buffer
and pairs and filters the block in one batch; ``_extremes`` reduces each block
to the rows' extremes, and the public ``sample_rows`` copies the rows out.
Bound series involve no simulation at all: they are exact sums over the
model's induced correlations.
"""

import functools
import gc
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _count, _floats, _instance, _real, _seq
from .evd_core import MixtureParams, gumbel_cdf, hr_cdf
from .gauss_arrays import (
    _BLOCK_BYTES, _PAIRS, ArrayModel, StrongFactorModel, WeakAR1Model, _ar1_path, _by_size,
    _fill, _pair, _row_size, _scan_sizes,
)
from .norming import norming_constants
from .seeding import as_lineage


# ---------------------------------------------------------------------------
# empirical laws of normalized extremes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalLaw2D:
    """Monte Carlo estimate of the bivariate CDF of normalized row maxima."""

    grid_x: np.ndarray
    grid_y: np.ndarray
    cdf: np.ndarray            # shape (len(grid_x), len(grid_y))


@dataclass(frozen=True)
class EmpiricalLaw4D:
    """Monte Carlo estimate of the four-sided max-min event probabilities."""

    grid_x1: np.ndarray
    grid_x2: np.ndarray
    grid_y1: np.ndarray
    grid_y2: np.ndarray
    prob: np.ndarray           # shape (len x1, len x2, len y1, len y2)


def _axes(grid, name, count):
    """The ``count`` axes of ``grid`` as float arrays, each non-empty, 1-d and
    strictly increasing; NaN is refused, +-inf kept."""
    axes = tuple(_floats(a) for a in _seq(grid, name, count, count))
    for i, arr in enumerate(axes):
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError(f"{name}[{i}] must be a non-empty 1-d grid")
        _thresholds(*arr)
        if np.any(arr[1:] <= arr[:-1]):  # (inf, inf) too, where np.diff gives NaN
            raise DomainError(f"{name}[{i}] must be strictly increasing")
    return axes


_BLOCK = 1024  # child streams hashed per ``SeedLineage.children`` call


def _width(model, n):
    """Variates in one row of the draw layout at row size n (an int or an array)."""
    return math.prod(model._layout(n))


def _block(model, sizes, lo):
    """The end of the block of rows from ``lo``: as many rows as fit in
    ``_BLOCK_BYTES`` when padded to the last, largest, size among them, and
    at least one.  Short rows batch; a row above half of it goes alone and
    stays in cache from draw to reduction."""
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


def _row_blocks(model, lineage, keys, sizes):
    """(lo, hi, x) per block: row i, of size ``sizes[i]`` (an array that does
    not decrease) and drawn from the stream ``lineage.child(keys[i])``, is the
    first ``sizes[i]`` columns of ``x[i - lo]`` (B, 2, m).  Blocks are of
    consecutive keys, padded to their last size.  Each row is drawn by one
    ``model._sample`` call into a buffer reused across blocks, and one
    ``model._rows`` call turns the block into row values.  The filter is
    causal, so a row's prefix does not depend on its padding; ``x`` may view
    the buffer, so it is stale at the next block."""
    streams = (child for a in range(0, len(keys), _BLOCK)
               for child in lineage.children(keys[a : a + _BLOCK]))
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
        yield lo, hi, model._rows(block, part)
        lo = hi


def _extremes(model, lineage, keys, sizes):
    """The rows of ``_row_blocks`` reduced to (s1, s2, t1, t2), normalized
    maxima and reflected, normalized minima; norming constants are recomputed
    only when the row size changes."""
    sizes = np.asarray(sizes)
    if np.any(sizes[1:] < sizes[:-1]):
        raise DomainError("row sizes must not decrease")
    out = np.empty((len(keys), 4))
    ab = np.empty((len(keys), 2))  # each row's (a_n, b_n)
    starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()  # where the size changes
    for lo, hi in zip(starts, starts[1:] + [len(keys)]):
        nm = norming_constants(int(sizes[lo]))
        ab[lo:hi] = nm.a, nm.b
    for lo, hi, x in _row_blocks(model, lineage, keys, sizes):
        _reduce(x, sizes[lo:hi], out[lo:hi])
        del x  # one block of row values alive at a time
    np.negative(out[:, 2:], out=out[:, 2:])
    out -= ab[:, 1:]
    out /= ab[:, :1]
    return out


def sample_rows(model: ArrayModel, n: int, seed, keys) -> np.ndarray:
    """(len(keys), 2, n): row i is ``sample_row(model, n, lineage.child(keys[i]))``
    to the byte, for the lineage of ``seed``; keys must be >= 0."""
    lineage, n = as_lineage(seed), _row_size(model, n)
    keys = [_count(k, "keys", 0) for k in _seq(keys, "keys")]
    rows = np.empty((len(keys), 2, n))
    for lo, hi, x in _row_blocks(model, lineage, keys, np.full(len(keys), n)):
        rows[lo:hi] = x
    return rows


def _hits(ext, x1, x2, y1, y2):
    """The event s1 <= x1, s2 <= x2, t1 < y1, t2 < y2 for each row of the
    extremes ``ext`` (rows, 4) against 1-d threshold vectors: (rows, points)."""
    s1, s2, t1, t2 = ext.T[:, :, None]
    return (s1 <= x1) & (s2 <= x2) & (t1 < y1) & (t2 < y2)


MAX_CHUNKS = 64  # more would pay each future's pickling and scheduling for nothing


def _all_extremes(model, n, lineage, total, workers):
    """The (total, 4) extremes of replications 0..total-1, in order."""
    workers = _count(workers, "workers", 1)
    if workers == 1:
        return _extremes(model, lineage, range(total), np.full(total, n))
    # chunks follow ``workers`` so results do not depend on the machine; the
    # pool, which forks all its processes at the first submit, is capped
    chunks = min(workers, MAX_CHUNKS)
    per = math.ceil(total / chunks)
    # one row of zeros builds here what forked workers would otherwise each
    # build: the filter's kernel, an explicit model's factor
    model._rows(np.zeros((1, *model._layout(n))), [n])
    # a full collection in a worker writes the header of every object it
    # traverses, so each worker would copy the parent's pages and spend tens
    # of ms a collection; frozen, the parent's objects are never traversed
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=min(chunks, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_extremes, model, lineage, range(lo, min(lo + per, total)),
                                   np.full(min(per, total - lo), n))
                       for lo in range(0, total, per)]
            return np.concatenate([fut.result() for fut in futures])
    finally:
        gc.unfreeze()


def empirical_max_law(model: ArrayModel, n: int, R: int, grid, seed,
                      workers: int = 1) -> EmpiricalLaw2D:
    """Empirical bivariate CDF of ((M1 - b_n)/a_n, (M2 - b_n)/a_n) on a grid.

    ``grid`` is a pair (grid_x, grid_y) of strictly increasing vectors.
    Counts are integers taken in the parent over every replication's extremes,
    so the result is identical for any worker count.
    """
    n, R = _row_size(model, n), _count(R, "replications", 100)
    gx, gy = _axes(grid, "grid", 2)
    ext = _all_extremes(model, n, as_lineage(seed), R, workers)
    corner = np.zeros((gx.size + 1, gy.size + 1), dtype=np.int64)
    np.add.at(corner, (np.searchsorted(gx, ext[:, 0]), np.searchsorted(gy, ext[:, 1])), 1)
    counts = corner.cumsum(axis=0).cumsum(axis=1)[: gx.size, : gy.size]
    return EmpiricalLaw2D(grid_x=gx, grid_y=gy, cdf=counts / R)


def empirical_maxmin_law(model: ArrayModel, n: int, R: int, grid4, seed,
                         workers: int = 1) -> EmpiricalLaw4D:
    """Empirical probabilities of the four-sided event
    -u_n(y1) < m1 <= M1 <= u_n(x1), -u_n(y2) < m2 <= M2 <= u_n(x2)
    on a small 4-d grid (at most 3 points per axis)."""
    n, R = _row_size(model, n), _count(R, "replications", 100)
    axes = _axes(grid4, "grid4", 4)
    if any(a.size > 3 for a in axes):
        raise DomainError("grid4 axes are capped at 3 points each (cost guard)")
    mesh = np.meshgrid(*axes, indexing="ij")
    hits = _hits(_all_extremes(model, n, as_lineage(seed), R, workers), *(m.ravel() for m in mesh))
    counts = hits.sum(axis=0).reshape(mesh[0].shape)
    return EmpiricalLaw4D(
        grid_x1=axes[0], grid_x2=axes[1], grid_y1=axes[2], grid_y2=axes[3], prob=counts / R,
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

QUAD_MAX_NODES = 150  # the most nodes _roots_hermite solves to roots_hermite's bytes


def _quad_nodes(nodes) -> int:
    """``nodes`` as an int; a node count outside [8, QUAD_MAX_NODES] is refused."""
    return _count(nodes, "quadrature nodes", 8, QUAD_MAX_NODES)


def _hermite(n, x):
    """The physicists' Hermite polynomial H_n(x) for n >= 1, as scipy's
    ``eval_hermite`` evaluates it: the He_n recurrence, run down from k = n, at
    sqrt(2) x, times 2**(n/2)."""
    t = math.sqrt(2.0) * x
    y2, y3 = np.ones_like(t), np.zeros_like(t)
    for k in range(n, 1, -1):
        y2, y3 = t * y2 - k * y3, y2
    return (t * y2 - y3) * 2.0 ** (n / 2.0)


def _roots_hermite(n):
    """Gauss-Hermite nodes and weights for 8 <= n <= QUAD_MAX_NODES, solved
    step for step as scipy 1.17's ``roots_hermite`` solves them, and to its
    bytes (Golub & Welsch 1969, Math. Comp. 23): the eigenvalues of the
    Jacobi matrix, one Newton step, log-normalised weights, symmetrised and
    scaled to sum to sqrt(pi).  Above 150 nodes scipy switches to an
    asymptotic rule, so the bytes would no longer be scipy's."""
    off = np.sqrt(np.arange(1.0, n) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    dy = 2.0 * n * _hermite(n - 1, x)
    x -= _hermite(n, x) / dy
    fm = _hermite(n - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= math.sqrt(math.pi) / w.sum()
    return x, w


@functools.lru_cache(maxsize=8)
def _hermgauss(nodes):
    """The Gauss-Hermite rule (nodes, weights) of ``_roots_hermite``, solved
    once per node count and shared read-only."""
    rule = _roots_hermite(_quad_nodes(nodes))
    for a in rule:
        a.flags.writeable = False
    return rule


def mixture_limit_cdf(mp: MixtureParams, x: float, y: float, nodes: int = 128) -> float:
    """Gaussian-location mixture of the Husler-Reiss law: the expectation of
    H_shifted(x + tau11 - sqrt(2 tau11) Z, y + tau22 - sqrt(2 tau22) W) over a
    standard bivariate Gaussian (Z, W) with correlation tau12/sqrt(tau11 tau22).

    Tensor Gauss-Hermite rule with ``nodes`` points per axis after whitening
    (Z, W) -> (Z, rho Z + sqrt(1 - rho^2) W').  At MixtureParams(1, 1, 0.8, 1),
    going from 64 to 128 nodes per axis moves the value by 1.7e-10 at (0, 0)
    and 9.1e-9 at (-2, 4), and from 128 to 150 by 8.3e-15 and 3.0e-12.
    A NaN x or y is refused; +-inf is accepted.
    """
    _instance(mp, MixtureParams, "mp")
    x, y = _thresholds(x, y)
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
    (x,) = _thresholds(x)
    tau11 = _real(tau11, "tau11", least=0.0, below=math.inf)
    h, w = _hermgauss(nodes)
    z = math.sqrt(2.0) * h
    vals = gumbel_cdf(x + tau11 - math.sqrt(2.0 * tau11) * z)
    est = float(np.dot(w, vals) / math.sqrt(math.pi))
    return min(1.0, max(0.0, est))


def mixture_limit_mc(mp: MixtureParams, x: float, y: float, draws: int, seed):
    """Monte Carlo oracle for mixture_limit_cdf using exact (Z, W) draws.

    Returns (estimate, standard_error); the error needs ``draws`` >= 2.  A
    NaN x or y is refused, as by mixture_limit_cdf.
    """
    _instance(mp, MixtureParams, "mp")
    x, y = _thresholds(x, y)
    draws = _count(draws, "draws", 2)
    rng = as_lineage(seed).generator()
    z, w = _pair(rng.standard_normal((2, draws)), mp.rho_zw)
    vals = hr_cdf(
        mp.lambda_tilde,
        x + mp.tau11 - math.sqrt(2.0 * mp.tau11) * z,
        y + mp.tau22 - math.sqrt(2.0 * mp.tau22) * w,
    )
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(draws))


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
        object.__setattr__(self, "c", _real(self.c, f"{self.kind} coupling weight", least=0.0,
                                            most=None if self.kind == "shared" else 0.0, below=1.0))


INDEPENDENT_ROWS = Coupling()


def shared_innovations(c: float) -> Coupling:
    return Coupling("shared", c)


@dataclass(frozen=True)
class ASLTPath:
    """Logarithmic running averages of extreme-event indicators on one path."""

    k_start: int
    checkpoints: tuple[int, ...]  # (n_max // 8, n_max // 4, n_max // 2, n_max)
    averages: np.ndarray          # (len(points), len(checkpoints))
    maxmin_averages: np.ndarray   # (len(maxmin_points), len(checkpoints))
    ceiling: np.ndarray           # (sum_{k<=cp} 1/k) / ln(cp)


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
                 maxmin_points=()) -> ASLTPath:
    """One almost-sure-limit-theorem path: the running averages
    (1/ln n) sum_{k<=n} (1/k) I(M_k^(1) <= u_k(x), M_k^(2) <= u_k(y))
    for each requested (x, y), reported at the row sizes n_max // 8,
    n_max // 4, n_max // 2 and n_max.

    ``maxmin_points`` adds the four-sided indicator variant
    I(-u_k(y1) < m1 <= M1 <= u_k(x1), -u_k(y2) < m2 <= M2 <= u_k(x2)) for
    4-tuples (x1, x2, y1, y2).  Rows are O(k) each, so total work grows like
    n_max^2; n_max above ASLT_HARD_CAP = 1e5, or more than ASLT_MAX_POINTS =
    100 points or max-min points, is refused.

    The sum starts at the model's smallest valid row size ``min_n()`` (>= 2,
    since the norming constants need ln(n) > 0); the discarded initial terms
    are O(1/ln n) and do not affect the limit.  The first checkpoint must be
    a row of the sum, so n_max below 8 * min_n() is refused.
    """
    if not isinstance(model, WeakAR1Model):
        raise DomainError("ASLT paths are implemented for the weak-dependence AR(1) model")
    _instance(coupling, Coupling, "coupling")
    n_max = _count(n_max, "n_max", 1000, ASLT_HARD_CAP)
    points = tuple(_thresholds(*_seq(p, "a point", 2, 2))
                   for p in _seq(points, "points", most=ASLT_MAX_POINTS))
    maxmin_points = tuple(_thresholds(*_seq(q, "a maxmin point", 4, 4))
                          for q in _seq(maxmin_points, "maxmin_points", most=ASLT_MAX_POINTS))
    k_start = model.min_n()
    if n_max // 8 < k_start:
        raise DomainError(f"n_max must be >= {8 * k_start} for this model, so that the first "
                          f"checkpoint n_max // 8 is at least its first row {k_start}; got {n_max}")
    checkpoints = (n_max // 8, n_max // 4, n_max // 2, n_max)

    lineage = as_lineage(seed)

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
        k_start=k_start,
        checkpoints=checkpoints,
        averages=wsum[at, : len(points)].T / ell,
        maxmin_averages=wsum[at, len(points) :].T / ell,
        ceiling=np.cumsum(inv_k)[at] / ell,
    )


# ---------------------------------------------------------------------------
# comparison-lemma bound series (exact summation, no simulation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSeries:
    """A comparison-lemma bound sum evaluated along a grid of row sizes."""

    n_grid: tuple[int, ...]
    values: tuple[float, ...]
    omega_rule: str


@dataclass(frozen=True)
class AsltRateReport:
    """Within-row and cross-row bound series with the (ln ln n)^-(1+eps) ratio."""

    within_row: BoundSeries
    cross_row: BoundSeries
    ratios: tuple[float, ...]
    bounded: bool


def _thresholds(*values):
    """``values`` as floats; NaN is refused, and +-inf is kept (in a bound sum
    it drops that coordinate)."""
    return tuple(_real(v, "threshold") for v in values)


def _omega(n, x, y):
    nm = norming_constants(n)
    return min(abs(nm.u(x)), abs(nm.u(y)))


_SUM_CHUNK = 1 << 20


def _pairwise(leaf_sum, lo, count):
    """np.sum of the ``count`` terms from index ``lo``, given the sums
    ``leaf_sum(lo, count)`` of leaves of at most ``_BLOCK_BYTES // 8`` terms.

    numpy sums an array pairwise: a node of more than 128 terms splits at
    count // 2 - (count // 2) % 8 and adds the sums of its halves.  This is
    that tree cut off at leaves of 128 terms or more, which numpy's own sum
    of the leaf gives, so the result is the float of one np.sum."""
    if count <= _BLOCK_BYTES // 8:
        return leaf_sum(lo, count)
    half = count // 2 - (count // 2) % 8
    return _pairwise(leaf_sum, lo, half) + _pairwise(leaf_sum, lo + half, count - half)


def _weak_sum(model, n, omega, kind, taus=None):
    """n * sum_k |rho(k,n) [- tau(n)]| exp(-omega^2 / (1 + scale)), max over pairs.

    Each chunk of ``_SUM_CHUNK`` lags is summed as by one np.sum over its
    terms, from leaves of 256 KB of lags (``_pairwise``).  A leaf works its
    terms by the operations of weight * exp(-w2 / (1.0 + scale)) in their
    order, in four leaf buffers allocated once per call.  A leaf whose weights
    are all zero sums to 0.0 without ``exp``: its terms are +0.0 times a
    factor in [0, 1]."""
    out = 0.0
    w2 = omega * omega
    step = _BLOCK_BYTES // 8
    ramp = np.arange(step, dtype=float)
    lag_buf, rho_buf, weight_buf, term_buf = np.empty((4, step))
    for pair_idx, (i, j) in enumerate(_PAIRS):
        tau_n = taus[pair_idx] / math.log(n) if kind == "L2" else None

        def leaf_sum(lo, count):
            lags = np.add(ramp[:count], lo, out=lag_buf[:count])  # lo..lo+count-1, exact
            rho = model.lag_corr_array(i, j, lags, n, out=rho_buf[:count])
            weight = np.abs(rho, out=rho)
            if kind == "L2":
                weight = model.lag_corr_array(i, j, lags, n, out=weight_buf[:count])
                np.subtract(weight, tau_n, out=weight)
                np.abs(weight, out=weight)
                np.maximum(rho, tau_n, out=rho)  # the scale
            if not weight.any():
                return 0.0
            term = np.add(1.0, rho, out=term_buf[:count])
            np.divide(-w2, term, out=term)
            np.exp(term, out=term)
            term *= weight
            return np.sum(term)

        total = 0.0
        for lo in range(1, n, _SUM_CHUNK):
            total += float(_pairwise(leaf_sum, lo, min(_SUM_CHUNK, n - lo)))
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
    # the sums read the model's correlations at row size n
    n_grid = _scan_sizes(model, n_grid)
    x, y = _thresholds(x, y)
    taus = None
    if kind == "L2":
        if not isinstance(model, StrongFactorModel):
            raise DomainError("L2 needs a model with tau constants (strong-factor)")
        taus = (model.mix.tau11, model.mix.tau12, model.mix.tau22)
    values = tuple(_weak_sum(model, n, _omega(n, x, y), kind, taus) for n in n_grid)
    return BoundSeries(
        n_grid=n_grid, values=values, omega_rule=f"omega_n = min(|u_n({x:g})|, |u_n({y:g})|)"
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
    try:
        w2n = omega_n**2
    except OverflowError:  # every numerator is -inf, so every term is exp(-inf) = 0
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
        with np.errstate(over="ignore"):  # an omega_m^2 of inf is a row of zero terms
            num = -(np.minimum(np.abs(am * x + bm), np.abs(am * y + bm))[:, None] ** 2 + w2n)
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
                    n_grid, x: float, y: float) -> AsltRateReport:
    """The within-row bound sum (as in the L1 series) and its ratio to
    (ln ln n)^-(1+epsilon), plus the cross-row analogue for the requested
    coupling (evaluated on its correlation envelope c * phi^(lag)).  Verdict
    "bounded" holds when the ratio sequence attains its maximum on the first
    half of the grid."""
    _instance(cross_row, Coupling, "cross_row")
    epsilon = _real(epsilon, "epsilon", above=0.0, below=math.inf)
    n_grid = tuple(_count(n, "n_grid entry", 16) for n in _seq(n_grid, "n_grid", 1))  # ln ln n > 1
    rate = []
    for n in n_grid:  # float ** raises OverflowError where numpy would give inf
        try:
            rate.append(math.log(math.log(n)) ** (1.0 + epsilon))
        except OverflowError:
            raise DomainError(f"(ln ln n)^(1+epsilon) overflows at epsilon={epsilon:g}, "
                              f"n={n}") from None
    x, y = _thresholds(x, y)

    within = comparison_bound_series(model, "L1", x, y, n_grid)

    if cross_row.kind == "shared":
        if not isinstance(model, WeakAR1Model):
            raise DomainError("shared coupling requires the AR(1) model")
        cross_vals = tuple(
            _cross_rate_value(model.phi, cross_row.c, n, _omega(n, x, y), x, y) for n in n_grid
        )
    else:
        cross_vals = tuple(0.0 for _ in n_grid)
    cross = BoundSeries(n_grid=n_grid, values=cross_vals, omega_rule=within.omega_rule)

    ratios = tuple(v * r for v, r in zip(within.values, rate))
    first_half = ratios[: (len(ratios) + 1) // 2]
    bounded = max(ratios) <= max(first_half) + 1e-300
    return AsltRateReport(within_row=within, cross_row=cross, ratios=ratios, bounded=bounded)
