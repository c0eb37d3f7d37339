"""The benchmark's workloads: the operations each runs and the exact work one
pass must do, derived from the configuration alone.

Every workload runs closed-loop from one benchmark process: the next operation
starts when the previous one has returned.  Sizes are chosen so one pass takes
a few seconds on a 2-core machine; the throughput metric ``normals_per_s``
divides by the configured draw count, so it stays comparable if a workload is
resized.
"""

import math
from dataclasses import dataclass, field

WORKERS = 2          # --workers passed to every CLI operation
DEFAULT_SEED = 0     # the seed at which digests and exit codes are pinned

GRID_POINTS = 9      # default --grid -2:4:9 of verify weak/strong
NODES = 128          # default --nodes of verify strong


@dataclass(frozen=True)
class CliOp:
    """One ``hrlab`` invocation; seed, workers and --format json are appended."""

    argv: tuple[str, ...]

    @property
    def label(self):
        return "hrlab " + " ".join(self.argv)


@dataclass(frozen=True)
class SampleOp:
    """One library call ``hr_sample(lam, count, SeedLineage(seed).child(10 lam))``,
    the seed layout of acceptance criterion 3."""

    lam: float
    count: int

    @property
    def label(self):
        return f"hr_sample(lam={self.lam:g}, count={self.count})"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    normals: int        # variates one pass draws (standard normals; uniforms on exact_series)
    counts: dict = field(default_factory=dict)  # work counts of one traced pass at workers=1
    chunks: int = 0     # pool submissions of one pass at WORKERS


def _chunks(total, workers=WORKERS):
    per = math.ceil(total / workers)
    return len(range(0, total, per))


def _ngrid(values):
    return ",".join(str(n) for n in values)


_ZERO = dict.fromkeys(
    ("streams", "rows", "normals", "uniforms", "replications", "aslt_rows",
     "norming_calls", "cdf_evals", "quad_points", "bound_terms",
     "lagcorr_terms", "sampler_draws"),
    0,
)


def _counts(**nonzero):
    return {**_ZERO, **nonzero}


def mc_short_rows():
    n, reps = 200, 20000
    # verify weak samples the dependent model and the phi=0 baseline, each
    # with (2, n+1) normals per replication
    normals = 2 * reps * 2 * (n + 1)
    return Workload(
        name="mc_short_rows",
        ops=(CliOp(("verify", "weak", "--lambda", "1", "--phi", "0.2",
                    "--n", str(n), "--reps", str(reps))),),
        normals=normals,
        counts=_counts(
            streams=2 * reps, rows=2 * reps, normals=normals, replications=2 * reps,
            norming_calls=2,
            # sup distance for both laws plus one theory value per table cell
            cdf_evals=3 * GRID_POINTS**2,
        ),
        chunks=2 * _chunks(reps),
    )


def mc_long_rows():
    n, reps = 20000, 4000
    normals = reps * (2 + 2 * n)
    return Workload(
        name="mc_long_rows",
        ops=(CliOp(("verify", "strong", "--lambda", "1", "--tau", "1,1,0.8",
                    "--n", str(n), "--reps", str(reps))),),
        normals=normals,
        counts=_counts(
            streams=reps, rows=reps, normals=normals, replications=reps,
            norming_calls=1,
            quad_points=GRID_POINTS**2 + GRID_POINTS,
            cdf_evals=GRID_POINTS**2 * NODES**2,
        ),
        chunks=_chunks(reps),
    )


def aslt_paths():
    lam, nmax, seeds = 1.0, 3000, 4
    k_start = max(2, math.ceil(math.exp(lam * lam / 2.0)))  # smallest valid row size
    rows = seeds * (nmax - k_start + 1)
    normals = seeds * sum(2 * (k + 1) for k in range(k_start, nmax + 1))
    return Workload(
        name="aslt_paths",
        ops=(CliOp(("verify", "aslt", "--lambda", "1", "--phi", "0.5",
                    "--nmax", str(nmax), "--seeds", str(seeds))),),
        normals=normals,
        counts=_counts(
            streams=rows, rows=rows, normals=normals, aslt_rows=rows,
            norming_calls=rows,
            # targets of the 2 default points and of their 2 max-min variants
            cdf_evals=2 + 2 * 2,
        ),
    )


def cross_terms(phi, c, n):
    """Exponential terms of one cross-row rate sum: (n - 2) row sizes times
    the lags kept before the envelope c * phi^k underflows (the truncation
    rule of ``experiments._cross_rate_value``)."""
    if c == 0.0:
        return 0
    k_eff = 1
    if abs(phi) > 0.0:
        k_eff = min(n, int(math.ceil((745.0 + math.log(max(c, 1e-300))) / -math.log(abs(phi)))) + 2)
    return (n - 2) * k_eff


def exact_series():
    l1 = l2 = (10**3, 10**4, 10**5, 10**6)
    rate = (1000, 10000, 30000, 100000)
    phi, c = 0.5, 0.3
    draws = 50000
    samples = (SampleOp(0.5, draws), SampleOp(2.0, draws))
    weak_terms = lambda grid: sum(3 * (n - 1) for n in grid)  # noqa: E731  3 pairs, lags 1..n-1
    return Workload(
        name="exact_series",
        ops=(
            CliOp(("verify", "bounds", "--kind", "L1", "--lambda", "1", "--phi", str(phi),
                   "--ngrid", _ngrid(l1))),
            CliOp(("verify", "bounds", "--kind", "L2", "--lambda", "1", "--tau", "1,1,0.8",
                   "--ngrid", _ngrid(l2))),
            CliOp(("verify", "bounds", "--kind", "rate", "--lambda", "1", "--phi", str(phi),
                   "--coupling", f"shared:{c}", "--ngrid", _ngrid(rate))),
        ) + samples,
        # no normal is drawn here: the throughput counts the sampler's uniforms
        normals=sum(2 * s.count for s in samples),
        counts=_counts(
            streams=len(samples), uniforms=sum(2 * s.count for s in samples),
            sampler_draws=sum(s.count for s in samples),
            # one omega per grid point; the rate kind derives it twice
            norming_calls=len(l1) + len(l2) + 2 * len(rate),
            bound_terms=weak_terms(l1) + weak_terms(l2) + weak_terms(rate)
            + sum(cross_terms(phi, c, n) for n in rate),
            # L2 reads the correlations twice per lag block
            lagcorr_terms=weak_terms(l1) + 2 * weak_terms(l2) + weak_terms(rate),
        ),
    )


WORKLOADS = {f.__name__: f for f in (mc_short_rows, mc_long_rows, aslt_paths, exact_series)}
