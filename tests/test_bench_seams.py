"""The benchmark's tracer finds every name it patches, puts each back, and
counts the work the benchmark's gate expects.

``bench/tracing.py`` wraps module globals and class attributes of the package
by name, and counts streams, rows and normals one call at a time.  A refactor
that drops or moves one of them, or a kernel that stops calling one per row,
fails here, in tier-1, instead of only in a traced benchmark run.
"""

import importlib
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import hrlab
import hrlab.cli  # noqa: F401  (instrument patches the CLI module too)
from hrlab import experiments

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_instrument_patches_every_seam_and_restore_puts_it_back(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, hrlab, pool=True)
        patched = list(tracer._patched)
        assert all(owner.__dict__[name] is not original for owner, name, original in patched)
    finally:
        tracer.restore()
    assert patched
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} not restored"


class InlinePool:
    """Runs each chunk in this process, so the tracer sees every row."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def _traced(tracing, run):
    tracer = tracing.Tracer()
    tracing.instrument(tracer, hrlab)
    try:
        run()
    finally:
        tracer.restore()
    return tracer


@pytest.mark.parametrize("model, per_row", [
    (hrlab.WeakAR1Model(1.0, 0.2), lambda n: 2 * (n + 1)),
    (hrlab.StrongFactorModel(hrlab.MixtureParams(1.0, 1.0, 0.8, 1.0)), lambda n: 2 + 2 * n),
], ids=["weak", "strong"])
@pytest.mark.parametrize("workers", [1, 3])
def test_traced_counts_of_an_empirical_law(tracing, monkeypatch, model, per_row, workers):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    n, reps, axis = 150, 300, np.linspace(-1.0, 2.0, 4)
    # the tracer times the laws where the CLI looks them up
    t = _traced(tracing, lambda: hrlab.cli.empirical_max_law(
        model, n, reps, (axis, axis), 5, workers=workers))
    assert t.calls["seeding.generator"] == t.counts["rows"] == t.counts["replications"] == reps
    assert t.counts["normals"] == reps * per_row(n)
    assert t.calls["norming.norming_constants"] == workers  # one per chunk


def test_a_thousand_workers_submit_at_most_64_chunks(tracing, monkeypatch):
    submits = []

    class CountingPool(InlinePool):
        def submit(self, fn, *args):
            submits.append(len(args[2]))  # the chunk's replications
            return super().submit(fn, *args)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    model, n, reps, axis = hrlab.WeakAR1Model(1.0, 0.2), 150, 300, np.linspace(-1.0, 2.0, 4)
    laws, traces = [], []
    for workers in (1, 1000):
        traces.append(_traced(tracing, lambda: laws.append(hrlab.cli.empirical_max_law(
            model, n, reps, (axis, axis), 5, workers=workers))))
    assert len(submits) <= experiments.MAX_CHUNKS == 64 and sum(submits) == reps
    one, many = traces
    assert many.calls["seeding.generator"] == one.calls["seeding.generator"] == reps
    assert many.counts == one.counts
    assert np.array_equal(laws[0].cdf, laws[1].cdf)


@pytest.mark.parametrize("model, per_row", [
    (hrlab.WeakAR1Model(1.0, 0.2), lambda n: 2 * (n + 1)),
    (hrlab.StrongFactorModel(hrlab.MixtureParams(1.0, 1.0, 0.8, 1.0)), lambda n: 2 + 2 * n),
], ids=["weak", "strong"])
def test_traced_counts_of_sample_rows(tracing, model, per_row):
    n, keys = 150, range(3, 1100)  # crosses the 1024-key hash edge
    t = _traced(tracing, lambda: hrlab.sample_rows(model, n, 5, keys))
    assert t.calls["seeding.generator"] == t.counts["rows"] == len(keys)
    assert t.counts["normals"] == len(keys) * per_row(n)


def test_traced_counts_of_an_aslt_path(tracing):
    model, n_max = hrlab.WeakAR1Model(1.0, 0.5), 1000
    t = _traced(tracing, lambda: hrlab.cli.aslt_average(
        model, hrlab.INDEPENDENT_ROWS, n_max, ((0.0, 0.0),), 5))
    sizes = range(model.min_n(), n_max + 1)
    assert t.calls["seeding.generator"] == t.counts["rows"] == t.counts["aslt_rows"] == len(sizes)
    assert t.counts["normals"] == sum(2 * (k + 1) for k in sizes)
    assert t.calls["norming.norming_constants"] == len(sizes)  # one per row size


def test_traced_counts_of_bound_sums_and_draws(tracing):
    # each leaf calls lag_corr_array on its own lags, and the bisection calls
    # _cond_cdf on reused buffers: neither may move a traced count
    weak = hrlab.WeakAR1Model(1.0, 0.5)
    strong = hrlab.StrongFactorModel(hrlab.MixtureParams(1.0, 1.0, 0.8, 1.0))
    grid = (10**3, 10**6)
    t = _traced(tracing, lambda: (
        experiments.comparison_bound_series(weak, "L1", 3, 3, grid),
        experiments.comparison_bound_series(strong, "L2", 3, 3, grid),
        hrlab.evd_core.hr_sample(0.5, 50000, hrlab.SeedLineage(0).child(5)),
        hrlab.evd_core.hr_sample(2.0, 50000, hrlab.SeedLineage(0).child(20)),
    ))
    terms = sum(3 * (n - 1) for n in grid)  # 3 pairs, lags 1..n-1
    assert t.counts["bound_terms"] == 2 * terms  # one L1 and one L2 series
    assert t.counts["lagcorr_terms"] == terms + 2 * terms  # L2 reads them twice
    assert t.calls["evd_core.cond_cdf"] == 81  # bench/golden.json pins the same count
