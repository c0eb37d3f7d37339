"""Spans and work counters recorded around hrlab's module boundaries.

Nothing in ``src/hrlab`` is edited: ``instrument`` replaces names where the
package looks them up (module globals and class attributes) with timing
wrappers, and ``restore`` puts the originals back.  A span's self time is its
duration minus the durations of the spans it called directly.

Layers are the package modules: cli, experiments, gauss_arrays, norming,
evd_core and seeding.  A span key is "<layer>.<function>".
"""

import math
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

from workloads import cross_terms

EMPIRICAL_KEYS = ("experiments.empirical_max_law", "experiments.empirical_maxmin_law")
QUAD_KEYS = ("experiments.mixture_limit_cdf", "experiments.univariate_mixture_cdf")
BOUND_KEYS = (
    "experiments.comparison_bound_series",
    "experiments.aslt_bound_rate",
    "experiments._weak_sum",
    "experiments._cross_rate_value",
)


class CountingGenerator:
    """Delegates to a numpy Generator and counts the variates drawn from it."""

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def standard_normal(self, size=None, *args, **kwargs):
        self._counts["normals"] += _draws(size, kwargs)
        return self._rng.standard_normal(size, *args, **kwargs)

    def random(self, size=None, *args, **kwargs):
        self._counts["uniforms"] += _draws(size, kwargs)
        return self._rng.random(size, *args, **kwargs)

    def __getattr__(self, name):
        # other draw methods pass through uncounted; the work-count check
        # against the configuration then fails loudly
        return getattr(self._rng, name)


def _draws(size, kwargs):
    if size is None:
        out = kwargs.get("out")
        return 1 if out is None else int(np.size(out))
    try:
        return math.prod(size)
    except TypeError:  # a scalar size
        return int(size)


class Tracer:
    """In-memory spans (aggregated per key) and work counters of one traced pass."""

    def __init__(self):
        self.busy = defaultdict(float)      # inclusive seconds per span key
        self.self_time = defaultdict(float)  # exclusive seconds per span key
        self.calls = Counter()
        self.counts = Counter()
        self.active = Counter()             # span keys currently open
        self._stack = []                    # child-time accumulators of open spans
        self._patched = []

    def wrap(self, fn, key, post=None):
        """Return ``fn`` timed as span ``key``; ``post(args, result)`` may
        count work and returns the result handed back to the caller."""

        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            self.active[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(args, result)
                return result
            finally:
                dur = perf_counter() - start
                self.active[key] -= 1
                self._stack.pop()
                self.busy[key] += dur
                self.self_time[key] += dur - child[0]
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1][0] += dur

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, name, key, post=None):
        original = owner.__dict__[name]
        self._patched.append((owner, name, original))
        setattr(owner, name, self.wrap(original, key, post))

    def restore(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def layer_self(self, layer):
        return sum(v for k, v in self.self_time.items() if k.startswith(layer + "."))

    # -- counting hooks ------------------------------------------------------

    def _count_stream(self, args, rng):
        return CountingGenerator(rng, self.counts)

    def _count_row(self, args, result):
        self.counts["rows"] += 1
        active = self.active
        if active[EMPIRICAL_KEYS[0]] or active[EMPIRICAL_KEYS[1]]:
            self.counts["replications"] += 1
        if active["experiments.aslt_average"]:
            self.counts["aslt_rows"] += 1
        return result

    def _count_lags(self, args, result):
        self.counts["lagcorr_terms"] += int(np.size(args[3]))  # (self, i, j, lags, n)
        return result

    def _count_cdf(self, args, result):
        self.counts["cdf_evals"] += int(np.size(result))
        return result

    def _count_draws(self, args, result):
        self.counts["sampler_draws"] += int(np.shape(result)[0])
        return result

    def _count_weak_terms(self, args, result):
        self.counts["bound_terms"] += 3 * (int(args[1]) - 1)  # (model, n, ...), 3 pairs
        return result

    def _count_cross_terms(self, args, result):
        phi, c, n = args[:3]
        self.counts["bound_terms"] += cross_terms(phi, c, int(n))
        return result

    def _count_report(self, args, text):
        self.counts["report_bytes"] += len(text.encode())
        return text


def instrument(tracer, hrlab, pool=False):
    """Wrap every layer boundary of an imported ``hrlab``.  With ``pool`` the
    experiments module also gets a process pool that times its own start-up,
    submissions and waits from the parent side."""
    cli, ex, ga, evd = hrlab.cli, hrlab.experiments, hrlab.gauss_arrays, hrlab.evd_core
    t = tracer
    t.patch(hrlab.seeding.SeedLineage, "generator", "seeding.generator", t._count_stream)
    for model in (ga.WeakAR1Model, ga.StrongFactorModel):
        t.patch(model, "_sample", "gauss_arrays.sample", t._count_row)
        t.patch(model, "lag_corr_array", "gauss_arrays.lag_corr_array", t._count_lags)
    for mod in (ga, ex):
        t.patch(mod, "_ar1_path", "gauss_arrays.ar1_path")
    t.patch(ex, "_pair", "gauss_arrays.pair")
    t.patch(ex, "norming_constants", "norming.norming_constants")
    for mod in (cli, ex):
        t.patch(mod, "hr_cdf", "evd_core.hr_cdf", t._count_cdf)
    t.patch(evd, "hr_sample", "evd_core.hr_sample", t._count_draws)
    t.patch(evd, "_cond_cdf", "evd_core.cond_cdf")
    for name in ("empirical_max_law", "empirical_maxmin_law", "mixture_limit_cdf",
                 "univariate_mixture_cdf", "sup_distance", "aslt_average",
                 "comparison_bound_series", "aslt_bound_rate"):
        t.patch(cli, name, f"experiments.{name}")
    t.patch(ex, "_weak_sum", "experiments._weak_sum", t._count_weak_terms)
    t.patch(ex, "_cross_rate_value", "experiments._cross_rate_value", t._count_cross_terms)
    for name in ("render_json", "render_csv"):
        t.patch(cli, name, "cli.render", t._count_report)
    t.patch(cli, "main", "cli.main")
    if pool:
        t._patched.append((ex, "ProcessPoolExecutor", ex.ProcessPoolExecutor))
        ex.ProcessPoolExecutor = _traced_pool(t)


def _traced_pool(tracer):
    busy = tracer.busy

    class TracedPool(ProcessPoolExecutor):
        # with the fork start method the workers are launched by the first submit
        def __init__(self, *args, **kwargs):
            start = perf_counter()
            super().__init__(*args, **kwargs)
            busy["experiments.pool_start"] += perf_counter() - start

        def submit(self, *args, **kwargs):
            start = perf_counter()
            fut = super().submit(*args, **kwargs)
            busy["experiments.pool_start"] += perf_counter() - start
            tracer.counts["chunks"] += 1
            result = fut.result

            def timed_result(timeout=None):
                start = perf_counter()
                try:
                    return result(timeout)
                finally:
                    busy["experiments.pool_wait"] += perf_counter() - start

            fut.result = timed_result
            return fut

        def shutdown(self, *args, **kwargs):
            start = perf_counter()
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                busy["experiments.pool_wait"] += perf_counter() - start

    return TracedPool
