"""Monte Carlo laws, mixture quadrature, ASLT paths and bound series."""

import contextlib
import gc
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import hrlab as H
from hrlab import experiments, gauss_arrays
from hrlab.errors import DomainError

from cpu_path import NON_AVX512, X86

ROOT = H.SeedLineage(909)

# mpmath adaptive quadrature, 25 significant digits: E Gumbel(1 - sqrt(2) Z)
UNIV_MIX_TAU1_X0 = 0.6084866022380800139297039


def grid(lo=-2.0, hi=4.0, count=9):
    return np.linspace(lo, hi, count)


class TestEmpiricalMaxLaw:
    def test_requires_enough_replications(self):
        with pytest.raises(DomainError):
            H.empirical_max_law(H.WeakAR1Model(1.0, 0.0), 100, 99, (grid(), grid()), 1)

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            H.empirical_max_law(
                H.WeakAR1Model(1.0, 0.0), 100, 100, (np.array([1.0, 1.0]), grid()), 1
            )
        with pytest.raises(DomainError, match="non-empty"):
            H.empirical_max_law(H.WeakAR1Model(1.0, 0.0), 100, 100, ([], grid()), 1)
        for axes in ((grid(),), (grid(), grid(), grid())):
            with pytest.raises(DomainError, match="the length of grid must be 2"):
                H.empirical_max_law(H.WeakAR1Model(1.0, 0.0), 100, 100, axes, 1)

    @pytest.mark.parametrize("axis", [[math.inf, math.inf], [-math.inf, -math.inf]])
    def test_a_repeated_infinite_grid_point_is_refused(self, axis):
        # inf - inf is NaN, so a difference test would let the axis through
        with pytest.raises(DomainError, match="strictly increasing"):
            H.empirical_max_law(H.WeakAR1Model(1.0, 0.0), 100, 100, (axis, grid()), 1)

    def test_cdf_axioms_and_determinism(self):
        m = H.WeakAR1Model(1.0, 0.3)
        emp1 = H.empirical_max_law(m, 200, 300, (grid(), grid()), ROOT.child(1))
        emp2 = H.empirical_max_law(m, 200, 300, (grid(), grid()), ROOT.child(1))
        assert np.array_equal(emp1.cdf, emp2.cdf)
        assert np.all(emp1.cdf >= 0.0) and np.all(emp1.cdf <= 1.0)
        assert np.all(np.diff(emp1.cdf, axis=0) >= 0.0)
        assert np.all(np.diff(emp1.cdf, axis=1) >= 0.0)

    def test_worker_count_does_not_change_counts(self):
        m = H.WeakAR1Model(1.0, 0.5)
        seq = H.empirical_max_law(m, 300, 400, (grid(), grid()), ROOT.child(2), workers=1)
        par = H.empirical_max_law(m, 300, 400, (grid(), grid()), ROOT.child(2), workers=2)
        assert np.array_equal(seq.cdf, par.cdf)

    @pytest.mark.parametrize("fails", [False, True])
    def test_pool_forks_with_the_parents_objects_frozen(self, monkeypatch, fails):
        # forked workers' collections skip the parent's objects; the parent
        # unfreezes them afterwards, also when the pool fails
        frozen = []

        class InlinePool:  # starts no process
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                frozen.append(gc.get_freeze_count())
                if fails:
                    raise RuntimeError("worker died")
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        m = H.WeakAR1Model(1.0, 0.5)
        with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
            H.empirical_max_law(m, 200, 128, (grid(), grid()), ROOT.child(3), workers=2)
        assert frozen and min(frozen) > 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(("cpus", "cap"), [(3, 3), (None, 1), (128, 64)])
    def test_pool_capped_at_cpu_count_chunks_follow_workers(self, monkeypatch, cpus, cap):
        pools, chunks = [], []

        class InlinePool:  # records the pool size; starts no process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                chunks.append(args[3:5])
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        m = H.WeakAR1Model(1.0, 0.5)
        par = H.empirical_max_law(m, 200, 128, (grid(), grid()), ROOT.child(3), workers=64)
        seq = H.empirical_max_law(m, 200, 128, (grid(), grid()), ROOT.child(3), workers=1)
        assert pools == [cap]
        assert len(chunks) == 64  # ceil(128 / 64) = 2 replications per chunk
        assert np.array_equal(seq.cdf, par.cdf)

    def test_iid_independent_components_match_finite_n_law(self):
        # phi=0 and the infinite parameter give iid rows with independent
        # components, whose normalized-maxima CDF is known in closed form
        m = H.WeakAR1Model(math.inf, 0.0)
        n = 500
        nm = H.norming_constants(n)

        def finite_law(X, Y):
            return stats.norm.cdf(nm.u(X)) ** n * stats.norm.cdf(nm.u(Y)) ** n

        dists = []
        for reps in (2000, 20000):
            emp = H.empirical_max_law(m, n, reps, (grid(), grid()), ROOT.child(2000 + reps))
            dists.append(H.sup_distance(emp, finite_law))
        assert dists[1] < dists[0]
        assert dists[1] <= 0.012

    def test_comonotone_rows_concentrate_on_diagonal(self):
        emp = H.empirical_max_law(
            H.WeakAR1Model(0.0, 0.5), 2000, 2000, (grid(), grid()), ROOT.child(7)
        )
        # identical components: the empirical law only charges the diagonal
        for i in range(emp.grid_x.size):
            for j in range(emp.grid_y.size):
                k = min(i, j)
                assert emp.cdf[i, j] == emp.cdf[k, k]
        d = H.sup_distance(emp, lambda X, Y: H.hr_cdf(0.0, X, Y))
        assert d <= 0.08  # finite-n bias dominates; shrinks with n


class TestSupDistance:
    def test_zero_against_itself(self):
        emp = H.empirical_max_law(
            H.WeakAR1Model(1.0, 0.0), 100, 200, (grid(), grid()), ROOT.child(4)
        )
        table = emp.cdf.copy()
        assert H.sup_distance(emp, lambda X, Y: table) == 0.0

    def test_detects_single_node_shift(self):
        emp = H.empirical_max_law(
            H.WeakAR1Model(1.0, 0.0), 100, 200, (grid(), grid()), ROOT.child(5)
        )
        shifted = emp.cdf.copy()
        shifted[3, 4] += 0.125
        assert H.sup_distance(emp, lambda X, Y: shifted) == pytest.approx(0.125)

    def test_scalar_theory_callable(self):
        emp = H.empirical_max_law(
            H.WeakAR1Model(1.0, 0.0), 100, 200, (grid(), grid()), ROOT.child(6)
        )
        d_vec = H.sup_distance(emp, lambda X, Y: H.hr_cdf(1.0, X, Y))
        d_scal = H.sup_distance(emp, lambda x, y: float(H.hr_cdf(1.0, float(x), float(y))))
        assert d_vec == d_scal


class TestMixtureQuadrature:
    MP = H.MixtureParams(1.0, 1.0, 0.8, 1.0)

    def test_equal_tau_collapses_to_1d_rule(self):
        mp_ = H.MixtureParams(0.5, 0.5, 0.5, 1.0)
        h, w = np.polynomial.hermite.hermgauss(200)
        z = math.sqrt(2.0) * h
        vals = H.hr_cdf(mp_.lambda_tilde, 0.2 + 0.5 - z, -0.1 + 0.5 - z)
        oracle = float(np.dot(w, vals) / math.sqrt(math.pi))
        assert H.mixture_limit_cdf(mp_, 0.2, -0.1) == pytest.approx(oracle, abs=1e-12)

    def test_degenerate_mixture_recovers_hr(self):
        mp_ = H.MixtureParams(1e-9, 1e-9, 1e-9, 1.0)
        assert H.mixture_limit_cdf(mp_, 0.3, -0.4) == pytest.approx(
            H.hr_cdf(1.0, 0.3, -0.4), abs=1e-6
        )

    def test_upper_tail_reaches_one(self):
        assert H.mixture_limit_cdf(self.MP, 40.0, 40.0) == pytest.approx(1.0, abs=1e-10)

    def test_node_doubling_converges(self):
        vals = [H.mixture_limit_cdf(self.MP, 0.0, 0.0, nodes) for nodes in (32, 64, 128, 150)]
        deltas = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[-1] < 1e-10

    def test_matches_monte_carlo_oracle(self):
        for point in ((0.0, 0.0), (1.0, 1.0)):
            q = H.mixture_limit_cdf(self.MP, *point)
            mc, se = H.mixture_limit_mc(self.MP, *point, draws=200000, seed=ROOT.child(42))
            assert abs(q - mc) <= 3.0 * se

    @pytest.mark.parametrize("draws", [1, 0])
    def test_monte_carlo_oracle_refuses_fewer_than_two_draws(self, draws):
        with pytest.raises(DomainError):
            H.mixture_limit_mc(self.MP, 0.0, 0.0, draws=draws, seed=ROOT.child(42))

    def test_marginal_consistency(self):
        for x in (-1.0, 0.0, 0.7, 2.0):
            two_d = H.mixture_limit_cdf(self.MP, x, 40.0)
            one_d = H.univariate_mixture_cdf(self.MP.tau11, x)
            assert abs(two_d - one_d) <= 1e-9

    def test_univariate_oracle_value(self):
        assert H.univariate_mixture_cdf(1.0, 0.0) == pytest.approx(UNIV_MIX_TAU1_X0, abs=1e-9)

    def test_univariate_degenerate(self):
        assert H.univariate_mixture_cdf(0.0, 0.4) == pytest.approx(H.gumbel_cdf(0.4), abs=1e-15)

    @pytest.mark.parametrize("call", [
        lambda: H.mixture_limit_cdf(H.MixtureParams(1.0, 1.0, 0.8, 1.0), math.nan, 0.0),
        lambda: H.univariate_mixture_cdf(math.nan, 0.0),
        lambda: H.univariate_mixture_cdf(1.0, math.nan),
        lambda: H.univariate_mixture_cdf(math.inf, 0.0),
        lambda: H.mixture_limit_mc(H.MixtureParams(1.0, 1.0, 0.8, 1.0), math.nan, 0.0, 100, 0),
        lambda: H.empirical_max_law(H.WeakAR1Model(1.0, 0.0), 100, 100,
                                    ([0.0, math.nan], [0.0, 1.0]), 0),
        lambda: H.aslt_average(H.WeakAR1Model(1.0, 0.5), H.INDEPENDENT_ROWS, 1000,
                               ((math.nan, 0.0),), 0),
    ], ids=["mixture-x", "univariate-tau11", "univariate-x", "univariate-tau11-inf",
            "mixture-mc-x", "empirical-grid", "aslt-point"])
    def test_nan_argument_or_infinite_tau11_is_refused(self, call):
        # the [0, 1] clamp would turn a NaN estimate into 0.0; an infinite
        # tau11 gives NaN terms, and MixtureParams refuses it too
        with pytest.raises(DomainError):
            call()

    def test_infinite_threshold_is_accepted(self):
        # the rule's weights sum to sqrt(pi) within a few ulp
        assert H.mixture_limit_cdf(self.MP, math.inf, math.inf) == pytest.approx(1.0, abs=1e-14)
        assert H.mixture_limit_cdf(self.MP, 0.0, -math.inf) == 0.0
        assert H.univariate_mixture_cdf(1.0, math.inf) == pytest.approx(1.0, abs=1e-14)

    def test_rule_is_solved_once_and_read_only(self):
        h, w = experiments._hermgauss(128)
        assert experiments._hermgauss(128)[0] is h
        assert not (h.flags.writeable or w.flags.writeable)

    def test_rule_has_roots_hermite_bytes(self):
        # every accepted node count
        for nodes in range(8, 151):
            ours, theirs = experiments._hermgauss(nodes), special.roots_hermite(nodes)
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs], nodes

    def test_recurrence_has_eval_hermite_bytes(self):
        x = np.linspace(-12.0, 12.0, 2001)
        for n in range(1, 151):
            assert experiments._hermite(n, x).tobytes() == special.eval_hermite(n, x).tobytes(), n

    @pytest.mark.skipif(not X86, reason="the variable names numpy's x86 code paths")
    def test_rule_has_roots_hermite_bytes_off_avx512(self):
        # numpy's non-AVX-512 exp and log loops, in a child interpreter: both
        # rules go through np.exp and np.log, so they must move together
        code = (
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "from scipy.special import roots_hermite\n"
            "from hrlab.experiments import _roots_hermite\n"
            "assert not __cpu_features__['X86_V4']\n"
            "def rule_bytes(rule):\n    return [a.tobytes() for a in rule]\n"
            "print([n for n in range(8, 151)\n"
            "       if rule_bytes(_roots_hermite(n)) != rule_bytes(roots_hermite(n))])")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(H.__file__)),
                   NPY_DISABLE_CPU_FEATURES=NON_AVX512)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("nodes", [4, 151, 1025])
    def test_node_floor(self, nodes):
        with pytest.raises(DomainError):
            H.mixture_limit_cdf(self.MP, 0.0, 0.0, nodes=nodes)


class TestEmpiricalMaxMinLaw:
    def test_vacuous_minima_reduce_to_max_law(self):
        # with the minima thresholds at +inf surrogate, the four-sided counts
        # equal the bivariate max-law counts computed from the same streams
        m = H.WeakAR1Model(1.0, 0.5)
        vals = np.array([0.5, 1.5])
        big = np.array([1e9])
        emp4 = H.empirical_maxmin_law(m, 300, 500, (vals, vals, big, big), ROOT.child(21))
        emp2 = H.empirical_max_law(m, 300, 500, (vals, vals), ROOT.child(21))
        assert np.array_equal(emp4.prob[:, :, 0, 0], emp2.cdf)

    def test_iid_independent_components_closed_form(self):
        m = H.WeakAR1Model(math.inf, 0.0)
        n = 500
        nm = H.norming_constants(n)
        vals = np.array([0.5, 1.5])
        emp = H.empirical_maxmin_law(m, n, 20000, (vals, vals, vals, vals), ROOT.child(31))
        for i1, a in enumerate(vals):
            for i2, b in enumerate(vals):
                for j1, c in enumerate(vals):
                    for j2, d in enumerate(vals):
                        p1 = (stats.norm.cdf(nm.u(a)) - stats.norm.cdf(-nm.u(c))) ** n
                        p2 = (stats.norm.cdf(nm.u(b)) - stats.norm.cdf(-nm.u(d))) ** n
                        assert abs(emp.prob[i1, i2, j1, j2] - p1 * p2) <= 0.012

    def test_axis_cap(self):
        m = H.WeakAR1Model(1.0, 0.5)
        four = np.array([0.0, 0.5, 1.0, 1.5])
        with pytest.raises(DomainError):
            H.empirical_maxmin_law(m, 200, 200, (four, four, four, four), 1)
        for count in (3, 5):
            with pytest.raises(DomainError, match="the length of grid4 must be 4"):
                H.empirical_maxmin_law(m, 200, 200, (four[:2],) * count, 1)


class TestAsltAverage:
    def test_preconditions(self):
        m = H.WeakAR1Model(1.0, 0.5)
        with pytest.raises(DomainError):
            H.aslt_average(m, H.INDEPENDENT_ROWS, 500, ((0.0, 0.0),), 1)
        with pytest.raises(DomainError):
            H.aslt_average(m, H.INDEPENDENT_ROWS, 2 * 10**5, ((0.0, 0.0),), 1)
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        with pytest.raises(DomainError):
            H.aslt_average(sf, H.INDEPENDENT_ROWS, 2000, ((0.0, 0.0),), 1)
        with pytest.raises(DomainError, match="the length of a maxmin point must be 4"):
            H.aslt_average(m, H.INDEPENDENT_ROWS, 2000, (), 1, maxmin_points=((0.0, 0.0, 1.0),))
        with pytest.raises(DomainError, match="the length of a point must be 2"):
            H.aslt_average(m, H.INDEPENDENT_ROWS, 2000, ((0.0, 0.0, 0.0),), 1)
        with pytest.raises(DomainError, match="coupling kind"):
            H.Coupling("other")

    def test_an_independent_coupling_takes_no_weight(self):
        with pytest.raises(DomainError, match=r"independent coupling weight must lie in \[0, 0\]"):
            H.Coupling("independent", 0.5)
        assert H.Coupling("independent", -0.0).c == 0.0
        assert H.Coupling("shared", 0.5).c == 0.5

    def test_comonotone_indicators_coincide(self):
        # identical components: the event only depends on min(x, y)
        m = H.WeakAR1Model(0.0, 0.4)
        path = H.aslt_average(
            m, H.INDEPENDENT_ROWS, 1500, ((1.0, 1.0), (1.0, 50.0), (50.0, 1.0)), ROOT.child(3)
        )
        assert np.array_equal(path.averages[0], path.averages[1])
        assert np.array_equal(path.averages[0], path.averages[2])

    def test_ceiling_and_determinism(self):
        m = H.WeakAR1Model(1.0, 0.5)
        p1 = H.aslt_average(m, H.INDEPENDENT_ROWS, 1200, ((0.0, 0.0), (1.0, 1.0)),
                            ROOT.child(10), maxmin_points=((1.0, 1.0, 1.0, 1.0),))
        p2 = H.aslt_average(m, H.INDEPENDENT_ROWS, 1200, ((0.0, 0.0), (1.0, 1.0)),
                            ROOT.child(10), maxmin_points=((1.0, 1.0, 1.0, 1.0),))
        assert np.array_equal(p1.averages, p2.averages)
        assert np.array_equal(p1.maxmin_averages, p2.maxmin_averages)
        assert np.all(p1.averages <= p1.ceiling + 1e-12)
        assert np.all(p1.maxmin_averages <= p1.ceiling + 1e-12)
        # harmonic ceiling stays below 1 + gamma/ln n
        assert np.all(p1.ceiling <= 1.0 + 0.5772156649 / np.log(p1.checkpoints))

    def test_running_sums_equal_row_by_row_loop(self):
        # reference: accumulate each row's indicators in a Python loop
        m = H.WeakAR1Model(1.0, 0.5)
        pts, mm = ((0.0, 0.0), (1.0, 0.5)), ((1.0, 1.0, 0.5, 1.0),)
        path = H.aslt_average(m, H.INDEPENDENT_ROWS, 1000, pts, ROOT.child(12), maxmin_points=mm)
        wsum, wsum_mm, harm = [0.0, 0.0], [0.0], 0.0
        averages, averages_mm, ceiling = [], [], []
        for k in range(path.k_start, 1001):
            row = H.sample_row(m, k, ROOT.child(12).child(k))
            x1, x2 = row.x1, row.x2
            nm = H.norming_constants(k)
            s1, s2 = (x1.max() - nm.b) / nm.a, (x2.max() - nm.b) / nm.a
            t1, t2 = (-x1.min() - nm.b) / nm.a, (-x2.min() - nm.b) / nm.a
            harm += 1.0 / k
            for i, (x, y) in enumerate(pts):
                if s1 <= x and s2 <= y:
                    wsum[i] += 1.0 / k
            for i, (qx1, qx2, qy1, qy2) in enumerate(mm):
                if s1 <= qx1 and s2 <= qx2 and t1 < qy1 and t2 < qy2:
                    wsum_mm[i] += 1.0 / k
            if k in path.checkpoints:
                ell = math.log(k)
                averages.append([w / ell for w in wsum])
                averages_mm.append([w / ell for w in wsum_mm])
                ceiling.append(harm / ell)
        assert np.array_equal(path.averages, np.array(averages).T)
        assert np.array_equal(path.maxmin_averages, np.array(averages_mm).T)
        assert np.array_equal(path.ceiling, ceiling)

    def test_first_checkpoint_before_the_first_row_is_refused(self):
        # lam = 3.2: the first row is 168, so n_max // 8 needs n_max >= 1344
        m = H.WeakAR1Model(3.2, 0.5)
        assert m.min_n() == 168
        with pytest.raises(DomainError, match="n_max must be >= 1344"):
            H.aslt_average(m, H.INDEPENDENT_ROWS, 1343, ((0.0, 0.0),), 1)
        path = H.aslt_average(m, H.INDEPENDENT_ROWS, 1344, ((0.0, 0.0),), 1)
        assert path.checkpoints == (168, 336, 672, 1344)

    def test_expected_level_matches_exact_iid_formula(self):
        # lam=0, phi=0: P(M_k <= u_k(x)) = Phi(u_k(x))^k exactly
        x = 1.0
        n_max = 2000
        exact = 0.0
        for k in range(2, n_max + 1):
            nm = H.norming_constants(k)
            exact += stats.norm.cdf(nm.u(x)) ** k / k
        exact /= math.log(n_max)
        finals = [
            H.aslt_average(
                H.WeakAR1Model(0.0, 0.0), H.INDEPENDENT_ROWS, n_max, ((x, x),), ROOT.child(100 + s)
            ).averages[0, -1]
            for s in range(8)
        ]
        assert abs(np.mean(finals) - exact) <= 3.0 * np.std(finals, ddof=1) / math.sqrt(8)

    def test_shared_coupling_runs_and_validates(self):
        m = H.WeakAR1Model(1.0, 0.5)
        path = H.aslt_average(m, H.shared_innovations(0.2), 1200, ((0.0, 0.0),), ROOT.child(11))
        assert np.all(path.averages <= path.ceiling + 1e-12)
        # rho_0(2) = 1 - 1/ln 2 = -0.44, so c=0.4 makes the residual
        # correlation fall below -1 at the first row
        with pytest.raises(DomainError):
            H.aslt_average(m, H.shared_innovations(0.4), 1200, ((0.0, 0.0),), 1)


class TestRowKernel:
    """``_extremes`` draws rows into a reused block buffer and pairs, filters
    and reduces a block at once; each row must equal the one-row path
    (``sample_row``, ``row_extremes`` and the norming constants) bit for bit."""

    KEYS = range(7, 7 + 1030)  # starts off zero and crosses the 1024-key hash edge
    WEAK = H.WeakAR1Model(1.0, 0.2)
    STRONG = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))

    @staticmethod
    def _normalized(row_ext, n):
        nm = H.norming_constants(n)
        s1, s2, m1, m2 = row_ext
        return [(s1 - nm.b) / nm.a, (s2 - nm.b) / nm.a, (-m1 - nm.b) / nm.a, (-m2 - nm.b) / nm.a]

    def _reference(self, model, lineage, keys, sizes):
        return [self._normalized(H.row_extremes(H.sample_row(model, n, lineage.child(k))), n)
                for k, n in zip(keys, sizes)]

    @pytest.mark.parametrize("model, n", [
        (WEAK, 60),
        (H.WeakAR1Model(1.0, 0.0), 60),
        (H.WeakAR1Model(1.0, -0.6), 60),
        (STRONG, 60),
        (H.ExplicitModel(lambda n: 0.4, lambda i, j, k, n: 0.5**k * (0.7 if i != j else 1.0)), 12),
    ], ids=["weak", "weak-phi0", "weak-phi-negative", "strong", "explicit"])
    def test_model_rows_equal_one_row_reference(self, monkeypatch, model, n):
        # a 4 KB cap cuts the rows into several blocks between the hash edges
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 4096)
        lineage = ROOT.child(41)
        sizes = np.full(len(self.KEYS), n)
        assert 1 < experiments._block(model, sizes, 0) < 1024
        got = experiments._extremes(model, lineage, self.KEYS, sizes)
        assert np.array_equal(got, self._reference(model, lineage, self.KEYS, sizes))

    def test_rows_longer_than_the_cap_go_one_at_a_time(self, monkeypatch):
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 4096)
        lineage, keys = ROOT.child(43), range(5)
        sizes = np.full(len(keys), 400)
        assert experiments._block(self.STRONG, sizes, 0) == 1
        got = experiments._extremes(self.STRONG, lineage, keys, sizes)
        assert np.array_equal(got, self._reference(self.STRONG, lineage, keys, sizes))

    @pytest.mark.parametrize("model", [WEAK, H.WeakAR1Model(1.0, 0.0),
                                       H.WeakAR1Model(1.0, -0.6), STRONG],
                             ids=["weak", "weak-phi0", "weak-phi-negative", "strong"])
    def test_consecutive_sizes_share_a_padded_block(self, model):
        # ASLT rows: size k from child(k), several sizes to a block
        lineage = ROOT.child(44)
        sizes = np.array(self.KEYS)
        assert experiments._block(model, sizes, 0) > 1
        got = experiments._extremes(model, lineage, self.KEYS, sizes)
        assert np.array_equal(got, self._reference(model, lineage, self.KEYS, sizes))

    @pytest.mark.parametrize("model", [WEAK, STRONG], ids=["weak", "strong"])
    def test_one_row_equals_the_unbatched_formula(self, model):
        # the rows as drawn before rows were batched: one (2, n+1) weak block,
        # or the strong factor pair (2,) then the (2, n) residuals
        n = 60
        for k in range(5):
            rng = ROOT.child(45).child(k).generator()
            if model is self.WEAK:
                e = gauss_arrays._pair(rng.standard_normal((2, n + 1)), model.rho0(n))
                want = gauss_arrays._ar1_path(model.phi, e[:, 0], e[:, 1:])
            else:
                t = np.array(model.taus(n)[:2])[:, None]
                z0 = gauss_arrays._pair(rng.standard_normal(2), model.mix.rho_zw)[:, None]
                want = gauss_arrays._pair(rng.standard_normal((2, n)), model.residual_corr(n))
                want *= np.sqrt(1.0 - t)
                want += np.sqrt(t) * z0
            row = H.sample_row(model, n, ROOT.child(45).child(k))
            assert np.array_equal(np.stack([row.x1, row.x2]), want)

    def test_decreasing_sizes_are_refused(self):
        with pytest.raises(DomainError):
            experiments._extremes(self.WEAK, ROOT, range(3), [60, 50, 60])

    def test_shared_coupling_rows_equal_one_row_reference(self):
        model, c = H.WeakAR1Model(1.0, 0.5), 0.2
        lineage = ROOT.child(42)
        eta = lineage.child(0).generator().standard_normal(max(self.KEYS))
        got = experiments._extremes(experiments._SharedRows(model, eta, c), lineage,
                                    self.KEYS, self.KEYS)
        want = []
        for k in self.KEYS:
            # one row as drawn before rows were batched: the start pair (2,),
            # then the (2, k) innovations
            rng, rho0 = lineage.child(k).generator(), model.rho0(k)
            start = gauss_arrays._pair(rng.standard_normal(2), rho0)
            e = gauss_arrays._pair(rng.standard_normal((2, k)), (rho0 - c) / (1.0 - c))
            e *= math.sqrt(1.0 - c)
            e += math.sqrt(c) * eta[:k]
            x1, x2 = gauss_arrays._ar1_path(model.phi, start, e)
            row = H.RowSample(n=k, x1=x1, x2=x2, seed_lineage=lineage.child(k))
            want.append(self._normalized(H.row_extremes(row), k))
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), pad=st.integers(0, 40))
    def test_split_component_draws_equal_one_block_draw(self, seed, n, pad):
        comps = np.zeros((2, n + pad))
        gauss_arrays._fill(np.random.default_rng(seed), comps, n)
        assert np.array_equal(comps[:, :n], np.random.default_rng(seed).standard_normal((2, n)))
        assert not comps[:, n:].any()


class TestSampleRows:
    """``sample_rows`` copies the kernel's blocks out; each row must equal
    ``sample_row`` on the key's child stream byte for byte."""

    @pytest.mark.parametrize("model, n", [
        (TestRowKernel.WEAK, 60),
        (H.WeakAR1Model(1.0, 0.0), 60),
        (H.WeakAR1Model(1.0, -0.6), 60),
        (TestRowKernel.STRONG, 60),
        (H.ExplicitModel(lambda n: 0.4, lambda i, j, k, n: 0.5**k * (0.7 if i != j else 1.0)), 12),
    ], ids=["weak", "weak-phi0", "weak-phi-negative", "strong", "explicit"])
    def test_rows_equal_sample_row(self, monkeypatch, model, n):
        # a 4 KB cap cuts blocks inside the 1024-key hash chunks
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 4096)
        keys, lineage = TestRowKernel.KEYS, ROOT.child(46)
        assert 1 < experiments._block(model, np.full(len(keys), n), 0) < 1024
        got = H.sample_rows(model, n, lineage, keys)
        assert got.shape == (len(keys), 2, n)
        for row, k in zip(got, keys):
            want = H.sample_row(model, n, lineage.child(k))
            assert row.tobytes() == np.stack([want.x1, want.x2]).tobytes(), k

    def test_no_keys_give_no_rows(self):
        assert H.sample_rows(TestRowKernel.WEAK, 60, ROOT, []).shape == (0, 2, 60)

    def test_negative_key_is_refused_before_any_draw(self, monkeypatch):
        def no_draws(self):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(H.SeedLineage, "generator", no_draws)
        with pytest.raises(DomainError, match="keys"):
            H.sample_rows(TestRowKernel.WEAK, 60, ROOT, [3, -1, 4])


class TestBoundSeries:
    GRID = (1000, 10**4, 10**5)

    def test_zero_correlation_model_gives_zero(self):
        m = H.WeakAR1Model(0.0, 0.0)  # rho0 = 1 but all lagged corrs vanish
        s = H.comparison_bound_series(m, "L1", 0.0, 0.0, self.GRID)
        assert s.values == (0.0, 0.0, 0.0)

    def test_weak_l1_decreases(self):
        s = H.comparison_bound_series(H.WeakAR1Model(1.0, 0.5), "L1", 3.0, 3.0, self.GRID)
        assert all(a > b for a, b in zip(s.values, s.values[1:]))
        assert s.omega_rule == "omega_n = min(|u_n(3)|, |u_n(3)|)"

    def test_l1_brute_force_oracle(self):
        # independent direct summation at a small n
        m = H.WeakAR1Model(1.0, 0.5)
        n, x, y = 500, 1.0, 2.0
        nm = H.norming_constants(n)
        omega = min(abs(nm.u(x)), abs(nm.u(y)))
        expected = 0.0
        for i, j in ((1, 1), (1, 2), (2, 2)):
            total = sum(
                abs(H.induced_correlation(m, i, j, k, n))
                * math.exp(-omega**2 / (1.0 + abs(H.induced_correlation(m, i, j, k, n))))
                for k in range(1, n)
            )
            expected = max(expected, n * total)
        got = H.comparison_bound_series(m, "L1", x, y, (n,)).values[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_l2_identically_zero_on_reference_model(self):
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        s = H.comparison_bound_series(sf, "L2", 3.0, 3.0, self.GRID)
        assert s.values == (0.0, 0.0, 0.0)

    def test_l2_requires_tau_model(self):
        with pytest.raises(DomainError):
            H.comparison_bound_series(H.WeakAR1Model(1.0, 0.5), "L2", 0.0, 0.0, (100,))
        with pytest.raises(DomainError, match="kind"):
            H.comparison_bound_series(H.WeakAR1Model(1.0, 0.5), "L3", 0.0, 0.0, (100,))
        with pytest.raises(DomainError, match="the length of n_grid must be >= 1"):
            H.comparison_bound_series(H.WeakAR1Model(1.0, 0.5), "L1", 0.0, 0.0, ())

    def test_rate_report(self):
        m = H.WeakAR1Model(1.0, 0.5)
        rep = H.aslt_bound_rate(m, H.INDEPENDENT_ROWS, 0.1, (100, 1000, 10**4, 10**5), 3.0, 3.0)
        assert rep.bounded
        assert rep.cross_row.values == (0.0, 0.0, 0.0, 0.0)
        ratios = np.array(rep.ratios)
        recomputed = np.array(rep.within_row.values) * np.array(
            [math.log(math.log(n)) ** 1.1 for n in rep.within_row.n_grid]
        )
        assert np.allclose(ratios, recomputed, rtol=1e-12)

    def test_rate_shared_coupling_positive_and_small(self):
        m = H.WeakAR1Model(1.0, 0.5)
        rep = H.aslt_bound_rate(m, H.shared_innovations(0.2), 0.1, (100, 1000, 10**4), 3.0, 3.0)
        assert all(v > 0.0 for v in rep.cross_row.values)
        assert all(b < a for a, b in zip(rep.cross_row.values, rep.cross_row.values[1:]))

    def test_row_size_below_the_model_min_n_is_refused(self):
        # tau11 / ln n > 1 below n = 5, and rho_0(n) < -1 below n = 91 at
        # lambda 3: the sums would read correlations no row of that size has
        strong = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        for kind in ("L1", "L2"):
            with pytest.raises(DomainError, match="row size must be >= 5"):
                H.comparison_bound_series(strong, kind, 3.0, 3.0, (4, 1000))
            H.comparison_bound_series(strong, kind, 3.0, 3.0, (5, 1000))
        weak = H.WeakAR1Model(3.0, 0.5)
        with pytest.raises(DomainError, match="row size must be >= 91"):
            H.aslt_bound_rate(weak, H.INDEPENDENT_ROWS, 0.1, (90, 1000), 3.0, 3.0)
        H.aslt_bound_rate(weak, H.INDEPENDENT_ROWS, 0.1, (91, 1000), 3.0, 3.0)

    def test_rate_grid_floor(self):
        with pytest.raises(DomainError):
            H.aslt_bound_rate(H.WeakAR1Model(1.0, 0.5), H.INDEPENDENT_ROWS, 0.1, (8, 100), 3.0, 3.0)
        strong = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        with pytest.raises(DomainError, match="AR\\(1\\)"):
            H.aslt_bound_rate(strong, H.shared_innovations(0.2), 0.1, (100,), 3.0, 3.0)
        # NaN, inf, and an epsilon whose rate (ln ln n)^(1+epsilon) overflows at n = 1e6
        for eps, match in ((math.nan, "epsilon"), (math.inf, "epsilon"),
                           (1e3, "epsilon=1000, n=1000000")):
            with pytest.raises(DomainError, match=match):
                H.aslt_bound_rate(H.WeakAR1Model(1.0, 0.5), H.INDEPENDENT_ROWS, eps,
                                  (1000, 10**6), 3.0, 3.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_threshold_is_refused(self, x, y):
        m = H.WeakAR1Model(1.0, 0.5)
        with pytest.raises(DomainError):
            H.comparison_bound_series(m, "L1", x, y, (100,))
        with pytest.raises(DomainError):
            H.aslt_bound_rate(m, H.shared_innovations(0.3), 0.1, (100,), x, y)

    def test_infinite_threshold_drops_its_coordinate(self):
        m = H.WeakAR1Model(1.0, 0.5)
        grid_ = (100, 1000)
        assert (H.comparison_bound_series(m, "L1", math.inf, 1.0, grid_).values
                == H.comparison_bound_series(m, "L1", 1.0, 1.0, grid_).values)
        rep = H.aslt_bound_rate(m, H.shared_innovations(0.3), 0.1, grid_, 1.0, -math.inf)
        assert rep.cross_row.values == H.aslt_bound_rate(
            m, H.shared_innovations(0.3), 0.1, grid_, 1.0, 1.0).cross_row.values


def _whole_chunk_sum(model, n, omega, kind, taus=None):
    """The bound sum with each 2^20-lag chunk as one array and one np.sum."""
    out = 0.0
    for pair_idx, (i, j) in enumerate(((1, 1), (1, 2), (2, 2))):
        total = 0.0
        for lo in range(1, n, 1 << 20):
            lags = np.arange(lo, min(lo + (1 << 20), n), dtype=float)
            rho = np.abs(np.asarray(model.lag_corr_array(i, j, lags, n), dtype=float))
            weight = scale = rho
            if kind == "L2":
                tau_n = taus[pair_idx] / math.log(n)
                weight = np.abs(np.asarray(model.lag_corr_array(i, j, lags, n), dtype=float)
                                - tau_n)
                scale = np.maximum(rho, tau_n)
            total += float(np.sum(weight * np.exp(-(omega * omega) / (1.0 + scale))))
        out = max(out, n * total)
    return out


class TestBoundSumLeaves:
    LENGTHS = [*range(1, 301), *(2**k + d for k in range(1, 22) for d in (-1, 1)), 999_999]
    MIX = H.MixtureParams(1.0, 1.0, 0.8, 1.0)
    EXPLICIT = H.ExplicitModel(lambda n: 0.4, lambda i, j, k, n: 0.9**k * (0.7 if i != j else 1.0))

    @pytest.mark.parametrize("block_bytes", [1024, 1 << 18], ids=["leaf128", "leaf32768"])
    def test_tree_equals_np_sum(self, monkeypatch, block_bytes):
        # numpy's own pairwise tree holds for any leaf of 128 terms or more;
        # a change to numpy's summation fails here before it moves a digest
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(7)
        for count in self.LENGTHS:
            a = rng.standard_normal(count) * np.exp2(rng.integers(-400, 400, count))
            got = experiments._pairwise(lambda lo, m: np.sum(a[lo : lo + m]), 0, count)
            assert float(got).hex() == float(np.sum(a)).hex(), count

    @pytest.mark.parametrize("model, kind, grid", [
        (H.WeakAR1Model(1.0, 0.0), "L1", None),
        (H.WeakAR1Model(1.0, 0.5), "L1", None),
        (H.WeakAR1Model(1.0, -0.9), "L1", None),   # signed zeros past the pow cut
        (H.WeakAR1Model(1.0, 0.999), "L1", None),
        (H.WeakAR1Model(1.0, 0.9999), "L1", None),  # every leaf adds to the sum
        (H.StrongFactorModel(MIX), "L1", None),
        (H.StrongFactorModel(MIX), "L2", None),
        (EXPLICIT, "L1", (2, 3, 33000)),
    ], ids=["weak-phi0", "weak-phi0.5", "weak-phi-0.9", "weak-phi0.999", "weak-phi0.9999",
            "strong-L1", "strong-L2", "explicit"])
    def test_weak_sum_equals_the_whole_chunk_formula(self, model, kind, grid):
        # 32769 lags is one leaf plus one lag; 999,999 lags split unevenly;
        # 1048577 fills a chunk exactly; 2.1e6 spans three chunks
        taus = (self.MIX.tau11, self.MIX.tau12, self.MIX.tau22)
        for n in grid or (2, 3, 32769, 10**6, 1048577, 2_100_000):
            for x, y in ((3.0, 3.0), (-1.0, 0.5)):
                omega = experiments._omega(n, x, y)
                got = experiments._weak_sum(model, n, omega, kind, taus)
                assert float(got).hex() == _whole_chunk_sum(model, n, omega, kind, taus).hex()

    @pytest.mark.parametrize("model, kind", [
        (H.WeakAR1Model(1.0, 0.5), "L1"),
        (H.StrongFactorModel(MIX), "L2"),
    ], ids=["weak-L1", "strong-L2"])
    def test_memory_does_not_grow_with_n(self, model, kind):
        # a whole 2^20-lag chunk held 32 MB (L1) and 38 MB (L2) of temporaries
        run = lambda: H.comparison_bound_series(model, kind, 3, 3, [10**6])  # noqa: E731
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_all_zero_leaves_skip_exp(self, monkeypatch):
        # at phi = 0.5 every lag past about 1100 has rho = +0.0: only the
        # first leaf of each pair reaches exp, not the 999,999 lags
        sizes = []
        real_exp = np.exp
        monkeypatch.setattr(experiments.np, "exp",
                            lambda a, **kw: sizes.append(np.size(a)) or real_exp(a, **kw))
        model = H.WeakAR1Model(1.0, 0.5)
        omega = experiments._omega(10**6, 3.0, 3.0)
        got = experiments._weak_sum(model, 10**6, omega, "L1")
        monkeypatch.undo()
        assert len(sizes) == 3 and sum(sizes) <= 3 * experiments._BLOCK_BYTES // 8
        assert got.hex() == _whole_chunk_sum(model, 10**6, omega, "L1").hex()


class TestCrossRateBlocks:
    """``_cross_rate_value`` sums only the groups of rows whose bound can still
    reach the running max, in reused blocks of rows with one ``exp`` per
    distinct denominator; it must equal the whole-grid formula bit for bit, and
    its memory must not grow with n."""

    @staticmethod
    def _reference(phi, c, n, omega_n, x, y):
        # every per-m vector at once, and every term's exp, 2^20 terms at a time
        if c == 0.0:
            return 0.0
        if abs(phi) > 0.0:
            k_eff = min(n, int(math.ceil((745.0 + math.log(max(c, 1e-300))) / -math.log(abs(phi)))) + 2)
        else:
            k_eff = 1
        gbar = np.abs(c * np.power(phi, np.arange(k_eff)))
        ms = np.arange(2, n)
        ell = np.log(ms.astype(float))
        r = np.sqrt(2.0 * ell)
        bm = r - np.log(4.0 * math.pi * ell) / (2.0 * r)
        am = 1.0 / r
        om = np.minimum(np.abs(am * x + bm), np.abs(am * y + bm))
        best = 0.0
        step = max(1, (1 << 20) // k_eff)
        for lo in range(0, ms.size, step):
            m_blk = ms[lo : lo + step]
            o_blk = om[lo : lo + step]
            expo = -(o_blk[:, None] ** 2 + omega_n**2) / (2.0 * (1.0 + gbar[None, :]))
            vals = m_blk * np.sum(gbar[None, :] * np.exp(expo), axis=1)
            best = max(best, float(vals.max()))
        return best

    def _check(self, phi, c, n, x, y, block_bytes=1 << 18):
        omega_n = experiments._omega(n, x, y)
        with mock.patch.object(experiments, "_BLOCK_BYTES", block_bytes):
            got = experiments._cross_rate_value(phi, c, n, omega_n, x, y)
        assert got.hex() == self._reference(phi, c, n, omega_n, x, y).hex()
        return got

    @settings(max_examples=40)
    @given(phi=st.one_of(st.sampled_from([0.0, 0.999, -0.999]), st.floats(-0.999, 0.999)),
           c=st.floats(0.0, 1.0, exclude_max=True), n=st.integers(16, 3000),
           x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0),
           block_bytes=st.sampled_from([4096, 1 << 18]))
    def test_equals_the_whole_grid_formula(self, phi, c, n, x, y, block_bytes):
        # a 4 KB cap puts a few hundred m in each chunk of per-m vectors
        self._check(phi, c, n, x, y, block_bytes)

    @pytest.mark.parametrize("phi, c, n", [
        (0.5, 0.3, 1000),     # n < k_eff = 1076
        (0.5, 0.3, 3002),     # 3000 rows: exactly 100 blocks of 30
        (0.5, 0.3, 3003),     # one row past the last full block
        (-0.7, 0.5, 32771),   # the per-m vectors cross their 32768-entry chunk
        (0.95, 0.1, 5000),
        (0.2, 0.9, 2000),
    ])
    def test_block_edges(self, phi, c, n):
        self._check(phi, c, n, 3.0, 1.0)

    @pytest.mark.parametrize("phi, c, n, x, y", [
        (0.5, 0.3, 10000, -4.0, 1.0),      # omega_m falls, then rises in m
        (0.999, 0.3, 16500, -10.0, 10.0),  # k_eff = n: one row per block
        (-0.999, 0.999, 16400, 2.0, -7.5),
    ])
    def test_wide_thresholds_and_long_envelopes(self, phi, c, n, x, y):
        self._check(phi, c, n, x, y)

    def test_all_underflow_gives_zero(self):
        # omega_m^2 / 2 is past 745 for every m: every term underflows
        assert self._check(0.5, 0.3, 3000, 1000.0, 1000.0) == 0.0

    def test_sums_few_rows(self):
        # the bench grid's largest n: a bound row per 60 rows, and few groups
        # whose bound reaches the running max
        n, summed = 10**5, []
        rows = experiments._rate_rows

        def counted(num, *args):
            summed.append(len(num))
            return rows(num, *args)

        with mock.patch.object(experiments, "_rate_rows", counted):
            self._check(0.5, 0.3, n, 0.0, 0.0)
        assert sum(summed) < 0.05 * (n - 2)

    @pytest.mark.parametrize("phi, x, y", [(0.5, -4.0, 1.0), (0.999, -8.0, -14.0)])
    def test_bound_search_finds_an_interior_max(self, phi, x, y):
        # a stand-in row sum that grows with the numerator but falls steeply
        # with it puts the max mid-range, where u_m(x) or u_m(y) crosses 0
        # (twice for x = -8, y = -14), and makes neighbouring groups close;
        # the search must still return the max over every row
        n = 20000
        omega_n = experiments._omega(n, x, y)
        ms = np.arange(2, n)
        ell = np.log(ms.astype(float))
        r = np.sqrt(2.0 * ell)
        bm = r - np.log(4.0 * math.pi * ell) / (2.0 * r)
        am = 1.0 / r
        num = -(np.minimum(np.abs(am * x + bm), np.abs(am * y + bm)) ** 2 + omega_n**2)
        values = ms * np.exp(3.0 * num)
        assert 2 < np.argmax(values) < ms.size - 1000

        def steep(num, den, d, gbar, buf):
            return np.exp(3.0 * num[:, 0])

        with mock.patch.object(experiments, "_rate_rows", steep):
            got = experiments._cross_rate_value(phi, 0.3, n, omega_n, x, y)
        assert got == values.max()

    def test_memory_does_not_grow_with_n(self):
        # at phi = 0.999 the envelope outlives the row, so k_eff = n; the
        # whole-grid formula held 4096 x 20000 terms, 655 MB, per temporary
        n = 20000
        omega_n = experiments._omega(n, 3.0, 3.0)
        tracemalloc.start()
        try:
            experiments._cross_rate_value(0.999, 0.3, n, omega_n, 3.0, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


@pytest.mark.slow
class TestWeakConvergenceTrend:
    def test_sup_distance_non_increasing_in_n(self):
        lam, phi = 1.0, 0.5
        g = grid()
        theory = lambda X, Y: H.hr_cdf(lam, X, Y)  # noqa: E731
        dists = []
        for idx, n in enumerate((200, 2000, 20000)):
            emp = H.empirical_max_law(
                H.WeakAR1Model(lam, phi), n, 10**4, (g, g), ROOT.child(idx), workers=2
            )
            dists.append(H.sup_distance(emp, theory))
        slack = 2.0 * math.sqrt(0.25 / 10**4)
        assert all(b <= a + slack for a, b in zip(dists, dists[1:]))


@pytest.mark.parametrize(
    "call",
    [lambda m: H.comparison_bound_series(m, "L1", 0.0, 0.0, [10**18]),
     lambda m: H.aslt_bound_rate(m, H.INDEPENDENT_ROWS, 0.1, [100, 10**18], 0.0, 0.0),
     lambda m: H.validate_assumption(m, "A1", [100, 10**18], 0.1),
     lambda m: H.comparison_bound_series(m, "L1", 0.0, 0.0, [gauss_arrays.NGRID_MAX + 1])],
    ids=["L1-1e18", "rate-1e18", "A1-1e18", "L1-cap-plus-1"],
)
def test_scan_above_ngrid_max_is_refused_at_once(call):
    # a bound sum or lag scan costs O(n): at 1e18 it would run for years
    start = time.perf_counter()
    with pytest.raises(DomainError, match="row size must be <= 100000000, got"):
        call(H.WeakAR1Model(1.0, 0.5))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("workers", [0, -3, 2.5, math.inf, math.nan, "2"])
@pytest.mark.parametrize("law", ["max", "maxmin"])
def test_worker_count_is_a_count(monkeypatch, law, workers):
    # inf and nan used to raise a bare ValueError; 2.5, 0 and -3 ran
    def no_draws(self):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(H.SeedLineage, "generator", no_draws)
    m = H.WeakAR1Model(1.0, 0.5)
    with pytest.raises(DomainError, match="^workers must"):
        if law == "max":
            H.empirical_max_law(m, 200, 100, (grid(), grid()), 1, workers)
        else:
            H.empirical_maxmin_law(m, 200, 100, ([0.5, 1.5],) * 4, 1, workers)
