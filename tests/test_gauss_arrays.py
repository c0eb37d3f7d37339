"""Triangular-array samplers, induced correlations, and assumption validators."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import hrlab as H
from hrlab.errors import DomainError, ModelError
from hrlab.gauss_arrays import _explicit_factor

ROOT = H.SeedLineage(555)


def _weak_mirror_explicit(lam=1.0, phi=0.5):
    wm = H.WeakAR1Model(lam, phi)

    def rho0_fn(n):
        return wm.rho0(n)

    def rho_fn(i, j, k, n):
        return wm.lag_corr_array(i, j, [k], n)[0]

    return wm, H.ExplicitModel(rho0_fn, rho_fn, label="weak-mirror")


class TestInducedCorrelation:
    def test_weak_ar1_values(self):
        m = H.WeakAR1Model(1.0, 0.5)
        assert H.induced_correlation(m, 1, 1, 3, 100) == pytest.approx(0.125, rel=1e-15)
        assert H.induced_correlation(m, 1, 2, 0, 100) == pytest.approx(
            1.0 - 1.0 / math.log(100.0), rel=1e-15
        )
        assert H.induced_correlation(m, 1, 1, 0, 100) == 1.0

    def test_strong_factor_values(self):
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        for k in (1, 5, 500):
            assert H.induced_correlation(sf, 1, 2, k, 1000) == 0.8 / math.log(1000)
            assert H.induced_correlation(sf, 1, 1, k, 1000) == 1.0 / math.log(1000)

    def test_lag_validation(self):
        m = H.WeakAR1Model(1.0, 0.5)
        with pytest.raises(DomainError):
            H.induced_correlation(m, 1, 1, 100, 100)
        with pytest.raises(DomainError):
            H.induced_correlation(m, 3, 1, 0, 100)


class TestLagCorrCut:
    """``WeakAR1Model.lag_corr_array`` calls pow only where phi^k does not
    underflow; each value, signed zeros included, must equal ``np.power`` on
    the same lags."""

    @staticmethod
    def _reference(model, i, j, lags, n):
        base = np.power(float(model.phi), np.asarray(lags, dtype=float))
        return base if i == j else model.rho0(n) * base

    def _check(self, model, lags, n=1000):
        for i, j in ((1, 1), (1, 2), (2, 1)):
            with np.errstate(all="ignore"):  # pow's NaN and overflow at non-integer and negative lags
                want = self._reference(model, i, j, lags, n)
                got = model.lag_corr_array(i, j, lags, n)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=30)
    @given(phi=st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.999, -0.999]),
                         st.floats(-0.999, 0.999)),
           float_lags=st.booleans())
    def test_equals_pow_over_the_full_lag_range(self, phi, float_lags):
        lags = np.arange(200_001)
        self._check(H.WeakAR1Model(1.0, phi), lags.astype(float) if float_lags else lags)

    @pytest.mark.parametrize("phi", [-0.5, -0.9, -1e-300, -0.0, 0.0, 0.3])
    def test_lags_past_the_cut(self, phi):
        m = H.WeakAR1Model(1.0, phi)
        # odd and even integer lags, one that rounds to an even float, and
        # non-integer, huge, infinite, NaN and negative float lags
        self._check(m, np.array([1100, 1101, 1102, 10**6 + 1, 2**53 + 1, 2**60 + 1]))
        self._check(m, np.array([1101.0, 1101.5, 2.0**53, 2.0**60, np.inf, -np.inf,
                                 np.nan, -3.0, 0.5]))
        self._check(m, np.array([], dtype=int))


class TestWeakAR1Sampling:
    def test_complete_dependence_rows_identical(self):
        row = H.sample_row(H.WeakAR1Model(0.0, 0.5), 50, 3)
        assert np.array_equal(row.x1, row.x2)

    def test_deterministic_and_seed_sensitive(self):
        m = H.WeakAR1Model(1.0, 0.5)
        a = H.sample_row(m, 64, ROOT.child(1))
        b = H.sample_row(m, 64, ROOT.child(1))
        c = H.sample_row(m, 64, ROOT.child(2))
        assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)
        assert not np.array_equal(a.x1, c.x1)

    def test_phi_validation(self):
        with pytest.raises(DomainError):
            H.WeakAR1Model(1.0, 1.0)
        with pytest.raises(DomainError):
            H.WeakAR1Model(1.0, -1.5)

    def test_row_size_preconditions(self):
        m = H.WeakAR1Model(2.0, 0.5)  # needs 2 ln n >= 4, i.e. n >= 8
        assert m.min_n() == 8
        with pytest.raises(DomainError):
            H.sample_row(m, 7, 1)
        H.sample_row(m, 8, 1)

    def test_infinite_lambda_gives_independent_components(self):
        m = H.WeakAR1Model(math.inf, 0.0)
        assert m.rho0(1000) == 0.0
        row = H.sample_row(m, 2000, ROOT.child(9))
        assert abs(float(np.corrcoef(row.x1, row.x2)[0, 1])) < 0.08


class TestStrongFactorSampling:
    def test_row_size_preconditions(self):
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        with pytest.raises(DomainError):
            H.sample_row(sf, 2, 1)  # ln 2 < tau11
        H.sample_row(sf, sf.min_n(), 1)

    @settings(deadline=1000)  # each min_n call must finish well under 1 s
    @given(
        st.floats(0.01, 8.0), st.floats(0.01, 8.0), st.floats(0.01, 1.0),
        st.floats(0.0, 6.0),
    )
    def test_min_n_is_the_smallest_valid_row_size(self, t11, t22, rho, excess):
        t12 = rho * math.sqrt(t11 * t22)
        lam = math.sqrt(max(0.0, 0.5 * (t11 + t22) - t12) + excess)  # lam^2 >= -tau_tilde
        try:
            sf = H.StrongFactorModel(H.MixtureParams(t11, t22, t12, lam))
        except DomainError:
            assume(False)
        try:
            n = sf.min_n()
        except DomainError:
            return  # no valid row size below 1e9
        sf.validate_n(n)
        if n > 2:
            with pytest.raises(DomainError):
                sf.validate_n(n - 1)

    def test_min_n_rejects_infeasible_parameters_at_once(self):
        # lambda_tilde = 0 with tau11 != tau22: the residual correlation
        # exceeds 1 at every n, which a scan over n would take an hour to learn
        sf = H.StrongFactorModel(
            H.MixtureParams(1.0, 0.5, math.sqrt(0.5), math.sqrt(0.75 - math.sqrt(0.5)))
        )
        start = time.perf_counter()
        with pytest.raises(DomainError, match="no valid row size"):
            sf.min_n()
        assert time.perf_counter() - start < 1.0

    def test_validity_is_monotone_at_the_feasibility_edge(self):
        # lambda_tilde^2 = -1.1e-16: the residual correlation is 1 up to
        # rounding at every n, so a rule that read it would flip between n
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.9999999999999999, 0.0))
        assert sf.min_n() == 3
        for n in range(3, 13):
            sf.validate_n(n)
        H.sample_row(sf, 3, 1)

    def test_lagged_cross_moment_matches_construction(self):
        # shared-factor construction: E X_k^(1) X_l^(2) = tau12 / ln(n) for k != l
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 1.0, 1.0))
        n, reps = 10**4, 2000
        vals = np.empty(reps)
        for rep in range(reps):
            row = H.sample_row(sf, n, H.SeedLineage(808).child(rep))
            vals[rep] = float((row.x1[:-1] * row.x2[1:]).mean())
        assert abs(vals.mean() - 1.0 / math.log(n)) <= 0.01


def _strong_or_none(t11, t22, rho, excess):
    t12 = rho * math.sqrt(t11 * t22)
    lam = math.sqrt(max(0.0, 0.5 * (t11 + t22) - t12) + excess)  # lam^2 >= -tau_tilde
    try:
        return H.StrongFactorModel(H.MixtureParams(t11, t22, t12, lam))
    except DomainError:
        return None


class TestRowSizeRule:
    """validate_n(n) passes exactly when n >= min_n(), and the sampler's
    correlations are proper at every size the rule accepts."""

    @staticmethod
    def _check(model, corr):
        try:
            least = model.min_n()
        except DomainError:
            return  # no valid row size below 1e9
        # sizes near 2 and around min_n; the whole range can hold 1e8 sizes
        for n in sorted(set(range(2, 52)) | set(range(max(2, least - 50), least + 51))):
            if n >= least:
                model.validate_n(n)
                assert abs(corr(n)) <= 1.0 + 1e-9
            else:
                with pytest.raises(DomainError):
                    model.validate_n(n)
        if least <= 10**5:  # a larger row would only cost memory
            H.sample_row(model, least, 1)

    @settings(deadline=None)
    @given(st.floats(0.0, 6.0))
    def test_weak(self, lam):
        m = H.WeakAR1Model(lam, 0.5)
        self._check(m, m.rho0)

    @settings(deadline=None)
    @given(
        st.floats(0.01, 8.0), st.floats(0.01, 8.0), st.floats(0.01, 1.0),
        st.floats(0.0, 6.0),
    )
    def test_strong(self, t11, t22, rho, excess):
        sf = _strong_or_none(t11, t22, rho, excess)
        assume(sf is not None)
        self._check(sf, sf.residual_corr)


class TestExplicitSampling:
    def test_matches_ar1_distribution(self):
        # same correlation structure sampled through two unrelated code paths
        wm, em = _weak_mirror_explicit()
        m_w = [H.sample_row(wm, 100, ROOT.child(r)).x1.max() for r in range(10**4)]
        m_e = [H.sample_row(em, 100, ROOT.child(10**5 + r)).x1.max() for r in range(10**4)]
        assert stats.ks_2samp(m_w, m_e).pvalue > 0.001

    def test_non_psd_raises_with_minor_index(self):
        def rho0_fn(n):
            return 0.0

        def rho_fn(i, j, k, n):
            return 0.99 if k == 1 else 0.0

        bad = H.ExplicitModel(rho0_fn, rho_fn, label="bad")
        with pytest.raises(ModelError) as exc:
            H.sample_row(bad, 4, 1)
        assert exc.value.minor_index is not None
        assert exc.value.minor_index > 1

    def test_correlation_matrix_entries(self):
        # index 2k+i-1 is X_k^(i); entry (s, t) is the lag-|t-s| correlation
        _, em = _weak_mirror_explicit()
        n = 40
        sigma = em.correlation_matrix(n)
        for (a, i), (b, j) in itertools.product(itertools.product(range(n), (1, 2)), repeat=2):
            k = abs(b - a)
            ii, jj = (i, j) if b >= a else (j, i)
            assert sigma[2 * a + i - 1, 2 * b + j - 1] == H.induced_correlation(em, ii, jj, k, n)

    def test_asymmetric_cross_lags_keep_their_direction(self):
        # corr(X_0^(1), X_1^(2)) = 0.3 while corr(X_1^(1), X_0^(2)) = 0
        em = H.ExplicitModel(lambda n: 0.0,
                             lambda i, j, k, n: 0.3 if (i, j, k) == (1, 2, 1) else 0.0)
        n = 3
        sigma = em.correlation_matrix(n)
        np.testing.assert_array_equal(sigma, sigma.T)
        for (a, i), (b, j) in itertools.product(itertools.product(range(n), (1, 2)), repeat=2):
            k = abs(b - a)
            ii, jj = (i, j) if b >= a else (j, i)
            assert sigma[2 * a + i - 1, 2 * b + j - 1] == H.induced_correlation(em, ii, jj, k, n)
        assert sigma[0, 3] == 0.3 and sigma[2, 1] == 0.0

    def test_factor_cache_keeps_one_factor(self):
        _, em = _weak_mirror_explicit()
        for n in range(100, 108):
            H.sample_row(em, n, ROOT.child(n))
        info = _explicit_factor.cache_info()
        assert info.currsize == 1
        H.sample_row(em, 107, ROOT.child(1))
        assert _explicit_factor.cache_info().hits == info.hits + 1

    def test_desk_scale_ceiling(self):
        _, em = _weak_mirror_explicit()
        with pytest.raises(DomainError):
            H.sample_row(em, 4001, 1)
        with pytest.raises(DomainError):
            em.correlation_matrix(4001)


class TestSamplerCorrelationAgreement:
    @pytest.mark.slow
    def test_all_variants_match_induced_correlation(self):
        # pooled lagged product moments within 4/sqrt(R) of the exact values
        n, reps = 200, 10**5
        band = 4.0 / math.sqrt(reps)
        wm, em = _weak_mirror_explicit()
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        for offset, model in ((0, wm), (10**6, sf), (2 * 10**6, em)):
            x1 = np.empty((reps, n))
            x2 = np.empty((reps, n))
            for rep in range(reps):
                row = H.sample_row(model, n, ROOT.child(offset + rep))
                x1[rep] = row.x1
                x2[rep] = row.x2
            for lag in (0, 1, 2, 5, 10):
                for (i, j), (a, b) in {
                    (1, 1): (x1, x1), (1, 2): (x1, x2), (2, 2): (x2, x2)
                }.items():
                    est = float((a[:, : n - lag] * b[:, lag:]).mean())
                    exact = H.induced_correlation(model, i, j, lag, n)
                    assert abs(est - exact) <= band, (model, lag, i, j)

    def test_marginals_standard_normal(self):
        # one fixed position per row keeps the KS sample iid
        wm, em = _weak_mirror_explicit()
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        for offset, model in ((0, wm), (7000, sf), (9000, em)):
            rows = [H.sample_row(model, 200, ROOT.child(4 * 10**6 + offset + r))
                    for r in range(2000)]
            for pick in (lambda r: r.x1[0], lambda r: r.x2[137]):
                vals = np.array([pick(r) for r in rows])
                assert stats.kstest(vals, stats.norm.cdf).pvalue > 0.001


class TestRowExtremes:
    def test_example(self):
        row = H.RowSample(3, np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.0, -2.0]),
                          H.SeedLineage(0))
        assert H.row_extremes(row) == (3.0, 0.0, 1.0, -2.0)

    def test_constant_rows(self):
        row = H.RowSample(4, np.full(4, 1.5), np.full(4, -2.5), H.SeedLineage(0))
        assert H.row_extremes(row) == (1.5, -2.5, 1.5, -2.5)

    def test_against_rescan_oracle(self):
        row = H.sample_row(H.WeakAR1Model(1.0, 0.3), 257, ROOT.child(77))
        mx1 = mn1 = row.x1[0]
        mx2 = mn2 = row.x2[0]
        for v1, v2 in zip(row.x1[1:], row.x2[1:]):
            mx1, mn1 = max(mx1, v1), min(mn1, v1)
            mx2, mn2 = max(mx2, v2), min(mn2, v2)
        assert H.row_extremes(row) == (mx1, mx2, mn1, mn2)


class TestAssumptionValidators:
    GRID = (100, 1000, 10**4, 10**5)

    @pytest.mark.parametrize("phi", [0.3, 0.5, 0.6])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_weak_model_satisfies_a1(self, phi, lam):
        model = H.WeakAR1Model(lam, phi)
        alpha = 0.95 * (1.0 - phi) / (1.0 + phi)
        rep = H.validate_assumption(model, "A1", self.GRID, alpha)
        assert rep.decaying
        assert rep.sigma_or_delta == pytest.approx(phi, rel=1e-12)
        # closed form: the scan maximum sits at the cutoff lag
        for cut, stat, n in zip(rep.cutoff, rep.statistic, rep.n_grid):
            assert stat == pytest.approx(phi**cut * math.log(n), rel=1e-12)

    def test_strong_model_violates_a1(self):
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        rep = H.validate_assumption(sf, "A1", self.GRID, 0.3)
        assert not rep.decaying
        # statistic is (tau_max / ln n) * ln n = tau_max at every n
        assert all(s == pytest.approx(1.0, rel=1e-12) for s in rep.statistic)

    def test_a2_exact_zero_for_literal_model(self):
        tau = (0.5, 0.5, 0.4)

        def rho0_fn(n):
            return 1.0 - 1.0 / math.log(n)

        def rho_fn(i, j, k, n):
            t = {(1, 1): tau[0], (2, 2): tau[1]}.get((i, j), tau[2])
            return t / np.log(float(max(k, 2)))

        em = H.ExplicitModel(rho0_fn, rho_fn, label="a2-literal")
        rep = H.validate_assumption(
            em, "A2", (1000, 10**4, 10**5), 0.15, tau=(tau[0], tau[2], tau[1])
        )
        assert rep.statistic == (0.0, 0.0, 0.0)
        assert all(c >= 2 for c in rep.cutoff)

    def test_a2_on_strong_model_uses_its_taus(self):
        sf = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
        rep = H.validate_assumption(sf, "A2", (1000, 10**4), 0.2)
        # constant-in-k reference model does not satisfy the literal statement
        assert min(rep.statistic) > 0.1

    def test_alpha_range_enforced(self):
        model = H.WeakAR1Model(1.0, 0.5)
        with pytest.raises(DomainError):
            H.validate_assumption(model, "A1", self.GRID, 0.5)  # > (1-.5)/(1+.5)
        with pytest.raises(DomainError):
            H.validate_assumption(model, "A1", self.GRID, 0.0)

    def test_grid_validation(self):
        model = H.WeakAR1Model(1.0, 0.5)
        with pytest.raises(DomainError):
            H.validate_assumption(model, "A1", (), 0.1)
        with pytest.raises(DomainError):
            H.validate_assumption(model, "A1", (100, 100), 0.1)

    def test_a2_requires_taus(self):
        with pytest.raises(DomainError):
            H.validate_assumption(H.WeakAR1Model(1.0, 0.5), "A2", (100, 1000), 0.1)
