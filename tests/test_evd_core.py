"""Exactness, structure and sampling of the bivariate Husler-Reiss law."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hrlab as H
from hrlab import evd_core
from hrlab.errors import DomainError

# Frozen oracle values (mpmath at 30 significant digits, computed independently
# of the scipy-based implementation).
PHI_AT_1 = 0.841344746068542948585232545632
PHI_AT_05 = 0.691462461274013103637704610608
PHI_AT_15 = 0.93319279873114193399550595902
HR_CDF_1_00 = 0.185873398148184399864634497876
HR_EXP_1_12 = 0.436881713346430642112828653588
HR_CDF_1_12 = 0.646047845728855346898540520533
COPULA_1_HALF = 0.311501390390194137745576181234

finite_lams = st.floats(min_value=0.05, max_value=20.0)
gumbel_args = st.floats(min_value=-3.0, max_value=6.0)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert H.std_normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert H.std_normal_cdf(math.inf) == 1.0
        assert H.std_normal_cdf(-math.inf) == 0.0

    def test_oracle_value(self):
        assert abs(H.std_normal_cdf(1.0) - PHI_AT_1) <= 1e-15

    @given(st.floats(-38, 38), st.floats(-38, 38))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert H.std_normal_cdf(lo) <= H.std_normal_cdf(hi)


class TestGumbelCdf:
    def test_at_zero(self):
        assert H.gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), abs=1e-16)

    def test_limits(self):
        assert H.gumbel_cdf(math.inf) == 1.0
        assert H.gumbel_cdf(-math.inf) == 0.0

    def test_median_inversion(self):
        # Gumbel(x) = 1/2 at x = -ln(ln 2)
        assert H.gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_quantile_roundtrip(self, u):
        assert H.gumbel_cdf(H.gumbel_quantile(u)) == pytest.approx(u, rel=1e-12)


class TestHrCdf:
    def test_zero_branch_is_min(self):
        assert H.hr_cdf(0.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert H.hr_cdf(0.0, 0.0, 1.0) == min(H.gumbel_cdf(0.0), H.gumbel_cdf(1.0))

    def test_inf_branch_is_product(self):
        assert H.hr_cdf(math.inf, 0.0, 0.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_finite_oracle_values(self):
        assert H.hr_cdf(1.0, 0.0, 0.0) == pytest.approx(HR_CDF_1_00, rel=1e-14)
        assert H.hr_cdf(1.0, 1.0, 2.0) == pytest.approx(HR_CDF_1_12, rel=1e-14)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            H.HrParam(-0.5)
        with pytest.raises(DomainError):
            H.HrParam(math.nan)

    @given(finite_lams, gumbel_args, gumbel_args)
    def test_symmetry_bitwise(self, lam, x, y):
        assert H.hr_cdf(lam, x, y) == H.hr_cdf(lam, y, x)

    @given(finite_lams, gumbel_args, gumbel_args)
    def test_frechet_sandwich(self, lam, x, y):
        h = H.hr_cdf(lam, x, y)
        assert H.gumbel_cdf(x) * H.gumbel_cdf(y) - 1e-12 <= h
        assert h <= min(H.gumbel_cdf(x), H.gumbel_cdf(y)) + 1e-12

    @given(finite_lams, gumbel_args, gumbel_args, gumbel_args, gumbel_args)
    def test_rectangle_inequality(self, lam, a, b, c, d):
        x1, x2 = min(a, b), max(a, b)
        y1, y2 = min(c, d), max(c, d)
        mass = (
            H.hr_cdf(lam, x2, y2)
            - H.hr_cdf(lam, x1, y2)
            - H.hr_cdf(lam, x2, y1)
            + H.hr_cdf(lam, x1, y1)
        )
        assert mass >= -1e-12

    @given(st.sampled_from([0.0, 0.3, 1.0, 4.0, math.inf]), gumbel_args)
    def test_gumbel_marginals(self, lam, x):
        assert abs(H.hr_cdf(lam, x, math.inf) - H.gumbel_cdf(x)) <= 1e-12
        assert abs(H.hr_cdf(lam, math.inf, x) - H.gumbel_cdf(x)) <= 1e-12

    @given(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           st.one_of(st.floats(0.0, 1.0), st.just(math.inf)), gumbel_args, gumbel_args)
    def test_decreasing_in_lambda(self, lo, step, x, y):
        # the family runs from the comonotone (lambda = 0) to the independence
        # (lambda = inf) copula.  Rounding may lift the CDF by a few ulps of 1,
        # the scale of a probability: exp(-V) has relative condition number V,
        # so near 0 the same error spans more ulps of the value itself
        hi = lo + step * max(lo, 1.0)
        assert H.hr_cdf(hi, x, y) <= H.hr_cdf(lo, x, y) + 4 * np.finfo(float).eps

    def test_infinite_corner_cases(self):
        for lam in (0.0, 1.0, math.inf):
            assert H.hr_cdf(lam, math.inf, math.inf) == 1.0
            assert H.hr_cdf(lam, -math.inf, 1.0) == 0.0
            assert H.hr_cdf(lam, 1.0, -math.inf) == 0.0
            assert H.hr_cdf(lam, -math.inf, -math.inf) == 0.0

    @pytest.mark.parametrize("t", [2.0, 3.0, 10.0])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    def test_max_stability(self, lam, t, grid9):
        X, Y = np.meshgrid(grid9, grid9, indexing="ij")
        lhs = H.hr_cdf(lam, X + math.log(t), Y + math.log(t)) ** t
        assert np.max(np.abs(lhs - H.hr_cdf(lam, X, Y))) <= 1e-10

    def test_branch_continuity(self, grid9):
        X, Y = np.meshgrid(grid9, grid9, indexing="ij")
        near_inf = H.hr_cdf(1e6, X, Y)
        assert np.max(np.abs(near_inf - H.hr_cdf(math.inf, X, Y))) <= 1e-6
        near_zero = H.hr_cdf(1e-6, X, Y)
        assert np.max(np.abs(near_zero - H.hr_cdf(0.0, X, Y))) <= 1e-4

    def test_vectorized_matches_scalar(self, grid9):
        X, Y = np.meshgrid(grid9, grid9, indexing="ij")
        arr = H.hr_cdf(1.3, X, Y)
        for i in range(0, 9, 4):
            for j in range(0, 9, 4):
                assert arr[i, j] == H.hr_cdf(1.3, grid9[i], grid9[j])


class TestHrExponent:
    def test_edge_values(self):
        assert H.hr_exponent(math.inf, 0.0, 0.0) == pytest.approx(2.0, abs=1e-15)
        assert H.hr_exponent(0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_oracle_value(self):
        assert H.hr_exponent(1.0, 1.0, 2.0) == pytest.approx(HR_EXP_1_12, rel=1e-14)
        direct = PHI_AT_05 * math.exp(-2.0) + PHI_AT_15 * math.exp(-1.0)
        assert H.hr_exponent(1.0, 1.0, 2.0) == pytest.approx(direct, rel=1e-14)

    @given(finite_lams, gumbel_args, gumbel_args)
    def test_bounds_and_consistency(self, lam, x, y):
        v = H.hr_exponent(lam, x, y)
        assert max(math.exp(-x), math.exp(-y)) - 1e-12 <= v
        assert v <= math.exp(-x) + math.exp(-y) + 1e-12
        assert H.hr_cdf(lam, x, y) == pytest.approx(math.exp(-v), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_far_lower_tail_is_inf_not_nan(self, lam):
        # e^1000 and e^800 overflow while Phi(lam - 100/lam) underflows to 0
        for x, y in ((-1000.0, -800.0), (-800.0, -1000.0)):
            assert H.hr_exponent(lam, x, y) == math.inf
            assert H.hr_cdf(lam, x, y) == 0.0
        # only the overflowing cell changes: a finite one is the scalar value
        v = H.hr_exponent(lam, np.array([-1000.0, 0.5]), np.array([-800.0, 1.5]))
        assert v[0] == math.inf and v[1] == H.hr_exponent(lam, 0.5, 1.5)


class TestHrCdfDx:
    @pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
    def test_matches_central_differences(self, lam):
        h = 1e-6
        for x in (-1.0, 0.5, 2.0):
            for y in (-0.5, 1.0, 3.0):
                fd = (H.hr_cdf(lam, x + h, y) - H.hr_cdf(lam, x - h, y)) / (2 * h)
                assert H.hr_cdf_dx(lam, x, y) == pytest.approx(fd, abs=5e-9)

    def test_marginal_derivative(self):
        # dH/dx at y=+inf is the Gumbel density
        x = 0.7
        got = H.hr_cdf_dx(2.0, x, math.inf)
        assert got == pytest.approx(H.gumbel_cdf(x) * math.exp(-x), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_zero_where_the_cdf_is_zero(self, lam):
        for x, y in ((-1000.0, -800.0), (-800.0, -1000.0), (-1000.0, math.inf)):
            assert H.hr_cdf_dx(lam, x, y) == 0.0

    def test_edge_branches_rejected(self):
        with pytest.raises(DomainError):
            H.hr_cdf_dx(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            H.hr_cdf_dx(math.inf, 0.0, 0.0)


class TestHrCopula:
    def test_independence_value(self):
        assert H.hr_copula(math.inf, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    def test_comonotone_value(self):
        assert H.hr_copula(0.0, 0.3, 0.7) == 0.3

    def test_interior_oracle(self):
        assert H.hr_copula(1.0, 0.5, 0.5) == pytest.approx(COPULA_1_HALF, rel=1e-13)

    @given(finite_lams, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_boundaries_exact(self, lam, u, v):
        assert H.hr_copula(lam, u, 1.0) == u
        assert H.hr_copula(lam, 1.0, v) == v
        assert H.hr_copula(lam, u, 0.0) == 0.0
        assert H.hr_copula(lam, 0.0, v) == 0.0

    @given(finite_lams, st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_copula_between_frechet_bounds(self, lam, u, v):
        c = H.hr_copula(lam, u, v)
        assert u * v - 1e-12 <= c <= min(u, v) + 1e-12

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            H.hr_copula(1.0, -0.1, 0.5)
        with pytest.raises(DomainError):
            H.hr_copula(1.0, 0.5, 1.2)


class TestHrSample:
    def test_comonotone_draws_equal(self):
        pts = H.hr_sample(0.0, 3, 11)
        assert np.array_equal(pts[:, 0], pts[:, 1])

    def test_independent_draws_uncorrelated(self):
        pts = H.hr_sample(math.inf, 10**5, H.SeedLineage(808).child(1000))
        c = np.corrcoef(np.exp(-pts[:, 0]), np.exp(-pts[:, 1]))[0, 1]
        assert abs(c) <= 0.01

    def test_deterministic(self):
        a = H.hr_sample(1.5, 64, 9)
        b = H.hr_sample(1.5, 64, 9)
        assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(DomainError):
            H.hr_sample(1.0, 0, 1)

    def test_dkw_band_against_cdf(self):
        # 99% DKW radius sqrt(ln(2/0.01) / (2 * 1e5)) on a 5x5 grid
        count = 10**5
        pts = H.hr_sample(1.0, count, H.SeedLineage(808).child(999))
        radius = math.sqrt(math.log(2.0 / 0.01) / (2.0 * count))
        grid = np.linspace(-1.5, 3.0, 5)
        for gx in grid:
            for gy in grid:
                emp = np.mean((pts[:, 0] <= gx) & (pts[:, 1] <= gy))
                assert abs(emp - H.hr_cdf(1.0, gx, gy)) <= radius

    @given(lam=st.floats(1e-3, 1e3), x=st.floats(-4.0, 40.0), y=st.floats(-60.0, 60.0))
    def test_conditional_cdf_equals_the_exponent_formula(self, lam, x, y):
        # the sampler's inlined V must be hr_exponent's float, bit for bit
        x, y = np.array([x, x]), np.array([y, x])
        d = np.where(x == y, 0.0, y - x)
        with np.errstate(over="ignore"):
            want = (np.exp(np.exp(-x) - H.hr_exponent(lam, x, y))
                    * H.std_normal_cdf(lam + d / (2.0 * lam)))
            got = evd_core._cond_cdf(lam, x, y, np.exp(-x))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_marginals_are_gumbel(self, lam):
        from scipy import stats

        pts = H.hr_sample(lam, 20000, H.SeedLineage(313).child(int(lam * 2)))
        for col in (0, 1):
            p = stats.kstest(pts[:, col], lambda v: np.exp(-np.exp(-v))).pvalue
            assert p > 0.001


class TestMixtureParams:
    def test_valid_construction(self):
        mp_ = H.MixtureParams(1.0, 1.0, 0.8, 1.0)
        assert mp_.tau_tilde == pytest.approx(-0.2)
        assert mp_.lambda_tilde == pytest.approx(math.sqrt(0.8))
        assert mp_.rho_zw == pytest.approx(0.8)

    def test_tau12_bound(self):
        with pytest.raises(DomainError):
            H.MixtureParams(0.5, 0.5, 0.8, 1.0)

    def test_imaginary_lambda_tilde_rejected(self):
        # tau_tilde = -0.75, lam^2 = 0.25 < 0.75
        with pytest.raises(DomainError):
            H.MixtureParams(1.0, 1.0, 0.25, 0.5)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(DomainError):
            H.MixtureParams(0.0, 1.0, 0.5, 1.0)
