"""Normalizing constants and the correlation calibration."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hrlab as H
from hrlab.errors import DomainError

# mpmath oracle values at 25 significant digits
A_AT_2 = 0.8493218002880190427215028
ORACLE_AB = {
    100: (0.329505114491130405750809, 2.366254792906393987230792),
    1000: (0.2690397993802068892614488, 3.116469885291314049625689),
    10**4: (0.2329953008923280376474156, 3.738410818420011455592446),
    10**5: (0.2083973324933051602641509, 4.28019020913224152937269),
}


class TestNormingConstants:
    def test_smallest_row(self):
        nm = H.norming_constants(2)
        assert nm.a == pytest.approx(1.0 / math.sqrt(2.0 * math.log(2.0)), rel=1e-15)
        assert nm.a == pytest.approx(A_AT_2, rel=1e-14)

    @pytest.mark.parametrize("n", sorted(ORACLE_AB))
    def test_oracle_values(self, n):
        nm = H.norming_constants(n)
        a_ref, b_ref = ORACLE_AB[n]
        assert nm.a == pytest.approx(a_ref, rel=1e-14)
        assert nm.b == pytest.approx(b_ref, rel=1e-14)

    def test_b_strictly_increasing_on_grid(self):
        bs = [H.norming_constants(n).b for n in (100, 1000, 10**4, 10**5)]
        assert all(x < y for x, y in zip(bs, bs[1:]))

    def test_b_over_sqrt_2logn_tends_to_one(self):
        ratios = [
            H.norming_constants(n).b / math.sqrt(2.0 * math.log(n))
            for n in (10**2, 10**4, 10**6, 10**8)
        ]
        errs = [abs(1.0 - r) for r in ratios]
        assert all(x > y for x, y in zip(errs, errs[1:]))

    def test_small_n_rejected(self):
        for n in (1, 0, -3):
            with pytest.raises(DomainError):
                H.norming_constants(n)


class TestAffineMap:
    def test_at_zero(self):
        nm = H.norming_constants(123)
        assert nm.u(0.0) == nm.b

    def test_unit_step(self):
        nm = H.norming_constants(100)
        assert nm.u(1.0) == nm.a * 1.0 + nm.b

    def test_inversion(self):
        nm = H.norming_constants(100)
        assert nm.u(-nm.b / nm.a) == pytest.approx(0.0, abs=1e-12)

    def test_broadcasts(self):
        nm = H.norming_constants(50)
        s = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(nm.u(s), nm.a * s + nm.b)


class TestCalibration:
    def test_complete_dependence(self):
        assert H.rho0_from_lambda(0.0, 100) == 1.0

    def test_substitution(self):
        assert H.rho0_from_lambda(1.0, 8) == pytest.approx(1.0 - 1.0 / math.log(8.0), rel=1e-15)
        assert H.rho0_from_lambda(2.0, 50) == pytest.approx(1.0 - 4.0 / math.log(50.0), rel=1e-15)

    def test_lambda_from_rho0_examples(self):
        assert H.lambda_from_rho0(1.0, 17).value == 0.0
        assert H.lambda_from_rho0(0.0, 50).value == pytest.approx(math.sqrt(math.log(50.0)))
        assert H.lambda_from_rho0(1.0 - 4.0 / math.log(50.0), 50).value == pytest.approx(2.0, rel=1e-12)

    def test_infinite_lambda_rejected(self):
        with pytest.raises(DomainError):
            H.rho0_from_lambda(math.inf, 100)

    def test_too_large_lambda_rejected(self):
        with pytest.raises(DomainError):
            H.rho0_from_lambda(3.0, 10)  # lam^2 = 9 > 2 ln 10
        with pytest.raises(DomainError, match="row size"):
            H.rho0_from_lambda(1.0, 1)  # ln 1 = 0

    def test_lambda_whose_square_overflows_is_rejected(self):
        # lam^2 is inf above about 1.3e154, where float ** would raise OverflowError
        with pytest.raises(DomainError, match="lam\\^2=inf"):
            H.rho0_from_lambda(1e200, 1000)

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            H.lambda_from_rho0(1.5, 100)
        with pytest.raises(DomainError):
            H.lambda_from_rho0(-1.01, 100)
        with pytest.raises(DomainError, match="row size"):
            H.lambda_from_rho0(0.5, 1)

    @given(st.integers(min_value=2, max_value=10**6), st.floats(0.01, 1.0))
    def test_roundtrip(self, n, frac):
        # the 1 - rho subtraction bounds the recoverable precision by
        # eps * ln(n) / (2 lam), so the 1e-12 tolerance needs lam >~ 0.01
        lam = frac * math.sqrt(2.0 * math.log(n))
        rho = H.rho0_from_lambda(lam, n)
        assert H.lambda_from_rho0(rho, n).value == pytest.approx(lam, abs=1e-12, rel=1e-12)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_roundtrip_exact_at_zero(self, n):
        assert H.lambda_from_rho0(H.rho0_from_lambda(0.0, n), n).value == 0.0


WEAK = H.WeakAR1Model(1.0, 0.5)
MIX = H.MixtureParams(1.0, 1.0, 0.8, 1.0)
# every count argument of the public API, each refused before any row is drawn
COUNT_CALLS = {
    "norming_constants": lambda v: H.norming_constants(v),
    "rho0_from_lambda": lambda v: H.rho0_from_lambda(1.0, v),
    "lambda_from_rho0": lambda v: H.lambda_from_rho0(0.5, v),
    "induced_correlation-k": lambda v: H.induced_correlation(WEAK, 1, 2, v, 100),
    "induced_correlation-n": lambda v: H.induced_correlation(WEAK, 1, 2, 1, v),
    "sample_row": lambda v: H.sample_row(WEAK, v, 0),
    "sample_rows": lambda v: H.sample_rows(WEAK, v, 0, range(3)),
    "sample_rows-keys": lambda v: H.sample_rows(WEAK, 60, 0, [1, v]),
    "hr_sample": lambda v: H.hr_sample(1.0, v, 0),
    "hr_sample-seed": lambda v: H.hr_sample(1.0, 3, v),
    "mixture_limit_mc": lambda v: H.mixture_limit_mc(MIX, 0.0, 0.0, v, 0),
    "mixture_limit_cdf-nodes": lambda v: H.mixture_limit_cdf(MIX, 0.0, 0.0, nodes=v),
    "univariate_mixture_cdf-nodes": lambda v: H.univariate_mixture_cdf(1.0, 0.0, nodes=v),
    "empirical_max_law-n": lambda v: H.empirical_max_law(WEAK, v, 100, ([0.0], [0.0]), 0),
    "empirical_max_law-R": lambda v: H.empirical_max_law(WEAK, 100, v, ([0.0], [0.0]), 0),
    "empirical_maxmin_law-n": lambda v: H.empirical_maxmin_law(WEAK, v, 100, ([0.0],) * 4, 0),
    "empirical_maxmin_law-R": lambda v: H.empirical_maxmin_law(WEAK, 100, v, ([0.0],) * 4, 0),
    "aslt_average": lambda v: H.aslt_average(WEAK, H.INDEPENDENT_ROWS, v, ((0.0, 0.0),), 0),
    "comparison_bound_series": lambda v: H.comparison_bound_series(WEAK, "L1", 0.0, 0.0, [v]),
    "aslt_bound_rate": lambda v: H.aslt_bound_rate(WEAK, H.INDEPENDENT_ROWS, 0.1, [v], 0.0, 0.0),
    "validate_assumption": lambda v: H.validate_assumption(WEAK, "A1", [100, v], 0.1),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5],
                         ids=["inf", "-inf", "nan", "2.5"])
@pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS.keys())
def test_non_finite_count_is_a_domain_error(monkeypatch, call, value):
    # int() raises OverflowError on +-inf and ValueError on NaN, and would
    # truncate 2.5 to 2 without a word
    def no_draws(self):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(H.SeedLineage, "generator", no_draws)
    with pytest.raises(DomainError, match="finite integer"):
        call(value)


class TestTailEquivalence:
    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
    def test_n_tail_converges_with_decreasing_error(self, x):
        # n (1 - Phi(u_n(x))) -> e^-x; the absolute error decreases along the
        # grid (confirmed against an mpmath evaluation at build time)
        errs = []
        for n in (10**3, 10**4, 10**5, 10**6):
            nm = H.norming_constants(n)
            tail = n * (1.0 - H.std_normal_cdf(nm.u(x)))
            errs.append(abs(tail - math.exp(-x)))
        assert all(a > b for a, b in zip(errs, errs[1:]))
