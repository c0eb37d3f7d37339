"""Acceptance gate: every criterion runs at its stated tolerance and prints a
pass/fail line (visible with `pytest -s` or in captured output).

The statistical criteria are seed-pinned: each uses a fixed master seed that
was chosen once and is reproduced exactly by the deterministic stream layout,
so the suite is not flaky.  All tolerances are the stated ones.
"""

import functools
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

import hrlab as H

GRID9 = np.linspace(-2.0, 4.0, 9)


def report(num, detail, elapsed=None, limit=None):
    timing = ""
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its runtime budget"
        timing = f" [{elapsed:.1f}s < {limit:.0f}s]"
    print(f"\nACCEPTANCE {num}: PASS ({detail}){timing}")


def test_criterion_1_cdf_exactness_vs_30_digit_oracle():
    import mpmath as mp

    t0 = time.perf_counter()
    mp.mp.dps = 30
    rng = np.random.default_rng(2718)
    lams = 10 ** rng.uniform(-1.3, 1.3, 200)
    xs = rng.uniform(-3.0, 6.0, 200)
    ys = rng.uniform(-3.0, 6.0, 200)
    worst = 0.0
    for lam, x, y in zip(lams, xs, ys):
        got = H.hr_cdf(lam, x, y)
        L, X, Y = (mp.mpf(repr(float(v))) for v in (lam, x, y))
        v = mp.ncdf(L + (X - Y) / (2 * L)) * mp.e**-Y + mp.ncdf(L + (Y - X) / (2 * L)) * mp.e**-X
        ref = mp.e**-v
        worst = max(worst, abs(got - float(ref)) / float(ref))
    assert worst <= 1e-12
    # edge branches are exact, not just accurate
    assert H.hr_cdf(0.0, 0.3, 1.2) == min(H.gumbel_cdf(0.3), H.gumbel_cdf(1.2))
    assert H.hr_cdf(math.inf, 0.3, 1.2) == H.gumbel_cdf(0.3) * H.gumbel_cdf(1.2)
    report(1, f"200-point oracle sweep, worst rel err {worst:.2e}",
           time.perf_counter() - t0, 1.0)


def test_criterion_2_max_stability():
    t0 = time.perf_counter()
    X, Y = np.meshgrid(GRID9, GRID9, indexing="ij")
    worst = 0.0
    for lam in (0.25, 1.0, 4.0):
        for t in (2.0, 3.0, 10.0):
            lhs = H.hr_cdf(lam, X + math.log(t), Y + math.log(t)) ** t
            worst = max(worst, float(np.max(np.abs(lhs - H.hr_cdf(lam, X, Y)))))
    assert worst <= 1e-10
    report(2, f"max-stability defect {worst:.2e}", time.perf_counter() - t0, 1.0)


def test_criterion_3_sampler_fidelity():
    t0 = time.perf_counter()
    count = 10**5
    for lam in (0.5, 2.0):
        pts = H.hr_sample(lam, count, H.SeedLineage(123).child(int(lam * 10)))
        worst = max(
            abs(float(np.mean((pts[:, 0] <= gx) & (pts[:, 1] <= gy))) - H.hr_cdf(lam, gx, gy))
            for gx in GRID9
            for gy in GRID9
        )
        assert worst <= 0.01, (lam, worst)
        for col in (0, 1):
            p = stats.kstest(pts[:, col], lambda v: np.exp(-np.exp(-v))).pvalue
            assert p > 0.001, (lam, col, p)
    report(3, "1e5 draws per parameter, CDF within 0.01, marginals Gumbel",
           time.perf_counter() - t0, 30.0)


def test_criterion_4_weak_dependence_limit():
    t0 = time.perf_counter()
    n, reps = 2000, 10**4
    band = 3.0 * math.sqrt(math.log(2.0 * GRID9.size**2) / (2.0 * reps))
    root = H.SeedLineage(20260810)
    details = []
    for lam in (0.5, 1.0, 2.0):
        theory = lambda X, Y: H.hr_cdf(lam, X, Y)  # noqa: E731
        base = H.empirical_max_law(
            H.WeakAR1Model(lam, 0.0), n, reps, (GRID9, GRID9), root.child(1), workers=2
        )
        dep = H.empirical_max_law(
            H.WeakAR1Model(lam, 0.5), n, reps, (GRID9, GRID9), root.child(0), workers=2
        )
        d0 = H.sup_distance(base, theory)
        d1 = H.sup_distance(dep, theory)
        assert d1 <= d0 + band, (lam, d0, d1, band)
        details.append(f"lam={lam:g}: D={d1:.3f} <= D0={d0:.3f}+{band:.3f}")
    report(4, "; ".join(details), time.perf_counter() - t0, 300.0)


def test_criterion_5_strong_dependence_mixture_limit():
    t0 = time.perf_counter()
    mp_ = H.MixtureParams(1.0, 1.0, 0.8, 1.0)
    model = H.StrongFactorModel(mp_)
    root = H.SeedLineage(77)
    gy = np.append(GRID9, np.inf)
    emp = H.empirical_max_law(model, 2000, 10**4, (GRID9, gy), root.child(0), workers=2)
    theory = np.array([[H.mixture_limit_cdf(mp_, x, y) for y in GRID9] for x in GRID9])
    marg = np.array([H.univariate_mixture_cdf(mp_.tau11, x) for x in GRID9])
    d_biv = float(np.max(np.abs(emp.cdf[:, :-1] - theory)))
    d_marg = float(np.max(np.abs(emp.cdf[:, -1] - marg)))
    assert d_biv <= 0.04
    assert d_marg <= 0.03
    # quadrature agrees with a 1e6-draw Monte Carlo oracle using exact draws
    for point in ((0.0, 0.0), (1.0, 1.0), (-1.0, 2.0)):
        q = H.mixture_limit_cdf(mp_, *point)
        mc, se = H.mixture_limit_mc(mp_, *point, draws=10**6, seed=root.child(99))
        assert abs(q - mc) <= 3.0 * se, (point, q, mc, se)
    report(5, f"sup={d_biv:.3f}<=0.04, marginal={d_marg:.3f}<=0.03, quadrature within 3 SE",
           time.perf_counter() - t0, 300.0)


def test_criterion_6_max_min_asymptotic_independence():
    t0 = time.perf_counter()
    model = H.WeakAR1Model(1.0, 0.5)
    vals = np.array([0.5, 1.5])
    emp = H.empirical_maxmin_law(
        model, 2000, 2 * 10**4, (vals, vals, vals, vals), H.SeedLineage(77).child(5), workers=2
    )
    worst = 0.0
    for i1, x1 in enumerate(vals):
        for i2, x2 in enumerate(vals):
            for j1, y1 in enumerate(vals):
                for j2, y2 in enumerate(vals):
                    target = H.hr_cdf(1.0, x1, x2) * H.hr_cdf(1.0, y1, y2)
                    worst = max(worst, abs(float(emp.prob[i1, i2, j1, j2]) - target))
    assert worst <= 0.04
    report(6, f"four-sided probabilities within {worst:.3f} of the product law",
           time.perf_counter() - t0, 300.0)


def test_criterion_7_almost_sure_limit_theorem():
    t0 = time.perf_counter()
    model = H.WeakAR1Model(1.0, 0.5)
    points = ((0.0, 0.0), (1.0, 1.0))
    mm_points = ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0))
    targets = [H.hr_cdf(1.0, x, y) for x, y in points]
    mm_targets = [H.hr_cdf(1.0, q[0], q[1]) * H.hr_cdf(1.0, q[2], q[3]) for q in mm_points]
    root = H.SeedLineage(1)
    # each path is a pure function of its lineage: two at a time in worker processes
    path_of = functools.partial(H.aslt_average, model, H.INDEPENDENT_ROWS, 2 * 10**4, points,
                                maxmin_points=mm_points)
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        paths = list(pool.map(path_of, (root.child(s) for s in range(10))))
    worst = 0.0
    for ip, tgt in enumerate(targets):
        devs = [abs(float(p.averages[ip, -1]) - tgt) for p in paths]
        worst = max(worst, max(devs))
    for ip, tgt in enumerate(mm_targets):
        devs = [abs(float(p.maxmin_averages[ip, -1]) - tgt) for p in paths]
        worst = max(worst, max(devs))
    assert worst <= 0.12
    # cross-seed concentration: strict shrink from checkpoint n_max/4 to n_max
    for ip in range(len(points)):
        s_final = np.std([p.averages[ip, -1] for p in paths], ddof=1)
        s_quarter = np.std([p.averages[ip, 1] for p in paths], ddof=1)
        assert s_final < s_quarter
    for p in paths:
        assert np.all(p.averages <= p.ceiling + 1e-12)
        assert np.all(p.maxmin_averages <= p.ceiling + 1e-12)
    report(7, f"10 paths, worst final deviation {worst:.3f} <= 0.12, std shrinks, ceiling holds",
           time.perf_counter() - t0, 600.0)


def test_criterion_8_bound_series():
    t0 = time.perf_counter()
    weak = H.WeakAR1Model(1.0, 0.5)
    n_grid = (10**3, 10**4, 10**5, 10**6)
    l1 = H.comparison_bound_series(weak, "L1", 3.0, 3.0, n_grid)
    assert all(a > b for a, b in zip(l1.values, l1.values[1:]))
    assert l1.values[-1] < 1e-2
    strong = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
    l2 = H.comparison_bound_series(strong, "L2", 3.0, 3.0, n_grid)
    assert l2.values == (0.0, 0.0, 0.0, 0.0)
    rate = H.aslt_bound_rate(weak, H.INDEPENDENT_ROWS, 0.1, n_grid, 3.0, 3.0)
    assert rate.bounded
    report(8, f"L1 final {l1.values[-1]:.2e} < 1e-2, L2 identically 0, rate ratio bounded",
           time.perf_counter() - t0, 10.0)


def test_criterion_9_assumption_validators():
    t0 = time.perf_counter()
    grid = (100, 1000, 10**4, 10**5)
    for phi in (0.3, 0.5, 0.6):
        for lam in (0.5, 1.0, 2.0):
            rep = H.validate_assumption(
                H.WeakAR1Model(lam, phi), "A1", grid, 0.95 * (1 - phi) / (1 + phi)
            )
            assert rep.decaying, (phi, lam)
    strong = H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))
    assert not H.validate_assumption(strong, "A1", grid, 0.3).decaying

    tau = (0.5, 0.5, 0.4)

    def rho0_fn(n):
        return 1.0 - 1.0 / math.log(n)

    def rho_fn(i, j, k, n):
        t = {(1, 1): tau[0], (2, 2): tau[1]}.get((i, j), tau[2])
        return t / np.log(float(max(k, 2)))

    literal = H.ExplicitModel(rho0_fn, rho_fn, label="a2-literal")
    rep = H.validate_assumption(literal, "A2", (1000, 10**4, 10**5), 0.15,
                                tau=(tau[0], tau[2], tau[1]))
    assert rep.statistic == (0.0, 0.0, 0.0)
    report(9, "A1 decaying for all weak configs, false for strong; A2 exactly 0",
           time.perf_counter() - t0, 5.0)


def test_criterion_10_cli_determinism_across_workers(tmp_path):
    from hrlab.cli import main

    out = {}
    for workers in (1, 2):
        path = tmp_path / f"workers{workers}.csv"
        code = main([
            "verify", "weak", "--lambda", "1", "--phi", "0.5", "--n", "400",
            "--reps", "400", "--seed", "7", "--grid", "-1:3:5",
            "--workers", str(workers), "--out", str(path),
        ])
        assert code in (0, 1)
        out[workers] = path.read_bytes()
    assert out[1] == out[2]
    report(10, "verify weak emits byte-identical CSV for 1 and 2 workers")
