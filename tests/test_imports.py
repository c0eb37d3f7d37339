"""Start-up cost: which scipy subpackages the lab loads, and when.

Each check runs in a fresh interpreter, because this test process has long
since imported everything.
"""

import os
import subprocess
import sys

import pytest

import hrlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hrlab.__file__)))
HEAVY = ("scipy.special", "scipy.signal", "scipy.stats", "scipy.linalg")


def _output(code):
    """What ``code`` prints when run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def _loaded_after(code):
    """Names from HEAVY in sys.modules after running ``code`` in a fresh interpreter."""
    probe = f"{code}\nimport sys\nprint(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    return set(filter(None, _output(probe).split(",")))


def test_import_and_parser_leave_heavy_scipy_unloaded():
    assert _loaded_after("import hrlab") == set()
    assert _loaded_after("import hrlab.cli; hrlab.cli.build_parser()") == set()


_BOUNDS_RUNS = """
import contextlib, io
from hrlab.cli import main
runs = ["--kind L1 --lambda 1 --phi 0.5 --ngrid 1e3,1e4,1e5",
        "--kind L2 --lambda 1 --tau 1,1,0.8 --ngrid 1e3,1e4",
        "--kind rate --lambda 1 --phi 0.5 --coupling shared:0.3 --ngrid 1e2,1e3",
        "--kind L3 --lambda 1 --phi 0.5",
        "--lambda 1 --phi 0.5 --ngrid 1e3,1e12"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["verify", "bounds", *run.split()]) for run in runs]
if codes != [0, 0, 0, 2, 2]:
    raise SystemExit(f"unexpected exit codes {codes}")
"""


def test_bound_sums_and_usage_errors_leave_heavy_scipy_unloaded():
    # the bound series are numpy only, and a usage error exits before any work
    assert _loaded_after(_BOUNDS_RUNS) == set()


_CDF_RUNS = """
import contextlib, io
import hrlab
from hrlab.cli import main
hrlab.hr_cdf(1.0, 0.0, 0.0), hrlab.hr_cdf_dx(1.0, 0.5, 0.0), hrlab.hr_copula(1.0, 0.3, 0.6)
hrlab.hr_sample(1.0, 100, 0)
with contextlib.redirect_stdout(io.StringIO()):
    code = main("hr-eval --lambda 1 --grid -1:2:4".split())
if code != 0:
    raise SystemExit(f"unexpected exit code {code}")
"""


def test_cdf_and_sampler_calls_leave_heavy_scipy_unloaded():
    # erfc comes from its compiled module alone, which is not left listed
    assert _loaded_after(_CDF_RUNS) == set()
    listed = "\nimport sys\nprint('scipy.special._special_ufuncs' in sys.modules)"
    assert _output(_CDF_RUNS + listed) == "False"


_POOL_RUN = """
import numpy as np
import hrlab as H
grid = np.linspace(-1.0, 3.0, 5)
H.empirical_max_law({model}, 200, 100, (grid, grid), 0, workers=2)
"""


_FILTER_CACHE = "\nfrom hrlab.gauss_arrays import _lfilter\nprint(_lfilter.cache_info().currsize)"


def test_filter_is_loaded_in_the_parent_before_the_pool_forks():
    # forked workers inherit what the parent has loaded; without this each
    # worker of each pool would load the filter on its own
    run = _POOL_RUN.format(model="H.WeakAR1Model(1.0, 0.2)")
    assert _output(run + _FILTER_CACHE) == "1"
    assert "scipy.signal" not in _loaded_after(run)


def test_strong_model_pool_never_loads_the_filter():
    # nor does an iid pool (phi = 0), whose rows need no filter either
    for model in ("H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))",
                  "H.WeakAR1Model(1.0, 0.0)"):
        run = _POOL_RUN.format(model=model)
        assert "scipy.signal" not in _loaded_after(run), model
        assert _output(run + _FILTER_CACHE) == "0", model


_FILTER_RUNS = """
import contextlib, io
from hrlab.cli import main
runs = ["weak --lambda 1 --phi 0.3 --n 200 --reps 200 --grid -1:3:3 --seed 5",
        "maxmin --lambda 1 --phi 0.5 --n 200 --reps 200 --grid4 0.5,1.5 --seed 2",
        "aslt --lambda 1 --phi 0.5 --nmax 1000 --seeds 2 --points 1,1 --seed 4"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", *run.split()]) for run in runs]
if codes != [0, 1, 1]:
    raise SystemExit(f"unexpected exit codes {codes}")
"""


def test_filtering_commands_never_load_scipy_signal():
    # nor scipy.special: golden-case sizes; the AR(1) filter and erfc are
    # scipy's compiled kernels, each loaded on its own
    assert _loaded_after(_FILTER_RUNS) == set()


_STRONG_RUN = """
import contextlib, io
from hrlab.cli import main
run = "verify strong --lambda 1 --tau 1,1,0.8 --n 200 --reps 200 --grid -1:3:3 --nodes {nodes} --seed 5"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(run.split())
if code != {code}:
    raise SystemExit(f"unexpected exit code {{code}}")
"""


def test_mixture_quadrature_leaves_heavy_scipy_unloaded():
    # the smallest, the golden size, the default and the largest rule
    for nodes in (8, 16, 128, 150):
        assert _loaded_after(_STRONG_RUN.format(nodes=nodes, code=1)) == set(), nodes


def test_mixture_quadrature_above_150_nodes_is_refused():
    # a configuration error (exit 2), with no scipy.special rule to fall back on
    for nodes in (151, 1024):
        assert _loaded_after(_STRONG_RUN.format(nodes=nodes, code=2)) == set(), nodes


def test_filter_kernel_costs_under_5_mb():
    code = ("import resource\nfrom hrlab.gauss_arrays import _lfilter\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n_lfilter()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    assert int(_output(code)) < 5 * 1024  # ru_maxrss is in KB on Linux


def test_erfc_kernel_costs_under_5_mb():
    code = ("import resource\nfrom hrlab.evd_core import _erfc\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n_erfc()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    assert int(_output(code)) < 5 * 1024  # ru_maxrss is in KB on Linux


def test_hermite_rule_costs_under_5_mb():
    code = ("import resource\nfrom hrlab.experiments import _hermgauss\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n_hermgauss(128)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    assert int(_output(code)) < 5 * 1024  # ru_maxrss is in KB on Linux


def test_missing_filter_kernel_raises_import_error_naming_scipy(monkeypatch, tmp_path):
    import scipy

    from hrlab.gauss_arrays import _lfilter

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} "):
        _lfilter.__wrapped__()


def test_explicit_factor_is_built_in_the_parent_before_the_pool_forks():
    # forked workers inherit the parent's Cholesky factor (and scipy.linalg)
    # instead of each building its own
    rho = "def rho0(n):\n    return 0.4\ndef rho(i, j, k, n):\n    return 0.5**k\n"
    run = rho + _POOL_RUN.format(model="H.ExplicitModel(rho0, rho)")
    assert "scipy.linalg" in _loaded_after(run)
    cached = "\nfrom hrlab.gauss_arrays import _explicit_factor\n" \
             "print(_explicit_factor.cache_info().currsize)"
    assert _output(run + cached) == "1"
