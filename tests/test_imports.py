"""Start-up cost: which scipy subpackages the lab loads, and when.

Each check runs in a fresh interpreter, because this test process has long
since imported everything.
"""

import os
import subprocess
import sys

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


def test_first_cdf_call_loads_scipy_special():
    assert "scipy.special" in _loaded_after("import hrlab; hrlab.hr_cdf(1.0, 0.0, 0.0)")


_POOL_RUN = """
import numpy as np
import hrlab as H
grid = np.linspace(-1.0, 3.0, 5)
H.empirical_max_law({model}, 200, 100, (grid, grid), 0, workers=2)
"""


def test_filter_is_loaded_in_the_parent_before_the_pool_forks():
    # forked workers inherit what the parent has loaded; without this each
    # worker of each pool would import scipy.signal on its own
    loaded = _loaded_after(_POOL_RUN.format(model="H.WeakAR1Model(1.0, 0.2)"))
    assert "scipy.signal" in loaded


def test_strong_model_pool_never_loads_the_filter():
    # nor does an iid pool (phi = 0), whose rows need no filter either
    for model in ("H.StrongFactorModel(H.MixtureParams(1.0, 1.0, 0.8, 1.0))",
                  "H.WeakAR1Model(1.0, 0.0)"):
        assert "scipy.signal" not in _loaded_after(_POOL_RUN.format(model=model)), model


def test_explicit_factor_is_built_in_the_parent_before_the_pool_forks():
    # forked workers inherit the parent's Cholesky factor (and scipy.linalg)
    # instead of each building its own
    rho = "def rho0(n):\n    return 0.4\ndef rho(i, j, k, n):\n    return 0.5**k\n"
    run = rho + _POOL_RUN.format(model="H.ExplicitModel(rho0, rho)")
    assert "scipy.linalg" in _loaded_after(run)
    cached = "\nfrom hrlab.gauss_arrays import _explicit_factor\n" \
             "print(_explicit_factor.cache_info().currsize)"
    assert _output(run + cached) == "1"
