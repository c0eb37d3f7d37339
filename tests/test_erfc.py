"""scipy's ``erfc`` as ``evd_core._erfc`` loads it, from its compiled module
alone, against ``scipy.special.erfc``, byte for byte, whichever of the two is
loaded first in a process."""

import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hrlab
from hrlab import evd_core
from hrlab.evd_core import _erfc, std_normal_cdf

_TINY = np.finfo(float).smallest_subnormal
_NORMAL = np.finfo(float).tiny


def _inputs():
    """Signed zeros and infinities, NaN, subnormals, the edges of the normal
    range, a fine grid over |z| <= 40 and random draws."""
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, _TINY, -_TINY, 1e-310, -1e-310,
             _NORMAL, -_NORMAL, _NORMAL - _TINY, 1e-300, 0.5, 26.5, 27.3, 40.0, -40.0]
    rng = np.random.default_rng(20)
    return np.concatenate([edges, np.linspace(-40.0, 40.0, 16001),
                           rng.uniform(-40.0, 40.0, 4000), rng.standard_normal(4000)])


def _reference_cdf(z):
    """``std_normal_cdf`` computed through ``scipy.special.erfc``."""
    from scipy import special

    return 0.5 * special.erfc(np.negative(z) / math.sqrt(2.0))


def _in_place(fn, z):
    """``fn(w, out=w)`` on a copy w of z."""
    w = z.copy()
    fn(w, out=w)
    return w


def mismatches():
    """The checks whose bytes differ from ``scipy.special.erfc``'s.  Every
    ``_erfc`` and ``std_normal_cdf`` call runs before ``scipy.special`` is
    imported here."""
    z = _inputs()
    got = {"erfc": _erfc()(z), "erfc out=z": _in_place(_erfc(), z),
           "std_normal_cdf": std_normal_cdf(z),
           "std_normal_cdf out=z": _in_place(std_normal_cdf, z)}
    from scipy import special

    want = {"erfc": special.erfc(z), "erfc out=z": special.erfc(z),
            "std_normal_cdf": _reference_cdf(z), "std_normal_cdf out=z": _reference_cdf(z)}
    return [name for name in got if got[name].tobytes() != want[name].tobytes()]


def test_erfc_matches_scipy_special_bytes():
    assert mismatches() == []


@given(hnp.arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_erfc_matches_scipy_special_bytes_property(z):
    from scipy import special

    assert _erfc()(z).tobytes() == special.erfc(z).tobytes()
    assert _in_place(std_normal_cdf, z).tobytes() == _reference_cdf(z).tobytes()


@pytest.mark.parametrize("special_first", [True, False])
def test_erfc_matches_scipy_special_in_either_load_order(special_first):
    # a fresh interpreter, with scipy.special imported before the first
    # _erfc() call or only after every _erfc call
    src = os.path.dirname(os.path.dirname(os.path.abspath(hrlab.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import scipy.special\n" if special_first else "") + \
        "import test_erfc\nprint(test_erfc.mismatches())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_erfc_falls_back_to_scipy_special_without_the_compiled_module(monkeypatch, tmp_path):
    import scipy
    from scipy import special

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    assert _erfc.__wrapped__() is special.erfc


def test_erfc_falls_back_to_scipy_special_when_the_module_lacks_it(monkeypatch):
    from scipy import special

    monkeypatch.setattr(evd_core, "_scipy_extension", lambda *where: types.SimpleNamespace())
    assert _erfc.__wrapped__() is special.erfc
