"""The AR(1) filter: ``gauss_arrays._ar1_path`` against ``scipy.signal.lfilter``,
byte for byte, whichever of the two is loaded first in a process."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hrlab
from hrlab.gauss_arrays import _ar1_path

PHIS = (0.2, 0.5, -0.9, 0.999, -0.999, 1e-300)
SHAPES = ((81, 2, 201), (1, 2, 20001), (3, 2, 1))
CASES = tuple(itertools.product(PHIS, SHAPES))


def _inputs(shape, seed):
    """One start per path and the innovations of ``shape``; the first two
    starts are +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(shape[:-1])
    start.flat[:2] = (0.0, -0.0)
    return start, rng.standard_normal(shape)


def _lfilter_path(phi, start, innovations):
    """The paths of ``_ar1_path`` computed by ``scipy.signal.lfilter``."""
    from scipy.signal import lfilter

    scaled = math.sqrt(1.0 - phi * phi) * innovations
    zi = np.multiply(phi, start)[..., None]
    return lfilter([1.0], [1.0, -phi], scaled, zi=zi)[0]


def mismatches():
    """The (phi, shape) cases whose ``_ar1_path`` bytes differ from lfilter's.
    Every ``_ar1_path`` runs before the first ``lfilter``."""
    inputs = [_inputs(shape, seed) for seed, (_, shape) in enumerate(CASES)]
    got = [_ar1_path(phi, start, e.copy()) for (phi, _), (start, e) in zip(CASES, inputs)]
    want = [_lfilter_path(phi, *args) for (phi, _), args in zip(CASES, inputs)]
    return [case for case, a, b in zip(CASES, got, want) if a.tobytes() != b.tobytes()]


@pytest.mark.parametrize("phi,shape", CASES)
def test_filter_matches_lfilter_bytes(phi, shape):
    start, innovations = _inputs(shape, 19)
    want = _lfilter_path(phi, start, innovations).tobytes()
    got = _ar1_path(phi, start, innovations.copy())
    assert got.shape == shape and got.tobytes() == want
    # the rows' layout: innovations are a strided view after the start column
    block = np.concatenate([start[..., None], innovations], axis=-1)
    assert _ar1_path(phi, block[..., 0], block[..., 1:]).tobytes() == want


@given(phi=st.floats(-0.9999, 0.9999).filter(bool), rows=st.integers(1, 4),
       cols=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_filter_matches_lfilter_bytes_property(phi, rows, cols, seed):
    start, innovations = _inputs((rows, 2, cols), seed)
    want = _lfilter_path(phi, start, innovations)
    assert _ar1_path(phi, start, innovations.copy()).tobytes() == want.tobytes()


@pytest.mark.parametrize("signal_first", [True, False])
def test_filter_matches_lfilter_in_either_load_order(signal_first):
    # a fresh interpreter, with scipy.signal imported before the filter's
    # first call or only after every _ar1_path call
    src = os.path.dirname(os.path.dirname(os.path.abspath(hrlab.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import scipy.signal\n" if signal_first else "") + \
        "import test_ar1_filter\nprint(test_ar1_filter.mismatches())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
