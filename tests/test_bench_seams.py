"""The benchmark's tracer finds every name it patches, and puts each back.

``bench/tracing.py`` wraps module globals and class attributes of the package
by name.  A refactor that drops or moves one of them fails here, in tier-1,
instead of only in a traced benchmark run.
"""

import importlib
from pathlib import Path

import hrlab
import hrlab.cli  # noqa: F401  (instrument patches the CLI module too)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_instrument_patches_every_seam_and_restore_puts_it_back(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, hrlab, pool=True)
        patched = list(tracer._patched)
        assert all(owner.__dict__[name] is not original for owner, name, original in patched)
    finally:
        tracer.restore()
    assert patched
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} not restored"
