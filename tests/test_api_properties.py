"""Every public callable that takes a count, real, threshold, seed or container,
with edge values for up to three of them, returns a result or raises
DomainError: never a bare TypeError or ValueError, and no other error but at an
accepted call's first draw.  The library half of ``test_cli_properties.py``.
The closed forms, which return a result for most values, are also held to
refuse text and None, and each model or mixture the table binds to refuse None.
The table names every parameter of every callable.

Left out: huge finite counts.  An accepted ``empirical_max_law(R=10**12)`` or
``sample_row(n=10**15)`` asks for terabytes before its first draw, and only a
cost budget checked ahead of the draws would refuse it.
"""

import functools
import inspect
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hrlab as H
from hrlab.experiments import ASLT_HARD_CAP, QUAD_MAX_NODES

# each real or threshold argument's edge values, with two ordinary ones
REALS = (None, "0.5", "x", True, 0, -0.0, 5e-324, 1e300, -1e300, math.inf, -math.inf,
         math.nan, 0.5, 1)
reals = st.sampled_from(REALS)
# what each container argument takes besides its sequences: none of them is one
NOT_SEQUENCES = (None, 5, "ab")
not_sequences = st.sampled_from(NOT_SEQUENCES)
COST_CAP = 10**5  # no count edge above it: an accepted count that large is slow


def counts(*bounds):
    """A count argument's edge values: the common ones, and each library bound
    of the argument with its neighbours, up to COST_CAP."""
    near = {b + d for b in bounds for d in (-1, 0, 1) if b + d <= COST_CAP}
    return st.sampled_from((None, "5", -1, 0, 2.5, math.nan, math.inf, *sorted(near)))


WEAK = H.WeakAR1Model(1.0, 0.5)
MIX = H.MixtureParams(1.0, 1.0, 0.8, 1.0)
STRONG = H.StrongFactorModel(MIX)
AXIS = [0.0, 1.0]

seeds = counts(0) | st.sampled_from((2**64, H.SeedLineage(0.5), H.SeedLineage(-1),
                                     H.SeedLineage(0, (1.5,)), H.SeedLineage(0, [1]),
                                     *(H.SeedLineage(0, key) for key in NOT_SEQUENCES)))
workers = st.sampled_from((-3, 0, 1))  # 2 would start a process pool in each example
axes = st.lists(reals, min_size=1, max_size=2)
pairs = st.tuples(reals, reals).map(lambda p: (p,)) | not_sequences


def n_grids(*bounds):
    return st.lists(counts(*bounds), min_size=1, max_size=3).map(tuple) | not_sequences


# name in hrlab.__all__: (callable, {argument: (ordinary value, strategy of edge
# values)}); model arguments are bound
CALLS = {
    "Coupling": (H.Coupling, dict(kind=("independent", st.sampled_from(("shared", "ring"))),
                                  c=(0.0, reals))),
    "HrParam": (H.HrParam, dict(value=(1.0, reals))),
    "MixtureParams": (H.MixtureParams, dict(tau11=(1.0, reals), tau22=(1.0, reals),
                                            tau12=(0.8, reals), lam=(1.0, reals))),
    "SeedLineage": (H.SeedLineage, dict(entropy=(0, counts(0)),
                                        key=((), st.sampled_from(((1.5,), (-1,), ("5",),
                                                                  *NOT_SEQUENCES))))),
    "WeakAR1Model": (H.WeakAR1Model, dict(lam=(1.0, reals), phi=(0.5, reals))),
    "aslt_average": (functools.partial(H.aslt_average, WEAK), dict(
        coupling=(H.INDEPENDENT_ROWS, st.sampled_from((H.shared_innovations(0.3), None))),
        n_max=(1000, counts(1000, ASLT_HARD_CAP)), points=(((0.0, 0.0),), pairs),
        seed=(0, seeds), maxmin_points=((), st.tuples(reals, reals, reals, reals)
                                        .map(lambda q: (q,)) | not_sequences))),
    "aslt_bound_rate": (functools.partial(H.aslt_bound_rate, WEAK), dict(
        cross_row=(H.shared_innovations(0.3), st.sampled_from((H.INDEPENDENT_ROWS, None))),
        epsilon=(0.1, reals), n_grid=((100, 1000), n_grids(16)), x=(0.0, reals),
        y=(0.0, reals))),
    "comparison_bound_series": (functools.partial(H.comparison_bound_series, WEAK), dict(
        kind=("L1", st.sampled_from(("L2", "L3"))), x=(0.0, reals), y=(0.0, reals),
        n_grid=((100, 1000), n_grids(WEAK.min_n())))),
    "empirical_max_law": (functools.partial(H.empirical_max_law, WEAK), dict(
        n=(200, counts(WEAK.min_n())), R=(100, counts(100)),
        grid=((AXIS, AXIS), st.tuples(axes, st.just(AXIS)) | not_sequences), seed=(0, seeds),
        workers=(1, workers))),
    "empirical_maxmin_law": (functools.partial(H.empirical_maxmin_law, WEAK), dict(
        n=(200, counts(WEAK.min_n())), R=(100, counts(100)),
        grid4=((AXIS,) * 4, axes.map(lambda a: (a, AXIS, AXIS, AXIS)) | not_sequences),
        seed=(0, seeds), workers=(1, workers))),
    "gumbel_cdf": (H.gumbel_cdf, dict(x=(0.0, reals))),
    "gumbel_quantile": (H.gumbel_quantile, dict(u=(0.5, reals))),
    "hr_cdf": (H.hr_cdf, dict(lam=(1.0, reals), x=(0.0, reals), y=(0.0, reals))),
    "hr_cdf_dx": (H.hr_cdf_dx, dict(lam=(1.0, reals), x=(0.0, reals), y=(0.0, reals))),
    "hr_copula": (H.hr_copula, dict(lam=(1.0, reals), u=(0.5, reals), v=(0.5, reals))),
    "hr_exponent": (H.hr_exponent, dict(lam=(1.0, reals), x=(0.0, reals), y=(0.0, reals))),
    "hr_sample": (H.hr_sample, dict(lam=(1.0, reals), count=(10, counts(1)), seed=(0, seeds))),
    "induced_correlation": (functools.partial(H.induced_correlation, WEAK), dict(
        i=(1, counts(1, 2)), j=(2, counts(1, 2)), k=(1, counts(0, 99)), n=(100, counts(2)))),
    "lambda_from_rho0": (H.lambda_from_rho0, dict(rho=(0.5, reals), n=(100, counts(2)))),
    "mixture_limit_cdf": (functools.partial(H.mixture_limit_cdf, MIX), dict(
        x=(0.0, reals), y=(0.0, reals), nodes=(16, counts(8, QUAD_MAX_NODES)))),
    "mixture_limit_mc": (functools.partial(H.mixture_limit_mc, MIX), dict(
        x=(0.0, reals), y=(0.0, reals), draws=(10, counts(2)), seed=(0, seeds))),
    "norming_constants": (H.norming_constants, dict(n=(100, counts(2)))),
    "rho0_from_lambda": (H.rho0_from_lambda, dict(lam=(1.0, reals), n=(100, counts(2)))),
    "sample_row": (functools.partial(H.sample_row, WEAK), dict(
        n=(100, counts(WEAK.min_n())), seed=(0, seeds))),
    "sample_rows": (functools.partial(H.sample_rows, WEAK), dict(
        n=(100, counts(WEAK.min_n())), seed=(0, seeds),
        keys=((0, 1), st.lists(counts(0), min_size=1, max_size=3) | not_sequences))),
    "shared_innovations": (H.shared_innovations, dict(c=(0.3, reals))),
    "std_normal_cdf": (H.std_normal_cdf, dict(z=(0.0, reals))),
    "univariate_mixture_cdf": (H.univariate_mixture_cdf, dict(
        tau11=(1.0, reals), x=(0.0, reals), nodes=(16, counts(8, QUAD_MAX_NODES)))),
    "validate_assumption": (functools.partial(H.validate_assumption, STRONG), dict(
        which=("A2", st.sampled_from(("A1", "A3"))),
        n_grid=((100, 1000, 10**4), n_grids(STRONG.min_n())), alpha=(0.2, reals),
        tau=(None, st.lists(reals, min_size=2, max_size=3).map(tuple) | not_sequences))),
}

# callables that take objects only: results, models built of objects, the
# functions of results, and the exception types
OBJECTS_ONLY = {
    "ASLTPath", "AsltRateReport", "AssumptionReport", "BoundSeries", "EmpiricalLaw2D",
    "EmpiricalLaw4D", "Norming", "RowSample", "ExplicitModel", "StrongFactorModel",
    "row_extremes", "sup_distance", "DomainError", "HrlabError", "ModelError",
}


# parameters that take no edge values: an output buffer
UNDRAWN = {"std_normal_cdf": {"out"}}


def test_table_names_every_public_callable():
    public = {name for name in H.__all__ if callable(getattr(H, name))}
    assert public == set(CALLS) | OBJECTS_ONLY
    assert not set(CALLS) & OBJECTS_ONLY
    # every parameter after a bound model, so that a new one cannot skip the test
    for name, (fn, spec) in CALLS.items():
        params = set(inspect.signature(fn).parameters)
        assert params == set(spec) | UNDRAWN.get(name, set()), name


@st.composite
def calls(draw):
    """A callable's name and the edge values of up to three of its arguments;
    every other argument keeps its ordinary value."""
    name = draw(st.sampled_from(sorted(CALLS)))
    spec = CALLS[name][1]
    edged = draw(st.sets(st.sampled_from(sorted(spec)), max_size=3))
    return name, {arg: draw(spec[arg][1]) for arg in sorted(edged)}


class FirstDraw(Exception):
    pass


def _first_draw(self):
    raise FirstDraw


@settings(max_examples=300, derandomize=True)
@given(calls())
@example(("WeakAR1Model", {"phi": None}))
@example(("HrParam", {"value": None}))
@example(("MixtureParams", {"tau12": None}))
@example(("aslt_bound_rate", {"epsilon": None}))
@example(("norming_constants", {"n": None}))
@example(("hr_sample", {"count": None}))
@example(("sample_row", {"n": None}))
@example(("Coupling", {"c": "x"}))
@example(("hr_cdf", {"x": "x"}))
@example(("empirical_max_law", {"n": 100, "grid": (["x"], [0.0])}))
@example(("empirical_max_law", {"n": 100, "grid": None}))
@example(("aslt_average", {"points": 5}))
@example(("aslt_average", {"points": (5,)}))
@example(("aslt_average", {"maxmin_points": None}))
@example(("comparison_bound_series", {"n_grid": 5}))
@example(("aslt_bound_rate", {"n_grid": 5}))
@example(("sample_rows", {"n": 10, "keys": 5}))
@example(("validate_assumption", {"n_grid": (100, 1000), "tau": 5}))
@example(("sample_row", {"n": 10, "seed": H.SeedLineage(0, 5)}))
@example(("aslt_average", {"coupling": None}))
@example(("aslt_bound_rate", {"cross_row": None}))
def test_every_call_returns_or_refuses(call):
    name, edges = call
    fn, spec = CALLS[name]
    kwargs = {arg: ordinary for arg, (ordinary, _) in spec.items()} | edges
    with mock.patch.object(H.SeedLineage, "generator", _first_draw):
        try:
            fn(**kwargs)
        except (H.DomainError, FirstDraw):
            pass


# each call with a None where the table binds an object, the model or its mixture
NONE_OBJECTS = {
    "empirical_max_law": lambda: H.empirical_max_law(None, 200, 100, (AXIS, AXIS), 0),
    "empirical_maxmin_law": lambda: H.empirical_maxmin_law(None, 200, 100, (AXIS,) * 4, 0),
    "comparison_bound_series": lambda: H.comparison_bound_series(None, "L1", 0.0, 0.0, (100,)),
    "aslt_bound_rate": lambda: H.aslt_bound_rate(None, H.INDEPENDENT_ROWS, 0.1, (100,), 0, 0),
    "induced_correlation": lambda: H.induced_correlation(None, 1, 2, 1, 100),
    "sample_row": lambda: H.sample_row(None, 100, 0),
    "sample_rows": lambda: H.sample_rows(None, 100, 0, (0,)),
    "validate_assumption": lambda: H.validate_assumption(None, "A1", (100, 1000), 0.2),
    "mixture_limit_cdf": lambda: H.mixture_limit_cdf(None, 0.0, 0.0),
    "mixture_limit_mc": lambda: H.mixture_limit_mc(None, 0.0, 0.0, 10, 0),
    "StrongFactorModel": lambda: H.StrongFactorModel(None),
}


@pytest.mark.parametrize("name", sorted(NONE_OBJECTS))
def test_a_none_object_is_refused(name):
    with pytest.raises(H.DomainError, match="must be .*, got None"):
        NONE_OBJECTS[name]()


def _varying(fn, arg, **ordinary):
    """``fn(1.0, **ordinary)`` as a function of its argument ``arg``."""
    return lambda a: fn(1.0, **{**ordinary, arg: a})


# each array argument of a closed form, as a one-argument call
CLOSED_FORMS = {
    "gumbel_cdf": H.gumbel_cdf,
    "gumbel_quantile": H.gumbel_quantile,
    "std_normal_cdf": H.std_normal_cdf,
    **{f"{fn.__name__}-{arg}": _varying(fn, arg, x=0.0, y=0.0)
       for fn in (H.hr_exponent, H.hr_cdf, H.hr_cdf_dx) for arg in "xy"},
    **{f"hr_copula-{arg}": _varying(H.hr_copula, arg, u=0.5, v=0.5) for arg in "uv"},
    "Norming.u": H.norming_constants(100).u,
}
# the closed forms whose level arguments must lie in [0, 1], which refuse NaN
NAN_REFUSED = {"gumbel_quantile", "hr_copula-u", "hr_copula-v"}


@pytest.mark.parametrize("value", ["0.5", None, [0.5, None]], ids=["text", "None", "list-None"])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_forms_refuse_text_and_none(name, value):
    with pytest.raises(H.DomainError, match="expected real numbers"):
        CLOSED_FORMS[name](value)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_forms_keep_a_nan_threshold(name):
    if name in NAN_REFUSED:
        with pytest.raises(H.DomainError, match=r"\[0, 1\]"):
            CLOSED_FORMS[name]([0.5, math.nan])
    else:
        assert math.isnan(CLOSED_FORMS[name](math.nan))
        got = CLOSED_FORMS[name]([0.5, math.nan])
        assert not math.isnan(got[0]) and math.isnan(got[1])
