"""Every argv built from the command table, with edge values for each flag,
ends in a report or in one refusal: never a traceback, and never exit 3 but
at an accepted config's first draw."""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import hrlab as H
from hrlab import cli
from hrlab.experiments import ASLT_HARD_CAP, QUAD_MAX_NODES
from hrlab.gauss_arrays import NGRID_MAX

# each real flag's edge values, with two ordinary ones so that many argvs get
# past their parsers to the library
REALS = ("0", "-0.0", "5e-324", "1e300", "-1e300", "inf", "-inf", "nan", "0.5", "1")
reals = st.sampled_from(REALS)
# bounds the library states for count flags that the CLI passes on as they are
LIBRARY_BOUNDS = {"reps": (100,), "nodes": (8, QUAD_MAX_NODES), "nmax": (1000, ASLT_HARD_CAP)}
# entries at most 1e5 keep an accepted bound sum fast; above 1e8 is refused
NGRID_ENTRIES = ("2", "16", "1e3", "1e5", "1000.5", "0", "-0.0", "5e-324", "inf", "nan",
                 "1e300", str(NGRID_MAX + 1))
# small grids keep an accepted hr-eval fast
GRIDS = ("0:0", "-1:1:3", "-2:4:9", "1:1:3", "3:1", "0:1:202", "0:1:x", "nan:1", "0:inf",
         "-709:-700:2", "-800:0:2", "5e-324:1e300", "-1e300:0")
COUPLINGS = ("indep", "shared:0", "shared:-0.0", "shared:5e-324", "shared:0.3", "shared:1",
             "shared:nan", "shared:inf", "shared:x", "ring:0.3")
SEEDS = ("0", "-0", "-1", "7", str(2**64), "1e3", "x")

PARSER_VALUES = {
    cli._parse_lambda: reals,
    cli._parse_real: reals,
    cli._parse_tau: st.lists(reals, min_size=2, max_size=3).map(",".join),
    cli._parse_floats: st.lists(reals, min_size=1, max_size=4).map(",".join),
    cli._parse_points: (st.lists(st.tuples(reals, reals).map(",".join), min_size=1, max_size=2)
                        .map(";".join)
                        | st.sampled_from((";".join(["0,0"] * 100), ";".join(["0,0"] * 101),
                                           "0,0;1,1,1"))),
    cli._parse_ngrid: st.lists(st.sampled_from(NGRID_ENTRIES), min_size=1, max_size=3)
    .map(",".join),
    cli._parse_grid: st.sampled_from(GRIDS),
    cli._parse_coupling: st.sampled_from(COUPLINGS),
    cli._parse_seed: st.sampled_from(SEEDS),
}


def _int_edges(dest):
    """0, -1 and each bound of the count flag ``dest`` with its neighbours."""
    if dest == "workers":  # 2 would start a process pool in each example
        return ("-3", "0", "1")
    least, most = cli.COUNT_RANGES.get(dest, (None, None))
    bounds = [b for b in (least, most, *LIBRARY_BOUNDS.get(dest, ())) if b is not None]
    return tuple(str(v) for v in sorted({0, -1, *(b + d for b in bounds for d in (-1, 0, 1))}))


def _values(name, kwargs):
    """The strategy of one flag's value texts; a flag of a new type fails here
    until its edge values are added."""
    if "choices" in kwargs:
        return st.sampled_from((*kwargs["choices"], "bogus"))
    if kwargs.get("type") is int:
        return st.sampled_from(_int_edges(kwargs.get("dest", name[2:])))
    return PARSER_VALUES[kwargs["type"]]


# what a required flag takes when it is given no edge value
ORDINARY = {"--lambda": "1", "--phi": "0.5", "--tau": "1,1,0.8", "--ngrid": "1e3,1e4"}


@st.composite
def argvs(draw):
    """A command's argv, its flags in table order.  Up to three flags take an
    edge value, or are left out where they have an ordinary value; any other
    flag takes its ordinary value or keeps its default."""
    cmd = draw(st.sampled_from(cli.COMMANDS))
    flags = [(name, kwargs) for name, kwargs in cmd.flags + cli.COMMON
             if name != "--out"]  # a report goes to stdout
    edged = draw(st.sets(st.sampled_from([name for name, _ in flags]), max_size=3))
    argv = list(cmd.path)
    for name, kwargs in flags:
        # verify bounds needs one of its optional --phi and --tau: --phi by default
        ordinary = ORDINARY[name] if kwargs.get("required") or name == "--phi" else None
        if name in edged:
            edge = _values(name, kwargs)
            value = draw(edge | st.none() if ordinary else edge)
        else:
            value = ordinary
        if value is not None:
            argv += [name, value]
    return argv


def _first_draw(self):
    raise RuntimeError("first draw")


@settings(max_examples=300, derandomize=True)
@given(argvs())
def test_every_argv_ends_in_a_report_or_one_refusal(argv):
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(H.SeedLineage, "generator", _first_draw),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 2:  # one error: line, or argparse's usage message and its error line
        usage = lines[0].startswith("usage: ") and ": error: " in lines[-1]
        assert out == "" and (usage or (len(lines) == 1 and lines[0].startswith("error: "))), err
    elif code == 3:  # only an accepted config's first draw fails
        assert (out, err) == ("", "error: RuntimeError: first draw\n")
    else:
        assert code in (0, 1) and out and err == "", (code, err)
