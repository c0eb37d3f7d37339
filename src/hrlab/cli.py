"""Command-line entry point: the command table, and CSV/JSON reporting.

The command table ``COMMANDS`` is the one statement of every subcommand's
flags.  Every run echoes its resolved flags verbatim into the output (a
``config`` column in CSV, a ``config`` object in JSON): one key for each flag
of the table but ``--out`` and ``--workers``, ``None`` where the command lacks
that flag.  With the artifact version, any result file identifies the exact
experiment that produced it.  Identical (config, seed, version, numpy
version, float64 ``exp``/``log`` code path) produce byte-identical output
regardless of worker count; README's "What the byte contract covers" says why
numpy enters.

Exit codes: 0 verification passed, 1 verification failed, 2 usage or
configuration error, 3 any other runtime error (memory, worker pool, ...).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import DomainError, HrlabError, _count, _real, _seq
from .evd_core import MixtureParams, as_param, hr_cdf, hr_exponent
from .experiments import (
    Coupling,
    _quad_nodes,
    aslt_average,
    aslt_bound_rate,
    comparison_bound_series,
    empirical_max_law,
    empirical_maxmin_law,
    mixture_limit_cdf,
    sup_distance,
    univariate_mixture_cdf,
)
from .gauss_arrays import NGRID_MAX, StrongFactorModel, WeakAR1Model, _lfilter
from .seeding import SeedLineage

SEED_ENV_VAR = "HREXT_SEED"

GRID_MAX_POINTS = 201  # per axis: hr-eval tabulates count^2 rows
# each count flag's (least, most), checked before any draw.  --n and --reps
# keep every array below 256 MB: a row of 2(n+1) float64 normals, and verify
# maxmin's (reps, 81) event matrices.  --seeds bounds the run time of verify
# aslt, one path after another on each of its --workers processes, of up to
# ~1e10 normals each, and it takes two paths to compare spreads across them
COUNT_RANGES = {"n": (None, 10**7), "reps": (None, 10**6), "seeds": (2, 100),
                "workers": (1, None)}


# ---------------------------------------------------------------------------
# flag parsing helpers (argparse type= callables raise ArgumentTypeError -> exit 2)
# ---------------------------------------------------------------------------

def _parse_lambda(text: str) -> float:
    return _parse_real(text, "dependence parameter", least=0.0, above=None, below=None)


def _parse_real(text: str, name="value", least=None, above=-math.inf, below=math.inf) -> float:
    """``text`` as float() reads it (inf, Infinity, +INF and padded text too),
    in the range that ``errors._real`` holds it to: by default, finite."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a real number, got {text!r}") from exc
    try:
        return _real(value, name, least=least, above=above, below=below)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, *count = _seq(text.split(":"), "grid", 2, 3)
        lo, hi = _parse_real(lo), _parse_real(hi)
        count = int(count[0]) if count else (1 if lo == hi else 2)
    except ValueError as exc:  # DomainError too
        raise argparse.ArgumentTypeError(f"grid must be lo:hi[:count], got {text!r}") from exc
    if hi < lo or count < 1 or (count == 1) != (hi == lo):  # one point exactly when lo == hi
        raise argparse.ArgumentTypeError(f"degenerate grid spec {text!r}")
    if count > GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(f"grid count is capped at {GRID_MAX_POINTS}, got {count}")
    return (lo, hi, count)


def _parse_seed(text: str) -> int:
    try:
        return _count(int(text), "seed", 0)
    except ValueError as exc:  # int's refusal of the text, or DomainError
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}") from exc


def _parse_tau(text: str) -> tuple[float, float, float]:
    return _parse_floats(text, "tau", 3, 3)


def _parse_ngrid(text: str) -> tuple[int, ...]:
    try:
        return tuple(_count(v, "ngrid entry", most=NGRID_MAX) for v in _parse_floats(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(
            f"ngrid entries must be integers <= {NGRID_MAX:.0e}, got {text!r}") from exc


def _parse_floats(text: str, name="values", least=None, most=None) -> tuple[float, ...]:
    """The finite reals of comma-separated ``text``, as many as ``_seq`` allows."""
    try:
        return _seq(map(_parse_real, text.split(",")), name, least, most)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_points(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(_parse_floats(chunk, "a point", 2, 2) for chunk in text.split(";"))


def _parse_coupling(text: str) -> str:
    spec = text.strip()
    try:
        _coupling_of(spec)
    except ValueError as exc:  # a malformed C, or DomainError from Coupling
        raise argparse.ArgumentTypeError(
            f"coupling must be indep or shared:C with C in [0,1), got {text!r}") from exc
    return spec


def _coupling_of(spec: str) -> Coupling:
    """The Coupling named by ``indep`` or ``shared:C``."""
    if spec == "indep":
        return Coupling()
    kind, _, c = spec.partition(":")
    if kind != "shared":
        raise DomainError(f"coupling must be indep or shared:C, got {spec!r}")
    return Coupling("shared", float(c))


def _axis(grid: tuple[float, float, int]) -> np.ndarray:
    lo, hi, count = grid
    return np.linspace(lo, hi, count)


def _resolve_seed(ns) -> int:
    if ns.seed is not None:
        return ns.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _parse_seed(env)
        except argparse.ArgumentTypeError as exc:
            raise HrlabError(f"{SEED_ENV_VAR} must be an integer >= 0, got {env!r}") from exc
    return 0


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_csv(cfg: SimpleNamespace, table: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    columns = list(table[0].keys()) if table else []
    writer.writerow(columns + ["artifact_version", "config"])
    meta = [__version__, json.dumps(vars(cfg), sort_keys=True, separators=(",", ":"))]
    for row in table:
        writer.writerow([_csv_cell(row[c]) for c in columns] + meta)
    return buf.getvalue()


def render_json(cfg: SimpleNamespace, table: list[dict], summary: dict, passed) -> str:
    report = {
        "artifact_version": __version__,
        "command": cfg.command,
        "config": vars(cfg),
        "passed": passed,
        "summary": summary,
        "table": table,
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit(cfg: SimpleNamespace, table: list[dict], summary: dict, passed,
         out: str | None) -> None:
    text = (
        render_csv(cfg, table)
        if cfg.format == "csv"
        else render_json(cfg, table, summary, passed)
    )
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each maps an echoed config and a worker count to (table, summary, passed)
# ---------------------------------------------------------------------------

def _grid_rows(axes, names, **columns) -> list[dict]:
    """The table over the product of ``axes``: one row per point, in C order,
    holding the point's coordinates under ``names``, then each column's value
    at that point.  An ndarray column is broadcast against the grid; any other
    value is shared by every row.  Coordinates and array cells come out as
    Python scalars."""
    shape = tuple(len(a) for a in axes)
    coords = [np.asarray(a).tolist() for a in axes]
    cells = {k: np.broadcast_to(v, shape).ravel().tolist()
             for k, v in columns.items() if isinstance(v, np.ndarray)}
    return [
        {**{name: c[i] for name, c, i in zip(names, coords, idx)},
         **{k: cells[k][flat] if k in cells else v for k, v in columns.items()}}
        for flat, idx in enumerate(np.ndindex(shape))
    ]


def cmd_hr_eval(cfg: SimpleNamespace, workers: int):
    axis = _axis(cfg.grid)
    # the exponent is at most e^-x + e^-y, largest at the grid's lower corner
    with np.errstate(over="ignore"):
        if np.isinf(2.0 * np.exp(-axis[0])):
            raise DomainError(f"--grid lower end {axis[0]:g} overflows the exponent "
                              "exp(-x) + exp(-y)")
    p = as_param(cfg.lam)
    label = "zero" if p.is_zero else ("inf" if p.is_inf else "finite")
    x, y = axis[:, None], axis[None, :]
    table = _grid_rows((axis, axis), ("x", "y"), hr_cdf=hr_cdf(cfg.lam, x, y),
                       exponent=hr_exponent(cfg.lam, x, y), lambda_branch=label)
    return table, {"rows": len(table)}, None


def _strong_model(cfg: SimpleNamespace) -> StrongFactorModel:
    if cfg.tau is None or cfg.lam is None:
        raise HrlabError("this command needs --lambda and --tau t11,t22,t12")
    t11, t22, t12 = cfg.tau
    return StrongFactorModel(MixtureParams(t11, t22, t12, cfg.lam))


def cmd_verify_weak(cfg: SimpleNamespace, workers: int):
    model = WeakAR1Model(cfg.lam, cfg.phi)
    baseline = WeakAR1Model(cfg.lam, 0.0)
    axis = _axis(cfg.grid)
    root = SeedLineage(cfg.seed)
    emp = empirical_max_law(model, cfg.n, cfg.reps, (axis, axis), root.child(0), workers)
    base = empirical_max_law(baseline, cfg.n, cfg.reps, (axis, axis), root.child(1), workers)
    theory = lambda X, Y: hr_cdf(cfg.lam, X, Y)  # noqa: E731
    d_dep = sup_distance(emp, theory)
    d_base = sup_distance(base, theory)
    band = 3.0 * math.sqrt(math.log(2.0 * axis.size**2) / (2.0 * cfg.reps))
    threshold = cfg.tol if cfg.tol is not None else d_base + band
    passed = d_dep <= threshold
    t = theory(axis[:, None], axis[None, :])
    table = _grid_rows((axis, axis), ("x", "y"), empirical=emp.cdf, baseline_empirical=base.cdf,
                       theory=t, abs_err=np.abs(emp.cdf - t), sup_distance=d_dep,
                       baseline_distance=d_base, threshold=threshold, passed=passed)
    summary = {
        "sup_distance": d_dep,
        "baseline_distance": d_base,
        "mc_band": band,
        "threshold": threshold,
    }
    return table, summary, passed


def cmd_verify_strong(cfg: SimpleNamespace, workers: int):
    model = _strong_model(cfg)
    _quad_nodes(cfg.nodes)  # before any row is drawn
    mp = model.mix
    axis = _axis(cfg.grid)
    gy = np.append(axis, np.inf)  # the +inf column carries the x-marginal
    root = SeedLineage(cfg.seed)
    emp = empirical_max_law(model, cfg.n, cfg.reps, (axis, gy), root.child(0), workers)
    theory = np.array([[mixture_limit_cdf(mp, x, y, cfg.nodes) for y in axis]
                       + [univariate_mixture_cdf(mp.tau11, x, cfg.nodes)] for x in axis])
    err = np.abs(emp.cdf - theory)
    d_biv = float(np.max(err[:, :-1]))
    d_marg = float(np.max(err[:, -1]))
    tol = cfg.tol if cfg.tol is not None else 0.04
    mtol = cfg.marginal_tol if cfg.marginal_tol is not None else 0.03
    passed = d_biv <= tol and d_marg <= mtol

    def rows(cols):
        return _grid_rows((axis, gy[cols]), ("x", "y"), empirical=emp.cdf[:, cols],
                          mixture=theory[:, cols], abs_err=err[:, cols], sup_distance=d_biv,
                          marginal_distance=d_marg, passed=passed)

    table = rows(slice(-1)) + rows(slice(-1, None))  # the grid, then the y = inf column
    summary = {
        "sup_distance": d_biv,
        "marginal_distance": d_marg,
        "tol": tol,
        "marginal_tol": mtol,
    }
    return table, summary, passed


def cmd_verify_maxmin(cfg: SimpleNamespace, workers: int):
    model = WeakAR1Model(cfg.lam, cfg.phi)
    vals = np.asarray(cfg.grid4, dtype=float)
    emp = empirical_maxmin_law(model, cfg.n, cfg.reps, (vals,) * 4,
                               SeedLineage(cfg.seed).child(0), workers)
    tol = cfg.tol if cfg.tol is not None else 0.04
    pair = hr_cdf(cfg.lam, vals[:, None], vals[None, :])
    theory = np.multiply.outer(pair, pair)
    err = np.abs(emp.prob - theory)
    worst = float(err.max())
    passed = worst <= tol
    table = _grid_rows((vals,) * 4, ("x1", "x2", "y1", "y2"), empirical=emp.prob, theory=theory,
                       abs_err=err, max_abs_err=worst, passed=passed)
    return table, {"max_abs_err": worst, "tol": tol}, passed


def _aslt_path(model, coupling, nmax, points, mm_points, lineage):
    # module level, and reads the module's aslt_average when called, so that
    # a pool pickles it by name whatever aslt_average is bound to
    return aslt_average(model, coupling, nmax, points, lineage, maxmin_points=mm_points)


def cmd_verify_aslt(cfg: SimpleNamespace, workers: int):
    model = WeakAR1Model(cfg.lam, cfg.phi)
    coupling = _coupling_of(cfg.coupling)
    points = cfg.points
    mm_points = tuple((x, y, x, y) for x, y in points)
    tol = cfg.tol if cfg.tol is not None else 0.12
    root = SeedLineage(cfg.seed)
    path_of = partial(_aslt_path, model, coupling, cfg.nmax, points, mm_points)
    lineages = [root.child(s) for s in range(cfg.seeds)]

    # each path is a pure function of its lineage, and holds the GIL for most
    # of its per-row work, so paths run in forked processes; map keeps seed
    # order, so no byte depends on the schedule
    workers = min(workers, cfg.seeds, os.cpu_count() or 1)
    if workers == 1:
        paths = [path_of(lineage) for lineage in lineages]
    else:
        _lfilter()  # loaded once here, so that each forked worker inherits it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            paths = list(pool.map(path_of, lineages))
    cps = paths[0].checkpoints
    targets = {
        "max": np.array([hr_cdf(cfg.lam, x, y) for x, y in points]),
        "maxmin": np.array([hr_cdf(cfg.lam, q[0], q[1]) * hr_cdf(cfg.lam, q[2], q[3])
                            for q in mm_points]),
    }
    labels = {kind: [",".join(format(v, "g") for v in pt) for pt in pts]
              for kind, pts in (("max", points), ("maxmin", mm_points))}

    # the last checkpoint is n_max: its column gives the final deviation
    table, worst, ceiling_ok = [], 0.0, True
    for s, path in enumerate(paths):
        for kind, avgs in (("max", path.averages), ("maxmin", path.maxmin_averages)):
            table += _grid_rows(([s], [kind], labels[kind], cps),
                                ("seed_index", "kind", "point", "checkpoint"),
                                average=avgs, target=targets[kind][:, None], ceiling=path.ceiling)
            worst = max(worst, float(np.max(np.abs(avgs[:, -1] - targets[kind]))))
            ceiling_ok = ceiling_ok and not np.any(avgs > path.ceiling + 1e-12)

    # cross-seed concentration: std at n_max strictly below std at n_max/4
    i_quarter = cps.index(cfg.nmax // 4)
    i_final = len(cps) - 1
    shrink_ok = all(
        np.std([p.averages[ip, i_final] for p in paths], ddof=1)
        < np.std([p.averages[ip, i_quarter] for p in paths], ddof=1)
        for ip in range(len(points))
    )
    passed = worst <= tol and shrink_ok and ceiling_ok
    summary = {
        "max_final_deviation": worst,
        "tol": tol,
        "std_shrinks": shrink_ok,
        "ceiling_ok": ceiling_ok,
        "checkpoints": [int(c) for c in cps],
    }
    return table, summary, passed


def cmd_verify_bounds(cfg: SimpleNamespace, workers: int):
    kind = cfg.kind
    if cfg.phi is not None and cfg.tau is not None:
        raise HrlabError("verify bounds takes --phi (weak model) or --tau (strong model), not both")
    if kind != "L2" and cfg.phi is None and cfg.tau is None:
        raise HrlabError(f"--kind {kind} needs --phi (weak model) or --tau (strong model)")
    weak = kind != "L2" and cfg.phi is not None
    model = WeakAR1Model(cfg.lam, cfg.phi) if weak else _strong_model(cfg)
    if kind == "rate":
        report = aslt_bound_rate(model, _coupling_of(cfg.coupling), cfg.epsilon, cfg.n_grid,
                                 cfg.x, cfg.y)
        passed = report.bounded
        table = _grid_rows((report.within_row.n_grid,), ("n",),
                           within_row_value=np.array(report.within_row.values),
                           ratio=np.array(report.ratios),
                           cross_row_value=np.array(report.cross_row.values), passed=passed)
        summary = {
            "kind": kind,
            "epsilon": cfg.epsilon,
            "bounded": report.bounded,
            "max_ratio": max(report.ratios),
            "omega_rule": report.within_row.omega_rule,
        }
        return table, summary, passed

    series = comparison_bound_series(model, kind, cfg.x, cfg.y, cfg.n_grid)
    values = series.values
    if kind == "L1":
        tol = cfg.tol if cfg.tol is not None else 1e-2
        decreasing = all(a > b for a, b in zip(values, values[1:]))
        passed = decreasing and values[-1] < tol
        summary = {
            "kind": kind, "final_value": values[-1], "tol": tol,
            "strictly_decreasing": decreasing, "omega_rule": series.omega_rule,
        }
    else:
        tol = cfg.tol if cfg.tol is not None else 1e-12
        passed = max(values) <= tol
        summary = {
            "kind": kind, "max_value": max(values), "tol": tol,
            "omega_rule": series.omega_rule,
        }
    table = _grid_rows((series.n_grid,), ("n",), value=np.array(values), kind=kind,
                       passed=passed)
    return table, summary, passed


# ---------------------------------------------------------------------------
# the command table: every subcommand's flags, help and run function
# ---------------------------------------------------------------------------

def _flag(name, **kwargs):
    return name, kwargs


def _but(flag, **overrides):
    """``flag`` with some of its argparse keywords replaced."""
    name, kwargs = flag
    return name, {**kwargs, **overrides}


LAMBDA = _flag("--lambda", dest="lam", type=_parse_lambda, required=True)
PHI = _flag("--phi", type=_parse_real, required=True)
TAU = _flag("--tau", type=_parse_tau, required=True, metavar="T11,T22,T12")
N = _flag("--n", type=int, default=2000)
REPS = _flag("--reps", type=int, default=10000)
GRID = _flag("--grid", type=_parse_grid, default=(-2.0, 4.0, 9))
COUPLING = _flag("--coupling", type=_parse_coupling, default="indep",
                 help="indep or shared:C with C in [0,1)")

COMMON = (
    _flag("--seed", type=_parse_seed, default=None,
          help=f"master seed (falls back to ${SEED_ENV_VAR}, then 0)"),
    _flag("--format", choices=("csv", "json"), default="csv"),
    _flag("--out", default=None, help="output path (default: stdout)"),
    _flag("--tol", type=_parse_real, default=None, help="override the pass threshold"),
    _flag("--workers", type=int, default=1,
          help="worker processes (>= 1, capped at the CPU count) for the Monte "
               "Carlo laws and verify aslt's paths"),
)


class Command(NamedTuple):
    path: tuple[str, ...]          # e.g. ("verify", "weak"); the config's command joins it with "-"
    help: str
    run: Callable                  # (config, workers) -> (table, summary, passed)
    flags: tuple                   # (name, argparse keywords) pairs; COMMON is added to each


COMMANDS = (
    Command(("hr-eval",), "tabulate the bivariate CDF and its exponent", cmd_hr_eval,
            (LAMBDA, GRID)),
    Command(("verify", "weak"), "weak-dependence limit (calibrated against the iid baseline)",
            cmd_verify_weak, (LAMBDA, PHI, N, REPS, GRID)),
    Command(("verify", "strong"), "strong-dependence Gaussian-mixture limit", cmd_verify_strong,
            (LAMBDA, TAU, N, REPS, GRID, _flag("--nodes", type=int, default=128),
             _flag("--marginal-tol", type=_parse_real, default=None))),
    Command(("verify", "maxmin"), "asymptotic independence of maxima and minima",
            cmd_verify_maxmin,
            (LAMBDA, PHI, N, _but(REPS, default=20000),
             _flag("--grid4", type=_parse_floats, default=(0.5, 1.5),
                   help="comma-separated axis values, used on all four axes"))),
    Command(("verify", "aslt"), "almost-sure limit theorem along simulated paths",
            cmd_verify_aslt,
            (LAMBDA, PHI, _flag("--nmax", type=int, default=20000),
             _flag("--seeds", type=int, default=10),
             _flag("--points", type=_parse_points, default=((0.0, 0.0), (1.0, 1.0)),
                   metavar="X,Y;X,Y;..."),
             COUPLING)),
    Command(("verify", "bounds"), "comparison-lemma bound series (exact sums)", cmd_verify_bounds,
            (_flag("--kind", choices=("L1", "L2", "rate"), default="L1"), LAMBDA,
             _but(PHI, required=False), _but(TAU, required=False),
             _flag("--ngrid", dest="n_grid", type=_parse_ngrid, required=True,
                   metavar="N1,N2,..."),
             _flag("--x", type=_parse_real, default=3.0),
             _flag("--y", type=_parse_real, default=3.0),
             _flag("--epsilon", type=_parse_real, default=0.1), COUPLING)),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, and rebuilding it on every ``main`` call creeps the peak RSS."""
    parser = argparse.ArgumentParser(
        prog="hrlab",
        description="Bivariate Husler-Reiss laboratory: evaluation and limit-law verification.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    laws = None
    for cmd in COMMANDS:
        if cmd.path[0] == "verify" and laws is None:
            verify = top.add_parser("verify", help="confront simulation with a limit law")
            laws = verify.add_subparsers(dest="law", required=True)
        sub = laws if cmd.path[0] == "verify" else top
        p = sub.add_parser(cmd.path[-1], help=cmd.help)
        for name, kwargs in cmd.flags + COMMON:
            p.add_argument(name, **kwargs)
        p.set_defaults(spec=cmd)
    return parser


def config_of(ns) -> SimpleNamespace:
    """The echoed config of parsed flags: each flag of the table but --out and
    --workers, None where the command lacks it (``coupling`` "indep"), plus
    the command path and the resolved seed."""
    keys = {kwargs.get("dest", name[2:].replace("-", "_"))
            for cmd in COMMANDS for name, kwargs in cmd.flags + COMMON} - {"out", "workers"}
    given = {k: v for k, v in vars(ns).items() if k in keys}
    return SimpleNamespace(**{**dict.fromkeys(keys), "coupling": "indep", **given,
                              "command": "-".join(ns.spec.path), "seed": _resolve_seed(ns)})


def _merge_dash_values(argv):
    """argv with each '-'-leading value joined to its flag (``--phi=-5e-1``):
    every flag of the table takes one value, and argparse reads only plain
    decimals such as -0.5 as values rather than as option strings."""
    flags = {name for cmd in COMMANDS for name, _ in cmd.flags + COMMON}
    out = []
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(_merge_dash_values(argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        for name, (least, most) in COUNT_RANGES.items():  # before any draw
            if (value := getattr(ns, name, None)) is not None:
                _count(value, f"--{name}", least, most)
        cfg = config_of(ns)
        table, summary, passed = ns.spec.run(cfg, ns.workers)
        emit(cfg, table, summary, passed, ns.out)
    except (HrlabError, OSError) as exc:
        # OSError: chiefly an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # e.g. MemoryError, RuntimeError, BrokenProcessPool
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if passed is None or passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
