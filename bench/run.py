"""Benchmark runner for hrlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--pin]

Runs one workload (see workloads.py) closed-loop for S seconds in this
interpreter, against the package sources under ``src/`` of the checkout, and
checks every report.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of two extra traced passes.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it print every metric by name with its unit.  A full record
(machine, passes, digests, import-time breakdown) is written to
``.bench_results/`` in the checkout.  ``--pin`` (default seed only) stores the
observed exit codes, digests and root-finding count in ``bench/golden.json``.
"""

import os

# one BLAS/OpenMP thread per process, so 2 pool workers never exceed 2 cores;
# set before numpy is imported here and inherited by every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
RESULTS = ROOT / ".bench_results"

MIN_PASSES = 3     # untraced passes per run, however short --seconds is
SETUP_REPEATS = 4  # timed fresh-interpreter imports per run, after one warm-up
SETUP_CODE = "import hrlab.cli; hrlab.cli.build_parser()"
IMPORT_LAYERS = ("cli", "experiments", "gauss_arrays", "evd_core")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def time_setup():
    """Median wall time of a fresh interpreter importing hrlab.cli and building
    the parser: what every CLI invocation pays before it starts work."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:]), times


def import_times():
    """Cumulative import seconds per module from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                          env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True)
    cumulative, own = {}, {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        cumulative[name.strip()] = int(cum_us) / 1e6
        own[name.strip()] = int(self_us) / 1e6
    # a submodule's cumulative time includes its parent package, which for
    # hrlab.cli is the whole package: the cli layer is charged its own time only
    layers = {layer: cumulative.get(f"hrlab.{layer}", 0.0) for layer in IMPORT_LAYERS}
    layers["cli"] = own.get("hrlab.cli", 0.0)
    top = sorted(own.items(), key=lambda kv: -kv[1])[:15]
    return layers, {"top_self_s": dict(top), "cumulative_s": {
        k: v for k, v in cumulative.items() if v >= 0.01 and k.count(".") <= 1}}


def machine_block():
    def read(path, prefix=None):
        try:
            text = Path(path).read_text()
        except OSError:
            return "unknown"
        if prefix is None:
            return text.strip()
        for line in text.splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
        return "unknown"

    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "l2_cache": read(cache.format(2)),
        "l3_cache": read(cache.format(3)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_op(hrlab, op, seed, workers):
    """Run one operation; return (exit code, report bytes)."""
    if isinstance(op, workloads.CliOp):
        argv = [*op.argv, "--seed", str(seed), "--workers", str(workers), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hrlab.cli.main(argv)
        return code, out.getvalue().encode()
    lineage = hrlab.seeding.SeedLineage(seed).child(int(op.lam * 10))
    return 0, hrlab.evd_core.hr_sample(op.lam, op.count, lineage).tobytes()


class Gate:
    """Correctness checks on every operation of every pass."""

    def __init__(self, workload, seed, golden, validator):
        self.workload = workload
        self.seed = seed
        # golden is None while pinning: the run records digests instead of checking them
        self.gated = seed == workloads.DEFAULT_SEED and golden is not None
        self.pinned = golden.get(workload.name) if self.gated else None
        self.validator = validator
        self.reference = {}   # op index -> (exit code, sha256) of its first run
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, index, op, outcome, where):
        self.attempted += 1
        problems = []
        if isinstance(outcome, Exception):
            problems.append(f"raised {outcome!r}")
        else:
            code, data = outcome
            digest = hashlib.sha256(data).hexdigest()
            if isinstance(op, workloads.CliOp):
                try:
                    self.validator.validate(json.loads(data))
                except ValueError as exc:
                    problems.append(f"report is not JSON: {exc}")
                except jsonschema.ValidationError as exc:
                    problems.append(f"report violates the schema: {exc.message}")
            if self.gated:
                ops = self.pinned["ops"] if self.pinned else []
                pinned = ops[index] if index < len(ops) else None
                if pinned is None or pinned["op"] != op.label:
                    problems.append("no pinned digest for this operation")
                elif (code, digest) != (pinned["exit"], pinned["sha256"]):
                    problems.append(f"exit {code} sha256 {digest[:12]} != pinned "
                                    f"exit {pinned['exit']} sha256 {pinned['sha256'][:12]}")
            elif code not in (0, 1) or (self.seed == workloads.DEFAULT_SEED and code != 0):  # 1 is a failed statistical verdict, not gated here
                problems.append(f"exit code {code}")
            first = self.reference.setdefault(index, (code, digest))
            if (code, digest) != first:
                problems.append("report differs from the first run of this operation")
        if problems:
            self.failed += 1
            self.failures.append({"op": op.label, "pass": where, "problems": problems})


def run_pass(hrlab, wl, seed, workers, gate, where):
    """One closed-loop pass over the workload's operations; returns (wall s, cpu s).
    Checks run after the timed region."""
    outcomes = []
    cpu0, start = cpu_seconds(), time.perf_counter()
    for op in wl.ops:
        try:
            outcomes.append(run_op(hrlab, op, seed, workers))
        except Exception as exc:  # a failed operation is counted, the run goes on
            outcomes.append(exc)
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    for index, (op, outcome) in enumerate(zip(wl.ops, outcomes)):
        gate.check(index, op, outcome, where)
    return wall, cpu


def traced_pass(hrlab, wl, seed, workers, gate, where, pool):
    tracer = tracing.Tracer()
    tracing.instrument(tracer, hrlab, pool=pool)
    try:
        wall, _ = run_pass(hrlab, wl, seed, workers, gate, where)
    finally:
        tracer.restore()
    return tracer, wall


def observed_counts(t, tw):
    """Work counts of the workers=1 traced pass ``t``; pool chunks from ``tw``."""
    return {
        "streams": t.calls["seeding.generator"],
        "rows": t.counts["rows"],
        "normals": t.counts["normals"],
        "uniforms": t.counts["uniforms"],
        "replications": t.counts["replications"],
        "aslt_rows": t.counts["aslt_rows"],
        "norming_calls": t.calls["norming.norming_constants"],
        "cdf_evals": t.counts["cdf_evals"],
        "quad_points": sum(t.calls[k] for k in tracing.QUAD_KEYS),
        "bound_terms": t.counts["bound_terms"],
        "lagcorr_terms": t.counts["lagcorr_terms"],
        "sampler_draws": t.counts["sampler_draws"],
        "chunks": tw.counts["chunks"],
        "cond_cdf_calls": t.calls["evd_core.cond_cdf"],
        "report_bytes": t.counts["report_bytes"],
    }


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t1, tw, counts, wall_s, cpu_s, traced_wall, imports):
    c, busy = counts, t1.busy
    quad_s = sum(busy[k] for k in tracing.QUAD_KEYS)
    m = {
        "seeding.streams": (c["streams"], "count"),
        "seeding.busy_s": (busy["seeding.generator"], "s"),
        "seeding.us_per_stream": (ratio(1e6 * busy["seeding.generator"], c["streams"]), "us"),
        "gauss_arrays.rows": (c["rows"], "count"),
        "gauss_arrays.normals": (c["normals"], "count"),
        "gauss_arrays.sample_s": (busy["gauss_arrays.sample"], "s"),
        "gauss_arrays.ns_per_normal": (ratio(1e9 * busy["gauss_arrays.sample"], c["normals"]), "ns"),
        "gauss_arrays.filter_s": (busy["gauss_arrays.ar1_path"], "s"),
        "gauss_arrays.lagcorr_terms": (c["lagcorr_terms"], "count"),
        "gauss_arrays.lagcorr_s": (busy["gauss_arrays.lag_corr_array"], "s"),
        "norming.calls": (c["norming_calls"], "count"),
        "norming.busy_s": (busy["norming.norming_constants"], "s"),
        "evd_core.cdf_evals": (c["cdf_evals"], "count"),
        "evd_core.cdf_s": (busy["evd_core.hr_cdf"], "s"),
        "evd_core.sampler_draws": (c["sampler_draws"], "count"),
        "evd_core.sampler_s": (busy["evd_core.hr_sample"], "s"),
        "evd_core.cond_cdf_calls": (c["cond_cdf_calls"], "count"),
        "experiments.self_s": (t1.layer_self("experiments"), "s"),
        "experiments.replications": (c["replications"], "count"),
        "experiments.aslt_rows": (c["aslt_rows"], "count"),
        "experiments.chunks": (c["chunks"], "count"),
        "experiments.pool_start_s": (tw.busy["experiments.pool_start"], "s"),
        "experiments.pool_wait_s": (tw.busy["experiments.pool_wait"], "s"),
        "experiments.quad_points": (c["quad_points"], "count"),
        "experiments.quad_ms_per_point": (ratio(1e3 * quad_s, c["quad_points"]), "ms"),
        "experiments.bound_terms": (c["bound_terms"], "count"),
        "experiments.bound_self_s": (sum(t1.self_time[k] for k in tracing.BOUND_KEYS), "s"),
        "cli.self_s": (t1.layer_self("cli"), "s"),
        "cli.render_s": (t1.busy["cli.render"], "s"),
        "cli.report_bytes": (c["report_bytes"], "bytes"),
        "process.cpu_s": (cpu_s, "s"),
        "process.cpu_util": (cpu_s / (wall_s * workloads.WORKERS), "fraction"),
        "trace.overhead_frac": (traced_wall / wall_s - 1.0, "fraction"),
    }
    for layer in IMPORT_LAYERS:
        m[f"{layer}.import_s"] = (imports[layer], "s")
    return m


def check_counts(wl, observed, seed, golden):
    expected = dict(wl.counts, chunks=wl.chunks)
    problems = [f"{k}: observed {observed[k]}, expected {v}"
                for k, v in expected.items() if observed[k] != v]
    roots = observed["cond_cdf_calls"]
    pinned = golden.get(wl.name, {}).get("cond_cdf_calls")
    if seed == workloads.DEFAULT_SEED and pinned is not None and roots != pinned:
        problems.append(f"cond_cdf_calls: observed {roots}, pinned {pinned}")
    if wl.counts["sampler_draws"] and not roots:
        problems.append("the sampler ran without a root-finding step")
    return problems


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--pin", action="store_true",
                   help="store this run's exit codes and digests as the pinned ones")
    return p.parse_args()


def main():
    args = parse_args()
    if not (SRC / "hrlab" / "__init__.py").is_file():
        print(f"error: no hrlab package under {SRC}", file=sys.stderr)
        return 2
    if args.pin and args.seed != workloads.DEFAULT_SEED:
        print(f"error: --pin needs --seed {workloads.DEFAULT_SEED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hrlab.cli

    wl = workloads.WORKLOADS[args.workload]()
    schema = json.loads((SRC / "hrlab" / "schemas" / "report.schema.json").read_text())
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    pinned = None if args.pin else golden
    gate = Gate(wl, args.seed, pinned, jsonschema.Draft7Validator(schema))
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "workers": workloads.WORKERS, "machine": machine_block(),
              "ops": [op.label for op in wl.ops]}

    if args.trace:
        imports, record["import_time"] = import_times()
    else:
        setup_s, record["setup_times_s"] = time_setup()

    walls, cpus = [], []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, cpu = run_pass(hrlab, wl, args.seed, workloads.WORKERS, gate, len(walls))
        walls.append(wall)
        cpus.append(cpu)
    wall_s = statistics.median(walls)
    record.update(pass_wall_s=walls, pass_cpu_s=cpus)

    count_problems = []
    if args.trace:
        # every span in one process, then the pool spans at the workload's own
        # worker count; both reports must equal the untraced ones byte for byte
        t1, _ = traced_pass(hrlab, wl, args.seed, 1, gate, "traced-1", pool=False)
        tw, traced_wall = traced_pass(hrlab, wl, args.seed, workloads.WORKERS, gate,
                                      "traced-w", pool=True)
        record["counts"] = counts = observed_counts(t1, tw)
        count_problems = check_counts(wl, counts, args.seed, pinned or {})
        metrics = layer_metrics(t1, tw, counts, wall_s, statistics.median(cpus),
                                traced_wall, imports)
    else:
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "normals_per_s": (wl.normals / wall_s, "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    correct = gate.failed == 0 and not count_problems
    if args.pin and correct:
        ops = [{"op": op.label, "exit": gate.reference[i][0], "sha256": gate.reference[i][1]}
               for i, op in enumerate(wl.ops)]
        golden[wl.name] = {"seed": args.seed, "ops": ops}
        if args.trace:
            golden[wl.name]["cond_cdf_calls"] = counts["cond_cdf_calls"]
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    verdicts = {op.label: gate.reference.get(i, (None,))[0] for i, op in enumerate(wl.ops)}
    record.update(failures=gate.failures, count_problems=count_problems,
                  exit_codes=verdicts,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    for problem in [f"{f['op']} (pass {f['pass']}): {'; '.join(f['problems'])}"
                    for f in gate.failures] + count_problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} workers={workloads.WORKERS} passes={len(walls)} "
          f"exit codes={list(verdicts.values())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'error_rate':32s} {gate.failed / gate.attempted:.6g} fraction")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
