"""Command-line driver: flags, exit codes, report formats, determinism."""

import csv
import io
import json
import math
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

import hrlab as H
from hrlab import cli
from hrlab.cli import RunConfig, main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "expected at least one data row"
    return rows


def load_schema():
    with resources.files("hrlab").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


class TestHrEval:
    def test_independence_point(self, capsys):
        code, out, _ = run_cli(capsys, "hr-eval", "--lambda", "inf", "--grid", "0:0")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["hr_cdf"]) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert rows[0]["lambda_branch"] == "inf"

    def test_comonotone_grid(self, capsys):
        code, out, _ = run_cli(capsys, "hr-eval", "--lambda", "0", "--grid", "0:1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        row = next(r for r in rows if r["x"] == "0" and r["y"] == "1")
        assert float(row["hr_cdf"]) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_matches_library_on_9x9(self, capsys):
        code, out, _ = run_cli(capsys, "hr-eval", "--lambda", "1", "--grid", "-2:4:9")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 81
        for row in rows:
            x, y = float(row["x"]), float(row["y"])
            assert float(row["hr_cdf"]) == H.hr_cdf(1.0, x, y)
            assert float(row["exponent"]) == H.hr_exponent(1.0, x, y)

    def test_full_double_precision(self, capsys):
        _, out, _ = run_cli(capsys, "hr-eval", "--lambda", "1", "--grid", "0:0")
        row = parse_csv(out)[0]
        assert float(row["hr_cdf"]) == H.hr_cdf(1.0, 0.0, 0.0)  # 17 digits round-trip

    def test_bad_lambda_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "hr-eval", "--lambda", "banana", "--grid", "0:0")
        assert code == 2
        assert "lambda" in err

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "hr-eval", "--lambda", "1", "--grid", "3:1")
        assert code == 2

    def test_json_report_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "hr-eval", "--lambda", "2", "--grid", "-1:1:3", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema())
        assert report["passed"] is None
        assert len(report["table"]) == 9

    @pytest.mark.parametrize("grid, code", [("-709:-700:2", 0), ("-709.1:0:3", 2),
                                            ("-800:0:2", 2), ("-1000:-800:2", 2)])
    def test_json_report_is_strict_json(self, capsys, grid, code):
        # exp(-x) + exp(-y) stays finite down to x = y = -709.09; below that the
        # exponent would be written as Infinity or NaN, so the grid is refused
        got, out, err = run_cli(
            capsys, "hr-eval", "--lambda", "1", "--grid", grid, "--format", "json"
        )
        assert got == code
        if code == 0:
            report = json.loads(out, parse_constant=_reject_constant)
            assert all(math.isfinite(row["exponent"]) for row in report["table"])
        else:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestRunConfig:
    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(command="hr-eval", seed=7, lam=1.5, grid=(-2.0, 4.0, 9)),
            RunConfig(command="hr-eval", seed=0, lam=math.inf, grid=(0.0, 0.0, 1)),
            RunConfig(
                command="verify-strong", seed=3, lam=1.0, tau=(1.0, 1.0, 0.8),
                n=2000, reps=500, grid=(-2.0, 4.0, 9), nodes=64, format="json",
            ),
            RunConfig(
                command="verify-aslt", seed=1, lam=1.0, phi=0.5, nmax=2000,
                seeds=3, points=((0.0, 0.0), (1.0, 1.0)), coupling="shared:0.25",
            ),
        ],
    )
    def test_lossless_roundtrip_through_json(self, cfg):
        wire = json.dumps(cfg.to_dict(), sort_keys=True)
        assert RunConfig.from_dict(json.loads(wire)) == cfg


class TestVerifyCommands:
    def test_bounds_l1_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "bounds", "--kind", "L1", "--lambda", "1", "--phi", "0.5",
            "--ngrid", "1e3,1e4,1e5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema())
        assert report["passed"] is True
        assert report["summary"]["strictly_decreasing"] is True

    def test_bounds_l1_fails_against_tight_tol(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "bounds", "--kind", "L1", "--lambda", "1", "--phi", "0.5",
            "--ngrid", "1e3,1e4", "--tol", "1e-9",
        )
        assert code == 1
        rows = parse_csv(out)
        assert rows[0]["passed"] == "false"

    def test_bounds_l2_reference_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "bounds", "--kind", "L2", "--lambda", "1",
            "--tau", "1,1,0.8", "--ngrid", "1e3,1e4", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert all(r["value"] == 0.0 for r in report["table"])

    def test_bounds_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "bounds", "--kind", "rate", "--lambda", "1", "--phi", "0.5",
            "--ngrid", "1e2,1e3,1e4", "--epsilon", "0.1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["bounded"] is True
        assert all(r["cross_row_value"] == 0.0 for r in report["table"])

    @pytest.mark.parametrize("x", ["1e300", "3e154"], ids=["omega-n", "omega-m"])
    def test_bounds_rate_overflowing_omega_sums_to_zero(self, capsys, x):
        # omega_n^2 overflows at 1e300, and omega_m^2 of the smallest rows at
        # 3e154: each such term is exp(-inf) = 0, as in the L1 sum, unwarned
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "verify", "bounds", "--kind", "rate", "--lambda", "1", "--phi", "0.5",
                "--coupling", "shared:0.3", "--ngrid", "1e2,1e3", "--x", x, "--y", x,
                "--format", "json",
            )
        assert (code, err, caught) == (0, "", [])
        table = json.loads(out)["table"]
        assert all(r["within_row_value"] == r["cross_row_value"] == 0.0 for r in table)

    def test_weak_smoke_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "weak", "--lambda", "1", "--phi", "0.3", "--n", "300",
            "--reps", "300", "--seed", "5", "--grid", "-1:3:5", "--format", "json",
        )
        assert code in (0, 1)
        report = json.loads(out)
        jsonschema.validate(report, load_schema())
        assert "sup_distance" in report["summary"]

    def test_strong_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "strong", "--lambda", "1", "--tau", "1,1,0.8", "--n", "300",
            "--reps", "300", "--seed", "5", "--grid", "-1:3:3", "--nodes", "32",
            "--format", "json",
        )
        assert code in (0, 1)
        report = json.loads(out)
        assert "marginal_distance" in report["summary"]

    def test_maxmin_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "maxmin", "--lambda", "1", "--phi", "0.5", "--n", "300",
            "--reps", "400", "--grid4", "0.5,1.5", "--seed", "2",
        )
        assert code in (0, 1)
        assert len(parse_csv(out)) == 16

    def test_aslt_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "aslt", "--lambda", "1", "--phi", "0.5", "--nmax", "1000",
            "--seeds", "2", "--points", "1,1", "--seed", "4", "--format", "json",
        )
        assert code in (0, 1)
        report = json.loads(out)
        assert report["summary"]["checkpoints"][-1] == 1000

    def test_missing_model_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "weak", "--lambda", "1")
        assert code == 2

    def test_invalid_model_config_is_exit_2(self, capsys):
        # lam^2 > 2 ln n at sampling time: configuration error, not failure
        code, _, err = run_cli(
            capsys, "verify", "weak", "--lambda", "4", "--phi", "0.0", "--n", "200",
            "--reps", "200",
        )
        assert code == 2
        assert err.strip().startswith("error:")

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "strong", "--lambda", "1", "--tau", "1,1,0.8", "--n", "200",
             "--reps", "100", "--grid", "0:1", "--nodes", "0"),
            ("verify", "aslt", "--lambda", "1", "--phi", "0.5", "--nmax", "1000", "--seeds", "0"),
            ("verify", "aslt", "--lambda", "1", "--phi", "0.5", "--nmax", "1000", "--seeds", "1"),
            ("hr-eval", "--lambda", "1", "--grid", "0:0", "--workers", "0"),
            ("hr-eval", "--lambda", "1", "--grid", "0:0", "--workers", "-3"),
            # lam^2/2 = 800 is far above ln 1e9, and exp(800) overflows a float
            ("verify", "aslt", "--lambda", "40", "--phi", "0.5", "--nmax", "1000",
             "--seeds", "2"),
            ("verify", "aslt", "--lambda", "1", "--phi", "0.5", "--nmax", "1000", "--seeds", "2",
             "--points", ";".join(["0,0"] * 101)),
            ("verify", "strong", "--lambda", "1", "--tau", "1,1,0.8", "--n", "200",
             "--reps", "100", "--grid", "0:1", "--nodes", "1025"),
            ("verify", "strong", "--lambda", "1", "--tau", "1,1,0.8", "--n", "200",
             "--reps", "100", "--grid", "0:1", "--nodes", "7"),
            ("verify", "strong", "--lambda", "1", "--tau", "1,1,0.8", "--n", "200",
             "--reps", "100", "--grid", "0:1", "--nodes", "2000"),
        ],
        ids=["nodes-0", "seeds-0", "seeds-1", "workers-0", "workers-negative",
             "aslt-lambda-40", "points-101", "nodes-1025", "nodes-7", "nodes-2000"],
    )
    def test_out_of_range_count_is_exit_2(self, capsys, monkeypatch, args):
        # refused before any row is drawn
        def no_draws(self):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(H.SeedLineage, "generator", no_draws)
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.strip().startswith("error:")

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "bounds", "--kind", "L1", "--lambda", "1", "--phi", "0.5",
             "--ngrid", "1e3", "--x", "nan"),
            ("verify", "bounds", "--lambda", "1", "--phi", "0.5", "--ngrid", "1e3",
             "--y", "-inf"),
            ("verify", "bounds", "--kind", "rate", "--lambda", "1", "--phi", "0.5",
             "--ngrid", "1e3", "--epsilon", "inf"),
            ("verify", "weak", "--lambda", "1", "--phi", "nan"),
            ("verify", "weak", "--lambda", "1", "--phi", "0.3", "--tol", "nan"),
            ("verify", "strong", "--lambda", "1", "--tau", "1,1,0.8", "--marginal-tol", "inf"),
            ("verify", "strong", "--lambda", "1", "--tau", "1,nan,0.8"),
            ("verify", "maxmin", "--lambda", "1", "--phi", "0.5", "--grid4", "0.5,inf"),
            ("verify", "aslt", "--lambda", "1", "--phi", "0.5", "--points", "0,nan"),
            ("hr-eval", "--lambda", "1", "--grid", "nan:1"),
            ("hr-eval", "--lambda", "1", "--grid", "0:inf:3"),
            ("hr-eval", "--lambda", "1", "--grid", "0:1:100000000"),
            ("verify", "bounds", "--lambda", "1", "--phi", "0.5", "--ngrid", "inf"),
            ("verify", "bounds", "--lambda", "1", "--phi", "0.5", "--ngrid", "1e3,1e12"),
            ("verify", "weak", "--lambda", "1", "--phi", "0.3", "--n", "200", "--reps", "100",
             "--seed", "-1"),
        ],
        ids=["x-nan", "y-neg-inf", "epsilon-inf", "phi-nan", "tol-nan", "marginal-tol-inf",
             "tau-nan", "grid4-inf", "points-nan", "grid-lo-nan", "grid-hi-inf",
             "grid-count-1e8", "ngrid-inf", "ngrid-1e12", "seed-negative"],
    )
    def test_non_finite_or_oversized_flag_is_usage_error(self, capsys, args):
        # argparse rejects the value before any work: exit 2 and a usage
        # message naming the flag, never a traceback or a report
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert "error: argument" in err
        assert "Traceback" not in err

    def test_grid_and_ngrid_caps_are_inclusive(self, capsys):
        code, out, _ = run_cli(capsys, "hr-eval", "--lambda", "1", "--grid", "0:1:201")
        assert code == 0
        assert len(parse_csv(out)) == 201**2
        ns = cli.build_parser().parse_args(
            ["verify", "bounds", "--lambda", "1", "--phi", "0.5", "--ngrid", "1e8"])
        assert ns.n_grid == (10**8,)

    def test_aslt_starts_at_its_own_min_n(self, capsys):
        # lam^2/2 lies just above ln 7, so the first row is n = 8; a rule that
        # started at 7 and then rejected it would exit 2
        code, _, err = run_cli(
            capsys, "verify", "aslt", "--lambda", "1.9727697022849584", "--phi", "0.5",
            "--nmax", "1000", "--seeds", "2",
        )
        assert code in (0, 1), err

    def test_unexpected_error_is_exit_3(self, capsys, monkeypatch):
        def boom(*args):
            raise RuntimeError("bisection did not converge")

        monkeypatch.setattr(cli, "hr_cdf", boom)
        code, out, err = run_cli(capsys, "hr-eval", "--lambda", "1", "--grid", "0:0")
        assert code == 3
        assert out == ""
        assert err == "error: RuntimeError: bisection did not converge\n"

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "r.csv"
        code, _, err = run_cli(
            capsys, "hr-eval", "--lambda", "1", "--grid", "0:0", "--out", str(missing)
        )
        assert code == 2
        assert err.strip().startswith("error:")
        assert "Traceback" not in err


class TestDeterminism:
    def test_worker_count_invariant_csv_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        base = (
            "verify", "weak", "--lambda", "1", "--phi", "0.5", "--n", "400",
            "--reps", "300", "--seed", "11", "--grid", "-1:3:5",
        )
        code1, _, _ = run_cli(capsys, *base, "--workers", "1", "--out", str(out1))
        code2, _, _ = run_cli(capsys, *base, "--workers", "2", "--out", str(out2))
        assert code1 == code2
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        assert b"\r\n" in b1  # RFC-4180 line endings

    def test_seed_changes_output(self, tmp_path, capsys):
        outs = []
        for seed in ("11", "12"):
            path = tmp_path / f"s{seed}.csv"
            run_cli(
                capsys, "verify", "weak", "--lambda", "1", "--phi", "0.5", "--n", "300",
                "--reps", "300", "--seed", seed, "--grid", "-1:3:5", "--out", str(path),
            )
            outs.append(path.read_bytes())
        assert outs[0] != outs[1]

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("HREXT_SEED", "77")
        _, out, _ = run_cli(capsys, "hr-eval", "--lambda", "1", "--grid", "0:0")
        row = parse_csv(out)[0]
        assert json.loads(row["config"])["seed"] == 77

    def test_negative_env_seed_is_exit_2(self, capsys, monkeypatch):
        # a configuration error, not a runtime error from the seed sequence
        monkeypatch.setenv("HREXT_SEED", "-2")
        code, out, err = run_cli(capsys, "verify", "maxmin", "--lambda", "1", "--phi", "0.5",
                                 "--n", "200", "--reps", "100", "--grid4", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: HREXT_SEED")

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HREXT_SEED", "77")
        _, out, _ = run_cli(capsys, "hr-eval", "--lambda", "1", "--grid", "0:0", "--seed", "3")
        assert json.loads(parse_csv(out)[0]["config"])["seed"] == 3
