"""Command-line harness: subcommands, config parsing, exit codes, outputs."""

import glob
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mesostefan import antisym, asym, cli, instanton as instanton_mod
from mesostefan.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL,
                            EXIT_OK, SWEEP_HEADER, main, run, validate)
from mesostefan.config import RunConfig, parse_config
from mesostefan.errors import DomainError, GridError, InfeasibleError
from mesostefan.profiles import dump_json, load_columns, load_state

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")


def test_parse_config_defaults_and_comments():
    cfg = parse_config("""
# a comment
beta = 2.5    # trailing comment
eps_list = 0.2, 0.1
mode = metastable
j = 0.03
n0 = 3
""")
    assert cfg.beta == 2.5
    assert cfg.eps_list == [0.2, 0.1]
    assert cfg.mode == "metastable"
    assert cfg.n0 == 3
    assert cfg.spacing == 0.05   # default preserved


def test_parse_config_rejects_bad_input():
    with pytest.raises(DomainError):
        parse_config("nonsense line")
    with pytest.raises(DomainError):
        parse_config("unknown_key = 3")
    with pytest.raises(DomainError):
        parse_config("eps_list = 0.05, 0.1")   # not decreasing
    with pytest.raises(DomainError):
        parse_config("mode = bogus")
    with pytest.raises(DomainError):
        parse_config("beta = 0.9")


@pytest.mark.parametrize("text,message", [
    ("beta = abc", "line 1: beta = 'abc' is not a number"),
    ("j = -0.02\nn0 = 2.5", "line 2: n0 = '2.5' is not an integer"),
    ("eps_list = 0.1, x", "line 1: eps_list = '0.1, x' is not a number"),
    ("workers = two", "line 1: unknown key 'workers'"),
    ("workers = 0", "line 1: unknown key 'workers'"),
    ("workers = -3", "line 1: unknown key 'workers'"),
    ("inner_tol = 1e-12", "line 1: unknown key 'inner_tol'"),
    ("outer_tol = 1e-10", "line 1: unknown key 'outer_tol'"),
    ("spectral_tol = 1e-12", "line 1: unknown key 'spectral_tol'"),
    ("instanton_halfwidth = 20", "line 1: unknown key 'instanton_halfwidth'"),
    ("beta = nan", "must be finite"),
    ("j = inf", "must be finite"),
    ("eps_list = 0.1, nan", "must be finite"),
    ("spacing = -inf", "must be finite"),
    ("eps_list = ", "eps_list must name at least one scale"),
    ("validate_fields = 1", "line 1: unknown key 'validate_fields'"),
    ("mode = antisym\nx0 = 0.3", "x0 = 0.3 is ignored by mode antisym"),
    ("mode = asym\nx0 = 0.2\nell = 1.5", "ell = 1.5 is ignored by mode asym"),
], ids=["beta-abc", "n0-float", "eps-token", "workers-word", "workers-0",
        "workers-negative", "inner_tol-key", "outer_tol-key",
        "spectral_tol-key", "instanton_halfwidth-key", "beta-nan", "j-inf",
        "eps-nan", "spacing-inf", "eps-empty", "method-name-key",
        "x0-centred-mode", "ell-asym-mode"])
@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_bad_config_values_exit_config(tmp_path, capsys, command, text,
                                       message):
    """Unparsable or out-of-range values, keys that are not settings (the
    run knobs removed from the format among them) and a setting the mode
    ignores are config errors (exit 2) in both commands, not tracebacks."""
    cfg = tmp_path / "bad.txt"
    cfg.write_text(text + "\n" + f"outdir = {tmp_path / 'out'}\n")
    with pytest.raises(DomainError, match=re.escape(message)):
        parse_config(cfg.read_text())
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_scipy_stats_or_integrate():
    """SciPy is a test oracle only, and a sweep runs its scales in one
    process: importing the CLI loads no module of SciPy, concurrent or
    multiprocessing."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = ("import sys, mesostefan.cli; print(sorted({m for m in "
             "sys.modules if m.split('.')[0] in "
             "('scipy', 'concurrent', 'multiprocessing')}))")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"


def test_bad_config_value_exit_code_of_the_process(tmp_path):
    """The same through the interpreter: exit status 2, no traceback."""
    cfg = tmp_path / "bad.txt"
    cfg.write_text("beta = abc\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mesostefan.cli", "validate", "--config",
         str(cfg)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert "line 1: beta = 'abc' is not a number" in proc.stderr


@pytest.mark.parametrize("command,flag", [("sweep", "--config"),
                                          ("validate", "--config"),
                                          ("spectrum", "--state")])
def test_missing_input_file_is_config_error(tmp_path, command, flag):
    """A path that does not exist exits 2 with a config error naming it,
    not a traceback."""
    missing = tmp_path / "absent.txt"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mesostefan.cli", command, flag,
         str(missing)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: cannot read {missing}")


def test_thermo_command(tmp_path):
    out = tmp_path / "t"
    assert main(["thermo", "--beta", "2", "--out", str(out)]) == EXIT_OK
    data = json.loads((out / "thermo.json").read_text())
    assert data["m_beta"] == pytest.approx(0.9575040240772688)
    lines = (out / "thermo.csv").read_text().splitlines()
    assert lines[0] == "s,potential,envelope"


def test_instanton_command(tmp_path):
    out = tmp_path / "i"
    assert main(["instanton", "--beta", "2", "--out", str(out)]) == EXIT_OK
    data = json.loads((out / "instanton.json").read_text())
    assert data["residual"] < 1e-10
    value, = load_columns(str(out / "instanton.csv"), ("value",))
    assert value[0] == pytest.approx(-data["m_beta"], abs=1e-9)


def test_instanton_sidecar_rebuilds_its_points(tmp_path):
    """The sidecar of the instanton window [-X, X] records eps = 1 and the
    window's own half-widths, from which its points rebuild."""
    out = tmp_path / "i"
    assert main(["instanton", "--beta", "2", "--out", str(out)]) == EXIT_OK
    for name in ("instanton", "instanton_derivative"):
        x, = load_columns(str(out / f"{name}.csv"), ("x",))
        side = json.loads((out / f"{name}.grid.json").read_text())
        assert side["epsilon"] == 1.0
        assert side["left"] == side["right"] == instanton_mod.HALF_WIDTH
        assert side["n"] == x.size
        rebuilt = np.linspace(-side["left"] / side["epsilon"],
                              side["right"] / side["epsilon"], side["n"])
        assert np.max(np.abs(rebuilt - x)) <= 1e-12 * side["right"]
        assert np.max(np.abs(np.diff(x) - side["spacing"])) <= 1e-12


def test_stefan_command_and_infeasible_exit(tmp_path):
    out = tmp_path / "s"
    assert main(["stefan", "--beta", "2", "--j", "-0.02", "--x0", "0.2",
                 "--ell", "1.0", "--out", str(out)]) == EXIT_OK
    code = main(["stefan", "--beta", "2", "--j", "-0.02", "--x0", "0.2",
                 "--ell", "1.9", "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    data = json.loads((out / "stefan.json").read_text())
    assert data["feasible"] is False
    assert data["ell_j"] == pytest.approx(1.9467161267, abs=1e-6)


@pytest.mark.parametrize("ell", ["0", "-1", "nan"])
@pytest.mark.parametrize("branch", [["--j", "-0.02"],
                                    ["--j", "0.02", "--metastable"]],
                         ids=["stable", "metastable"])
def test_stefan_refuses_a_bad_half_length(tmp_path, capsys, branch, ell):
    """Both branches refuse a half-length that is not positive and finite
    with one config error, and write no profile."""
    out = tmp_path / "s"
    assert main(["stefan", "--beta", "2", *branch, "--ell", ell,
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: half-length must be positive and finite")
    assert not (out / "stefan.csv").exists()


@pytest.mark.parametrize("beta", ["19", "1e300"])
def test_instanton_command_refuses_saturated_beta(tmp_path, capsys, beta):
    """A saturated m_beta is a config error before any step: no 50 000-step
    run to exit 4 (beta = 1e300), no NaN constants written (beta = 19)."""
    out = tmp_path / "i"
    start = time.perf_counter()
    assert main(["instanton", "--beta", beta, "--out", str(out)]) \
        == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "config error: m_beta is 1 to rounding" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, j", [("antisym", -0.02), ("metastable", 0.02)])
def test_saturated_beta_is_a_config_error_in_every_mode(mode, j):
    """At beta = 1e10 both maximal solutions refuse the saturated m_beta; the
    metastable one used to report ell_break = 0, an infeasible (-3) row."""
    cfg = RunConfig(beta=1e10, j=j, mode=mode, eps_list=[0.1, 0.05], n0=2)
    assert [r.iters for r in run(cfg).rows] == [-EXIT_CONFIG, -EXIT_CONFIG]
    finding, = validate(cfg)
    assert _finding_code(finding) == EXIT_CONFIG


@pytest.mark.parametrize("n0", [-1, -3, -20, -1000])
def test_negative_n0_is_a_config_error(tmp_path, capsys, n0):
    """n0 < 0 glues the seed left of the interface: solve, sweep and
    validate all report it as a config error naming the gluing point."""
    argv = ["solve", "--eps", "0.1", "--j", "-0.02", "--ell", "1",
            "--n0", str(n0), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_CONFIG
    assert "gluing point x_eps + 2 n0" in capsys.readouterr().err
    cfg = RunConfig(j=-0.02, ell=1.0, eps_list=[0.1], n0=n0)
    row, = run(cfg).rows
    assert row.iters == -EXIT_CONFIG
    assert row.error.startswith("GridError: n0 = ")
    finding, = validate(cfg)
    assert _finding_code(finding) == EXIT_CONFIG
    assert "gluing point" in finding[1]


def test_zero_n0_still_solves(tmp_path):
    cfg = RunConfig(j=-0.02, ell=1.0, eps_list=[0.1], n0=0)
    assert validate(cfg) == []
    row, = run(cfg).rows
    assert row.iters > 0 and row.error == ""


TRACE_HEADER = "k,increment,ratio,residual,inner_tol,picard_steps,inner_path"


def _solve_records_are_picard(trace):
    """Every step's auxiliary solve took a whole number of Picard steps, at
    least one somewhere, and none stalled into the projected path."""
    steps = [int(line.split(",")[5]) for line in trace[1:]]
    assert min(steps) >= 0 and sum(steps) > 0
    assert {line.split(",")[6] for line in trace[1:]} == {"picard"}


def test_solve_command_round_trip(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--mode", "antisym", "--beta", "2", "--eps", "0.1",
                 "--j", "-0.02", "--ell", "1", "--n0", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    grid, h, m = load_state(str(out / "state.csv"))
    assert grid.epsilon == 0.1
    assert np.all(np.diff(m) > 0)
    summary = json.loads((out / "solve.json").read_text())
    assert summary["monotone"] is True
    assert summary["residual"] < 1e-8
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert float(trace[-1].split(",")[4]) == 1e-12
    _solve_records_are_picard(trace)


def test_solve_asym_command(tmp_path):
    out = tmp_path / "asym"
    code = main(["solve-asym", "--beta", "2", "--eps", "0.1", "--j", "-0.02",
                 "--x0", "0.2", "--n0", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "solve_asym.json").read_text())
    assert abs(summary["eps_x_eps"] - 0.2) < 0.1 * 0.05
    assert summary["G_report"]["weighted_ok"] is True


def test_spectrum_command(tmp_path):
    out = tmp_path / "run"
    main(["solve", "--mode", "antisym", "--beta", "2", "--eps", "0.1",
          "--j", "-0.02", "--ell", "1", "--n0", "2", "--out", str(out)])
    spec_out = tmp_path / "spec"
    code = main(["spectrum", "--state", str(out / "state.csv"), "--beta", "2",
                 "--j", "-0.02", "--out", str(spec_out)])
    assert code == EXIT_OK
    data = json.loads((spec_out / "spectrum.json").read_text())
    assert 0.99 < data["lambda"] < 1.0
    assert data["lambda2"] < data["lambda"]
    ratio = data["C_check"]["one_minus_lambda_over_eps"]
    assert ratio == pytest.approx(data["C_check"]["C_instanton"], rel=0.05)


def _strict_json(path):
    """The JSON of ``path``, refusing the non-standard NaN and Infinity."""
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


#: the row.json keys that do not apply to a solved row of each mode
NOT_APPLICABLE = {"antisym": {"I_eps", "eps_x_eps"},
                  "metastable": {"eps_x_eps"}, "asym": {"I_eps"}}
ROW_VALUES = {"hydro_m", "hydro_h", "lam_gap_ratio", "C_instanton", "I_eps",
              "eps_x_eps"}


def test_json_artifacts_are_strict(tmp_path):
    """Every shipped row, an error row and a spectrum run without --j parse
    as strict JSON: a value that does not apply is null."""
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.txt"))):
        out = tmp_path / os.path.basename(path)
        with open(path) as fh:
            text = re.sub(r"(?m)^outdir = .*$", f"outdir = {out}", fh.read())
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(text)
        assert main(["sweep", "--config", str(cfg_file)]) == EXIT_OK
        rows = [_strict_json(p) for p in sorted(out.glob("eps_*/row.json"))]
        assert len(rows) == 3
        for row in rows:
            nulls = {k for k in ROW_VALUES if row[k] is None}
            assert nulls == NOT_APPLICABLE[row["mode"]], path

    out = tmp_path / "bad"
    cfg_file.write_text("beta = 2.0\nj = -0.2\nell = 1.0\nmode = antisym\n"
                        f"eps_list = 0.1\noutdir = {out}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_INFEASIBLE
    row = _strict_json(out / "eps_0.1" / "row.json")
    assert {k for k in ROW_VALUES if row[k] is None} == ROW_VALUES

    run_dir, spec_dir = tmp_path / "run", tmp_path / "spec"
    assert main(["solve", "--eps", "0.1", "--j", "-0.02", "--ell", "1",
                 "--out", str(run_dir)]) == EXIT_OK
    assert main(["spectrum", "--state", str(run_dir / "state.csv"),
                 "--out", str(spec_dir)]) == EXIT_OK
    spectrum = _strict_json(spec_dir / "spectrum.json")
    assert spectrum["C_check"]["C_instanton"] is None


def test_dump_json_writes_numpy_bools_and_refuses_nan(tmp_path):
    path = tmp_path / "out.json"
    dump_json(path, {"ok": np.bool_(True), "n": np.int64(3)})
    assert json.loads(path.read_text()) == {"ok": True, "n": 3}
    assert '"ok": true' in path.read_text()
    with pytest.raises(ValueError):
        dump_json(path, {"value": float("nan")})


def test_sweep_empty_eps_list():
    cfg = RunConfig(eps_list=[])
    report = run(cfg)
    assert report.rows == []
    assert report.to_csv().strip() == SWEEP_HEADER


def test_sweep_reproducible(tmp_path):
    cfg_text = (
        "beta = 2.0\nj = -0.02\nell = 1.0\nmode = antisym\n"
        "eps_list = 0.1\nn0 = 2\noutdir = {out}\n"
    )
    cfg_file = tmp_path / "cfg.txt"
    out = tmp_path / "sweep"
    cfg_file.write_text(cfg_text.format(out=out))
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_OK
    first = (out / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_OK
    assert (out / "sweep.csv").read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    row = json.loads((out / "eps_0.1" / "row.json").read_text())
    assert row["iters"] > 0


def test_sweep_records_failures_as_rows(tmp_path):
    cfg_file = tmp_path / "bad.txt"
    out = tmp_path / "sweepbad"
    # ell beyond ell_j: every run is infeasible but the sweep still completes
    cfg_file.write_text(
        f"beta = 2.0\nj = -0.2\nell = 1.0\nmode = antisym\n"
        f"eps_list = 0.1\nn0 = 2\noutdir = {out}\n")
    code = main(["sweep", "--config", str(cfg_file)])
    assert code == EXIT_INFEASIBLE
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert int(lines[1].split(",")[-1]) == -EXIT_INFEASIBLE


def test_three_scale_sweep_hydro_decreasing():
    """Full-pipeline measurement: the hydro column shrinks along the sweep."""
    cfg = RunConfig(beta=2.0, j=-0.02, ell=1.0, mode="antisym",
                    eps_list=[0.1, 0.05, 0.025], n0=2)
    report = run(cfg)
    hydro = [row.hydro_m for row in report.rows]
    assert hydro[0] > hydro[1] > hydro[2]
    assert all(row.iters > 0 for row in report.rows)
    assert all(np.isfinite(row.c_instanton) for row in report.rows)


def test_sweep_computes_shared_inputs_once(monkeypatch):
    """One instanton and one macroscopic solution per config, and the same
    rows as scales that compute their own."""
    from mesostefan import cli, instanton, stefan

    calls = {"instanton": 0, "macro": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mode, j, x0, macro_fn in (("antisym", -0.02, 0.0, "solve_maximal"),
                                  ("metastable", 0.02, 0.0,
                                   "_metastable_maximal"),
                                  ("asym", -0.02, 0.2, "solve_maximal")):
        cfg = RunConfig(beta=2.0, j=j, x0=x0, ell=1.0, mode=mode,
                        eps_list=[0.1, 0.05], n0=2)
        alone = [cli._solve_one(cfg, eps, cli._shared_inputs(cfg))[0]
                 .csv_line() for eps in cfg.eps_list]
        with monkeypatch.context() as mp:
            calls.update(instanton=0, macro=0)
            mp.setattr(instanton, "compute_instanton",
                       counted("instanton", instanton.compute_instanton))
            mp.setattr(stefan, macro_fn,
                       counted("macro", getattr(stefan, macro_fn)))
            report = run(cfg)
        assert calls == {"instanton": 1, "macro": 1}, mode
        assert [r.csv_line() for r in report.rows] == alone


@pytest.mark.parametrize("mode, j", [("antisym", -0.02), ("metastable", 0.02)])
def test_x0_is_a_config_error_in_centered_modes(mode, j):
    """A centred mode given x0 != 0 in code, where no file or argument parser
    has checked the fields, is one config error in validate and a -2 row at
    every scale in run, not a centred solve."""
    cfg = RunConfig(beta=2.0, j=j, x0=0.3, mode=mode, eps_list=[0.1, 0.05],
                    n0=2)
    message = f"x0 = 0.3 is ignored by mode {mode}"
    findings = validate(cfg)
    assert [code for code, _ in findings] == [EXIT_CONFIG]
    assert message in findings[0][1]
    rows = run(cfg).rows
    assert [(r.eps, r.iters) for r in rows] == [(0.1, -EXIT_CONFIG),
                                               (0.05, -EXIT_CONFIG)]
    assert all(r.error == f"DomainError: {message}: only asym places the "
               "interface off center" for r in rows)


def test_failed_sweep_row_records_error(tmp_path):
    """eps = 0.03 fails the off-center grid check: the -2 row's row.json says
    why, and sweep.csv keeps its columns."""
    out = tmp_path / "asym"
    cfg_file = tmp_path / "asym.txt"
    cfg_file.write_text(
        f"beta = 2.0\nj = -0.02\nx0 = 0.2\nmode = asym\n"
        f"eps_list = 0.05, 0.03\nn0 = 2\noutdir = {out}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_CONFIG
    ok = json.loads((out / "eps_0.05" / "row.json").read_text())
    bad = json.loads((out / "eps_0.03" / "row.json").read_text())
    assert "error" not in ok
    assert bad["iters"] == -EXIT_CONFIG
    assert bad["error"] == ("GridError: ell/eps = (1 + 1)/0.03 = 66.66666667 "
                            "is not a whole number of cells of spacing 0.05")
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[2].endswith(f",{-EXIT_CONFIG}")


@pytest.mark.parametrize("exc_type", [FloatingPointError,
                                      np.linalg.LinAlgError, ValueError])
def test_non_package_error_becomes_row(tmp_path, monkeypatch, exc_type):
    """A numpy error at one eps is an exit-4 row naming its class; the
    other scales still solve and record their solves."""
    solve = antisym.solve_stable

    def failing(params, kernel, eps, *args, **kwargs):
        if eps == 0.05:
            raise exc_type("injected")
        return solve(params, kernel, eps, *args, **kwargs)

    monkeypatch.setattr(antisym, "solve_stable", failing)
    out = tmp_path / "sweep"
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("beta = 2.0\nj = -0.02\nmode = antisym\n"
                        f"eps_list = 0.1, 0.05\nn0 = 2\noutdir = {out}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_NUMERICAL
    ok = json.loads((out / "eps_0.1" / "row.json").read_text())
    bad = json.loads((out / "eps_0.05" / "row.json").read_text())
    assert "error" not in ok and ok["iters"] > 0
    assert ok["picard_steps"] > 0 and ok["projected_solves"] == 0
    assert bad["iters"] == -EXIT_NUMERICAL
    assert bad["error"] == f"{exc_type.__name__}: injected"
    assert "picard_steps" not in bad


def test_non_package_error_in_shared_inputs_fills_rows(monkeypatch):
    """The same error in the inputs every scale shares is every row's."""
    from mesostefan import instanton

    def failing(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(instanton, "compute_instanton", failing)
    rows = run(RunConfig(beta=2.0, j=-0.02, eps_list=[0.1, 0.05], n0=2)).rows
    assert [r.iters for r in rows] == [-EXIT_NUMERICAL] * 2
    assert {r.error for r in rows} == {"FloatingPointError: injected"}


@pytest.mark.parametrize("mode, j, x0", [("antisym", -0.02, 0.0),
                                         ("metastable", 0.02, 0.0),
                                         ("asym", -0.02, 0.2)])
def test_row_json_records_inner_solves(tmp_path, mode, j, x0):
    """row.json totals the Picard steps of the row's auxiliary solves, off
    center including the extended solve's, and counts projected solves;
    sweep.csv keeps its columns."""
    out = tmp_path / mode
    cfg = RunConfig(beta=2.0, j=j, x0=x0, mode=mode, eps_list=[0.1], n0=2,
                    outdir=str(out))
    row, res = cli._solve_one(cfg, 0.1, cli._shared_inputs(cfg))
    traces = [res.trace] + ([res.problem.extended_trace] if mode == "asym"
                            else [])
    assert row.picard_steps == sum(sum(t.picard_steps) for t in traces) > 0
    assert row.projected_solves == 0
    assert all(t.inner_paths == ["picard"] * len(t.increments)
               for t in traces)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"beta = 2.0\nj = {j}\nx0 = {x0}\nmode = {mode}\n"
                        f"eps_list = 0.1\nn0 = 2\noutdir = {out}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_OK
    record = json.loads((out / "eps_0.1" / "row.json").read_text())
    assert record["picard_steps"] == row.picard_steps
    assert record["projected_solves"] == 0
    assert (out / "sweep.csv").read_text().splitlines()[0] == SWEEP_HEADER


def test_asym_outer_tol_reaches_extended_solve(monkeypatch):
    """antisym.OUTER_TOL, read when the loops run, stops both the projected
    loop and the extended antisymmetric solve, which takes fewer steps at a
    looser one."""
    steps = {}
    cfg = RunConfig(beta=2.0, j=-0.02, x0=0.2, mode="asym", eps_list=[0.05],
                    n0=2)
    for tol in (1e-6, 1e-10):
        monkeypatch.setattr(antisym, "OUTER_TOL", tol)
        _, res = cli._solve_one(cfg, 0.05, cli._shared_inputs(cfg))
        ext = res.problem.extended_trace
        assert ext.increments[-1] < tol
        assert res.trace.increments[-1] < tol
        steps[tol] = len(ext.increments)
    assert steps[1e-6] < steps[1e-10]


@pytest.mark.parametrize("errors, code", [
    ({}, EXIT_OK),
    ({0.1: GridError}, EXIT_CONFIG),
    ({0.05: InfeasibleError}, EXIT_INFEASIBLE),
    ({0.1: DomainError, 0.05: InfeasibleError}, EXIT_INFEASIBLE),
])
def test_validate_exits_with_highest_finding_code(tmp_path, monkeypatch,
                                                  capsys, errors, code):
    check = antisym.check_stable

    def checked(kernel, eps, *args):
        if eps in errors:
            raise errors[eps]("injected")
        return check(kernel, eps, *args)

    monkeypatch.setattr(antisym, "check_stable", checked)
    path = tmp_path / "cfg.txt"
    path.write_text("beta = 2.0\nj = -0.02\neps_list = 0.1, 0.05\nn0 = 2\n")
    assert main(["validate", "--config", str(path)]) == code
    printed = capsys.readouterr().out
    if errors:
        assert printed.count("- ") == len(errors)
    else:
        assert printed == "configuration is feasible\n"


def test_validate_findings(params2):
    cfg = RunConfig(beta=2.0, j=-0.2, ell=1.0, mode="antisym",
                    eps_list=[0.1], n0=2)
    findings = validate(cfg)
    assert any("ell_j" in f or "maximal" in f for _, f in findings)
    assert all(code == EXIT_INFEASIBLE and f.startswith("infeasible: ")
               for code, f in findings)
    cfg_ok = RunConfig(beta=2.0, j=-0.02, ell=1.0, mode="antisym",
                       eps_list=[0.1], n0=2)
    assert validate(cfg_ok) == []
    cfg_zero = RunConfig(j=0.0)
    notes = validate(cfg_zero)
    assert any("zero-current" in f for _, f in notes)


def test_validate_matches_off_center_grid_checks():
    """eps^-1 = 33.3 is not a spacing multiple: the off-center solver
    rejects it, so validate must report it rather than call it feasible."""
    cfg = RunConfig(beta=2.0, j=-0.02, x0=0.2, mode="asym",
                    eps_list=[0.03], n0=2)
    findings = validate(cfg)
    assert any("eps = 0.03" in f and "whole number of cells" in f
               for _, f in findings)
    row, = run(cfg).rows
    assert row.iters == -EXIT_CONFIG
    shipped = RunConfig(beta=2.0, j=-0.02, x0=0.2, mode="asym",
                        eps_list=[0.1, 0.05, 0.025], n0=2)
    assert validate(shipped) == []


def _finding_code(finding) -> int:
    """The exit code of a finding, whose message starts with its prefix."""
    code, message = finding
    assert message.startswith(cli._EXIT_PREFIX[code] + ": "), finding
    return code


@pytest.mark.parametrize("mode, x0, eps", [("asym", 0.0, 0.1),
                                           ("asym", -0.2, 0.1),
                                           ("antisym", 0.0, 0.25)])
def test_validate_reports_solver_preconditions(mode, x0, eps):
    """Configs the solvers reject before iterating are findings whose prefix
    names the exit code of their sweep row."""
    cfg = RunConfig(beta=2.0, j=-0.02, x0=x0, mode=mode, eps_list=[eps], n0=2)
    finding, = validate(cfg)
    row, = run(cfg).rows
    assert row.iters == -EXIT_CONFIG
    assert _finding_code(finding) == EXIT_CONFIG
    assert finding[1].endswith(row.error.split(": ", 1)[1])


def test_validate_reports_saturated_beta(tmp_path, capsys):
    """beta = 20 saturates m_beta: the maximal solution's error is a finding,
    printed like the others, and validate exits with its code."""
    cfg = RunConfig(beta=20.0, j=-0.02, eps_list=[0.1], n0=2)
    finding, = validate(cfg)
    assert _finding_code(finding) == EXIT_CONFIG
    assert "past the saturation cutoff" in finding[1]
    path = tmp_path / "b20.txt"
    path.write_text("beta = 20.0\nj = -0.02\nn0 = 2\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "past the saturation cutoff" in capsys.readouterr().out


def test_shipped_configs_are_feasible(capsys):
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.txt")))
    assert len(paths) == 3
    for path in paths:
        assert main(["validate", "--config", path]) == EXIT_OK
        assert capsys.readouterr().out == "configuration is feasible\n"


@pytest.mark.parametrize("text", ["mode = antisym\nj = -0.02",
                                  "mode = metastable\nj = 0.02",
                                  "mode = asym\nj = -0.02\nx0 = 0.2"],
                         ids=["antisym", "metastable", "asym"])
def test_config_defaults_are_feasible(tmp_path, capsys, text):
    """A config that leaves n0, beta, ell, eps_list and spacing out is
    feasible at every default scale."""
    path = tmp_path / "cfg.txt"
    path.write_text(text + "\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "configuration is feasible\n"


def test_one_n0_default(tmp_path):
    """The config, both --n0 flags and the solvers default to the same n0,
    and solve runs without the flag."""
    parser = cli.build_parser()
    for argv in (["solve", "--eps", "0.05", "--j", "-0.02", "--ell", "1"],
                 ["solve-asym", "--eps", "0.05", "--j", "-0.02",
                  "--x0", "0.2"]):
        assert parser.parse_args(argv).n0 == antisym.DEFAULT_N0
    assert RunConfig().n0 == antisym.DEFAULT_N0
    for solver in (antisym.solve_stable, antisym.solve_metastable,
                   asym.build_problem, asym.solve_off_center):
        n0 = inspect.signature(solver).parameters["n0"]
        assert n0.default == antisym.DEFAULT_N0, solver.__name__
    out = tmp_path / "run"
    assert main(["solve", "--eps", "0.05", "--j", "-0.02", "--ell", "1",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "solve.json").read_text())["n0"] \
        == antisym.DEFAULT_N0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mode=st.sampled_from(("antisym", "metastable", "asym")),
       j_abs=st.sampled_from((0.02, 0.03, 0.2, 0.0)),
       flip=st.booleans(),
       ell=st.sampled_from((1.0, 0.5, 1.9, 5.0)),
       x0=st.sampled_from((0.2, 0.5, 0.025, 0.0, -0.2, 0.95)),
       eps_list=st.lists(st.sampled_from((0.1, 0.05, 0.2, 0.25, 0.03, 0.02)),
                         min_size=1, max_size=2, unique=True
                         ).map(lambda e: sorted(e, reverse=True)),
       n0=st.sampled_from((2, 1, 5, 10)))
@example(mode="asym", j_abs=0.02, flip=False, ell=1.0, x0=0.0,
         eps_list=[0.1], n0=2)
@example(mode="asym", j_abs=0.02, flip=False, ell=1.0, x0=-0.2,
         eps_list=[0.1], n0=2)
@example(mode="antisym", j_abs=0.02, flip=False, ell=1.0, x0=0.0,
         eps_list=[0.25], n0=2)
@example(mode="metastable", j_abs=0.02, flip=False, ell=1.0, x0=0.0,
         eps_list=[0.02], n0=10)
def test_validate_agrees_with_run(mode, j_abs, flip, ell, x0, eps_list, n0):
    """An empty validate means no config error (-2) or infeasible (-3) row;
    every such row's eps has a finding with the same exit-code prefix, and
    a row that solves has none.  The current has the sign the mode needs
    (j > 0 metastable, j < 0 otherwise) unless ``flip``."""
    j = j_abs * (1.0 if mode == "metastable" else -1.0) * (-1.0 if flip else 1.0)
    cfg = RunConfig(beta=2.0, j=j, ell=ell, x0=x0, mode=mode,
                    eps_list=eps_list, n0=n0)
    findings = validate(cfg)
    rows = run(cfg).rows
    if not findings:
        assert all(r.iters not in (-EXIT_CONFIG, -EXIT_INFEASIBLE)
                   for r in rows)
    for row in rows:
        # a finding without "eps = " comes from the shared inputs: all scales
        mine = [_finding_code(f) for f in findings
                if f"eps = {row.eps}: " in f[1] or "eps = " not in f[1]]
        if row.iters in (-EXIT_CONFIG, -EXIT_INFEASIBLE):
            assert mine == [-row.iters], (row, findings)
        elif row.iters >= 0:
            assert mine == [], (row, findings)


def test_validate_command_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("beta = 0.5\n")
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    good = tmp_path / "good.txt"
    good.write_text("beta = 2.0\nj = -0.02\nn0 = 2\n")
    assert main(["validate", "--config", str(good)]) == EXIT_OK


def test_solve_asym_writes_trace(tmp_path):
    """solve-asym writes the same trace.csv as solve, one row per step."""
    out = tmp_path / "asym"
    assert main(["solve-asym", "--beta", "2", "--eps", "0.1", "--j", "-0.02",
                 "--x0", "0.2", "--n0", "2", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "solve_asym.json").read_text())
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) - 1 == summary["iterations"]
    _solve_records_are_picard(trace)
    assert float(trace[1].split(",")[3]) == summary["seed_residual"]
    assert float(trace[-1].split(",")[1]) < 1e-9


def test_state_sidecar_mismatch_is_config_error(tmp_path, capsys):
    """A grid sidecar from another eps next to a state file is a GridError
    (exit 2), not a crash."""
    runs = {}
    for eps in ("0.1", "0.05"):
        runs[eps] = tmp_path / eps
        main(["solve", "--beta", "2", "--eps", eps, "--j", "-0.02",
              "--ell", "1", "--n0", "2", "--out", str(runs[eps])])
    shutil.copy(runs["0.05"] / "state.grid.json", runs["0.1"] / "state.grid.json")
    state = str(runs["0.1"] / "state.csv")
    with pytest.raises(GridError, match="does not match its grid descriptor"):
        load_state(state)
    code = main(["spectrum", "--state", state, "--beta", "2", "--j", "-0.02",
                 "--out", str(tmp_path / "spec")])
    assert code == EXIT_CONFIG
    assert "config error: x column of" in capsys.readouterr().err


def test_state_without_sidecar_is_config_error(tmp_path, capsys):
    """Bare points do not give eps: a state without its grid sidecar is a
    GridError naming the file (exit 2), not a spectrum at a made-up eps."""
    run_dir = tmp_path / "run"
    main(["solve", "--beta", "2", "--eps", "0.05", "--j", "-0.02",
          "--ell", "1", "--n0", "2", "--out", str(run_dir)])
    (run_dir / "state.grid.json").unlink()
    state = str(run_dir / "state.csv")
    with pytest.raises(GridError, match="has no grid descriptor") as info:
        load_state(state)
    assert state in str(info.value)
    spec_out = tmp_path / "spec"
    code = main(["spectrum", "--state", state, "--beta", "2", "--j", "-0.02",
                 "--out", str(spec_out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and state in err
    assert not spec_out.exists()


@pytest.mark.parametrize("sidecar", [
    '{"epsilon": 0.1, "left"',
    '{"epsilon": 0.1, "right": 1.0, "spacing": 0.05}',
    '{"epsilon": 0.1, "left": "one", "right": 1.0, "spacing": 0.05}',
    '[0.1, 1.0, 1.0, 0.05]',
], ids=["truncated", "missing-key", "non-numeric", "list"])
def test_malformed_sidecar_is_config_error(tmp_path, sidecar):
    """A grid sidecar that is not a JSON object with the grid's numbers is a
    config error naming it (exit 2), not a traceback."""
    run_dir = tmp_path / "run"
    main(["solve", "--beta", "2", "--eps", "0.1", "--j", "-0.02",
          "--ell", "1", "--n0", "2", "--out", str(run_dir)])
    side = run_dir / "state.grid.json"
    side.write_text(sidecar + "\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mesostefan.cli", "spectrum", "--state",
         str(run_dir / "state.csv"), "--j", "-0.02", "--out",
         str(tmp_path / "spec")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: malformed grid descriptor "
                                  f"{side}")
    assert not (tmp_path / "spec").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda rows: rows[:5] + ["0.1,abc,0.3"] + rows[6:], "cannot parse"),
    (lambda rows: rows[:5] + ["0.1,0.2"] + rows[6:], "cannot parse"),
    (lambda rows: rows[:5] + ["0.1,0.2,0.3,0.4"] + rows[6:], "cannot parse"),
    (lambda rows: rows[:1], "needs rows of 3 values"),
    (lambda rows: ["x,h,m,extra"] + rows[1:], "needs rows of 4 values"),
], ids=["bad-token", "short-row", "long-row", "no-rows", "long-header"])
def test_malformed_state_is_config_error(tmp_path, capsys, edit, message):
    """A bad token, a ragged row, no rows or a header that does not fit the
    rows is a GridError naming the file (exit 2), not a crash."""
    run_dir = tmp_path / "run"
    main(["solve", "--beta", "2", "--eps", "0.1", "--j", "-0.02",
          "--ell", "1", "--n0", "2", "--out", str(run_dir)])
    state = run_dir / "state.csv"
    rows = state.read_text().splitlines()
    state.write_text("\n".join(edit(rows)) + "\n")
    with pytest.raises(GridError, match=message) as info:
        load_state(str(state))
    assert str(state) in str(info.value)
    code = main(["spectrum", "--state", str(state), "--beta", "2",
                 "--j", "-0.02", "--out", str(tmp_path / "spec")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(state) in err


def test_state_columns_parse_like_float(tmp_path):
    """np.loadtxt reads the 17-digit columns to the same doubles as float()."""
    run_dir = tmp_path / "run"
    main(["solve", "--beta", "2", "--eps", "0.05", "--j", "-0.02",
          "--ell", "1", "--n0", "2", "--out", str(run_dir)])
    path = run_dir / "state.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    by_float = np.array([[float(tok) for tok in row] for row in rows])
    _, h, m = load_state(str(path))
    assert np.array_equal(np.stack([h, m], axis=1).view(np.int64),
                          by_float[:, 1:].view(np.int64))


def test_profile_csv_round_trip(tmp_path):
    from mesostefan.grids import build_grid
    from mesostefan.profiles import save_profile

    g = build_grid(0.1, 1.0, 1.0, 0.05)
    values = np.sin(g.points / 3.0) * 1e-7 + 0.123456789012345678
    path = str(tmp_path / "p.csv")
    save_profile(path, g, values)
    x, back = load_columns(path, ("x", "value"))
    assert np.array_equal(back, values)
    assert np.array_equal(x, g.points)
    grid = json.loads((tmp_path / "p.grid.json").read_text())
    assert grid["epsilon"] == g.epsilon
    assert grid["n"] == g.n
    with pytest.raises(ValueError):      # values must match the grid
        save_profile(str(tmp_path / "q.csv"), g, values[:-1])
    assert not (tmp_path / "q.csv").exists()


#: values per config key: valid ones, and the malformed, non-finite, out of
#: range and extreme ones a config file can hold.  No drawn size makes a
#: grid, kernel or instanton larger than the shipped ones by more than 4x.
_CONFIG_VALUES = {
    "beta": ("2.0", "1.5", "1.0", "-1", "nan", "inf", "1e300", "20", "x"),
    "j": ("-0.02", "0.02", "0", "-0.2", "1e300", "-1e-300", "x"),
    "x0": ("0", "0.2", "0.2025", "-0.2", "1", "1e300", "2.5e-324"),
    "ell": ("1.0", "1.0025", "0.9731", "2.5", "0", "-1", "1e-300", "1e300"),
    "eps_list": ("0.1", "0.1, 0.05", "0.05, 0.1", "", ",", "0.3", "0",
                 "-0.1", "1e-300", "0.1, nan", "0.1 0.05", "x"),
    "spacing": ("0.05", "0.1", "0.025", "0.03", "0.2", "0", "-1", "1e-300",
                "nan"),
    "kernel": ("cos2", "quartic", "nope", ""),
    "n0": ("2", "0", "-3", "10", "1000000", "2.5", "1e3", "x"),
    "mode": ("antisym", "metastable", "asym", "bogus", ""),
}
_CONFIG_LINES = st.one_of(
    st.sampled_from(sorted(_CONFIG_VALUES)).flatmap(
        lambda key: st.sampled_from(_CONFIG_VALUES[key]).map(
            lambda value: f"{key} = {value}")),
    st.sampled_from(("foo = 1", "validate_fields = 1", "__class__ = 1",
                     "outdir", "= 2", "beta == 2", "# comment", "",
                     "beta = 2 # trailing", "\x00", "eps_list = 0.1,,0.05")),
    st.text(alphabet="abj=.,#01 -\t", max_size=12),
)


#: drawn lines, alone or overriding a feasible one-scale config
_CONFIG_TEXTS = st.tuples(
    st.sampled_from(([], ["beta = 2.0", "j = -0.02", "eps_list = 0.1",
                          "n0 = 2"])),
    st.lists(_CONFIG_LINES, max_size=3)).map(lambda t: t[0] + t[1])


def _exit_code(argv, capsys) -> int:
    """main's exit code with warnings at their default, as outside pytest;
    an exception escaping main is the traceback the test rules out."""
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        code = main(argv)
    capsys.readouterr()
    return code


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_CONFIG_TEXTS)
@example(lines=["spacing = 1e-300"])
@example(lines=["spacing = 1e-9"])
@example(lines=["eps_list = "])
@example(lines=["validate_fields = 1"])
@example(lines=["ell = 1.0025", "eps_list = 0.1", "n0 = 2"])
@example(lines=["ell = 1e-300", "eps_list = 0.1"])
def test_config_text_never_gives_a_traceback(tmp_path, capsys, lines):
    """validate and sweep exit with 0, 2, 3 or 4 on any config text."""
    path = tmp_path / "cfg.txt"
    out = tmp_path / "out"
    path.write_text("\n".join(lines) + f"\noutdir = {out}\n")
    for command in ("validate", "sweep"):
        assert _exit_code([command, "--config", str(path)], capsys) in (
            EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL)
    shutil.rmtree(out, ignore_errors=True)
