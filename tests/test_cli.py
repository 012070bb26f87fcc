"""Command-line harness: subcommands, config parsing, exit codes, outputs."""

import dataclasses
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
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mesostefan import antisym, asym, cli, instanton as instanton_mod
from mesostefan.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL,
                            EXIT_OK, SWEEP_HEADER, main, run, validate)
from mesostefan.config import RunConfig, parse_config
from mesostefan.errors import DomainError, GridError, InfeasibleError
from mesostefan.profiles import dump_json, load_state
from oracles import (dense_leading_pair, full_grid_ritz,
                     full_grid_second)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")


def _columns(path, *names):
    """The named columns of a headed CSV file, parsed by np.loadtxt."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return tuple(data[:, header.index(n)] for n in names)


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
def test_missing_input_file_is_config_error(tmp_path, capsys, command, flag):
    """A path that does not exist exits 2 with a config error naming it,
    not a traceback, in this process and through the interpreter."""
    missing = tmp_path / "absent.txt"
    assert main([command, flag, str(missing)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read {missing}")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mesostefan.cli", command, flag,
         str(missing)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: cannot read {missing}")


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_undecodable_config_is_config_error(tmp_path, capsys, command):
    """A config file that is not text exits 2 with a config error naming
    it, not a traceback."""
    cfg = tmp_path / "bad.txt"
    cfg.write_bytes(b"beta = 2\n\xff\xfe\x80\n")
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: cannot parse {cfg}: ")


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
    value, = _columns(out / "instanton.csv", "value")
    assert value[0] == pytest.approx(-data["m_beta"], abs=1e-9)
    # the loop's steps and extrapolated steps, and criterion 12's defect
    assert (data["iterations"], data["extrapolations"]) == (14, 3)
    assert 1e-3 < data["unit_eigenvalue_defect"] < 2e-3


def test_instanton_sidecar_rebuilds_its_points(tmp_path):
    """The sidecar of the instanton window [-X, X] records eps = 1 and the
    window's own half-widths, from which its points rebuild."""
    out = tmp_path / "i"
    assert main(["instanton", "--beta", "2", "--out", str(out)]) == EXIT_OK
    for name in ("instanton", "instanton_derivative"):
        x, = _columns(out / f"{name}.csv", "x")
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
    with one config error, worded as for a config, and write no profile."""
    out = tmp_path / "s"
    assert main(["stefan", "--beta", "2", *branch, "--ell", ell,
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: " + (
        "numeric values must be finite" if ell == "nan"
        else "half-lengths must be positive") + "\n"
    assert not (out / "stefan.csv").exists()


@pytest.mark.parametrize("ell", ["0", "inf"])
def test_stefan_and_solve_refuse_a_half_length_alike(tmp_path, capsys, ell):
    """stefan and solve check the half-length by one rule: a zero or
    infinite ell is exit 2 with the same message from both."""
    errors = []
    for command in (["stefan"], ["solve", "--eps", "0.1"]):
        assert main([*command, "--j", "-0.02", "--ell", ell,
                     "--out", str(tmp_path / command[0])]) == EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "config error: " + (
        "half-lengths must be positive" if ell == "0"
        else "numeric values must be finite") + "\n"


@pytest.mark.parametrize("x0", ["0.3", "-0.3", "nan"])
def test_stefan_metastable_refuses_an_off_center_interface(tmp_path, capsys,
                                                           x0):
    """The metastable branch puts its interface at 0: a non-zero --x0 is a
    config error, as for a metastable config, not a stefan.json that
    records x0 = 0."""
    out = tmp_path / "s"
    assert main(["stefan", "--metastable", "--j", "0.02", "--ell", "1",
                 "--x0", x0, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: x0 = {float(x0):g} is ignored")
    assert not out.exists()


def test_stefan_solve_and_validate_refuse_a_metastable_x0_alike(tmp_path,
                                                               capsys):
    """x0 != 0 on the metastable branch is one rule with one message:
    stefan --metastable, solve --mode metastable and validate of that
    config print the same config error (exit 2)."""
    flags = ["--j", "0.02", "--x0", "0.3"]
    assert main(["stefan", "--metastable", "--ell", "1", *flags,
                 "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    stefan_err = capsys.readouterr().err
    assert main(["solve", "--mode", "metastable", "--eps", "0.1", *flags,
                 "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    solve_err = capsys.readouterr().err
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("mode = metastable\nj = 0.02\nx0 = 0.3\n")
    assert main(["validate", "--config", str(cfg_file)]) == EXIT_CONFIG
    assert stefan_err == solve_err == capsys.readouterr().err
    assert stefan_err == ("config error: x0 = 0.3 is ignored by mode "
                          "metastable: only asym places the interface off "
                          "center\n")


@pytest.mark.parametrize("mode, j, flags", [
    ("antisym", -0.02, []), ("metastable", 0.02, ["--metastable"])])
def test_stefan_and_validate_end_a_branch_at_the_same_place(
        tmp_path, capsys, mode, j, flags):
    """ell exactly at the branch's end (ell_j, ell_break) is infeasible for
    stefan and for validate of the matching config alike: exit 3, with
    "feasible": false in stefan.json and the same end in both messages.
    stefan used to write the stable solution on [-ell_j, ell_j]."""
    from mesostefan import stefan
    from mesostefan.thermo import make_params

    maximal = stefan._metastable_maximal if flags else stefan.solve_maximal
    ell = maximal(make_params(2.0), j).end
    out = tmp_path / "s"
    assert main(["stefan", *flags, "--j", str(j), "--ell", repr(ell),
                 "--out", str(out)]) == EXIT_INFEASIBLE
    assert json.loads((out / "stefan.json").read_text()) \
        == {"feasible": False, "ell_j": ell}
    assert not (out / "stefan.csv").exists()
    path = tmp_path / "cfg.txt"
    path.write_text(f"mode = {mode}\nj = {j}\nell = {ell!r}\n"
                    "eps_list = 0.1\nn0 = 2\n")
    assert main(["validate", "--config", str(path)]) == EXIT_INFEASIBLE
    printed = capsys.readouterr()
    end = f"not below the end {ell:.6g} of the"
    assert end in printed.err and end in printed.out


@pytest.mark.parametrize("beta", ["19", "1e300"])
def test_instanton_command_refuses_saturated_beta(tmp_path, capsys, beta):
    """A saturated m_beta is a config error before any step: no step-budget
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


TRACE_HEADER = "k,increment,ratio,residual,extrapolated"


def _solve_records_are_picard(trace):
    """Each step's residual column is the previous step's increment, only
    the last increment is below the loop's tolerance 1e-12, and the steps
    that extrapolated (with their row's ratio) are 0 or 1, never two in a
    row, the first no earlier than step 2."""
    rows = [line.split(",") for line in trace[1:]]
    assert [r[3] for r in rows[1:]] == [r[1] for r in rows[:-1]]
    increments = [float(r[1]) for r in rows]
    assert min(increments[:-1]) >= 1e-12 > increments[-1]
    jumps = [int(r[0]) for r in rows if r[4] == "1"]
    assert {r[4] for r in rows} <= {"0", "1"}
    assert jumps and jumps[0] >= 2
    assert all(b - a >= 2 for a, b in zip(jumps, jumps[1:]))


def test_solve_command_round_trip(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--mode", "antisym", "--beta", "2", "--eps", "0.1",
                 "--j", "-0.02", "--ell", "1", "--n0", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    grid, h, m, beta, shape, j = load_state(str(out / "state.csv"))
    assert (grid.epsilon, beta, shape, j) == (0.1, 2.0, "cos2", -0.02)
    assert np.all(np.diff(m) > 0)
    summary = json.loads((out / "solve.json").read_text())
    assert summary["monotone"] is True
    assert summary["lambda_steps"] == 6
    assert summary["picard_extrapolations"] == 3
    assert summary["residual"] < 1e-8
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) - 1 == summary["iters"]
    _solve_records_are_picard(trace)


def test_solve_asym_command(tmp_path):
    out = tmp_path / "asym"
    code = main(["solve", "--mode", "asym", "--beta", "2", "--eps", "0.1",
                 "--j", "-0.02", "--x0", "0.2", "--n0", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "solve.json").read_text())
    assert abs(summary["eps_x_eps"] - 0.2) < 0.1 * 0.05
    assert summary["G_report"]["weighted_ok"] is True


#: the extra solve.json keys of each mode, beyond the row's record, its
#: inputs and the state's residual
SOLVE_EXTRAS = {"antisym": {"monotone", "fixed_point_defect"},
                "metastable": {"monotone", "fixed_point_defect"},
                "asym": {"x_eps", "m_zero", "lambda_star", "G_report"}}


@pytest.mark.parametrize("mode, j, x0", [("antisym", -0.02, 0.0),
                                         ("metastable", 0.02, 0.0),
                                         ("asym", -0.02, 0.2)],
                         ids=["antisym", "metastable", "asym"])
def test_solve_writes_the_sweeps_row(tmp_path, mode, j, x0):
    """solve.json is the row.json of the one-scale sweep of the same config,
    every key with an equal value, plus the inputs, the residual and the
    mode's extras; off center solve also writes u* and r_eps."""
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"mode = {mode}\nj = {j}\nx0 = {x0}\neps_list = 0.1\n"
                        f"outdir = {tmp_path / 'sweep'}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_OK
    row = _strict_json(tmp_path / "sweep" / "eps_0.1" / "row.json")
    out = tmp_path / "solve"
    assert main(["solve", "--mode", mode, "--eps", "0.1", "--j", str(j),
                 "--x0", str(x0), "--out", str(out)]) == EXIT_OK
    summary = _strict_json(out / "solve.json")
    assert {k: summary.get(k) for k in row} == row
    assert set(summary) == set(row) | SOLVE_EXTRAS[mode] | {
        "beta", "j", "ell", "x0", "spacing", "n0", "residual"}
    assert (out / "u_star.csv").exists() == (mode == "asym")
    assert (out / "r_eps.csv").exists() == (mode == "asym")


@pytest.mark.parametrize("flags, config", [
    (["--mode", "antisym", "--j", "-0.02", "--x0", "0.3"],
     "mode = antisym\nj = -0.02\nx0 = 0.3\n"),
    (["--mode", "metastable", "--j", "0.02", "--x0", "-0.2"],
     "mode = metastable\nj = 0.02\nx0 = -0.2\n"),
    (["--mode", "asym", "--j", "-0.02", "--x0", "0.2", "--ell", "1.5"],
     "mode = asym\nj = -0.02\nx0 = 0.2\nell = 1.5\n"),
], ids=["antisym-x0", "metastable-x0", "asym-ell"])
def test_solve_refuses_a_flag_its_mode_ignores(tmp_path, capsys, flags,
                                               config):
    """x0 != 0 in a centred mode and ell != 1 off center are config errors
    (exit 2) of solve, with the message validate prints for that config."""
    out = tmp_path / "run"
    assert main(["solve", "--eps", "0.1"] + flags + ["--out", str(out)]) \
        == EXIT_CONFIG
    solve_err = capsys.readouterr().err
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(config + "eps_list = 0.1\n")
    assert main(["validate", "--config", str(cfg_file)]) == EXIT_CONFIG
    assert solve_err == capsys.readouterr().err
    assert solve_err.startswith("config error: ") and "ignored" in solve_err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["thermo", "--spacing", "0.025"], ["thermo", "--kernel", "quartic"],
    ["stefan", "--j", "-0.02", "--ell", "1", "--spacing", "0.025"],
    ["stefan", "--j", "-0.02", "--ell", "1", "--kernel", "quartic"],
    ["spectrum", "--state", "state.csv", "--spacing", "0.025"],
    ["spectrum", "--state", "state.csv", "--eps", "0.1"],
    ["spectrum", "--state", "state.csv", "--beta", "2"],
    ["spectrum", "--state", "state.csv", "--kernel", "cos2"],
], ids=["thermo-spacing", "thermo-kernel", "stefan-spacing", "stefan-kernel",
        "spectrum-spacing", "spectrum-eps", "spectrum-beta",
        "spectrum-kernel"])
def test_a_flag_no_command_reads_is_refused(argv, capsys):
    """A command takes only the flags it reads: any other is argparse's
    usage error (exit 2)."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_spectrum_command(tmp_path):
    out = tmp_path / "run"
    main(["solve", "--mode", "antisym", "--beta", "2", "--eps", "0.1",
          "--j", "-0.02", "--ell", "1", "--n0", "2", "--out", str(out)])
    spec_out = tmp_path / "spec"
    code = main(["spectrum", "--state", str(out / "state.csv"),
                 "--j", "-0.02", "--out", str(spec_out)])
    assert code == EXIT_OK
    data = json.loads((spec_out / "spectrum.json").read_text())
    assert 0.99 < data["lambda"] < 1.0
    assert data["lambda2"] < data["lambda"]
    # a centred state is exactly odd: its sectors ran, lambda from p
    assert data["odd_sectors"] is True
    for key in ("lambda_steps", "lambda2_steps"):
        assert type(data[key]) is int and data[key] >= 1
    ratio = data["C_check"]["one_minus_lambda_over_eps"]
    assert ratio == pytest.approx(data["C_check"]["C_instanton"], rel=0.05)


def _state_of(grid, h, m):
    """The state of (h, m) on ``grid`` at beta = 2 under the cos2 kernel,
    which save_state writes."""
    from mesostefan import meso

    params, kernel = cli._params_kernel(2.0, grid.spacing, "cos2")
    return meso.make_state(params, kernel, grid, h, m)


@pytest.mark.parametrize("flags", [
    ["--kernel", "quartic", "--eps", "0.1"], ["--beta", "1.5", "--eps", "0.05"],
], ids=["quartic", "beta-1.5"])
def test_spectrum_reads_the_operator_of_its_state(tmp_path, flags):
    """The state's sidecar records the beta and kernel it was solved with,
    and spectrum, which takes neither, gives the row's (1 - lambda)/eps
    under them to 1e-9 relative, not the value of beta = 2 and cos2."""
    run_dir, spec_dir = tmp_path / "run", tmp_path / "spec"
    assert main(["solve", "--j", "-0.02", *flags,
                 "--out", str(run_dir)]) == EXIT_OK
    side = json.loads((run_dir / "state.grid.json").read_text())
    row = _strict_json(run_dir / "solve.json")
    assert (side["beta"], side["kernel"]) == (
        row["beta"], "quartic" if "quartic" in flags else "cos2")
    assert main(["spectrum", "--state", str(run_dir / "state.csv"),
                 "--out", str(spec_dir)]) == EXIT_OK
    report = _strict_json(spec_dir / "spectrum.json")
    assert report["C_check"]["one_minus_lambda_over_eps"] == pytest.approx(
        row["lam_gap_ratio"], rel=1e-9)


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
#: the step counts and lambda's window of a solved row's row.json, which a
#: failed row has not
STEP_KEYS = {"picard_steps", "picard_extrapolations", "lambda_steps",
             "lambda_points"}
#: every key of a solved row's row.json; a failed row has "error" in place
#: of the step counts
SOLVED_ROW_KEYS = ROW_VALUES | STEP_KEYS | {"eps", "mode", "iters"}
#: Lanczos steps of the shipped rows' lambda at eps 0.025, 0.05, 0.1 (glob
#: order): centred from the interface slope, off center from u*
SHIPPED_LAMBDA_STEPS = {"antisym": [5, 5, 6], "metastable": [5, 5, 6],
                        "asym": [1, 1, 1]}
#: the points of their interface windows: TAIL_DECAYS / a = 6.55 from x = 0
#: on the half line, and on each side of the interface off center
SHIPPED_LAMBDA_POINTS = {"antisym": [132] * 3, "metastable": [132] * 3,
                         "asym": [263] * 3}


def test_json_artifacts_are_strict(tmp_path):
    """Every shipped row, an error row and a spectrum run without --j parse
    as strict JSON: a value that does not apply is null.  A shipped row has
    every solved key, with its Lanczos steps."""
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
            assert set(row) == SOLVED_ROW_KEYS, path
        assert [row["lambda_steps"] for row in rows] \
            == SHIPPED_LAMBDA_STEPS[rows[0]["mode"]], path
        assert [row["lambda_points"] for row in rows] \
            == SHIPPED_LAMBDA_POINTS[rows[0]["mode"]], path

    out = tmp_path / "bad"
    cfg_file.write_text("beta = 2.0\nj = -0.2\nell = 1.0\nmode = antisym\n"
                        f"eps_list = 0.1\noutdir = {out}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_INFEASIBLE
    row = _strict_json(out / "eps_0.1" / "row.json")
    assert {k for k in ROW_VALUES if row[k] is None} == ROW_VALUES
    assert set(row) == SOLVED_ROW_KEYS - STEP_KEYS | {"error"}

    run_dir, spec_dir = tmp_path / "run", tmp_path / "spec"
    assert main(["solve", "--eps", "0.1", "--j", "-0.02", "--ell", "1",
                 "--out", str(run_dir)]) == EXIT_OK
    assert main(["spectrum", "--state", str(run_dir / "state.csv"),
                 "--out", str(spec_dir)]) == EXIT_OK
    spectrum = _strict_json(spec_dir / "spectrum.json")
    assert spectrum["C_check"]["C_instanton"] is None
    assert (spectrum["lambda_points"], spectrum["lambda2_points"]) \
        == (132, 201)


def test_dump_json_writes_numpy_bools_and_refuses_nan(tmp_path):
    path = tmp_path / "out.json"
    dump_json(path, {"ok": np.bool_(True), "n": np.int64(3)})
    assert json.loads(path.read_text()) == {"ok": True, "n": 3}
    assert '"ok": true' in path.read_text()
    with pytest.raises(ValueError):
        dump_json(path, {"value": float("nan")})


@pytest.mark.parametrize("value", [object(), np.zeros(2)],
                         ids=["object", "array"])
def test_dump_json_refuses_what_json_cannot_hold(tmp_path, value):
    """A value that is neither JSON nor a numpy scalar, an array among them,
    is a TypeError naming its type, and no file is written."""
    path = tmp_path / "out.json"
    message = re.escape(f"cannot serialize {type(value)}")
    with pytest.raises(TypeError, match=message):
        dump_json(path, {"value": value})
    assert not path.exists()


def test_failed_dump_json_writes_no_file(tmp_path):
    """The payload is serialised before the file opens: a NaN after a key
    that sorts first leaves no truncated file behind."""
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        dump_json(path, {"a": 1.0, "value": float("nan")})
    assert not path.exists()


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
    """One macroscopic solution per config and one instanton per (beta,
    spacing, kernel) in a process: a config at a key an earlier one used
    computes no instanton, one at another spacing or kernel computes its
    own, and every config's rows are those of a cold process."""
    from mesostefan import instanton, stefan

    calls = {"instanton": 0, "macro": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # (mode, j, x0, macroscopic solver, spacing, kernel, instanton computed)
    runs = (("antisym", -0.02, 0.0, "solve_maximal", 0.05, "cos2", 1),
            ("metastable", 0.02, 0.0, "_metastable_maximal", 0.05, "cos2", 0),
            ("asym", -0.02, 0.2, "solve_maximal", 0.05, "cos2", 0),
            ("antisym", -0.02, 0.0, "solve_maximal", 0.025, "cos2", 1),
            ("antisym", -0.02, 0.0, "solve_maximal", 0.05, "quartic", 1),
            ("metastable", 0.02, 0.0, "_metastable_maximal", 0.025, "cos2",
             0))
    configs = [RunConfig(beta=2.0, j=j, x0=x0, ell=1.0, mode=mode,
                         eps_list=[0.1, 0.05], n0=2, spacing=spacing,
                         kernel=kernel)
               for mode, j, x0, _, spacing, kernel, _ in runs]
    cold = []
    for cfg in configs:
        cli._params_kernel.cache_clear()
        cli._fixed_inputs.cache_clear()
        cold.append([cli._solve_one(cfg, eps, cli._shared_inputs(cfg))[0]
                     .csv_line() for eps in cfg.eps_list])
    cli._params_kernel.cache_clear()
    cli._fixed_inputs.cache_clear()
    for cfg, (_, _, _, macro_fn, _, _, computed), rows in zip(configs, runs,
                                                             cold):
        with monkeypatch.context() as mp:
            calls.update(instanton=0, macro=0)
            mp.setattr(instanton, "compute_instanton",
                       counted("instanton", instanton.compute_instanton))
            mp.setattr(stefan, macro_fn,
                       counted("macro", getattr(stefan, macro_fn)))
            report = run(cfg)
        assert calls == {"instanton": computed, "macro": 1}, cfg
        assert [r.csv_line() for r in report.rows] == rows


@pytest.mark.parametrize("j, message", [
    (-0.02, "metastable arrangement needs a positive current"),
    (0.02, "spacing must be <= 0.05")])
def test_shared_inputs_report_the_first_failing_one(j, message):
    """The kept instanton does not move its error ahead of the macroscopic
    solution's: at spacing 0.08 the instanton fails, and a metastable
    config with j < 0 still reports its current."""
    cfg = RunConfig(mode="metastable", j=j, spacing=0.08, eps_list=[0.1])
    for _ in range(2):
        assert validate(cfg) == [(EXIT_CONFIG, f"config error: {message}")]
    assert run(cfg).rows[0].error.endswith(message)


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
    solve = antisym.solve_centred

    def failing(macro, kernel, instanton, eps, *args):
        if eps == 0.05:
            raise exc_type("injected")
        return solve(macro, kernel, instanton, eps, *args)

    monkeypatch.setattr(antisym, "solve_centred", failing)
    out = tmp_path / "sweep"
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("beta = 2.0\nj = -0.02\nmode = antisym\n"
                        f"eps_list = 0.1, 0.05\nn0 = 2\noutdir = {out}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_NUMERICAL
    ok = json.loads((out / "eps_0.1" / "row.json").read_text())
    bad = json.loads((out / "eps_0.05" / "row.json").read_text())
    assert "error" not in ok and ok["iters"] > 0
    assert ok["picard_steps"] == ok["iters"] - 1 > 0
    assert ok["lambda_steps"] >= 1
    assert "projected_solves" not in ok
    assert bad["iters"] == -EXIT_NUMERICAL
    assert bad["error"] == f"{exc_type.__name__}: injected"
    assert not STEP_KEYS & set(bad)


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
    """row.json totals the fixed-point updates of the row's loops, one fewer
    than the loop's steps: iters - 1 centred, off center with the extended
    solve's added; sweep.csv keeps its columns."""
    out = tmp_path / mode
    cfg = RunConfig(beta=2.0, j=j, x0=x0, mode=mode, eps_list=[0.1], n0=2,
                    outdir=str(out))
    row, res = cli._solve_one(cfg, 0.1, cli._shared_inputs(cfg))
    extra = len(res.problem.extended_trace.increments) - 1 \
        if mode == "asym" else 0
    assert row.picard_steps == row.iters - 1 + extra
    assert row.iters == len(res.trace.increments) > 1
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"beta = 2.0\nj = {j}\nx0 = {x0}\nmode = {mode}\n"
                        f"eps_list = 0.1\nn0 = 2\noutdir = {out}\n")
    assert main(["sweep", "--config", str(cfg_file)]) == EXIT_OK
    record = json.loads((out / "eps_0.1" / "row.json").read_text())
    for key in STEP_KEYS:
        assert record[key] == getattr(row, key)
    assert row.picard_extrapolations == sum(
        len(t.extrapolated) for t in ([res.problem.extended_trace]
                                      if mode == "asym" else []) + [res.trace])
    assert "projected_solves" not in record
    assert (out / "sweep.csv").read_text().splitlines()[0] == SWEEP_HEADER


@pytest.mark.parametrize("errors, code", [
    ({}, EXIT_OK),
    ({0.1: GridError}, EXIT_CONFIG),
    ({0.05: InfeasibleError}, EXIT_INFEASIBLE),
    ({0.1: DomainError, 0.05: InfeasibleError}, EXIT_INFEASIBLE),
])
def test_validate_exits_with_highest_finding_code(tmp_path, monkeypatch,
                                                  capsys, errors, code):
    check = antisym.check_centred

    def checked(macro, kernel, instanton, eps, *args):
        if eps in errors:
            raise errors[eps]("injected")
        return check(macro, kernel, instanton, eps, *args)

    monkeypatch.setattr(antisym, "check_centred", checked)
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


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    """main parses with one parser per process: a call that fails argument
    parsing after reading a value leaves the next call's files, output and
    exit code as they were, and every parse returns its own namespace."""
    assert cli.build_parser() is cli.build_parser()

    def thermo(out):
        code = main(["thermo", "--out", str(out)])
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        return code, capsys.readouterr().out, files

    first = thermo(tmp_path / "first")
    for argv in (["thermo", "--beta", "3", "--bogus"],
                 ["thermo", "--beta", "x"], ["spectrum", "--j", "-0.02"],
                 ["nothing"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_CONFIG
    capsys.readouterr()
    assert thermo(tmp_path / "second") == first
    assert first[0] == EXIT_OK

    argv = ["solve", "--eps", "0.05", "--j", "-0.02", "--ell", "1"]
    one, two = (cli.build_parser().parse_args(argv) for _ in range(2))
    assert one is not two and vars(one) == vars(two)
    one.eps = 0.1
    assert two.eps == 0.05
    assert cli.build_parser().parse_args(argv).eps == 0.05


def test_one_n0_default(tmp_path):
    """The config and the --n0 flag of every mode default to the same n0, which no
    check or solver defaults (nor its instanton or macroscopic solution),
    and solve runs without the flag."""
    parser = cli.build_parser()
    for argv in (["solve", "--eps", "0.05", "--j", "-0.02", "--ell", "1"],
                 ["solve", "--mode", "asym", "--eps", "0.05", "--j", "-0.02",
                  "--x0", "0.2"]):
        assert parser.parse_args(argv).n0 == antisym.DEFAULT_N0
    assert RunConfig().n0 == antisym.DEFAULT_N0
    for solver in (antisym.check_centred, antisym.solve_centred,
                   asym.check_off_center, asym.build_problem,
                   asym.solve_off_center):
        params = inspect.signature(solver).parameters
        assert list(params)[:3] == ["macro", "kernel", "instanton"]
        assert list(params)[-1] == "n0"
        assert all(p.default is inspect.Parameter.empty
                   for p in params.values()), solver.__name__
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
    """solve --mode asym writes the same trace.csv as a centred solve, one
    row per step; row 0 holds the residual of the loop's start."""
    out = tmp_path / "asym"
    assert main(["solve", "--mode", "asym", "--beta", "2", "--eps", "0.1",
                 "--j", "-0.02", "--x0", "0.2", "--n0", "2",
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "solve.json").read_text())
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) - 1 == summary["iters"]
    _solve_records_are_picard(trace)
    cfg = RunConfig(j=-0.02, x0=0.2, mode="asym", eps_list=[0.1], n0=2)
    _, res = cli._solve_one(cfg, 0.1, cli._shared_inputs(cfg))
    assert float(trace[1].split(",")[3]) == res.trace.residuals[0]
    assert float(trace[-1].split(",")[1]) < 1e-9


def test_spectrum_without_current_needs_no_instanton(tmp_path, capsys):
    """Only C_instanton reads the instanton, so spectrum without --j
    reports a state at spacing 0.1 (grids.MAX_SPACING), coarser than the
    instanton's 0.05, with C_instanton null; with --j the instanton's
    spacing check makes it a config error."""
    from mesostefan import meso, spectral
    from mesostefan.grids import build_grid, build_kernel
    from mesostefan.profiles import save_state
    from mesostefan.thermo import make_params

    grid = build_grid(0.1, 1.0, 1.0, 0.1)
    state = meso.exact_state(make_params(2.0), build_kernel(0.1), grid,
                             0.9 * np.tanh(grid.points))
    path = str(tmp_path / "state.csv")
    save_state(path, state)
    out = tmp_path / "spec"
    assert main(["spectrum", "--state", path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "spectrum.json").read_text())
    assert report["C_check"]["C_instanton"] is None
    assert report["lambda"] == pytest.approx(
        spectral.leading_eigenpair(state).lambda_, rel=1e-12)
    assert main(["spectrum", "--state", path, "--j", "-0.02",
                 "--out", str(tmp_path / "spec-j")]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: spacing must be <= 0.05\n"


@pytest.fixture(scope="module")
def stored_state(tmp_path_factory):
    """The state file of an antisym solve at eps = 0.1."""
    out = tmp_path_factory.mktemp("stored") / "run"
    assert main(["solve", "--eps", "0.1", "--j", "-0.02", "--ell", "1",
                 "--out", str(out)]) == EXIT_OK
    return str(out / "state.csv")


@pytest.mark.parametrize("flag, value", [("--j", "nan"), ("--j", "inf")])
def test_spectrum_refuses_a_non_finite_input(stored_state, tmp_path, capsys,
                                             flag, value):
    """A non-finite --j is a config error (exit 2) that writes no
    spectrum.json, like a non-finite value of the other commands."""
    out = tmp_path / "spec"
    assert main(["spectrum", "--state", stored_state, flag, value,
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --j must be finite\n"
    assert not (out / "spectrum.json").exists()


def _without_current(state, tmp_path):
    """A copy of a state whose sidecar records no current, as the sidecars
    written before it recorded j."""
    root = os.path.splitext(state)[0]
    older = tmp_path / "older"
    older.mkdir()
    for ext in (".csv", ".npy"):
        shutil.copy(root + ext, older / f"state{ext}")
    side = json.loads(open(root + ".grid.json").read())
    del side["j"]
    (older / "state.grid.json").write_text(json.dumps(side) + "\n")
    return str(older / "state.csv")


def test_spectrum_at_zero_current(stored_state, tmp_path):
    """--j 0 gives C = |j| mean / norm_sq = 0.0, not null, on a state whose
    sidecar records no current (no solve runs at j = 0)."""
    out = tmp_path / "spec"
    assert main(["spectrum", "--state", _without_current(stored_state,
                                                          tmp_path),
                 "--j", "0", "--out", str(out)]) == EXIT_OK
    assert _strict_json(out / "spectrum.json")["C_check"]["C_instanton"] \
        == 0.0


def test_spectrum_refuses_another_current(stored_state, tmp_path, capsys):
    """A --j other than the current the state's sidecar records is a config
    error (exit 2) that writes no spectrum.json; the state's own current
    gives its C, and a sidecar that records none takes any --j, as before
    it recorded one."""
    out = tmp_path / "spec"
    assert main(["spectrum", "--state", stored_state, "--j", "-0.05",
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: --j -0.05 is not the current j = -0.02 the state "
        f"{stored_state} was solved at\n")
    assert not (out / "spectrum.json").exists()
    assert main(["spectrum", "--state", stored_state, "--j", "-0.02",
                 "--out", str(out)]) == EXIT_OK
    own = _strict_json(out / "spectrum.json")["C_check"]["C_instanton"]
    assert main(["spectrum", "--state", _without_current(stored_state,
                                                          tmp_path),
                 "--j", "-0.05", "--out", str(tmp_path / "older-spec")]) \
        == EXIT_OK
    other = _strict_json(tmp_path / "older-spec" / "spectrum.json")
    assert other["C_check"]["C_instanton"] == pytest.approx(2.5 * own,
                                                            rel=1e-12)


@pytest.fixture
def conv_sizes(monkeypatch):
    """The point counts of the convolutions the linearized operator and
    ``make_state`` form (``meso.conv_values``)."""
    from mesostefan import meso

    sizes = []
    real = meso.conv_values

    def spy(kernel, grid, values, work=None):
        sizes.append(grid.n)
        return real(kernel, grid, values, work)

    monkeypatch.setattr(meso, "conv_values", spy)
    return sizes


def _full_grid_spectrum(path):
    """The reference: lambda of the dense leading pair and lambda2 on its
    vector's complement, each on the whole grid of a stored state (of at
    most about 2 000 points), from the arrays spectrum loads."""
    from mesostefan import meso

    grid, h, m, beta, shape, _ = load_state(path)
    params, kernel = cli._params_kernel(beta, grid.spacing, shape)
    state = meso.make_state(params, kernel, grid, h, m)
    lam, u = dense_leading_pair(state)
    return grid, lam, full_grid_second(state, u)[0]


def _odd_half_line(path):
    """The state spectrum solves an exactly odd stored state on: its odd
    half line."""
    from mesostefan import meso

    grid, h, m, beta, shape, _ = load_state(path)
    params, kernel = cli._params_kernel(beta, grid.spacing, shape)
    c = grid.center_index
    return meso.make_state(params, kernel, grid.half_line(), h[c:], m[c:])


def _spectrum(path, out):
    assert main(["spectrum", "--state", path, "--out", str(out)]) == EXIT_OK
    return _strict_json(out / "spectrum.json")


#: lambda2's (points, Lanczos steps) per window run at eps = 0.05: the
#: stable odd sector's first window is refused at its cut and hands its
#: Ritz vector on; the metastable one's for p >= theta outside, and the
#: whole half line runs from the cold start
LAMBDA2_WINDOWS = {"antisym": ((132, 12), (263, 1)),
                   "metastable-0.09": ((132, 15), (401, 19))}


@pytest.mark.parametrize("command", [
    ["--mode", "antisym", "--j", "-0.02"],
    ["--mode", "metastable", "--j", "0.09"],
], ids=list(LAMBDA2_WINDOWS))
def test_spectrum_of_an_odd_state_runs_on_its_sectors(tmp_path, conv_sizes,
                                                      command, request):
    """On an exactly odd state spectrum makes the state's convolution on the
    odd half line, n/2 + 1 points, and every other on a window of it from
    x = 0, lambda's on less than all of it (metastable lambda2 ends on the
    whole half line).  Its lambda2 and (1 - lambda)/eps are those of the
    pair and the Lanczos recurrence on the whole full grid of the same
    state to 1e-14 and 1e-10 relative.  Its step counts are the sector
    recurrences': lambda's on the even view's window, after the state's
    own convolution, and last lambda2's, those of every window it ran
    (LAMBDA2_WINDOWS)."""
    from mesostefan import spectral

    run_dir = tmp_path / "run"
    assert main(["solve", "--eps", "0.05", "--ell", "1", *command,
                 "--out", str(run_dir)]) == EXIT_OK
    state = str(run_dir / "state.csv")
    del conv_sizes[:]
    report = _spectrum(state, tmp_path / "spec")
    sizes = conv_sizes[:]
    grid, lam_full, lam2 = _full_grid_spectrum(state)
    assert report["odd_sectors"] is True
    assert abs(report["lambda2"] - lam2) <= 1e-14
    gap = (1.0 - lam_full) / grid.epsilon
    assert abs(report["C_check"]["one_minus_lambda_over_eps"] - gap) \
        <= 1e-10 * abs(gap)
    half = _odd_half_line(state)
    lam = spectral.leading_eigenvalue(half.even_half())
    lam2 = spectral.second_eigenvalue(half)
    assert report["lambda"] == lam and report["lambda2"] == lam2
    steps, points = report["lambda_steps"], report["lambda_points"]
    assert (steps, points) == (lam.steps, lam.points)
    assert (report["lambda2_steps"], report["lambda2_points"]) \
        == (lam2.steps, lam2.points)
    assert sizes[:1 + steps] == [grid.n // 2 + 1] + [points] * steps
    windows = LAMBDA2_WINDOWS[request.node.callspec.id]
    assert sizes[1 + steps:] == [n for n, k in windows for _ in range(k)]
    assert (lam2.steps, lam2.points) == (sum(k for _, k in windows),
                                         windows[-1][0])
    assert points < grid.n // 2 + 1 and max(sizes) == grid.n // 2 + 1


def test_spectrum_of_a_state_that_is_not_odd_runs_about_the_peak_of_p(
        tmp_path, conv_sizes):
    """An off-center state, and a centred one with one m value moved by an
    ulp, are solved on windows of the full grid about the peak of p: every
    convolution but the state's own has fewer than its n points.  The
    off-center (1 - lambda)/eps is the row's lam_gap_ratio to 1e-9 and the
    whole grid's to 1e-10, lambda2 the whole grid's to 1e-14, and the
    moved state's numbers are the odd one's to 1e-9 and 1e-12."""
    from mesostefan.profiles import save_state

    runs = {}
    for name, command in (("asym", ["--mode", "asym", "--x0", "0.2"]),
                          ("antisym", ["--ell", "1"])):
        runs[name] = tmp_path / name
        assert main(["solve", "--eps", "0.05", "--j", "-0.02", *command,
                     "--out", str(runs[name])]) == EXIT_OK
    asym_state = str(runs["asym"] / "state.csv")
    row = _strict_json(runs["asym"] / "solve.json")
    del conv_sizes[:]
    report = _spectrum(asym_state, tmp_path / "spec-asym")
    sizes = conv_sizes[:]
    grid, lam, lam2 = _full_grid_spectrum(asym_state)
    assert sizes[0] == grid.n and max(sizes[1:]) < grid.n
    assert (report["lambda_points"], report["lambda2_points"]) == (263, 525)
    assert report["odd_sectors"] is False
    ratio = report["C_check"]["one_minus_lambda_over_eps"]
    assert ratio == pytest.approx(row["lam_gap_ratio"], rel=1e-9)
    gap = (1.0 - lam) / grid.epsilon
    assert abs(ratio - gap) <= 1e-10 * abs(gap)
    assert abs(report["lambda2"] - lam2) <= 1e-14

    odd = _spectrum(str(runs["antisym"] / "state.csv"), tmp_path / "spec-odd")
    grid, h, m, _, _, _ = load_state(str(runs["antisym"] / "state.csv"))
    k = grid.n // 4
    m[k] = np.nextafter(m[k], np.inf)
    moved = str(tmp_path / "moved" / "state.csv")
    os.makedirs(os.path.dirname(moved))
    save_state(moved, _state_of(grid, h, m))
    del conv_sizes[:]
    report = _spectrum(moved, tmp_path / "spec-moved")
    assert conv_sizes[0] == grid.n and max(conv_sizes[1:]) < grid.n
    assert report["odd_sectors"] is False
    assert report["C_check"]["one_minus_lambda_over_eps"] == pytest.approx(
        odd["C_check"]["one_minus_lambda_over_eps"], rel=1e-9)
    assert report["lambda2"] == pytest.approx(odd["lambda2"], rel=1e-12)


@pytest.fixture(scope="module")
def fine_states(tmp_path_factory):
    """The stored states of a solve at eps = 1e-4 (n = 400 001), centred
    and off center at x0 = 0.2, and spectrum's report on each."""
    root = tmp_path_factory.mktemp("fine")
    runs = {}
    for name, command in (("antisym", ["--mode", "antisym", "--ell", "1"]),
                          ("asym", ["--mode", "asym", "--x0", "0.2"])):
        run = root / name
        assert main(["solve", "--eps", "0.0001", "--j", "-0.02", *command,
                     "--out", str(run)]) == EXIT_OK
        runs[name] = (str(run / "state.csv"),
                      _spectrum(str(run / "state.csv"), run / "spectrum"))
    return runs


@pytest.mark.parametrize("name", ["antisym", "asym"])
def test_spectrum_of_a_fine_state_is_the_whole_grid_one(fine_states, name):
    """spectrum's lambda and lambda2 of a stored state at eps = 1e-4, run on
    interface windows, are the whole-grid Lanczos recurrences' of oracles.py
    to 1e-14: on the centred state's sectors, lambda from p on its even view
    and lambda2 as its odd half line's top; off center lambda from p, and
    lambda2 on the complement of the dense leading pair on the window of
    the package's pair, 0 past it."""
    from mesostefan import meso, spectral

    path, report = fine_states[name]
    grid, h, m, beta, shape, _ = load_state(path)
    params, kernel = cli._params_kernel(beta, grid.spacing, shape)
    assert grid.n == 400_001
    if name == "asym":
        state = meso.make_state(params, kernel, grid, h, m)
        pair = spectral.leading_eigenpair(state)
        lo, hi = pair.lo, pair.lo + pair.u.size
        u = np.zeros(grid.n)
        u[lo:hi] = dense_leading_pair(state.window(lo, hi))[1]
        lam, lam2 = full_grid_ritz(state)[0], full_grid_second(state, u)[0]
    else:
        c = grid.center_index
        odd = meso.make_state(params, kernel, grid.half_line(), h[c:], m[c:])
        lam, lam2 = full_grid_ritz(odd.even_half())[0], \
            full_grid_second(odd)[0]
    assert report["odd_sectors"] is (name == "antisym")
    assert abs(report["lambda"] - lam) <= 1e-14
    assert abs(report["lambda2"] - lam2) <= 1e-14


@pytest.mark.parametrize("flags", [
    ["--mode", "antisym", "--j", "-0.02"],
    ["--mode", "metastable", "--j", "0.02"],
    ["--mode", "antisym", "--j", "-0.02", "--kernel", "quartic", "--beta",
     "1.5"],
], ids=["antisym", "metastable", "quartic"])
def test_slope_started_lambda_is_spectrums_on_the_stored_state(tmp_path,
                                                               flags):
    """A centred solve takes lambda on its even half line from the
    interface slope, on the state it solved; spectrum from p, on the state
    read back from its files under the beta and kernel its sidecar records.
    Both are the top Ritz value of a Lanczos recurrence: (1 - lambda)/eps
    agrees to 1e-9 relative at eps = 0.0125."""
    out = tmp_path / "solve"
    assert main(["solve", "--eps", "0.0125", "--ell", "1", *flags, "--out",
                 str(out)]) == EXIT_OK
    slope = _strict_json(out / "solve.json")["lam_gap_ratio"]
    stored = _spectrum(str(out / "state.csv"), tmp_path / "spectrum")
    ratio = stored["C_check"]["one_minus_lambda_over_eps"]
    assert abs(slope - ratio) <= 1e-9 * abs(ratio)


def test_solves_and_spectra_are_byte_identical_with_one_and_two_blas_threads(
        tmp_path):
    """A centred and an off-center solve at n = 12 801, and spectrum on each
    stored state, write the same bytes with one and two OpenBLAS threads,
    each command in its own process.  OpenBLAS splits a 1-D dot across
    threads from about 10 000 points, so a BLAS dot over the grid would
    show.  The spectra run on interface windows (a few hundred to two
    thousand points) of the odd half line (6 401 points), where lambda2's
    first window hands its Ritz vector on, and of the full grid, as do u*
    and the off-center Newton step."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    solve = ["solve", "--eps", "0.0125", "--spacing", "0.0125", "--j",
             "-0.02"]
    for t in (1, 2):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": str(t)}
        for argv in ([*solve, "--ell", "1", "--n0", "2", "--out",
                      f"solve{t}"],
                     ["spectrum", "--state", f"solve{t}/state.csv", "--j",
                      "-0.02", "--out", f"spectrum{t}"],
                     [*solve, "--mode", "asym", "--x0", "0.2", "--out",
                      f"asym{t}"],
                     ["spectrum", "--state", f"asym{t}/state.csv", "--j",
                      "-0.02", "--out", f"asym-spectrum{t}"]):
            subprocess.run([sys.executable, "-m", "mesostefan.cli", *argv],
                           cwd=tmp_path, env=env, check=True,
                           capture_output=True)
    # u* and r_eps: the window products of the off-center set-up
    for path in ("solve{}/state.csv", "solve{}/state.npy",
                 "spectrum{}/spectrum.json", "asym{}/state.csv",
                 "asym{}/state.npy", "asym{}/solve.json",
                 "asym{}/u_star.csv", "asym{}/r_eps.csv",
                 "asym-spectrum{}/spectrum.json"):
        one, two = (tmp_path / path.format(t) for t in (1, 2))
        assert one.read_bytes() == two.read_bytes(), path


def test_state_sidecar_mismatch_is_config_error(tmp_path, capsys):
    """A grid sidecar from another eps next to a state file, with the
    stamps of the state's own files, is a GridError (exit 2), not a
    crash."""
    runs = {}
    for eps in ("0.1", "0.05"):
        runs[eps] = tmp_path / eps
        main(["solve", "--beta", "2", "--eps", eps, "--j", "-0.02",
              "--ell", "1", "--n0", "2", "--out", str(runs[eps])])
    own, other = (json.loads((runs[eps] / "state.grid.json").read_text())
                  for eps in ("0.1", "0.05"))
    (runs["0.1"] / "state.grid.json").write_text(json.dumps(
        {**other, "csv": own["csv"], "npy": own["npy"]}) + "\n")
    state = str(runs["0.1"] / "state.csv")
    with pytest.raises(GridError, match="does not match its grid descriptor"):
        load_state(state)
    code = main(["spectrum", "--state", state, "--j", "-0.02",
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
    code = main(["spectrum", "--state", state, "--j", "-0.02",
                 "--out", str(spec_out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and state in err
    assert not spec_out.exists()


_GRID = '{"epsilon": 0.1, "left": 1.0, "right": 1.0, "spacing": 0.05'


@pytest.mark.parametrize("sidecar", [
    '{"epsilon": 0.1, "left"',
    '{"epsilon": 0.1, "right": 1.0, "spacing": 0.05}',
    '{"epsilon": 0.1, "left": "one", "right": 1.0, "spacing": 0.05}',
    '[0.1, 1.0, 1.0, 0.05]',
    _GRID + ', "kernel": "cos2"}',
    _GRID + ', "beta": 2.0}',
    _GRID + ', "beta": "x", "kernel": "cos2"}',
    _GRID + ', "beta": 2.0, "kernel": "hexic"}',
], ids=["truncated", "missing-key", "non-numeric", "list", "no-beta",
        "no-kernel", "beta-x", "kernel-hexic"])
def test_malformed_sidecar_is_config_error(tmp_path, sidecar):
    """A state sidecar that is not a JSON object with the grid's numbers,
    a numeric beta and a known kernel shape is a config error naming it
    that asks for a new solve (exit 2), not a traceback: a sidecar of an
    earlier version names no beta or kernel, and no default stands in."""
    run_dir = tmp_path / "run"
    main(["solve", "--beta", "2", "--eps", "0.1", "--j", "-0.02",
          "--ell", "1", "--n0", "2", "--out", str(run_dir)])
    side = run_dir / "state.grid.json"
    side.write_text(sidecar + "\n")
    with pytest.raises(GridError, match="; solve the state again$"):
        load_state(str(run_dir / "state.csv"))
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
    assert proc.stderr.endswith("; solve the state again\n")
    assert not (tmp_path / "spec").exists()


@pytest.mark.parametrize("edit", [
    lambda rows: rows[:5] + ["0.1,abc,0.3"] + rows[6:],
    lambda rows: rows[:5] + ["0.1,0.2"] + rows[6:],
    lambda rows: rows[:5] + ["0.1,0.2,0.3,0.4"] + rows[6:],
    lambda rows: rows[:1],
    lambda rows: ["x,h,m,extra"] + rows[1:],
], ids=["bad-token", "short-row", "long-row", "no-rows", "long-header"])
def test_malformed_state_is_config_error(tmp_path, capsys, edit):
    """A bad token, a ragged row, no rows or a header that does not fit the
    rows is a CSV that its sidecar does not stamp: a GridError naming the
    file that asks for a new solve (exit 2), not a crash."""
    run_dir = tmp_path / "run"
    main(["solve", "--beta", "2", "--eps", "0.1", "--j", "-0.02",
          "--ell", "1", "--n0", "2", "--out", str(run_dir)])
    state = run_dir / "state.csv"
    rows = state.read_text().splitlines()
    state.write_text("\n".join(edit(rows)) + "\n")
    with pytest.raises(GridError, match="; solve the state again$") as info:
        load_state(str(state))
    assert str(info.value).startswith(f"{state} is not the file that ")
    code = main(["spectrum", "--state", str(state),
                 "--j", "-0.02", "--out", str(tmp_path / "spec")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {state} is not the file that ")
    assert not (tmp_path / "spec").exists()


def test_state_columns_parse_like_float(tmp_path):
    """The state read back holds the doubles that float() parses from the
    CSV's 17-digit columns."""
    run_dir = tmp_path / "run"
    main(["solve", "--beta", "2", "--eps", "0.05", "--j", "-0.02",
          "--ell", "1", "--n0", "2", "--out", str(run_dir)])
    path = run_dir / "state.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    by_float = np.array([[float(tok) for tok in row] for row in rows])
    _, h, m, _, _, _ = load_state(str(path))
    assert np.array_equal(np.stack([h, m], axis=1).view(np.int64),
                          by_float[:, 1:].view(np.int64))


def _bits(*columns):
    return np.stack(columns).view(np.int64)


@pytest.mark.parametrize("eps", ["0.1", "0.0125"])
@pytest.mark.parametrize("command", [
    ["solve", "--mode", "antisym", "--j", "-0.02", "--ell", "1"],
    ["solve", "--mode", "metastable", "--j", "0.02", "--ell", "1"],
    ["solve", "--mode", "asym", "--j", "-0.02", "--x0", "0.2"],
], ids=["antisym", "metastable", "asym"])
def test_state_copy_is_the_parsed_csv(tmp_path, command, eps):
    """A state read from its binary copy holds x, h and m bitwise equal to
    np.loadtxt's parse of its CSV."""
    run_dir = tmp_path / "run"
    assert main(command + ["--eps", eps, "--out", str(run_dir)]) == EXIT_OK
    state = str(run_dir / "state.csv")
    grid, h, m, _, _, _ = load_state(state)
    x, *parsed = _columns(state, "x", "h", "m")
    assert np.array_equal(_bits(grid.points, h, m), _bits(x, *parsed))
    assert np.array_equal(_bits(*np.load(run_dir / "state.npy")),
                          _bits(x, *parsed))


def test_state_copy_opens_each_file_once(tmp_path, monkeypatch):
    """Read from its binary copy, a state opens its CSV (for the stamp),
    its sidecar and its copy once each: the copy's stamp and arrays come
    from one read of it."""
    import builtins

    run_dir = tmp_path / "run"
    assert main(["solve", "--eps", "0.1", "--j", "-0.02",
                 "--out", str(run_dir)]) == EXIT_OK
    opened = []
    real = builtins.open

    def counted(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return real(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", counted)
        grid, h, m, _, _, _ = load_state(str(run_dir / "state.csv"))
    assert sorted(opened) == ["state.csv", "state.grid.json", "state.npy"]
    assert np.array_equal(_bits(grid.points, h, m),
                          _bits(*np.load(run_dir / "state.npy")))


@pytest.mark.parametrize("eps", [0.1, 0.0015625], ids=["401", "25601"])
def test_state_copy_is_np_save_of_the_stacked_rows(tmp_path, eps):
    """save_state writes the copy's header and then x, h and m one at a
    time, with no stacked (3, n) array; the file is byte for byte what
    np.save writes for that array."""
    from io import BytesIO

    from mesostefan.grids import build_grid
    from mesostefan.profiles import save_state

    g = build_grid(eps, 1.0, 1.0, 0.05)
    h, m = np.sin(g.points) / 7.0, np.tanh(g.points)
    save_state(str(tmp_path / "state.csv"), _state_of(g, h, m))
    expect = BytesIO()
    np.save(expect, np.array([g.points, h, m], dtype=float))
    assert (tmp_path / "state.npy").read_bytes() == expect.getvalue()


def _edit_rows(path, edit):
    rows = path.read_text().splitlines()
    path.write_text("\n".join(edit(rows)) + "\n")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-100])


#: missing, stale, edited, truncated and foreign files next to a state
#: ("run", the CSV's own run; "other", a solve on the same grid at another
#: current)
_STATE_DAMAGES = {
    "no-copy": lambda run, other: (run / "state.npy").unlink(),
    "earlier-version": lambda run, other: (
        shutil.copy(other / "state.csv", run / "state.csv"),
        (run / "state.grid.json").write_text(json.dumps({
            k: v for k, v in json.loads(
                (run / "state.grid.json").read_text()).items()
            if k not in ("csv", "npy")}) + "\n")),
    "edited-csv": lambda run, other: _edit_rows(
        run / "state.csv",
        lambda rows: rows[:5] + [rows[5].split(",")[0] + ",0.5,0.25"]
        + rows[6:]),
    "foreign-copy": lambda run, other: shutil.copy(other / "state.npy",
                                                   run / "state.npy"),
    "foreign-sidecar": lambda run, other: shutil.copy(
        other / "state.grid.json", run / "state.grid.json"),
    "foreign-csv-and-copy": lambda run, other: [
        shutil.copy(other / name, run / name)
        for name in ("state.csv", "state.npy")],
    "truncated-copy": lambda run, other: _truncate(run / "state.npy"),
    "truncated-csv": lambda run, other: _truncate(run / "state.csv"),
    "truncated-sidecar": lambda run, other: _truncate(
        run / "state.grid.json"),
}


@pytest.mark.parametrize("damage", list(_STATE_DAMAGES))
def test_state_copy_falls_back_to_the_csv(tmp_path, capsys, damage):
    """Unless the CSV and the copy are the files the sidecar stamps, the
    state is refused: a GridError that asks for a new solve (exit 2), and
    spectrum writes no file.  No other reading of the CSV stands in."""
    run, other = tmp_path / "run", tmp_path / "other"
    for out, j in ((run, "-0.02"), (other, "-0.03")):
        assert main(["solve", "--eps", "0.1", "--j", j, "--ell", "1",
                     "--out", str(out)]) == EXIT_OK
    _STATE_DAMAGES[damage](run, other)
    state = str(run / "state.csv")
    with pytest.raises(GridError, match="; solve the state again$"):
        load_state(state)
    capsys.readouterr()
    spec = tmp_path / "spec"
    assert main(["spectrum", "--state", state, "--out", str(spec)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.endswith("; solve the state again\n")
    assert not (spec / "spectrum.json").exists()


@pytest.mark.parametrize("path", ["copy", "csv"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["x", "h", "m"])
def test_non_finite_state_is_config_error(tmp_path, capsys, column, value,
                                          path):
    """A NaN or infinity in x, h or m of the copy is a GridError naming the
    file (exit 2): a NaN in x would pass the x check, which compares, and
    one in m would reach the eigen recurrences.  Without the copy ("csv") the
    state is refused before any value is read, whatever the CSV holds."""
    from dataclasses import replace

    from mesostefan.grids import build_grid
    from mesostefan.profiles import save_state

    g = build_grid(0.1, 1.0, 1.0, 0.05)                    # 401 points
    cols = {"x": g.points.copy(), "h": np.tanh(g.points) / 7.0,
            "m": np.tanh(g.points)}
    cols[column][7] = value
    state = tmp_path / "state.csv"
    with np.errstate(invalid="ignore"):     # J * m of an infinite m
        stored = _state_of(replace(g, points=cols["x"]), cols["h"], cols["m"])
    save_state(str(state), stored)
    named = state
    if path == "csv":
        named = tmp_path / "state.npy"
        named.unlink()
    with pytest.raises(GridError, match="non-finite" if path == "copy"
                       else "; solve the state again$") as info:
        load_state(str(state))
    assert str(named) in str(info.value)
    out = tmp_path / "spec"
    assert main(["spectrum", "--state", str(state), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {state} " if path == "copy"
                          else f"config error: cannot read {named}: ")
    assert not out.exists()


def test_profile_csv_round_trip(tmp_path):
    from mesostefan.grids import build_grid
    from mesostefan.profiles import save_profile

    g = build_grid(0.1, 1.0, 1.0, 0.05)
    values = np.sin(g.points / 3.0) * 1e-7 + 0.123456789012345678
    path = str(tmp_path / "p.csv")
    save_profile(path, g, values)
    x, back = _columns(path, "x", "value")
    assert np.array_equal(back, values)
    assert np.array_equal(x, g.points)
    grid = json.loads((tmp_path / "p.grid.json").read_text())
    assert grid["epsilon"] == g.epsilon
    assert grid["n"] == g.n
    with pytest.raises(ValueError):      # values must match the grid
        save_profile(str(tmp_path / "q.csv"), g, values[:-1])
    assert not (tmp_path / "q.csv").exists()


def test_table_rows_are_fmt_values(tmp_path):
    """save_table writes each value as fmt does, on the values where
    formats differ: signed zero, the smallest subnormal, huge and integral
    floats, 17-digit values, non-finite ones, numpy and Python scalars."""
    from mesostefan.profiles import fmt, save_table

    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -80.0, 1.0,
                     0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 123456789.01234567,
                     np.nextafter(1.0, 2.0), 1.7976931348623157e308,
                     2.2250738585072014e-308, np.inf, -np.inf, np.nan])
    other = [float(v) for v in edge[::-1]]
    ints = list(range(-9, edge.size - 9))
    path = tmp_path / "t.csv"
    save_table(str(path), "a,b,c", edge, other, ints)
    expected = "\n".join(["a,b,c"] + [",".join(fmt(v) for v in row)
                                      for row in zip(edge, other, ints)])
    assert path.read_text() == expected + "\n"
    assert path.read_text().splitlines()[1].startswith("-0,")
    with pytest.raises(ValueError, match="differ in length"):
        save_table(str(tmp_path / "u.csv"), "a,b", edge, edge[:-1])
    assert not (tmp_path / "u.csv").exists()


def _assert_rows_are_fmt_values(path, *columns):
    """save_table's bytes are the header and the ``"%.17g"`` rows."""
    from mesostefan.profiles import save_table

    header = ",".join(f"c{i}" for i in range(len(columns)))
    stamp = save_table(str(path), header, *columns)
    rows = "".join(",".join(["%.17g"] * len(columns)) % row + "\n"
                   for row in zip(*(map(float, c) for c in columns)))
    expected = (header + "\n" + rows).encode()
    assert path.read_bytes() == expected
    assert stamp == {"bytes": len(expected),
                     "crc32": zlib.crc32(expected)}


#: doubles of any bit pattern: NaNs with payloads, subnormals, both zeros
_FLOAT_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64)))
_TABLE_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    _FLOAT_BITS)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 3).flatmap(
    lambda width: st.lists(st.tuples(*[_TABLE_VALUES] * width),
                           min_size=1, max_size=40)))
def test_table_rows_are_fmt_values_on_drawn_doubles(tmp_path, rows):
    _assert_rows_are_fmt_values(tmp_path / "t.csv", *zip(*rows))


def test_table_rows_are_fmt_values_at_the_edges(tmp_path):
    """Where the digits are hardest to decide: the 17-digit ties k/4 in
    [1e15, 2.25e15], both neighbours of each 10**k for |k| <= 250, the
    range the exact product covers (1e-250 to 1e250), signed zeros, and a
    column of zeros beside them."""
    quarters = 4 * 10 ** 15 + np.arange(0, 5 * 10 ** 15, 123456789123)
    ties = np.concatenate([quarters, quarters + 1, quarters + 2,
                           quarters + 3]) / 4.0
    assert ties.min() == 1e15 and ties.max() < 2.25e15
    powers = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k
                       for k in range(-250, 251)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)])
    bounds = np.array([1e-250, 1e250, 0.0, -0.0])
    bounds = np.concatenate([bounds, np.nextafter(bounds, 0.0),
                             np.nextafter(bounds, np.inf)])
    edges = np.concatenate([ties, near, -near, bounds, -bounds])
    _assert_rows_are_fmt_values(tmp_path / "e.csv", edges, -edges[::-1],
                                np.zeros(edges.size))


def test_state_file_is_written_in_blocks_of_rows(tmp_path, monkeypatch):
    """A state of more than two blocks of WRITE_ROWS rows is written a block
    per write, and its text is the whole table of fmt rows.  Only the CSV's
    writes are counted: the sidecar and the binary copy open files of their
    own."""
    from mesostefan import profiles
    from mesostefan.grids import build_grid

    g = build_grid(0.01, 1.0, 1.0, 0.02)       # 10 001 rows
    h, m = np.sin(g.points) / 7.0, np.tanh(g.points / 3.0)
    path = tmp_path / "state.csv"
    writes = []
    real_open = open

    class Recorded:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text.count(b"\n"))
            return self.fh.write(text)

    def recorded(file, mode="r", *args):
        fh = real_open(file, mode, *args)
        return Recorded(fh) if (file, mode) == (str(path), "wb") else fh

    monkeypatch.setattr(profiles, "open", recorded, raising=False)
    profiles.save_state(str(path), _state_of(g, h, m))
    monkeypatch.undo()
    expected = "\n".join(["x,h,m"] + [",".join(profiles.fmt(v) for v in row)
                                      for row in zip(g.points, h, m)]) + "\n"
    assert path.read_text() == expected
    rows = profiles.WRITE_ROWS
    assert writes[:4] == [1, rows, rows, g.n - 2 * rows]


def test_state_stamps_are_the_files_as_read(tmp_path):
    """The byte lengths and CRC-32s that save_state records from the bytes
    it writes are those of the files read back, for rows that are not
    contiguous in memory too."""
    from mesostefan import profiles
    from mesostefan.grids import build_grid

    g = build_grid(0.01, 1.0, 1.0, 0.02)       # 10 001 rows
    state = _state_of(g, np.sin(g.points) / 7.0, np.tanh(g.points / 3.0))
    h = np.repeat(state.h, 2)[::2]
    state = dataclasses.replace(state, h=h)
    assert not state.h.flags.c_contiguous
    path = str(tmp_path / "state.csv")
    profiles.save_state(path, state)
    side = json.loads((tmp_path / "state.grid.json").read_text())
    assert side["csv"] == profiles._stamp(path)
    assert side["npy"] == profiles._stamp(str(tmp_path / "state.npy"))
    assert np.array_equal(np.load(tmp_path / "state.npy")[1], h)


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
