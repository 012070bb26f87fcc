"""Command-line harness: subcommands, config parsing, exit codes, outputs."""

import json
import os

import numpy as np
import pytest

from mesostefan.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK,
                            SWEEP_HEADER, main, run, validate)
from mesostefan.config import RunConfig, parse_config
from mesostefan.errors import DomainError
from mesostefan.profiles import load_profile, load_state


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
    prof = load_profile(str(out / "instanton.csv"))
    assert prof.values[0] == pytest.approx(-data["m_beta"], abs=1e-9)


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
    assert trace[0] == "k,increment,ratio,residual,inner_tol"
    assert float(trace[-1].split(",")[-1]) == 1e-12


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
    assert code == EXIT_CONFIG or code == EXIT_INFEASIBLE
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert int(lines[1].split(",")[-1]) < 0


def test_three_scale_sweep_hydro_decreasing():
    """Full-pipeline measurement: the hydro column shrinks along the sweep."""
    cfg = RunConfig(beta=2.0, j=-0.02, ell=1.0, mode="antisym",
                    eps_list=[0.1, 0.05, 0.025], n0=2)
    report = run(cfg)
    hydro = [row.hydro_m for row in report.rows]
    assert hydro[0] > hydro[1] > hydro[2]
    assert all(row.iters > 0 for row in report.rows)
    assert all(np.isfinite(row.c_instanton) for row in report.rows)


def test_sweep_worker_pool_matches_serial(tmp_path):
    cfg = RunConfig(beta=2.0, j=-0.02, ell=1.0, mode="antisym",
                    eps_list=[0.1, 0.05], n0=2, workers=2)
    parallel = run(cfg)
    cfg.workers = 1
    serial = run(cfg)
    assert parallel.to_csv() == serial.to_csv()


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
        alone = [cli._sweep_job(cfg.__dict__.copy(), eps).csv_line()
                 for eps in cfg.eps_list]
        with monkeypatch.context() as mp:
            calls.update(instanton=0, macro=0)
            mp.setattr(instanton, "compute_instanton",
                       counted("instanton", instanton.compute_instanton))
            mp.setattr(stefan, macro_fn,
                       counted("macro", getattr(stefan, macro_fn)))
            report = run(cfg)
        assert calls == {"instanton": 1, "macro": 1}, mode
        assert [r.csv_line() for r in report.rows] == alone


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
    assert bad["error"] == ("GridError: eps^-1 must be a grid multiple "
                            "of the spacing")
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[2].endswith(f",{-EXIT_CONFIG}")


def test_validate_findings(params2):
    cfg = RunConfig(beta=2.0, j=-0.2, ell=1.0, mode="antisym",
                    eps_list=[0.1], n0=2)
    findings = validate(cfg)
    assert any("ell_j" in f or "maximal" in f for f in findings)
    cfg_ok = RunConfig(beta=2.0, j=-0.02, ell=1.0, mode="antisym",
                       eps_list=[0.1], n0=2)
    assert validate(cfg_ok) == []
    cfg_zero = RunConfig(j=0.0)
    notes = validate(cfg_zero)
    assert any("zero-current" in f for f in notes)


def test_validate_matches_off_center_grid_checks():
    """eps^-1 = 33.3 is not a spacing multiple: the off-center solver
    rejects it, so validate must report it rather than call it feasible."""
    cfg = RunConfig(beta=2.0, j=-0.02, x0=0.2, mode="asym",
                    eps_list=[0.03], n0=2)
    findings = validate(cfg)
    assert any("eps = 0.03" in f and "grid multiple" in f for f in findings)
    row, = run(cfg).rows
    assert row.iters == -EXIT_CONFIG
    shipped = RunConfig(beta=2.0, j=-0.02, x0=0.2, mode="asym",
                        eps_list=[0.1, 0.05, 0.025], n0=2)
    assert validate(shipped) == []


def test_validate_command_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("beta = 0.5\n")
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    good = tmp_path / "good.txt"
    good.write_text("beta = 2.0\nj = -0.02\nn0 = 2\n")
    assert main(["validate", "--config", str(good)]) == EXIT_OK


def test_profile_csv_round_trip(tmp_path):
    from mesostefan.grids import Profile, build_grid
    from mesostefan.profiles import save_profile

    g = build_grid(0.1, 1.0, 1.0, 0.05)
    values = np.sin(g.points / 3.0) * 1e-7 + 0.123456789012345678
    path = str(tmp_path / "p.csv")
    save_profile(path, Profile(g, values))
    back = load_profile(path)
    assert np.array_equal(back.values, values)
    assert back.grid.epsilon == g.epsilon
    assert back.grid.n == g.n
