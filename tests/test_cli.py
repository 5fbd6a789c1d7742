import hashlib
import os

import pytest

from beamload.cli import main

BASE = """
grid.length = 1.0
grid.final_time = 1.0
grid.n_elements = 16
grid.n_steps = 96
coeff.rho_A = 1.0
coeff.mu = 0.05
coeff.T_r = 0.1
coeff.r = 0.8
coeff.kappa = 0.02
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(cmd, cfg, out, extra=()):
    return main([cmd, "--config", cfg, "--out", str(out), *extra])


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_forward_manufactured_summary(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = manufactured\n")
    out = tmp_path / "out"
    assert run("forward", cfg, out) == 0
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().split())
    assert float(summary["max_rel_solution_error"]) < 5e-3
    assert float(summary["max_energy_residual"]) < 1e-3
    for name in ("outputs.csv", "deflection.csv", "energy_residual.csv",
                 "manifest.txt"):
        assert (out / name).exists()


def test_forward_zero_load(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = zero\n")
    out = tmp_path / "out"
    assert run("forward", cfg, out) == 0
    body = (out / "outputs.csv").read_text().splitlines()[1:]
    assert all(line.endswith(",0,0") for line in body)


def test_missing_config_is_config_error(tmp_path):
    assert run("forward", str(tmp_path / "nope.cfg"), tmp_path) == 2


def test_missing_coefficient_file_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "coeff.r = /nonexistent/r.csv\n"
                    + "scenario.kind = zero\n")
    assert run("forward", cfg, tmp_path / "out") == 2
    assert "/nonexistent/r.csv" in capsys.readouterr().err


def test_inadmissible_coefficients_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "bounds.r0 = 2.0\nbounds.r1 = 3.0\n"
                    + "scenario.kind = zero\n")
    assert run("forward", cfg, tmp_path / "out") == 2


def test_verify_passes_and_negative_control_fails(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 2\n"
                    + "verify.duality_tol = 2e-2\n")
    assert run("verify", cfg, tmp_path / "ok") == 0
    bad = write_cfg(tmp_path, BASE + "verify.n_scenarios = 1\n"
                    + "verify.duality_tol = 2e-2\n"
                    + "debug.flip_adjoint_sign = true\n", name="bad.cfg")
    assert run("verify", bad, tmp_path / "bad") == 1
    report = (tmp_path / "bad" / "report.csv").read_text()
    flagged = [line for line in report.splitlines()
               if line.endswith("false")]
    assert flagged and all(line.startswith("duality")
                           for line in flagged)


def test_verify_empty_suite(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 0\n")
    assert run("verify", cfg, tmp_path / "out") == 0


def test_invert_parametric_twin(tmp_path):
    cfg = write_cfg(tmp_path, BASE + """
coeff.r = 0.5
scenario.kind = moving_gaussian
scenario.amplitude = 2.0
scenario.speed = 1.0
scenario.sigma = 0.15
inversion.mode = parametric
inversion.init_amplitude = 1.0
inversion.init_speed = 0.8
inversion.init_sigma = 0.2
""")
    out = tmp_path / "out"
    assert run("invert", cfg, out) == 0
    rows = (out / "parameters.csv").read_text().splitlines()[1:]
    params = [float(r.split(",")[1]) for r in rows]
    assert params[0] == pytest.approx(2.0, rel=0.01)
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().split())
    assert float(summary["rel_load_error"]) < 0.01


def test_invert_zero_measurements_writes_zero_field(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = zero\n"
                    + "inversion.mode = full_field\n")
    out = tmp_path / "out"
    assert run("invert", cfg, out) == 0
    body = (out / "reconstructed_load.csv").read_text().splitlines()[1:]
    assert all(line.endswith(",0") for line in body)
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().split())
    assert summary["stop_reason"] == "discrepancy"
    assert summary["iterations"] == "0"


def test_invert_numeric_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = mode_pulse\n"
                    + "inversion.mode = full_field\n"
                    + "inversion.step_rule = fixed\n"
                    + "inversion.omega = 1e6\n"
                    + "inversion.max_iterations = 50\n")
    assert run("invert", cfg, tmp_path / "out") == 3


def test_scenario_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = moving_gaussian\n"
                    + "scenario.amplitude = 1.0\n"
                    + "scenario.speed = 1.0\n"
                    + "scenario.sigma = 0.15\n"
                    + "noise.delta_rel = 0.02\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("scenario", cfg, out1, extra=("--seed", "5")) == 0
    assert run("scenario", cfg, out2, extra=("--seed", "5")) == 0
    for name in ("true_load.csv", "measurements_clean.csv",
                 "measurements_noisy.csv", "measurements_smoothed.csv"):
        assert digest(out1 / name) == digest(out2 / name), name
    out3 = tmp_path / "c"
    assert run("scenario", cfg, out3, extra=("--seed", "6")) == 0
    assert digest(out1 / "measurements_noisy.csv") != digest(
        out3 / "measurements_noisy.csv")


def test_manifest_contents(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = zero\n")
    out = tmp_path / "out"
    assert run("forward", cfg, out, extra=("--seed", "9",
                                           "--ct-variant", "corrected")) == 0
    manifest = dict(line.split("=", 1)
                    for line in (out / "manifest.txt").read_text().split())
    assert manifest["seed"] == "9"
    assert manifest["ct_variant"] == "corrected"
    assert manifest["command"] == "forward"
    assert len(manifest["config_sha256"]) == 64


def assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("config error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("n_rows", [1, 2])
def test_wrong_length_measurements_is_config_error(tmp_path, capsys, n_rows):
    meas = tmp_path / "meas.csv"
    rows = "".join(f"{i / 96},0,0\n" for i in range(n_rows))
    meas.write_text("t,theta0,thetaL\n" + rows)
    cfg = write_cfg(tmp_path, BASE + f"measurements.path = {meas}\n")
    assert run("invert", cfg, tmp_path / "out") == 2
    err = assert_one_line_config_error(capsys)
    assert f"{n_rows} rows, grid expects 97" in err


def test_non_finite_measurements_is_numeric_failure(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    rows = "".join(f"{i / 96},{'nan' if i == 40 else 0},0\n"
                   for i in range(97))
    meas.write_text("t,theta0,thetaL\n" + rows)
    cfg = write_cfg(tmp_path, BASE + f"measurements.path = {meas}\n")
    assert run("invert", cfg, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("numeric failure:") and "Traceback" not in err


def test_mismatched_coefficient_nodes_is_config_error(tmp_path, capsys):
    coeff = tmp_path / "r.csv"
    # 17 samples as on the 16-element grid, but spread over twice its length
    rows = "".join(f"{2.0 * i / 16},0.8\n" for i in range(17))
    coeff.write_text("x,value\n" + rows)
    cfg = write_cfg(tmp_path, BASE + f"coeff.r = {coeff}\n"
                    + "scenario.kind = zero\n")
    assert run("forward", cfg, tmp_path / "out") == 2
    assert_one_line_config_error(capsys)


def test_non_finite_coefficient_sample_is_config_error(tmp_path, capsys):
    coeff = tmp_path / "r.csv"
    rows = "".join(f"{i / 16},{'nan' if i == 5 else 0.8}\n"
                   for i in range(17))
    coeff.write_text("x,value\n" + rows)
    cfg = write_cfg(tmp_path, BASE + f"coeff.r = {coeff}\n"
                    + "scenario.kind = zero\n")
    assert run("forward", cfg, tmp_path / "out") == 2
    assert "r[5] = nan" in assert_one_line_config_error(capsys)


@pytest.mark.parametrize("key,extra", [
    ("scenario.sigma", "scenario.sigma = 0\n"),
    ("inversion.init_sigma", "scenario.sigma = 0.15\n"
     "inversion.mode = parametric\ninversion.init_sigma = -0.1\n"),
])
def test_non_positive_sigma_is_config_error(tmp_path, capsys, key, extra):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = moving_gaussian\n"
                    + extra)
    assert run("invert", cfg, tmp_path / "out") == 2
    assert key in assert_one_line_config_error(capsys)


@pytest.mark.parametrize("cmd,extra,argv", [
    ("invert", "inversion.tau_d = 0.5\n", ()),
    ("invert", "inversion.step_rule = bogus\n", ()),
    ("invert", "inversion.omega = -1\n", ()),
    ("invert", "inversion.max_iterations = -2\n", ()),
    ("invert", "inversion.tau_d = nan\n", ()),
    ("invert", "inversion.mode = bogus\n", ()),
    ("invert", "noise.delta_rel = -0.1\n", ()),
    ("invert", "noise.delta_rel = 0.05\nnoise.seed = -1\n", ()),
    ("verify", "", ("--seed", "-1")),
    ("invert", "grid.length = nan\n", ()),
    ("invert", "grid.final_time = inf\n", ()),
    ("invert", "scenario.speed = inf\n", ()),
    ("verify", "verify.n_scenarios = -1\n", ()),
    ("invert", "coeff.r = nan\n", ()),
    ("invert", "coeff.rho_A = inf\n", ()),
    ("invert", "scenario.kind = modal\nscenario.coefficients = 1,abc\n", ()),
    ("invert", "scenario.kind = modal\nscenario.coefficients = 1.0,nan\n",
     ()),
    ("invert", "inversion.mode = parametric\ninversion.family = modal\n"
     "inversion.init_coefficients = nan\n", ()),
])
def test_bad_value_is_config_error(tmp_path, capsys, cmd, extra, argv):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = moving_gaussian\n"
                    + extra)
    assert run(cmd, cfg, tmp_path / "out", argv) == 2
    assert_one_line_config_error(capsys)
