import hashlib
import itertools
import pathlib
import re
import runpy
import shutil
import sys
import warnings
import zlib

import numpy as np
import pytest

from beamload import assembly, cli, forward, objective
from beamload.cli import main
from beamload.forward import solve_forward
from beamload.io import (load_sidecar, save_coefficient, save_load,
                         save_measurements)
from beamload.measurements import ModalLoad, NoiseSpec, generate_scenario
from beamload.model import LoadField, MeasurementSeries, SpaceTimeGrid

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


def test_inadmissible_coefficients_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.n_elements = 8\ngrid.n_steps = 16\n"
                    "bounds.r0 = 2.0\nbounds.r1 = 3.0\ncoeff.kappa = -1\n"
                    "scenario.kind = zero\n")
    assert run("forward", cfg, tmp_path / "out") == 2
    # every violation on one line
    assert capsys.readouterr().err == (
        "config error: inadmissible coefficients:; r[0] = 1 violates lower"
        " bound 2 (9 nodes); kappa[-1] = -1 violates lower bound must be"
        " positive\n")


def test_verify_passes_and_negative_control_fails(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 2\n"
                    + "verify.duality_tol = 2e-2\n")
    assert run("verify", cfg, tmp_path / "ok") == 0
    # no residual meets a tolerance of 1e-12, so every duality row fails
    bad = write_cfg(tmp_path, BASE + "verify.n_scenarios = 1\n"
                    + "verify.duality_tol = 1e-12\n", name="bad.cfg")
    assert run("verify", bad, tmp_path / "bad") == 1
    report = (tmp_path / "bad" / "report.csv").read_text().splitlines()
    flagged = [line for line in report if line.endswith("false")]
    duality = [line for line in report if line.startswith("duality")]
    assert flagged and flagged == duality


def test_verify_builds_one_kernel_and_batches_its_passes(tmp_path,
                                                        count_calls):
    """The suite, the duality checks and the FD checks share the kernel
    `verify` builds, and the suite's three scenarios share one forward
    Newmark pass and the end-rotation pass that built the kernel."""
    calls = count_calls(forward.impulse_kernel, forward.newmark_integrate)
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 3\n"
                    + "verify.duality_tol = 2e-2\n")
    assert run("verify", cfg, tmp_path / "out") == 0
    assert calls == {"impulse_kernel": 1, "newmark_integrate": 2}


def test_repeated_verify_builds_nothing(tmp_path, count_calls):
    """A second `verify` on the same beam, with another seed, makes no
    assemble, no Newmark pass and no kernel, and writes the report of a
    run with that seed from no kept beam, byte for byte."""
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 3\n"
                    + "verify.duality_tol = 2e-2\n")
    calls = count_calls(forward.impulse_kernel, forward.newmark_integrate,
                        assembly.assemble)
    assert run("verify", cfg, tmp_path / "first", ("--seed", "0")) == 0
    calls.clear()
    assert run("verify", cfg, tmp_path / "warm", ("--seed", "1")) == 0
    assert sum(calls.values()) == 0
    forward._beam_kernels.clear()
    assert run("verify", cfg, tmp_path / "cold", ("--seed", "1")) == 0
    for name in ("report.csv", "summary.txt"):
        assert digest(tmp_path / "warm" / name) == digest(
            tmp_path / "cold" / name)


def test_invert_after_verify_builds_no_kernel(tmp_path, count_calls):
    """`invert` on the beam that `verify` audited runs on the kernel that
    the audit kept: its one Newmark pass is the twin data's forward
    solve."""
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 1\n"
                    "verify.duality_tol = 2e-2\nscenario.kind = modal\n")
    calls = count_calls(forward.impulse_kernel, forward.newmark_integrate)
    assert run("verify", cfg, tmp_path / "verify") == 0
    calls.clear()
    assert run("invert", cfg, tmp_path / "invert") == 0
    assert calls == {"newmark_integrate": 1}


@pytest.mark.parametrize("triples,directions", [(2, 0), (0, 2), (2, 2)])
def test_verify_without_scenarios_makes_one_pass(tmp_path, count_calls,
                                                 triples, directions):
    """With no suite scenarios, the duality and FD checks share one
    kernel, built from the one end-rotation pass."""
    calls = count_calls(forward.impulse_kernel, forward.newmark_integrate)
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 0\n"
                    f"verify.n_triples = {triples}\n"
                    f"verify.n_directions = {directions}\n"
                    "verify.duality_tol = 2e-2\n")
    assert run("verify", cfg, tmp_path / "out") == 0
    assert calls == {"impulse_kernel": 1, "newmark_integrate": 1}


def test_verify_empty_suite(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 0\n"
                    + "verify.n_triples = 0\nverify.n_directions = 0\n")
    assert run("verify", cfg, tmp_path / "out") == 0
    assert (tmp_path / "out" / "summary.txt").read_text().split()[0] == (
        "checks=0")


def test_verify_counts_are_independent(tmp_path):
    # no suite scenarios still runs the duality and FD checks
    cfg = write_cfg(tmp_path, BASE + "verify.n_scenarios = 0\n"
                    + "verify.n_triples = 2\nverify.n_directions = 2\n"
                    + "verify.duality_tol = 2e-2\n")
    out = tmp_path / "out"
    assert run("verify", cfg, out) == 0
    report = (out / "report.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in report] == (
        ["duality"] * 2 + ["gradient_fd"] * 2)


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
    # the loop's rank, beside the kernel's r_out/r_adj, is at most r_adj
    r_adj = int(summary["kernel_rank"].split("/")[1])
    assert 0 < int(summary["loop_rank"]) <= r_adj


def test_invert_numeric_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = modal\n"
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


# a moving-Gaussian twin, inverted for at most 20 full-field steps
GAUSSIAN_TWIN = BASE + """
scenario.kind = moving_gaussian
scenario.sigma = 0.15
inversion.max_iterations = 20
"""


def test_zero_noise_scenario_writes_the_clean_data_only(tmp_path):
    cfg = write_cfg(tmp_path, GAUSSIAN_TWIN + "noise.delta_rel = 0\n")
    out = tmp_path / "out"
    assert run("scenario", cfg, out) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "manifest.txt", "measurements_clean.csv", "summary.txt",
        "true_load.csv"]
    assert "noise_delta" not in load_sidecar(out / "summary.txt")


@pytest.mark.parametrize("delta_rel,series", [
    ("0", "measurements_clean.csv"), ("0.01", "measurements_smoothed.csv")])
def test_invert_on_twin_data_inverts_the_scenarios_series(tmp_path,
                                                          delta_rel, series):
    """`invert` on twin data writes the bytes of `invert` on the series
    that `scenario` writes for it, the clean one without noise and else
    the smoothed one, at the noise level that its summary records."""
    twin = write_cfg(tmp_path,
                     GAUSSIAN_TWIN + f"noise.delta_rel = {delta_rel}\n")
    scenario = tmp_path / "scenario"
    assert run("scenario", twin, scenario, ("--seed", "3")) == 0
    assert run("invert", twin, tmp_path / "twin", ("--seed", "3")) == 0
    noise_delta = load_sidecar(scenario / "summary.txt").get("noise_delta",
                                                             "0")
    measured = write_cfg(tmp_path, BASE + "inversion.max_iterations = 20\n"
                         f"measurements.path = {scenario / series}\n"
                         f"inversion.noise_delta = {noise_delta}\n",
                         "measured.cfg")
    assert run("invert", measured, tmp_path / "measured") == 0
    for name in ("reconstructed_load.csv", "iterations.csv"):
        assert digest(tmp_path / "twin" / name) == digest(
            tmp_path / "measured" / name), name


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


@pytest.mark.parametrize("cmd,lines,message", [
    ("forward", "", "forward needs a scenario"),
    ("scenario", "scenario.kind = load_csv\n",
     "missing config key: scenario.path"),
    ("scenario", "", "scenario needs a scenario.kind"),
    ("invert", "", "need measurements.path or a scenario"),
])
def test_missing_input_is_config_error(tmp_path, capsys, cmd, lines,
                                       message):
    cfg = write_cfg(tmp_path, BASE + lines)
    assert run(cmd, cfg, tmp_path / "out") == 2
    assert message in assert_one_line_config_error(capsys)


def test_module_run_exits_with_the_code_of_main(tmp_path, capsys,
                                                monkeypatch):
    # `python -m beamload.cli` exits with `main`'s code; runpy warns that
    # the module, already imported, runs again as __main__
    monkeypatch.setattr(sys, "argv", [
        "beamload.cli", "forward", "--config", str(tmp_path / "nope.cfg"),
        "--out", str(tmp_path / "out")])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "'beamload.cli' found in",
                                RuntimeWarning)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("beamload.cli", run_name="__main__")
    assert exit_.value.code == 2
    assert "nope.cfg" in assert_one_line_config_error(capsys)


def test_seed_flag_is_the_noise_seed(tmp_path):
    """The twin data's noise is drawn with the seed that the manifest
    records, which is --seed."""
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = modal\n"
                    "noise.delta_rel = 0.05\n")
    out = tmp_path / "out"
    assert run("scenario", cfg, out, ("--seed", "3")) == 0
    seed = int(load_sidecar(out / "manifest.txt")["seed"])
    assert seed == 3
    coeffs = cli.build_coefficients(cli.read_config(cfg), GRID)
    _, noisy, _ = generate_scenario(ModalLoad((1.0,)).field(GRID), coeffs,
                                    GRID, NoiseSpec(0.05, seed=seed))
    save_measurements(tmp_path / "ref.csv", GRID.times, noisy)
    assert digest(out / "measurements_noisy.csv") == digest(
        tmp_path / "ref.csv")


@pytest.mark.parametrize("cmd", ["forward", "verify", "invert", "scenario"])
def test_noise_seed_is_an_undeclared_key(tmp_path, capsys, cmd):
    # --seed is the one noise seed
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = modal\n"
                    "noise.delta_rel = 0.05\nnoise.seed = 3\n")
    assert run(cmd, cfg, tmp_path / "out") == 2
    assert "noise.seed" in assert_one_line_config_error(capsys)


@pytest.mark.parametrize("n_rows", [1, 2])
def test_wrong_length_measurements_is_config_error(tmp_path, capsys, n_rows):
    meas = tmp_path / "meas.csv"
    rows = "".join(f"{i / 96},0,0\n" for i in range(n_rows))
    meas.write_text("t,theta0,thetaL\n" + rows)
    cfg = write_cfg(tmp_path, BASE + f"measurements.path = {meas}\n")
    assert run("invert", cfg, tmp_path / "out") == 2
    err = assert_one_line_config_error(capsys)
    assert f"{n_rows} rows, grid expects 97" in err


def test_measurements_from_another_time_grid_is_config_error(tmp_path,
                                                            capsys):
    meas = tmp_path / "meas.csv"
    # 97 rows as on the 96-step grid, but over twice its final time
    rows = "".join(f"{2.0 * i / 96},0,0\n" for i in range(97))
    meas.write_text("t,theta0,thetaL\n" + rows)
    cfg = write_cfg(tmp_path, BASE + f"measurements.path = {meas}\n")
    assert run("invert", cfg, tmp_path / "out") == 2
    assert "time coordinates" in assert_one_line_config_error(capsys)


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


def assert_one_line_numeric_failure(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("numeric failure:") and "Traceback" not in err
    return err


COARSE = BASE + """
grid.n_elements = 8
grid.n_steps = 32
scenario.kind = modal
inversion.max_iterations = 3
verify.n_scenarios = 1
verify.n_triples = 1
verify.n_directions = 1
"""


@pytest.mark.parametrize("line,culprit", [
    ("grid.final_time = 1e-200", "time step"),
    ("grid.final_time = 1e200", "time step"),
    ("grid.length = 1e-120", "element size"),
], ids=["final_time_1e-200", "final_time_1e200", "length_1e-120"])
@pytest.mark.parametrize("cmd", ["forward", "invert"])
def test_grid_out_of_floating_range_is_numeric_failure(tmp_path, capsys, cmd,
                                                       line, culprit):
    # finite, positive values whose step constants or element bands
    # overflow or underflow
    cfg = write_cfg(tmp_path, COARSE + line + "\n")
    assert run(cmd, cfg, tmp_path / "out") == 3
    assert culprit in assert_one_line_numeric_failure(capsys)


MANUFACTURED_TINY = "scenario.kind = manufactured\ngrid.length = 1e-300\n"
MANUFACTURED_CULPRIT = "manufactured load out of floating range at " \
    "grid.length = 1e-300"


@pytest.mark.parametrize("cmd,lines,culprit", [
    ("forward", MANUFACTURED_TINY, MANUFACTURED_CULPRIT),
    ("invert", MANUFACTURED_TINY, MANUFACTURED_CULPRIT),
    ("invert", "inversion.mode = parametric\ninversion.init_sigma = 1e300\n",
     "numeric failure: "),
], ids=["forward_manufactured_length_1e-300",
        "invert_manufactured_length_1e-300", "invert_init_sigma_1e300"])
def test_python_float_overflow_is_no_opaque_message(tmp_path, capsys, cmd,
                                                    lines, culprit):
    """Values whose Python-float powers overflowed, with a message naming
    neither key nor quantity, compute in numpy floats."""
    cfg = write_cfg(tmp_path, COARSE + lines)
    assert run(cmd, cfg, tmp_path / "out") == 3
    err = assert_one_line_numeric_failure(capsys)
    assert "Numerical result out of range" not in err
    assert culprit in err


@pytest.mark.parametrize("lines,culprit", [
    ("inversion.init_sigma = 1e300\n", "inversion.init_sigma = 1e+300"),
    ("inversion.init_speed = -1e300\n", "inversion.init_speed = -1e+300"),
    ("inversion.family = modal\ninversion.init_coefficients = 1, 1e300\n",
     "inversion.init_coefficients = (1.0, 1e+300)"),
], ids=["sigma", "speed", "modal"])
def test_fit_start_out_of_floating_range_names_its_key(tmp_path, capsys,
                                                       lines, culprit):
    # the fit's first trust radius is the norm of its start
    cfg = write_cfg(tmp_path, COARSE + "inversion.mode = parametric\n"
                    + lines)
    assert run("invert", cfg, tmp_path / "out") == 3
    assert culprit in assert_one_line_numeric_failure(capsys)


@pytest.mark.parametrize("error,message", [
    (MemoryError(), "MemoryError"),
    (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate"),
], ids=["bare", "numpy_message"])
def test_memory_error_is_numeric_failure(tmp_path, capsys, monkeypatch,
                                         error, message):
    def exhausted(*args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "forward", exhausted)
    assert run("forward", write_cfg(tmp_path, COARSE), tmp_path / "out") == 3
    assert message in assert_one_line_numeric_failure(capsys)


def test_long_beam_verifies(tmp_path, capsys):
    """The Poincare row's closed forms divide by l once: no power of 1/l
    underflows to a zero rhs on a long beam."""
    cfg = write_cfg(tmp_path, COARSE + "grid.length = 1e100\n"
                    + "verify.n_triples = 0\nverify.n_directions = 0\n")
    assert run("verify", cfg, tmp_path / "out") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("line", ["inversion.tau_d = 1e300",
                                  "inversion.noise_delta = 1e300"])
def test_absurd_noise_level_stops_at_the_start(tmp_path, line):
    """A discrepancy target out of floating range is met by the zero
    start: the run stops at once instead of raising."""
    cfg = write_cfg(tmp_path, COARSE + "noise.delta_rel = 0.05\n"
                    + line + "\n")
    out = tmp_path / "out"
    assert run("invert", cfg, out) == 0
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().split())
    assert summary["stop_reason"] == "discrepancy"
    assert summary["iterations"] == "0"


@pytest.mark.parametrize("line,constant", [("coeff.r = 1e300", "C0_sq"),
                                           ("coeff.rho_A = 1e-300", "Ce_sq")],
                         ids=["r_1e300", "rho_A_1e-300"])
@pytest.mark.parametrize("cmd", ["verify", "invert"])
def test_constants_out_of_floating_range_is_numeric_failure(
        tmp_path, capsys, cmd, line, constant):
    cfg = write_cfg(tmp_path, COARSE + line + "\n")
    assert run(cmd, cfg, tmp_path / "out") == 3
    assert constant in assert_one_line_numeric_failure(capsys)


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


def test_varying_coefficient_of_the_manufactured_case_is_config_error(
        tmp_path, capsys):
    # the closed-form load is exact only on a beam of constant coefficients
    coeff = tmp_path / "r.csv"
    save_coefficient(coeff, GRID.nodes,
                     1.0 + 0.5 * np.sin(np.pi * GRID.nodes))
    cfg = write_cfg(tmp_path, BASE + f"coeff.r = {coeff}\n"
                    + "scenario.kind = manufactured\n")
    assert run("forward", cfg, tmp_path / "out") == 2
    assert "r varies from 1 to 1.5" in assert_one_line_config_error(capsys)


GRID = SpaceTimeGrid(1.0, 1.0, 16, 96)   # the grid of BASE
ZERO = np.zeros(GRID.n_times)
# per CSV reader: a writer of a table that fits GRID, and the command and
# config lines that read the table at {path}
CSV_READERS = {
    "coefficient": (
        lambda path: save_coefficient(path, GRID.nodes,
                                      np.full(GRID.n_nodes, 0.8)),
        "forward", "coeff.r = {path}\nscenario.kind = zero\n"),
    "load_csv": (
        lambda path: save_load(path, LoadField.zero(GRID)),
        "forward", "scenario.kind = load_csv\nscenario.path = {path}\n"),
    "measurements": (
        lambda path: save_measurements(path, GRID.times,
                                       MeasurementSeries(ZERO, ZERO)),
        "invert", "measurements.path = {path}\n"),
}


def _replace_row(lines, text):
    """The table's lines with its third data row replaced by `text(row)`."""
    return lines[:3] + [text(lines[3])] + lines[4:]


# each turns the lines of a fitting table into those of a malformed one
CSV_DEFECTS = {
    "empty": lambda lines: [],
    "header_only": lambda lines: lines[:1],
    "too_few_rows": lambda lines: lines[:-1],
    "ragged_row": lambda lines: _replace_row(
        lines, lambda row: row.rsplit(",", 1)[0]),
    "column_short": lambda lines: [line.rsplit(",", 1)[0] for line in lines],
    "non_numeric": lambda lines: _replace_row(
        lines, lambda row: row.rsplit(",", 1)[0] + ",abc"),
    "empty_field": lambda lines: _replace_row(
        lines, lambda row: row.rsplit(",", 1)[0] + ","),
}


def _csv_run(tmp_path, reader, path, out):
    _, cmd, lines = CSV_READERS[reader]
    cfg = write_cfg(tmp_path, BASE + lines.format(path=path))
    return run(cmd, cfg, out)


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_fitting_csv_is_read(tmp_path, reader):
    path = tmp_path / "table.csv"
    CSV_READERS[reader][0](str(path))
    assert _csv_run(tmp_path, reader, path, tmp_path / "out") == 0


@pytest.mark.parametrize("defect", [*CSV_DEFECTS, "directory", "missing",
                                    "out_is_a_file"])
@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_malformed_csv_is_one_line_config_error(tmp_path, capsys, reader,
                                                defect):
    """A table that cannot be read, a path that is no file and an --out
    that is a file each exit 2 with one stderr line."""
    path, out = tmp_path / "table.csv", tmp_path / "out"
    CSV_READERS[reader][0](str(path))
    if defect == "directory":
        path = tmp_path
    elif defect == "missing":
        path = tmp_path / "absent.csv"
    elif defect == "out_is_a_file":
        out = path
    else:
        lines = CSV_DEFECTS[defect](path.read_text().splitlines())
        path.write_text("".join(f"{line}\n" for line in lines))
    assert _csv_run(tmp_path, reader, path, out) == 2
    assert "Warning" not in assert_one_line_config_error(capsys)


@pytest.mark.parametrize("lineno,defect,message", [
    (2, lambda line: line.rsplit(",", 1)[0] + ",abc", ":2: 'abc' is not a "
     "number"),
    (4, lambda line: line.rsplit(",", 1)[0], ":4: 2 values, expected 3"),
])
def test_malformed_csv_names_its_line(tmp_path, capsys, lineno, defect,
                                      message):
    """The one-line refusal of a malformed table names the file's own
    1-based line number, and not numpy's row count or its arguments."""
    path = tmp_path / "table.csv"
    CSV_READERS["measurements"][0](str(path))
    lines = path.read_text().splitlines()
    lines[lineno - 1] = defect(lines[lineno - 1])
    path.write_text("".join(f"{line}\n" for line in lines))
    assert _csv_run(tmp_path, "measurements", path, tmp_path / "out") == 2
    err = assert_one_line_config_error(capsys)
    assert f"{path}{message}" in err
    assert " row " not in err and "usecols" not in err


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_undecodable_csv_is_one_line_config_error(tmp_path, capsys,
                                                  reader):
    path = tmp_path / "table.csv"
    CSV_READERS[reader][0](str(path))
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    assert _csv_run(tmp_path, reader, path, tmp_path / "out") == 2
    assert "codec can't decode" in assert_one_line_config_error(capsys)


def test_undecodable_config_is_one_line_config_error(tmp_path, capsys):
    lines = (BASE.lstrip() + "scenario.kind = zero\n").encode().split(b"\n")
    lines.insert(1, b"\xff")
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\n".join(lines))
    assert run("forward", str(path), tmp_path / "out") == 2
    err = assert_one_line_config_error(capsys)
    assert str(path) in err and "codec can't decode" in err


def test_failed_output_write_is_not_a_config_error(tmp_path, monkeypatch):
    """Exit 2 covers unreadable inputs and an --out that cannot be made,
    not an I/O failure while a command writes its outputs."""
    def full_disk(*args):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "save_sidecar", full_disk)
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = zero\n")
    with pytest.raises(OSError, match="No space left"):
        run("forward", cfg, tmp_path / "out")


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
    ("invert", "scenario.kind = mode_pulse\n", ()),
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
    ("invert", "inversion.noise_delta = -0.1\n", ()),
    ("verify", "verify.duality_tol = -1\n", ()),
    ("verify", "verify.fd_tol = 0\n", ()),
    ("verify", "verify.n_scenarios = 0\nverify.duality_tol = nan\n", ()),
    ("invert", "coeff.mu = -1\n", ()),
    ("invert", "coeff.T_r = -1\n", ()),
    ("invert", "bounds.mu0 = -1\n", ()),
    ("invert", "bounds.Tr0 = -1\n", ()),
    ("invert", "grid.n_elements = 3\n", ()),
    ("invert", "grid.n_steps = 3\n", ()),
])
def test_bad_value_is_config_error(tmp_path, capsys, cmd, extra, argv):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = moving_gaussian\n"
                    + extra)
    assert run(cmd, cfg, tmp_path / "out", argv) == 2
    assert_one_line_config_error(capsys)


@pytest.fixture
def forward_calls(monkeypatch):
    """The argument tuples of every `solve_forward` call a command makes:
    `forward`'s own in `cli`, and the twin data's in `objective`."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return solve_forward(*args, **kwargs)

    for module in (cli, objective):
        monkeypatch.setattr(module, "solve_forward", spy)
    return calls


@pytest.mark.parametrize("extra", [
    "inversion.tau_d = abc\n",
    "inversion.omega = 0\n",
    "inversion.max_iterations = 1.5\n",
    "inversion.noise_delta = -1\n",
    "inversion.step_rule = bogus\n",
    "inversion.mode = parametric\ninversion.init_sigma = nan\n",
    "inversion.mode = parametric\ninversion.family = bogus\n",
])
def test_invert_keys_are_read_before_the_twin_solve(tmp_path, capsys,
                                                       forward_calls, extra):
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = moving_gaussian\n"
                    + "noise.delta_rel = 0.05\n" + extra)
    assert run("invert", cfg, tmp_path / "out") == 2
    assert_one_line_config_error(capsys)
    assert forward_calls == []


@pytest.mark.parametrize("cmd", ["forward", "verify", "invert", "scenario"])
def test_undeclared_key_is_config_error(tmp_path, capsys, forward_calls, cmd):
    # a misspelt key is refused, not ignored, under every command
    cfg = write_cfg(tmp_path, BASE + "scenario.kind = modal\n"
                    + "inversion.max_iteratons = 3\n")
    assert run(cmd, cfg, tmp_path / "out") == 2
    assert "inversion.max_iteratons" in assert_one_line_config_error(capsys)
    assert forward_calls == []


PARAMETRIC = "scenario.kind = moving_gaussian\ninversion.mode = parametric\n"
EMPTY_VERIFY = ("verify.n_scenarios = 0\nverify.n_triples = 0\n"
                "verify.n_directions = 0\n")


@pytest.mark.parametrize("cmd,lines", [
    pytest.param("invert", "scenario.kind = modal\nscenario.sigma = 0\n",
                 id="scenario.sigma-modal"),
    pytest.param("invert", "scenario.kind = modal\nverify.fd_tol = 0\n",
                 id="verify.fd_tol-modal"),
    pytest.param("verify", EMPTY_VERIFY + "scenario.kind = bogus\n",
                 id="scenario.kind-verify"),
    pytest.param("forward", "scenario.kind = manufactured\n"
                 "inversion.mode = bogus\n", id="inversion.mode-forward"),
    pytest.param("invert", PARAMETRIC + "inversion.step_rule = bogus\n",
                 id="inversion.step_rule-parametric"),
    pytest.param("invert", PARAMETRIC + "inversion.tau_d = 0.5\n",
                 id="inversion.tau_d-parametric"),
    pytest.param("invert", PARAMETRIC + "inversion.max_iterations = -1\n",
                 id="inversion.max_iterations-parametric"),
    pytest.param("invert", "scenario.kind = modal\n"
                 "inversion.family = bogus\n",
                 id="inversion.family-full_field"),
    pytest.param("verify", EMPTY_VERIFY + "inversion.omega = -1\n",
                 id="inversion.omega-verify"),
])
def test_bad_value_of_an_unread_key_is_config_error(tmp_path, capsys,
                                                    forward_calls, cmd, lines):
    # every present key is checked against the values it may take, whether
    # or not the command reads it; the last line holds the bad value
    key = lines.splitlines()[-1].split(" = ")[0]
    cfg = write_cfg(tmp_path, BASE + lines)
    assert run(cmd, cfg, tmp_path / "out") == 2
    assert key in assert_one_line_config_error(capsys)
    assert forward_calls == []


def choices(key):
    """The names the table allows for `key`, read from its parser's
    reason for refusing any other."""
    try:
        cli._KEYS[key][0]("?")
    except ValueError as exc:
        return str(exc).removeprefix("not one of ").split(", ")
    raise AssertionError(f"{key} accepts any name")


TWIN = "scenario.kind = modal\n"
CHOICE_CASES = [
    *(pytest.param("scenario", f"scenario.kind = {kind}\n", id=kind)
      for kind in choices("scenario.kind")),
    *(pytest.param("invert", TWIN + f"inversion.mode = {mode}\n"
                   f"inversion.family = {family}\n", id=f"{mode}-{family}")
      for mode in choices("inversion.mode")
      for family in choices("inversion.family")),
    *(pytest.param("invert", TWIN + f"inversion.step_rule = {rule}\n", id=rule)
      for rule in choices("inversion.step_rule")),
]


@pytest.mark.parametrize("cmd,lines", CHOICE_CASES)
def test_every_allowed_choice_runs(tmp_path, cmd, lines):
    """Each name the table allows has a branch in the command that reads
    it."""
    load = tmp_path / "load.csv"
    save_load(str(load), LoadField.zero(SpaceTimeGrid(1.0, 1.0, 16, 96)))
    cfg = write_cfg(tmp_path, BASE + f"scenario.path = {load}\n"
                    + "inversion.max_iterations = 3\n" + lines)
    assert run(cmd, cfg, tmp_path / "out") == 0


def test_non_finite_coefficient_is_one_entry_per_condition(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "grid.n_elements = 64\n"
                    + "coeff.r = nan\nscenario.kind = zero\n")
    assert run("forward", cfg, tmp_path / "out") == 2
    err = assert_one_line_config_error(capsys)
    # both bounds default to the non-finite extrema, and all 65 samples
    # are reported by their first node
    assert err.count("violates") == 3
    assert "r[0] = nan violates finiteness (65 nodes)" in err


MALFORMED = ("abc", "nan", "inf", "-inf", "-1", "0", "")
FULL_FIELD = BASE + """
scenario.kind = modal
noise.delta_rel = 0.05
inversion.mode = full_field
inversion.max_iterations = 3
"""
GAUSSIAN = BASE + """
scenario.kind = moving_gaussian
scenario.sigma = 0.15
inversion.mode = parametric
inversion.init_amplitude = 1.0
inversion.init_speed = 0.8
inversion.init_sigma = 0.2
"""
MODAL = BASE + """
scenario.kind = modal
scenario.coefficients = 1.0,0.5
inversion.mode = parametric
inversion.family = modal
inversion.init_coefficients = 0.5,0.1
"""
VERIFY = BASE + """
verify.n_scenarios = 1
verify.n_triples = 1
verify.n_directions = 1
"""
# the command and config under which a key's value is used, where
# `invert` on FULL_FIELD does not use it
FUZZ_OVERRIDES = {
    **dict.fromkeys(("scenario.speed", "scenario.sigma", "inversion.family",
                     "inversion.init_amplitude", "inversion.init_speed",
                     "inversion.init_sigma"), ("invert", GAUSSIAN)),
    **dict.fromkeys(("scenario.coefficients", "inversion.init_coefficients"),
                    ("invert", MODAL)),
    "scenario.path": ("scenario", BASE + "scenario.kind = load_csv\n"),
    **{key: ("verify", VERIFY) for key in cli._KEYS
       if key.startswith("verify.")},
}
FUZZ_CASES = [(*FUZZ_OVERRIDES.get(key, ("invert", FULL_FIELD)), key)
              for key in cli._KEYS]


def test_fuzz_cases_cover_the_declared_keys():
    assert {key for _, _, key in FUZZ_CASES} == set(cli._KEYS)
    assert set(FUZZ_OVERRIDES) <= set(cli._KEYS)


@pytest.mark.parametrize("cmd,base,key", FUZZ_CASES,
                         ids=[key for _, _, key in FUZZ_CASES])
def test_malformed_value_keeps_exit_code_contract(tmp_path, monkeypatch,
                                                  capsys, cmd, base, key):
    """Seeded malformed values per key: `main` returns a documented exit
    code, and a config or numeric error is one stderr line."""
    # relative paths such as "0" or "abc" resolve in an empty directory
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(zlib.crc32(key.encode()))
    for value in rng.choice(MALFORMED, size=3, replace=False):
        cfg = write_cfg(tmp_path, base + f"{key} = {value}\n")
        code = run(cmd, cfg, tmp_path / "out")
        assert code in (0, 1, 2, 3), (value, code)
        err = capsys.readouterr().err
        if code in (2, 3):
            assert len(err.splitlines()) == 1, (value, err)
            assert "Traceback" not in err, (value, err)


def takes_a_number(key):
    """Whether `key` is set by a number: its parser makes one of "5", or
    it is a coefficient, a number or the path of a CSV."""
    try:
        value = cli._KEYS[key][0]("5")
    except ValueError:
        return False
    return key.startswith("coeff.") or not isinstance(value, str)


# besides +-1e300 and 1e-300: the largest float, its negative and the
# least subnormal
EXTREMES = ("1e-300", "1e300", "-1e300", "1.7976931348623157e308",
            "-1.7976931348623157e308", "5e-324")
# a duality tolerance of 1, so that the coarse grid's duality gap, which
# is no exit-code fault, flags nothing
SWEEP_BASE = BASE + """
grid.n_elements = 8
grid.n_steps = 32
scenario.kind = manufactured
noise.delta_rel = 0.05
inversion.max_iterations = 3
verify.n_scenarios = 1
verify.n_triples = 1
verify.n_directions = 1
verify.duality_tol = 1
"""
# the commands that read each family of keys, and the lines besides
# SWEEP_BASE under which they read a key
SWEEP_COMMANDS = {
    **dict.fromkeys(("grid", "coeff", "bounds"),
                    ("forward", "verify", "invert", "scenario")),
    "scenario": ("forward",), "noise": ("invert",),
    "inversion": ("invert",), "verify": ("verify",),
}
SWEEP_READERS = {
    **dict.fromkeys(("scenario.amplitude", "scenario.speed",
                     "scenario.sigma"), "scenario.kind = moving_gaussian\n"),
    "scenario.coefficients": "scenario.kind = modal\n",
    "inversion.omega": "inversion.step_rule = fixed\n",
    **dict.fromkeys(("inversion.init_amplitude", "inversion.init_speed",
                     "inversion.init_sigma"), "inversion.mode = parametric\n"),
    "inversion.init_coefficients": ("inversion.mode = parametric\n"
                                    "inversion.family = modal\n"),
}


def run_under_contract(cmd, cfg, out, capsys):
    """(exit code or exception name, fault) of one run: the fault is None
    when `main` returns a documented exit code, raises and warns nothing,
    and writes at most one stderr line besides VIOLATION lines, else the
    number of warnings and the first stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run(cmd, cfg, out)
        except Exception as exc:
            code = type(exc).__name__
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("VIOLATION ")]
    if code not in (0, 1, 2, 3) or caught or len(lines) > 1:
        return code, (len(caught), lines[:1])
    return code, None


def fresh_dirs(tmp_path):
    """Numbered new directories under `tmp_path`, one per run for its
    config and --out, each removed when the next is drawn.  On ext4,
    truncating a file that holds data to write it again can stall for
    tens of ms, and removing a file once it is on disk takes ms, so a
    sweep neither rewrites its runs' files nor leaves them behind."""
    for index in itertools.count():
        path = tmp_path / f"run{index}"
        path.mkdir()
        yield path
        shutil.rmtree(path)


def test_extreme_values_keep_exit_code_contract(tmp_path, capsys):
    """Every numeric key at each of `EXTREMES`, under each command
    that reads it, keeps the exit-code contract of `run_under_contract`."""
    assert set(SWEEP_READERS) <= set(cli._KEYS)
    broken = []
    runs = fresh_dirs(tmp_path)
    for key in filter(takes_a_number, cli._KEYS):
        for cmd in SWEEP_COMMANDS[key.split(".")[0]]:
            for value in EXTREMES:
                run_dir = next(runs)
                cfg = write_cfg(run_dir, SWEEP_BASE
                                + SWEEP_READERS.get(key, "")
                                + f"{key} = {value}\n")
                code, fault = run_under_contract(cmd, cfg, run_dir / "out",
                                                 capsys)
                if fault:
                    broken.append((cmd, key, value, code, *fault))
    assert broken == []


# the seeded combination test: SWEEP_BASE on a 6x16 grid, with 1-6 keys
# of the table set at once, each to a value typed for it
COMBINATION_GRID = SpaceTimeGrid(1.0, 1.0, 6, 16)
COMBINATION_BASE = {
    **dict(line.split(" = ") for line in SWEEP_BASE.split("\n") if line),
    "grid.n_elements": "6", "grid.n_steps": "16"}
COMBINATIONS = 250
ORDINARY = {int: ("0", "1", "2", "4", "6", "16"),
            float: ("0", "0.5", "1", "2", "-1", "1e-3", "0.15")}
# per table, a writer of a table that fits COMBINATION_GRID
COMBINATION_WRITERS = {
    "coeff.": lambda path: save_coefficient(
        path, COMBINATION_GRID.nodes, np.full(COMBINATION_GRID.n_nodes, 0.8)),
    "scenario.path": lambda path: save_load(path, LoadField(
        np.ones((COMBINATION_GRID.n_nodes, COMBINATION_GRID.n_times)),
        COMBINATION_GRID)),
    "measurements.path": lambda path: save_measurements(
        path, COMBINATION_GRID.times,
        MeasurementSeries(*[np.sin(np.pi * COMBINATION_GRID.times)] * 2)),
}


def combination_tables(directory):
    """{table: paths}: per table of `COMBINATION_WRITERS`, a fitting
    file, a ragged one, a short one, a missing path and a directory."""
    tables = {}
    for i, (table, write) in enumerate(COMBINATION_WRITERS.items()):
        good = directory / f"table{i}.csv"
        write(str(good))
        paths = [good, directory / f"absent{i}.csv", directory]
        lines = good.read_text().splitlines()
        for defect in ("ragged_row", "too_few_rows"):
            paths.append(directory / f"table{i}_{defect}.csv")
            paths[-1].write_text("".join(
                f"{line}\n" for line in CSV_DEFECTS[defect](lines)))
        tables[table] = [str(path) for path in paths]
    return tables


def combination_values(key, tables):
    """The values drawn for `key`: the paths of its table, the names a
    choice key allows, and for a numeric key `EXTREMES` and ordinary
    numbers, whole where its parser takes no fraction (a coefficient is
    a number or a table)."""
    values = list(tables.get("coeff." if key.startswith("coeff.") else key,
                             ()))
    if takes_a_number(key):
        try:
            cli._KEYS[key][0]("0.5")
            ordinary = ORDINARY[float]
        except ValueError:
            ordinary = ORDINARY[int]
        values += [*EXTREMES, *ordinary]
    elif not values:
        values = choices(key)
    return values


def test_key_combinations_keep_exit_code_contract(tmp_path, capsys):
    """Seeded random sets of 1-6 keys under a random command keep the
    contract of `run_under_contract`, and a quarter of the examples get
    past config parsing (exit 0, 1 or 3): most draws hold a value that
    the key table refuses."""
    tables = combination_tables(tmp_path)
    rng = np.random.default_rng(23)
    keys = list(cli._KEYS)
    broken, parsed = [], 0
    for _, run_dir in zip(range(COMBINATIONS), fresh_dirs(tmp_path)):
        cmd = str(rng.choice(["forward", "verify", "invert", "scenario"]))
        entries = dict(COMBINATION_BASE)
        for key in rng.choice(keys, size=rng.integers(1, 7), replace=False):
            values = combination_values(key, tables)
            entries[key] = values[rng.integers(len(values))]
        cfg = write_cfg(run_dir, "".join(f"{key} = {value}\n"
                                         for key, value in entries.items()))
        code, fault = run_under_contract(cmd, cfg, run_dir / "out", capsys)
        if fault:
            broken.append((cmd, entries, code, *fault))
        parsed += code in (0, 1, 3)
    assert broken == []
    assert parsed >= COMBINATIONS / 4


@pytest.mark.parametrize("cmd", ["forward", "verify", "invert", "scenario"])
def test_largest_length_with_a_coefficient_csv_is_one_line(tmp_path, capsys,
                                                           cmd):
    """At the largest float as grid.length the 6-element grid's nodes
    overflow (l / 6 times 6 rounds past it) when a coefficient CSV is
    sampled at them: one numeric-failure line, and no warning."""
    coeff = tmp_path / "r.csv"
    save_coefficient(coeff, np.linspace(0.0, 1.0, 7), np.full(7, 0.8))
    cfg = write_cfg(tmp_path, BASE + f"coeff.r = {coeff}\n"
                    "grid.n_elements = 6\ngrid.n_steps = 16\n"
                    "grid.length = 1.7976931348623157e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cmd, cfg, tmp_path / "out") == 3
    assert caught == []
    assert "overflow" in assert_one_line_numeric_failure(capsys)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_documents_the_declared_keys(tmp_path):
    text = README.read_text()
    listed = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    assert set(re.findall(r"`([a-z]+\.\w+)`", listed)) == set(cli._KEYS)
    example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    cfg = cli.read_config(write_cfg(tmp_path, example))
    assert cfg["inversion.mode"] == "parametric"


def test_a_later_config_line_overrides_an_earlier_one(tmp_path):
    """README's key section says so, and the tests' configs rely on it:
    they append their own values to a shared base."""
    section = README.read_text().split("### Config keys", 1)[1]
    section = " ".join(section.split("\n#", 1)[0].split())
    assert "a later line overrides an earlier one" in section
    cfg = cli.read_config(write_cfg(
        tmp_path, BASE + "grid.n_steps = 32\ngrid.n_steps = 48\n"))
    assert cfg["grid.n_steps"] == 48 and cfg["grid.n_elements"] == 16
