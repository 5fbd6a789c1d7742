"""The four beamload workloads: inputs made from a seed, one operation,
and the check each operation must pass.

`setup(seed, workdir)` builds everything an operation needs before the
first one is timed; `make_input(i)` derives the i-th operation's input
from the workload seed (outside the timed region); `run(input)` is the
timed operation; `check(input, result)` compares its outputs with the
reference and returns an `Outcome`.  `nominal_op_s` is an operation's
time on the reference machine; a run makes `--seconds / nominal_op_s`
operations, rounded, so a seed gives the same operations on any commit.

An operation that misses its check is a failed operation, counted
against the operations attempted.  It is `wrong` when the program
reported success all the same (exit 0, or a "discrepancy" stop) - that
is an incorrect output, and it makes the whole run incorrect.  A failure
the program itself reports (a non-zero exit code that matches its own
report) is counted as failed but leaves the run correct.
"""

import os
import shutil
from dataclasses import dataclass

import numpy as np

from beamload import cli, inversion, measurements
from beamload.forward import solve_forward
from beamload.io import load_sidecar
from beamload.model import CoefficientSet, SpaceTimeGrid


@dataclass(frozen=True)
class Outcome:
    passed: bool
    wrong: bool = False
    detail: str = ""


def op_seed(seed, i):
    """Seed of the i-th operation of a run with workload seed `seed`."""
    return 1000 * seed + i


def _write_config(path, entries):
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


class FullfieldMorozov:
    """Library pipeline: raw noisy twin slopes -> `smooth_to_h1` ->
    backtracking Landweber until the Morozov discrepancy rule stops it."""

    name = "fullfield_morozov"
    nominal_op_s = 12.0
    n_elements, n_steps = 64, 512
    noise = 0.05
    tau_d = 1.1

    def setup(self, seed, workdir):
        self.seed = seed
        self.grid = SpaceTimeGrid(length=1.0, final_time=1.0,
                                  n_elements=self.n_elements,
                                  n_steps=self.n_steps)
        # criterion-7 coefficients and truth
        self.coeffs = CoefficientSet.constant(self.grid, rho_A=1.0, mu=0.05,
                                              T_r=0.0, r=0.5, kappa=0.02)
        truth = measurements.MovingGaussian(amplitude=2.0, speed=1.0,
                                            sigma=0.15)
        self.clean = solve_forward(self.coeffs, truth.field(self.grid),
                                   self.grid).outputs

    def make_input(self, i):
        spec = measurements.NoiseSpec(delta_rel=self.noise,
                                      seed=op_seed(self.seed, i))
        return measurements.add_noise(self.clean, spec, self.grid.dt)

    def run(self, noisy):
        smooth = measurements.smooth_to_h1(noisy, self.grid.times)
        config = inversion.InversionConfig(
            step_rule="backtracking", max_iterations=800,
            noise_delta=noisy.noise_delta, tau_d=self.tau_d)
        return inversion.run_inversion(smooth, self.coeffs, self.grid,
                                       config=config)

    def check(self, noisy, state):
        target = self.tau_d * noisy.noise_delta
        final = state.discrepancy_history[-1]
        detail = (f"stop={state.stop_reason} iterations={state.iterations} "
                  f"discrepancy/target={final / target:.4g}")
        if state.stop_reason != "discrepancy":
            return Outcome(False, detail=detail)
        ok = bool(0.5 * target <= final <= 2.0 * target)
        return Outcome(ok, wrong=not ok, detail=detail)


class CliWorkload:
    """One `beamload <command>` per operation, run in this process through
    `beamload.cli.main` so that tracing and `ru_maxrss` see it."""

    command = None
    config = None

    def setup(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "run.cfg")
        _write_config(self.config_path, self.config)

    def make_input(self, i):
        out = os.path.join(self.workdir, f"op{i}")
        shutil.rmtree(out, ignore_errors=True)
        return out, op_seed(self.seed, i)

    def run(self, inp):
        out, seed = inp
        return cli.main([self.command, "--config", self.config_path,
                         "--out", out, "--seed", str(seed)])

    def check(self, inp, code):
        out, _ = inp
        try:
            return self.check_outputs(out, code)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class ParametricCli(CliWorkload):
    """`beamload invert` on the README config (parametric moving Gaussian,
    1 % noise)."""

    name = "parametric_cli"
    nominal_op_s = 3.6
    command = "invert"
    config = {
        "grid.length": 1.0, "grid.final_time": 1.0,
        "grid.n_elements": 64, "grid.n_steps": 512,
        "coeff.rho_A": 1.0, "coeff.r": 0.5, "coeff.kappa": 0.02,
        "scenario.kind": "moving_gaussian", "scenario.amplitude": 2.0,
        "scenario.speed": 1.0, "scenario.sigma": 0.15,
        "noise.delta_rel": 0.01,
        "inversion.mode": "parametric", "inversion.init_amplitude": 1.0,
        "inversion.init_speed": 0.8, "inversion.init_sigma": 0.2,
    }

    def check_outputs(self, out, code):
        if code != 0:
            return Outcome(False, detail=f"exit {code}")
        params = np.loadtxt(os.path.join(out, "parameters.csv"),
                            delimiter=",", skiprows=1)
        amplitude = float(params[0, 1])
        summary = load_sidecar(os.path.join(out, "summary.txt"))
        identifiable = summary.get("identifiable") == "True"
        detail = f"amplitude={amplitude:.6g} identifiable={identifiable}"
        if not identifiable:
            return Outcome(False, detail=detail)
        # criterion-7 tolerance on the amplitude of the 2.0 truth
        ok = abs(amplitude - 2.0) <= 0.10 * 2.0
        return Outcome(ok, wrong=not ok, detail=detail)


class VerifyCli(CliWorkload):
    """`beamload verify` at 64x512 with criterion-5 coefficients and the
    defaults of 20 scenarios, 5 duality triples and 5 FD directions."""

    name = "verify_cli"
    nominal_op_s = 11.0
    command = "verify"
    rows = 20 * 21 + 5 + 5      # 21 checks per scenario, triples, directions
    config = {
        "grid.length": 1.0, "grid.final_time": 1.0,
        "grid.n_elements": 64, "grid.n_steps": 512,
        "coeff.rho_A": 1.0, "coeff.mu": 0.05, "coeff.T_r": 0.1,
        "coeff.r": 0.8, "coeff.kappa": 0.02,
    }

    def check_outputs(self, out, code):
        if code not in (0, 1):
            return Outcome(False, detail=f"exit {code}")
        with open(os.path.join(out, "report.csv")) as fh:
            lines = fh.read().splitlines()[1:]
        violations = [line.rsplit(",", 1)[0].split(",", 2)[:2]
                      for line in lines if line.endswith(",false")]
        detail = f"exit {code} rows={len(lines)} violations={violations}"
        # exit codes are the CLI contract: 0 clean, 1 violations reported
        consistent = (code == (1 if violations else 0)
                      and len(lines) == self.rows)
        if not consistent:
            return Outcome(False, wrong=True, detail=detail)
        return Outcome(not violations, detail=detail)


class FineForwardCli(CliWorkload):
    """`beamload forward` on the manufactured scenario at 512x1024."""

    name = "fine_forward_cli"
    nominal_op_s = 9.0
    command = "forward"
    config = {
        "grid.length": 1.0, "grid.final_time": 1.0,
        "grid.n_elements": 512, "grid.n_steps": 1024,
        "coeff.rho_A": 1.0, "coeff.mu": 0.1, "coeff.T_r": 0.2,
        "coeff.r": 1.0, "coeff.kappa": 0.05,
        "scenario.kind": "manufactured",
    }

    def check_outputs(self, out, code):
        if code != 0:
            return Outcome(False, detail=f"exit {code}")
        summary = load_sidecar(os.path.join(out, "summary.txt"))
        err = float(summary["max_rel_solution_error"])
        energy = float(summary["max_energy_residual"])
        detail = f"solution_error={err:.4g} energy_residual={energy:.4g}"
        # criterion-1 and criterion-2 tolerances
        ok = err <= 5e-3 and energy <= 1e-3
        return Outcome(ok, wrong=not ok, detail=detail)


WORKLOADS = {w.name: w for w in (FullfieldMorozov, ParametricCli, VerifyCli,
                                 FineForwardCli)}
