"""Command-line entry points: forward runs, verification, inversion and
scenario generation, driven by a line-oriented key=value config.

Exit codes are the contract: 0 success, 1 verification failure, 2 config
error, 3 numeric failure.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .errors import (ConfigError, DimensionError, DivergenceError,
                     ValidationError)
from .forward import beam_kernel, energy_residual, solve_forward
from .inversion import InversionConfig, reconstruct_parametric, run_inversion
from .io import (config_hash, load_coefficient, load_load, load_measurements,
                 parse_config, save_check_report, save_field,
                 save_iteration_log, save_load, save_measurements,
                 save_sidecar, save_table)
from .measurements import (NoiseSpec, generate_scenario, load_family,
                           manufactured_case)
from .model import (CoefficientBounds, CoefficientSet, LoadField,
                    SpaceTimeGrid, l2_norm_spacetime, series_l2_norm)
from .verify import (duality_checks, gradient_fd_checks,
                     verify_inequality_suite)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _checked(parse, ok, reason):
    """A parser: `parse`, then a ValueError(reason) unless `ok(value)`."""
    def parser(raw):
        value = parse(raw)
        if not ok(value):
            raise ValueError(reason)
        return value
    return parser


_finite = _checked(float, np.isfinite, "not finite")
_positive = _checked(_finite, lambda v: v > 0, "not positive")
_nonnegative = _checked(_finite, lambda v: v >= 0, "negative")
_count = _checked(int, lambda v: v >= 0, "negative")
_mesh_count = _checked(int, lambda v: v >= 4, "below 4")


def _one_of(*names):
    """A parser that accepts only one of `names`."""
    return _checked(str, lambda v: v in names,
                    f"not one of {', '.join(names)}")


def _floats(raw):
    """A comma-separated list of finite numbers, as a tuple."""
    return tuple(_finite(c) for c in raw.split(","))


# Every config key any command reads: (parser, default).  The parser
# accepts only the key's allowed names or range, so a command checks no
# config value itself.  A default of None is filled in by the run: each
# bound by its field's sampled extremum, `inversion.omega` by 1/L_G and
# `inversion.noise_delta` by the measured noise level; the scenario and
# measurement keys have no default.  A `coeff.*` value is a number or the
# path of an x,value CSV.
_KEYS = {
    "grid.length": (_positive, 1.0), "grid.final_time": (_positive, 1.0),
    "grid.n_elements": (_mesh_count, 64), "grid.n_steps": (_mesh_count, 512),
    **{f"coeff.{name}": (str, value) for name, value in (
        ("rho_A", 1.0), ("mu", 0.0), ("T_r", 0.0), ("r", 1.0),
        ("kappa", 0.01))},
    **{f"bounds.{name}{end}": (_finite, None)
       for name in ("rho", "mu", "Tr", "r", "kappa") for end in "01"},
    "scenario.kind": (_one_of("zero", "manufactured", "load_csv",
                              "moving_gaussian", "modal"), None),
    "scenario.path": (str, None),
    "scenario.amplitude": (_finite, 1.0), "scenario.speed": (_finite, 1.0),
    "scenario.sigma": (_positive, 0.1),
    "scenario.coefficients": (_floats, (1.0,)),
    "noise.delta_rel": (_nonnegative, 0.0),
    "measurements.path": (str, None),
    "inversion.mode": (_one_of("full_field", "parametric"), "full_field"),
    "inversion.step_rule": (_one_of("fixed", "backtracking"), "backtracking"),
    "inversion.omega": (_positive, None),
    "inversion.max_iterations": (_count, 200),
    "inversion.noise_delta": (_nonnegative, None),
    "inversion.tau_d": (_checked(_finite, lambda v: v > 1, "not above 1"),
                        1.1),
    "inversion.family": (_one_of("moving_gaussian", "modal"),
                         "moving_gaussian"),
    "inversion.init_amplitude": (_finite, 1.0),
    "inversion.init_speed": (_finite, 1.0),
    "inversion.init_sigma": (_positive, 0.1),
    "inversion.init_coefficients": (_floats, (0.0,)),
    "verify.n_scenarios": (_count, 20), "verify.n_triples": (_count, 5),
    "verify.n_directions": (_count, 5), "verify.fd_tol": (_positive, 5e-3),
    "verify.duality_tol": (_positive, 1e-3),
}


def read_config(path):
    """The config at `path` as {key: value} over every declared key, each
    parsed, or at its default where absent.  An undeclared key or a value
    its parser rejects is a ConfigError that names the key."""
    raw = parse_config(path)
    unknown = [key for key in raw if key not in _KEYS]
    if unknown:
        raise ConfigError(f"undeclared config key: {', '.join(unknown)}")
    cfg = {}
    for key, (parse, default) in _KEYS.items():
        try:
            cfg[key] = parse(raw[key]) if key in raw else default
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key}: {raw[key]!r} ({exc})") from None
    return cfg


def _family(cfg, prefix):
    """{name: value} of the keys `prefix + name`, in table order."""
    return {key[len(prefix):]: cfg[key] for key in _KEYS
            if key.startswith(prefix)}


def build_coefficients(cfg, grid):
    """Coefficient fields from the config: a number or a CSV path each.

    Declared bounds default to the sampled extrema of each field.
    """
    fields = {}
    for name, raw in _family(cfg, "coeff.").items():
        try:
            fields[name] = np.full(grid.n_nodes, float(raw))
        except ValueError:
            fields[name] = load_coefficient(raw, grid.nodes)
    extrema = [float(f(v)) for v in fields.values() for f in (np.min, np.max)]
    bounds = CoefficientBounds(**{
        name: extreme if value is None else value
        for (name, value), extreme in zip(_family(cfg, "bounds.").items(),
                                          extrema)})
    return CoefficientSet(**fields, bounds=bounds)


def build_truth_load(cfg, grid, coeffs):
    """Truth load of the configured scenario, or None for measured data.

    Returns (load, exact_deflection_or_None, exact_outputs_or_None).
    """
    kind = cfg["scenario.kind"]
    if kind is None:
        return None, None, None
    if kind == "zero":
        return LoadField.zero(grid), None, None
    if kind == "manufactured":
        return manufactured_case(grid, coeffs)
    if kind == "load_csv":
        path = cfg["scenario.path"]
        if path is None:
            raise ConfigError("missing config key: scenario.path")
        return load_load(path, grid), None, None
    return load_family(kind, _family(cfg, "scenario.")).field(grid), None, None


def _twin_data(cfg, grid, coeffs, seed, missing):
    """(truth load, clean slopes, noisy slopes, H1-smoothed slopes) of
    the configured scenario, from `generate_scenario`; the last two are
    None without noise.  Raises ConfigError(missing) when no scenario is
    configured."""
    truth, _, _ = build_truth_load(cfg, grid, coeffs)
    if truth is None:
        raise ConfigError(missing)
    noise = NoiseSpec(delta_rel=cfg["noise.delta_rel"], seed=seed)
    return (truth,) + generate_scenario(truth, coeffs, grid, noise)


def _obtain_measurements(cfg, grid, coeffs, seed):
    """Measurement series from a CSV, else the twin data (smoothed when
    noisy), with the truth load or None."""
    path = cfg["measurements.path"]
    if path is not None:
        return load_measurements(path, grid), None
    truth, clean, _, smooth = _twin_data(
        cfg, grid, coeffs, seed, "need measurements.path or a scenario")
    return (clean if smooth is None else smooth), truth


def cmd_forward(cfg, grid, coeffs, args):
    load, exact_u, exact = build_truth_load(cfg, grid, coeffs)
    if load is None:
        raise ConfigError("forward needs a scenario")
    traj = solve_forward(coeffs, load, grid)
    res = energy_residual(traj, load)
    w = traj.full_deflection()

    save_measurements(os.path.join(args.out, "outputs.csv"), grid.times,
                      traj.outputs)
    save_field(os.path.join(args.out, "deflection.csv"), grid.nodes,
               grid.times, w)
    save_table(os.path.join(args.out, "energy_residual.csv"), "t,residual",
               (grid.times, res))

    summary = {"max_energy_residual": float(np.max(res)),
               "theta0_norm": series_l2_norm(traj.outputs.theta0, grid.dt),
               "thetaL_norm": series_l2_norm(traj.outputs.thetaL, grid.dt),
               "load_norm": l2_norm_spacetime(load)}
    if exact_u is not None:
        scale = np.max(np.abs(exact_u))
        summary["max_rel_solution_error"] = float(
            np.max(np.abs(w - exact_u)) / scale)
        summary["theta0_max_error"] = float(
            np.max(np.abs(traj.outputs.theta0 - exact.theta0)))
    return EXIT_OK, summary


def cmd_verify(cfg, grid, coeffs, args):
    n = _family(cfg, "verify.n_")
    # every check runs on the beam's kept kernel, which the suite's audit
    # keeps when it builds; a family with a count of 0 returns no rows
    # and builds nothing
    report = verify_inequality_suite(
        grid, coeffs, n_scenarios=n["scenarios"], seed=args.seed,
        ct_variant=args.ct_variant)
    report += duality_checks(
        grid, coeffs, n_triples=n["triples"], seed=args.seed,
        tol=cfg["verify.duality_tol"])
    report += gradient_fd_checks(
        grid, coeffs, n_directions=n["directions"], seed=args.seed,
        tol=cfg["verify.fd_tol"])

    save_check_report(os.path.join(args.out, "report.csv"), report.rows)
    violations = report.violations
    summary = {"checks": len(report.rows), "violations": len(violations)}
    if any(n.values()):
        summary["kernel_rank"] = "%d/%d" % beam_kernel(grid, coeffs).rank
    for r in violations:
        print(f"VIOLATION {r.check} {r.scenario}: "
              f"lhs={r.lhs:.6g} rhs={r.rhs:.6g}", file=sys.stderr)
    return (EXIT_OK if report.ok else EXIT_VERIFY), summary


def _fit_start(cfg):
    """The load family a parametric fit starts from, from the
    `inversion.init_*` keys that its family reads.  The fit's first trust
    radius is the norm of the start, so a start whose squares overflow is
    a numeric failure, named by the key of the largest."""
    family = load_family(cfg["inversion.family"],
                         _family(cfg, "inversion.init_"))
    with np.errstate(over="ignore"):
        squares = {field.name: np.sum(np.square(getattr(family, field.name)))
                   for field in dataclasses.fields(family)}
        if np.isfinite(sum(squares.values())):
            return family
    name = max(squares, key=squares.get)
    raise DivergenceError(f"fit start out of floating range at "
                          f"inversion.init_{name} = {getattr(family, name)}")


def cmd_invert(cfg, grid, coeffs, args):
    series, truth = _obtain_measurements(cfg, grid, coeffs, args.seed)
    summary = {}

    if cfg["inversion.mode"] == "parametric":
        result = reconstruct_parametric(series, coeffs, grid, _fit_start(cfg))
        params = result.family.parameters
        save_table(os.path.join(args.out, "parameters.csv"), "index,value",
                   (np.arange(len(params)), params))
        summary.update({"J": result.J, "converged": result.converged,
                        "identifiable": result.identifiable,
                        "n_evaluations": result.n_evaluations,
                        "kernel_rank": "%d/%d" % result.kernel_rank})
        recon = result.family.field(grid)
    else:
        noise_delta = cfg["inversion.noise_delta"]
        if noise_delta is None:
            noise_delta = series.noise_delta or 0.0
        config = InversionConfig(
            step_rule=cfg["inversion.step_rule"],
            omega=cfg["inversion.omega"],
            max_iterations=cfg["inversion.max_iterations"],
            noise_delta=noise_delta, tau_d=cfg["inversion.tau_d"],
            ct_variant=args.ct_variant)
        state = run_inversion(series, coeffs, grid, config=config)
        save_iteration_log(os.path.join(args.out, "iterations.csv"), state)
        summary.update({"iterations": state.iterations,
                        "stop_reason": state.stop_reason,
                        "omega": state.omega,
                        "J_final": state.J_history[-1],
                        "discrepancy": state.discrepancy_history[-1],
                        "kernel_rank": "%d/%d" % state.kernel_rank,
                        "loop_rank": state.loop_rank})
        recon = state.load

    save_load(os.path.join(args.out, "reconstructed_load.csv"), recon)
    if truth is not None:
        diff = l2_norm_spacetime(recon - truth)
        denom = max(l2_norm_spacetime(truth), 1e-300)
        summary["rel_load_error"] = diff / denom
    return EXIT_OK, summary


def cmd_scenario(cfg, grid, coeffs, args):
    truth, clean, noisy, smooth = _twin_data(cfg, grid, coeffs, args.seed,
                                             "scenario needs a scenario.kind")
    save_load(os.path.join(args.out, "true_load.csv"), truth)
    save_measurements(os.path.join(args.out, "measurements_clean.csv"),
                      grid.times, clean)
    summary = {"load_norm": l2_norm_spacetime(truth),
               "delta_rel": cfg["noise.delta_rel"]}
    if noisy is not None:
        save_measurements(os.path.join(args.out, "measurements_noisy.csv"),
                          grid.times, noisy)
        save_measurements(os.path.join(args.out, "measurements_smoothed.csv"),
                          grid.times, smooth)
        summary["noise_delta"] = noisy.noise_delta
    return EXIT_OK, summary


# each command writes under `args.out` and returns its exit code and the
# entries of `summary.txt`, which `main` writes before the manifest
_COMMANDS = {"forward": cmd_forward, "verify": cmd_verify,
             "invert": cmd_invert, "scenario": cmd_scenario}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="beamload",
        description="Beam load identification from end-slope measurements")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="key=value config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ct-variant", choices=("literal", "corrected"),
                        default="literal", dest="ct_variant")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        cfg = read_config(args.config)
        # a float that leaves range is an error wherever it happens, from
        # the grid's nodes on; underflow to 0 stays allowed
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            grid = SpaceTimeGrid(**_family(cfg, "grid."))
            coeffs = build_coefficients(cfg, grid)
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create --out: {exc}") from None
            code, summary = _COMMANDS[args.command](cfg, grid, coeffs, args)
            save_sidecar(os.path.join(args.out, "summary.txt"), summary)
            save_sidecar(os.path.join(args.out, "manifest.txt"),
                         {"version": __version__, "command": args.command,
                          "config": args.config,
                          "config_sha256": config_hash(args.config),
                          "seed": args.seed, "ct_variant": args.ct_variant})
        return code
    except (ConfigError, DimensionError, ValidationError) as exc:
        message = str(exc).replace("\n", "; ")
        print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, FloatingPointError, OverflowError,
            MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"numeric failure: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
