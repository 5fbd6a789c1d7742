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
from .forward import energy_residual, solve_forward
from .inversion import InversionConfig, reconstruct_parametric, run_inversion
from .io import (config_hash, load_coefficient, load_load, load_measurements,
                 parse_config, save_check_report, save_field,
                 save_iteration_log, save_load, save_measurements,
                 save_sidecar)
from .measurements import (ModalLoad, MovingGaussian, NoiseSpec, add_noise,
                           manufactured_case, scenario_load, smooth_to_h1)
from .model import (CoefficientBounds, CoefficientSet, LoadField,
                    SpaceTimeGrid, l2_norm_spacetime, series_l2_norm,
                    validate_coefficients)
from .verify import (duality_checks, gradient_fd_checks,
                     verify_inequality_suite)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_COEFF_DEFAULTS = {"rho_A": 1.0, "mu": 0.0, "T_r": 0.0, "r": 1.0,
                   "kappa": 0.01}


def _get(cfg, key, default=None, cast=str):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key: {key}")
        return default
    try:
        value = cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r}") from exc
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    return value


def _get_floats(cfg, key, default):
    """A comma-separated list of finite numbers, as a tuple."""
    values = _get(cfg, key, default,
                  lambda raw: tuple(float(c) for c in raw.split(",")))
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    return values


def _get_positive(cfg, key, default):
    value = _get(cfg, key, default, float)
    if not value > 0:
        raise ConfigError(f"{key} must be positive, got {cfg[key]!r}")
    return value


def _get_nonnegative(cfg, key, default, cast=float):
    value = _get(cfg, key, default, cast)
    if value < 0:
        raise ConfigError(f"{key} must be nonnegative, got {cfg[key]!r}")
    return value


def _get_bool(cfg, key, default=False):
    raw = cfg.get(key)
    if raw is None:
        return default
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"bad boolean for {key}: {raw!r}")


def build_grid(cfg):
    try:
        return SpaceTimeGrid(length=_get(cfg, "grid.length", 1.0, float),
                             final_time=_get(cfg, "grid.final_time", 1.0,
                                             float),
                             n_elements=_get(cfg, "grid.n_elements", 64, int),
                             n_steps=_get(cfg, "grid.n_steps", 512, int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_coefficients(cfg, grid):
    """Coefficient fields from the config: a number or a CSV path each.

    Declared bounds default to the sampled extrema of each field.
    """
    fields = {}
    for name in _COEFF_DEFAULTS:
        raw = cfg.get(f"coeff.{name}")
        if raw is None:
            fields[name] = np.full(grid.n_nodes, _COEFF_DEFAULTS[name])
        else:
            try:
                fields[name] = np.full(grid.n_nodes, float(raw))
            except ValueError:
                if not os.path.exists(raw):
                    raise ConfigError(
                        f"coefficient file not found: {raw}") from None
                fields[name] = load_coefficient(raw, grid.nodes)

    def bound(key, fallback):
        return _get(cfg, f"bounds.{key}", float(fallback), float)

    bounds = CoefficientBounds(
        rho0=bound("rho0", fields["rho_A"].min()),
        rho1=bound("rho1", fields["rho_A"].max()),
        mu0=bound("mu0", fields["mu"].min()),
        mu1=bound("mu1", fields["mu"].max()),
        Tr0=bound("Tr0", fields["T_r"].min()),
        Tr1=bound("Tr1", fields["T_r"].max()),
        r0=bound("r0", fields["r"].min()),
        r1=bound("r1", fields["r"].max()),
        kappa0=bound("kappa0", fields["kappa"].min()),
        kappa1=bound("kappa1", fields["kappa"].max()))
    coeffs = CoefficientSet(rho_A=fields["rho_A"], mu=fields["mu"],
                            T_r=fields["T_r"], r=fields["r"],
                            kappa=fields["kappa"], bounds=bounds)
    report = validate_coefficients(coeffs)
    if not report.ok:
        raise ConfigError(f"inadmissible coefficients:\n{report}")
    return coeffs


def build_truth_load(cfg, grid, coeffs):
    """Truth load of the configured scenario, or None for measured data.

    Returns (load, exact_deflection_or_None, exact_outputs_or_None).
    """
    kind = cfg.get("scenario.kind")
    if kind is None:
        return None, None, None
    if kind == "zero":
        return LoadField.zero(grid), None, None
    if kind == "manufactured":
        load, exact_u, exact = manufactured_case(grid, coeffs)
        return load, exact_u, exact
    if kind == "load_csv":
        path = _get(cfg, "scenario.path")
        if not os.path.exists(path):
            raise ConfigError(f"load file not found: {path}")
        return load_load(path, grid), None, None
    if kind == "moving_gaussian":
        params = {"amplitude": _get(cfg, "scenario.amplitude", 1.0, float),
                  "speed": _get(cfg, "scenario.speed", 1.0, float),
                  "sigma": _get_positive(cfg, "scenario.sigma", 0.1)}
        return scenario_load(kind, params, grid), None, None
    if kind == "modal":
        params = {"coefficients": _get_floats(cfg, "scenario.coefficients",
                                              (1.0,))}
        return scenario_load(kind, params, grid), None, None
    if kind == "mode_pulse":
        # separable single space-time mode, the twin-data default
        x = grid.nodes[:, None]
        t = grid.times[None, :]
        amp = _get(cfg, "scenario.amplitude", 1.0, float)
        values = (amp * np.sin(np.pi * x / grid.length)
                  * np.sin(np.pi * t / grid.final_time))
        return LoadField(values, grid), None, None
    raise ConfigError(f"unknown scenario kind: {kind}")


def _twin_data(cfg, grid, coeffs, seed, missing):
    """(truth load, clean slopes, noisy slopes, H1-smoothed slopes) of
    the configured scenario; the last two are None without noise.  Raises
    ConfigError(missing) when no scenario is configured."""
    truth, _, _ = build_truth_load(cfg, grid, coeffs)
    if truth is None:
        raise ConfigError(missing)
    delta_rel = _get_nonnegative(cfg, "noise.delta_rel", 0.0)
    spec = None
    if delta_rel > 0:
        spec = NoiseSpec(delta_rel=delta_rel,
                         seed=_get_nonnegative(cfg, "noise.seed", seed, int))
    clean = solve_forward(coeffs, truth, grid).outputs
    if spec is None:
        return truth, clean, None, None
    noisy = add_noise(clean, spec, grid.dt)
    return truth, clean, noisy, smooth_to_h1(noisy, grid.times)


def _obtain_measurements(cfg, grid, coeffs, seed):
    """Measurement series from a CSV, else the twin data (smoothed when
    noisy), with the truth load or None."""
    path = cfg.get("measurements.path")
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"measurement file not found: {path}")
        return load_measurements(path, grid), None
    truth, clean, _, smooth = _twin_data(
        cfg, grid, coeffs, seed, "need measurements.path or a scenario")
    return (clean if smooth is None else smooth), truth


def _write_manifest(out, cfg_path, seed, args):
    save_sidecar(os.path.join(out, "manifest.txt"),
                 {"version": __version__,
                  "command": args.command,
                  "config": cfg_path,
                  "config_sha256": config_hash(cfg_path),
                  "seed": seed,
                  "ct_variant": args.ct_variant})


def cmd_forward(cfg, args, out):
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid)
    load, exact_u, exact = build_truth_load(cfg, grid, coeffs)
    if load is None:
        raise ConfigError("forward needs a scenario")
    traj = solve_forward(coeffs, load, grid)
    res = energy_residual(traj, coeffs, load)
    w = traj.full_deflection()

    save_measurements(os.path.join(out, "outputs.csv"), grid.times,
                      traj.outputs)
    save_field(os.path.join(out, "deflection.csv"), grid.nodes, grid.times, w)
    with open(os.path.join(out, "energy_residual.csv"), "w") as fh:
        fh.write("t,residual\n")
        for t, r in zip(grid.times, res):
            fh.write(f"{t:.17g},{r:.17g}\n")

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
    save_sidecar(os.path.join(out, "summary.txt"), summary)
    return EXIT_OK


def cmd_verify(cfg, args, out):
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid)
    seed = args.seed
    n_scenarios = _get_nonnegative(cfg, "verify.n_scenarios", 20, int)
    n_triples = _get_nonnegative(cfg, "verify.n_triples", 5, int)
    n_directions = _get_nonnegative(cfg, "verify.n_directions", 5, int)
    duality_tol = _get_positive(cfg, "verify.duality_tol", 1e-3)
    fd_tol = _get_positive(cfg, "verify.fd_tol", 5e-3)
    flip = _get_bool(cfg, "debug.flip_adjoint_sign")

    rows = []
    if n_scenarios > 0:
        rows += verify_inequality_suite(grid, coeffs,
                                        n_scenarios=n_scenarios, seed=seed,
                                        ct_variant=args.ct_variant).rows
        rows += duality_checks(grid, coeffs, n_triples=n_triples, seed=seed,
                               tol=duality_tol,
                               adjoint_sign=-1.0 if flip else 1.0).rows
        rows += gradient_fd_checks(grid, coeffs, n_directions=n_directions,
                                   seed=seed, tol=fd_tol).rows

    save_check_report(os.path.join(out, "report.csv"),
                      [r.as_tuple() for r in rows])
    violations = [r for r in rows if not r.ok]
    save_sidecar(os.path.join(out, "summary.txt"),
                 {"checks": len(rows), "violations": len(violations)})
    if violations:
        for r in violations:
            print(f"VIOLATION {r.check} {r.scenario}: "
                  f"lhs={r.lhs:.6g} rhs={r.rhs:.6g}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _parametric_family(cfg):
    family = _get(cfg, "inversion.family", "moving_gaussian")
    if family == "moving_gaussian":
        return MovingGaussian(
            amplitude=_get(cfg, "inversion.init_amplitude", 1.0, float),
            speed=_get(cfg, "inversion.init_speed", 1.0, float),
            sigma=_get_positive(cfg, "inversion.init_sigma", 0.1))
    if family == "modal":
        return ModalLoad(_get_floats(cfg, "inversion.init_coefficients",
                                     (0.0,)))
    raise ConfigError(f"unknown parametric family: {family}")


def _landweber_config(cfg, ct_variant):
    """The full-field InversionConfig; without an `inversion.noise_delta`
    key its noise level is 0 until the measurements fill it in."""
    try:
        return InversionConfig(
            step_rule=_get(cfg, "inversion.step_rule", "backtracking"),
            omega=(_get(cfg, "inversion.omega", cast=float)
                   if "inversion.omega" in cfg else None),
            max_iterations=_get(cfg, "inversion.max_iterations", 200, int),
            noise_delta=_get_nonnegative(cfg, "inversion.noise_delta", 0.0),
            tau_d=_get(cfg, "inversion.tau_d", 1.1, float),
            ct_variant=ct_variant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_invert(cfg, args, out):
    mode = _get(cfg, "inversion.mode", "full_field")
    if mode not in ("full_field", "parametric"):
        raise ConfigError(f"unknown inversion mode: {mode}")
    # every inversion key is checked before the twin data is solved
    if mode == "parametric":
        family = _parametric_family(cfg)
    else:
        config = _landweber_config(cfg, args.ct_variant)
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid)
    series, truth = _obtain_measurements(cfg, grid, coeffs, args.seed)
    summary = {}

    if mode == "parametric":
        result = reconstruct_parametric(series, coeffs, grid, family)
        params = result.family.parameters
        with open(os.path.join(out, "parameters.csv"), "w") as fh:
            fh.write("index,value\n")
            for i, p in enumerate(params):
                fh.write(f"{i},{p:.17g}\n")
        summary.update({"J": result.J, "converged": result.converged,
                        "identifiable": result.identifiable,
                        "n_evaluations": result.n_evaluations})
        recon = result.family.field(grid)
    else:
        if "inversion.noise_delta" not in cfg:
            config = dataclasses.replace(
                config, noise_delta=series.noise_delta or 0.0)
        state = run_inversion(series, coeffs, grid, config=config)
        save_iteration_log(os.path.join(out, "iterations.csv"), state)
        summary.update({"iterations": state.iterations,
                        "stop_reason": state.stop_reason,
                        "omega": state.omega,
                        "J_final": state.J_history[-1],
                        "discrepancy": state.discrepancy_history[-1]})
        recon = state.load

    save_load(os.path.join(out, "reconstructed_load.csv"), recon)
    if truth is not None:
        diff = l2_norm_spacetime(recon - truth)
        denom = max(l2_norm_spacetime(truth), 1e-300)
        summary["rel_load_error"] = diff / denom
    save_sidecar(os.path.join(out, "summary.txt"), summary)
    return EXIT_OK


def cmd_scenario(cfg, args, out):
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid)
    truth, clean, noisy, smooth = _twin_data(cfg, grid, coeffs, args.seed,
                                             "scenario needs a scenario.kind")
    save_load(os.path.join(out, "true_load.csv"), truth)
    save_measurements(os.path.join(out, "measurements_clean.csv"),
                      grid.times, clean)
    summary = {"load_norm": l2_norm_spacetime(truth),
               "delta_rel": _get(cfg, "noise.delta_rel", 0.0, float)}
    if noisy is not None:
        save_measurements(os.path.join(out, "measurements_noisy.csv"),
                          grid.times, noisy)
        save_measurements(os.path.join(out, "measurements_smoothed.csv"),
                          grid.times, smooth)
        summary["noise_delta"] = noisy.noise_delta
    save_sidecar(os.path.join(out, "summary.txt"), summary)
    return EXIT_OK


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
        cfg = parse_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        code = _COMMANDS[args.command](cfg, args, args.out)
        _write_manifest(args.out, args.config, args.seed, args)
        return code
    except (ConfigError, DimensionError, ValidationError) as exc:
        message = str(exc).replace("\n", "; ")
        print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
