"""Twin-data inversion walkthrough.

Three experiments on synthetic (twin) measurements:
  1. noiseless full-field Landweber descent, fixed step vs backtracking;
  2. noisy full-field descent stopped by the discrepancy principle;
  3. parametric recovery of a moving Gaussian load at 1% noise.
"""

import numpy as np

from beamload import (CoefficientSet, InversionConfig, LoadField,
                      MovingGaussian, NoiseSpec, SpaceTimeGrid,
                      generate_scenario, reconstruct_parametric,
                      run_inversion)


def main():
    grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=32,
                         n_steps=256)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.0,
                                     r=0.5, kappa=0.02)
    x = grid.nodes[:, None]
    t = grid.times[None, :]
    truth = LoadField(np.sin(np.pi * x) * np.sin(np.pi * t), grid)
    clean, noisy, smooth = generate_scenario(
        truth, coeffs, grid, NoiseSpec(delta_rel=0.02, seed=0))

    print("1. noiseless descent, 100 iterations")
    for rule in ("fixed", "backtracking"):
        cfg = InversionConfig(step_rule=rule, max_iterations=100)
        state = run_inversion(clean, coeffs, grid, config=cfg)
        J = state.J_history
        print(f"   {rule:<13} J ratio = {J[-1] / J[0]:.2e} "
              f"(omega = {state.omega:.2e}, stop: {state.stop_reason})")
    print("   the theory-backed fixed step guarantees monotone descent "
          "but is very conservative; backtracking makes the progress.")

    print("\n2. 2% noise, Morozov-stopped descent")
    cfg = InversionConfig(step_rule="backtracking", max_iterations=500,
                          noise_delta=noisy.noise_delta, tau_d=1.1)
    state = run_inversion(smooth, coeffs, grid, config=cfg)
    print(f"   stopped after {state.iterations} iterations "
          f"({state.stop_reason}), discrepancy "
          f"{state.discrepancy_history[-1]:.2e} vs level "
          f"{cfg.tau_d * noisy.noise_delta:.2e}")
    print("   two scalar channels cannot pin down a full field, so the "
          "field error stays large even at the noise level; the honest "
          "target is the data misfit.")

    print("\n3. parametric moving-Gaussian recovery at 1% noise")
    gauss = MovingGaussian(amplitude=2.0, speed=1.0, sigma=0.15)
    _, _, smooth = generate_scenario(gauss.field(grid), coeffs, grid,
                                     NoiseSpec(delta_rel=0.01, seed=1))
    start = MovingGaussian(amplitude=1.0, speed=0.8, sigma=0.2)
    result = reconstruct_parametric(smooth, coeffs, grid, start)
    rel = np.abs(result.family.parameters - gauss.parameters) \
        / np.abs(gauss.parameters)
    print(f"   recovered (A, v, sigma) = "
          f"({result.family.amplitude:.4f}, {result.family.speed:.4f}, "
          f"{result.family.sigma:.4f})")
    print(f"   relative errors = {rel[0]:.2%}, {rel[1]:.2%}, {rel[2]:.2%} "
          f"(identifiable: {result.identifiable})")


if __name__ == "__main__":
    main()
