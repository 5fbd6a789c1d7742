"""Forward solver walkthrough on a manufactured solution.

A beam with constant coefficients is driven by the closed-form load whose
exact response is u(x, t) = t^2 sin(pi x / l).  The script prints the
solution error across a refinement ladder and audits the discrete energy
balance at each level.
"""

import numpy as np

from beamload import CoefficientSet, SpaceTimeGrid, solve_forward
from beamload.forward import energy_residual
from beamload.measurements import manufactured_case


def run_level(n_elements, n_steps):
    grid = SpaceTimeGrid(length=1.0, final_time=1.0,
                         n_elements=n_elements, n_steps=n_steps)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.1, T_r=0.2,
                                     r=1.0, kappa=0.05)
    load, exact_u, exact_out = manufactured_case(grid, coeffs)
    traj = solve_forward(coeffs, load, grid)
    w = traj.full_deflection()
    err = np.max(np.abs(w - exact_u)) / np.max(np.abs(exact_u))
    slope_err = np.max(np.abs(traj.outputs.theta0 - exact_out.theta0))
    energy = np.max(energy_residual(traj, load))
    return err, slope_err, energy


def main():
    print("manufactured solution u = t^2 sin(pi x), rho=1 mu=0.1 "
          "T_r=0.2 r=1 kappa=0.05")
    print(f"{'grid':>12} {'rel err':>10} {'slope err':>10} "
          f"{'energy res':>11} {'rate':>6}")
    prev = None
    for n_el, n_st in ((16, 128), (32, 256), (64, 512), (128, 1024)):
        err, slope_err, energy = run_level(n_el, n_st)
        rate = "" if prev is None else f"{np.log2(prev / err):.2f}"
        print(f"{n_el:>5}x{n_st:<6} {err:>10.2e} {slope_err:>10.2e} "
              f"{energy:>11.2e} {rate:>6}")
        prev = err
    print("\nthe error halves twice per refinement: second order in "
          "space and time, and the energy identity tracks it.")


if __name__ == "__main__":
    main()
