"""Adjoint machinery in action: duality identity and gradient checks.

The gradient of the output misfit is the adjoint state itself, so two
independent consistency checks are available: the discrete duality
pairing <p, B dF> = <B* (p, q), dF>, and agreement of the adjoint
gradient with central finite differences of the misfit.
"""

from beamload import CoefficientSet, SpaceTimeGrid
from beamload.verify import duality_checks, gradient_fd_checks


def main():
    coarse = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=32,
                           n_steps=256)
    fine = coarse.refined()

    print("duality residual |<p,du_x(0)> + <q,du_x(l)> - <dF,phi>| / "
          "|<dF,phi>|")
    for grid, label in ((coarse, "32 x 256"), (fine, "64 x 512")):
        coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05,
                                         T_r=0.1, r=0.8, kappa=0.02)
        rep = duality_checks(grid, coeffs, n_triples=5, tol=1e-2)
        worst = max(r.lhs for r in rep.rows)
        print(f"  {label}: worst of 5 random triples = {worst:.2e}")

    print("\nadjoint gradient vs central finite differences of J")
    coeffs = CoefficientSet.constant(fine, rho_A=1.0, mu=0.05, T_r=0.1,
                                     r=0.8, kappa=0.02)
    rep = gradient_fd_checks(fine, coeffs, n_directions=5)
    for row in rep.rows:
        print(f"  direction {row.scenario}: rel mismatch = {row.lhs:.2e}")
    print("\nboth residuals sit at the discretization level and shrink "
          "under refinement: the gradient is the discretised continuous "
          "adjoint, which converges to the transpose of the forward map, "
          "not its exact discrete transpose.")


if __name__ == "__main__":
    main()
