"""Identification of the vehicle load on a damped Euler-Bernoulli beam
from end-slope (boundary rotation) measurements.

The package couples a cubic-Hermite finite element forward solver with an
adjoint-based gradient of the least-squares misfit, projected Landweber
and parametric inversion modes, and a verification harness for the
theoretical estimates behind the method.
"""

__version__ = "0.1.0"

from .adjoint import AdjointField, solve_adjoint
from .constants import ConstantSet, compute_constants, transfer_constant
from .errors import (BeamloadError, ConfigError, DimensionError,
                     DivergenceError, ValidationError)
from .forward import (BeamTrajectory, energy_residual, newmark_integrate,
                      solve_forward)
from .inversion import (InversionConfig, InversionState, ParametricResult,
                        reconstruct_parametric, run_inversion)
from .measurements import (ModalLoad, MovingGaussian, NoiseSpec, add_noise,
                           generate_scenario, manufactured_case,
                           smooth_to_h1)
from .model import (CoefficientBounds, CoefficientSet, LoadField,
                    MeasurementSeries, SpaceTimeGrid, l2_norm_spacetime,
                    project_admissible, series_l2_norm)
from .objective import (ObjectiveEvaluation, apply_io_operators,
                        compute_gradient, evaluate_objective)
from .verify import (duality_checks, gradient_fd_checks,
                     verify_inequality_suite)

__all__ = [
    "AdjointField", "BeamTrajectory", "BeamloadError", "CoefficientBounds",
    "CoefficientSet", "ConfigError", "ConstantSet", "DimensionError",
    "DivergenceError", "InversionConfig", "InversionState",
    "LoadField", "MeasurementSeries", "ModalLoad", "MovingGaussian",
    "NoiseSpec", "ObjectiveEvaluation", "ParametricResult", "SpaceTimeGrid",
    "ValidationError", "add_noise", "apply_io_operators", "compute_constants",
    "compute_gradient", "duality_checks", "energy_residual",
    "evaluate_objective", "generate_scenario", "gradient_fd_checks",
    "l2_norm_spacetime", "manufactured_case",
    "newmark_integrate", "project_admissible", "reconstruct_parametric",
    "run_inversion", "series_l2_norm", "smooth_to_h1", "solve_adjoint",
    "solve_forward", "transfer_constant", "verify_inequality_suite",
    "__version__",
]
