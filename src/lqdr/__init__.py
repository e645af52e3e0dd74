"""Optimal rejection of mismatched disturbances for discrete-time linear systems.

The toolkit recasts disturbance rejection as linear quadratic tracking:
instead of trying to cancel a disturbance that enters outside the input
channel (impossible in general), it finds the input that optimally removes
the disturbance's effect from a chosen regulated output while penalizing
the combined channel activity B u + E d.

Layout:
    model        plant/cost/disturbance types, validation, discretization
    riccati      finite-horizon recursion and the stationary equation
    feedforward  disturbance/reference compensation sequences
    control      optimal, stationary, receding-horizon, and baseline laws
    sim          closed-loop rollout, cost identities, brute-force oracle
    cli          scenario runner (CSV/SVG/JSON artifacts) and selftest
"""

__version__ = "0.1.0"

from .exceptions import (ConvergenceError, LqdrError, RegularityError,
                         ScenarioError, SolvabilityError, StabilizationError)
from .model import (MATCHED, MISMATCHED, CostSpec, DisturbanceProfile,
                    SystemModel, ValidationReport, check_detectability,
                    classify_disturbance, discretize_zoh, disturbance_sequence,
                    validate)
from .riccati import (GareSolution, RiccatiSolution, solve_finite_horizon, solve_gare,
                      spectral_radius)
from .feedforward import (FeedforwardSolution, solve_closed_form, solve_recursive,
                          solve_steady)
from .control import ControllerConfig, build_controller, finite_horizon_control
from .sim import (OracleResult, RandomInstance, Trajectory,
                  brute_force_optimal, costate_residuals, draw_instance,
                  evaluate_cost, predicted_optimal_cost, simulate)

__all__ = [
    "__version__",
    "LqdrError", "SolvabilityError", "RegularityError", "ConvergenceError",
    "StabilizationError", "ScenarioError",
    "SystemModel", "CostSpec", "DisturbanceProfile", "ValidationReport",
    "MATCHED", "MISMATCHED",
    "validate", "check_detectability", "classify_disturbance",
    "discretize_zoh", "disturbance_sequence",
    "RiccatiSolution", "GareSolution", "solve_finite_horizon", "solve_gare",
    "spectral_radius",
    "FeedforwardSolution", "solve_recursive", "solve_closed_form", "solve_steady",
    "ControllerConfig", "build_controller",
    "finite_horizon_control",
    "Trajectory", "OracleResult", "RandomInstance", "simulate",
    "evaluate_cost", "predicted_optimal_cost", "brute_force_optimal",
    "costate_residuals", "draw_instance",
]
