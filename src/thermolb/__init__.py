"""Discrete-velocity thermal lattice Boltzmann models built from a single
univariate polynomial equation, with truncated equilibria, a shock-tube
simulator and an exact Riemann reference solver."""

__version__ = "0.1.0"

from .equilibrium import (DiscreteEquilibrium, EquilibriumPolynomial,
                          ExpansionSpec, expand, moment_accuracy,
                          truncated_mb_moment, verify_moments)
from .model_solver import (CATALOG, NoRealSolutionError, RatioTuple,
                           VelocityModel, build_polynomial, closed_form_q5,
                           detect_ghosts, resolve_catalog, solve_model)
from .moments import discrete_moment, gaussian_moment
from .riemann import (GasState, RiemannSolution, VacuumError, sample,
                      sample_profile, solve_riemann)
from .simulator import (LatticeState, PlateauReport, RunResult,
                        ShockTubeConfig, Snapshot, StabilityVerdict,
                        default_step_count, extract_plateaus,
                        init_shock_tube, run, stability_scan, step)

__all__ = [
    "CATALOG", "DiscreteEquilibrium", "EquilibriumPolynomial",
    "ExpansionSpec", "GasState", "LatticeState", "NoRealSolutionError",
    "PlateauReport", "RatioTuple", "RiemannSolution", "RunResult",
    "ShockTubeConfig", "Snapshot", "StabilityVerdict", "VacuumError",
    "VelocityModel", "build_polynomial", "closed_form_q5",
    "default_step_count", "detect_ghosts", "discrete_moment", "expand",
    "extract_plateaus", "gaussian_moment", "init_shock_tube",
    "moment_accuracy", "resolve_catalog", "run", "sample", "sample_profile",
    "solve_model", "solve_riemann", "stability_scan", "step",
    "truncated_mb_moment", "verify_moments",
]
