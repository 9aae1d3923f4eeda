"""Discrete-velocity thermal lattice Boltzmann models built from a single
univariate polynomial equation, with truncated equilibria, a shock-tube
simulator and an exact Riemann reference solver."""

__version__ = "0.1.0"

from .equilibrium import (DiscreteEquilibrium, ExpansionSpec, expand,
                          moment_accuracy, truncated_mb_moment, verify_moments)
from .model_solver import (CATALOG, NoRealSolutionError, RatioTuple,
                           VelocityModel, build_polynomial, closed_form_q5,
                           detect_ghosts, resolve_catalog, solve_model)
from .moments import discrete_moment, gaussian_moment
from .riemann import GasState, VacuumError, sample, sample_profile, solve_riemann
from .simulator import (ShockTubeConfig, extract_plateaus, init_shock_tube, run,
                        step)

__all__ = [
    "CATALOG", "DiscreteEquilibrium", "ExpansionSpec", "GasState",
    "NoRealSolutionError", "RatioTuple", "ShockTubeConfig", "VacuumError",
    "VelocityModel", "build_polynomial", "closed_form_q5", "detect_ghosts",
    "discrete_moment", "expand", "extract_plateaus", "gaussian_moment",
    "init_shock_tube", "moment_accuracy", "resolve_catalog", "run", "sample",
    "sample_profile", "solve_model", "solve_riemann", "step",
    "truncated_mb_moment", "verify_moments",
]
