"""Discrete-velocity thermal lattice Boltzmann models built from a single
univariate polynomial equation, with truncated equilibria, a shock-tube
simulator and an exact Riemann reference solver."""

__version__ = "0.1.0"

from .equilibrium import ExpansionSpec
from .model_solver import resolve_catalog
from .riemann import GasState, sample_profile, solve_riemann
from .simulator import ShockTubeConfig, extract_plateaus, run

# not API: bench/workloads.py and bench/setup_probe.py import these from here
from .equilibrium import expand
from .model_solver import VelocityModel
from .moments import gaussian_moment
from .simulator import init_shock_tube

__all__ = [
    "ExpansionSpec", "GasState", "ShockTubeConfig", "extract_plateaus",
    "resolve_catalog", "run", "sample_profile", "solve_riemann",
]
