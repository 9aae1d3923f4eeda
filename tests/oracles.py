"""Reference formulas that the tests compare the package against.

None of these is reached by the CLI or the benchmark, so they live here
rather than in ``src/``: the paper's closed-form five-velocity branches,
the exact Maxwell-Boltzmann moments, the one-point Riemann sampler, the
jump-condition residuals of a Riemann solution, the health check of one
tube at a time, a shock tube in a moving frame and a record of the fields
a run scores.  Tests import them
with ``from oracles import ...``; pytest puts this directory on
``sys.path``.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from thermolb import _ratpoly as rp
from thermolb import model_solver, simulator
from thermolb.model_solver import DEFAULT_GHOST_THRESHOLD, RatioTuple, VelocityModel
from thermolb.moments import gaussian_moment_coefficient
from thermolb.riemann import GasState, RiemannSolution, sample_profile
from thermolb.simulator import LatticeState, ShockTubeConfig


# ------------------------------------------------------- five-velocity models

class NoRealSolutionError(ValueError):
    """Raised when a requested closed-form model family has no real member."""


def _radical_sum(a: Fraction, b: Fraction, d: Fraction) -> float:
    """a + b*sqrt(d) in double precision without cancellation.

    When a and b*sqrt(d) have opposite signs the direct sum can lose all
    significant digits (outer weights behave like r**6/9 near r = 0);
    rationalizing moves the subtraction into exact arithmetic:
    a + b*sqrt(d) = (a**2 - b**2 d) / (a - b*sqrt(d)).
    """
    if b == 0 or d == 0:
        return float(a)
    sq = math.sqrt(float(d))
    if a == 0 or (a > 0) == (b > 0):
        return float(a) + float(b) * sq
    num = a * a - b * b * d
    den = float(a) - float(b) * sq
    return float(num) / den


def closed_form_q5(r) -> tuple[VelocityModel, VelocityModel]:
    """The two five-velocity model branches in closed form.

    Parameterized by the inverse speed ratio r = 1/pbar_2 in (0, 1):

        chi  = sqrt(9 r**4 - 42 r**2 + 9)
        v2   = sqrt(3 + 3 r**2 +- chi) / 2
        w_1  = (9 r**4 - 27 r**2 - 6 -+ (3 r**2 - 2) chi) / (300 r**2 (r**2 - 1))
        w_2  = (6 r**4 + 27 r**2 - 9 -+ (2 r**2 - 3) chi) / (300 (r**2 - 1))

    (normalized weights of the inner and outer moving speeds; the rest
    weight follows from normalization).  Returns (plus, minus) branches,
    named by the sign in front of chi in v2; the plus branch is the one
    whose outer weight vanishes as r -> 0.  Raises NoRealSolutionError
    where the discriminant is negative (no real model exists).
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"inverse speed ratio must lie in (0, 1), got {r}")
    ratios = RatioTuple.from_ratios([1 / r])
    r2 = r * r
    disc = 9 * r2 * r2 - 42 * r2 + 9
    if disc < 0:
        raise NoRealSolutionError(
            f"no real five-velocity model at inverse ratio {r}")
    chi_exact = rp._fraction_sqrt(disc)

    def branch(sign: int) -> VelocityModel:
        if chi_exact is not None:
            s = (3 + 3 * r2 + sign * chi_exact) / 4
            return model_solver._assemble_model(ratios, s, True, DEFAULT_GHOST_THRESHOLD)
        den1 = 300 * r2 * (r2 - 1)
        den2 = 300 * (r2 - 1)
        a1 = (9 * r2 * r2 - 27 * r2 - 6) / den1
        b1 = -sign * (3 * r2 - 2) / den1
        a2 = (6 * r2 * r2 + 27 * r2 - 9) / den2
        b2 = -sign * (2 * r2 - 3) / den2
        s = _radical_sum((3 + 3 * r2) / 4, Fraction(sign, 4), disc)
        w1 = _radical_sum(a1, b1, disc)
        w2 = _radical_sum(a2, b2, disc)
        w0 = _radical_sum(1 - 2 * (a1 + a2), -2 * (b1 + b2), disc)
        model = VelocityModel(
            ratios=ratios,
            v2=math.sqrt(s),
            weights_normalized=(w0, w1, w2),
            residual=0.0,
            ghost_flags=(False, False, False),
            all_positive=min(w0, w1, w2) >= 0,
        )
        return model_solver._finish_model(model, DEFAULT_GHOST_THRESHOLD)

    return branch(+1), branch(-1)


# --------------------------------------------------------------------- moments

def mb_moment_exact(m: int, rho: Fraction, u: Fraction, theta: Fraction) -> Fraction:
    """Exact m-th raw moment of the Maxwell-Boltzmann density.

    integral(V**m f_eq dV) = rho * sum_{k even} C(m,k) u**(m-k)
                             * theta**(k/2) * (k-1)!!/2**(k/2).
    """
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    acc = Fraction(0)
    for k in range(0, m + 1, 2):
        acc += (math.comb(m, k) * u ** (m - k) * theta ** (k // 2)
                * gaussian_moment_coefficient(k))
    return rho * acc


# --------------------------------------------------------------------- riemann

def sample(solution: RiemannSolution, xi: float) -> GasState:
    """Self-similar state at similarity coordinate xi = x / t."""
    rho, u, theta = sample_profile(solution, [xi], 1.0)
    return GasState(float(rho[0]), float(u[0]), float(theta[0]))


def shock_residuals(solution: RiemannSolution, relative: bool = False) -> dict[str, float]:
    """Rankine-Hugoniot defects of any shock waves present, and Riemann
    invariant defects of any rarefactions.

    relative=True divides each defect by the sum of its terms' magnitudes,
    so that a defect at rounding level reads ~1e-16 at any density scale;
    the entropy defect is then taken as a ratio to 1, which does not
    overflow where rho**gamma would."""
    g = solution.gamma
    out: dict[str, float] = {}

    def put(name: str, *terms: float) -> None:
        defect = math.fsum(terms)
        out[name] = defect / math.fsum(map(abs, terms)) if relative and defect else defect

    for label, state, wave, rho_star, sign in (
            ("left", solution.left, solution.left_wave, solution.rho_star_left, -1),
            ("right", solution.right, solution.right_wave, solution.rho_star_right, +1)):
        p_star, u_star = solution.p_star, solution.u_star
        if wave.kind == "shock":
            s = wave.head
            m0 = state.rho * (state.u - s)
            m1 = rho_star * (u_star - s)
            put(f"{label}_mass", m1, -m0)
            put(f"{label}_momentum", rho_star * (u_star - s) * u_star, p_star,
                -state.rho * (state.u - s) * state.u, -state.pressure)
            e0 = state.pressure / ((g - 1.0) * state.rho)
            e1 = p_star / ((g - 1.0) * rho_star)
            # energy flux is continuous in the shock frame
            put(f"{label}_energy", m1 * e1, m1 * (0.5 * (u_star - s)**2),
                m1 * (p_star / rho_star), -m0 * e0, -m0 * (0.5 * (state.u - s)**2),
                -m0 * (state.pressure / state.rho))
        else:
            a = state.sound_speed(g)
            a_star = math.sqrt(g * p_star / rho_star)
            put(f"{label}_invariant", u_star, -sign * 2.0 * a_star / (g - 1.0),
                -state.u, sign * 2.0 * a / (g - 1.0))
            if relative:
                put(f"{label}_entropy",
                    p_star / state.pressure * (state.rho / rho_star)**g, -1.0)
            else:
                put(f"{label}_entropy", p_star / rho_star**g, -state.pressure / state.rho**g)
    return out


# ------------------------------------------------------------ tube health

def tube_health(f, rho, u, max_speed: float, tubes: int) -> list[str | None]:
    """The failure mode of each of `tubes` equal tubes laid end to end,
    from its own slice of the lattice fields alone: the first of finite
    populations, positive density and |u| <= max_speed that it fails."""
    n = len(rho) // tubes
    modes = []
    for rows in (slice(i, i + n) for i in range(0, len(rho), n)):
        if not np.isfinite(f[:, rows]).all():
            modes.append("non_finite_population")
        elif not (rho[rows] > 0.0).all():
            modes.append("non_positive_density")
        elif not (np.abs(u[rows]) <= max_speed).all():
            modes.append("runaway_velocity")
        else:
            modes.append(None)
    return modes


# ------------------------------------------------------------ moving frame

def drift(state: LatticeState, config: ShockTubeConfig,
          speed: float) -> tuple[GasState, GasState]:
    """Set both states of config's one-tube lattice moving at `speed`: the
    bands and the initial populations become the equilibria of (rho_bar,
    speed, 1) and (1, speed, 1) on their sides, and the moments follow.
    Returns the (left, right) states, whose Riemann solution is the
    rest-frame one carried along at `speed` (Galilean invariance)."""
    left, right = (GasState(s.rho, speed, s.theta)
                   for s in (config.left_state, config.right_state))
    state.left_band, state.right_band = (
        state.eq.populations(*np.array([[s.rho], [s.u], [s.theta]])) for s in (left, right))
    state.f[:, :config.interface] = state.left_band
    state.f[:, config.interface:] = state.right_band
    state.macro_into(state.f, state.rho, state.u, state.theta)
    return left, right


# ------------------------------------------------------------ scored fields

@contextmanager
def scored_fields():
    """The density fields that runs inside the block score, in order: what
    they pass simulator.density_fluctuation.  A run keeps only its last
    snapshot, so this is how a test sees the others."""
    fields, score = [], simulator.density_fluctuation

    def spy(rho, margin):
        fields.append(rho.copy())
        return score(rho, margin)

    simulator.density_fluctuation = spy
    try:
        yield fields
    finally:
        simulator.density_fluctuation = score
