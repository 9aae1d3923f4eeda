"""Exact Riemann solver for the 1-D compressible Euler equations.

The discrete kinetic models in this package relax toward a 1-D
Maxwell-Boltzmann density, whose hydrodynamic limit is a monatomic gas
with one translational degree of freedom: adiabatic index gamma = 3,
physical pressure p = rho * theta / 2 and specific internal energy
e = theta / 4.  The shock-tube reports elsewhere quote the combination
rho * theta (twice the physical pressure); conversion happens at the
reporting layer only, everything here works with physical pressure.

The solver is the standard exact iteration on the star-region pressure
(Newton with a two-rarefaction starting guess, bisection fallback),
followed by self-similar sampling in xi = x / t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA_DEFAULT = 3.0


class VacuumError(ValueError):
    """The pressure positivity condition fails: vacuum forms between the
    nonlinear waves and no star state exists."""


@dataclass(frozen=True)
class GasState:
    """Primitive gas state in kinetic-theory variables (rho, u, theta)."""

    rho: float
    u: float
    theta: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"density must be positive, got {self.rho}")
        if self.theta <= 0:
            raise ValueError(f"temperature must be positive, got {self.theta}")

    @property
    def pressure(self) -> float:
        """Physical pressure rho * theta / 2."""
        return 0.5 * self.rho * self.theta

    @property
    def pressure_reported(self) -> float:
        """The rho * theta combination used in shock-tube tables."""
        return self.rho * self.theta

    def sound_speed(self, gamma: float = GAMMA_DEFAULT) -> float:
        return math.sqrt(gamma * self.pressure / self.rho)


@dataclass(frozen=True)
class Wave:
    kind: str  # "shock" or "rarefaction"
    head: float  # fastest characteristic speed of the wave
    tail: float  # slowest; equal to head for a shock

    @property
    def speed(self) -> float:
        if self.kind != "shock":
            raise ValueError("only shocks have a single speed")
        return self.head


@dataclass(frozen=True)
class RiemannSolution:
    left: GasState
    right: GasState
    gamma: float
    p_star: float  # physical pressure in the star region
    u_star: float
    rho_star_left: float
    rho_star_right: float
    left_wave: Wave
    right_wave: Wave
    iterations: int

    @property
    def theta_star_left(self) -> float:
        return 2.0 * self.p_star / self.rho_star_left

    @property
    def theta_star_right(self) -> float:
        return 2.0 * self.p_star / self.rho_star_right


def _pressure_function(p: float, state: GasState, gamma: float):
    """Toro-style f_K(p) and its derivative for one side."""
    pk = state.pressure
    if p > pk:  # shock branch (Rankine-Hugoniot)
        ak = 2.0 / ((gamma + 1.0) * state.rho)
        bk = (gamma - 1.0) / (gamma + 1.0) * pk
        root = math.sqrt(ak / (p + bk))
        f = (p - pk) * root
        df = root * (1.0 - 0.5 * (p - pk) / (p + bk))
    else:  # rarefaction branch (isentrope)
        a = state.sound_speed(gamma)
        pr = p / pk
        f = 2.0 * a / (gamma - 1.0) * (pr ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        df = 1.0 / (state.rho * a) * pr ** (-(gamma + 1.0) / (2.0 * gamma))
    return f, df


def _two_rarefaction_guess(left: GasState, right: GasState, gamma: float) -> float:
    al, ar = left.sound_speed(gamma), right.sound_speed(gamma)
    pl, pr = left.pressure, right.pressure
    z = (gamma - 1.0) / (2.0 * gamma)
    num = al + ar - 0.5 * (gamma - 1.0) * (right.u - left.u)
    den = al / pl**z + ar / pr**z
    return (num / den) ** (1.0 / z)


def solve_riemann(left: GasState, right: GasState, gamma: float = GAMMA_DEFAULT,
                  tol: float = 1e-12, max_iter: int = 200) -> RiemannSolution:
    """Exact solution of the Riemann problem between two gas states.

    Newton iteration on the star pressure with a guarded bisection
    fallback; converges to relative pressure increments below tol.
    Raises VacuumError when the states separate into vacuum.
    """
    if gamma <= 1.0:
        raise ValueError(f"adiabatic index must exceed 1, got {gamma}")
    al, ar = left.sound_speed(gamma), right.sound_speed(gamma)
    du = right.u - left.u
    if 2.0 * (al + ar) / (gamma - 1.0) <= du:
        raise VacuumError(
            f"velocity jump {du} exceeds the pressure positivity limit")

    def total(p):
        fl, dfl = _pressure_function(p, left, gamma)
        fr, dfr = _pressure_function(p, right, gamma)
        return fl + fr + du, dfl + dfr

    lo, hi = 1e-14 * min(left.pressure, right.pressure), \
        10.0 * max(left.pressure, right.pressure)
    while total(hi)[0] < 0.0:
        hi *= 10.0
        if hi > 1e100:
            raise RuntimeError("failed to bracket the star pressure")
    p = min(max(_two_rarefaction_guess(left, right, gamma), lo), hi)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        f, df = total(p)
        if f > 0.0:
            hi = min(hi, p)
        else:
            lo = max(lo, p)
        step = f / df
        p_new = p - step
        if not lo < p_new < hi:
            p_new = 0.5 * (lo + hi)  # bisection fallback
        if abs(p_new - p) <= tol * 0.5 * (p_new + p):
            p = p_new
            break
        p = p_new
    else:
        raise RuntimeError(
            f"star pressure iteration failed to converge in {max_iter} steps")

    fl, _ = _pressure_function(p, left, gamma)
    fr, _ = _pressure_function(p, right, gamma)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (fr - fl)

    gm = (gamma - 1.0) / (gamma + 1.0)

    def star_density_and_wave(state: GasState, sign: int):
        pk, a = state.pressure, state.sound_speed(gamma)
        pr = p / pk
        if p > pk:  # shock
            rho = state.rho * (pr + gm) / (gm * pr + 1.0)
            speed = state.u + sign * a * math.sqrt(
                (gamma + 1.0) / (2.0 * gamma) * pr + (gamma - 1.0) / (2.0 * gamma))
            return rho, Wave("shock", speed, speed)
        rho = state.rho * pr ** (1.0 / gamma)
        a_star = a * pr ** ((gamma - 1.0) / (2.0 * gamma))
        head = state.u + sign * a
        tail = u_star + sign * a_star
        return rho, Wave("rarefaction", head, tail)

    rho_l, wave_l = star_density_and_wave(left, -1)
    rho_r, wave_r = star_density_and_wave(right, +1)
    return RiemannSolution(left=left, right=right, gamma=gamma, p_star=p,
                           u_star=u_star, rho_star_left=rho_l,
                           rho_star_right=rho_r, left_wave=wave_l,
                           right_wave=wave_r, iterations=iterations)


def sample(solution: RiemannSolution, xi: float) -> GasState:
    """Self-similar state at similarity coordinate xi = x / t."""
    g = solution.gamma
    if xi <= solution.u_star:  # left of the contact
        state, wave = solution.left, solution.left_wave
        rho_star, sign = solution.rho_star_left, -1
    else:
        state, wave = solution.right, solution.right_wave
        rho_star, sign = solution.rho_star_right, +1
    p, a = state.pressure, state.sound_speed(g)
    # The region tests below are repeated, mask for mask, in
    # sample_profile; a change here must be made there too.  head is the
    # characteristic moving into the undisturbed state (a shock's speed),
    # tail borders the star region; a shock has no fan, so everything
    # behind its head is star state.
    outside = xi < wave.head if sign < 0 else xi > wave.head
    if outside:
        return state
    inside_star = wave.kind == "shock" or (xi > wave.tail if sign < 0 else xi < wave.tail)
    if inside_star:
        return GasState(rho_star, solution.u_star, 2.0 * solution.p_star / rho_star)
    # inside the fan
    u = 2.0 / (g + 1.0) * (-sign * a + 0.5 * (g - 1.0) * state.u + xi)
    a_local = 2.0 / (g + 1.0) * (a - sign * 0.5 * (g - 1.0) * (state.u - xi))
    rho = state.rho * (a_local / a) ** (2.0 / (g - 1.0))
    p_local = p * (a_local / a) ** (2.0 * g / (g - 1.0))
    return GasState(rho, u, 2.0 * p_local / rho)


def sample_profile(solution: RiemannSolution, positions: np.ndarray,
                   time: float, origin: float = 0.0):
    """Sampled (rho, u, theta) arrays at given physical positions and time.

    time = 0 returns the initial discontinuity at the origin.  Every
    position reads exactly what sample() gives for it: the region masks
    repeat sample()'s tests in the same order (keep the two in step), the
    constant regions take the same floats, and the few positions inside a
    rarefaction fan go through sample().
    """
    positions = np.asarray(positions, dtype=np.float64)
    if not time > 0.0:
        left = positions < origin
        return tuple(np.where(left, getattr(solution.left, name),
                              getattr(solution.right, name))
                     for name in ("rho", "u", "theta"))
    with np.errstate(under="ignore"):  # a tiny xi rounds to its correct value
        xi = (positions - origin) / time
    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    theta = np.empty_like(xi)
    left = xi <= solution.u_star
    for side, state, wave, rho_star, sign in (
            (left, solution.left, solution.left_wave, solution.rho_star_left, -1),
            (~left, solution.right, solution.right_wave, solution.rho_star_right, +1)):
        outside = side & ((xi < wave.head) if sign < 0 else (xi > wave.head))
        star = side & ~outside
        if wave.kind != "shock":  # a shock has no fan: all of star is behind it
            star &= (xi > wave.tail) if sign < 0 else (xi < wave.tail)
        rho[outside], u[outside], theta[outside] = state.rho, state.u, state.theta
        rho[star], u[star] = rho_star, solution.u_star
        theta[star] = 2.0 * solution.p_star / rho_star
        for i in np.flatnonzero(side & ~outside & ~star):
            s = sample(solution, xi[i])
            rho[i], u[i], theta[i] = s.rho, s.u, s.theta
    return rho, u, theta


def shock_residuals(solution: RiemannSolution) -> dict[str, float]:
    """Rankine-Hugoniot defects of any shock waves present, and Riemann
    invariant defects of any rarefactions; diagnostics for testing."""
    g = solution.gamma
    out: dict[str, float] = {}
    for label, state, wave, rho_star, sign in (
            ("left", solution.left, solution.left_wave, solution.rho_star_left, -1),
            ("right", solution.right, solution.right_wave, solution.rho_star_right, +1)):
        p_star, u_star = solution.p_star, solution.u_star
        if wave.kind == "shock":
            s = wave.speed
            m0 = state.rho * (state.u - s)
            m1 = rho_star * (u_star - s)
            out[f"{label}_mass"] = m1 - m0
            out[f"{label}_momentum"] = (
                rho_star * (u_star - s) * u_star + p_star
                - state.rho * (state.u - s) * state.u - state.pressure)
            e0 = state.pressure / ((g - 1.0) * state.rho)
            e1 = p_star / ((g - 1.0) * rho_star)
            # energy flux is continuous in the shock frame
            out[f"{label}_energy"] = (
                m1 * (e1 + 0.5 * (u_star - s)**2 + p_star / rho_star)
                - m0 * (e0 + 0.5 * (state.u - s)**2 + state.pressure / state.rho))
        else:
            a = state.sound_speed(g)
            a_star = math.sqrt(g * p_star / rho_star)
            out[f"{label}_invariant"] = (
                (u_star - sign * 2.0 * a_star / (g - 1.0))
                - (state.u - sign * 2.0 * a / (g - 1.0)))
            out[f"{label}_entropy"] = (
                p_star / rho_star**g - state.pressure / state.rho**g)
    return out
