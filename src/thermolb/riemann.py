"""Exact Riemann solver for the 1-D compressible Euler equations.

The discrete kinetic models in this package relax toward a 1-D
Maxwell-Boltzmann density, whose hydrodynamic limit is a monatomic gas
with one translational degree of freedom: adiabatic index gamma = 3,
physical pressure p = rho * theta / 2 and specific internal energy
e = theta / 4.  The shock-tube reports elsewhere quote the combination
rho * theta (twice the physical pressure); conversion happens at the
reporting layer only, everything here works with physical pressure.

The solver is the standard exact iteration on the star-region pressure
(Newton with a two-rarefaction starting guess, bisection fallback; it
stops once a Newton step is below _TOL of the pressure, even one that
lands on a bracket end), followed by self-similar sampling in xi = x / t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA_DEFAULT = 3.0
_TOL = 1e-12  # relative star-pressure increment at which the iteration stops
_MAX_ITER = 200


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
        if not all(map(math.isfinite, (self.rho, self.u, self.theta))):
            raise ValueError(f"rho, u and theta must be finite, got "
                             f"({self.rho}, {self.u}, {self.theta})")
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
        if root == math.inf:  # the quotient overflows for a very dilute state
            root = math.sqrt(ak) / math.sqrt(p + bk)
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
    try:
        return (num / den) ** (1.0 / z)
    except OverflowError:  # above every float: start at the top of the bracket
        return math.inf


def solve_riemann(left: GasState, right: GasState,
                  gamma: float = GAMMA_DEFAULT) -> RiemannSolution:
    """Exact solution of the Riemann problem between two gas states.

    Newton iteration on the star pressure with a guarded bisection
    fallback; converges to relative pressure increments below _TOL.
    Raises ValueError when a sound speed is 0 or inf in floats,
    VacuumError when the states separate into vacuum, and RuntimeError
    when the star state does not fit in floats.
    """
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"adiabatic index must be finite and exceed 1, got {gamma}")
    al, ar = left.sound_speed(gamma), right.sound_speed(gamma)
    if not (0.0 < al < math.inf and 0.0 < ar < math.inf):
        raise ValueError(f"sound speeds {al} and {ar} must be finite and positive floats")
    du = right.u - left.u
    if 2.0 * (al + ar) / (gamma - 1.0) <= du:
        raise VacuumError(
            f"velocity jump {du} exceeds the pressure positivity limit")
    try:
        s = _solve(left, right, gamma, du)
    except (ZeroDivisionError, OverflowError):  # 0.0 ** -x, x / 0.0, or above every float
        s = None
    # every reported value finite, and both star densities, which theta divides by, > 0
    if s is None or not (min(s.rho_star_left, s.rho_star_right) > 0.0 and all(map(
            math.isfinite, (2.0 * s.p_star, s.u_star, s.rho_star_left, s.rho_star_right,
                            s.theta_star_left, s.theta_star_right, s.left_wave.head,
                            s.left_wave.tail, s.right_wave.head, s.right_wave.tail)))):
        raise RuntimeError("the star state of these two gas states does not fit in floats")
    return s


def _solve(left: GasState, right: GasState, gamma: float, du: float) -> RiemannSolution:
    """solve_riemann's star state and waves, on its checked inputs."""
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
    for iterations in range(1, _MAX_ITER + 1):
        f, df = total(p)
        if f > 0.0:
            hi = min(hi, p)
        else:
            lo = max(lo, p)
        step = f / df
        converged = abs(step) <= _TOL * p  # kept even where it lands on a bracket end
        # the Newton step, or the bisection fallback where it leaves the bracket
        p_new = p - step if converged or lo < p - step < hi else 0.5 * (lo + hi)
        p, p_old = p_new, p
        if converged or abs(p - p_old) <= _TOL * 0.5 * (p + p_old):
            break
    else:
        raise RuntimeError(
            f"star pressure iteration failed to converge in {_MAX_ITER} steps")

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


def _fan(state: GasState, sign: int, g: float, xi: float):
    """(rho, u, theta) at xi inside the rarefaction fan of state's wave
    (sign -1 for the left wave, +1 for the right), on Python floats."""
    p, a = state.pressure, state.sound_speed(g)
    u = 2.0 / (g + 1.0) * (-sign * a + 0.5 * (g - 1.0) * state.u + xi)
    a_local = 2.0 / (g + 1.0) * (a - sign * 0.5 * (g - 1.0) * (state.u - xi))
    rho = state.rho * (a_local / a) ** (2.0 / (g - 1.0))
    p_local = p * (a_local / a) ** (2.0 * g / (g - 1.0))
    return rho, u, 2.0 * p_local / rho


def sample_profile(solution: RiemannSolution, positions: np.ndarray, time: float):
    """Sampled (rho, u, theta) arrays at given physical positions and time,
    the initial discontinuity sitting at x = 0.

    time = 0 returns the initial discontinuity.  The constant regions take
    their states' floats; each position inside a rarefaction fan goes
    through _fan on Python floats (np.power may round the last bit
    differently from the scalar pow).  ValueError, before anything is
    sampled, unless time is finite and >= 0 and positions is a 1-D array
    of finite numbers.
    """
    if not 0.0 <= time < math.inf:
        raise ValueError(f"sample time must be finite and >= 0, got {time!r}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 1 or not np.isfinite(positions).all():
        raise ValueError("sample positions must be a 1-D array of finite numbers")
    # xi = x / t: a tiny one rounds to its correct value and a huge one to
    # its limit, inf, as at time 0 (-inf left of x = 0, +inf from it on)
    with np.errstate(under="ignore", over="ignore"):
        xi = (positions / time if time > 0.0
              else np.where(positions < 0.0, -np.inf, np.inf))
    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    theta = np.empty_like(xi)
    left = xi <= solution.u_star  # the contact belongs to the left side
    for side, state, wave, rho_star, sign in (
            (left, solution.left, solution.left_wave, solution.rho_star_left, -1),
            (~left, solution.right, solution.right_wave, solution.rho_star_right, +1)):
        # head is the characteristic moving into the undisturbed state (a
        # shock's speed), tail borders the star region; a shock has no fan,
        # so everything behind its head is star state
        outside = side & ((xi < wave.head) if sign < 0 else (xi > wave.head))
        star = side & ~outside
        if wave.kind != "shock":
            star &= (xi > wave.tail) if sign < 0 else (xi < wave.tail)
        rho[outside], u[outside], theta[outside] = state.rho, state.u, state.theta
        rho[star], u[star] = rho_star, solution.u_star
        theta[star] = 2.0 * solution.p_star / rho_star
        for i in np.flatnonzero(side & ~outside & ~star):
            rho[i], u[i], theta[i] = _fan(state, sign, solution.gamma, float(xi[i]))
    return rho, u, theta

