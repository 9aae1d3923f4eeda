"""Exact Riemann solver for the 1-D ideal gas.

Oracle: an independent bisection solver built from the jump conditions
in primitive form -- Hugoniot density ratio plus mass-flux velocity drop
for shocks, numerically integrated isentrope du = -dp/(rho c) for
rarefactions.  No code or closed-form pressure function is shared with
the module under test.  The frozen star states below were produced by
this oracle and cross-checked against the solver before freezing.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from oracles import sample, shock_residuals
from thermolb.riemann import GasState, VacuumError, sample_profile, solve_riemann


# ------------------------------------------------------------------ oracle

def _u_behind(p_star, state, gamma, side):
    """Post-wave velocity on one side, from primitive jump relations."""
    sign = 1.0 if side == "left" else -1.0
    p0 = state.pressure
    rho0 = state.rho
    if p_star > p0:
        # shock: Hugoniot density, then mass flux
        num = (gamma + 1) * p_star + (gamma - 1) * p0
        den = (gamma + 1) * p0 + (gamma - 1) * p_star
        rho1 = rho0 * num / den
        dv = 1.0 / rho0 - 1.0 / rho1  # drop in specific volume
        if not dv > 0.0:
            # a jump within rounding of p0 is an acoustic wave: mass flux
            # rho0 c0 (the rounded volume drop can be 0 or even negative)
            return state.u - sign * (p_star - p0) / (rho0 * state.sound_speed(gamma))
        m = math.sqrt((p_star - p0) / dv)
        return state.u - sign * (p_star - p0) / m
    # rarefaction: integrate the Riemann invariant du = +-dp / (rho c)
    # along the isentrope; dropping pressure accelerates the gas away
    # from its own side, so the sign is opposite to the shock branch
    def inv_impedance(p):
        rho = rho0 * (p / p0) ** (1.0 / gamma)
        c = math.sqrt(gamma * p / rho)
        return 1.0 / (rho * c)

    drop, _ = integrate.quad(inv_impedance, p_star, p0,
                             epsabs=1e-14, epsrel=1e-13)
    return state.u + sign * drop


def oracle_star(left, right, gamma):
    """(p_star, u_star, rho_star_left, rho_star_right) by bisection."""
    def mismatch(p):
        return _u_behind(p, left, gamma, "left") - _u_behind(p, right, gamma, "right")

    hi = 10.0 * max(left.pressure, right.pressure)
    while mismatch(hi) > 0:
        hi *= 4.0
    p_star = optimize.brentq(mismatch, 1e-13, hi, xtol=1e-15, rtol=1e-14)
    u_star = 0.5 * (_u_behind(p_star, left, gamma, "left")
                    + _u_behind(p_star, right, gamma, "right"))

    def rho_star(state):
        p0, rho0 = state.pressure, state.rho
        if p_star > p0:
            num = (gamma + 1) * p_star + (gamma - 1) * p0
            den = (gamma + 1) * p0 + (gamma - 1) * p_star
            return rho0 * num / den
        return rho0 * (p_star / p0) ** (1.0 / gamma)

    return p_star, u_star, rho_star(left), rho_star(right)


# frozen star states (oracle output, cross-checked against the solver)
DENSE3 = dict(p_star=0.8246314714243578, u_star=0.2214347850142307,
              rho_star_left=2.4575977654122436, rho_star_right=1.1779161855467404,
              shock_speed=1.4660364739148595,
              rare_head=-1.224744871391589, rare_tail=-0.7818753013631277)
DENSE11 = dict(p_star=1.3214429937333734, u_star=0.46335421330337906,
               rho_star_left=6.8384015598726808, rho_star_right=1.353850168171616,
               shock_speed=1.7728186561142529)
# Sod's problem, gamma = 1.4 (textbook values to five digits)
SOD = dict(p_star=0.30313, u_star=0.92745,
           rho_star_left=0.42632, rho_star_right=0.26557)


def test_oracle_reproduces_frozen_dense3():
    left = GasState(rho=3.0, u=0.0, theta=1.0)
    right = GasState(rho=1.0, u=0.0, theta=1.0)
    p, u, rl, rr = oracle_star(left, right, 3.0)
    assert p == pytest.approx(DENSE3["p_star"], rel=1e-9)
    assert u == pytest.approx(DENSE3["u_star"], rel=1e-9)
    assert rl == pytest.approx(DENSE3["rho_star_left"], rel=1e-9)
    assert rr == pytest.approx(DENSE3["rho_star_right"], rel=1e-9)


@pytest.mark.parametrize("rho_bar,frozen", [(3.0, DENSE3), (11.0, DENSE11)])
def test_solver_matches_frozen_and_oracle(rho_bar, frozen):
    left = GasState(rho=rho_bar, u=0.0, theta=1.0)
    right = GasState(rho=1.0, u=0.0, theta=1.0)
    sol = solve_riemann(left, right)
    assert sol.p_star == pytest.approx(frozen["p_star"], rel=1e-12)
    assert sol.u_star == pytest.approx(frozen["u_star"], rel=1e-12)
    assert sol.rho_star_left == pytest.approx(frozen["rho_star_left"], rel=1e-12)
    assert sol.rho_star_right == pytest.approx(frozen["rho_star_right"], rel=1e-12)
    assert sol.right_wave.kind == "shock"
    assert sol.right_wave.head == pytest.approx(frozen["shock_speed"], rel=1e-12)
    p, u, rl, rr = oracle_star(left, right, 3.0)
    assert sol.p_star == pytest.approx(p, rel=1e-9)
    assert sol.u_star == pytest.approx(u, rel=1e-9)


def test_solver_matches_sod_textbook_values():
    left = GasState(rho=1.0, u=0.0, theta=2.0)      # p = 1.0
    right = GasState(rho=0.125, u=0.0, theta=1.6)   # p = 0.1
    sol = solve_riemann(left, right, gamma=1.4)
    assert sol.p_star == pytest.approx(SOD["p_star"], abs=5e-6)
    assert sol.u_star == pytest.approx(SOD["u_star"], abs=5e-6)
    assert sol.rho_star_left == pytest.approx(SOD["rho_star_left"], abs=5e-6)
    assert sol.rho_star_right == pytest.approx(SOD["rho_star_right"], abs=5e-6)


def test_dense3_wave_structure():
    sol = solve_riemann(GasState(rho=3.0, u=0.0, theta=1.0),
                        GasState(rho=1.0, u=0.0, theta=1.0))
    assert sol.left_wave.kind == "rarefaction"
    assert sol.left_wave.head == pytest.approx(DENSE3["rare_head"], rel=1e-12)
    assert sol.left_wave.tail == pytest.approx(DENSE3["rare_tail"], rel=1e-12)
    assert sol.left_wave.head < sol.left_wave.tail < sol.u_star
    assert sol.u_star < sol.right_wave.head
    assert sol.iterations < 20
    # reported pressure convention: rho * theta = 2 p_physical
    assert sol.rho_star_left * sol.theta_star_left == \
        pytest.approx(2 * sol.p_star, rel=1e-13)


def test_jump_condition_residuals():
    for rho_bar in (3.0, 11.0):
        sol = solve_riemann(GasState(rho=rho_bar, u=0.0, theta=1.0),
                            GasState(rho=1.0, u=0.0, theta=1.0))
        res = shock_residuals(sol)
        for name, value in res.items():
            assert abs(value) < 1e-10, (rho_bar, name, value)


@settings(max_examples=200, deadline=None)
@given(rho_bar=st.one_of(st.floats(0.3, 20.0), st.floats(1e-300, 1e308)))
# a converged Newton step used to land on a bracket end and be replaced by
# ~35 bisections (46, 40, 49 and 42 iterations); below rho_bar ~1e-155 the
# shock branch's ak / (p + bk) overflowed and forced bisection throughout
@example(rho_bar=1.5)
@example(rho_bar=6.0)
@example(rho_bar=12.0)
@example(rho_bar=100.0)
@example(rho_bar=1e-160)
@example(rho_bar=1e-300)
@example(rho_bar=1e308)
@example(rho_bar=1.0)
def test_a_shock_tube_solve_stops_once_newton_converges(rho_bar):
    # the tubes simulate runs, dense on either side; relative defects of
    # 1e-13 allow for 1 / gamma's rounding in pr ** (1 / gamma) at pressure
    # ratios near 1e-300
    dense, dilute = GasState(rho_bar, 0.0, 1.0), GasState(1.0, 0.0, 1.0)
    left, right = solve_riemann(dense, dilute), solve_riemann(dilute, dense)
    for sol in (left, right):
        assert sol.iterations <= 5
        for name, defect in shock_residuals(sol, relative=True).items():
            assert abs(defect) <= 1e-13, (name, defect)
    assert left.p_star.hex() == right.p_star.hex()
    assert left.u_star == -right.u_star  # 0.0 at rho_bar 1, of either sign


def test_entropy_and_invariant_across_left_rarefaction():
    gamma = 3.0
    left = GasState(rho=3.0, u=0.0, theta=1.0)
    sol = solve_riemann(left, GasState(rho=1.0, u=0.0, theta=1.0))
    # entropy p / rho^gamma constant, invariant u + 2a/(gamma-1) constant
    s0 = left.pressure / left.rho**gamma
    i0 = left.u + 2 * left.sound_speed(gamma) / (gamma - 1)
    for xi in np.linspace(sol.left_wave.head, sol.left_wave.tail, 7):
        st_ = sample(sol, float(xi))
        s = st_.pressure / st_.rho**gamma
        i = st_.u + 2 * st_.sound_speed(gamma) / (gamma - 1)
        assert s == pytest.approx(s0, rel=1e-12)
        assert i == pytest.approx(i0, rel=1e-12)
    # entropy strictly increases across the right shock
    right = GasState(rho=1.0, u=0.0, theta=1.0)
    star = sample(sol, sol.right_wave.head - 1e-9)
    assert star.pressure / star.rho**gamma > right.pressure / right.rho**gamma


def test_sampling_wave_boundaries():
    sol = solve_riemann(GasState(rho=3.0, u=0.0, theta=1.0),
                        GasState(rho=1.0, u=0.0, theta=1.0))
    eps = 1e-11
    # ahead of the rarefaction head: undisturbed left state
    s = sample(sol, sol.left_wave.head - 1.0)
    assert (s.rho, s.u, s.theta) == (3.0, 0.0, 1.0)
    # continuity at head and tail
    for edge in (sol.left_wave.head, sol.left_wave.tail):
        a, b = sample(sol, edge - eps), sample(sol, edge + eps)
        assert a.rho == pytest.approx(b.rho, abs=1e-8)
        assert a.u == pytest.approx(b.u, abs=1e-8)
    # contact: u and p continuous, rho jumps
    a, b = sample(sol, sol.u_star - eps), sample(sol, sol.u_star + eps)
    assert a.u == pytest.approx(b.u, abs=1e-9)
    assert a.pressure == pytest.approx(b.pressure, abs=1e-9)
    assert abs(a.rho - b.rho) > 1.0
    # shock: discontinuous in everything
    a, b = sample(sol, sol.right_wave.head - eps), sample(sol, sol.right_wave.head + eps)
    assert abs(a.rho - b.rho) > 0.17
    # far right: undisturbed
    s = sample(sol, sol.right_wave.head + 1.0)
    assert (s.rho, s.u, s.theta) == (1.0, 0.0, 1.0)


def test_sample_profile_matches_pointwise():
    sol = solve_riemann(GasState(rho=3.0, u=0.0, theta=1.0),
                        GasState(rho=1.0, u=0.0, theta=1.0))
    xs = np.linspace(-40.0, 60.0, 57)
    t = 30.0
    rho, u, theta = sample_profile(sol, xs - 10.0, t)  # the interface at x = 10
    for i, x in enumerate(xs):
        want = _reference_sample(sol, (float(x) - 10.0) / t)
        assert rho[i] == want.rho
        assert u[i] == want.u
        assert theta[i] == want.theta


# left rarefaction + right shock, its mirror, two shocks, two rarefactions
WAVE_PAIRS = [((3.0, 0.0, 1.0), (1.0, 0.0, 1.0)), ((1.0, 0.0, 1.0), (3.0, 0.0, 1.0)),
              ((1.0, 0.5, 1.0), (1.5, -0.5, 0.8)), ((1.0, -0.3, 1.0), (2.0, 0.3, 1.2))]


def _reference_sample(sol, xi):
    """The state at xi = x / t, one region test after another on Python
    floats: the scalar sampler the whole-array one must match bit for bit."""
    g = sol.gamma
    if xi <= sol.u_star:  # left of the contact
        state, wave, rho_star, sign = sol.left, sol.left_wave, sol.rho_star_left, -1
    else:
        state, wave, rho_star, sign = sol.right, sol.right_wave, sol.rho_star_right, +1
    p, a = state.pressure, state.sound_speed(g)
    outside = xi < wave.head if sign < 0 else xi > wave.head
    if outside:
        return state
    inside_star = wave.kind == "shock" or (xi > wave.tail if sign < 0 else xi < wave.tail)
    if inside_star:
        return GasState(rho_star, sol.u_star, 2.0 * sol.p_star / rho_star)
    u = 2.0 / (g + 1.0) * (-sign * a + 0.5 * (g - 1.0) * state.u + xi)
    a_local = 2.0 / (g + 1.0) * (a - sign * 0.5 * (g - 1.0) * (state.u - xi))
    rho = state.rho * (a_local / a) ** (2.0 / (g - 1.0))
    p_local = p * (a_local / a) ** (2.0 * g / (g - 1.0))
    return GasState(rho, u, 2.0 * p_local / rho)


def _pointwise_profile(sol, xs, t):
    """sample_profile as one _reference_sample per position."""
    with np.errstate(under="ignore"):  # a tiny xi rounds to its correct value
        states = [_reference_sample(sol, x / t) if t > 0.0
                  else (sol.left if x < 0.0 else sol.right) for x in xs]
    return tuple(np.array([getattr(s, name) for s in states])
                 for name in ("rho", "u", "theta"))


def _assert_profile_is_pointwise(sol, xs, t):
    got = sample_profile(sol, xs, t)
    for field, want in zip(got, _pointwise_profile(sol, xs, t)):
        assert np.array_equal(field, want)


@pytest.mark.parametrize("left,right", WAVE_PAIRS)
def test_sample_profile_is_pointwise_at_every_wave_edge(left, right):
    sol = solve_riemann(GasState(*left), GasState(*right))
    edges = [sol.u_star]
    for wave in (sol.left_wave, sol.right_wave):
        edges += [wave.head, wave.tail]
    # t = 1 makes each edge an exact similarity coordinate
    xs = np.array(sorted(edges + [np.nextafter(e, d) for e in edges for d in (-9, 9)]))
    _assert_profile_is_pointwise(sol, xs, 1.0)
    for x in xs:
        assert sample(sol, float(x)) == _reference_sample(sol, float(x))
    _assert_profile_is_pointwise(sol, xs, 0.0)  # the initial discontinuity
    _assert_profile_is_pointwise(sol, np.array([-1.0, 0.0, 1.0]), 0.0)


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(WAVE_PAIRS),
       xs=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=64),
       t=st.just(0.0) | st.floats(0.01, 100.0), origin=st.floats(-20.0, 20.0))
def test_sample_profile_is_pointwise_at_random_positions(pair, xs, t, origin):
    sol = solve_riemann(GasState(*pair[0]), GasState(*pair[1]))
    _assert_profile_is_pointwise(sol, np.array(xs) - origin, t)  # the interface at origin


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_sample_profile_rejects_a_bad_time(time):
    # a NaN or negative time used to return the t = 0 profile
    sol = solve_riemann(GasState(*WAVE_PAIRS[0][0]), GasState(*WAVE_PAIRS[0][1]))
    with pytest.raises(ValueError, match="time"):
        sample_profile(sol, np.array([-1.0, 0.0, 1.0]), time)


@pytest.mark.parametrize("positions", [
    [0.0, math.nan],  # used to get the star state
    [math.inf, -1.0], [-math.inf], 0.0,
])
def test_sample_profile_rejects_positions_that_are_not_finite_1d(positions):
    sol = solve_riemann(GasState(*WAVE_PAIRS[0][0]), GasState(*WAVE_PAIRS[0][1]))
    with pytest.raises(ValueError, match="positions"):
        sample_profile(sol, positions, 1.0)


def test_sample_profile_rejects_a_2d_array():
    # with a point inside the left rarefaction fan this used to raise a
    # TypeError from the fan sampler
    sol = solve_riemann(GasState(*WAVE_PAIRS[0][0]), GasState(*WAVE_PAIRS[0][1]))
    fan = 0.5 * (sol.left_wave.head + sol.left_wave.tail)
    with pytest.raises(ValueError, match="positions"):
        sample_profile(sol, np.array([[fan, 0.0], [1.0, 2.0]]), 1.0)


def test_mirror_symmetry():
    left = GasState(rho=3.0, u=0.1, theta=1.2)
    right = GasState(rho=1.0, u=-0.2, theta=0.9)
    sol = solve_riemann(left, right)
    mirrored = solve_riemann(GasState(rho=1.0, u=0.2, theta=0.9),
                             GasState(rho=3.0, u=-0.1, theta=1.2))
    assert mirrored.p_star == pytest.approx(sol.p_star, rel=1e-12)
    assert mirrored.u_star == pytest.approx(-sol.u_star, rel=1e-12, abs=1e-14)
    assert mirrored.rho_star_left == pytest.approx(sol.rho_star_right, rel=1e-12)
    assert mirrored.rho_star_right == pytest.approx(sol.rho_star_left, rel=1e-12)


def test_vacuum_detection():
    with pytest.raises(VacuumError):
        solve_riemann(GasState(rho=1.0, u=-9.0, theta=1.0),
                      GasState(rho=1.0, u=9.0, theta=1.0))


def test_gas_state_validation():
    with pytest.raises(ValueError):
        GasState(rho=0.0, u=0.0, theta=1.0)
    with pytest.raises(ValueError):
        GasState(rho=1.0, u=0.0, theta=-1.0)
    s = GasState(rho=2.0, u=0.1, theta=1.5)
    assert s.pressure == pytest.approx(1.5)          # rho theta / 2
    assert s.pressure_reported == pytest.approx(3.0)  # rho theta
    assert s.sound_speed() == pytest.approx(math.sqrt(3.0 * s.pressure / s.rho))
    assert s.sound_speed(1.4) == pytest.approx(math.sqrt(1.4 * s.pressure / s.rho))


@pytest.mark.parametrize("state", [
    (math.nan, 0.0, 1.0), (3.0, math.nan, 1.0), (3.0, 0.0, math.nan),
    (math.inf, 0.0, 1.0), (3.0, math.inf, 1.0), (3.0, -math.inf, 1.0),
    (3.0, 0.0, math.inf)], ids=str)
def test_gas_state_rejects_non_finite_values(state):
    with pytest.raises(ValueError, match="must be finite"):
        GasState(*state)


@given(rho_l=st.floats(0.2, 8.0), rho_r=st.floats(0.2, 8.0),
       u_l=st.floats(-0.8, 0.8), u_r=st.floats(-0.8, 0.8),
       th_l=st.floats(0.3, 2.5), th_r=st.floats(0.3, 2.5),
       gamma=st.sampled_from([1.4, 5.0 / 3.0, 3.0]))
@settings(max_examples=40, deadline=None)
# equal states: p_star lands an ulp above p0, where the oracle's rounded
# volume drop was 0 (a ZeroDivisionError) and negative (a domain error)
@example(rho_l=1.6972290250268511, rho_r=1.6972290250268511, u_l=0.0, u_r=0.0,
         th_l=1.6972290250268511, th_r=1.6972290250268511, gamma=5.0 / 3.0)
@example(rho_l=1.75, rho_r=1.75, u_l=0.0, u_r=0.0, th_l=1.75, th_r=1.75, gamma=5.0 / 3.0)
def test_star_state_property(rho_l, rho_r, u_l, u_r, th_l, th_r, gamma):
    left = GasState(rho=rho_l, u=u_l, theta=th_l)
    right = GasState(rho=rho_r, u=u_r, theta=th_r)
    try:
        sol = solve_riemann(left, right, gamma=gamma)
    except VacuumError:
        spread = 2 * (left.sound_speed(gamma) + right.sound_speed(gamma)) / (gamma - 1)
        assert right.u - left.u >= spread * 0.99
        return
    # the solver's star pressure must satisfy the oracle's velocity match
    got_l = _u_behind(sol.p_star, left, gamma, "left")
    got_r = _u_behind(sol.p_star, right, gamma, "right")
    assert got_l == pytest.approx(got_r, rel=1e-7, abs=1e-8)
    assert sol.p_star > 0
