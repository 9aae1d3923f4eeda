"""Gaussian and Maxwell-Boltzmann moment machinery.

Oracle: every closed-form moment is checked against direct numerical
quadrature of the defining integral (scipy.integrate.quad), evaluated
before any value was frozen into this file.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import mb_moment_exact
from thermolb.moments import (
    discrete_moment,
    double_factorial,
    gaussian_moment,
    gaussian_moment_coefficient,
)


# ------------------------------------------------------------------ oracles

def quad_gaussian_moment(n):
    """∫ v^n e^{-v^2} dv over the real line, by quadrature."""
    val, err = integrate.quad(lambda v: v**n * math.exp(-(v**2)),
                              -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_mb_moment(m, rho, u, theta):
    """∫ v^m rho (pi theta)^{-1/2} e^{-(v-u)^2/theta} dv, by quadrature."""
    norm = rho / math.sqrt(math.pi * theta)

    def integrand(v):
        return v**m * norm * math.exp(-((v - u) ** 2) / theta)

    val, err = integrate.quad(integrand, -np.inf, np.inf,
                              epsabs=1e-13, epsrel=1e-13)
    return val


# ------------------------------------------------- gaussian moments (even n)

@pytest.mark.parametrize("n", range(0, 24))
def test_gaussian_moment_matches_quadrature(n):
    got = gaussian_moment(n).value
    want = quad_gaussian_moment(n)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_gaussian_moment_frozen_values():
    # Gamma((n+1)/2) at even n: sqrt(pi) * (n-1)!! / 2^{n/2}
    assert gaussian_moment(0).coefficient == 1
    assert gaussian_moment(2).coefficient == Fraction(1, 2)
    assert gaussian_moment(4).coefficient == Fraction(3, 4)
    assert gaussian_moment(6).coefficient == Fraction(15, 8)
    assert gaussian_moment(8).coefficient == Fraction(105, 16)
    assert gaussian_moment(12).coefficient == Fraction(10395, 64)


def test_gaussian_moment_odd_is_zero():
    for n in range(1, 25, 2):
        assert gaussian_moment(n).coefficient == 0
        assert gaussian_moment_coefficient(n) == 0


@given(st.integers(min_value=0, max_value=120).filter(lambda n: n % 2 == 0))
def test_gaussian_moment_recurrence(n):
    # Gamma((n+3)/2) = ((n+1)/2) Gamma((n+1)/2)
    lhs = gaussian_moment_coefficient(n + 2)
    rhs = gaussian_moment_coefficient(n) * Fraction(n + 1, 2)
    assert lhs == rhs


def test_double_factorial():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 4, 5, 7)] == \
        [1, 1, 1, 2, 3, 8, 15, 105]


def test_gaussian_moment_rejects_negative():
    with pytest.raises(ValueError):
        gaussian_moment(-2)


# -------------------------------------------------------------- MB moments

@pytest.mark.parametrize("m", range(0, 9))
@pytest.mark.parametrize("u,theta", [(0.0, 1.0), (0.3, 0.8), (-0.7, 1.9)])
def test_mb_moment_matches_quadrature(m, u, theta):
    got = float(mb_moment_exact(m, Fraction(1.7), Fraction(u), Fraction(theta)))
    want = quad_mb_moment(m, 1.7, u, theta)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_mb_moment_low_orders():
    rho, u, theta = Fraction(2), Fraction(1, 4), Fraction(13, 10)
    assert mb_moment_exact(0, rho, u, theta) == rho
    assert mb_moment_exact(1, rho, u, theta) == rho * u
    # <v^2> = u^2 + theta/2 in these units
    assert mb_moment_exact(2, rho, u, theta) == rho * (u**2 + theta / 2)


@given(m=st.integers(min_value=0, max_value=14),
       u=st.fractions(min_value=-2, max_value=2),
       theta=st.fractions(min_value=Fraction(1, 10), max_value=3))
@settings(max_examples=60)
def test_mb_moment_exact_recurrence(m, u, theta):
    # Stein / integration by parts: M_{m+1} = u M_m + (m theta / 2) M_{m-1}
    rho = Fraction(3, 2)
    lhs = mb_moment_exact(m + 1, rho, u, theta)
    rhs = u * mb_moment_exact(m, rho, u, theta)
    if m >= 1:
        rhs += Fraction(m) * theta / 2 * mb_moment_exact(m - 1, rho, u, theta)
    assert lhs == rhs


def test_mb_moment_exact_at_rest_reduces_to_gaussian():
    # u = 0, theta = 1: M_m / rho = Xi(m) / sqrt(pi)
    for m in range(0, 12, 2):
        assert mb_moment_exact(m, Fraction(1), Fraction(0), Fraction(1)) == \
            gaussian_moment_coefficient(m)


# -------------------------------------------- discrete quadrature (Xi match)

def test_discrete_moments_match_gaussian(q3, q5, q7, q11, q21):
    for model in (q3, q5, q7, q11, q21):
        qq = model.ratios.q
        for n in range(0, qq + 2, 2):
            want = gaussian_moment(n).value
            assert discrete_moment(model, n) == pytest.approx(
                want, rel=1e-9), (qq, n)


def test_discrete_odd_moments_vanish_exactly(q3, q5, q7, q11, q21):
    # velocities come in exact +/- pairs; fsum of the paired terms is 0.0
    for model in (q3, q5, q7, q11, q21):
        qq = model.ratios.q
        for n in range(1, qq + 3, 2):
            assert discrete_moment(model, n) == 0.0, (qq, n)


def test_discrete_moments_break_beyond_guarantee(q3):
    # q = 3 matches moments only through n = q + 1 = 4; n = 6 must miss
    got = discrete_moment(q3, 6)
    want = gaussian_moment(6).value
    assert abs(got - want) / want > 1e-3
