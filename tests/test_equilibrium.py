"""Equilibrium expansions and the discrete moment-matching guarantee.

Oracle: expansion coefficients are mixed partial derivatives of the
exact density ratio R(v, u, t) = sqrt(t0/(t0+t)) exp(v^2/t0 -
(v-u)^2/(t0+t)) at (u, t) = (0, 0).  mpmath computes them to ~30
significant digits, far beyond the 1e-6 relative bar used here; the
small frozen tables below were checked against that oracle before being
committed.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from thermolb import (
    DiscreteEquilibrium,
    ExpansionSpec,
    expand,
    moment_accuracy,
    truncated_mb_moment,
    verify_moments,
)
from thermolb.moments import gaussian_moment_coefficient, mb_moment_exact

# the benchmark combinations used across the suite:
# (model fixture name, kind, order, m_max)
COMBOS = [
    ("q5", "taylor", 2, 2),
    ("q5", "hermite", 3, 3),
    ("q7", "taylor", 3, 3),
    ("q11", "taylor", 4, 4),
    ("q21", "taylor", 5, 5),
    ("q21", "hermite", 10, 10),
]


# ------------------------------------------------------------------ oracle

def oracle_coefficient(v, a, b, theta0=1.0):
    """(1/a!b!) d^{a+b} R / du^a dt^b at (0,0), by mpmath differentiation."""
    t0 = mpmath.mpf(theta0)

    def func(u, t):
        return (mpmath.sqrt(t0 / (t0 + t))
                * mpmath.exp(v * v / t0 - (v - u) ** 2 / (t0 + t)))

    with mpmath.workdps(40):
        d = mpmath.diff(func, (mpmath.mpf(0), mpmath.mpf(0)), (a, b))
        return float(d / (mpmath.factorial(a) * mpmath.factorial(b)))


def poly_coefficient_at(poly, v, a, b):
    """Coefficient of u^a t^b of the expansion, evaluated at velocity v."""
    tot = Fraction(0)
    for (vp, ua, tb), c in poly.terms.items():
        if ua == a and tb == b:
            tot += c * Fraction(v).limit_denominator(10**12) ** vp
    return float(tot)


@pytest.mark.parametrize("kind,orders", [("taylor", (1, 2, 3, 4, 5)),
                                         ("hermite", range(1, 11))])
def test_coefficients_match_derivative_oracle(kind, orders):
    for order in orders:
        poly = expand(ExpansionSpec(kind=kind, order=order))
        kept = {(a, b) for (_, a, b) in poly.terms}
        for a, b in kept:
            if a + b > 4:
                continue  # oracle cost grows fast; low orders pin the scheme
            for v in (0.0, 0.5, -1.25):
                want = oracle_coefficient(v, a, b)
                got = poly_coefficient_at(poly, v, a, b)
                if abs(want) < 1e-12:
                    assert abs(got) < 1e-9, (kind, order, a, b, v)
                else:
                    assert got == pytest.approx(want, rel=1e-6), \
                        (kind, order, a, b, v)


def test_truncation_rules():
    # TE keeps u^a t^b with a+b <= N; HE keeps a+2b <= N
    te3 = expand(ExpansionSpec("taylor", 3))
    assert set((a, b) for (_, a, b) in te3.terms) <= \
        {(a, b) for a in range(7) for b in range(4) if a + b <= 3}
    he3 = expand(ExpansionSpec("hermite", 3))
    for (_, a, b) in he3.terms:
        assert a + 2 * b <= 3


# ------------------------------------------------------------ frozen tables

def test_te1_exact_table():
    poly = expand(ExpansionSpec("taylor", 1))
    assert dict(poly.terms) == {
        (0, 0, 0): Fraction(1),
        (0, 0, 1): Fraction(-1, 2),
        (1, 1, 0): Fraction(2),
        (2, 0, 1): Fraction(1),
    }


def test_he2_exact_table():
    poly = expand(ExpansionSpec("hermite", 2))
    assert dict(poly.terms) == {
        (0, 0, 0): Fraction(1),
        (0, 0, 1): Fraction(-1, 2),
        (0, 2, 0): Fraction(-1),
        (1, 1, 0): Fraction(2),
        (2, 0, 1): Fraction(1),
        (2, 2, 0): Fraction(2),
    }


def test_degree_bounds():
    for n in range(1, 6):
        assert expand(ExpansionSpec("taylor", n)).v_degree <= 2 * n
    for n in range(1, 11):
        assert expand(ExpansionSpec("hermite", n)).v_degree <= n


@pytest.mark.parametrize("n", [2, 3])
def test_he_2n_contains_te_n(n):
    te = expand(ExpansionSpec("taylor", n))
    he = expand(ExpansionSpec("hermite", 2 * n))
    for key, coef in te.terms.items():
        assert he.terms.get(key) == coef, key


def test_expansion_cache_returns_identical_object():
    a = expand(ExpansionSpec(kind="taylor", order=3))
    b = expand(ExpansionSpec(kind="taylor", order=3))
    assert a is b


def test_expansion_spec_validation():
    with pytest.raises(ValueError):
        ExpansionSpec(kind="pade", order=2)
    with pytest.raises(ValueError):
        ExpansionSpec(kind="taylor", order=0)
    assert ExpansionSpec(kind="hermite", order=4).label == "hermite:4"


# --------------------------------------------------- moment-match guarantee

@pytest.mark.parametrize("model_name,kind,order,m_max", COMBOS)
def test_verify_moments_passes_benchmark_combos(model_name, kind, order, m_max,
                                            request):
    model = request.getfixturevalue(model_name)
    spec = ExpansionSpec(kind=kind, order=order)
    assert moment_accuracy(model, spec) == m_max
    report = verify_moments(model, expand(spec))
    assert report.m_max == m_max
    assert report.passed
    assert report.max_abs_error < 1e-10


@pytest.mark.parametrize("model_name,kind,order,m_max", COMBOS[:4])
def test_discrete_sum_equals_truncated_integral(model_name, kind, order,
                                                m_max, request):
    # independent evaluation of both sides from the term table alone
    model = request.getfixturevalue(model_name)
    poly = expand(ExpansionSpec(kind=kind, order=order))
    deq = DiscreteEquilibrium(model, poly)
    v = model.velocities()
    wbar = model.normalized_weights_full()
    rho, u, theta = 1.4, 0.17, 1.13
    t = theta - 1.0
    for m in range(0, m_max + 1):
        pops = deq.populations(np.array([rho]), np.array([u]),
                               np.array([theta]))[:, 0]
        discrete = math.fsum(p * vi**m for p, vi in zip(pops, v))
        # continuous side: sum of term integrals against the Gaussian
        cont = math.fsum(
            float(c) * u**a * t**b
            * float(gaussian_moment_coefficient(vp + m))
            for (vp, a, b), c in poly.terms.items()) * rho
        assert discrete == pytest.approx(cont, rel=1e-12, abs=1e-13), m
        assert truncated_mb_moment(m, poly.spec, rho, u, theta) == \
            pytest.approx(cont, rel=1e-12, abs=1e-13), m


def test_guarantee_is_sharp(q5):
    # (q5, HE3) guarantees m <= 3.  Parity stretches the agreement to
    # m = 4 (the violating terms there have odd total degree, which both
    # sides kill exactly); m = 5 is the first genuine miss.
    spec = ExpansionSpec(kind="hermite", order=3)
    poly = expand(spec)
    deq = DiscreteEquilibrium(q5, poly)
    v = q5.velocities()
    rho, u, theta = 1.0, 0.2, 1.2
    pops = deq.populations(np.array([rho]), np.array([u]),
                           np.array([theta]))[:, 0]

    def defect(m):
        discrete = math.fsum(p * vi**m for p, vi in zip(pops, v))
        return abs(discrete - truncated_mb_moment(m, spec, rho, u, theta))

    assert defect(4) < 1e-12
    assert defect(5) > 1e-6


def test_truncated_moment_converges_to_exact():
    rho, u, theta = 1.0, 0.2, 1.2
    exact = float(mb_moment_exact(2, Fraction(rho), Fraction(u), Fraction(theta)))
    err = [abs(truncated_mb_moment(2, ExpansionSpec(kind="taylor", order=n),
                                   rho, u, theta) - exact)
           for n in (1, 2, 4, 8)]
    assert err[-1] < err[0] / 100
    assert err[-1] < 1e-6


# ----------------------------------------------------- population evaluator

def test_populations_mass_is_exact(q5, q11):
    for model in (q5, q11):
        poly = expand(ExpansionSpec(kind="taylor",
                                    order=2 if model.ratios.q == 5 else 4))
        deq = DiscreteEquilibrium(model, poly)
        rho = np.array([0.5, 1.0, 3.0, 11.0])
        u = np.array([-0.3, 0.0, 0.2, 0.1])
        theta = np.array([0.8, 1.0, 1.2, 1.0])
        pops = deq.populations(rho, u, theta)
        total = pops.sum(axis=0)
        np.testing.assert_allclose(total, rho, rtol=1e-13)


def test_populations_mirror_bitwise(q7):
    poly = expand(ExpansionSpec(kind="taylor", order=3))
    deq = DiscreteEquilibrium(q7, poly)
    rho = np.array([1.3, 2.0])
    u = np.array([0.21, -0.4])
    theta = np.array([0.9, 1.1])
    pops = deq.populations(rho, u, theta)
    flipped = deq.populations(rho, -u, theta)
    # velocity layout [0, +v, -v, ...]: negating u swaps each +/- pair
    mirror = np.empty_like(pops)
    mirror[0] = pops[0]
    mirror[1::2] = pops[2::2]
    mirror[2::2] = pops[1::2]
    assert np.array_equal(flipped, mirror)


def test_evaluate_feq_agrees_with_populations(q5):
    # one scalar state gives the (q,) column of the array evaluation
    deq = DiscreteEquilibrium(q5, expand(ExpansionSpec(kind="hermite", order=3)))
    got = deq.populations(2.5, 0.1, 0.95)
    want = deq.populations(np.array([2.5]), np.array([0.1]),
                           np.array([0.95]))[:, 0]
    np.testing.assert_array_equal(got, want)


def test_discrete_equilibrium_requires_unit_base_temperature(q5):
    off_base = expand(ExpansionSpec(kind="taylor", order=2,
                                    theta0=Fraction(2)))
    with pytest.raises(ValueError):
        DiscreteEquilibrium(q5, off_base)


def test_populations_at_rest_unit_theta_are_weights(q5):
    # u = 0, theta = 1: P == 1 identically, populations = rho * wbar
    poly = expand(ExpansionSpec(kind="hermite", order=3))
    deq = DiscreteEquilibrium(q5, poly)
    pops = deq.populations(np.array([2.0]), np.array([0.0]),
                           np.array([1.0]))[:, 0]
    np.testing.assert_allclose(pops, 2.0 * q5.normalized_weights_full(),
                               rtol=1e-15)


# -------------------------------------------- off-base expansions (theta0)

def test_theta0_expansion_coefficients():
    spec = ExpansionSpec(kind="taylor", order=2, theta0=Fraction(3, 2))
    poly = expand(spec)
    for a, b in {(a, b) for (_, a, b) in poly.terms}:
        if a + b > 3:
            continue
        for v in (0.4, -0.9):
            want = oracle_coefficient(v, a, b, theta0=1.5)
            got = poly_coefficient_at(poly, v, a, b)
            if abs(want) < 1e-12:
                assert abs(got) < 1e-9
            else:
                assert got == pytest.approx(want, rel=1e-6), (a, b, v)
