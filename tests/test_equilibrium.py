"""Equilibrium expansions and the discrete moment-matching guarantee.

Oracles: expansion coefficients are mixed partial derivatives of the
exact density ratio R(v, u, t) = sqrt(t0/(t0+t)) exp(v^2/t0 -
(v-u)^2/(t0+t)) at (u, t) = (0, 0).  mpmath computes them to ~30
significant digits, far beyond the 1e-6 relative bar used here; the
small frozen tables below were checked against that oracle before being
committed.  Exactly, the whole table must equal the product of truncated
Fraction series of exp(E) and the (1 + t/t0)**(-1/2) prefactor, built
here without the Hermite closed form that expand uses.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import mb_moment_exact
from thermolb import ExpansionSpec, resolve_catalog
from thermolb.equilibrium import (
    DiscreteEquilibrium,
    MomentCheck,
    MomentReport,
    expand,
    moment_accuracy,
    truncated_mb_moment,
    verify_moments,
)
from thermolb.model_solver import (
    RatioTuple,
    VelocityModel,
    _moment_residual,
    catalog_names,
    solve_model,
)
from thermolb.moments import gaussian_moment_coefficient

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


def _series_mul(p, q, order):
    """Product of two (v, u, t) series truncated at total (u, t) order."""
    out = {}
    for (v1, u1, t1), c1 in p.items():
        for (v2, u2, t2), c2 in q.items():
            if u1 + u2 + t1 + t2 > order:
                continue
            key = (v1 + v2, u1 + u2, t1 + t2)
            acc = out.get(key, Fraction(0)) + c1 * c2
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
    return out


def series_oracle(kind, order, theta0):
    """The exact expansion table as truncated series: the density is
    (pi*theta0)**(-1/2) exp(-v**2/theta0) * exp(E) * (1 + t/theta0)**(-1/2)
    with E = v**2 (1/theta0 - 1/(theta0 + t)) + (2 u v - u**2) / (theta0 + t)."""
    theta0 = Fraction(theta0)
    # 1/(theta0 + t) as a series in t
    inv = {(0, 0, k): Fraction((-1) ** k) / theta0 ** (k + 1) for k in range(order + 1)}
    # the t**0 part of the v**2 term cancels exactly, so E has no constant term
    e = {}
    for (_, _, k), c in inv.items():
        if k > 0:
            e[(2, 0, k)] = -c
        if k < order:
            e[(1, 1, k)] = 2 * c
    for (_, _, k), c in inv.items():
        if k + 2 <= order:
            e[(0, 2, k)] = e.get((0, 2, k), Fraction(0)) - c
    # exp(E) truncated; E has minimum (u, t) order 1 so N terms suffice
    result = {(0, 0, 0): Fraction(1)}
    power = {(0, 0, 0): Fraction(1)}
    for n in range(1, order + 1):
        power = _series_mul(power, e, order)
        for key, c in power.items():
            acc = result.get(key, Fraction(0)) + c / math.factorial(n)
            if acc:
                result[key] = acc
            elif key in result:
                del result[key]
    pref = {(0, 0, k): Fraction((-1) ** k * math.comb(2 * k, k), 4 ** k) / theta0 ** k
            for k in range(order + 1)}
    full = _series_mul(result, pref, order)
    if kind == "taylor":
        return full
    return {k: c for k, c in full.items() if k[1] + 2 * k[2] <= order}


@pytest.mark.parametrize("theta0", [Fraction(1), Fraction(3, 2), Fraction(1, 3),
                                    Fraction(7, 5), Fraction(2)], ids=str)
@pytest.mark.parametrize("kind", ["taylor", "hermite"])
def test_closed_form_equals_the_series_oracle_exactly(kind, theta0):
    for order in range(1, 11):
        spec = ExpansionSpec(kind, order, theta0)
        assert expand(spec).terms == series_oracle(kind, order, theta0), spec.label


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
    pairs = [(a, b) for a in range(5) for b in range(5)]
    assert [p for p in pairs if te3.spec.keeps(*p)] == [p for p in pairs if sum(p) <= 3]
    assert [p for p in pairs if he3.spec.keeps(*p)] == \
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0)]


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


@pytest.mark.parametrize("order", [2.5, True, "3", 3.0, None], ids=repr)
def test_expansion_order_must_be_an_int(order):
    with pytest.raises(ValueError, match="expansion order must be an integer >= 1"):
        ExpansionSpec("taylor", order)


@pytest.mark.parametrize("theta0", ["3/2", 1.5, Fraction(3, 2)], ids=repr)
def test_base_temperature_is_converted_before_the_sign_test(theta0):
    spec = ExpansionSpec("taylor", 2, theta0)
    assert type(spec.theta0) is Fraction and spec.theta0 == Fraction(3, 2)


@pytest.mark.parametrize("theta0", ["-3/2", "0", -1], ids=repr)
def test_base_temperature_must_be_positive(theta0):
    with pytest.raises(ValueError, match="base temperature must be positive"):
        ExpansionSpec("taylor", 2, theta0)


@pytest.mark.parametrize("theta0", [math.inf, -math.inf, math.nan, "inf", "x", "1/0"],
                         ids=repr)
def test_base_temperature_must_be_finite(theta0):
    # Fraction(inf) raises OverflowError, Fraction(nan) a ValueError that
    # names no field and Fraction("1/0") a ZeroDivisionError; each must be a
    # ValueError about the base temperature
    with pytest.raises(ValueError, match="base temperature must be a finite rational"):
        ExpansionSpec("taylor", 2, theta0)


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


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf], ids=str)
def test_verify_moments_rejects_a_bad_tolerance(q5, tolerance):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        verify_moments(q5, expand(ExpansionSpec("hermite", 3)), tolerance=tolerance)


def test_moment_tolerance_is_absolute_up_to_one_and_relative_above():
    def passed(expected, error):
        check = MomentCheck(4, 1.0, -0.2, 1.2, expected + error, expected)
        return MomentReport(m_max=4, tolerance=1e-10, checks=(check,)).passed

    assert passed(1e6, 9e-5) and passed(-1e6, -9e-5)
    assert not passed(1e6, 2e-4) and not passed(-1e6, 2e-4)
    assert passed(0.5, 9e-11) and not passed(0.5, 2e-10)
    assert passed(0.0, 1e-10) and not passed(0.0, 1.1e-10)


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


# ------------------------------- float side against numpy-scalar oracles
#
# The oracles are the numpy-scalar loops that the Python-float code
# replaced: speeds from Fraction ratios, powers and products of numpy
# float64 scalars, one populations call per verify sample.  A Python
# float ** int calls the same C pow as a numpy float64 scalar ** int, and
# every other operation is one IEEE rounding either way, so the results
# must agree bit for bit.

def _oracle_velocities(model):
    out = np.empty(model.q)
    out[0] = 0.0
    for i, r in enumerate(model.ratios.ratios):
        speed = model.v2 * float(r)
        out[1 + 2 * i] = speed
        out[2 + 2 * i] = -speed
    return out


def _oracle_moment_residual(model):
    v = _oracle_velocities(model)
    w = model.normalized_weights_full()
    defects = []
    for n in range(0, model.q + 2, 2):
        target = float(gaussian_moment_coefficient(n))
        got = math.fsum(wi * vi**n for wi, vi in zip(w, v))
        defects.append(abs(got - target) / target)
    return float(np.max(defects))


def _oracle_columns(model, poly):
    """DiscreteEquilibrium's (c_even, c_odd), built over numpy scalars."""
    groups = {}
    for (kv, ku, kt), c in poly.terms.items():
        groups.setdefault((ku, kt), {})[kv] = c
    exponents = sorted(groups)
    even = [key for key in exponents if key[0] % 2 == 0]
    odd = [key for key in exponents if key[0] % 2 == 1]
    v_plus = _oracle_velocities(model)[1::2]

    def columns(keys, speeds):
        out = np.empty((len(speeds), len(keys)))
        for col, key in enumerate(keys):
            for i, s in enumerate(speeds):
                out[i, col] = math.fsum(float(c) * s**j
                                        for j, c in sorted(groups[key].items()))
        return out

    wbar = model.normalized_weights_full()
    return (columns(even, np.append(0.0, v_plus)) * wbar[0::2, None],
            columns(odd, v_plus) * wbar[1::2, None])


def _oracle_discrete_moments(model, poly, samples, m_max):
    """verify_moments' discrete sums, one populations call per sample."""
    evaluator = DiscreteEquilibrium(model, poly)
    v = _oracle_velocities(model)
    out = []
    for rho, u, theta in samples:
        f = evaluator.populations(np.array([rho]), np.array([u]), np.array([theta]))[:, 0]
        for m in range(0, m_max + 1):
            out.append(math.fsum(f[i] * v[i]**m for i in range(model.q)))
    return out


def _hex(values):
    return [float(x).hex() for x in values]


@st.composite
def derived_models(draw):
    """A catalog model, or one model of a random derive tuple."""
    if draw(st.booleans()):
        return resolve_catalog(draw(st.sampled_from(catalog_names())))
    p = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=8)))
    g = math.gcd(*p)
    models = solve_model(RatioTuple(tuple(x // g for x in p)))
    assume(models)
    return draw(st.sampled_from(models))


@given(derived_models(), st.sampled_from(["hermite:3", "taylor:3", "taylor:5"]),
       st.lists(st.tuples(st.floats(0.1, 10), st.floats(-1, 1), st.floats(0.2, 3)),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_float_side_equals_the_numpy_scalar_oracles(model, label, samples):
    kind, order = label.split(":")
    poly = expand(ExpansionSpec(kind=kind, order=int(order)))
    assert _hex(model.velocities()) == _hex(_oracle_velocities(model))
    assert _moment_residual(model).hex() == _oracle_moment_residual(model).hex()
    evaluator = DiscreteEquilibrium(model, poly)
    for got, want in zip((evaluator.c_even, evaluator.c_odd), _oracle_columns(model, poly)):
        assert got.shape == want.shape and _hex(got.ravel()) == _hex(want.ravel())
    report = verify_moments(model, poly, samples)
    assert _hex(c.discrete for c in report.checks) == _hex(
        _oracle_discrete_moments(model, poly, samples, report.m_max))


def test_moment_residual_is_nan_when_any_row_is_nan(q5):
    # an infinite rest weight: row 0 is inf, every other row inf * 0.0 = NaN;
    # a plain max over [inf, nan, ...] would return inf
    model = VelocityModel(ratios=q5.ratios, v2=q5.v2,
                          weights_normalized=(math.inf, *q5.weights_normalized[1:]),
                          residual=0.0, ghost_flags=q5.ghost_flags, all_positive=True)
    with np.errstate(invalid="ignore"):
        assert math.isnan(_oracle_moment_residual(model))
    assert math.isnan(_moment_residual(model))
