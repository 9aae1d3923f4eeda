"""Velocity-model derivation: the univariate polynomial and its roots.

Oracle: the defining property of a model is that its weights integrate
monomials like the Gaussian does.  An independent elimination oracle
(numpy lstsq over a float grid + brentq sign-change search, no shared
code with the exact solver) locates the admissible v2^2 values; solver
output is checked against it and against the six-decimal reference
speeds, which were frozen here after the oracle agreed.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from thermolb import (
    NoRealSolutionError,
    RatioTuple,
    build_polynomial,
    closed_form_q5,
    detect_ghosts,
    discrete_moment,
    gaussian_moment,
    resolve_catalog,
    solve_model,
)
from thermolb import _ratpoly as rp
from thermolb.model_solver import CATALOG, catalog_names
from thermolb.moments import gaussian_moment_coefficient

# (ratios beyond base, reference v2) -- six-decimal reference speeds
REFERENCE = [
    ((), 1.224745),
    ((3,), 0.553432),
    ((2, 3), 0.846393),
    ((2, 3, 4, 5), 0.685900),
    ((2, 3, 4, 5, 6, 7, 8, 9, 11), 0.372889),
]


def ratio_tuple(ext):
    return RatioTuple.from_ratios([Fraction(x) for x in ext])


# ------------------------------------------------------------------ oracle

def oracle_roots(ext, s_hi=6.0):
    """Admissible v2^2 values by weight elimination.

    For candidate s, the first K even-moment equations fix the K weights
    (linear solve); the (K+1)-th equation's residual must vanish.  Roots
    of that residual in s are the model speeds.  A float grid brackets
    the sign changes; mpmath bisection at 50 digits refines them (the
    float elimination is too ill-conditioned at q=21 to trust below
    ~1e-5).  Entirely independent of the exact integer-polynomial path
    under test.
    """
    from mpmath import mp, lu_solve, matrix, mpf

    ratios = [Fraction(1)] + [Fraction(x) for x in ext]
    k = len(ratios)
    xf = np.array([float(r * r) for r in ratios])
    gq = [gaussian_moment_coefficient(2 * m) for m in range(1, k + 2)]
    gf = [float(v) for v in gq]

    def residual_f(s):
        a = np.array([[2.0 * xi**m * s**m for xi in xf] for m in range(1, k + 1)])
        w = np.linalg.solve(a, np.array(gf[:k]))
        return 2.0 * float(np.dot(xf**(k + 1), w)) * s ** (k + 1) - gf[k]

    old_dps, mp.dps = mp.dps, 50
    try:
        xm = [mpf(r.numerator) ** 2 / mpf(r.denominator) ** 2 for r in ratios]
        gm = [mpf(v.numerator) / mpf(v.denominator) for v in gq]

        def residual_m(s):
            a = matrix(k, k)
            for m in range(1, k + 1):
                for i in range(k):
                    a[m - 1, i] = 2 * xm[i] ** m * s**m
            w = lu_solve(a, matrix(gm[:k]))
            tot = mpf(0)
            for i in range(k):
                tot += xm[i] ** (k + 1) * w[i]
            return 2 * tot * s ** (k + 1) - gm[k]

        def refine(lo, hi):
            lo, hi = mpf(lo), mpf(hi)
            flo = residual_m(lo)
            assert flo * residual_m(hi) <= 0, "oracle bracket lost the root"
            for _ in range(120):
                mid = (lo + hi) / 2
                fm = residual_m(mid)
                if fm == 0:
                    return mid
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            return (lo + hi) / 2

        grid = np.linspace(1e-3, s_hi, 4000)
        vals = [residual_f(s) for s in grid]
        roots = []
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] < 0 or vals[i] == 0.0:
                roots.append(float(refine(grid[i], grid[i + 1])))
    finally:
        mp.dps = old_dps
    # collapse duplicates from float-noise double crossings
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-8 * max(1.0, abs(r)):
            out.append(r)
    return out


@pytest.mark.parametrize("ext,v2_ref", REFERENCE)
def test_solver_agrees_with_elimination_oracle(ext, v2_ref):
    want = oracle_roots(ext)
    got = sorted(m.v2**2 for m in solve_model(ratio_tuple(ext)))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-14)


def test_polynomial_roots_agree_with_numpy(q5, q7, q11):
    for model in (q5, q7, q11):
        coeffs = build_polynomial(model.ratios)
        # numpy wants descending order
        np_roots = np.roots(coeffs[::-1])
        real = sorted(r.real for r in np_roots if abs(r.imag) < 1e-9 and r.real > 0)
        ours = sorted(m.v2**2 for m in solve_model(model.ratios))
        assert len(ours) <= len(real)
        for s in ours:
            assert min(abs(s - r) for r in real) < 1e-8


# ---------------------------------------------------------- reference speeds

@pytest.mark.parametrize("ext,v2_ref", REFERENCE)
def test_reference_base_speeds(ext, v2_ref):
    models = solve_model(ratio_tuple(ext))
    assert models, ext
    best = min(abs(m.v2 - v2_ref) for m in models)
    assert best < 1e-6


def test_q3_solution_exactly_rational(q3):
    assert q3.s_exact == Fraction(3, 2)
    assert q3.weights_exact == (Fraction(2, 3), Fraction(1, 6))
    assert q3.v2 == math.sqrt(1.5)
    assert q3.weights_normalized == (float(Fraction(2, 3)), float(Fraction(1, 6)))


def test_q5_both_branches(q5, q5_ghost):
    assert q5.v2 == pytest.approx(0.553432, abs=1e-6)
    assert q5_ghost.v2 == pytest.approx(1.166353, abs=1e-6)
    # same polynomial, the two positive roots
    coeffs = build_polynomial(q5.ratios)
    assert coeffs == [5, -20, 12]
    for model in (q5, q5_ghost):
        s = model.v2**2
        val = sum(c * s**j for j, c in enumerate(coeffs))
        assert abs(val) < 1e-12


def test_q21_second_branch_exists():
    models = solve_model(ratio_tuple((2, 3, 4, 5, 6, 7, 8, 9, 11)))
    v2s = sorted(m.v2 for m in models)
    assert v2s[0] == pytest.approx(0.372889, abs=1e-6)
    assert len(v2s) >= 2


# --------------------------------------------------------- moment residuals

def test_all_catalog_models_match_gaussian_moments():
    # defining property, via the fsum path (independent of solver internals)
    for name in catalog_names():
        model = resolve_catalog(name)
        qq = model.ratios.q
        for n in range(0, qq + 2, 2):
            want = gaussian_moment(n).value
            got = discrete_moment(model, n)
            assert got == pytest.approx(want, rel=1e-9), (name, n)
        assert model.residual < 1e-8


def test_weights_sum_to_one(q5, q21):
    for model in (q5, q21):
        full = model.normalized_weights_full()
        assert math.fsum(full) == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------------------- closed form

def test_closed_form_matches_polynomial_roots():
    for r in (Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)):
        plus, minus = closed_form_q5(r)
        p = r.denominator // math.gcd(r.numerator, r.denominator)
        ext = Fraction(1, 1) / r
        general = solve_model(RatioTuple.from_ratios([ext]))
        got = sorted(m.v2 for m in general)
        want = sorted((minus.v2, plus.v2))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9)


def test_closed_form_r_half_has_no_real_solution():
    with pytest.raises(NoRealSolutionError):
        closed_form_q5(Fraction(1, 2))
    # general path agrees: no positive real root -> empty list
    assert solve_model(RatioTuple.from_ratios([Fraction(2)])) == []


def test_closed_form_r_third_exact_branch_values():
    plus, minus = closed_form_q5(Fraction(1, 3))
    assert minus.v2 == pytest.approx(0.553432, abs=1e-6)
    assert plus.v2 == pytest.approx(1.166353, abs=1e-6)


def test_ghost_branch_limit():
    # as r -> 0 the larger root tends to the q=3 model: v2 -> sqrt(3/2),
    # outer weight -> 0 like r^6/9
    prev_w4 = None
    for r in (Fraction(1, 5), Fraction(1, 10), Fraction(1, 50), Fraction(1, 100)):
        plus, _ = closed_form_q5(r)
        w4 = plus.weights_normalized[-1]
        assert w4 > 0
        if prev_w4 is not None:
            assert w4 < prev_w4
        prev_w4 = w4
    assert abs(plus.v2 - math.sqrt(1.5)) < 1e-3
    assert plus.weights_normalized[-1] < 1e-3
    assert plus.weights_normalized[-1] == pytest.approx(
        float(Fraction(1, 100))**6 / 9, rel=0.05)
    assert detect_ghosts(plus)[-1]


@given(st.fractions(min_value=Fraction(1, 60), max_value=Fraction(9, 20)))
@settings(max_examples=40, deadline=None)
def test_closed_form_property(r):
    # anywhere the discriminant is positive, both branches solve the
    # integer polynomial and carry residual-free weights
    try:
        branches = closed_form_q5(r)
    except NoRealSolutionError:
        disc = 9 * r**4 - 42 * r**2 + 9
        assert disc < 0
        return
    ext = 1 / r
    coeffs = build_polynomial(RatioTuple.from_ratios([Fraction(ext)]))
    for model in branches:
        s = model.v2**2
        val = sum(c * s**j for j, c in enumerate(coeffs))
        scale = max(abs(c) * s**j for j, c in enumerate(coeffs))
        assert abs(val) / scale < 1e-12
        assert model.residual < 1e-8


# ------------------------------------------------------------ ratio tuples

def test_ratio_tuple_validation():
    with pytest.raises(ValueError):
        RatioTuple.from_ratios([Fraction(1)])          # must exceed 1
    with pytest.raises(ValueError):
        RatioTuple.from_ratios([Fraction(3), Fraction(2)])  # not increasing
    with pytest.raises(ValueError):
        RatioTuple((2, 4))                             # gcd not 1
    with pytest.raises(ValueError):
        RatioTuple((0, 3))
    rt = RatioTuple.from_ratios(["3/2", "5/2"])
    assert rt.p == (2, 3, 5)
    assert rt.q == 7


def test_ratio_tuple_q_and_ratios(q11):
    assert q11.ratios.q == 11
    assert q11.ratios.ratios == tuple(Fraction(k) for k in (1, 2, 3, 4, 5))


def test_velocity_layout(q5):
    v = q5.velocities()
    assert v[0] == 0.0
    assert v[1] == -v[2] == pytest.approx(q5.v2)
    assert v[3] == -v[4] == pytest.approx(3 * q5.v2)
    assert list(q5.hops()) == [0, 1, -1, 3, -3]
    assert q5.max_speed == pytest.approx(3 * q5.v2)


def test_model_json_roundtrip(q7):
    from thermolb.model_solver import VelocityModel
    d = q7.to_json_dict()
    back = VelocityModel.from_json_dict(d)
    assert back.ratios == q7.ratios
    assert back.v2 == q7.v2
    assert back.weights_normalized == q7.weights_normalized


# -------------------------------------------------------------- exact rpoly

def test_sturm_root_counting():
    # (s-1)(s-2)(s-3) = s^3 - 6s^2 + 11s - 6
    poly = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    chain = rp.sturm_chain(poly)
    assert rp.count_roots(chain, Fraction(0), Fraction(4)) == 3
    assert rp.count_roots(chain, Fraction(3, 2), Fraction(5, 2)) == 1
    assert rp.count_roots(chain, Fraction(4), Fraction(9)) == 0


def test_isolate_positive_roots_exact_and_refined():
    # 2s - 3: exact rational root
    exact, intervals = rp.isolate_positive_roots([Fraction(-3), Fraction(2)])
    assert exact == [Fraction(3, 2)]
    assert intervals == []
    # 12s^2 - 20s + 5: two irrational roots (5 +- sqrt(10)) / 6
    from mpmath import mp, mpf, sqrt as msqrt

    poly = [Fraction(5), Fraction(-20), Fraction(12)]
    exact, intervals = rp.isolate_positive_roots(poly)
    assert exact == []
    assert len(intervals) == 2
    old_dps, mp.dps = mp.dps, 60
    try:
        true_roots = sorted([(5 - msqrt(10)) / 6, (5 + msqrt(10)) / 6])
        for (lo, hi), want in zip(intervals, true_roots):
            root = rp.refine_root(poly, lo, hi)
            err = abs(mpf(root.numerator) / mpf(root.denominator) - want)
            assert err < mpf(2) ** -100
    finally:
        mp.dps = old_dps


def test_square_free_part():
    # (s-1)^2 (s-2) = s^3 - 4s^2 + 5s - 2
    poly = [Fraction(-2), Fraction(5), Fraction(-4), Fraction(1)]
    sf = rp.square_free_part(poly)
    assert rp.degree(sf) == 2
    assert rp.eval_at(sf, Fraction(1)) == 0
    assert rp.eval_at(sf, Fraction(2)) == 0


def test_clear_denominators():
    ints, scale = rp.clear_denominators([Fraction(5, 12), Fraction(-5, 3), Fraction(1)])
    assert ints == [5, -20, 12]
    assert scale == 12
    # sign normalization: leading coefficient positive
    ints, scale = rp.clear_denominators([Fraction(1, 2), Fraction(-1, 3)])
    assert ints[-1] > 0
    assert [c / scale for c in ints] == [Fraction(1, 2), Fraction(-1, 3)]


def test_solve_linear_exact():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = rp.solve_linear(a, b)
    assert x == [Fraction(1), Fraction(3)]


def test_exact_rational_roots_quadratic():
    # (2s-1)(s-3) = 2s^2 - 7s + 3
    roots = rp.exact_rational_roots([Fraction(3), Fraction(-7), Fraction(2)])
    assert sorted(roots) == [Fraction(1, 2), Fraction(3)]


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4))
@settings(max_examples=60)
def test_isolation_finds_every_planted_positive_root(shifts):
    # plant integer roots, some repeated; isolation must report the
    # distinct positive ones exactly
    poly = [Fraction(1)]
    for a in shifts:
        poly = [Fraction(0)] + poly
        for j in range(len(poly) - 1):
            poly[j] -= a * poly[j + 1]
    exact, intervals = rp.isolate_positive_roots(poly)
    want = sorted({a for a in shifts if a > 0})
    got = sorted(exact)
    for lo, hi in intervals:
        got.append(rp.refine_root(poly, lo, hi))
    assert len(got) == len(want)
    for g, w in zip(sorted(got), want):
        assert abs(g - w) < Fraction(1, 10**20)
