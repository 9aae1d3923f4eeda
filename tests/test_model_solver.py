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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from oracles import NoRealSolutionError, closed_form_q5
from thermolb import _ratpoly as rp
from thermolb import model_solver, resolve_catalog
from thermolb.model_solver import (
    CATALOG,
    RatioTuple,
    _solve_weights,
    build_polynomial,
    catalog_names,
    detect_ghosts,
    solve_model,
)
from thermolb.moments import discrete_moment, gaussian_moment, gaussian_moment_coefficient

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


def test_resolve_catalog_derives_once_and_regenerate_derives_again(monkeypatch, capsys):
    from thermolb import model_solver
    from thermolb.cli import EXIT_OK, main

    assert resolve_catalog("q7") is resolve_catalog("q7")
    calls = []

    def counted(ratios, **kwargs):
        calls.append(ratios)
        return solve_model(ratios, **kwargs)

    monkeypatch.setattr(model_solver, "solve_model", counted)
    assert resolve_catalog("q7") is resolve_catalog("q7")
    assert calls == []
    assert main(["catalog", "--regenerate"]) == EXIT_OK
    capsys.readouterr()
    assert calls == [entry.ratios for entry in CATALOG]
    assert model_solver.derive_catalog_model("q7") == resolve_catalog("q7")


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


@pytest.mark.parametrize("threshold", [math.nan, -1e-4, math.inf], ids=str)
def test_detect_ghosts_rejects_a_bad_threshold(threshold):
    with pytest.raises(ValueError, match="ghost threshold must be a finite number >= 0"):
        detect_ghosts(resolve_catalog("q5"), threshold)


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
    exact, sf, intervals = rp.isolate_positive_roots([Fraction(-3), Fraction(2)])
    assert exact == [Fraction(3, 2)]
    assert sf == [1] and intervals == []
    # 12s^2 - 20s + 5: two irrational roots (5 +- sqrt(10)) / 6
    from mpmath import mp, mpf, sqrt as msqrt

    poly = [Fraction(5), Fraction(-20), Fraction(12)]
    exact, sf, intervals = rp.isolate_positive_roots(poly)
    assert exact == [] and sf == [5, -20, 12]
    assert len(intervals) == 2
    old_dps, mp.dps = mp.dps, 60
    try:
        true_roots = sorted([(5 - msqrt(10)) / 6, (5 + msqrt(10)) / 6])
        for (lo, hi), want in zip(intervals, true_roots):
            root = rp.refine_root(sf, lo, hi)
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
    assert rp.clear_denominators([Fraction(5, 12), Fraction(-5, 3), Fraction(1)]) == [5, -20, 12]
    # sign normalization: leading coefficient positive
    assert rp.clear_denominators([Fraction(1, 2), Fraction(-1, 3)]) == [-3, 2]
    # trailing zeros trimmed, content divided out; the zero polynomial stays
    assert rp.clear_denominators([Fraction(4, 3), Fraction(-2, 3), Fraction(0)]) == [-2, 1]
    assert rp.clear_denominators([Fraction(0)]) == [0]


def solve_linear(a, b):
    """Exact oracle: Gaussian elimination with partial pivoting in
    Fractions.  Raises ValueError on a singular matrix."""
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / m[r][r]
    return x


def test_solve_linear_exact():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    assert solve_linear(a, b) == [Fraction(1), Fraction(3)]
    with pytest.raises(ValueError, match="singular"):
        solve_linear([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], b)


def oracle_weights(ratios, s):
    """Positive-speed weights by eliminating the moment rows n = 2..q-1,
    sum_i 2 w_i pbar_i**n s**(n/2) = g_n, in Fractions."""
    x = [r * r for r in ratios.ratios]
    a = [[xi ** (j + 1) for xi in x] for j in range(len(x))]
    rhs = [gaussian_moment_coefficient(2 * (j + 1)) / (2 * s ** (j + 1))
           for j in range(len(x))]
    return solve_linear(a, rhs)


def oracle_polynomial(ratios):
    """The model polynomial by elimination: the rows n = 2..q-1 fix c with
    sum_j c_j x_i**(j+1) = x_i**(k+1); substituting the weights into the
    n = q+1 row gives sum_j c_j g_{j+1} s**(k-j) - g_{k+1} = 0."""
    k = len(ratios.p)
    x = [r * r for r in ratios.ratios]
    c = solve_linear([[xi ** (j + 1) for j in range(k)] for xi in x],
                     [xi ** (k + 1) for xi in x])
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[0] = -gaussian_moment_coefficient(2 * (k + 1))
    for j in range(k):
        coeffs[k - j] += c[j] * gaussian_moment_coefficient(2 * (j + 1))
    return rp.clear_denominators(coeffs)


@st.composite
def ratio_tuples(draw):
    p = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=10)))
    g = math.gcd(*p)
    return RatioTuple(tuple(x // g for x in p))


# small rationals, and dyadics with denominators above 2**100 like the
# midpoints refine_root returns
squared_speeds = st.one_of(
    st.fractions(Fraction(1, 1000), Fraction(20), max_denominator=1000),
    st.builds(lambda n, e: Fraction(n, 2**e),
              st.integers(1, 2**140), st.integers(101, 130)),
)


@given(ratio_tuples())
@settings(max_examples=60, deadline=None)
@example(RatioTuple((1,)))
@example(RatioTuple((1, 3)))
@example(RatioTuple((1, 2, 3, 4, 5, 6, 7, 8, 9, 11)))
def test_build_polynomial_equals_the_elimination_oracle(ratios):
    assert build_polynomial(ratios) == oracle_polynomial(ratios)


@given(ratio_tuples(), squared_speeds)
@settings(max_examples=60, deadline=None)
@example(RatioTuple((1, 2, 3, 4, 5, 6, 7, 8, 9, 11)), Fraction(3, 2))
def test_solve_weights_equals_the_elimination_oracle(ratios, s):
    weights = _solve_weights(ratios, s)
    assert weights == oracle_weights(ratios, s)
    assert all(type(w) is Fraction for w in weights)
    for n in range(2, ratios.q, 2):
        got = 2 * sum(w * r**n for w, r in zip(weights, ratios.ratios)) * s ** (n // 2)
        assert got == gaussian_moment_coefficient(n), n


def test_exact_rational_roots_quadratic():
    # (2s-1)(s-3) = 2s^2 - 7s + 3
    roots = rp.exact_rational_roots([Fraction(3), Fraction(-7), Fraction(2)])
    assert sorted(roots) == [Fraction(1, 2), Fraction(3)]


# ------------------------------------- _ratpoly against Fraction references
#
# The references are the plain Fraction algorithms the integer versions
# replaced: Fraction bisection, Fraction Sturm sign counts, and the Fraction
# division, gcd, square-free part, Sturm chain, deflation and isolation
# below.  The integer versions must agree with them exactly, not
# approximately.

def is_zero(p):
    return all(c == 0 for c in p)


def divmod_poly(num, den):
    num, den = rp.trim(num), rp.trim(den)
    if is_zero(den):
        raise ZeroDivisionError("polynomial division by zero")
    dd, lc = len(den) - 1, den[-1]
    rem = list(num)
    if len(rem) - 1 < dd:
        return [Fraction(0)], rp.trim(rem)
    quo = [Fraction(0)] * (len(rem) - dd)
    while len(rem) - 1 >= dd and not is_zero(rem):
        shift = len(rem) - 1 - dd
        coef = Fraction(rem[-1]) / lc
        quo[shift] = coef
        for i, c in enumerate(den):
            rem[shift + i] -= coef * c
        rem.pop()  # leading entry is now exactly zero
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    return rp.trim(quo), rp.trim(rem)


def gcd_poly(a, b):
    a, b = rp.trim(a), rp.trim(b)
    while not is_zero(b):
        _, r = divmod_poly(a, b)
        a, b = b, r
    if is_zero(a):
        return [Fraction(0)]
    lc = a[-1]
    return [c / lc for c in a]  # monic normalization


def square_free_part(p):
    p = rp.trim(p)
    if rp.degree(p) <= 1:
        return p
    g = gcd_poly(p, rp.derivative(p))
    if rp.degree(g) == 0:
        return p
    q, r = divmod_poly(p, g)
    assert is_zero(r)
    return q


def deflate(p, root):
    """Divide out an exact root (x - root)."""
    q, r = divmod_poly(p, [-root, Fraction(1)])
    if not is_zero(r):
        raise ValueError("not an exact root")
    return q


def sturm_chain(p):
    """The Fraction Sturm sequence p, p', -rem(p_{i-1}, p_i), ..."""
    chain = [rp.trim(p), rp.derivative(p)]
    while not is_zero(chain[-1]) and rp.degree(chain[-1]) > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if is_zero(r):
            break
        chain.append([-c for c in r])
    return [c for c in chain if not is_zero(c)]


def isolate_positive_roots(p):
    """Fraction-algebra isolation: the same Sturm bisection of (0, B] on the
    square-free part over the Fraction chain's integer forms, with each
    interval's end signs tested as well as its count."""
    sf = square_free_part(rp.trim(p))
    while sf[0] == 0 and len(sf) > 1:
        sf = sf[1:]
    exact = rp.exact_rational_roots(sf)
    for r in exact:
        sf = deflate(sf, r)
    intervals = []
    if rp.degree(sf) >= 1:
        while True:
            restart = False
            intervals.clear()
            chain = [rp.int_form(c) for c in sturm_chain(sf)]
            ints = chain[0]
            bound = rp.cauchy_bound(sf)
            stack = [(Fraction(0), bound)]
            while stack:
                lo, hi = stack.pop()
                n = rp.count_roots(chain, lo, hi)
                if n == 0:
                    continue
                if n == 1 and (rp.sign_at(ints, lo.numerator, lo.denominator)
                               * rp.sign_at(ints, hi.numerator, hi.denominator) < 0):
                    intervals.append((lo, hi))
                    continue
                mid = (lo + hi) / 2
                if rp.sign_at(ints, mid.numerator, mid.denominator) == 0:
                    exact.append(mid)
                    sf = deflate(sf, mid)
                    restart = True
                    break
                stack.append((lo, mid))
                stack.append((mid, hi))
            if not restart:
                break
    intervals.sort()
    return sorted(exact), sf, intervals


def _reference_refine(p, lo, hi):
    flo = rp.eval_at(p, lo)
    if flo == 0:
        return lo
    if rp.eval_at(p, hi) == 0:
        return hi
    tol = Fraction(1, 2**110)
    while (hi - lo) > hi * tol:
        mid = (lo + hi) / 2
        fm = rp.eval_at(p, mid)
        if fm == 0:
            return mid
        if (fm < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _reference_count(p, a, b):
    chain = sturm_chain(p)

    def variations(x):
        signs = [v > 0 for v in (rp.eval_at(c, x) for c in chain) if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(a) - variations(b)


# large end coefficients (primes just below 1e12, 10**12 itself, and numbers
# with many divisors): big integers through the pseudo-remainders, and
# Cauchy bounds far above the roots, so isolation bisects many levels
_GUARD_CONSTANTS = [999_999_999_989, 999_999_000_001, 10**12, 963_761_198_400,
                    735_134_400, 720_720, 997_920]


@st.composite
def planted_polynomials(draw):
    """(coefficients, planted roots): Fraction coefficients (constant first)
    of degree 3..8 with planted rational roots n/d, some negative, zero or
    repeated."""
    degree = draw(st.integers(3, 8))
    planted = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 16)),
                            max_size=degree))
    planted += draw(st.lists(st.sampled_from(planted), max_size=2)) if planted else []
    planted = planted[:degree]
    rest = degree - len(planted)
    cofactor = draw(st.lists(st.integers(-50, 50), min_size=rest + 1, max_size=rest + 1))
    cofactor[-1] = cofactor[-1] or 1
    if draw(st.integers(0, 4)) == 0:
        cofactor[0] = draw(st.sampled_from(_GUARD_CONSTANTS)) * (-1) ** draw(st.integers(0, 1))
    if draw(st.integers(0, 4)) == 0:
        cofactor[-1] = draw(st.sampled_from(_GUARD_CONSTANTS))
    poly = [Fraction(c) for c in cofactor]
    for n, d in planted:  # times (d x - n)
        poly = [a * d - b * n for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    scale = draw(st.sampled_from([Fraction(1), Fraction(-3), Fraction(1, 7), Fraction(5, 12)]))
    return [c * scale for c in poly], [Fraction(n, d) for n, d in planted]


def _integer_roots(shifts):
    """(coefficients, roots) of the product of (x - a) over shifts: integer
    roots, some repeated, and no others."""
    poly = [Fraction(1)]
    for a in shifts:
        poly = [Fraction(0)] + poly
        for j in range(len(poly) - 1):
            poly[j] -= a * poly[j + 1]
    return poly, [Fraction(a) for a in shifts]


@given(st.one_of(st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(_integer_roots),
                 planted_polynomials()))
@example(([Fraction(c) for c in (-2, -1, -1, 1)], [Fraction(2)]))  # root at max|a_i| / lead
@example(([Fraction(c) for c in (-3, -1, -1, 2)], [Fraction(3, 2)]))  # (2x - 3)(x**2 + x + 1)
@settings(max_examples=60, deadline=None)
def test_isolation_finds_every_planted_positive_root(planted):
    # each distinct positive planted root is one returned root, exact or
    # refined; when every root is planted, no other root is returned
    poly, roots = planted
    exact, sf, intervals = rp.isolate_positive_roots(poly)
    got = exact + [rp.refine_root(sf, lo, hi) for lo, hi in intervals]
    want = {r for r in roots if r > 0}
    for w in want:
        assert sum(abs(g - w) <= w / 2**100 for g in got) == 1, (w, got)
    if rp.degree(poly) == len(roots):
        assert len(got) == len(want)


@given(planted_polynomials())
@settings(max_examples=60, deadline=None)
def test_refine_root_equals_fraction_bisection_bit_for_bit(planted):
    # the integer square-free part against the Fraction algebra's
    poly, _ = planted
    _, sf, intervals = rp.isolate_positive_roots(poly)
    _, fraction_sf, _ = isolate_positive_roots(poly)
    for lo, hi in intervals:
        assert rp.refine_root(sf, lo, hi) == _reference_refine(fraction_sf, lo, hi)


@given(planted_polynomials(), st.lists(st.fractions(Fraction(-60), Fraction(60), max_denominator=64),
                                       min_size=2, max_size=2, unique=True))
@settings(max_examples=60, deadline=None)
def test_count_roots_equals_the_fraction_sturm_count(planted, ends):
    poly, roots = planted
    a, b = sorted(ends)
    chain = rp.sturm_chain(poly)
    assert rp.count_roots(chain, a, b) == _reference_count(poly, a, b)
    # planted roots themselves, where chain members vanish
    for r in roots:
        assert rp.count_roots(chain, r - 1, r) == _reference_count(poly, r - 1, r)


# (x - 1)(2x - 3)(x + K) with K = (2**42 + 1) / 5: a cubic, so no closed form
# finds its rational roots, and its Cauchy bound is 2**41, so the
# bisection's split point 1 is a root (a restart)
SPLIT_ON_A_ROOT = [Fraction(2638827906663), Fraction(-4398046511102),
                   Fraction(1759218604437), Fraction(2)]


def test_isolation_restarts_when_a_split_point_is_a_root():
    assert rp.cauchy_bound(SPLIT_ON_A_ROOT) == 2**41
    assert rp.exact_rational_roots(SPLIT_ON_A_ROOT) == []
    exact, sf, [(lo, hi)] = rp.isolate_positive_roots(SPLIT_ON_A_ROOT)
    assert exact == [1] and lo < Fraction(3, 2) < hi
    assert sf == rp.clear_denominators(rp.deflate(SPLIT_ON_A_ROOT, Fraction(1)))


# (2x - 1)(720720 x**2 + 2x + 720721): a cubic, so no closed form finds its
# root 1/2, and its Cauchy bound is 2, so isolation returns (0, 2) and the
# bisection's second midpoint is that root
ROOT_ON_A_MIDPOINT = [Fraction(-720721), Fraction(1441440), Fraction(-720716),
                      Fraction(1441440)]


def test_a_root_on_an_early_midpoint_is_returned_exactly():
    sf = rp.clear_denominators(ROOT_ON_A_MIDPOINT)
    assert rp.isolate_positive_roots(ROOT_ON_A_MIDPOINT) == ([], sf, [(0, 2)])
    assert rp.refine_root(sf, Fraction(0), Fraction(2)) == Fraction(1, 2)


@given(st.one_of(planted_polynomials().map(lambda planted: planted[0]),
                 ratio_tuples().map(build_polynomial)))
@example(ROOT_ON_A_MIDPOINT)
@example(SPLIT_ON_A_ROOT)
@settings(max_examples=60, deadline=None)
def test_refine_root_equals_fraction_bisection_on_isolating_intervals(poly):
    _, sf, intervals = rp.isolate_positive_roots(poly)
    for lo, hi in intervals:
        assert rp.refine_root(sf, lo, hi) == _reference_refine(sf, lo, hi)


@given(st.one_of(planted_polynomials().map(lambda planted: planted[0]),
                 ratio_tuples().map(build_polynomial)))
@example(SPLIT_ON_A_ROOT)  # its interval also holds the root 1, divided out of sf
@example(ROOT_ON_A_MIDPOINT)
@settings(max_examples=60, deadline=None)
def test_each_refined_root_is_a_sign_change_of_the_square_free_part(poly):
    _, sf, intervals = rp.isolate_positive_roots(poly)
    for lo, hi in intervals:
        r = rp.refine_root(sf, lo, hi)
        below, above = r - hi / 2**110, r + hi / 2**110
        assert (rp.sign_at(sf, below.numerator, below.denominator)
                * rp.sign_at(sf, above.numerator, above.denominator)) < 0, (lo, hi, r)


def test_solve_model_refines_the_polynomial_its_interval_isolates(monkeypatch):
    monkeypatch.setattr(model_solver, "build_polynomial", lambda ratios: SPLIT_ON_A_ROOT)
    monkeypatch.setattr(model_solver, "_assemble_model", lambda ratios, s, exact, ghost: s)
    one, root = solve_model(RatioTuple((1,)))
    assert one == 1 and abs(root - Fraction(3, 2)) < Fraction(1, 2**100)


def test_refining_a_catalog_interval_jumps_to_the_last_bracket(monkeypatch):
    calls, chains = [], []
    sign_at, sturm_chain = rp.sign_at, rp.sturm_chain
    monkeypatch.setattr(rp, "sign_at", lambda *args: calls.append(args) or sign_at(*args))
    monkeypatch.setattr(rp, "sturm_chain", lambda p: chains.append(p) or sturm_chain(p))
    refined = 0
    for entry in CATALOG:
        _, sf, intervals = rp.isolate_positive_roots(build_polynomial(entry.ratios))
        assert len(chains) <= 1  # isolation's one (none for a constant sf; no restarts here)
        chains.clear()
        for lo, hi in intervals:
            calls.clear()
            rp.refine_root(sf, lo, hi)
            # the sign at lo and the last bracket's two ends; the bisection
            # loop makes one call per bit, and no Sturm chain is built
            assert len(calls) == 3, (entry.name, len(calls))
            assert chains == [], entry.name
            refined += 1
    assert refined >= 8


# 5/12 (x**2 + x + 1) x**2 (x - 2)**2 (3x - 1): zero and repeated roots
ZERO_AND_REPEATED_ROOTS = [Fraction(0), Fraction(0), Fraction(-5, 3), Fraction(5),
                           Fraction(-5, 12), Fraction(5, 2), Fraction(-25, 6), Fraction(5, 4)]


@given(planted_polynomials())
@example((SPLIT_ON_A_ROOT, [Fraction(1), Fraction(3, 2)]))
@example((ZERO_AND_REPEATED_ROOTS, [Fraction(0), Fraction(0), Fraction(2), Fraction(2),
                                    Fraction(1, 3)]))
@example(([Fraction(c) for c in (6, -11, 6, -1)], [Fraction(1), Fraction(2), Fraction(3)]))
@settings(max_examples=50, deadline=None)
def test_isolation_equals_the_fraction_algebra(planted):
    poly, _ = planted
    exact, sf, intervals = isolate_positive_roots(poly)
    want = (exact, rp.clear_denominators(sf), intervals)
    assert rp.isolate_positive_roots(poly) == want
    # solve_model's call: the primitive integer form, no Fractions
    assert rp.isolate_positive_roots(rp.clear_denominators(poly)) == want


@given(planted_polynomials())
@example((ZERO_AND_REPEATED_ROOTS, [Fraction(0), Fraction(0), Fraction(2), Fraction(2),
                                    Fraction(1, 3)]))
@settings(max_examples=50, deadline=None)
def test_integer_algebra_is_a_positive_multiple_of_the_fraction_algebra(planted):
    poly, roots = planted
    chain, want = rp.sturm_chain(poly), sturm_chain(poly)
    assert len(chain) == len(want)
    for got, ref in zip(chain, want):
        ratio = got[-1] / ref[-1]
        assert ratio > 0 and got == [ratio * c for c in ref]
    for x in {r + d for r in roots for d in (-1, 0, Fraction(1, 3))}:
        assert rp.count_roots(chain, x, x + 1) == _reference_count(poly, x, x + 1)
    sf = rp.square_free_part(poly)
    assert all(type(c) is int for c in sf) and math.gcd(*sf) == 1 and sf[-1] > 0
    assert sf == rp.clear_denominators(square_free_part(poly))
    for r in set(roots):
        assert rp.clear_denominators(rp.deflate(sf, r)) == rp.clear_denominators(deflate(sf, r))
        if rp.eval_at(sf, r + Fraction(1, 997)):
            with pytest.raises(ValueError):
                rp.deflate(sf, r + Fraction(1, 997))
