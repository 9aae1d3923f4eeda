"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are dense coefficient lists with the constant term first.
Everything in this module is exact (``fractions.Fraction`` or plain
``int``); floating point never enters until the caller converts a result.
The helpers take any rational coefficients but clear denominators first:
the algebra runs on primitive integer polynomials, with pseudo-remainders
divided by their content (Collins, J. ACM 14, 1967; Knuth, TAOCP vol. 2,
4.6.1) and exact integer deflation.  Each form is a multiple of the
Fraction polynomial it stands for, and a positive one in Sturm chains, so
roots, signs and sign counts are those of the Fraction algebra.  Signs at
x = n/d come from a homogeneous Horner sum in integers.
Isolation's Sturm count on the square-free part is the one certificate
of a root's interval; ``refine_root`` narrows it without a second.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

REL_BITS = 110  # refine_root's relative width, 2**-110 (~1e-33)


def trim(p: Sequence) -> list:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p if p else [0]


def degree(p: Sequence) -> int:
    return len(trim(p)) - 1


def eval_at(p: Sequence, x: Fraction) -> Fraction:
    """p(x) in exact arithmetic; the solver uses ``sign_at`` instead."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def int_form(p: Sequence) -> list[int]:
    """p times the lcm of its denominators: integer coefficients, and the
    same sign as p everywhere (the factor is positive)."""
    scale = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (scale // c.denominator) for c in p]


def _homogeneous(ints: Sequence[int], n: int, d: int) -> int:
    """Homogeneous Horner: sum_i a_i n**i d**(deg-i) = d**deg p(n/d), in
    integers for integer coefficients."""
    acc = 0
    dk = 1
    for c in reversed(ints):
        acc = acc * n + c * dk
        dk *= d
    return acc


def sign_at(ints: Sequence[int], n: int, d: int) -> int:
    """Sign (-1, 0, 1) of a polynomial at x = n/d, d > 0: that of
    d**deg p(n/d)."""
    acc = _homogeneous(ints, n, d)
    return (acc > 0) - (acc < 0)


def eval_float(p: Sequence, x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def derivative(p: Sequence) -> list:
    if len(p) <= 1:
        return [0]
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p: list[int]) -> list[int]:
    """p divided by the positive gcd of its coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, in integers: each
    step scales the remainder by |lc(b)| / g (g the gcd of both leading
    terms) and subtracts sign(lc(b)) * lead / g times b, shifted."""
    lc = b[-1]
    db, sgn = len(b) - 1, 1 if lc > 0 else -1
    rem = trim(a)
    while len(rem) - 1 >= db and any(rem):
        g = math.gcd(rem[-1], lc)
        scale, coef = abs(lc) // g, sgn * rem[-1] // g
        shift = len(rem) - 1 - db
        rem = [c * scale for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= coef * c
        rem = trim(rem[:-1])  # leading entry is now exactly zero
    return rem


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den for integer polynomials; ValueError unless den divides num
    in Z[x] (for primitive den, the same as dividing it in Q[x])."""
    db, lc = len(den) - 1, den[-1]
    rem = list(num)
    quo = [0] * (len(num) - db)
    for shift in range(len(quo) - 1, -1, -1):
        quo[shift] = coef = rem[shift + db] // lc
        for i, c in enumerate(den):
            rem[shift + i] -= coef * c
    if any(rem):
        raise ValueError("not an exact divisor")
    return quo


def square_free_part(p: Sequence) -> list[int]:
    """p over gcd(p, p'), as a primitive integer polynomial with a positive
    leading coefficient; the gcd is a primitive pseudo-remainder sequence."""
    ints = clear_denominators(p)
    a, b = ints, _primitive(derivative(ints))
    while any(b):
        a, b = b, _primitive(_pseudo_remainder(a, b))
    if len(a) <= 1:  # a constant gcd: p is square-free
        return ints
    return _exact_quotient(ints, a if a[-1] > 0 else [-c for c in a])


def deflate(p: Sequence, root: Fraction) -> list[int]:
    """Divide out an exact root n/d: p's integer form over (d x - n), a
    positive multiple of p / (x - root).  ValueError if root is not one."""
    return _exact_quotient(int_form(trim(p)), [-root.numerator, root.denominator])


def sturm_chain(p: Sequence) -> list[list[int]]:
    """Sturm sequence of p as primitive integer polynomials.

    Each member is a positive multiple of the member of the Fraction chain
    p, p', -rem(p_{i-1}, p_i), ..., so every sign and sign count is that of
    the true chain: the pseudo-remainders scale by positive factors only,
    and each is divided by its positive content."""
    ints = int_form(trim(p))
    chain = [_primitive(ints), _primitive(derivative(ints))]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(_primitive([-c for c in r]))
    return [c for c in chain if any(c)]


def _sign_variations(chain: list[list[int]], x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    signs = [s for s in (sign_at(p, n, d) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_bound(p: Sequence) -> Fraction:
    p = trim(p)
    lc = abs(p[-1])
    if lc == 0:
        raise ValueError("zero polynomial")
    return 1 + Fraction(max((abs(c) for c in p[:-1]), default=0), lc)


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def exact_rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """Exact positive roots of p, sorted, for degree <= 2: the linear root
    and the rational roots of the quadratic formula.  Above degree 2 it
    returns none; isolation and ``refine_root`` locate every such root."""
    p = trim(p)
    d = degree(p)
    if d <= 0 or d > 2:
        return []
    if d == 1:
        root = Fraction(-p[0]) / p[1]
        return [root] if root > 0 else []
    c, b, a = p[0], p[1], p[2]
    r = _fraction_sqrt(b * b - 4 * a * c)
    if r is None:
        return []
    return sorted(x for x in {(-b + r) / (2 * a), (-b - r) / (2 * a)} if x > 0)


def isolate_positive_roots(p: Sequence[Fraction]):
    """Locate every distinct real root s > 0 of p.

    Returns (exact, sf, intervals): the roots known as exact Fractions,
    sorted, which are the roots of a square-free part of degree <= 2 (0
    stripped) and the bisection midpoints that land on a root; sf, the
    primitive square-free part of p with 0 and those roots divided out; and
    sorted (lo, hi) Fraction pairs, each holding one root of sf, rational or
    not, for ``refine_root``.  No end of an interval is a root (0 is
    stripped, the Cauchy bound is strict and each midpoint is tested) and sf
    is square-free, so sf changes sign across each.  The integer forms leave
    the Cauchy bound and every sign count as in Fractions, so the intervals
    are the same.
    """
    sf = square_free_part(trim(p))
    # strip roots at s = 0
    while sf[0] == 0 and len(sf) > 1:
        sf = sf[1:]
    exact = exact_rational_roots(sf)
    for r in exact:
        sf = deflate(sf, r)
    intervals: list[tuple[Fraction, Fraction]] = []
    if degree(sf) >= 1:
        # isolation by Sturm counts on (0, B]; restart whenever a split
        # point lands exactly on a root (rare, but exactness demands it)
        while True:
            restart = False
            intervals.clear()
            chain = sturm_chain(sf)
            bound = cauchy_bound(sf)
            stack = [(Fraction(0), bound)]
            while stack:
                lo, hi = stack.pop()
                n = count_roots(chain, lo, hi)
                if n == 0:
                    continue
                if n == 1:
                    intervals.append((lo, hi))
                    continue
                mid = (lo + hi) / 2
                if sign_at(sf, mid.numerator, mid.denominator) == 0:
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


def _estimate(ints: list[int], a: int, b: int, den: int, sign_lo: int,
              bits: int) -> tuple[int, int]:
    """A root in (a/den, b/den) as n / d, d = 2**g about 2**bits / root: float
    Newton kept inside the bracket, then two integer Newton steps on that
    grid.  OverflowError for coefficients beyond a float."""
    fl = [float(c) for c in reversed(ints)]
    xl, xh = a / den, b / den
    x = (xl + xh) / 2
    for _ in range(64):
        px = dpx = 0.0
        for c in fl:
            px, dpx = px * x + c, dpx * x + px
        xl, xh = (x, xh) if (px > 0) == (sign_lo > 0) else (xl, x)
        nx = x - px / dpx if dpx else x
        nx = nx if xl < nx < xh else (xl + xh) / 2
        if nx == x:
            break
        x = nx
    g = max(bits - math.frexp(x)[1], 0)
    n, d = round(math.ldexp(x, g)), 1 << g
    dints = derivative(ints)
    for _ in range(2):
        dp = _homogeneous(dints, n, d)
        if dp:
            n -= _homogeneous(ints, n, d) // dp  # x - p(x) / p'(x), times d
    return n, d


def refine_root(sf: Sequence[int], lo: Fraction, hi: Fraction) -> Fraction:
    """The root of sf in an interval from ``isolate_positive_roots``, whose
    Sturm count is the certificate: it is not checked again.  The result is
    the midpoint of the last bracket of a bisection that stops at relative
    width 2**-REL_BITS, or the midpoint it meets the root on.  The bracket
    is kept as integer numerators a < b over a common denominator den that
    doubles at each step, and every sign is exact, so the bisection visits
    the same midpoints as one done in Fractions.

    It jumps to the bracket at the first depth J where the stop rule holds
    on the path of a Newton estimate 40 bits finer, and returns its midpoint
    if its ends have signs sign_lo and -sign_lo and the rule fails at J - 1:
    the one root is then strictly inside, so no midpoint before is a root
    and each step keeps its half.  Otherwise the bisection runs.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    sign_lo = sign_at(sf, a, den)
    scale = 1 << REL_BITS
    w = b - a  # the bracket width times den, the same at every depth
    try:
        n, d = _estimate(sf, a, b, den, sign_lo, REL_BITS + 40)
    except OverflowError:
        n, d = 0, 1
    num, cell = n * den - a * d, w * d  # estimate - lo, and hi - lo, times den * d

    def stops(j: int) -> bool:  # the rule on the estimate's bracket at depth j
        return w * scale <= (a << j) + ((num << j) // cell + 1) * w

    if n > 0 and 0 < num < cell and not stops(0):
        # the rule fails below this depth once scale > 2, and holds by 2 more
        j = max((w * scale * d).bit_length() - (n * den).bit_length() - 1, 1)
        while not stops(j):
            j += 1
        aj, dj = (a << j) + (num << j) // cell * w, den << j
        if (not stops(j - 1) and sign_at(sf, aj, dj) == sign_lo
                and sign_at(sf, aj + w, dj) == -sign_lo):
            return Fraction(2 * aj + w, 2 * dj)
    while (b - a) * scale > b:  # (hi - lo) > hi * 2**-REL_BITS, times den
        mid = a + b  # over 2 * den
        den *= 2
        sign_mid = sign_at(sf, mid, den)
        if sign_mid == 0:
            return Fraction(mid, den)
        if sign_mid == sign_lo:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return Fraction(a + b, 2 * den)


def clear_denominators(p: Sequence[Fraction]) -> list[int]:
    """The primitive integer multiple of p with a positive leading
    coefficient."""
    ints = _primitive(int_form(trim(p)))
    return ints if ints[-1] >= 0 else [-c for c in ints]

