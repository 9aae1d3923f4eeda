"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are dense coefficient lists with the constant term first.
Everything in this module is exact (``fractions.Fraction``); floating
point never enters until the caller converts a result.  The degrees we
care about are tiny (at most (q-1)/2 for a q-velocity model), so
simplicity wins over asymptotics throughout.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Poly = list[Fraction]

_ZERO = Fraction(0)


def trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p if p else [_ZERO]


def degree(p: Sequence[Fraction]) -> int:
    return len(trim(p)) - 1


def is_zero(p: Sequence[Fraction]) -> bool:
    return all(c == 0 for c in p)


def eval_at(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def eval_float(p: Sequence, x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def derivative(p: Sequence[Fraction]) -> Poly:
    if len(p) <= 1:
        return [_ZERO]
    return [i * c for i, c in enumerate(p)][1:]


def divmod_poly(num: Sequence[Fraction], den: Sequence[Fraction]):
    num, den = trim(num), trim(den)
    if is_zero(den):
        raise ZeroDivisionError("polynomial division by zero")
    dd, lc = len(den) - 1, den[-1]
    rem = list(num)
    if len(rem) - 1 < dd:
        return [_ZERO], trim(rem)
    quo = [_ZERO] * (len(rem) - dd)
    while len(rem) - 1 >= dd and not is_zero(rem):
        shift = len(rem) - 1 - dd
        coef = rem[-1] / lc
        quo[shift] = coef
        for i, c in enumerate(den):
            rem[shift + i] -= coef * c
        rem.pop()  # leading entry is now exactly zero
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    return trim(quo), trim(rem)


def gcd_poly(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    a, b = trim(a), trim(b)
    while not is_zero(b):
        _, r = divmod_poly(a, b)
        a, b = b, r
    if is_zero(a):
        return [_ZERO]
    lc = a[-1]
    return [c / lc for c in a]  # monic normalization


def square_free_part(p: Sequence[Fraction]) -> Poly:
    p = trim(p)
    if degree(p) <= 1:
        return p
    g = gcd_poly(p, derivative(p))
    if degree(g) == 0:
        return p
    q, r = divmod_poly(p, g)
    assert is_zero(r)
    return q


def deflate(p: Sequence[Fraction], root: Fraction) -> Poly:
    """Divide out an exact root (x - root)."""
    q, r = divmod_poly(p, [-root, Fraction(1)])
    if not is_zero(r):
        raise ValueError("not an exact root")
    return q


def sturm_chain(p: Sequence[Fraction]) -> list[Poly]:
    chain = [trim(p), derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if is_zero(r):
            break
        chain.append([-c for c in r])
    return [c for c in chain if not is_zero(c)]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = eval_at(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_bound(p: Sequence[Fraction]) -> Fraction:
    p = trim(p)
    lc = abs(p[-1])
    if lc == 0:
        raise ValueError("zero polynomial")
    return 1 + max((abs(c) / lc for c in p[:-1]), default=_ZERO)


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _small_divisors(n: int, limit: int = 200) -> list[int] | None:
    """All positive divisors of |n|, or None if there could be too many."""
    n = abs(n)
    if n == 0 or n > 10**12:
        return None
    divs = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            divs.append(i)
            if i != n // i:
                divs.append(n // i)
            if len(divs) > limit:
                return None
        i += 1
    return divs


def exact_rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """Exact rational roots of p, found cheaply (degree <= 2, or guarded
    rational-root-theorem enumeration).  May miss rational roots of high
    degree polynomials with huge coefficients; callers treat this as an
    opportunistic exactness upgrade, not a completeness guarantee."""
    p = trim(p)
    d = degree(p)
    if d <= 0:
        return []
    if d == 1:
        return [-p[0] / p[1]]
    if d == 2:
        c, b, a = p[0], p[1], p[2]
        disc = b * b - 4 * a * c
        r = _fraction_sqrt(disc)
        if r is None:
            return []
        return sorted({(-b + r) / (2 * a), (-b - r) / (2 * a)})
    # rational root theorem on the primitive integer form
    ints, _ = clear_denominators(p)
    while ints and ints[0] == 0:
        ints = ints[1:]  # zero roots handled by caller
    if not ints:
        return []
    nums = _small_divisors(ints[0])
    dens = _small_divisors(ints[-1])
    if nums is None or dens is None:
        return []
    roots = set()
    for n in nums:
        for dd in dens:
            for cand in (Fraction(n, dd), Fraction(-n, dd)):
                if eval_at(p, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def isolate_positive_roots(p: Sequence[Fraction]):
    """Locate every distinct real root s > 0 of p.

    Returns (exact, intervals): ``exact`` is a sorted list of roots known
    as exact Fractions, ``intervals`` a list of (lo, hi) Fraction pairs
    each containing exactly one simple irrational root of the square-free
    part, with p(lo) and p(hi) nonzero and of opposite sign.
    """
    sf = square_free_part(trim(p))
    # strip roots at s = 0
    while sf[0] == 0 and len(sf) > 1:
        sf = sf[1:]
    exact: list[Fraction] = []
    for r in exact_rational_roots(sf):
        if r > 0:
            exact.append(r)
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
                if n == 1 and eval_at(sf, lo) * eval_at(sf, hi) < 0:
                    intervals.append((lo, hi))
                    continue
                mid = (lo + hi) / 2
                if eval_at(sf, mid) == 0:
                    exact.append(mid)
                    sf = deflate(sf, mid)
                    restart = True
                    break
                stack.append((lo, mid))
                stack.append((mid, hi))
            if not restart:
                break
    intervals.sort()
    return sorted(exact), intervals


def refine_root(p: Sequence[Fraction], lo: Fraction, hi: Fraction,
                rel_bits: int = 110) -> Fraction:
    """Bisect a sign-change bracket down to ~2**-rel_bits relative width.

    Exact arithmetic: the returned Fraction midpoint carries no rounding
    error beyond the final interval width.
    """
    flo = eval_at(p, lo)
    if flo == 0:
        return lo
    if eval_at(p, hi) == 0:
        return hi
    neg_lo = flo < 0
    tol = Fraction(1, 2**rel_bits)
    while (hi - lo) > hi * tol:
        mid = (lo + hi) / 2
        fm = eval_at(p, mid)
        if fm == 0:
            return mid
        if (fm < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def clear_denominators(p: Sequence[Fraction]):
    """Scale to a primitive integer polynomial with positive leading
    coefficient.  Returns (int_coeffs, scale) with int_coeffs == scale * p."""
    p = trim(p)
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p]
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    if content > 1:
        ints = [c // content for c in ints]
    scale = Fraction(den_lcm, content if content > 1 else 1)
    if ints[-1] < 0:
        ints = [-c for c in ints]
        scale = -scale
    return ints, scale


def solve_linear(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination with partial pivoting.  Raises
    ValueError on a singular matrix."""
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [_ZERO] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * x[c]
        x[r] = acc / m[r][r]
    return x
