"""Derivation of 1-D discrete-velocity models by exact moment matching.

A model with an odd number q of velocities consists of a rest velocity,
(q-1)/2 positive speeds v2 * pbar_i on a regular lattice (pbar_i rational,
pbar_1 = 1), their mirror images, and one weight per speed.  Matching the
even moments of the Gaussian weight exp(-v**2),

    sum_i w_i v_i**n = Gamma((n+1)/2)   for n = 0, 2, ..., q+1,

closes the system.  Eliminating the weights from the n >= 2 rows turns the
whole problem into a single univariate polynomial in s = v2**2 with integer
coefficients; each positive real root is one model.  Everything up to the
final float conversion is done in exact rational arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import _ratpoly as rp
from .moments import (SQRT_PI, discrete_moment_coefficient,
                      gaussian_moment_coefficient)

DEFAULT_GHOST_THRESHOLD = 1e-4
RESIDUAL_TOLERANCE = 1e-8


class NoRealSolutionError(ValueError):
    """Raised when a requested closed-form model family has no real member."""


@dataclass(frozen=True)
class RatioTuple:
    """Integer lattice numbers (p_1, p_2, ...) of the positive speeds.

    The physical speed ratios are pbar_i = p_i / p_1; entries are strictly
    increasing positive integers with overall gcd 1, so the tuple is the
    canonical representative of its ratio set.
    """

    p: tuple[int, ...]

    def __post_init__(self):
        if not self.p:
            raise ValueError("at least the base speed entry is required")
        if any(int(x) != x or x <= 0 for x in self.p):
            raise ValueError(f"lattice numbers must be positive integers: {self.p}")
        if any(a >= b for a, b in zip(self.p, self.p[1:])):
            raise ValueError(f"lattice numbers must be strictly increasing: {self.p}")
        if math.gcd(*self.p) != 1:
            raise ValueError(f"lattice numbers must have gcd 1: {self.p}")

    @classmethod
    def from_ratios(cls, ratios: Iterable) -> "RatioTuple":
        """Build from the ratios beyond the base speed (pbar_2, pbar_3, ...),
        each an int, Fraction or 'a/b' string strictly greater than 1."""
        fracs = [Fraction(r) for r in ratios]
        for prev, cur in zip([Fraction(1)] + fracs, fracs):
            if cur <= prev:
                raise ValueError(
                    f"speed ratios must be strictly increasing and exceed 1: {fracs}")
        base = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        p = (base,) + tuple(int(f * base) for f in fracs)
        g = math.gcd(*p)
        return cls(tuple(x // g for x in p))

    @property
    def q(self) -> int:
        return 2 * len(self.p) + 1

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.p[0]) for x in self.p)


def _weight_system(ratios: RatioTuple) -> list[list[Fraction]]:
    """A[j][i] = pbar_i**(2(j+1)): the moment rows n = 2, 4, ..., q-1 in
    the positive-speed weights."""
    x = [r * r for r in ratios.ratios]
    return [[xi ** (j + 1) for xi in x] for j in range(len(x))]


def build_polynomial(ratios: RatioTuple) -> list[int]:
    """Integer coefficients (constant first) of the model polynomial in
    s = v2**2.

    The moment rows n = 2, 4, ..., q-1 form a Vandermonde-type system
    A w = rhs(s) in the positive-speed weights; substituting its exact
    solution into the n = q+1 row and clearing denominators leaves one
    polynomial of degree (q-1)/2 whose positive roots are the admissible
    squared base speeds.
    """
    k = len(ratios.p)
    a = _weight_system(ratios)
    target = [(r * r) ** (k + 1) for r in ratios.ratios]  # ratios to the power q+1
    a_t = [[a[j][i] for j in range(k)] for i in range(k)]
    c = rp.solve_linear(a_t, target)
    # sum_j c_j g_{j+1} s**(k-j) - g_{k+1} = 0,  g_m = (2m-1)!!/2**m
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[0] = -gaussian_moment_coefficient(2 * (k + 1))
    for j in range(k):
        coeffs[k - j] += c[j] * gaussian_moment_coefficient(2 * (j + 1))
    ints, _ = rp.clear_denominators(coeffs)
    return ints


def _solve_weights(ratios: RatioTuple, s: Fraction) -> list[Fraction]:
    """Positive-speed weights (normalized by sqrt(pi)) for squared base
    speed s, solved exactly from the moment rows n = 2..q-1."""
    k = len(ratios.p)
    a = _weight_system(ratios)
    rhs = [gaussian_moment_coefficient(2 * (j + 1)) / (2 * s ** (j + 1))
           for j in range(k)]
    return rp.solve_linear(a, rhs)


@dataclass(frozen=True)
class VelocityModel:
    """A concrete 1-D discrete-velocity model.

    weights_normalized holds (w_0, w_1, w_2, ...) for the nonnegative
    velocities (rest speed first), already divided by sqrt(pi) so they sum
    to 1; the mirrored negative velocities reuse the same weights.
    weights_exact carries the same numbers as Fractions whenever the
    defining polynomial root happens to be rational.
    """

    ratios: RatioTuple
    v2: float
    weights_normalized: tuple[float, ...]
    residual: float
    ghost_flags: tuple[bool, ...]
    all_positive: bool
    s_exact: Fraction | None = None
    weights_exact: tuple[Fraction, ...] | None = None

    @property
    def q(self) -> int:
        return self.ratios.q

    def velocities(self) -> np.ndarray:
        """Velocity set in the fixed order [0, +v2, -v2, +v3, -v3, ...]."""
        out = np.empty(self.q)
        out[0] = 0.0
        for i, r in enumerate(self.ratios.ratios):
            speed = self.v2 * float(r)
            out[1 + 2 * i] = speed
            out[2 + 2 * i] = -speed
        return out

    def hops(self) -> np.ndarray:
        """Signed whole-node displacements per step on the regular lattice
        with spacing v2 / p_1 (so speed i covers p_i nodes)."""
        out = np.empty(self.q, dtype=np.int64)
        out[0] = 0
        for i, p in enumerate(self.ratios.p):
            out[1 + 2 * i] = p
            out[2 + 2 * i] = -p
        return out

    def normalized_weights_full(self) -> np.ndarray:
        """Normalized weights aligned with velocities(): pairs share floats."""
        out = np.empty(self.q)
        out[0] = self.weights_normalized[0]
        for i in range(len(self.ratios.p)):
            out[1 + 2 * i] = self.weights_normalized[1 + i]
            out[2 + 2 * i] = self.weights_normalized[1 + i]
        return out

    def weights(self) -> np.ndarray:
        """Actual weights w_i = sqrt(pi) * normalized, aligned with
        velocities()."""
        return self.normalized_weights_full() * SQRT_PI

    @property
    def max_speed(self) -> float:
        return self.v2 * float(self.ratios.ratios[-1])

    def to_json_dict(self) -> dict:
        d = {
            "q": self.q,
            "p": list(self.ratios.p),
            "v2": self.v2,
            "weights_normalized": list(self.weights_normalized),
            "residual": self.residual,
            "all_positive": self.all_positive,
            "ghosts": list(self.ghost_flags),
        }
        if self.s_exact is not None:
            d["s_exact"] = [self.s_exact.numerator, self.s_exact.denominator]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "VelocityModel":
        ratios = RatioTuple(tuple(int(x) for x in d["p"]))
        s_exact = None
        if "s_exact" in d:
            s_exact = Fraction(d["s_exact"][0], d["s_exact"][1])
        return cls(
            ratios=ratios,
            v2=float(d["v2"]),
            weights_normalized=tuple(float(w) for w in d["weights_normalized"]),
            residual=float(d["residual"]),
            ghost_flags=tuple(bool(g) for g in d["ghosts"]),
            all_positive=bool(d["all_positive"]),
            s_exact=s_exact,
        )


def _moment_residual(model: VelocityModel) -> float:
    """Max relative defect of the even moment rows n = 0..q+1."""
    defects = []
    for n in range(0, model.q + 2, 2):
        target = float(gaussian_moment_coefficient(n))
        defects.append(abs(discrete_moment_coefficient(model, n) - target) / target)
    return float(np.max(defects))  # NaN, not a smaller defect, for a NaN row


def _finish_model(model: VelocityModel, ghost_threshold: float) -> VelocityModel:
    """model with its moment residual and ghost flags filled in."""
    model = replace(model, residual=_moment_residual(model))
    return replace(model, ghost_flags=detect_ghosts(model, ghost_threshold))


def _assemble_model(ratios: RatioTuple, s: Fraction, exact: bool,
                    ghost_threshold: float) -> VelocityModel:
    wpos = _solve_weights(ratios, s)
    w0 = 1 - 2 * sum(wpos)
    wnorm_exact = (w0, *wpos)
    v2 = math.sqrt(float(s))
    model = VelocityModel(
        ratios=ratios,
        v2=v2,
        weights_normalized=tuple(float(w) for w in wnorm_exact),
        residual=0.0,
        ghost_flags=(False,) * (len(wpos) + 1),
        all_positive=all(w >= 0 for w in wnorm_exact),
        s_exact=s if exact else None,
        weights_exact=wnorm_exact if exact else None,
    )
    return _finish_model(model, ghost_threshold)


def solve_model(ratios: RatioTuple, *,
                ghost_threshold: float = DEFAULT_GHOST_THRESHOLD) -> list[VelocityModel]:
    """All models for a given ratio tuple, sorted by ascending base speed.

    Solves the model polynomial exactly: rational roots are kept as
    Fractions (the weights then come out exactly rational too), irrational
    roots are bisected to ~1e-33 relative accuracy before float conversion.
    Returns an empty list when no positive real root exists.
    """
    poly = [Fraction(c) for c in build_polynomial(ratios)]
    exact_roots, intervals = rp.isolate_positive_roots(poly)
    found: list[tuple[Fraction, bool]] = [(r, True) for r in exact_roots]
    for lo, hi in intervals:
        found.append((rp.refine_root(poly, lo, hi), False))
    found.sort()
    return [_assemble_model(ratios, s, exact, ghost_threshold)
            for s, exact in found]


def _radical_sum(a: Fraction, b: Fraction, d: Fraction) -> float:
    """a + b*sqrt(d) in double precision without cancellation.

    When a and b*sqrt(d) have opposite signs the direct sum can lose all
    significant digits (outer weights behave like r**6/9 near r = 0);
    rationalizing moves the subtraction into exact arithmetic:
    a + b*sqrt(d) = (a**2 - b**2 d) / (a - b*sqrt(d)).
    """
    if b == 0 or d == 0:
        return float(a)
    sq = math.sqrt(float(d))
    if a == 0 or (a > 0) == (b > 0):
        return float(a) + float(b) * sq
    num = a * a - b * b * d
    den = float(a) - float(b) * sq
    return float(num) / den


def closed_form_q5(r) -> tuple[VelocityModel, VelocityModel]:
    """The two five-velocity model branches in closed form.

    Parameterized by the inverse speed ratio r = 1/pbar_2 in (0, 1):

        chi  = sqrt(9 r**4 - 42 r**2 + 9)
        v2   = sqrt(3 + 3 r**2 +- chi) / 2
        w_1  = (9 r**4 - 27 r**2 - 6 -+ (3 r**2 - 2) chi) / (300 r**2 (r**2 - 1))
        w_2  = (6 r**4 + 27 r**2 - 9 -+ (2 r**2 - 3) chi) / (300 (r**2 - 1))

    (normalized weights of the inner and outer moving speeds; the rest
    weight follows from normalization).  Returns (plus, minus) branches,
    named by the sign in front of chi in v2; the plus branch is the one
    whose outer weight vanishes as r -> 0.  Raises NoRealSolutionError
    where the discriminant is negative (no real model exists).
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"inverse speed ratio must lie in (0, 1), got {r}")
    ratios = RatioTuple.from_ratios([1 / r])
    r2 = r * r
    disc = 9 * r2 * r2 - 42 * r2 + 9
    if disc < 0:
        raise NoRealSolutionError(
            f"no real five-velocity model at inverse ratio {r}")
    chi_exact = rp._fraction_sqrt(disc)

    def branch(sign: int) -> VelocityModel:
        if chi_exact is not None:
            s = (3 + 3 * r2 + sign * chi_exact) / 4
            return _assemble_model(ratios, s, True, DEFAULT_GHOST_THRESHOLD)
        den1 = 300 * r2 * (r2 - 1)
        den2 = 300 * (r2 - 1)
        a1 = (9 * r2 * r2 - 27 * r2 - 6) / den1
        b1 = -sign * (3 * r2 - 2) / den1
        a2 = (6 * r2 * r2 + 27 * r2 - 9) / den2
        b2 = -sign * (2 * r2 - 3) / den2
        s = _radical_sum((3 + 3 * r2) / 4, Fraction(sign, 4), disc)
        w1 = _radical_sum(a1, b1, disc)
        w2 = _radical_sum(a2, b2, disc)
        w0 = _radical_sum(1 - 2 * (a1 + a2), -2 * (b1 + b2), disc)
        model = VelocityModel(
            ratios=ratios,
            v2=math.sqrt(s),
            weights_normalized=(w0, w1, w2),
            residual=0.0,
            ghost_flags=(False, False, False),
            all_positive=min(w0, w1, w2) >= 0,
        )
        return _finish_model(model, DEFAULT_GHOST_THRESHOLD)

    return branch(+1), branch(-1)


def detect_ghosts(model: VelocityModel,
                  threshold: float = DEFAULT_GHOST_THRESHOLD) -> tuple[bool, ...]:
    """Flag nonnegative-velocity weights with |w| below threshold.

    Near-zero weights mark speeds that barely participate in the
    quadrature; models carrying them are exact in principle but fragile
    in simulation.  threshold = 0 flags nothing.
    """
    if threshold < 0:
        raise ValueError(f"ghost threshold must be nonnegative, got {threshold}")
    return tuple(abs(w) < threshold for w in model.weights_normalized)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ratios: RatioTuple
    v2_reference: float
    note: str


# Reference base speeds for the standard model family (five benchmark
# lattices plus the large-speed sibling of the five-velocity model, which
# is useful for ghost-weight experiments).
CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("q3", RatioTuple((1,)), 1.224745, "three velocities"),
    CatalogEntry("q5", RatioTuple((1, 3)), 0.553432, "five velocities, ratio 3"),
    CatalogEntry("q5-ghost", RatioTuple((1, 3)), 1.166353,
                 "five velocities, ratio 3, near-ghost branch"),
    CatalogEntry("q7", RatioTuple((1, 2, 3)), 0.846393, "seven velocities"),
    CatalogEntry("q11", RatioTuple((1, 2, 3, 4, 5)), 0.685900, "eleven velocities"),
    CatalogEntry("q21", RatioTuple((1, 2, 3, 4, 5, 6, 7, 8, 9, 11)), 0.372889,
                 "twenty-one velocities"),
)


def catalog_names() -> list[str]:
    return [e.name for e in CATALOG]


def resolve_catalog(name: str) -> VelocityModel:
    """Re-derive a catalog model and pick the branch nearest the reference
    base speed."""
    for entry in CATALOG:
        if entry.name == name:
            models = solve_model(entry.ratios)
            if not models:
                raise RuntimeError(f"catalog model {name} has no real solution")
            return min(models, key=lambda m: abs(m.v2 - entry.v2_reference))
    raise KeyError(f"unknown catalog model {name!r}; known: {catalog_names()}")
