"""Derivation of 1-D discrete-velocity models by exact moment matching.

A model with an odd number q of velocities consists of a rest velocity,
(q-1)/2 positive speeds v2 * pbar_i on a regular lattice (pbar_i rational,
pbar_1 = 1), their mirror images, and one weight per speed.  Matching the
even moments of the Gaussian weight exp(-v**2),

    sum_i w_i v_i**n = Gamma((n+1)/2)   for n = 0, 2, ..., q+1,

closes the system.  The n >= 2 rows are Vandermonde in the nodes
X_i = p_i**2, so they are solved in closed form rather than by elimination:
the coefficients of the single univariate polynomial in s = v2**2 whose
positive real roots are the models come from the node polynomial
prod_i (Z - p_i**2), and the weights at a root from its Lagrange basis
(Bjorck & Pereyra, Math. Comp. 24, 1970).  Everything up to the final
float conversion is exact.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import _ratpoly as rp
from .moments import SQRT_PI, double_factorial, gaussian_moment_coefficient

DEFAULT_GHOST_THRESHOLD = 1e-4
RESIDUAL_TOLERANCE = 1e-8


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


def _node_polynomial(ratios: RatioTuple) -> list[int]:
    """Integer coefficients E_j (constant first) of the node polynomial
    P(Z) = prod_i (Z - p_i**2)."""
    coeffs = [1]
    for p in ratios.p:
        coeffs = [0] + coeffs  # Z * P, then minus p**2 * P
        for j in range(len(coeffs) - 1):
            coeffs[j] -= p * p * coeffs[j + 1]
    return coeffs


def build_polynomial(ratios: RatioTuple) -> list[int]:
    """Integer coefficients (constant first) of the model polynomial in
    s = v2**2, of degree (q-1)/2; its positive roots are the admissible
    squared base speeds.

    Eliminating the weights through the rows n = 2..q-1 leaves the n = q+1
    row with the c_j that interpolate x**k at the nodes x_i = pbar_i**2, so
    x**k - sum_j c_j x**j = prod_i (x - x_i), and the coefficients come
    straight from the node polynomial P(Z) = prod_i (Z - p_i**2) = sum_j E_j Z**j:
    the model polynomial is sum_j E_j (2j+1)!! p_1**(2j) (2s)**(k-j).
    """
    k = len(ratios.p)
    x1 = ratios.p[0] ** 2
    coeffs = [0] * (k + 1)
    for j, e in enumerate(_node_polynomial(ratios)):
        coeffs[k - j] = e * double_factorial(2 * j + 1) * x1**j * 2 ** (k - j)
    return rp.clear_denominators(coeffs)


def _solve_weights(ratios: RatioTuple, s: Fraction) -> list[Fraction]:
    """Positive-speed weights (normalized by sqrt(pi)) for squared base
    speed s > 0, the exact solution of the moment rows n = 2..q-1.

    The rows are Vandermonde in X_i = p_i**2, so P's Lagrange basis solves
    them: with Q_i = P / (Z - X_i), B_ij = Q_i[j] (2j+1)!! and
    U = p_1**2 / (2s) = Un/Ud,  w_i = U sum_j B_ij U**j / (2 X_i P'(X_i)),
    where P'(X_i) = Q_i(X_i) and the sum is an integer homogeneous Horner
    sum over Ud**(k-1).
    """
    k = len(ratios.p)
    node = _node_polynomial(ratios)
    un, ud = ratios.p[0] ** 2 * s.denominator, 2 * s.numerator
    scale = [double_factorial(2 * j + 1) * ud ** (k - 1 - j) for j in range(k)]
    weights = []
    for p in ratios.p:
        x = p * p
        q = dp = h = 0
        for j in range(k - 1, -1, -1):
            q = q * x + node[j + 1]  # Q_i[j], by synthetic division
            dp = dp * x + q
            h = h * un + q * scale[j]
        weights.append(Fraction(un * h, 2 * x * dp * ud**k))
    return weights


@dataclass(frozen=True)
class VelocityModel:
    """A concrete 1-D discrete-velocity model.

    weights_normalized holds (w_0, w_1, w_2, ...) for the nonnegative
    velocities (rest speed first), already divided by sqrt(pi) so they sum
    to 1; the mirrored negative velocities reuse the same weights.
    weights_exact carries the same numbers as Fractions whenever
    ``solve_model`` found the root s_exact exactly.
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
        p0 = self.ratios.p[0]
        speeds = [self.v2 * (p / p0) for p in self.ratios.p]  # p / p0 rounds once
        return np.array([0.0, *(x for s in speeds for x in (s, -s))])

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
        for x in d["p"]:
            if isinstance(x, bool) or not isinstance(x, (int, float)) or x % 1:
                raise ValueError(f"lattice number {x!r} in 'p' is not an integer")
        ratios = RatioTuple(tuple(int(x) for x in d["p"]))
        ghosts, all_positive = d["ghosts"], d["all_positive"]
        if (not isinstance(ghosts, list) or len(ghosts) != len(ratios.p) + 1
                or not all(isinstance(g, bool) for g in ghosts)):
            raise ValueError(f"'ghosts' must be {len(ratios.p) + 1} booleans, got {ghosts!r}")
        if not isinstance(all_positive, bool):
            raise ValueError(f"'all_positive' must be a boolean, got {all_positive!r}")
        v2 = float(d["v2"])
        if not 0 < v2 < math.inf:
            raise ValueError(f"'v2' must be a positive finite number, got {v2!r}")
        s_exact = None
        if "s_exact" in d:
            s_exact = Fraction(d["s_exact"][0], d["s_exact"][1])
        return cls(
            ratios=ratios,
            v2=v2,
            weights_normalized=tuple(float(w) for w in d["weights_normalized"]),
            residual=float(d["residual"]),
            ghost_flags=tuple(ghosts),
            all_positive=all_positive,
            s_exact=s_exact,
        )


def _moment_residual(model: VelocityModel) -> float:
    """Max relative defect of the even moment rows n = 0..q+1."""
    v = model.velocities().tolist()
    w = model.normalized_weights_full().tolist()
    defects = []
    for n in range(0, model.q + 2, 2):
        target = float(gaussian_moment_coefficient(n))
        got = math.fsum(wi * vi**n for wi, vi in zip(w, v))  # normalized-weight units
        defects.append(abs(got - target) / target)
    return math.nan if any(map(math.isnan, defects)) else max(defects)


def _finish_model(model: VelocityModel, ghost_threshold: float) -> VelocityModel:
    """model with its moment residual and ghost flags filled in."""
    model = replace(model, residual=_moment_residual(model))
    return replace(model, ghost_flags=detect_ghosts(model, ghost_threshold))


def _assemble_model(ratios: RatioTuple, s: Fraction, exact: bool,
                    ghost_threshold: float) -> VelocityModel:
    wpos = _solve_weights(ratios, s)
    w0 = 1 - 2 * sum(wpos)
    wnorm_exact = (w0, *wpos)
    try:  # the float conversions, and the residual's powers of the speeds
        model = VelocityModel(
            ratios=ratios,
            v2=math.sqrt(float(s)),
            weights_normalized=tuple(float(w) for w in wnorm_exact),
            residual=0.0,
            ghost_flags=(False,) * (len(wpos) + 1),
            all_positive=all(w >= 0 for w in wnorm_exact),
            s_exact=s if exact else None,
            weights_exact=wnorm_exact if exact else None,
        )
        return _finish_model(model, ghost_threshold)
    except OverflowError:
        raise ValueError(
            f"the speed or weights of the model {ratios.p} do not fit a float") from None


def solve_model(ratios: RatioTuple, *,
                ghost_threshold: float = DEFAULT_GHOST_THRESHOLD) -> list[VelocityModel]:
    """All models for a given ratio tuple, sorted by ascending base speed.

    Solves the model polynomial exactly: a root is kept as a Fraction only
    when it comes from a square-free part of degree <= 2 or an isolation
    midpoint lands on it, and then the model carries ``s_exact`` and
    ``weights_exact``.  Every other root, rational or not, is refined on the
    square-free part its interval isolates, to the midpoint of a bisection's
    last bracket, ~1e-33 relative, before float conversion
    (``rp.refine_root``), and its model carries neither.
    Returns an empty list when no positive real root exists.
    """
    exact_roots, sf, intervals = rp.isolate_positive_roots(build_polynomial(ratios))
    found = sorted([(r, True) for r in exact_roots]
                   + [(rp.refine_root(sf, lo, hi), False) for lo, hi in intervals])
    return [_assemble_model(ratios, s, exact, ghost_threshold)
            for s, exact in found]


def detect_ghosts(model: VelocityModel,
                  threshold: float = DEFAULT_GHOST_THRESHOLD) -> tuple[bool, ...]:
    """Flag nonnegative-velocity weights with |w| below threshold.

    Near-zero weights mark speeds that barely participate in the
    quadrature; models carrying them are exact in principle but fragile
    in simulation.  threshold = 0 flags nothing; it must be finite.
    """
    if not 0 <= threshold < math.inf:
        raise ValueError(f"ghost threshold must be a finite number >= 0, got {threshold}")
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


def derive_catalog_model(name: str) -> VelocityModel:
    """Re-derive a catalog model and pick the branch nearest the reference
    base speed."""
    for entry in CATALOG:
        if entry.name == name:
            models = solve_model(entry.ratios)
            if not models:
                raise RuntimeError(f"catalog model {name} has no real solution")
            return min(models, key=lambda m: abs(m.v2 - entry.v2_reference))
    raise KeyError(f"unknown catalog model {name!r}; known: {catalog_names()}")


@functools.cache
def resolve_catalog(name: str) -> VelocityModel:
    """The catalog model `name`, derived once per process
    (derive_catalog_model); a VelocityModel is frozen, so callers share it."""
    return derive_catalog_model(name)
