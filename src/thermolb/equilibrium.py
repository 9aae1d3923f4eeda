"""Truncated expansions of the Maxwell-Boltzmann density for discrete
equilibria.

The local equilibrium populations are

    f_i^eq = rho * wbar_i * P(v_i; u, theta)

where P is the unique polynomial such that exp(-v**2/theta0) * P /
sqrt(pi*theta0) truncates the Maxwell-Boltzmann density around the rest
state (u = 0, theta = theta0; the lattice evaluates theta0 = 1).  The
density g = exp(-(v - u)**2 / theta) / sqrt(pi * theta) obeys dg/du =
-dg/dv and the heat equation dg/dtheta = (1/4) d2g/dv2, so every (u, t =
theta - theta0) derivative at the rest state is a v-derivative of the
rest Gaussian, that is a Hermite function.  The u**a t**b coefficient of
P is, in closed form, with n = a + 2b,

    c_ab(v) = theta0**(-n/2) * H_n(v / sqrt(theta0)) / (a! b! 4**b)

where H_n is the physicists' Hermite polynomial.  Two truncation rules
are supported for an expansion of order N (ExpansionSpec.keeps):

  * "taylor":  keep terms with a + b <= N      (v-degree up to 2N)
  * "hermite": keep terms with a + 2b <= N     (v-degree up to N), which
    keeps exactly the H_n with n <= N; this is the expansion in u and
    sigma = sqrt(|theta - theta0|) with both of the same order.

All coefficients are exact rationals; floats appear only in evaluation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model_solver import VelocityModel
from .moments import gaussian_moment_coefficient

Key = tuple[int, int, int]  # (v power, u power, t power)

KIND_TAYLOR = "taylor"
KIND_HERMITE = "hermite"
_KINDS = (KIND_TAYLOR, KIND_HERMITE)


@dataclass(frozen=True)
class ExpansionSpec:
    """Which truncated equilibrium to use: kind, order N, base temperature."""

    kind: str
    order: int
    theta0: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if isinstance(self.order, bool) or not isinstance(self.order, int) or self.order < 1:
            raise ValueError(f"expansion order must be an integer >= 1, got {self.order!r}")
        try:
            theta0 = Fraction(self.theta0)
        except (OverflowError, ValueError, ZeroDivisionError) as exc:  # inf, nan, x/0, junk
            raise ValueError(f"base temperature must be a finite rational, "
                             f"got {self.theta0!r}") from exc
        if theta0 <= 0:
            raise ValueError(f"base temperature must be positive, got {theta0}")
        object.__setattr__(self, "theta0", theta0)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.order}"

    def keeps(self, a: int, b: int) -> bool:
        """Whether the truncation keeps the u**a * t**b terms."""
        return a + (b if self.kind == KIND_TAYLOR else 2 * b) <= self.order


@dataclass(frozen=True)
class EquilibriumPolynomial:
    """P as a trivariate polynomial in (v, u, t) with t = theta - theta0.

    terms maps (v_pow, u_pow, t_pow) -> exact rational coefficient.
    """

    spec: ExpansionSpec
    terms: dict[Key, Fraction] = field(compare=False)

    @property
    def v_degree(self) -> int:
        return max(k[0] for k in self.terms)

    def table_rows(self) -> list[tuple[int, int, int, int, int]]:
        """Sorted (v_pow, u_pow, t_pow, numerator, denominator) rows."""
        return [(kv, ku, kt, c.numerator, c.denominator)
                for (kv, ku, kt), c in sorted(self.terms.items())]


@functools.cache
def expand(spec: ExpansionSpec) -> EquilibriumPolynomial:
    """The truncated equilibrium polynomial of a spec, built once per spec.

    With n = a + 2b, the v**(n - 2k) term of c_ab(v) is
    (-1)**k n! 2**(n - 2k) / (k! (n - 2k)! theta0**(n - k) a! b! 4**b).
    """
    fact = math.factorial
    terms: dict[Key, Fraction] = {}
    for a in range(spec.order + 1):
        for b in range(spec.order + 1):
            if not spec.keeps(a, b):
                continue
            n = a + 2 * b
            scale = Fraction(fact(n), fact(a) * fact(b) * 4**b)
            for k in range(n // 2 + 1):
                terms[(n - 2 * k, a, b)] = (
                    scale * (-1) ** k * 2 ** (n - 2 * k)
                    / (fact(k) * fact(n - 2 * k) * spec.theta0 ** (n - k)))
    return EquilibriumPolynomial(spec=spec, terms=terms)


def moment_accuracy(model: VelocityModel, spec: ExpansionSpec) -> int:
    """Largest moment order m for which the discrete equilibrium moments
    reproduce the truncated Maxwell-Boltzmann moments identically.

    Exactness needs m + v_degree <= q + 2 on the quadrature side and
    m <= N on the expansion side; may be negative when the expansion
    outruns the model's quadrature accuracy.
    """
    return min(spec.order, model.q + 2 - expand(spec).v_degree)


@functools.cache
def _mb_moment_series(m: int, spec: ExpansionSpec) -> tuple[tuple[int, int, float], ...]:
    """(u, t) polynomial of the m-th Maxwell-Boltzmann raw moment at unit
    density, truncated by the expansion's keep rule: its (u_pow, t_pow,
    coefficient) terms in key order, summed exactly and then rounded to
    floats, built once per (m, spec)."""
    theta0 = spec.theta0
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(0, m + 1, 2):
        base = math.comb(m, k) * gaussian_moment_coefficient(k)
        j = k // 2  # theta power
        for ell in range(j + 1):
            a, b = m - k, ell
            if spec.keeps(a, b):
                coef = base * math.comb(j, ell) * theta0 ** (j - ell)
                out[(a, b)] = out.get((a, b), Fraction(0)) + coef
    return tuple((a, b, float(c)) for (a, b), c in sorted(out.items()))


def truncated_mb_moment(m: int, spec: ExpansionSpec, rho: float, u: float,
                        theta: float) -> float:
    """m-th raw moment of the truncated (not the full) Maxwell-Boltzmann
    density; this is what a discrete equilibrium can match exactly."""
    t = theta - float(spec.theta0)
    return rho * math.fsum(c * u**a * t**b for a, b, c in _mb_moment_series(m, spec))


class DiscreteEquilibrium:
    """Compiled evaluator for f_i^eq = rho * wbar_i * P(v_i; u, theta).

    Every (u, t) monomial u**a * t**b of P carries a coefficient
    polynomial c_ab(v) of the parity of a.  Split by that parity over the
    positive speeds, f(+v) = rho * (E + O) and f(-v) = rho * (E - O), with
    E the even and O the odd part in u and wbar folded into both; the rest
    speed has only even columns.  Negating u negates every odd monomial
    exactly and leaves E alone, so mirroring (v, u) -> (-v, -u) swaps each
    +/- pair bitwise by construction.  Evaluation is elementwise with a
    fixed accumulation order, so results are bitwise reproducible.
    """

    def __init__(self, model: VelocityModel, poly: EquilibriumPolynomial):
        if poly.spec.theta0 != 1:
            raise ValueError(
                "discrete evaluation requires base temperature 1 (the lattice "
                f"weights absorb a unit-width Gaussian), got {poly.spec.theta0}")
        self.model = model
        groups: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for (kv, ku, kt), c in sorted(poly.terms.items()):
            groups.setdefault((ku, kt), []).append((kv, float(c)))
        exponents = sorted(groups)
        self.even = [key for key in exponents if key[0] % 2 == 0]
        self.odd = [key for key in exponents if key[0] % 2 == 1]
        self.v_plus = model.velocities()[1::2]

        def columns(keys: list[tuple[int, int]], speeds: list[float]) -> np.ndarray:
            return np.array([[math.fsum(c * s**j for j, c in groups[key]) for key in keys]
                             for s in speeds])

        # weights folded into the columns; E rows are [rest, +v_1, +v_2, ...]
        wbar = model.normalized_weights_full()
        self.c_even = columns(self.even, [0.0, *self.v_plus.tolist()]) * wbar[0::2, None]
        self.c_odd = columns(self.odd, self.v_plus.tolist()) * wbar[1::2, None]
        self.max_u = max(a for a, _ in exponents)
        self.max_t = max(b for _, b in exponents)

    def populations(self, rho: np.ndarray, u: np.ndarray, theta: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Equilibrium populations of X nodes given as 1-D float arrays of
        shape (X,): shape (q, X), column j from node j's values alone,
        written into out when one is given."""
        t = theta - 1.0
        k, n = len(self.v_plus), rho.shape[0]
        if out is None:
            out = np.empty((self.model.q, n))
        even = out[0::2]  # rest row, then the even part at every -v row
        odd = out[1::2]  # odd part at the +v rows
        term = np.empty((k + 1, n))
        mono = np.empty(n)
        # an underflowing monomial rounds to its correct tiny value
        with np.errstate(under="ignore"):
            upow = [None, u]  # upow[0] (like tpow[0]) is the constant 1
            for _ in range(2, self.max_u + 1):
                upow.append(upow[-1] * u)
            tpow = [None, t]
            for _ in range(2, self.max_t + 1):
                tpow.append(tpow[-1] * t)
            for acc, c, keys in ((even, self.c_even, self.even),
                                 (odd, self.c_odd, self.odd)):
                acc[...] = 0.0
                prod = term[:len(c)]
                for col, (a, b) in enumerate(keys):
                    column = c[:, col:col + 1]
                    if a and b:
                        acc += np.multiply(column, np.multiply(upow[a], tpow[b], out=mono),
                                           out=prod)
                    elif a or b:
                        acc += np.multiply(column, upow[a] if a else tpow[b], out=prod)
                    else:
                        acc += column
            minus = np.subtract(even[1:], odd, out=term[:k])  # E - O
            np.add(even[1:], odd, out=odd)  # E + O
            even[1:] = minus
            out *= rho
        return out


@dataclass(frozen=True)
class MomentCheck:
    m: int
    rho: float
    u: float
    theta: float
    discrete: float
    expected: float

    @property
    def abs_error(self) -> float:
        return abs(self.discrete - self.expected)


@dataclass(frozen=True)
class MomentReport:
    m_max: int
    tolerance: float
    checks: tuple[MomentCheck, ...]

    @property
    def max_abs_error(self) -> float:
        return max((c.abs_error for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        """Absolute up to moments of 1, relative above, where rounding grows."""
        return all(c.abs_error <= self.tolerance * max(1.0, abs(c.expected))
                   for c in self.checks)


DEFAULT_SAMPLES: tuple[tuple[float, float, float], ...] = tuple(
    (1.0, u, th) for u in (-0.2, 0.0, 0.2) for th in (0.8, 1.0, 1.2))


def verify_moments(model: VelocityModel, poly: EquilibriumPolynomial,
                   samples: Sequence[tuple[float, float, float]] = DEFAULT_SAMPLES,
                   tolerance: float = 1e-10) -> MomentReport:
    """Check the guaranteed moments of a (model, expansion) pair.

    For every m up to moment_accuracy and every (rho, u, theta) sample,
    the discrete sum sum_i v_i**m f_i^eq must match the truncated
    Maxwell-Boltzmann moment to tolerance * max(1, |moment|), for a finite
    tolerance >= 0.  All samples are evaluated in one ``populations`` call
    (its arithmetic is per node, so each column is the one-node result)
    and the sums run over Python floats.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    spec = poly.spec
    m_max = moment_accuracy(model, spec)
    evaluator = DiscreteEquilibrium(model, poly)
    v = model.velocities().tolist()
    nodes = np.array(samples, dtype=np.float64).reshape(-1, 3).T
    checks = []
    for (rho, u, theta), f in zip(samples, evaluator.populations(*nodes).T.tolist()):
        for m in range(0, m_max + 1):
            discrete = math.fsum(fi * vi**m for fi, vi in zip(f, v))
            expected = truncated_mb_moment(m, spec, rho, u, theta)
            checks.append(MomentCheck(m, rho, u, theta, discrete, expected))
    return MomentReport(m_max=m_max, tolerance=tolerance, checks=tuple(checks))
