"""Truncated expansions of the Maxwell-Boltzmann density for discrete
equilibria.

The local equilibrium populations are

    f_i^eq = rho * wbar_i * P(v_i; u, theta)

where P is the unique polynomial such that exp(-v**2) * P / sqrt(pi)
truncates the Maxwell-Boltzmann density around the rest state (u = 0,
theta = theta0).  Two truncation rules are supported for an expansion of
order N, both built from the same exact bivariate Taylor coefficients
c_{a,b}(v) of the density in (u, theta - theta0):

  * "taylor":  keep terms with a + b <= N      (v-degree up to 2N)
  * "hermite": keep terms with a + 2b <= N     (v-degree up to N),
    equivalent to expanding jointly in u and sigma = sqrt(|theta - 1|)
    with both treated as the same order of smallness.

All coefficients are exact rationals; floats appear only in evaluation.
"""
from __future__ import annotations

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
        if self.order < 1:
            raise ValueError(f"expansion order must be >= 1, got {self.order}")
        if self.theta0 <= 0:
            raise ValueError(f"base temperature must be positive, got {self.theta0}")
        object.__setattr__(self, "theta0", Fraction(self.theta0))

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.order}"


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

    def coefficient(self, v_pow: int, u_pow: int, t_pow: int) -> Fraction:
        return self.terms.get((v_pow, u_pow, t_pow), Fraction(0))

    def evaluate(self, v: float, u: float, theta: float) -> float:
        t = theta - float(self.spec.theta0)
        return math.fsum(float(c) * v**kv * u**ku * t**kt
                         for (kv, ku, kt), c in sorted(self.terms.items()))

    def table_rows(self) -> list[tuple[int, int, int, int, int]]:
        """Sorted (v_pow, u_pow, t_pow, numerator, denominator) rows."""
        return [(kv, ku, kt, c.numerator, c.denominator)
                for (kv, ku, kt), c in sorted(self.terms.items())]


def _series_mul(p: dict[Key, Fraction], q: dict[Key, Fraction],
                order: int) -> dict[Key, Fraction]:
    """Product truncated at total (u, t) order <= order."""
    out: dict[Key, Fraction] = {}
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


def _bivariate_coefficients(order: int, theta0: Fraction) -> dict[Key, Fraction]:
    """Exact Taylor data of the Maxwell-Boltzmann density about the rest
    state, complete through total (u, t) order <= order.

    Returns the polynomial G with  f_MB = (pi*theta0)**(-1/2)
    * exp(-v**2/theta0) * G(v, u, t) + O((u,t)**(order+1)).
    """
    theta0 = Fraction(theta0)
    # 1/(theta0 + t) as a series in t
    inv = {(0, 0, k): Fraction((-1) ** k) / theta0 ** (k + 1)
           for k in range(order + 1)}
    # exponent E = v**2 (1/theta0 - inv) + (2 u v - u**2) inv; the t**0
    # part of the v**2 term cancels exactly, so E has no constant term.
    e: dict[Key, Fraction] = {}
    for (_, _, k), c in inv.items():
        if k > 0:
            e[(2, 0, k)] = -c
        if k < order:
            e[(1, 1, k)] = 2 * c
    for (_, _, k), c in inv.items():
        if k + 2 <= order:
            e[(0, 2, k)] = e.get((0, 2, k), Fraction(0)) - c
    # exp(E) truncated; E has minimum (u, t) order 1 so N terms suffice
    result: dict[Key, Fraction] = {(0, 0, 0): Fraction(1)}
    power: dict[Key, Fraction] = {(0, 0, 0): Fraction(1)}
    for n in range(1, order + 1):
        power = _series_mul(power, e, order)
        inv_fact = Fraction(1, math.factorial(n))
        for key, c in power.items():
            acc = result.get(key, Fraction(0)) + c * inv_fact
            if acc:
                result[key] = acc
            elif key in result:
                del result[key]
    # prefactor (1 + t/theta0)**(-1/2)
    pref = {(0, 0, k): Fraction((-1) ** k * math.comb(2 * k, k),
                                4 ** k) / theta0 ** k
            for k in range(order + 1)}
    return _series_mul(result, pref, order)


_EXPANSION_CACHE: dict[tuple[str, int, Fraction], EquilibriumPolynomial] = {}


def expand(spec: ExpansionSpec) -> EquilibriumPolynomial:
    """Build (and cache) the truncated equilibrium polynomial for a spec."""
    key = (spec.kind, spec.order, spec.theta0)
    if key not in _EXPANSION_CACHE:
        full = _bivariate_coefficients(spec.order, spec.theta0)
        if spec.kind == KIND_TAYLOR:
            kept = full
        else:
            kept = {k: c for k, c in full.items() if k[1] + 2 * k[2] <= spec.order}
        _EXPANSION_CACHE[key] = EquilibriumPolynomial(spec=spec, terms=dict(kept))
    return _EXPANSION_CACHE[key]


def expand_te(order: int, theta0=Fraction(1)) -> EquilibriumPolynomial:
    """Taylor-type expansion: u and theta - theta0 are independent small
    quantities, truncated at joint order N."""
    return expand(ExpansionSpec(KIND_TAYLOR, order, Fraction(theta0)))


def expand_he(order: int) -> EquilibriumPolynomial:
    """Hermite-type expansion about unit temperature: u and
    sqrt(|theta - 1|) share one smallness order, truncated at order N."""
    return expand(ExpansionSpec(KIND_HERMITE, order))


def moment_accuracy(model: VelocityModel, spec: ExpansionSpec) -> int:
    """Largest moment order m for which the discrete equilibrium moments
    reproduce the truncated Maxwell-Boltzmann moments identically.

    Exactness needs m + v_degree <= q + 2 on the quadrature side and
    m <= N on the expansion side; may be negative when the expansion
    outruns the model's quadrature accuracy.
    """
    n = spec.order
    if spec.kind == KIND_TAYLOR:
        return min(n, model.q + 2 - 2 * n)
    return min(n, model.q + 2 - n)


def _mb_moment_series(m: int, spec: ExpansionSpec) -> dict[tuple[int, int], Fraction]:
    """Exact (u, t) polynomial of the m-th Maxwell-Boltzmann raw moment at
    unit density, truncated by the expansion's keep rule.  Keys are
    (u_pow, t_pow)."""
    theta0 = spec.theta0
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(0, m + 1, 2):
        base = math.comb(m, k) * gaussian_moment_coefficient(k)
        j = k // 2  # theta power
        for ell in range(j + 1):
            coef = base * math.comb(j, ell) * theta0 ** (j - ell)
            a, b = m - k, ell
            if spec.kind == KIND_TAYLOR and a + b > spec.order:
                continue
            if spec.kind == KIND_HERMITE and a + 2 * b > spec.order:
                continue
            out[(a, b)] = out.get((a, b), Fraction(0)) + coef
    return out


def truncated_mb_moment(m: int, spec: ExpansionSpec, rho: float, u: float,
                        theta: float) -> float:
    """m-th raw moment of the truncated (not the full) Maxwell-Boltzmann
    density; this is what a discrete equilibrium can match exactly."""
    t = theta - float(spec.theta0)
    series = _mb_moment_series(m, spec)
    return rho * math.fsum(float(c) * u**a * t**b
                           for (a, b), c in sorted(series.items()))


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
        self.poly = poly
        groups: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (kv, ku, kt), c in poly.terms.items():
            groups.setdefault((ku, kt), {})[kv] = c
        exponents = sorted(groups)
        self.even = [key for key in exponents if key[0] % 2 == 0]
        self.odd = [key for key in exponents if key[0] % 2 == 1]
        v = model.velocities()
        self.v_plus = v[1::2]

        def columns(keys: list[tuple[int, int]], speeds: np.ndarray) -> np.ndarray:
            out = np.empty((len(speeds), len(keys)))
            for col, key in enumerate(keys):
                for i, s in enumerate(speeds):
                    out[i, col] = math.fsum(float(c) * s**j
                                            for j, c in sorted(groups[key].items()))
            return out

        # weights folded into the columns; E rows are [rest, +v_1, +v_2, ...]
        wbar = model.normalized_weights_full()
        self.c_even = columns(self.even, np.append(0.0, self.v_plus)) * wbar[0::2, None]
        self.c_odd = columns(self.odd, self.v_plus) * wbar[1::2, None]
        self.max_u = max(a for a, _ in exponents)
        self.max_t = max(b for _, b in exponents)

    def populations(self, rho, u, theta, out: np.ndarray | None = None) -> np.ndarray:
        """Equilibrium populations; scalar inputs give shape (q,), arrays
        of shape (X,) give (q, X), written into out when one is given."""
        rho = np.asarray(rho, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        theta = np.asarray(theta, dtype=np.float64)
        scalar = rho.ndim == 0
        rho, u, theta = np.atleast_1d(rho, u, theta)
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
        return out[:, 0] if scalar else out


def evaluate_feq(model: VelocityModel, poly: EquilibriumPolynomial,
                 rho: float, u: float, theta: float) -> np.ndarray:
    """Equilibrium populations for one macroscopic state, shape (q,)."""
    if rho < 0:
        raise ValueError(f"density must be nonnegative, got {rho}")
    if theta <= 0:
        raise ValueError(f"temperature must be positive, got {theta}")
    return DiscreteEquilibrium(model, poly).populations(rho, u, theta)


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
        return all(c.abs_error <= self.tolerance for c in self.checks)


DEFAULT_SAMPLES: tuple[tuple[float, float, float], ...] = tuple(
    (1.0, u, th) for u in (-0.2, 0.0, 0.2) for th in (0.8, 1.0, 1.2))


def verify_moments(model: VelocityModel, poly: EquilibriumPolynomial,
                   samples: Sequence[tuple[float, float, float]] = DEFAULT_SAMPLES,
                   tolerance: float = 1e-10) -> MomentReport:
    """Check the guaranteed moments of a (model, expansion) pair.

    For every m up to moment_accuracy and every (rho, u, theta) sample,
    the discrete sum sum_i v_i**m f_i^eq must match the truncated
    Maxwell-Boltzmann moment to the given absolute tolerance.
    """
    spec = poly.spec
    m_max = moment_accuracy(model, spec)
    evaluator = DiscreteEquilibrium(model, poly)
    v = model.velocities()
    checks = []
    for rho, u, theta in samples:
        f = evaluator.populations(rho, u, theta)
        for m in range(0, m_max + 1):
            discrete = math.fsum(f[i] * v[i]**m for i in range(model.q))
            expected = truncated_mb_moment(m, spec, rho, u, theta)
            checks.append(MomentCheck(m, rho, u, theta, discrete, expected))
    return MomentReport(m_max=m_max, tolerance=tolerance, checks=tuple(checks))
