"""Exact moments of the Gaussian weight exp(-v**2), and discrete
quadrature sums over a velocity model.

The discrete models elsewhere in this package are built by matching
velocity moments of exp(-v**2).  Gaussian moments are rational multiples
of sqrt(pi) and are kept exact as such.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .model_solver import VelocityModel

SQRT_PI = math.sqrt(math.pi)


def double_factorial(n: int) -> int:
    """n!! with the empty-product convention (n <= 0 -> 1)."""
    if n <= 0:
        return 1
    return math.prod(range(n, 0, -2))


@dataclass(frozen=True)
class SqrtPiRational:
    """A number of the exact form coefficient * sqrt(pi)."""

    coefficient: Fraction

    @property
    def value(self) -> float:
        return float(self.coefficient) * SQRT_PI


def gaussian_moment_coefficient(n: int) -> Fraction:
    """Rational part of integral(v**n * exp(-v**2) dv, -inf..inf), i.e.
    the moment divided by sqrt(pi):  0 for odd n, (n-1)!!/2**(n/2) even."""
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    if n % 2 == 1:
        return Fraction(0)
    return Fraction(double_factorial(n - 1), 2 ** (n // 2))


def gaussian_moment(n: int) -> SqrtPiRational:
    """Exact n-th moment of the unnormalized Gaussian weight exp(-v**2).

    Equals Gamma((n+1)/2) for even n and 0 for odd n.
    """
    return SqrtPiRational(gaussian_moment_coefficient(n))


def discrete_moment(model: "VelocityModel", n: int) -> float:
    """n-th weighted moment sum(w_i * v_i**n) over a discrete model.

    Uses exact (fsum) accumulation.  The velocity set is symmetric and
    the paired weights are bit-identical floats, so odd moments cancel
    exactly, not just approximately.
    """
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    v = model.velocities()
    w = model.weights()
    return math.fsum(wi * vi**n for wi, vi in zip(w, v))

