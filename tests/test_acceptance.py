"""Acceptance suite: ten named criteria, one test per criterion.

Each test carries its tolerance and (where stated) its wall-clock budget
inline.  The conftest summary hook prints a PASS/FAIL line per criterion
at the end of the run, keyed off the test names in this file.
"""
import math
import time
from fractions import Fraction

import mpmath
import pytest

from oracles import NoRealSolutionError, closed_form_q5, shock_residuals
from thermolb import (
    ExpansionSpec,
    GasState,
    ShockTubeConfig,
    extract_plateaus,
    run,
    solve_riemann,
)
from thermolb.cli import EXIT_OK, main
from thermolb.equilibrium import expand, moment_accuracy, verify_moments
from thermolb.model_solver import RatioTuple, derive_catalog_model, solve_model
from thermolb.moments import discrete_moment, gaussian_moment

TE = lambda n: ExpansionSpec("taylor", n)
HE = lambda n: ExpansionSpec("hermite", n)


def test_criterion_01_model_regeneration():
    reference = {
        "q3": 1.224745,
        "q5": 0.553432,
        "q7": 0.846393,
        "q11": 0.685900,
        "q21": 0.372889,
    }
    start = time.perf_counter()
    for name, v2 in reference.items():
        model = derive_catalog_model(name)  # full re-derivation, not the cache
        assert abs(model.v2 - v2) < 1e-6, name
    base = derive_catalog_model("q3")
    assert base.weights_exact is not None
    assert base.weights_exact[1] == Fraction(1, 6)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_quadrature_exactness(q3, q5, q5_ghost, q7, q11, q21):
    start = time.perf_counter()
    for model in (q3, q5, q5_ghost, q7, q11, q21):
        for n in range(0, model.q + 2):  # all orders up to q + 1
            got = discrete_moment(model, n)
            if n % 2:
                assert got == 0.0, (model.q, n)
            else:
                want = gaussian_moment(n).value
                assert abs(got - want) <= 1e-9 * abs(want), (model.q, n)
        assert discrete_moment(model, model.q + 2) == 0.0  # odd by parity
    assert time.perf_counter() - start < 1.0


def test_criterion_03_closed_form_agreement():
    for denominator in (5, 4, 3):
        r = Fraction(1, denominator)
        branches = closed_form_q5(r)
        solved = solve_model(RatioTuple.from_ratios([Fraction(denominator)]))
        assert len(solved) == 2, r
        closed = sorted(m.v2 for m in branches)
        isolated = sorted(m.v2 for m in solved)
        for a, b in zip(closed, isolated):
            assert abs(a - b) <= 1e-9 * b, r
    # at r = 1/2 the discriminant is negative: both paths agree that no
    # real model exists
    with pytest.raises(NoRealSolutionError):
        closed_form_q5(Fraction(1, 2))
    assert solve_model(RatioTuple.from_ratios([2])) == []
    # r -> 0 limit: one branch approaches the three-speed model, its
    # outer weight dying out
    plus, minus = closed_form_q5(Fraction(1, 100))
    limit = max((plus, minus), key=lambda m: m.v2)
    assert abs(limit.v2 - math.sqrt(1.5)) < 1e-3
    assert abs(limit.weights_normalized[2]) < 1e-3


def _oracle_coefficient(v, a, b):
    """(1/a!b!) d^{a+b} R / du^a dt^b at (0, 0) with base temperature 1."""

    def func(u, t):
        return (mpmath.sqrt(1 / (1 + t))
                * mpmath.exp(v * v - (v - u) ** 2 / (1 + t)))

    with mpmath.workdps(40):
        d = mpmath.diff(func, (mpmath.mpf(0), mpmath.mpf(0)), (a, b))
        return float(d / (mpmath.factorial(a) * mpmath.factorial(b)))


def test_criterion_04_expansion_correctness():
    for kind, orders in (("taylor", range(1, 6)), ("hermite", range(1, 11))):
        for order in orders:
            poly = expand(ExpansionSpec(kind, order))
            assert poly.v_degree <= (2 * order if kind == "taylor" else order)
            kept = {(a, b) for (_, a, b) in poly.terms}
            for a, b in sorted(kept):
                if a + b > 4:
                    continue
                for v in (0.5, -1.25):
                    want = _oracle_coefficient(v, a, b)
                    got = float(sum(
                        c * Fraction(v) ** vp
                        for (vp, ua, tb), c in poly.terms.items()
                        if (ua, tb) == (a, b)))
                    if abs(want) < 1e-12:
                        assert abs(got) < 1e-9, (kind, order, a, b, v)
                    else:
                        assert abs(got - want) <= 1e-6 * abs(want), \
                            (kind, order, a, b, v)
    for n in (2, 3):
        te = expand(TE(n))
        he = expand(HE(2 * n))
        for key, coefficient in te.terms.items():
            assert he.terms.get(key) == coefficient, (n, key)


def test_criterion_05_moment_accuracy_guarantee(q5, q7, q11, q21):
    grid = [(1.0, u, theta)
            for u in (-0.2, 0.0, 0.2) for theta in (0.8, 1.0, 1.2)]
    cases = [
        (q5, HE(3), 3),
        (q5, TE(2), 2),
        (q7, TE(3), 3),
        (q11, TE(4), 4),
        (q21, TE(5), 5),
    ]
    for model, spec, m_max in cases:
        assert moment_accuracy(model, spec) == m_max, spec.label
        report = verify_moments(model, expand(spec), samples=grid,
                                tolerance=1e-10)
        assert report.m_max == m_max
        assert report.passed, (model.q, spec.label, report.max_abs_error)
        assert report.max_abs_error < 1e-10


def _plateaus(model, spec):
    config = ShockTubeConfig(model=model, expansion=spec)
    start = time.perf_counter()
    result = run(config)
    assert time.perf_counter() - start < 30.0
    assert result.verdict.stable
    return extract_plateaus(result.final, *config.probes)


def test_criterion_06_shock_tube_plateaus(q5, q7, q11):
    for model, spec in ((q7, TE(3)), (q11, TE(4))):
        report = _plateaus(model, spec)
        assert abs(report.rho[0] - 2.46) <= 0.02, model.q
        assert abs(report.rho[1] - 1.18) <= 0.02, model.q
        assert abs(report.pressure_reported[0] - 1.65) <= 0.02, model.q
        assert abs(report.pressure_reported[1] - 1.65) <= 0.02, model.q
        assert abs(report.theta[0] - 0.67) <= 0.02, model.q
        assert abs(report.theta[1] - 1.40) <= 0.02, model.q
        assert abs(report.u[0] - 0.22) <= 0.02, model.q
        assert abs(report.u[1] - 0.22) <= 0.02, model.q
    report = _plateaus(q5, TE(2))
    assert abs(report.rho[0] - 2.43) <= 0.02
    assert abs(report.u[0] - 0.23) <= 0.02


def test_criterion_07_riemann_oracle():
    solution = solve_riemann(GasState(3.0, 0.0, 1.0), GasState(1.0, 0.0, 1.0))
    theta_star_left = 2.0 * solution.p_star / solution.rho_star_left
    theta_star_right = 2.0 * solution.p_star / solution.rho_star_right
    printed = [
        (solution.rho_star_left, 2.46),
        (solution.rho_star_right, 1.18),
        (2.0 * solution.p_star, 1.65),  # reported pressure rho * theta
        (theta_star_left, 0.67),
        (theta_star_right, 1.40),
        (solution.u_star, 0.22),
    ]
    for value, reference in printed:
        assert abs(value - reference) <= 0.005 + 1e-12, reference
    for name, residual in shock_residuals(solution).items():
        assert abs(residual) < 1e-10, name


def test_criterion_08_stability_matrix(q5, q21):
    start = time.perf_counter()
    matrix = [
        (q5, HE(3), 3.0, True),
        (q5, HE(3), 4.0, False),
        (q21, TE(5), 11.0, True),
        (q21, HE(5), 11.0, False),
        (q21, HE(10), 11.0, False),
    ]
    for model, spec, rho_bar, expect_stable in matrix:
        config = ShockTubeConfig(model=model, expansion=spec, rho_bar=rho_bar)
        result = run(config)
        assert result.verdict.stable is expect_stable, \
            (model.q, spec.label, rho_bar, result.verdict.failure_mode)
    assert time.perf_counter() - start < 300.0


def test_criterion_09_ghost_fluctuation_excess(q5, q5_ghost):
    # same ratios, same expansion, same tube; the only difference is the
    # solution branch carrying a near-zero weight
    def fluctuation(model):
        config = ShockTubeConfig(model=model, expansion=HE(3), steps=50)
        result = run(config)
        assert result.verdict.stable
        return result.verdict.max_density_fluctuation

    assert fluctuation(q5_ghost) > fluctuation(q5)


def test_criterion_10_byte_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("THERMOLB_WORKERS", raising=False)

    def snapshot_bytes(tag, name, order, workers):
        path = tmp_path / f"{tag}.csv"
        argv = ["simulate", "--model", name, "--kind", "taylor",
                "--order", str(order), "--workers", str(workers),
                "--csv", str(path)]
        assert main(argv) == EXIT_OK
        return path.read_bytes()

    for name, order in (("q5", 2), ("q7", 3), ("q11", 4)):
        first = snapshot_bytes(f"{name}_a", name, order, workers=1)
        repeat = snapshot_bytes(f"{name}_b", name, order, workers=1)
        threaded = snapshot_bytes(f"{name}_c", name, order, workers=4)
        assert repeat == first, name
        assert threaded == first, name
