"""Shock-tube simulator tests.

The update rule is simple enough to audit from first principles: with
tau = 1 the collision replaces populations by the discrete equilibrium,
streaming is a whole-node shift, and the boundary bands are rewritten
with fixed equilibria.  The tests below check each piece against that
description (exact where exactness is promised, fsum budgets for the
conservation accounting) plus the determinism contract: bit-identical
results across runs and `--workers` counts, and under mirror reflection.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from thermolb.cli import EXIT_OK, WORKERS_ENV_VAR, main, worker_count
from thermolb.equilibrium import ExpansionSpec
from thermolb.simulator import (
    LatticeState,
    ShockTubeConfig,
    Snapshot,
    apply_boundaries,
    check_health,
    default_step_count,
    density_fluctuation,
    extract_plateaus,
    init_shock_tube,
    run,
    stability_scan,
    step,
)

TE2 = ExpansionSpec("taylor", 2)
TE3 = ExpansionSpec("taylor", 3)
TE4 = ExpansionSpec("taylor", 4)
HE3 = ExpansionSpec("hermite", 3)


# ---------------------------------------------------------------- setup


def test_initial_state_is_two_resting_equilibria(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2)
    state = init_shock_tube(config)
    kernel = state.kernel
    dense = kernel.eq.populations(3.0, 0.0, 1.0)
    dilute = kernel.eq.populations(1.0, 0.0, 1.0)
    assert np.array_equal(state.f[:, :500], np.broadcast_to(dense[:, None], (q5.q, 500)))
    assert np.array_equal(state.f[:, 500:], np.broadcast_to(dilute[:, None], (q5.q, 500)))
    assert np.abs(state.rho[:500] - 3.0).max() < 1e-12
    assert np.abs(state.rho[500:] - 1.0).max() < 1e-13
    # opposite-speed populations are equal at rest, so the momentum sum
    # cancels term by term and the velocity is exactly zero
    assert (state.u == 0.0).all()
    assert np.abs(state.theta - 1.0).max() < 1e-12
    assert state.step_count == 0


def test_high_side_right_swaps_the_dense_half(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2, high_side="right")
    state = init_shock_tube(config)
    assert np.abs(state.rho[:500] - 1.0).max() < 1e-13
    assert np.abs(state.rho[500:] - 3.0).max() < 1e-12


def test_boundary_bands_stay_pinned(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2)
    state = init_shock_tube(config)
    kernel = state.kernel
    for _ in range(12):
        step(state, config)
    b = config.band_width
    assert b == 3  # largest single-step hop of the (1, 3) model
    dense = kernel.eq.populations(3.0, 0.0, 1.0)
    dilute = kernel.eq.populations(1.0, 0.0, 1.0)
    assert np.array_equal(state.f[:, :b], np.broadcast_to(dense[:, None], (q5.q, b)))
    assert np.array_equal(state.f[:, -b:], np.broadcast_to(dilute[:, None], (q5.q, b)))
    assert state.step_count == 12


def test_config_validation(q5):
    good = dict(model=q5, expansion=TE2)
    ShockTubeConfig(**good, tau=0.5)  # boundary value is allowed
    bad_fields = [
        dict(rho_bar=0.0),
        dict(rho_bar=-2.0),
        dict(high_side="up"),
        dict(tau=0.49),
        dict(nodes=11, interface=5),  # needs >= 4 * band_width = 12
        dict(interface=0),
        dict(interface=1000),
    ]
    for fields in bad_fields:
        with pytest.raises(ValueError):
            ShockTubeConfig(**good, **fields)


# ------------------------------------------------------------- dynamics


def test_uniform_state_is_a_fixed_point(q5):
    # rho_bar = 1 makes both halves identical; the only drift left is
    # float round-off in the macro -> equilibrium -> macro round trip
    config = ShockTubeConfig(model=q5, expansion=TE2, rho_bar=1.0, steps=25)
    result = run(config)
    assert result.verdict.stable
    final = result.final
    assert np.abs(final.rho - 1.0).max() < 1e-13
    assert np.abs(final.u).max() < 1e-13
    assert np.abs(final.theta - 1.0).max() < 1e-13
    assert result.verdict.max_density_fluctuation < 1e-26


def test_unit_tau_collision_replaces_f_by_equilibrium(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2)
    state = init_shock_tube(config)
    kernel = state.kernel
    for _ in range(3):
        step(state, config)
    expected = kernel.eq.populations(state.rho, state.u, state.theta)
    assert np.array_equal(kernel.collide(state), expected)


def test_collision_conserves_node_moments(q5):
    # omega != 1 mixes old and equilibrium populations; both carry the
    # same mass, momentum and energy, so the node moments cannot move
    config = ShockTubeConfig(model=q5, expansion=TE2, tau=0.7)
    state = init_shock_tube(config)
    kernel = state.kernel
    for _ in range(10):
        step(state, config)
    v = q5.velocities()
    f0 = state.f.copy()
    moments0 = [f0.sum(axis=0), (v[:, None] * f0).sum(axis=0),
                (v[:, None] ** 2 * f0).sum(axis=0)]
    f1 = kernel.collide(state)
    moments1 = [f1.sum(axis=0), (v[:, None] * f1).sum(axis=0),
                (v[:, None] ** 2 * f1).sum(axis=0)]
    for before, after in zip(moments0, moments1):
        scale = np.abs(before).max()
        assert np.abs(after - before).max() <= 1e-12 * scale


def test_streaming_budget_over_an_interior_window(q5):
    """Window mass after one step equals the pre-stream mass plus the
    per-species edge fluxes, with every sum taken by fsum."""
    config = ShockTubeConfig(model=q5, expansion=TE2)
    state = init_shock_tube(config)
    kernel = state.kernel
    for _ in range(5):
        step(state, config)
    # tau = 1: the post-collision field is exactly the equilibrium of
    # the current macro fields, so we can reconstruct it bitwise
    post = kernel.eq.populations(state.rho, state.u, state.theta)
    a, b = 300, 700
    before = math.fsum(post[:, a:b].ravel())
    step(state, config)
    for i, h in enumerate(kernel.hops):
        assert np.array_equal(state.f[i, a:b], post[i, a - h:b - h])
    after = math.fsum(state.f[:, a:b].ravel())
    flux = 0.0
    for i, h in enumerate(kernel.hops):
        if h > 0:
            flux += math.fsum(post[i, a - h:a]) - math.fsum(post[i, b - h:b])
        elif h < 0:
            flux += math.fsum(post[i, b:b - h]) - math.fsum(post[i, a:a - h])
    assert abs((after - before) - flux) <= 1e-10 * abs(before)


def test_one_step_influence_radius_is_the_largest_hop(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2, rho_bar=1.0)
    reference = init_shock_tube(config)
    poked = init_shock_tube(config)
    poked.f[:, 500] *= 1.01
    poked.kernel.macro_into(poked.f, poked.rho, poked.u, poked.theta)
    step(reference, config)
    step(poked, config)
    changed = np.where((reference.f != poked.f).any(axis=0))[0]
    assert changed.size > 0
    assert changed.min() >= 500 - config.band_width
    assert changed.max() <= 500 + config.band_width


# ---------------------------------------------------------- determinism


def test_mirror_configurations_give_bitwise_mirror_fields(q5):
    left = ShockTubeConfig(model=q5, expansion=TE2, steps=60)
    right = replace(left, high_side="right")
    low = run(left).final
    high = run(right).final
    assert np.array_equal(high.rho, low.rho[::-1])
    assert np.array_equal(high.theta, low.theta[::-1])
    assert np.array_equal(high.u, -low.u[::-1])


def test_worker_count_does_not_change_any_bit(tmp_path, monkeypatch):
    # the worker count is validated and changes nothing: the rows, their
    # order and every float in them match
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    out = {}
    for workers in ("1", "2"):
        out[workers] = tmp_path / f"scan{workers}.csv"
        assert main(["stability-scan", "--models", "q5", "--expansions",
                     "taylor:2,hermite:3", "--rho-bars", "3,4", "--taus", "1,0.8",
                     "--steps", "40", "--workers", workers,
                     "--out", str(out[workers])]) == EXIT_OK
    rows = out["1"].read_text().splitlines()[1:]
    assert len(rows) == 8 and {row.split(",")[4] for row in rows} == {"0", "1"}
    assert out["2"].read_bytes() == out["1"].read_bytes()


def test_worker_count_resolution(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert worker_count() == 1
    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    assert worker_count() == 4
    assert worker_count(2) == 2  # explicit beats the environment
    monkeypatch.setenv(WORKERS_ENV_VAR, "many")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv(WORKERS_ENV_VAR, "0")
    with pytest.raises(ValueError):
        worker_count()
    with pytest.raises(ValueError):
        worker_count(0)


# ---------------------------------------------------------- diagnostics


def test_default_horizon_tracks_the_shock_crossing(q5, q7, q11):
    # round(0.35 * nodes * dx / shock_speed) with the exact-solution
    # shock speed; for the (1, 3) model dx = 0.553432, speed = 1.466036
    assert default_step_count(ShockTubeConfig(model=q5, expansion=TE2)) == 132
    assert default_step_count(ShockTubeConfig(model=q7, expansion=TE3)) == 202
    assert default_step_count(ShockTubeConfig(model=q11, expansion=TE4)) == 164
    # no density jump still radiates sound waves; horizon stays finite
    uniform = ShockTubeConfig(model=q5, expansion=TE2, rho_bar=1.0)
    assert default_step_count(uniform) == 158


def test_density_fluctuation_scores():
    ramp = np.linspace(1.0, 2.0, 60)
    assert density_fluctuation(ramp, margin=4) < 1e-25
    noisy = 1.0 + 0.01 * (-1.0) ** np.arange(60)
    assert density_fluctuation(noisy, margin=4) > 1e-4
    spiked = np.ones(60)
    spiked[2] = 7.0  # inside the margin, must be ignored
    assert density_fluctuation(spiked, margin=4) == 0.0


def _toy_state(f, rho, u):
    data = np.asarray(f, dtype=float)
    return LatticeState(f=data, rho=np.asarray(rho, dtype=float),
                        u=np.asarray(u, dtype=float),
                        theta=np.ones(len(rho)))


def test_step_without_kernel_is_a_clear_error(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2, nodes=60, interface=30)
    state = _toy_state(np.ones((q5.q, 60)), np.ones(60), np.zeros(60))
    with pytest.raises(ValueError, match="init_shock_tube"):
        step(state, config)
    with pytest.raises(ValueError, match="init_shock_tube"):
        apply_boundaries(state, config)


def test_check_health_modes():
    ones = np.ones((3, 4))
    assert check_health(_toy_state(ones, [1, 1, 1, 1], [0, 0, 0, 0]), 2.0) is None
    bad_f = ones.copy()
    bad_f[1, 2] = np.nan
    assert check_health(_toy_state(bad_f, [1, 1, 1, 1], [0, 0, 0, 0]),
                        2.0) == "non_finite_population"
    assert check_health(_toy_state(ones, [1, 0, 1, 1], [0, 0, 0, 0]),
                        2.0) == "non_positive_density"
    assert check_health(_toy_state(ones, [1, 1, 1, 1], [0, -2.5, 0, 0]),
                        2.0) == "runaway_velocity"
    # non-finite populations win over a bad density
    assert check_health(_toy_state(bad_f, [1, -1, 1, 1], [0, 0, 0, 0]),
                        2.0) == "non_finite_population"


def _piecewise_snapshot(n=1000, split=560):
    rho = np.where(np.arange(n) < split, 2.456, 1.178)
    u = np.full(n, 0.222)
    theta = np.where(np.arange(n) < split, 0.672, 1.401)
    return Snapshot(step=100, rho=rho, u=u, theta=theta)


def test_extract_plateaus_reads_piecewise_constants():
    snap = _piecewise_snapshot()
    report = extract_plateaus(snap, probe_low=430, probe_high=650)
    assert report.rho == (2.456, 1.178)
    assert report.u == (0.222, 0.222)
    assert report.theta == (0.672, 1.401)
    assert report.pressure_reported == (2.456 * 0.672, 1.178 * 1.401)
    assert report.flat == (True, True)
    d = report.as_dict()
    assert d["probe_nodes"] == [430, 650]
    assert d["rho"] == [2.456, 1.178]


def test_extract_plateaus_median_is_outlier_proof_but_flat_flag_is_not():
    snap = _piecewise_snapshot()
    snap.rho[650] = 5.0
    report = extract_plateaus(snap, probe_low=430, probe_high=650)
    assert report.rho == (2.456, 1.178)  # single outlier cannot move a median
    assert report.flat == (True, False)


def test_extract_plateaus_rejects_probes_near_the_edge():
    snap = _piecewise_snapshot()
    with pytest.raises(ValueError):
        extract_plateaus(snap, probe_low=5, probe_high=650)
    with pytest.raises(ValueError):
        extract_plateaus(snap, probe_low=430, probe_high=995)


# ------------------------------------------------------ runs and scans


def test_snapshot_cadence(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2, steps=35, snapshot_interval=10)
    result = run(config)
    assert [s.step for s in result.snapshots] == [10, 20, 30, 35]
    assert result.final is result.snapshots[-1]
    assert result.steps_requested == 35
    even = run(replace(config, steps=30))
    assert [s.step for s in even.snapshots] == [10, 20, 30]
    only_final = run(replace(config, steps=30, snapshot_interval=None))
    assert [s.step for s in only_final.snapshots] == [30]
    assert np.array_equal(only_final.final.pressure_reported,
                          only_final.final.rho * only_final.final.theta)


def test_instability_verdict_and_post_mortem(q5):
    config = ShockTubeConfig(model=q5, expansion=HE3, rho_bar=4.0, steps=80)
    result = run(config)
    verdict = result.verdict
    assert not verdict.stable
    assert verdict.failure_mode == "non_positive_density"
    assert verdict.failure_step == 35
    # no snapshot interval: the failing state is kept for post-mortems
    assert [s.step for s in result.snapshots] == [35]
    # with an interval only healthy snapshots are recorded
    sampled = run(replace(config, snapshot_interval=10))
    assert [s.step for s in sampled.snapshots] == [10, 20, 30]
    assert sampled.verdict.failure_step == 35


def test_stability_scan_grid(q5):
    entries = stability_scan([("5", q5)], [HE3], [3.0, 4.0], steps=50)
    assert len(entries) == 2
    ok, bad = entries
    assert (ok.model_name, ok.expansion, ok.rho_bar, ok.tau) == ("5", "hermite:3", 3.0, 1.0)
    assert ok.stable and ok.failure_mode is None and ok.steps == 50
    assert ok.fluctuation >= 0.0
    assert not bad.stable
    assert bad.failure_step == 35
    assert bad.failure_mode == "non_positive_density"
