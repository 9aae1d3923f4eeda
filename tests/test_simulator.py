"""Shock-tube simulator tests.

The update rule is simple enough to audit from first principles: the
collision relaxes each tube by its own omega = 1 / tau, which at tau = 1
replaces populations by the discrete equilibrium, streaming is a
whole-node shift, and the boundary bands are rewritten with fixed
equilibria.  The tests below check each piece against that description (exact where exactness is promised, fsum budgets for the
conservation accounting) plus the determinism contract: bit-identical
results across runs and `--workers` counts, and under mirror reflection.
"""
import math
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from oracles import drift, scored_fields
from thermolb import resolve_catalog, simulator
from thermolb.cli import EXIT_OK, main
from thermolb.equilibrium import ExpansionSpec
from thermolb.riemann import sample_profile, solve_riemann
from thermolb.simulator import (
    ShockTubeConfig,
    Snapshot,
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
TE5 = ExpansionSpec("taylor", 5)
HE3 = ExpansionSpec("hermite", 3)


# ---------------------------------------------------------------- setup


def test_initial_state_is_two_resting_equilibria(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2)
    state = init_shock_tube(config)
    dense = state.eq.populations(*np.array([[3.0], [0.0], [1.0]]))[:, 0]
    dilute = state.eq.populations(*np.array([[1.0], [0.0], [1.0]]))[:, 0]
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


def test_probes_mirror_with_the_dense_side(q5):
    left = ShockTubeConfig(model=q5, expansion=TE2)
    assert left.probes == (430, 650)
    assert replace(left, high_side="right").probes == (349, 569)
    # a right tube mirrors the left tube with interface nodes - interface
    right = ShockTubeConfig(model=q5, expansion=TE2, nodes=1200, interface=700,
                            high_side="right")
    assert right.probes == (1199 - 650, 1199 - 430)


def test_tubes_of_one_lattice_share_its_layout(q5, q7):
    config = ShockTubeConfig(model=q5, expansion=TE2)
    assert init_shock_tube(config, replace(config, rho_bar=4.0, tau=0.8)).tubes == 2
    for other in (replace(config, nodes=800), replace(config, interface=400),
                  replace(config, expansion=TE3), replace(config, model=q7)):
        with pytest.raises(ValueError, match="tubes of one lattice must share model, "
                                             "expansion, nodes and interface"):
            init_shock_tube(config, other)


def test_boundary_bands_stay_pinned(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2)
    state = init_shock_tube(config)
    for _ in range(12):
        step(state, config)
    b = config.band_width
    assert b == 3  # largest single-step hop of the (1, 3) model
    dense = state.eq.populations(*np.array([[3.0], [0.0], [1.0]]))[:, 0]
    dilute = state.eq.populations(*np.array([[1.0], [0.0], [1.0]]))[:, 0]
    assert np.array_equal(state.f[:, :b], np.broadcast_to(dense[:, None], (q5.q, b)))
    assert np.array_equal(state.f[:, -b:], np.broadcast_to(dilute[:, None], (q5.q, b)))
    assert state.step_count == 12


def test_config_validation(q3, q5):
    good = dict(model=q5, expansion=TE2)
    ShockTubeConfig(**good, tau=0.5)  # boundary value is allowed
    ShockTubeConfig(**good, steps=0)
    ShockTubeConfig(**good, snapshot_interval=1)
    ShockTubeConfig(model=q3, expansion=TE2, nodes=7, interface=3)
    bad_fields = [
        dict(rho_bar=0.0),
        dict(rho_bar=-2.0),
        dict(rho_bar=float("nan")),
        dict(rho_bar=float("inf")),
        dict(high_side="up"),
        dict(tau=0.49),
        dict(tau=float("nan")),
        dict(tau=float("inf")),
        dict(nodes=11, interface=5),  # needs >= 4 * band_width = 12
        # q3's bands fit in 4 nodes, but the fluctuation score's
        # band_width + 1 margins need 2 * 1 + 5 = 7 to keep three inside
        dict(model=q3, nodes=6, interface=3),
        dict(interface=0),
        dict(interface=1000),
        dict(steps=-1),
        # n % -1 == 0 would snapshot every step, and 0 would mean "final only"
        dict(snapshot_interval=0),
        dict(snapshot_interval=-1),
        dict(snapshot_interval=2.5),
    ]
    for fields in bad_fields:
        with pytest.raises(ValueError):
            ShockTubeConfig(**{**good, **fields})


@pytest.mark.parametrize("field,value", [
    # these built a config and then failed in init_shock_tube or _light_cone
    ("nodes", 1000.5), ("interface", 500.0), ("steps", 2.5),
    # bools are ints to Python: steps=True ran one step and reported True
    ("steps", True), ("snapshot_interval", True), ("interface", True),
    ("nodes", "1000"), ("interface", None), ("steps", 30.0),
])
def test_integer_fields_must_be_ints(q5, field, value):
    with pytest.raises(ValueError, match=field):
        ShockTubeConfig(model=q5, expansion=TE2, **{field: value})


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
    for _ in range(3):
        step(state, config)
    expected = state.eq.populations(state.rho, state.u, state.theta)
    assert np.array_equal(state.collide(), expected)


def moving_run(config, speed, horizon):
    """(errors, None): the mean |error| of rho, u and theta over the scored
    core after stepping config's tube with both states moving at speed,
    against the exact solution of the moving states; or (None, step) at
    the first step with theta <= 0."""
    state = init_shock_tube(config)
    left, right = drift(state, config, speed)
    for _ in range(horizon):
        step(state, config)
        if not (state.theta > 0.0).all():
            return None, state.step_count
    # the jump lies between nodes interface - 1 and interface
    x = (np.arange(config.nodes) - config.interface + 0.5) * config.dx
    exact = sample_profile(solve_riemann(left, right), x, float(horizon))
    core = slice(config.band_width + 1, config.nodes - config.band_width - 1)
    errors = [float(np.mean(np.abs(got[core] - want[core])))
              for got, want in zip((state.rho, state.u, state.theta), exact)]
    return errors, None


def test_a_moving_frame_gives_the_rest_frame_errors(q7, q21):
    # the Euler equations are Galilean invariant, so both states moving at U
    # give the rest-frame solution carried along by U * t; a lattice whose
    # equilibrium moments break the invariance does not.  2000 nodes, the
    # jump at 600 and the rest tube's 1000-node horizon keep every wave in
    # the scored core up to U = 0.5
    config = ShockTubeConfig(model=q21, expansion=TE5, nodes=2000, interface=600)
    horizon = default_step_count(replace(config, nodes=1000, interface=500))
    rest, cold = moving_run(config, 0.0, horizon)
    assert cold is None and rest[0] < 0.013  # rho's error is 0.0119
    for speed in (0.1, 0.3, 0.5):
        errors, cold = moving_run(config, speed, horizon)
        assert cold is None
        # every field within 1% of its rest-frame error, as measured
        assert all(got <= 1.05 * want for got, want in zip(errors, rest)), \
            (speed, errors, rest)
    # q7 taylor:3 holds at rest and reaches theta <= 0 at U = 0.3 (step 15
    # of its 202)
    config = replace(config, model=q7, expansion=TE3)
    horizon = default_step_count(replace(config, nodes=1000, interface=500))
    assert moving_run(config, 0.0, horizon)[1] is None
    cold = moving_run(config, 0.3, horizon)[1]
    assert cold is not None and cold < horizon


def test_collision_conserves_node_moments(q5):
    # omega != 1 mixes old and equilibrium populations; both carry the
    # same mass, momentum and energy, so the node moments cannot move
    config = ShockTubeConfig(model=q5, expansion=TE2, tau=0.7)
    state = init_shock_tube(config)
    for _ in range(10):
        step(state, config)
    v = q5.velocities()
    f0 = state.f.copy()
    moments0 = [f0.sum(axis=0), (v[:, None] * f0).sum(axis=0),
                (v[:, None] ** 2 * f0).sum(axis=0)]
    f1 = state.collide()
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
    for _ in range(5):
        step(state, config)
    # tau = 1: the post-collision field is exactly the equilibrium of
    # the current macro fields, so we can reconstruct it bitwise
    post = state.eq.populations(state.rho, state.u, state.theta)
    a, b = 300, 700
    before = math.fsum(post[:, a:b].ravel())
    step(state, config)
    for i, h in enumerate(state.hops):
        assert np.array_equal(state.f[i, a:b], post[i, a - h:b - h])
    after = math.fsum(state.f[:, a:b].ravel())
    flux = 0.0
    for i, h in enumerate(state.hops):
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
    poked.macro_into(poked.f, poked.rho, poked.u, poked.theta)
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


def test_worker_count_does_not_change_any_bit(tmp_path):
    # the groups run on forked processes with --workers 2, and the rows,
    # their order and every float in them match the serial scan
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


def scan_bits(rows):
    """Every field of each row, the fluctuation by its float bits."""
    return [(r.model_name, r.config, r.verdict,
             struct.pack("<d", r.verdict.max_density_fluctuation)) for r in rows]


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the pool sizes and start
    methods asked for and the groups in dispatch order, and maps them in
    this process.  Its map warns as os.fork does on Python 3.12+ while
    other threads are alive."""

    def __init__(self):
        self.pools, self.dispatched = [], []

    def __call__(self, max_workers, mp_context):
        self.pools.append((max_workers, mp_context.get_start_method()))
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, groups):
        warnings.warn("This process (pid=1) is multi-threaded, use of fork() may "
                      "lead to deadlocks in the child.", DeprecationWarning)
        self.dispatched.extend(name for name, _ in groups)
        return map(fn, groups)


def no_pool(*args, **kwargs):
    raise AssertionError("the scan started a process pool")


def test_scan_rows_are_bitwise_the_same_on_any_worker_count(monkeypatch):
    real, sizes = futures.ProcessPoolExecutor, []
    monkeypatch.setattr(futures, "ProcessPoolExecutor",
                        lambda size, mp_context: sizes.append(size) or
                        real(size, mp_context=mp_context))
    models = [(name, resolve_catalog(name)) for name in ("q5", "q7", "q21")]
    grids = [
        # default horizons: q21 taylor:5 at rho 11 holds at tau 1, fails at 0.8
        dict(expansions=[HE3, ExpansionSpec("taylor", 5)], rho_bars=[11.0, 3.0],
             taus=[1.0, 0.8], nodes=1000, steps=None),
        # cut lattices and two tubes per batch
        dict(expansions=[HE3], rho_bars=[3.0, 11.0], taus=[1.0, 0.8], nodes=20000,
             steps=30),
    ]
    monkeypatch.setattr(simulator, "_BATCH_NODES", 800)
    for grid in grids:
        rows = {w: stability_scan(models, workers=w, **grid) for w in (1, 2, 3)}
        assert {r.verdict.stable for r in rows[1]} == {True, False}
        assert scan_bits(rows[2]) == scan_bits(rows[1])
        assert scan_bits(rows[3]) == scan_bits(rows[1])
    assert sizes == [2, 3, 2, 3]  # workers 2 and 3 of both grids used a pool


def test_scan_pool_has_one_process_per_group_at_most(q5, q21, monkeypatch):
    executor = RecordingExecutor()
    monkeypatch.setattr(futures, "ProcessPoolExecutor", executor)
    grid = dict(expansions=[HE3], rho_bars=[3.0], taus=[1.0], steps=20, nodes=200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = stability_scan([("q5", q5), ("q21", q21)], workers=64, **grid)
    assert executor.pools == [(2, "fork")]
    assert caught == []  # the fork warning does not reach the caller
    assert executor.dispatched == ["q21", "q5"]  # costliest group first
    assert [r.model_name for r in rows] == ["q5", "q21"]  # grid order
    assert scan_bits(rows) == scan_bits(stability_scan([("q5", q5), ("q21", q21)], **grid))


def test_a_worker_that_dies_fails_the_scan(q5, q7, monkeypatch):
    # multiprocessing.Pool would wait for the dead worker's group forever
    parent, real = os.getpid(), simulator._run_tubes

    def die_in_a_child_on_q7(configs):
        if os.getpid() != parent and configs[0].model.q == 7:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(configs)

    monkeypatch.setattr(simulator, "_run_tubes", die_in_a_child_on_q7)
    with pytest.raises(BrokenProcessPool):
        stability_scan([("q5", q5), ("q7", q7)], [HE3], [3.0], steps=5, nodes=200,
                       workers=2)


def test_serial_scans_start_no_process(q5, monkeypatch):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
    grid = dict(rho_bars=[3.0, 11.0], taus=[1.0, 0.8], steps=20, nodes=200)
    assert len(stability_scan([("q5", q5)], [HE3, TE3], workers=1, **grid)) == 8
    assert len(stability_scan([("q5", q5)], [HE3], workers=8, **grid)) == 4


def test_serial_scan_never_imports_multiprocessing(tmp_path):
    code = ("import sys; from thermolb.cli import main; "
            f"code = main(['stability-scan', '--models', 'q5,q7', '--expansions', "
            f"'hermite:3', '--rho-bars', '3', '--steps', '5', '--nodes', '200', "
            f"'--out', {str(tmp_path / 'scan.csv')!r}]); "
            "print(code, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.stdout.split(), proc.stderr) == (["0", "False"], "")


@pytest.mark.parametrize("workers", [0, -1, True, 2.0, "2"])
def test_scan_rejects_bad_worker_counts_before_any_compute(q5, monkeypatch, workers):
    monkeypatch.setattr(simulator, "_run_tubes", no_pool)
    monkeypatch.setattr(simulator, "default_step_count", no_pool)
    with pytest.raises(ValueError, match="worker count"):
        stability_scan([("q5", q5)], [HE3], [3.0], workers=workers)


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


def test_density_fluctuation_is_the_same_on_a_reversed_profile():
    # a mirrored run's snapshot is the reversed density, and its verdict
    # must keep every bit of the score
    rng = np.random.default_rng(7)
    for n in (13, 60, 1001, 4096):
        rho = 1.0 + rng.random(n)
        forward = density_fluctuation(rho, margin=4)
        assert forward > 0.0
        assert density_fluctuation(rho[::-1], margin=4).hex() == forward.hex(), n


def _toy_state(model, f, rho, u):
    """A 12-node lattice of init_shock_tube carrying the given fields."""
    state = init_shock_tube(ShockTubeConfig(model=model, expansion=TE2, nodes=12,
                                            interface=6))
    state.f[:3, :4] = f
    state.rho[:4], state.u[:4] = rho, u
    return state


def test_check_health_modes(q5):
    ones = np.ones((3, 4))
    assert check_health(_toy_state(q5, ones, [1, 1, 1, 1], [0, 0, 0, 0]), 2.0) == [None]
    bad_f = ones.copy()
    bad_f[1, 2] = np.nan
    [mode] = check_health(_toy_state(q5, bad_f, [1, 1, 1, 1], [0, 0, 0, 0]), 2.0)
    assert mode == "non_finite_population"
    [mode] = check_health(_toy_state(q5, ones, [1, 0, 1, 1], [0, 0, 0, 0]), 2.0)
    assert mode == "non_positive_density"
    [mode] = check_health(_toy_state(q5, ones, [1, 1, 1, 1], [0, -2.5, 0, 0]), 2.0)
    assert mode == "runaway_velocity"
    # non-finite populations win over a bad density
    [mode] = check_health(_toy_state(q5, bad_f, [1, -1, 1, 1], [0, 0, 0, 0]), 2.0)
    assert mode == "non_finite_population"


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


def _whole_field_plateaus(snapshot, probe_low, probe_high):
    """extract_plateaus(...).as_dict() as computed before the windows were
    stacked: p = rho * theta over the whole field, one median per window."""
    lo, hi = -simulator.PLATEAU_WINDOW, simulator.PLATEAU_WINDOW + 1
    probes = (probe_low, probe_high)
    fields = {"rho": snapshot.rho, "u": snapshot.u, "theta": snapshot.theta,
              "p": snapshot.pressure_reported}
    out = {name: [float(np.median(field[probe + lo:probe + hi])) for probe in probes]
           for name, field in fields.items()}
    flat = [bool(abs(snapshot.rho[probe + lo:probe + hi] - mid).max()
                 <= simulator.FLAT_TOLERANCE * abs(mid))
            for probe, mid in zip(probes, out["rho"])]
    return {"probe_nodes": list(probes), **out, "window": simulator.PLATEAU_WINDOW,
            "flat": flat}


@pytest.mark.parametrize("seed", range(60))
def test_plateau_windows_read_like_the_whole_field_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 5e-324, -1.0, 1.0, 2.5, 1e300, -np.inf, np.inf, np.nan,
                     *rng.normal(size=6)])
    # a quarter of the snapshots hold no NaN, a quarter zeros of both signs
    # and a subnormal, and a quarter values within 1% of 1, which are flat
    pool = [pool, pool[~np.isnan(pool)], pool[:3],
            [1.0, 1.01, 0.99, 1 + 2 ** -52]][seed % 4]
    n = 60
    rho, u, theta = (rng.choice(pool, n) for _ in range(3))
    probes = sorted(int(p) for p in rng.integers(10, n - 10, size=2))
    snapshot = Snapshot(0, rho, u, theta)
    with np.errstate(all="ignore"):  # 0 * inf, 1e300 * 1e300
        got = extract_plateaus(snapshot, *probes).as_dict()
        want = _whole_field_plateaus(snapshot, *probes)

    def bits(report):
        return {key: [struct.pack("<d", v) if isinstance(v, float) else v for v in value]
                if isinstance(value, list) else value for key, value in report.items()}

    assert bits(got) == bits(want)


def test_probes_are_range_checked_only_against_a_snapshot(q21):
    # the default probes lie off a 44-node lattice, which still runs
    config = ShockTubeConfig(model=q21, expansion=TE3, nodes=44, interface=22, steps=2)
    with pytest.raises(ValueError, match="probe node 430 outside"):
        extract_plateaus(run(config).final, *config.probes)


@pytest.mark.parametrize("probes,bad", [((430.5, 650), "430.5"), ((430, True), "True")])
def test_extract_plateaus_rejects_non_integer_probes(probes, bad):
    # 430.5 failed slicing with a TypeError; True was range-checked as node 1
    with pytest.raises(ValueError, match=f"probe node must be an integer, got {bad}"):
        extract_plateaus(_piecewise_snapshot(), *probes)


def test_extract_plateaus_rejects_probes_near_the_edge():
    snap = _piecewise_snapshot()
    with pytest.raises(ValueError):
        extract_plateaus(snap, probe_low=5, probe_high=650)
    with pytest.raises(ValueError):
        extract_plateaus(snap, probe_low=430, probe_high=995)


# ------------------------------------------------------ runs and scans


def whole_lattice_rho(config, steps):
    """rho after each of the first `steps` steps of config's whole lattice."""
    state = init_shock_tube(config)
    rho = {}
    for n in range(1, steps + 1):
        rho[n] = step(state, config).rho.copy()
    return rho


def float_bits(*arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def test_snapshot_cadence(q5):
    config = ShockTubeConfig(model=q5, expansion=TE2, steps=35, snapshot_interval=10)
    rho = whole_lattice_rho(config, 35)
    with scored_fields() as fields:
        result = run(config)
    # recorded and scored every 10 steps and at the horizon; the last is kept
    assert float_bits(*fields) == float_bits(*(rho[n] for n in (10, 20, 30, 35)))
    assert result.final.step == 35 and result.steps_requested == 35
    assert float_bits(result.final.rho) == float_bits(rho[35])
    margin = config.band_width + 1
    assert float_bits(result.verdict.max_density_fluctuation) == float_bits(
        max(density_fluctuation(rho[n], margin) for n in (10, 20, 30, 35)))
    with scored_fields() as fields:
        even = run(replace(config, steps=30))
    assert float_bits(*fields) == float_bits(rho[10], rho[20], rho[30])
    assert even.final.step == 30
    with scored_fields() as fields:
        only_final = run(replace(config, steps=30, snapshot_interval=None))
    assert float_bits(*fields) == float_bits(rho[30])
    assert only_final.final.step == 30
    assert float_bits(only_final.final.rho) == float_bits(rho[30])
    assert np.array_equal(only_final.final.pressure_reported,
                          only_final.final.rho * only_final.final.theta)


def test_recording_every_step_keeps_one_snapshot(q7):
    # a run used to keep every recorded full-lattice snapshot until it
    # ended: 100 of them here, 2.4 MB per step at 1e5 nodes
    config = ShockTubeConfig(model=q7, expansion=TE3, nodes=20000, interface=10000,
                             steps=100)
    run(config)  # the model's equilibrium tables are built outside the trace

    def peak_bytes(interval):
        tracemalloc.start()
        try:
            run(replace(config, snapshot_interval=interval))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    snapshot = 3 * 8 * config.nodes  # rho, u and theta of the whole lattice
    once, every_step = peak_bytes(None), peak_bytes(1)
    # at most the snapshot kept and the one being recorded at a time
    assert every_step <= once + snapshot, (every_step - once) / snapshot


def test_instability_verdict_and_post_mortem(q5):
    config = ShockTubeConfig(model=q5, expansion=HE3, rho_bar=4.0, steps=80)
    rho = whole_lattice_rho(config, 35)
    with scored_fields() as fields:
        result = run(config)
    verdict = result.verdict
    assert not verdict.stable
    assert verdict.failure_mode == "non_positive_density"
    assert verdict.failure_step == 35
    # no snapshot interval: the failing state is kept for post-mortems,
    # unscored
    assert fields == [] and verdict.max_density_fluctuation == 0.0
    assert result.final.step == 35
    assert float_bits(result.final.rho) == float_bits(rho[35])
    assert (result.final.rho <= 0.0).any()
    # with an interval only healthy snapshots are recorded
    with scored_fields() as fields:
        sampled = run(replace(config, snapshot_interval=10))
    assert float_bits(*fields) == float_bits(rho[10], rho[20], rho[30])
    assert sampled.final.step == 30
    assert float_bits(sampled.final.rho) == float_bits(rho[30])
    assert sampled.verdict.failure_step == 35


def test_stability_scan_grid(q5):
    entries = stability_scan([("5", q5)], [HE3], [3.0, 4.0], steps=50)
    assert len(entries) == 2
    ok, bad = entries
    assert ok.model_name == bad.model_name == "5"
    assert ok.config.expansion.label == "hermite:3"
    assert ok.config == ShockTubeConfig(model=q5, expansion=HE3, rho_bar=3.0, tau=1.0,
                                        nodes=1000, interface=500, steps=50)
    assert bad.config == replace(ok.config, rho_bar=4.0)
    assert ok.verdict.stable and ok.verdict.failure_mode is None
    assert ok.verdict.max_density_fluctuation >= 0.0
    assert not bad.verdict.stable
    assert bad.verdict.failure_step == 35
    assert bad.verdict.failure_mode == "non_positive_density"
