"""Property tests of the whole-array shock-tube kernel over random states.

Hypothesis draws per-node (rho, u, theta) with rho > 0 and theta > 0, a
catalog model and an expansion.  Exact properties (mirror symmetry, one
relaxation rule that gives a tau = 1 tube its equilibrium) are checked
bitwise; conservation by collision and the moment-accuracy guarantee are
checked to rounding.  The reference step
below is the plain update rule: the relaxation formula for every tau,
np.roll streaming, the band columns, then the pair-organized moments.
The reference run steps the whole lattice, which run() does not: it
steps a light-cone copy and expands its snapshots, and must give the
same bits: in the snapshot it keeps, and in every density field it scores
along the way.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import scored_fields, tube_health
from thermolb import ExpansionSpec, ShockTubeConfig, resolve_catalog, simulator
from thermolb.equilibrium import expand, moment_accuracy, verify_moments
from thermolb.model_solver import CATALOG
from thermolb.simulator import (Snapshot, _light_cone, _run_tubes, apply_boundaries,
                                check_health, default_step_count,
                                density_fluctuation, init_shock_tube, min_nodes,
                                run, stability_scan, step)

MODELS = [entry.name for entry in CATALOG]
EXPANSIONS = [ExpansionSpec("hermite", 3), ExpansionSpec("taylor", 3),
              ExpansionSpec("taylor", 5)]
NODES = 64  # at least four bands of the widest catalog model (q21: 11)

model = resolve_catalog


def fields(n, low, high):
    return arrays(np.float64, n, elements=st.floats(low, high))


def lattice(n=NODES):
    """Random per-node states and a multiplicative perturbation that takes
    the populations off equilibrium."""
    return st.tuples(fields(n, 0.05, 20.0), fields(n, -0.5, 0.5),
                     fields(n, 0.3, 2.0), fields(n, -0.05, 0.05))


def swap_pairs(f):
    """Populations under v -> -v: the rest row stays, each +/- pair swaps."""
    out = np.empty_like(f)
    out[0] = f[0]
    out[1::2] = f[2::2]
    out[2::2] = f[1::2]
    return out


def random_state(config, draw):
    rho, u, theta, noise = draw
    state = init_shock_tube(config)
    state.f[...] = state.eq.populations(rho, u, theta) * (1.0 + noise)
    state.macro_into(state.f, state.rho, state.u, state.theta)
    return state


def reference_step(state, config):
    """New (f, rho, u, theta) by the update rule, leaving state untouched."""
    omega = 1.0 / config.tau
    feq = state.eq.populations(state.rho, state.u, state.theta)
    f = (1.0 - omega) * state.f + omega * feq
    for i, hop in enumerate(state.hops):
        f[i] = np.roll(f[i], hop)
    b = config.band_width
    f[:, :b] = state.left_band
    f[:, -b:] = state.right_band
    rho, u, theta = np.empty(NODES), np.empty(NODES), np.empty(NODES)
    state.macro_into(f, rho, u, theta)
    return f, rho, u, theta


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       nodes=st.tuples(fields(16, 0.05, 20.0), fields(16, -1.0, 1.0),
                       fields(16, 0.05, 4.0)))
def test_negating_u_swaps_every_population_pair(name, spec, nodes):
    eq = init_shock_tube(ShockTubeConfig(model=model(name), expansion=spec)).eq
    rho, u, theta = nodes
    assert np.array_equal(eq.populations(rho, -u, theta),
                          swap_pairs(eq.populations(rho, u, theta)))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       tau=st.sampled_from([1.0, 0.8]), draw=lattice())
def test_step_equals_the_relaxation_formula_bitwise(name, spec, tau, draw):
    config = ShockTubeConfig(model=model(name), expansion=spec, tau=tau,
                             nodes=NODES, interface=NODES // 2)
    state = random_state(config, draw)
    want = reference_step(state, config)
    step(state, config)
    for got, expected in zip((state.f, state.rho, state.u, state.theta), want):
        assert np.array_equal(got, expected, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       draw=lattice())
def test_collision_conserves_mass_momentum_and_energy(name, spec, draw):
    m = model(name)
    assume(moment_accuracy(m, spec) >= 2)  # feq carries mass, momentum and energy
    config = ShockTubeConfig(model=m, expansion=spec, tau=0.8, nodes=NODES,
                             interface=NODES // 2)
    state = random_state(config, draw)
    v = m.velocities()[:, None]
    before = state.f.copy()
    after = state.collide()
    feq = state.eq.populations(state.rho, state.u, state.theta)
    for power in (0, 1, 2):
        weight = v ** power
        scale = (np.abs(weight * before) + np.abs(weight * feq)).sum(axis=0)
        drift = (weight * after).sum(axis=0) - (weight * before).sum(axis=0)
        assert (np.abs(drift) <= 1e-12 * scale).all(), power


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       tau=st.sampled_from([1.0, 0.8]), draw=lattice())
def test_one_step_of_a_mirrored_state_is_the_exact_mirror(name, spec, tau, draw):
    config = ShockTubeConfig(model=model(name), expansion=spec, tau=tau,
                             nodes=NODES, interface=NODES // 2)
    mirrored_config = replace(config, high_side="right")
    state = random_state(config, draw)
    mirrored = init_shock_tube(mirrored_config)
    mirrored.f[...] = swap_pairs(state.f)[:, ::-1]
    mirrored.macro_into(mirrored.f, mirrored.rho, mirrored.u, mirrored.theta)
    step(state, config)
    step(mirrored, mirrored_config)
    for got, want in ((mirrored.f, swap_pairs(state.f)[:, ::-1]),
                      (mirrored.rho, state.rho[::-1]), (mirrored.u, -state.u[::-1]),
                      (mirrored.theta, state.theta[::-1])):
        assert np.array_equal(got, want, equal_nan=True)


# lattice lengths on both sides of ~2600 nodes, below which numpy's default
# ufunc buffer sends broadcast products through its buffered iterator; 8
# nodes fit one q3 tube only
BUFFER_NODES = [8, 1000, 2000, 2600, 3000, 12000]
TUBE_TAUS = [(1.0,), (1.0, 1.0), (0.8,), (0.8, 0.6), (1.0, 0.8), (0.8, 1.0, 0.6, 1.0)]
NUMPY_BUFFER = 8192  # numpy's default ufunc buffer size, in elements


def kernel_calls(state, config):
    """step's body, called directly at the caller's ufunc buffer size."""
    state.stream(state.collide(), state.spare)
    state.f, state.spare = state.spare, state.f
    apply_boundaries(state, config)
    state.macro_into(state.f, state.rho, state.u, state.theta)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       nodes=st.sampled_from(BUFFER_NODES), taus=st.sampled_from(TUBE_TAUS),
       seed=st.integers(0, 2**32 - 1))
@example(name="q3", spec=EXPANSIONS[1], nodes=8, taus=(1.0,), seed=0)
@example(name="q3", spec=EXPANSIONS[2], nodes=8, taus=(0.8,), seed=1)
@example(name="q21", spec=EXPANSIONS[2], nodes=2000, taus=(1.0, 0.8), seed=2)
@example(name="q7", spec=EXPANSIONS[0], nodes=12000, taus=TUBE_TAUS[-1], seed=3)
def test_step_gives_the_bits_of_its_kernel_calls_at_numpys_buffer(name, spec, nodes,
                                                                  taus, seed):
    # step runs under its own small ufunc buffer, which must not change a bit
    m = model(name)
    per_tube = nodes // len(taus)
    assume(per_tube >= min_nodes(int(m.ratios.p[-1])))
    configs = [ShockTubeConfig(model=m, expansion=spec, tau=tau, nodes=per_tube,
                               interface=per_tube // 2) for tau in taus]
    lattice = replace(configs[0], nodes=per_tube * len(taus))
    rng = np.random.default_rng(seed)
    n = lattice.nodes
    rho, u, theta = rng.uniform(0.05, 20.0, n), rng.uniform(-0.5, 0.5, n), \
        rng.uniform(0.3, 2.0, n)
    noise = rng.uniform(-0.05, 0.05, (m.q, n))
    got, want = (init_shock_tube(*configs) for _ in range(2))
    for state in (got, want):
        state.f[...] = state.eq.populations(rho, u, theta) * (1.0 + noise)
        state.macro_into(state.f, state.rho, state.u, state.theta)
    assert np.getbufsize() == NUMPY_BUFFER != simulator._UFUNC_BUFFER
    for _ in range(2):  # the second step works in the swapped buffers
        step(got, lattice)
        kernel_calls(want, lattice)
        assert bits(got.f, got.rho, got.u, got.theta) == \
            bits(want.f, want.rho, want.u, want.theta)


# finite extremes of f, where (1 - 1) * f is -0.0 or +0.0: the largest
# floats, a negative zero and the smallest subnormal
EXTREMES = (np.finfo(float).max, -np.finfo(float).max, -0.0,
            np.finfo(float).smallest_subnormal)


def negative_zeros(a):
    return np.signbit(a) & (a == 0.0)


@pytest.mark.parametrize("taus", [(1.0, 0.8), (0.8, 1.0, 1.0), (1.0, 0.6, 1.0, 0.8)])
def test_the_tau_one_tubes_of_a_mixed_lattice_take_the_equilibrium_bitwise(taus):
    # one rule relaxes every tube; for finite f and an equilibrium without
    # -0.0, (1 - 1) * f + 1 * feq is feq bit for bit
    q, n = 7, 100
    state = init_shock_tube(*(ShockTubeConfig(model=model("q7"), expansion=EXPANSIONS[1],
                                              tau=tau, nodes=n, interface=n // 2)
                              for tau in taus))
    while taus:  # then again with the first tube cut out of the lattice
        for row in range(1, 5):  # every extreme in every tube, on rows 1 to 4
            state.f[row] = np.resize(np.roll(EXTREMES, row), state.f.shape[1])
        f = state.f.reshape(q, len(taus), n).copy()
        feq = state.eq.populations(state.rho, state.u, state.theta).reshape(q, len(taus), n)
        with np.errstate(under="ignore"):  # (1 - omega) * the smallest subnormal
            post = state.collide().reshape(q, len(taus), n)
            for i, tau in enumerate(taus):
                omega = 1.0 / tau
                want = feq[:, i] if tau == 1.0 else \
                    (1.0 - omega) * f[:, i] + omega * feq[:, i]
                assert bits(post[:, i]) == bits(want)
        state.keep(np.arange(len(taus)) > 0)
        taus = taus[1:]


def test_the_runner_collides_only_finite_populations_of_positive_density(monkeypatch):
    # the premise of the exactness of one relaxation rule: a tube is cut out
    # of the lattice at its first failed check, before it is collided again,
    # so every collide sees finite f, rho > 0 and an equilibrium without -0.0
    collide = simulator.LatticeState.collide
    seen = []

    def checked(state):
        feq = state.eq.populations(state.rho, state.u, state.theta)
        assert np.isfinite(state.f).all() and (state.rho > 0.0).all()
        assert not negative_zeros(feq).any()
        seen.append(set(state.omega.tolist()))
        return collide(state)

    monkeypatch.setattr(simulator.LatticeState, "collide", checked)
    rows = stability_scan([(name, model(name)) for name in ("q5", "q7", "q21")],
                          EXPANSIONS, [0.3, 3.0, 11.0, 13.3], [1.0, 0.8, 0.6], nodes=400)
    assert {"non_positive_density", "runaway_velocity"} <= {
        r.verdict.failure_mode for r in rows}
    assert any(1.0 in omegas and len(omegas) > 1 for omegas in seen)  # mixed lattices


# a u whose square underflows; theta - 1 is 0 or at least 1.1e-16 in size,
# so its own powers never underflow, only its products with such a u
TINY_U = st.floats(-1e-150, 1e-150)
NEAR_ONE = st.floats(-1e-15, 1e-15)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       rho=st.floats(0.0, 1e300, exclude_min=True), u=st.floats(-2.0, 2.0) | TINY_U,
       t=st.floats(-0.95, 3.0) | NEAR_ONE)
@example(name="q3", spec=EXPANSIONS[0], rho=0.4, u=2.2e-162, t=2.0)
def test_the_equilibrium_is_negative_zero_only_where_rho_underflows_it(name, spec,
                                                                        rho, u, t):
    # populations accumulates from +0.0 and forms E +/- O, neither of which
    # makes a -0.0; only the closing product with rho can, where a negative
    # population times rho < 1 rounds to zero (the example: q3 hermite:3's
    # rest population at theta 3 is -4.9e-324 before the product)
    eq = init_shock_tube(ShockTubeConfig(model=model(name), expansion=spec)).eq
    state = [np.array([x]) for x in (u, 1.0 + t)]
    unit = eq.populations(np.ones(1), *state)
    assert not negative_zeros(unit).any()
    with np.errstate(under="ignore", over="ignore"):
        got = eq.populations(np.array([rho]), *state)
        assert bits(got) == bits(unit * rho)
    assert (negative_zeros(got) <= ((unit < 0.0) & (rho < 1.0))).all()


@pytest.fixture
def caller_buffer():
    """A ufunc buffer size of the test's own, restored afterwards."""
    size = 3 * NUMPY_BUFFER
    saved = np.setbufsize(size)
    yield size
    np.setbufsize(saved)


def test_the_callers_ufunc_buffer_survives_runs_scans_and_a_failed_step(
        caller_buffer, monkeypatch):
    config = ShockTubeConfig(model=model("q7"), expansion=EXPANSIONS[1], tau=0.8,
                             nodes=200, interface=100, steps=5)
    run(config)
    assert np.getbufsize() == caller_buffer
    stability_scan([("q7", model("q7"))], EXPANSIONS[:2], [3.0, 11.0], [1.0, 0.8],
                   steps=5, nodes=200, workers=1)
    assert np.getbufsize() == caller_buffer
    seen = []

    def fail(self, *args):
        seen.append(np.getbufsize())
        raise RuntimeError("moments failed")

    state = init_shock_tube(config)
    monkeypatch.setattr(simulator.LatticeState, "macro_into", fail)
    with pytest.raises(RuntimeError, match="moments failed"):
        step(state, config)
    assert seen == [simulator._UFUNC_BUFFER]
    assert np.getbufsize() == caller_buffer


POISONS = ("nan", "inf", "-inf", "rho", "u")


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(MODELS), tubes=st.integers(1, 6))
@example(data=None, name="q5", tubes=3)  # every poison on one node of the last tube
def test_check_health_answers_each_tube_as_its_own_slice(data, name, tubes):
    m = model(name)
    n = min_nodes(int(m.ratios.p[-1]))
    config = ShockTubeConfig(model=m, expansion=EXPANSIONS[1], nodes=n, interface=n // 2)
    state = init_shock_tube(*[config] * tubes)
    max_speed = 1.5 * m.max_speed
    state.u[n // 2::n] = max_speed  # one node of each tube at the healthy limit
    if data is None:
        targets = [(tubes - 1, n // 2, set(POISONS))]
    else:  # (tube, node in it, poisons set there), several per node or tube
        targets = data.draw(st.lists(st.tuples(st.integers(0, tubes - 1),
                                               st.integers(0, n - 1),
                                               st.sets(st.sampled_from(POISONS), min_size=1)),
                                     max_size=5), label="targets")
    for tube, node, poisons in targets:
        at = tube * n + node
        for poison in poisons:
            if poison == "rho":
                state.rho[at] = data.draw(st.floats(max_value=0.0)) if data else -1.0
            elif poison == "u":
                state.u[at] = data.draw(st.floats(min_value=max_speed, exclude_min=True)
                                        | st.floats(max_value=-max_speed, exclude_max=True)
                                        ) if data else math.inf
            else:
                row = data.draw(st.integers(0, m.q - 1)) if data else 0
                state.f[row, at] = float(poison)
    assert check_health(state, max_speed) == \
        tube_health(state.f, state.rho, state.u, max_speed, tubes)


def term_scale(m, model, poly, rho, u, theta):
    """Sum of |term| over the terms of sum_i v_i**m f_i^eq: the size that
    the rounding error of either side of the moment check scales with."""
    t = theta - 1.0
    return rho * math.fsum(
        abs(w * float(c) * v ** (m + kv) * u ** ku * t ** kt)
        for v, w in zip(model.velocities().tolist(),
                        model.normalized_weights_full().tolist())
        for (kv, ku, kt), c in poly.terms.items())


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       rho=st.floats(0.1, 10.0), u=st.floats(-0.5, 0.5), theta=st.floats(0.5, 1.5))
def test_guaranteed_moments_hold_at_random_subsonic_states(name, spec, rho, u, theta):
    # every moment m <= moment_accuracy of the discrete equilibrium equals
    # that of the truncated Maxwell-Boltzmann density (Shan, Yuan & Chen,
    # J. Fluid Mech. 2006); |u| <= 0.5 stays below the slowest sound speed
    m = model(name)
    m_max = moment_accuracy(m, spec)
    assume(m_max >= 0)
    poly = expand(spec)
    tolerance = 1e-12 * max(term_scale(k, m, poly, rho, u, theta)
                            for k in range(m_max + 1))
    report = verify_moments(m, poly, samples=[(rho, u, theta)], tolerance=tolerance)
    assert report.m_max == m_max and len(report.checks) == m_max + 1
    assert report.passed, (report.max_abs_error, tolerance)


def dense_run(config):
    """(scored, final, failure step, failure mode, fluctuation) of stepping
    config's whole lattice, with run()'s snapshot and health rules: scored
    lists the rho of every snapshot recorded, in order, and final is the
    last Snapshot, or that of the failing state when none was recorded."""
    total = config.steps if config.steps is not None else default_step_count(config)
    state = init_shock_tube(config)
    snapshots, failure = [], (None, None)
    for n in range(1, total + 1):
        step(state, config)
        [mode] = check_health(state, 1.5 * config.model.max_speed)
        if mode is not None:
            failure = (n, mode)
            break
        if config.snapshot_interval and n % config.snapshot_interval == 0:
            snapshots.append((n, state.rho.copy(), state.u.copy(), state.theta.copy()))
    if failure[1] is None and (not snapshots or snapshots[-1][0] != state.step_count):
        snapshots.append((state.step_count, state.rho.copy(), state.u.copy(),
                          state.theta.copy()))
    scored = [rho for _, rho, _, _ in snapshots]
    fluct = max([0.0] + [density_fluctuation(rho, config.band_width + 1)
                         for rho in scored])
    if failure[1] is not None and not snapshots:
        snapshots.append((state.step_count, state.rho.copy(), state.u.copy(),
                          state.theta.copy()))
    return scored, Snapshot(*snapshots[-1]), *failure, fluct


def bits(*arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def snapshot_bits(snap):
    return (snap.step, *bits(snap.rho, snap.u, snap.theta))


def test_run_equals_stepping_the_whole_lattice_bitwise():
    drawn = []

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), name=st.sampled_from(MODELS),
           spec=st.sampled_from(EXPANSIONS), tau=st.sampled_from([1.0, 0.8, 0.6]),
           high_side=st.sampled_from(["left", "right"]),
           rho_bar=st.floats(0.3, 14.0))
    # shortened, stable; shortened, unstable (q5 hermite:3 fails at step 11)
    @example(data=None, name="q7", spec=EXPANSIONS[1], tau=1.0, high_side="left",
             rho_bar=3.0)
    @example(data=None, name="q5", spec=EXPANSIONS[0], tau=1.0, high_side="right",
             rho_bar=11.0)
    def check(data, name, spec, tau, high_side, rho_bar):
        m = model(name)
        band = int(m.ratios.p[-1])
        if data is None:
            nodes, interface, steps, interval = 20000, 9000, 40, 7
        else:
            nodes = data.draw(st.integers(min_nodes(band), 20000), label="nodes")
            interface = data.draw(st.integers(1, nodes - 1), label="interface")
            # the default horizon only on lattices short enough to step it
            steps = data.draw(st.integers(0, 30) if nodes > 400
                              else st.one_of(st.none(), st.integers(0, 30)),
                              label="steps")
            interval = data.draw(st.one_of(st.none(), st.integers(1, 12)),
                                 label="snapshot_interval")
        config = ShockTubeConfig(model=m, expansion=spec, rho_bar=rho_bar,
                                 nodes=nodes, interface=interface,
                                 high_side=high_side, tau=tau, steps=steps,
                                 snapshot_interval=interval)
        scored, final, failure_step, failure_mode, fluct = dense_run(config)
        with scored_fields() as fields:
            result = run(config)
        assert result.config is config
        assert bits(*fields) == bits(*scored)
        assert snapshot_bits(result.final) == snapshot_bits(final)
        verdict = result.verdict
        assert verdict.stable == (failure_mode is None)
        assert (verdict.failure_step, verdict.failure_mode) == (failure_step, failure_mode)
        assert bits(verdict.max_density_fluctuation) == bits(fluct)
        lattice, _ = _light_cone(config, result.steps_requested)
        drawn.append((lattice.nodes < nodes, verdict.stable))

    check()
    assert any(shortened for shortened, _ in drawn)
    assert any(not shortened for shortened, _ in drawn)
    assert any(shortened and not stable for shortened, stable in drawn)


@st.composite
def scan_lattices(draw):
    """(nodes, steps) for every catalog model: the default horizon only on
    lattices short enough to step it, and long lattices the cone cuts."""
    nodes = draw(st.one_of(st.integers(min_nodes(11), 400), st.integers(401, 20000)))
    steps = draw(st.integers(0, 30) if nodes > 400
                 else st.one_of(st.none(), st.integers(0, 30)))
    return nodes, steps


def test_scan_rows_equal_run_per_row_bitwise(monkeypatch):
    """stability_scan steps each model and expansion as batched lattices;
    every row must be what run() gives its config, bit for bit."""
    drawn = []

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
           rho_bars=st.lists(st.floats(0.3, 14.0), min_size=1, max_size=3),
           taus=st.lists(st.sampled_from([1.0, 0.8, 0.6]), min_size=1, max_size=2,
                         unique=True),
           lattice=scan_lattices(), batch=st.sampled_from([1, 800, 12000]))
    # default horizons: q21 taylor:5 at rho 11 holds at tau 1, fails at 0.8
    @example(name="q21", spec=EXPANSIONS[2], rho_bars=[11.0, 3.0], taus=[1.0, 0.8],
             lattice=(1000, None), batch=12000)
    # cut lattices, both failure modes, two tubes per batch
    @example(name="q5", spec=EXPANSIONS[0], rho_bars=[3.0, 11.0], taus=[1.0, 0.8],
             lattice=(20000, 30), batch=800)
    def check(name, spec, rho_bars, taus, lattice, batch):
        m = model(name)
        nodes, steps = lattice
        monkeypatch.setattr(simulator, "_BATCH_NODES", batch)
        rows = stability_scan([(name, m)], [spec], rho_bars, taus, steps=steps,
                              nodes=nodes)
        configs = [ShockTubeConfig(model=m, expansion=spec, rho_bar=rho_bar, tau=tau,
                                   nodes=nodes, interface=nodes // 2, steps=steps)
                   for rho_bar in rho_bars for tau in taus]
        assert len(rows) == len(configs)
        for row, config in zip(rows, configs):
            result = run(config)
            verdict = result.verdict
            assert row.model_name == name
            assert row.config == replace(config, steps=result.steps_requested)
            assert row.verdict == verdict
            assert bits(row.verdict.max_density_fluctuation) == \
                bits(verdict.max_density_fluctuation)
        cut = _light_cone(configs[0], max(r.config.steps for r in rows))[0].nodes < nodes
        drawn.append((cut, steps is None, {r.verdict.stable for r in rows},
                      {r.verdict.failure_mode for r in rows},
                      {c.tau == 1.0 for c in configs}))

    check()
    assert any(cut for cut, *_ in drawn) and any(not cut for cut, *_ in drawn)
    assert any(default for _, default, *_ in drawn)
    assert any(stable == {True, False} and taus == {True, False}
               for _, _, stable, _, taus in drawn)
    modes = set().union(*(m for _, _, _, m, _ in drawn))
    assert {"non_positive_density", "runaway_velocity"} <= modes


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       tubes=st.lists(st.tuples(st.floats(0.3, 14.0), st.sampled_from([1.0, 0.8]),
                                st.sampled_from(["left", "right"]),
                                st.integers(0, 30),
                                st.one_of(st.none(), st.integers(1, 12))),
                      min_size=1, max_size=4),
       nodes=st.integers(min_nodes(11), 3000), interface=st.floats(0.05, 0.95))
def test_batched_tubes_equal_their_own_runs_bitwise(name, spec, tubes, nodes, interface):
    # tubes with their own side, horizon and snapshot interval on one lattice
    configs = [ShockTubeConfig(model=model(name), expansion=spec, rho_bar=rho_bar,
                               tau=tau, high_side=side, steps=steps,
                               snapshot_interval=interval, nodes=nodes,
                               interface=min(max(round(interface * nodes), 1), nodes - 1))
               for rho_bar, tau, side, steps, interval in tubes]
    with scored_fields() as batched:
        results = _run_tubes(configs)
    # the batch scores the fields that the tubes' own runs score, each
    # tube's in its own order (checked against run() and dense_run below)
    alone = []
    for got, config in zip(results, configs):
        with scored_fields() as fields:
            want = run(config)
        alone += fields
        assert got.config is config and got.steps_requested == want.steps_requested
        assert snapshot_bits(got.final) == snapshot_bits(want.final)
        assert got.verdict.stable == want.verdict.stable
        assert (got.verdict.failure_step, got.verdict.failure_mode) == \
            (want.verdict.failure_step, want.verdict.failure_mode)
        assert bits(got.verdict.max_density_fluctuation) == \
            bits(want.verdict.max_density_fluctuation)
        # run() shares _run_tubes' recording rules, so also check them
        # against the independent whole-lattice stepper
        scored, final, failure_step, failure_mode, fluct = dense_run(config)
        assert bits(*fields) == bits(*scored)
        assert snapshot_bits(got.final) == snapshot_bits(final)
        assert (got.verdict.failure_step, got.verdict.failure_mode) == \
            (failure_step, failure_mode)
        assert bits(got.verdict.max_density_fluctuation) == bits(fluct)
    assert sorted(bits(*batched)) == sorted(bits(*alone))


@pytest.mark.parametrize("interface", [1, 29])
@pytest.mark.parametrize("steps", [0, 1])
def test_a_cut_lattice_keeps_the_config_minimum(interface, steps):
    # with the interface on a band edge one run is empty; cutting the other
    # to 2 * band_width * max(steps, 1) + 1 nodes would leave q3 a 5-node
    # lattice, below ShockTubeConfig's minimum of 7
    config = ShockTubeConfig(model=model("q3"), expansion=EXPANSIONS[1], nodes=30,
                             interface=interface, steps=steps)
    lattice, _ = _light_cone(config, steps)
    assert lattice.nodes == 7
    scored, final, failure_step, failure_mode, fluct = dense_run(config)
    with scored_fields() as fields:
        result = run(config)
    assert bits(*fields) == bits(*scored)
    assert snapshot_bits(result.final) == snapshot_bits(final)
    assert (result.verdict.failure_step, result.verdict.failure_mode) == \
        (failure_step, failure_mode)
    assert bits(result.verdict.max_density_fluctuation) == bits(fluct)
