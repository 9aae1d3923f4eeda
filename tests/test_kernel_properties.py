"""Property tests of the whole-array shock-tube kernel over random states.

Hypothesis draws per-node (rho, u, theta) with rho > 0 and theta > 0, a
catalog model and an expansion.  Exact properties (mirror symmetry, the
tau = 1 shortcut) are checked bitwise; conservation by collision is
checked to rounding.  The reference step below is the plain update rule:
the relaxation formula for every tau, np.roll streaming, the band
columns, then the pair-organized moments.
"""
import functools
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermolb import (CATALOG, ExpansionSpec, ShockTubeConfig, init_shock_tube,
                      moment_accuracy, resolve_catalog, step)

MODELS = [entry.name for entry in CATALOG]
EXPANSIONS = [ExpansionSpec("hermite", 3), ExpansionSpec("taylor", 3),
              ExpansionSpec("taylor", 5)]
NODES = 64  # at least four bands of the widest catalog model (q21: 11)

model = functools.cache(resolve_catalog)


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
    state.f[...] = state.kernel.eq.populations(rho, u, theta) * (1.0 + noise)
    state.kernel.macro_into(state.f, state.rho, state.u, state.theta)
    return state


def reference_step(state, config):
    """New (f, rho, u, theta) by the update rule, leaving state untouched."""
    kernel = state.kernel
    omega = 1.0 / config.tau
    feq = kernel.eq.populations(state.rho, state.u, state.theta)
    f = (1.0 - omega) * state.f + omega * feq
    for i, hop in enumerate(kernel.hops):
        f[i] = np.roll(f[i], hop)
    b = config.band_width
    f[:, :b] = kernel.left_band
    f[:, -b:] = kernel.right_band
    rho, u, theta = np.empty(NODES), np.empty(NODES), np.empty(NODES)
    kernel.macro_into(f, rho, u, theta)
    return f, rho, u, theta


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(MODELS), spec=st.sampled_from(EXPANSIONS),
       nodes=st.tuples(fields(16, 0.05, 20.0), fields(16, -1.0, 1.0),
                       fields(16, 0.05, 4.0)))
def test_negating_u_swaps_every_population_pair(name, spec, nodes):
    eq = init_shock_tube(ShockTubeConfig(model=model(name), expansion=spec)).kernel.eq
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
    after = state.kernel.collide(state)
    feq = state.kernel.eq.populations(state.rho, state.u, state.theta)
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
    mirrored.kernel.macro_into(mirrored.f, mirrored.rho, mirrored.u, mirrored.theta)
    step(state, config)
    step(mirrored, mirrored_config)
    for got, want in ((mirrored.f, swap_pairs(state.f)[:, ::-1]),
                      (mirrored.rho, state.rho[::-1]), (mirrored.u, -state.u[::-1]),
                      (mirrored.theta, state.theta[::-1])):
        assert np.array_equal(got, want, equal_nan=True)
