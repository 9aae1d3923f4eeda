"""Stream-collide shock-tube simulator on a regular 1-D lattice.

Lattice units: one time step per update, node spacing v2 / p_1, so the
population moving at speed v2 * p_i / p_1 hops exactly p_i whole nodes
per step.  Populations relax toward the truncated discrete equilibrium
with a single relaxation time tau (tau = 1 replaces f by f_eq exactly).

Each step runs as whole-array numpy operations over every node: the
collision, a slice-shift stream into a second buffer that then swaps
with the first (the wrapped-around columns land inside the boundary
bands, which are rewritten right after), the two band columns computed
once per run, and the moments.  One LatticeState holds a lattice's
fields, tables and work buffers.

A lattice may hold several tubes of one model, expansion and length laid
end to end, each with its own bands, relaxation time and horizon; what
one tube's stream spills into the next lands in that tube's band and is
overwritten.  stability_scan steps the rows of a model and expansion
this way, and run() is the one-tube case of the same runner; a _Tube
record holds each tube's snapshot rule and builds its RunResult.

run() steps only the light cone of the tube.  A population hops at
most band_width nodes per step, so after T steps a node has seen only
what lay within band_width * T of it; far from the interface and the two
band edges the tube stays exactly uniform.  A uniform run longer than
2 * band_width * T + 1 nodes (at least 2 * band_width + 1 and 5) is cut
to that length on a copy of the config, and each recorded snapshot is
expanded back to the full lattice, every cut node taking the values of
the far node kept in its run.

Determinism: every arithmetic path is elementwise or reduces over the
velocity axis of one node in a fixed order, so results are bit-identical
across runs and do not depend on which other nodes share the arrays
(which is why the shortened lattice gives the full lattice's bits), nor
on which process steps a scan group, and the equilibrium and the moments
are organized over +/- speed pairs, so they are exactly mirror symmetric
under (x, v, u) -> (-x, -v, -u).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .equilibrium import DiscreteEquilibrium, ExpansionSpec, expand
from .model_solver import VelocityModel
from .riemann import GasState, solve_riemann


# Most nodes stepped as one batched lattice.  Under the step's ufunc buffer
# the equilibrium costs least per node near 12000 nodes (q7 taylor:3 on a
# 2-core Xeon: 65 ns at 1000, 35 ns at 4000, 30 ns at 12000 and 56 ns at
# 1e5, where the arrays leave the cache).
_BATCH_NODES = 12000

# ufunc buffer (elements) of a step: at numpy's 8192, a (k, 1) column times
# an (n,) row takes the buffered iterator below ~2600 nodes, ~4x slower per
# element.  A step is elementwise or sums over velocities: no bit changes.
_UFUNC_BUFFER = 1024

_LEFT_PROBES = (430, 650)  # the plateau probe nodes of a tube dense on the left
PLATEAU_WINDOW = 10
FLAT_TOLERANCE = 0.02


def min_nodes(band_width: int) -> int:
    """Shortest lattice a shock tube runs on: four boundary bands, and
    three nodes inside density_fluctuation's band_width + 1 margins."""
    return max(4 * band_width, 2 * band_width + 5)


@dataclass(frozen=True)
class ShockTubeConfig:
    """Two-state shock tube with fixed equilibrium boundary bands.

    The dense state has density rho_bar, the dilute state density 1; both
    start at rest with unit temperature.  high_side selects which half of
    the lattice (below/above the interface node) carries the dense state.
    steps = None picks the horizon automatically so the shock crosses
    about 35% of the lattice.
    """

    model: VelocityModel
    expansion: ExpansionSpec
    rho_bar: float = 3.0
    nodes: int = 1000
    interface: int = 500
    high_side: str = "left"
    tau: float = 1.0
    steps: int | None = None
    snapshot_interval: int | None = None

    def __post_init__(self):
        for name in ("nodes", "interface", "steps", "snapshot_interval"):
            value = getattr(self, name)
            if value is None and name in ("steps", "snapshot_interval"):
                continue
            # ExpansionSpec.order's rule: an int, and not a bool
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.rho_bar < math.inf:
            raise ValueError(f"dense-state density must be positive and finite, "
                             f"got {self.rho_bar}")
        if self.high_side not in ("left", "right"):
            raise ValueError(f"high_side must be 'left' or 'right', got {self.high_side!r}")
        if self.steps is not None and self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if not 0.5 <= self.tau < math.inf:
            raise ValueError(f"relaxation time must be finite and >= 1/2 "
                             f"(below 1/2 is unstable by design), got {self.tau}")
        if self.snapshot_interval is not None and self.snapshot_interval < 1:
            raise ValueError(f"snapshot interval must be None or an integer >= 1, "
                             f"got {self.snapshot_interval!r}")
        least = min_nodes(self.band_width)
        if self.nodes < least or not 0 < self.interface < self.nodes:
            raise ValueError(f"lattice too small for the boundary bands: need "
                             f"nodes >= {least} and 0 < interface < nodes, got "
                             f"nodes {self.nodes}, interface {self.interface}")

    @property
    def left_state(self) -> GasState:
        rho = self.rho_bar if self.high_side == "left" else 1.0
        return GasState(rho, 0.0, 1.0)

    @property
    def right_state(self) -> GasState:
        rho = self.rho_bar if self.high_side == "right" else 1.0
        return GasState(rho, 0.0, 1.0)

    @property
    def probes(self) -> tuple[int, int]:
        """The two plateau probe nodes, ascending.  A tube dense on the
        right mirrors (x -> nodes - 1 - x) the left tube with interface
        nodes - interface, so its probes mirror that tube's."""
        low, high = _LEFT_PROBES
        if self.high_side == "left":
            return low, high
        return self.nodes - 1 - high, self.nodes - 1 - low

    @property
    def band_width(self) -> int:
        """Width of each fixed boundary band: the largest single-step hop."""
        return int(self.model.ratios.p[-1])

    @property
    def dx(self) -> float:
        return self.model.v2 / self.model.ratios.p[0]


@dataclass(frozen=True)
class Snapshot:
    step: int
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    @property
    def pressure_reported(self) -> np.ndarray:
        return self.rho * self.theta


@dataclass(frozen=True)
class StabilityVerdict:
    """A run's health: stable to its horizon, else its first failure's step
    and mode, and the largest fluctuation score of a healthy snapshot.  0
    means nothing was scored (a failure before the first snapshot, as in
    any failed scan row), not a flat profile."""

    stable: bool
    failure_step: int | None = None
    failure_mode: str | None = None
    max_density_fluctuation: float = 0.0


class LatticeState:
    """One lattice: the tubes of configs, which share model, expansion,
    nodes and interface, laid end to end in order.  It holds the fields,
    the velocity tables, the equilibrium evaluator, each tube's two
    boundary-band columns and relaxation rate, and the work buffers.

    step rebinds f to the spare buffer every update and reuses the previous
    f as scratch on the next one, so a caller that keeps the populations
    across a step must copy state.f.
    """

    def __init__(self, configs: Sequence[ShockTubeConfig]):
        first = configs[0]
        layout = (first.model, first.expansion, first.nodes, first.interface)
        if any((c.model, c.expansion, c.nodes, c.interface) != layout for c in configs):
            raise ValueError("tubes of one lattice must share model, expansion, "
                             "nodes and interface")
        self.eq = DiscreteEquilibrium(first.model, expand(first.expansion))
        self.v_plus = self.eq.v_plus  # positive speeds
        self.v_plus_sq = self.v_plus * self.v_plus
        self.hops = first.model.hops()
        self.nodes = first.nodes  # of each tube

        def band(states: list[GasState]) -> np.ndarray:  # one column per tube
            return self.eq.populations(*np.array([(s.rho, s.u, s.theta) for s in states]).T)

        self.left_band = band([c.left_state for c in configs])
        self.right_band = band([c.right_state for c in configs])
        self.omega = np.array([1.0 / c.tau for c in configs])
        # equilibrium initialization: each tube's two resting states
        q, cut = len(self.hops), first.interface
        f = np.empty((q, self.tubes, self.nodes))
        f[:, :, :cut] = self.left_band[:, :, None]
        f[:, :, cut:] = self.right_band[:, :, None]
        self.f = f.reshape(q, -1)  # populations, tube after tube
        self.feq, self.spare = np.empty_like(self.f), np.empty_like(self.f)
        self.rho, self.u, self.theta = (np.empty(self.f.shape[1]) for _ in range(3))
        self.macro_into(self.f, self.rho, self.u, self.theta)
        self.step_count = 0

    @property
    def tubes(self) -> int:
        return len(self.omega)

    def keep(self, kept: np.ndarray) -> None:
        """Cut every tube whose entry in the boolean kept is False out of
        the fields, the tables and the work buffers."""
        def cut(a: np.ndarray) -> np.ndarray:
            lead = a.shape[:-1]
            return a.reshape(*lead, self.tubes, self.nodes)[..., kept, :].reshape(*lead, -1)

        self.f, self.feq, self.spare, self.rho, self.u, self.theta = map(
            cut, (self.f, self.feq, self.spare, self.rho, self.u, self.theta))
        self.left_band = self.left_band[:, kept]
        self.right_band = self.right_band[:, kept]
        self.omega = self.omega[kept]

    def macro_into(self, f: np.ndarray, rho: np.ndarray, u: np.ndarray,
                   theta: np.ndarray) -> None:
        """Moments of every node, written in place.

        Sums are organized over +/- speed pairs so that the odd moment of
        a mirrored population set is the exact float negation.
        """
        fp = f[1::2]
        fm = f[2::2]
        pair_sum = fp + fm
        pair_diff = fp - fm
        r = f[0] + pair_sum.sum(axis=0)
        with np.errstate(all="ignore"):
            pair_diff *= self.v_plus[:, None]
            mom = pair_diff.sum(axis=0)
            pair_sum *= self.v_plus_sq[:, None]
            ene = pair_sum.sum(axis=0)
            uu = mom / r
            th = 2.0 * (ene / r - uu * uu)
        rho[:] = r
        u[:] = uu
        theta[:] = th

    def collide(self) -> np.ndarray:
        """Post-collision populations, (1 - omega) * f + omega * feq with each
        tube's own omega, in place in f; feq itself when every tube has tau = 1.
        A tau = 1 tube of a mixed lattice gets feq's bits as well (f is finite)
        but for a -0.0 in feq, which rho < 1 and an underflowing u * u can give,
        and which may turn +0.0 there (README, Determinism, point 2)."""
        feq = self.eq.populations(self.rho, self.u, self.theta, out=self.feq)
        if (self.omega == 1.0).all():
            return feq
        f, e = (a.reshape(len(self.hops), self.tubes, self.nodes) for a in (self.f, feq))
        f *= (1.0 - self.omega)[:, None]
        e *= self.omega[:, None]
        f += e
        return self.f

    def stream(self, post: np.ndarray, dst: np.ndarray) -> None:
        """Shift every population row by its hop from post into dst.  The
        first or last |hop| columns of a row keep stale values; they lie
        inside the boundary bands, which the caller rewrites next."""
        for i, hop in enumerate(self.hops):
            if hop > 0:
                dst[i, hop:] = post[i, :-hop]
            elif hop < 0:
                dst[i, :hop] = post[i, -hop:]
            else:
                dst[i] = post[i]


def init_shock_tube(*configs: ShockTubeConfig) -> LatticeState:
    """Equilibrium initialization of a two-state tube.  Several configs of
    one model, expansion, node count and interface give one lattice holding
    their tubes end to end, in order."""
    return LatticeState(configs)


def apply_boundaries(state: LatticeState, config: ShockTubeConfig) -> LatticeState:
    """Overwrite the first and last band_width nodes of every tube with the
    fixed equilibria of its side states (Dirichlet bands)."""
    b = config.band_width
    f = state.f.reshape(len(state.hops), state.tubes, state.nodes)
    f[:, :, :b] = state.left_band[:, :, None]
    f[:, :, -b:] = state.right_band[:, :, None]
    return state


def step(state: LatticeState, config: ShockTubeConfig) -> LatticeState:
    """One collide-stream-boundary update of the lattice config describes
    (config.nodes counts every tube of a batched lattice).  Mutates and
    returns state; state.f is rebound to the other population buffer (see
    LatticeState)."""
    saved = np.setbufsize(_UFUNC_BUFFER)
    try:
        state.stream(state.collide(), state.spare)
        state.f, state.spare = state.spare, state.f
        apply_boundaries(state, config)
        state.macro_into(state.f, state.rho, state.u, state.theta)
    finally:
        np.setbufsize(saved)
    state.step_count += 1
    return state


def default_step_count(config: ShockTubeConfig) -> int:
    """Horizon chosen so the shock front crosses ~35% of the lattice
    (staying clear of the far boundary band), computed from the exact
    Riemann shock speed."""
    sol = solve_riemann(config.left_state, config.right_state)
    wave = sol.right_wave if config.high_side == "left" else sol.left_wave
    return max(1, round(0.35 * config.nodes * config.dx / abs(wave.head)))


def density_fluctuation(rho: np.ndarray, margin: int) -> float:
    """Mean squared second difference of the density over the interior;
    a flat or piecewise-smooth profile scores near zero, node-scale
    oscillation scores large (inf, quietly, past densities ~1e154).  The
    score of a reversed profile is the same to the bit: the difference
    adds the two outer nodes first, and the mean is taken over the squares
    plus their reversal, which is a palindrome."""
    core = rho[margin:len(rho) - margin]
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = (core[2:] + core[:-2]) - 2.0 * core[1:-1]
        sq = d2 * d2
        return float(np.mean(sq + sq[::-1]) * 0.5)


def check_health(state: LatticeState, max_speed: float) -> list[str | None]:
    """One failure-mode tag per tube of state's lattice, in order: None for
    a healthy tube, else the first test its own nodes fail, of finite
    populations, positive density and |u| <= max_speed.  Each test runs
    once over the whole lattice; only a failed one is split per tube."""
    modes: list[str | None] = [None] * state.tubes
    for mode, ok in (("non_finite_population", np.isfinite(state.f)),
                     ("non_positive_density", state.rho > 0.0),
                     ("runaway_velocity", np.abs(state.u) <= max_speed)):
        if not ok.all():
            tube_ok = ok.reshape(-1, state.tubes, state.nodes).all(axis=(0, 2))
            for i in np.flatnonzero(~tube_ok):
                modes[i] = modes[i] or mode
    return modes


@dataclass(frozen=True)
class RunResult:
    config: ShockTubeConfig
    steps_requested: int
    final: Snapshot
    verdict: StabilityVerdict


def _light_cone(config: ShockTubeConfig, steps: int) -> tuple[ShockTubeConfig, np.ndarray]:
    """The lattice run() steps for a horizon of `steps`, and the index that
    maps each node of config's lattice to the stepped node holding its values.

    A population hops at most band_width nodes per step, so after T steps a
    node has seen only the initial columns and band forcing within
    band_width * T of it.  Inside the uniform run between the left band and
    the interface, or between the interface and the right band, every node
    farther than reach >= band_width * T from both ends of its run holds
    the same values at every step up to T.  A run longer than 2 * reach + 1
    keeps its first reach nodes, one such far node and its last reach
    nodes; each node cut out maps to the far node kept."""
    b, nodes = config.band_width, config.nodes
    # reach >= max(b, 2) keeps a cut lattice at least min_nodes(b) nodes
    # long, also with one run empty
    reach = max(b * steps, b, 2)
    mid = min(max(config.interface, b), nodes - b)
    kept = np.ones(nodes, dtype=bool)
    for lo, hi in ((b, mid), (mid, nodes - b)):
        if hi - lo > 2 * reach + 1:
            kept[lo + reach + 1:hi - reach] = False
    index = np.cumsum(kept) - 1
    lattice = replace(config, nodes=int(index[-1]) + 1,
                      interface=int(index[config.interface]), steps=steps)
    return lattice, index


def run(config: ShockTubeConfig) -> RunResult:
    """Run a shock tube to its horizon (or until instability).

    Snapshots are recorded by _Tube.due's rule: every snapshot_interval
    steps and at the horizon while healthy, each scored and then replacing
    the one before, so that a run keeps one.  The verdict reports the first
    failed health check or non-finite fluctuation score, and the largest
    score of a healthy snapshot; a tube that fails before its first
    snapshot keeps its unhealthy fields as final, unscored (0).

    The steps run on the lattice of _light_cone, whose nodes equal those of
    config's lattice bit for bit, so final, the health verdict (which asks
    whether any node fails) and the scores are those of the whole lattice.
    """
    return _run_tubes([config])[0]


@dataclass
class _Tube:
    """One config's run through _run_tubes: its horizon, the last snapshot
    recorded, the largest fluctuation score so far and the first failed
    health check as (step, mode)."""

    config: ShockTubeConfig
    horizon: int
    final: Snapshot | None = None
    score: float = 0.0
    failure: tuple[int, str] | None = None

    def due(self, k: int) -> bool:
        """Whether the fields after k steps are recorded: every
        snapshot_interval steps and at the horizon while healthy.  After a
        failure, the failing fields are kept only if nothing was recorded,
        and they are not scored."""
        if self.failure is not None:
            return self.final is None
        interval = self.config.snapshot_interval
        return k == self.horizon or bool(k and interval and k % interval == 0)

    def result(self) -> RunResult:
        at, mode = self.failure or (None, None)
        verdict = StabilityVerdict(mode is None, at, mode, self.score)
        return RunResult(self.config, self.horizon, self.final, verdict)


def _run_tubes(configs: Sequence[ShockTubeConfig]) -> list[RunResult]:
    """run() of each config, for configs of one model, expansion, node
    count and interface, stepped as batched lattices of up to _BATCH_NODES
    nodes (at least one tube each).

    Every tube is cut to the light cone of the longest horizon, which is
    exact for the shorter ones too.  Arithmetic is per node, so a tube's
    bits do not depend on the tubes beside it, and each tube's health is
    checked on its own nodes.  A tube leaves the lattice at its horizon or
    its first failed check."""
    if not configs:
        return []
    tubes = [_Tube(c, c.steps if c.steps is not None else default_step_count(c))
             for c in configs]
    lattice, index = _light_cone(configs[0], max(t.horizon for t in tubes))
    n = lattice.nodes
    max_speed = 1.5 * lattice.model.max_speed
    margin = lattice.band_width + 1
    per_batch = max(1, _BATCH_NODES // n)
    for first in range(0, len(tubes), per_batch):
        live = tubes[first:first + per_batch]  # the tubes on the lattice, in order
        state = init_shock_tube(*(replace(t.config, nodes=n, interface=lattice.interface)
                                  for t in live))
        stepped = replace(lattice, nodes=len(live) * n)
        while True:
            k = state.step_count
            for pos, tube in enumerate(live):
                if tube.due(k):
                    rows = slice(pos * n, (pos + 1) * n)
                    tube.final = Snapshot(k, state.rho[rows][index], state.u[rows][index],
                                          state.theta[rows][index])
                    if tube.failure is None:  # post-mortem fields are not scored
                        score = density_fluctuation(tube.final.rho, margin)
                        if math.isfinite(score):
                            tube.score = max(tube.score, score)
                        else:
                            tube.failure = (k, "non_finite_fluctuation")
            kept = np.array([t.failure is None and k < t.horizon for t in live])
            if not kept.all():
                if not kept.any():
                    break
                state.keep(kept)
                live = [t for t, alive in zip(live, kept) if alive]
                stepped = replace(lattice, nodes=len(live) * n)
            step(state, stepped)
            for tube, mode in zip(live, check_health(state, max_speed)):
                if mode is not None:
                    tube.failure = (state.step_count, mode)
    return [t.result() for t in tubes]


@dataclass(frozen=True)
class PlateauReport:
    """Post-shock plateau readings at the two probe nodes."""

    probe_low: int
    probe_high: int
    rho: tuple[float, float]
    u: tuple[float, float]
    theta: tuple[float, float]
    pressure_reported: tuple[float, float]
    window: int
    flat: tuple[bool, bool]

    def as_dict(self) -> dict:
        return {
            "probe_nodes": [self.probe_low, self.probe_high],
            "rho": list(self.rho),
            "u": list(self.u),
            "theta": list(self.theta),
            "p": list(self.pressure_reported),
            "window": self.window,
            "flat": list(self.flat),
        }


def check_probes(nodes: int, probes: Iterable[int]) -> None:
    """ValueError unless each probe is an integer node whose
    +-PLATEAU_WINDOW nodes lie on a lattice of `nodes` nodes."""
    for probe in probes:
        if isinstance(probe, bool) or not isinstance(probe, int):
            raise ValueError(f"probe node must be an integer, got {probe!r}")
        if not PLATEAU_WINDOW <= probe < nodes - PLATEAU_WINDOW:
            raise ValueError(f"probe node {probe} outside the lattice")


def extract_plateaus(snapshot: Snapshot, probe_low: int,
                     probe_high: int) -> PlateauReport:
    """Median readings over +-PLATEAU_WINDOW nodes around each probe
    (a config's are config.probes).

    flat marks probes whose density spread within the window stays under
    FLAT_TOLERANCE (relative); a False flag means the probe does not sit
    on a converged plateau and the reading is suspect.
    """
    check_probes(len(snapshot.rho), (probe_low, probe_high))
    # (rho, u, theta, p) x (low, high) x window; the window is odd, so each
    # median is one of its values and a NaN gives NaN
    window = np.array([[field[probe - PLATEAU_WINDOW:probe + PLATEAU_WINDOW + 1]
                        for probe in (probe_low, probe_high)]
                       for field in (snapshot.rho, snapshot.u, snapshot.theta)])
    window = np.concatenate((window, [window[0] * window[2]]))
    rho, u, theta, p = np.median(window, axis=2).tolist()
    flat = np.abs(window[0] - np.array(rho)[:, None]).max(axis=1) <= (
        FLAT_TOLERANCE * np.abs(rho))
    return PlateauReport(probe_low=probe_low, probe_high=probe_high, rho=tuple(rho),
                         u=tuple(u), theta=tuple(theta), pressure_reported=tuple(p),
                         window=PLATEAU_WINDOW, flat=tuple(flat.tolist()))


@dataclass(frozen=True)
class ScanEntry:
    """One row of stability_scan: its config, whose steps the scan has
    settled, and the verdict run() gives that config."""

    model_name: str
    config: ShockTubeConfig
    verdict: StabilityVerdict


def _scan_group(group: tuple[str, list[ShockTubeConfig]]) -> list[ScanEntry]:
    """The rows of one model and expansion, stepped by _run_tubes."""
    return [ScanEntry(group[0], r.config, r.verdict) for r in _run_tubes(group[1])]


def _group_cost(group: tuple[str, list[ShockTubeConfig]]) -> int:
    """Rough stepping cost of a scan group: q * longest horizon * tubes."""
    return max((c.steps for c in group[1]), default=0) * sum(c.model.q for c in group[1])


def _scan_groups(groups: list[tuple[str, list[ShockTubeConfig]]],
                 workers: int) -> list[list[ScanEntry]]:
    """_scan_group of each group, in order, on up to `workers` forked
    processes that each take one group at a time; in this process when
    that is one process or the platform cannot fork (a spawned child would
    re-import numpy).  A worker that dies raises BrokenProcessPool, where
    multiprocessing.Pool would wait for it forever."""
    size = min(workers, len(groups))
    if size > 1:
        import multiprocessing  # only here, so that a serial scan never loads it
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(size, mp_context=context) as pool, \
                    warnings.catch_warnings():
                # Python 3.12+ warns on fork() while numpy's idle BLAS threads
                # are alive; a child runs only elementwise numpy code
                warnings.filterwarnings("ignore", ".*use of fork\\(\\) may lead to "
                                        "deadlocks", DeprecationWarning)
                return list(pool.map(_scan_group, groups))
    return list(map(_scan_group, groups))


def stability_scan(model_specs: Iterable[tuple[str, VelocityModel]],
                   expansions: Iterable[ExpansionSpec],
                   rho_bars: Iterable[float], taus: Iterable[float] = (1.0,),
                   steps: int | None = None, nodes: int = 1000,
                   workers: int = 1) -> list[ScanEntry]:
    """Grid of shock-tube runs; one verdict row per combination, in grid
    order.  Every configuration and the worker count are checked before the
    first run starts.  The rows of one model and expansion, over every
    rho_bar and tau, step together as batched lattices (see _run_tubes);
    each row gets the verdict run() gives its config.

    The groups run on up to `workers` forked processes, costliest first,
    where the platform can fork and there is more than one group; otherwise
    they run one after another in this process.  A group's rows do not
    depend on the process that steps it."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"worker count must be an integer >= 1, got {workers!r}")
    expansions, rho_bars, taus = list(expansions), list(rho_bars), list(taus)
    groups = [(name, [ShockTubeConfig(model=model, expansion=spec, rho_bar=rho_bar,
                                      tau=tau, nodes=nodes, steps=steps,
                                      interface=nodes // 2)
                      for rho_bar in rho_bars for tau in taus])
              for name, model in model_specs for spec in expansions]
    if steps is None:  # each row's horizon, settled here once, not again in a worker
        groups = [(name, [replace(c, steps=default_step_count(c)) for c in configs])
                  for name, configs in groups]
    order = sorted(range(len(groups)), key=lambda i: _group_cost(groups[i]),
                   reverse=True)
    by_group = dict(zip(order, _scan_groups([groups[i] for i in order], workers)))
    return [row for i in range(len(groups)) for row in by_group[i]]
