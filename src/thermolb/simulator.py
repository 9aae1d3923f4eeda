"""Stream-collide shock-tube simulator on a regular 1-D lattice.

Lattice units: one time step per update, node spacing v2 / p_1, so the
population moving at speed v2 * p_i / p_1 hops exactly p_i whole nodes
per step.  Populations relax toward the truncated discrete equilibrium
with a single relaxation time tau (tau = 1 replaces f by f_eq exactly).

Each step runs as whole-array numpy operations over every node: the
collision, a slice-shift stream into a second buffer that then swaps
with the first (the wrapped-around columns land inside the boundary
bands, which are rewritten right after), the two band columns computed
once per run, and the moments.

Determinism: every arithmetic path is elementwise or reduces over the
velocity axis of one node in a fixed order, so results are bit-identical
across runs, and the equilibrium and the moments are organized over
+/- speed pairs, so they are exactly mirror symmetric under
(x, v, u) -> (-x, -v, -u).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .equilibrium import DiscreteEquilibrium, ExpansionSpec, expand
from .model_solver import VelocityModel
from .riemann import GasState, solve_riemann


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
    probe_low: int = 430
    probe_high: int = 650

    def __post_init__(self):
        if self.rho_bar <= 0:
            raise ValueError(f"dense-state density must be positive, got {self.rho_bar}")
        if self.high_side not in ("left", "right"):
            raise ValueError(f"high_side must be 'left' or 'right', got {self.high_side!r}")
        if self.tau < 0.5:
            raise ValueError(f"relaxation time below 1/2 is unstable by design: {self.tau}")
        band = int(self.model.ratios.p[-1])
        if self.nodes < 4 * band or not 0 < self.interface < self.nodes:
            raise ValueError("lattice too small for the boundary bands")

    @property
    def left_state(self) -> GasState:
        rho = self.rho_bar if self.high_side == "left" else 1.0
        return GasState(rho, 0.0, 1.0)

    @property
    def right_state(self) -> GasState:
        rho = self.rho_bar if self.high_side == "right" else 1.0
        return GasState(rho, 0.0, 1.0)

    @property
    def band_width(self) -> int:
        """Width of each fixed boundary band: the largest single-step hop."""
        return int(self.model.ratios.p[-1])

    @property
    def dx(self) -> float:
        return self.model.v2 / self.model.ratios.p[0]


@dataclass
class LatticeState:
    """Lattice fields of one run, built by init_shock_tube.

    step rebinds f to the kernel's second buffer every update and reuses
    the previous f as scratch on the next one, so a caller that keeps the
    populations across a step must copy state.f.
    """

    f: np.ndarray  # populations, shape (q, nodes)
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    step_count: int = 0
    kernel: _Kernel | None = None  # the run's tables and buffers

    def run_kernel(self) -> _Kernel:
        if self.kernel is None:
            raise ValueError("lattice state has no kernel; build it with "
                             "init_shock_tube")
        return self.kernel


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
    stable: bool
    failure_step: int | None = None
    failure_mode: str | None = None
    max_density_fluctuation: float = 0.0


class _Kernel:
    """Per-run compiled pieces: velocity tables, the equilibrium
    evaluator, the two boundary-band columns and the work buffers."""

    def __init__(self, config: ShockTubeConfig):
        model = config.model
        self.eq = DiscreteEquilibrium(model, expand(config.expansion))
        self.v_plus = self.eq.v_plus  # positive speeds
        self.v_plus_sq = self.v_plus * self.v_plus
        self.hops = model.hops()
        self.omega = 1.0 / config.tau
        ls, rs = config.left_state, config.right_state
        self.left_band = self.eq.populations(ls.rho, ls.u, ls.theta)[:, None]
        self.right_band = self.eq.populations(rs.rho, rs.u, rs.theta)[:, None]
        self.feq = np.empty((model.q, config.nodes))
        self.spare = np.empty((model.q, config.nodes))

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

    def collide(self, state: LatticeState) -> np.ndarray:
        """Post-collision populations.  tau = 1 gives the equilibrium
        itself, which is what (1 - 1) * f + 1 * feq equals for finite f;
        otherwise state.f is relaxed in place and returned."""
        feq = self.eq.populations(state.rho, state.u, state.theta, out=self.feq)
        if self.omega == 1.0:
            return feq
        state.f *= 1.0 - self.omega
        feq *= self.omega
        state.f += feq
        return state.f

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


def init_shock_tube(config: ShockTubeConfig) -> LatticeState:
    """Equilibrium initialization of the two-state tube, carrying the
    run's kernel, which is built here once."""
    kernel = _Kernel(config)
    q, n = config.model.q, config.nodes
    f = np.empty((q, n))
    f[:, :config.interface] = kernel.left_band
    f[:, config.interface:] = kernel.right_band
    out = LatticeState(f=f, rho=np.empty(n), u=np.empty(n), theta=np.empty(n),
                       kernel=kernel)
    kernel.macro_into(f, out.rho, out.u, out.theta)
    return out


def apply_boundaries(state: LatticeState, config: ShockTubeConfig) -> LatticeState:
    """Overwrite the first and last band_width nodes with the fixed
    equilibria of the respective side states (Dirichlet bands)."""
    b = config.band_width
    kernel = state.run_kernel()
    state.f[:, :b] = kernel.left_band
    state.f[:, -b:] = kernel.right_band
    return state


def step(state: LatticeState, config: ShockTubeConfig) -> LatticeState:
    """One collide-stream-boundary update.  Mutates and returns state;
    state.f is rebound to the other population buffer (see LatticeState)."""
    kernel = state.run_kernel()
    kernel.stream(kernel.collide(state), kernel.spare)
    state.f, kernel.spare = kernel.spare, state.f
    apply_boundaries(state, config)
    kernel.macro_into(state.f, state.rho, state.u, state.theta)
    state.step_count += 1
    return state


def default_step_count(config: ShockTubeConfig) -> int:
    """Horizon chosen so the shock front crosses ~35% of the lattice
    (staying clear of the far boundary band), computed from the exact
    Riemann shock speed.  Falls back to 200 steps for waveless setups."""
    try:
        sol = solve_riemann(config.left_state, config.right_state)
    except ValueError:
        return 200
    wave = sol.right_wave if config.high_side == "left" else sol.left_wave
    speed = abs(wave.head)
    if speed < 1e-12:
        return 200
    return max(1, round(0.35 * config.nodes * config.dx / speed))


def density_fluctuation(rho: np.ndarray, margin: int) -> float:
    """Mean squared second difference of the density over the interior;
    a flat or piecewise-smooth profile scores near zero, node-scale
    oscillation scores large."""
    core = rho[margin:len(rho) - margin]
    d2 = core[2:] - 2.0 * core[1:-1] + core[:-2]
    return float(np.mean(d2 * d2))


def check_health(state: LatticeState, max_speed: float) -> str | None:
    """None when healthy, otherwise a short failure-mode tag."""
    if not np.isfinite(state.f).all():
        return "non_finite_population"
    if not (state.rho > 0.0).all():
        return "non_positive_density"
    if not (np.abs(state.u) <= max_speed).all():
        return "runaway_velocity"
    return None


@dataclass(frozen=True)
class RunResult:
    config: ShockTubeConfig
    steps_requested: int
    snapshots: tuple[Snapshot, ...]
    verdict: StabilityVerdict

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]


def run(config: ShockTubeConfig) -> RunResult:
    """Run a shock tube to its horizon (or until instability).

    Snapshots are recorded every snapshot_interval steps (always the
    final healthy state).  The verdict reports the first failed health
    check, if any, and the largest density-fluctuation score seen in a
    recorded snapshot.
    """
    state = init_shock_tube(config)
    total = config.steps if config.steps is not None else default_step_count(config)
    margin = config.band_width + 1
    snapshots: list[Snapshot] = []
    fluct = 0.0

    def record(s: LatticeState):
        nonlocal fluct
        snap = Snapshot(step=s.step_count, rho=s.rho.copy(), u=s.u.copy(),
                        theta=s.theta.copy())
        snapshots.append(snap)
        fluct = max(fluct, density_fluctuation(snap.rho, margin))

    failure_step = None
    failure_mode = None
    for n in range(1, total + 1):
        step(state, config)
        mode = check_health(state, 1.5 * config.model.max_speed)
        if mode is not None:
            failure_step, failure_mode = n, mode
            break
        if config.snapshot_interval and n % config.snapshot_interval == 0:
            record(state)
    if failure_mode is None and (not snapshots or snapshots[-1].step != state.step_count):
        record(state)
    if failure_mode is not None and not snapshots:
        # keep the last computed (unhealthy) fields for post-mortems
        snapshots.append(Snapshot(step=state.step_count, rho=state.rho.copy(),
                                  u=state.u.copy(), theta=state.theta.copy()))
    verdict = StabilityVerdict(stable=failure_mode is None,
                               failure_step=failure_step,
                               failure_mode=failure_mode,
                               max_density_fluctuation=fluct)
    return RunResult(config=config, steps_requested=total,
                     snapshots=tuple(snapshots), verdict=verdict)


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


def extract_plateaus(snapshot: Snapshot, probe_low: int = 430,
                     probe_high: int = 650, window: int = 10,
                     flat_tolerance: float = 0.02) -> PlateauReport:
    """Median readings over +-window nodes around each probe.

    flat marks probes whose density spread within the window stays under
    flat_tolerance (relative); a False flag means the probe does not sit
    on a converged plateau and the reading is suspect.
    """
    n = len(snapshot.rho)
    for probe in (probe_low, probe_high):
        if not window <= probe < n - window:
            raise ValueError(f"probe node {probe} outside the lattice")

    def read(field: np.ndarray, probe: int) -> float:
        return float(np.median(field[probe - window:probe + window + 1]))

    def is_flat(probe: int) -> bool:
        w = snapshot.rho[probe - window:probe + window + 1]
        mid = float(np.median(w))
        return bool(abs(w - mid).max() <= flat_tolerance * abs(mid))

    rho = (read(snapshot.rho, probe_low), read(snapshot.rho, probe_high))
    u = (read(snapshot.u, probe_low), read(snapshot.u, probe_high))
    theta = (read(snapshot.theta, probe_low), read(snapshot.theta, probe_high))
    p = (read(snapshot.pressure_reported, probe_low),
         read(snapshot.pressure_reported, probe_high))
    return PlateauReport(probe_low=probe_low, probe_high=probe_high, rho=rho,
                         u=u, theta=theta, pressure_reported=p, window=window,
                         flat=(is_flat(probe_low), is_flat(probe_high)))


@dataclass(frozen=True)
class ScanEntry:
    model_name: str
    expansion: str
    rho_bar: float
    tau: float
    stable: bool
    failure_step: int | None
    failure_mode: str | None
    fluctuation: float
    steps: int


def stability_scan(model_specs: Iterable[tuple[str, VelocityModel]],
                   expansions: Iterable[ExpansionSpec],
                   rho_bars: Iterable[float], taus: Iterable[float] = (1.0,),
                   steps: int | None = None, nodes: int = 1000) -> list[ScanEntry]:
    """Grid of shock-tube runs, one after another; one verdict row per
    combination, in grid order."""
    expansions, rho_bars, taus = list(expansions), list(rho_bars), list(taus)
    entries = []
    for name, model in model_specs:
        for spec in expansions:
            for rho_bar in rho_bars:
                for tau in taus:
                    config = ShockTubeConfig(model=model, expansion=spec,
                                             rho_bar=rho_bar, tau=tau,
                                             nodes=nodes, steps=steps,
                                             interface=nodes // 2)
                    result = run(config)
                    entries.append(ScanEntry(
                        model_name=name, expansion=spec.label,
                        rho_bar=rho_bar, tau=tau,
                        stable=result.verdict.stable,
                        failure_step=result.verdict.failure_step,
                        failure_mode=result.verdict.failure_mode,
                        fluctuation=result.verdict.max_density_fluctuation,
                        steps=result.steps_requested))
    return entries
