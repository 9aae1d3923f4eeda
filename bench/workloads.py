"""The benchmark's three workloads.

Each workload turns a seed into a config (the generated inputs), runs one
pass through the public CLI (``thermolb.cli.main``) in this process, and
checks what the pass wrote.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from thermolb import VelocityModel, gaussian_moment, moments, resolve_catalog
from thermolb.cli import main as cli_main
from thermolb.riemann import GasState, solve_riemann

BENCH_DIR = Path(__file__).resolve().parent

# Output bounds of the tube-large checks.  Plateau diffs follow acceptance
# criterion 6 (0.02); a 60-step q7 taylor:3 tube reads ~4e-3 and a mean
# field L1 of ~1e-4 over 1e5 nodes.
MAX_PLATEAU_DIFF = 0.02
MAX_FIELD_L1 = {"full": 1e-3, "quick": 2e-2}
# Stable and unstable dense-side densities of scan-small.  Within each set
# the executed node-updates of the whole grid differ by under 4%, so the
# seed changes the inputs but hardly the amount of work.
SCAN_STABLE = (2.6, 2.8, 3.0)
SCAN_UNSTABLE = (11.0, 11.5)
SCAN_VERDICTS = json.loads((BENCH_DIR / "scan_verdicts.json").read_text())
# Long ratio tuples for derive-sweep; each solves in 5-50 ms on a 2-core
# Intel Xeon sandbox.  Random tuples have a heavy tail (about 1 in 25 takes
# ~1 s in the rational-root search), which would make the cost depend on the
# seed, so the seed picks from this pool and the one heavy tuple below runs
# in every pass.
DERIVE_POOL = (
    "2,3,4,5,6,7,8,9,11", "2,4,5,7,10,11,12", "3,6,7,8,11,12",
    "3,6,7,8,9,10,11,12", "2,3,4,7,8,9,12", "2,4,5,7,8,10,11,12",
    "3,4,4.5,5.5,6.5,7", "2,3,4,5,9,10,11", "3,4,5,6,8,10,11,12",
    "1.5,2.5,4,5,5.5,6", "2,2.5,3,5.5,6,6.5", "3,5,7,8,9,12",
    "2,3,5,7,8,9,12", "4,5,6,7,8,9,11,12",
)
DERIVE_RATIONAL_ROOT_HEAVY = "2,3,6,8,9,12"  # ~0.6 s, nearly all of it candidate enumeration


class Checks:
    """Counts output checks; fail_rate = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(what)
        return ok

    def finite_json(self, path: Path, label: str):
        """Load a JSON output; any non-finite number in it is a failure."""
        data = json.loads(path.read_text())
        bad = _non_finite(data, label)
        self.check(not bad, f"non-finite values: {bad[:5]}")
        return data


def _non_finite(obj, where: str) -> list[str]:
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [where]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{where}[{i}]")]
    return []


class Runner:
    """Runs CLI subcommands in-process and times each one."""

    def __init__(self, workdir: Path, checks: Checks):
        self.workdir = workdir
        self.checks = checks
        self.seconds: dict[str, float] = defaultdict(float)

    def path(self, name: str) -> Path:
        return self.workdir / name

    def cli(self, argv: list[str]) -> None:
        start = time.perf_counter()
        code = cli_main([str(a) for a in argv])
        self.seconds[argv[0]] += time.perf_counter() - start
        self.checks.check(code == 0, f"{argv[0]} exited {code}: {argv}")


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------ tube-large

def tube_config(rng: random.Random, quick: bool, nproc: int) -> dict:
    nodes, steps = (2000, 40) if quick else (100_000, 60)
    rho_bar = rng.choice((2.5, 3.0, 3.5))
    high_side = rng.choice(("left", "right"))
    interface = nodes // 2 + rng.randint(-nodes // 50, nodes // 50)
    # probes at the middle of the exact solution's two star plateaus
    dense, dilute = GasState(rho_bar, 0.0, 1.0), GasState(1.0, 0.0, 1.0)
    left, right = (dense, dilute) if high_side == "left" else (dilute, dense)
    sol = solve_riemann(left, right)
    dx = resolve_catalog("q7").v2  # p_1 = 1 for q7
    probes = [interface + round(0.5 * (edge + sol.u_star) * steps / dx)
              for edge in (sol.left_wave.tail, sol.right_wave.tail)]
    return {
        "model": "q7", "kind": "taylor", "order": 3, "rho_bar": rho_bar,
        "nodes": nodes, "interface": interface, "high_side": high_side,
        "steps": steps, "workers": 1, "probe_low": probes[0],
        "probe_high": probes[1], "max_plateau_diff": MAX_PLATEAU_DIFF,
        "max_field_l1": MAX_FIELD_L1["quick" if quick else "full"],
        "setup": {"models": ["q7"], "expansions": ["taylor:3"],
                  "tubes": [{"model": "q7", "expansion": "taylor:3",
                             "rho_bar": rho_bar, "nodes": nodes,
                             "interface": interface, "high_side": high_side}]},
    }


def tube_pass(c: dict, r: Runner) -> dict:
    ck = r.checks
    snap, manifest, report = r.path("tube.csv"), r.path("tube.json"), r.path("compare.json")
    r.cli(["simulate", "--model", c["model"], "--kind", c["kind"], "--order", c["order"],
           "--rho-bar", c["rho_bar"], "--nodes", c["nodes"], "--interface", c["interface"],
           "--high-side", c["high_side"], "--steps", c["steps"], "--workers", c["workers"],
           "--csv", snap, "--manifest", manifest])
    r.cli(["compare", "--sim", snap, "--manifest", manifest,
           "--probe-low", c["probe_low"], "--probe-high", c["probe_high"],
           "--max-plateau-diff", c["max_plateau_diff"], "--out", report])
    m = ck.finite_json(manifest, "manifest")
    ck.check(m["verdict"]["stable"], f"tube unstable: {m['verdict']}")
    digest = hashlib.sha256(snap.read_bytes()).hexdigest()
    ck.check(digest == m["output_sha256"], "CSV sha256 differs from the manifest")
    cmp = ck.finite_json(report, "compare")
    for tag, fields in cmp["plateaus"].items():
        for name, v in fields.items():
            ck.check(v["diff"] <= c["max_plateau_diff"],
                     f"plateau {tag}.{name} diff {v['diff']}")
    for name, v in cmp["fields"].items():
        ck.check(v["l1"] <= c["max_field_l1"], f"field {name} L1 {v['l1']}")
    steps = m["final_step"]
    return {"steps": steps, "node_updates": steps * c["nodes"]}


# ------------------------------------------------------------ scan-small

def scan_config(rng: random.Random, quick: bool, nproc: int) -> dict:
    models = ["q7"] if quick else rng.sample(["q5", "q7", "q21"], 3)
    expansions = ["taylor:3"] if quick else rng.sample(["hermite:3", "taylor:3", "taylor:5"], 3)
    rho_bars = rng.sample([rng.choice(SCAN_STABLE), rng.choice(SCAN_UNSTABLE)], 2)
    taus = [1.0] if quick else rng.sample([1.0, 0.8], 2)
    stable_rho = min(rho_bars)
    return {
        "models": models, "expansions": expansions, "rho_bars": rho_bars,
        "taus": taus, "nodes": 1000, "workers": nproc,
        # north-star invariants: mirror symmetry and worker-count determinism
        "invariant": {"model": "q7", "kind": "taylor", "order": 3,
                      "rho_bar": stable_rho, "nodes": 1000,
                      "steps": 20 if quick else 100},
        "setup": {"models": models, "expansions": expansions,
                  "tubes": [{"model": m, "expansion": e, "rho_bar": stable_rho,
                             "nodes": 1000, "interface": 500, "high_side": "left"}
                            for m in models for e in expansions]},
    }


def scan_pass(c: dict, r: Runner) -> dict:
    ck = r.checks
    out = r.path("scan.csv")
    r.cli(["stability-scan", "--models", ",".join(c["models"]),
           "--expansions", ",".join(c["expansions"]),
           "--rho-bars", ",".join(map(repr, c["rho_bars"])),
           "--taus", ",".join(map(repr, c["taus"])),
           "--nodes", c["nodes"], "--workers", c["workers"], "--out", out])
    rows = _read_rows(out)
    grid = [(m, e, rho, tau) for m in c["models"] for e in c["expansions"]
            for rho in c["rho_bars"] for tau in c["taus"]]
    ck.check(len(rows) == len(grid), f"scan has {len(rows)} rows, expected {len(grid)}")
    executed = requested = 0
    for row, (m, e, rho, tau) in zip(rows, grid):
        key = f"{m} {e} {rho!r} {tau!r}"
        got = [row["stable"] == "1", row["failure_mode"] or None]
        ck.check((row["model"], row["expansion"], float(row["rho_bar"]), float(row["tau"]))
                 == (m, e, rho, tau), f"scan row out of grid order: {row}")
        ck.check(got == SCAN_VERDICTS.get(key), f"{key}: verdict {got}, "
                 f"expected {SCAN_VERDICTS.get(key)}")
        ck.check(math.isfinite(float(row["fluctuation"])), f"{key}: non-finite fluctuation")
        steps = int(row["steps"])
        requested += steps
        executed += steps if got[0] else int(row["failure_step"])
    inv = c["invariant"]
    base = ["simulate", "--model", inv["model"], "--kind", inv["kind"],
            "--order", inv["order"], "--rho-bar", inv["rho_bar"],
            "--nodes", inv["nodes"], "--interface", inv["nodes"] // 2,
            "--steps", inv["steps"]]
    snaps = {}
    for tag, side, workers in (("left", "left", 1), ("right", "right", 1),
                               ("workers", "left", c["workers"])):
        snaps[tag] = r.path(f"inv_{tag}.csv")
        r.cli(base + ["--high-side", side, "--workers", workers, "--csv", snaps[tag],
                      "--manifest", r.path(f"inv_{tag}.json")])
        ck.finite_json(r.path(f"inv_{tag}.json"), f"invariant {tag} manifest")
    ck.check(snaps["left"].read_bytes() == snaps["workers"].read_bytes(),
             f"--workers 1 and --workers {c['workers']} outputs differ")
    left, right = _read_rows(snaps["left"]), _read_rows(snaps["right"])
    n = len(left)
    mirrored = n == len(right) == inv["nodes"] and all(
        float(a[f]) == float(b[f]) for a, b in zip(left, reversed(right))
        for f in ("rho", "theta", "p")) and all(
        float(a["u"]) == -float(b["u"]) for a, b in zip(left, reversed(right)))
    ck.check(mirrored, "--high-side right is not the bitwise mirror of left")
    return {"runs": len(rows), "steps": executed, "steps_requested": requested,
            "node_updates": executed * c["nodes"] + 3 * inv["steps"] * inv["nodes"],
            "scan_node_updates": executed * c["nodes"]}


# ---------------------------------------------------------- derive-sweep

def _grid_len(grid: str) -> int:
    a, b, s = (Fraction(t) for t in grid.split(":"))
    return int((b - a) / s) + 1


def derive_config(rng: random.Random, quick: bool, nproc: int) -> dict:
    if quick:
        sweeps = [{"ratios": "?", "grid": "2:4:1/2"}]
        tuples = rng.sample(DERIVE_POOL, 1)
        verify = [("q7", "taylor:3")]
    else:
        # fixed grids: a grid's cost depends on its rationals, so the seed
        # does not pick them
        sweeps = [{"ratios": "2,3,?", "grid": "4:10:1/4"},
                  {"ratios": "2,?", "grid": "3:8:1/4"},
                  {"ratios": "?", "grid": "2:6:1/2", "residual": "0.3:1.5:25"}]
        tuples = [DERIVE_RATIONAL_ROOT_HEAVY] + rng.sample(DERIVE_POOL, 4)
        verify = [(m, e) for m in ("q3", "q5", "q7", "q11", "q21")
                  for e in ("hermite:3", "taylor:3", "taylor:5")]
        rng.shuffle(verify)
    return {
        "sweeps": sweeps,
        "derive": tuples,
        "verify": [list(v) for v in verify],
        # solve_model calls of one pass: one per grid point, per derive, per
        # catalog entry (6) and per verify (the model is re-derived)
        "solves": sum(_grid_len(s["grid"]) for s in sweeps) + len(tuples) + 6 + len(verify),
        "setup": {"models": sorted({m for m, _ in verify}),
                  "expansions": sorted({e for _, e in verify}), "tubes": []},
    }


def _check_quadrature(ck: Checks, model: VelocityModel, label: str) -> None:
    """Moments through order q+1 match the Gaussian to rounding:
    odd ones vanish exactly, even ones within 1e-9 of sum |w v^n|."""
    for n in range(model.q + 2):
        got = moments.discrete_moment(model, n)  # looked up per call, so traced
        if n % 2:
            ck.check(got == 0.0, f"{label}: odd moment {n} = {got}")
        else:
            scale = math.fsum(abs(w) * abs(v) ** n
                              for w, v in zip(model.weights(), model.velocities()))
            want = gaussian_moment(n).value
            ck.check(abs(got - want) <= 1e-9 * scale, f"{label}: moment {n} {got} vs {want}")


def derive_pass(c: dict, r: Runner) -> dict:
    ck = r.checks
    for i, s in enumerate(c["sweeps"]):
        out = r.path(f"sweep{i}.csv")
        argv = ["sweep", "--ratios", s["ratios"], "--grid", s["grid"], "--out", out]
        if "residual" in s:
            argv += ["--residual-grid", s["residual"], "--residual-out", r.path(f"res{i}.csv")]
        r.cli(argv)
        rows = _read_rows(out)
        ck.check(len(rows) == _grid_len(s["grid"]), f"sweep {s['ratios']}: {len(rows)} rows")
        for row in rows:
            for b in range(sum(k.endswith("_v2") for k in row)):
                v2 = row[f"branch{b}_v2"]
                if v2 == "nan":
                    continue
                w = [float(row[k]) for k in row if k.startswith(f"branch{b}_w")]
                ck.check(float(v2) > 0 and abs(w[0] + 2 * math.fsum(w[1:]) - 1) <= 1e-9,
                         f"sweep {s['ratios']} at {row['param']}: weights {w}")
        if "residual" in s:
            res = _read_rows(r.path(f"res{i}.csv"))
            ck.check(bool(res) and all(math.isfinite(float(x["residual"])) for x in res),
                     "sweep residual table is empty or non-finite")
    for i, ratios in enumerate(c["derive"]):
        out = r.path(f"derive{i}.json")
        r.cli(["derive", "--ratios", ratios, "--out", out])
        for j, d in enumerate(ck.finite_json(out, f"derive {ratios}")):
            _check_quadrature(ck, VelocityModel.from_json_dict(d), f"derive {ratios} #{j}")
    out = r.path("catalog.json")
    r.cli(["catalog", "--regenerate", "--out", out])
    for entry in ck.finite_json(out, "catalog"):
        model = VelocityModel.from_json_dict(entry["model"])
        ck.check(abs(model.v2 - entry["v2_reference"]) <= 1e-6,
                 f"catalog {entry['name']}: v2 {model.v2} vs {entry['v2_reference']}")
        _check_quadrature(ck, model, f"catalog {entry['name']}")
    for model, label in c["verify"]:
        kind, order = label.split(":")
        out = r.path("verify.json")
        r.cli(["verify", "--model", model, "--kind", kind, "--order", order, "--out", out])
        ck.check(ck.finite_json(out, f"verify {model} {label}")["passed"],
                 f"verify {model} {label} failed")
    return {"solves": c["solves"]}


# name -> (make_config(rng, quick, nproc), run_pass(config, runner));
# why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = {
    "tube-large": (tube_config, tube_pass),
    "scan-small": (scan_config, scan_pass),
    "derive-sweep": (derive_config, derive_pass),
}
