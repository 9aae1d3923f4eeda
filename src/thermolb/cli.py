"""Command-line interface.

Subcommands cover the full pipeline: derive models, sweep model families,
dump expansion tables, verify moment guarantees, run shock tubes, solve
reference Riemann problems, compare the two, scan stability, and list the
built-in model catalog.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure,
3 result violates a requested expectation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from ._ratpoly import eval_float
from .equilibrium import ExpansionSpec, expand, verify_moments
from .model_solver import (CATALOG, RESIDUAL_TOLERANCE, NoRealSolutionError,
                           RatioTuple, VelocityModel, _moment_residual,
                           build_polynomial, resolve_catalog, solve_model)
from .riemann import GasState, VacuumError, sample_profile, solve_riemann
from .simulator import (ShockTubeConfig, Snapshot, extract_plateaus, run,
                        stability_scan)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_EXPECTATION = 3

WORKERS_ENV_VAR = "THERMOLB_WORKERS"


class UsageError(ValueError):
    pass


def worker_count(explicit: int | None = None) -> int:
    """The worker count from --workers, else THERMOLB_WORKERS, else 1,
    checked to be >= 1.  Every run uses one core whatever the count."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"worker count must be >= 1, got {explicit}")
        return explicit
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {n}")
    return n


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_json(path: str | None, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_lines(header: list[str], rows) -> str:
    out = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, float):
                cells.append(_fmt(cell))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _parse_ratios(text: str | None) -> list[Fraction]:
    if not text:
        return []
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad ratio list {text!r}: {exc}") from exc


def _parse_expansion(kind: str, order: int, theta0: str = "1") -> ExpansionSpec:
    aliases = {"taylor": "taylor", "te": "taylor", "hermite": "hermite", "he": "hermite"}
    k = aliases.get(kind.lower())
    if k is None:
        raise UsageError(f"unknown expansion kind {kind!r} (use taylor or hermite)")
    try:
        return ExpansionSpec(k, order, Fraction(theta0))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc


def _parse_expansion_label(label: str) -> ExpansionSpec:
    try:
        kind, order = label.split(":")
        return _parse_expansion(kind, int(order))
    except ValueError as exc:
        raise UsageError(f"bad expansion label {label!r} (expected kind:order)") from exc


def _load_model(ref: str) -> VelocityModel:
    """A model reference is a catalog name or a path to a derive JSON file.

    A file's model is used as given, once its weights and speeds are seen
    to reproduce the Gaussian moments it was derived from."""
    for entry in CATALOG:
        if entry.name == ref:
            return resolve_catalog(ref)
    path = Path(ref)
    if not path.exists():
        raise UsageError(
            f"model {ref!r} is neither a catalog name ({[e.name for e in CATALOG]}) "
            "nor an existing JSON file")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"model file {ref} is not valid JSON: {exc}") from exc
    if isinstance(data, list):
        if not data:
            raise UsageError(f"model file {ref} holds an empty list")
        data = data[0]
    model = VelocityModel.from_json_dict(data)
    residual = _moment_residual(model)
    if not residual <= RESIDUAL_TOLERANCE:
        raise UsageError(f"model file {ref} has moment residual {residual:.3g}, "
                         f"above the tolerance {RESIDUAL_TOLERANCE:g}")
    return model


def _parse_state(text: str) -> GasState:
    try:
        rho, u, theta = (float(tok) for tok in text.split(","))
        return GasState(rho, u, theta)
    except ValueError as exc:
        raise UsageError(f"bad state {text!r} (expected rho,u,theta): {exc}") from exc


def _parse_grid(text: str) -> list[Fraction]:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, stepv = Fraction(start_s), Fraction(stop_s), Fraction(step_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad grid {text!r} (expected start:stop:step)") from exc
    if stepv <= 0 or stop < start:
        raise UsageError(f"bad grid {text!r}: need step > 0 and stop >= start")
    out = []
    x = start
    while x <= stop:
        out.append(x)
        x += stepv
    return out


# ---------------------------------------------------------------- derive

def cmd_derive(args) -> int:
    ratios_ext = _parse_ratios(args.ratios)
    expected = (args.q - 3) // 2 if args.q else len(ratios_ext)
    if args.q is not None:
        if args.q < 3 or args.q % 2 == 0:
            raise UsageError(f"q must be an odd integer >= 3, got {args.q}")
        if len(ratios_ext) != expected:
            raise UsageError(
                f"q = {args.q} needs {expected} ratio(s) beyond the base speed, "
                f"got {len(ratios_ext)}")
    try:
        ratios = RatioTuple.from_ratios(ratios_ext)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    models = solve_model(ratios, ghost_threshold=args.ghost_threshold)
    _emit_json(args.out, [m.to_json_dict() for m in models])
    return EXIT_OK


# ----------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    tokens = [t.strip() for t in args.ratios.split(",")] if args.ratios else ["?"]
    if tokens.count("?") != 1:
        raise UsageError("exactly one ratio slot must be '?' to sweep")
    free = tokens.index("?")
    fixed = [Fraction(t) for i, t in enumerate(tokens) if i != free]
    grid = _parse_grid(args.grid)
    q = 2 * (len(tokens) + 1) + 1
    rows = []
    max_branches = 0
    results = []
    for g in grid:
        ratio_val = 1 / g if args.inverse_grid else g
        vals = fixed[:free] + [ratio_val] + fixed[free:]
        try:
            ratios = RatioTuple.from_ratios(vals)
            models = solve_model(ratios)
        except ValueError:
            ratios, models = None, []
        results.append((g, ratios, models))
        max_branches = max(max_branches, len(models))
    k = (q - 1) // 2
    header = ["param"]
    for b in range(max_branches):
        header.append(f"branch{b}_v2")
        header += [f"branch{b}_w{i}" for i in range(k + 1)]
    for g, _, models in results:
        row: list = [float(g)]
        for b in range(max_branches):
            if b < len(models):
                m = models[b]
                row.append(m.v2)
                row.extend(m.weights_normalized)
            else:
                row.extend([float("nan")] * (k + 2))
        rows.append(row)
    _write_text(args.out, _csv_lines(header, rows))
    if args.residual_grid:
        if not args.residual_out:
            raise UsageError("--residual-grid needs --residual-out")
        try:
            lo_s, hi_s, n_s = args.residual_grid.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError as exc:
            raise UsageError(f"bad residual grid {args.residual_grid!r}") from exc
        res_rows = []
        for g, ratios, _ in results:
            if ratios is None:
                continue
            poly = build_polynomial(ratios)
            lead = poly[-1]
            for v2 in np.linspace(lo, hi, n):
                res_rows.append([float(g), float(v2),
                                 eval_float(poly, v2 * v2) / lead])
        _write_text(args.residual_out,
                    _csv_lines(["param", "v2", "residual"], res_rows))
    return EXIT_OK


# ---------------------------------------------------------------- expand

def cmd_expand(args) -> int:
    spec = _parse_expansion(args.kind, args.order, args.theta0)
    poly = expand(spec)
    rows = [list(r) + [spec.kind, spec.order] for r in poly.table_rows()]
    _write_text(args.out, _csv_lines(
        ["v_power", "u_power", "t_power", "numerator", "denominator", "kind", "N"],
        rows))
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    model = _load_model(args.model)
    spec = _parse_expansion(args.kind, args.order)
    report = verify_moments(model, expand(spec), tolerance=args.tolerance)
    payload = {
        "model_q": model.q,
        "expansion": spec.label,
        "m_max": report.m_max,
        "tolerance": report.tolerance,
        "max_abs_error": report.max_abs_error,
        "passed": report.passed,
        "checks": len(report.checks),
    }
    _emit_json(args.out, payload)
    return EXIT_OK if report.passed else EXIT_EXPECTATION


# -------------------------------------------------------------- simulate

_SNAPSHOT_HEADER = "X,rho,u,theta,p\n"
_SNAPSHOT_ROW = "%d,%.17g,%.17g,%.17g,%.17g\n"


def _snapshot_csv(rho: np.ndarray, u: np.ndarray, theta: np.ndarray) -> str:
    """Per-node profile table; the same bytes _csv_lines gives for these
    rows, written with one format string per row."""
    rows = zip(range(len(rho)), rho.tolist(), u.tolist(), theta.tolist(),
               (rho * theta).tolist())
    return _SNAPSHOT_HEADER + "".join(_SNAPSHOT_ROW % row for row in rows)


def _config_dict(config: ShockTubeConfig, steps: int) -> dict:
    return {
        "model": config.model.to_json_dict(),
        "expansion": {"kind": config.expansion.kind, "order": config.expansion.order,
                      "theta0": str(config.expansion.theta0)},
        "rho_bar": config.rho_bar,
        "nodes": config.nodes,
        "interface": config.interface,
        "high_side": config.high_side,
        "tau": config.tau,
        "steps": steps,
        "snapshot_interval": config.snapshot_interval,
        "dx": config.dx,
    }


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    spec = _parse_expansion(args.kind, args.order)
    config = ShockTubeConfig(model=model, expansion=spec, rho_bar=args.rho_bar,
                             nodes=args.nodes, interface=args.interface,
                             high_side=args.high_side, tau=args.tau,
                             steps=args.steps,
                             snapshot_interval=args.snapshot_interval)
    result = run(config)
    final = result.final
    csv_text = _snapshot_csv(final.rho, final.u, final.theta)
    if args.csv:
        _write_text(args.csv, csv_text)
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    plateaus = extract_plateaus(result.final, config.probe_low, config.probe_high)
    manifest = {
        "command": "simulate",
        "version": __version__,
        "config": _config_dict(config, result.steps_requested),
        "verdict": {
            "stable": result.verdict.stable,
            "failure_step": result.verdict.failure_step,
            "failure_mode": result.verdict.failure_mode,
            "max_density_fluctuation": result.verdict.max_density_fluctuation,
        },
        "plateaus": plateaus.as_dict(),
        "final_step": result.final.step,
        "output_sha256": digest,
    }
    if args.manifest:
        _emit_json(args.manifest, manifest)
    if not args.csv and not args.manifest:
        _emit_json(None, manifest)
    if args.expect_stable and not result.verdict.stable:
        print(f"expectation violated: run unstable at step "
              f"{result.verdict.failure_step} ({result.verdict.failure_mode})",
              file=sys.stderr)
        return EXIT_EXPECTATION
    if not args.expect_stable and not result.verdict.stable and not args.allow_unstable:
        print(f"numerical failure: {result.verdict.failure_mode} at step "
              f"{result.verdict.failure_step}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --------------------------------------------------------------- riemann

def cmd_riemann(args) -> int:
    left = _parse_state(args.left)
    right = _parse_state(args.right)
    try:
        sol = solve_riemann(left, right, gamma=args.gamma)
    except VacuumError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = {
        "gamma": sol.gamma,
        "p_star_physical": sol.p_star,
        "u_star": sol.u_star,
        "rho_star_left": sol.rho_star_left,
        "rho_star_right": sol.rho_star_right,
        "theta_star_left": sol.theta_star_left,
        "theta_star_right": sol.theta_star_right,
        "p_star_reported": 2.0 * sol.p_star,
        "left_wave": {"kind": sol.left_wave.kind, "head": sol.left_wave.head,
                      "tail": sol.left_wave.tail},
        "right_wave": {"kind": sol.right_wave.kind, "head": sol.right_wave.head,
                       "tail": sol.right_wave.tail},
        "iterations": sol.iterations,
    }
    _emit_json(args.out, payload)
    if args.csv:
        if args.time is None or args.time <= 0:
            raise UsageError("--csv needs a positive --time")
        x = (np.arange(args.nodes) - args.interface) * args.dx
        _write_text(args.csv, _snapshot_csv(*sample_profile(sol, x, args.time)))
    return EXIT_OK


# --------------------------------------------------------------- compare

def _read_snapshot_csv(path: str):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header != _SNAPSHOT_HEADER.rstrip("\n").split(","):
        raise UsageError(f"{path}: unexpected snapshot header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def cmd_compare(args) -> int:
    sim = _read_snapshot_csv(args.sim)
    manifest = json.loads(Path(args.manifest).read_text())
    cfg = manifest["config"]
    nodes, interface, dx = cfg["nodes"], cfg["interface"], cfg["dx"]
    steps = manifest.get("final_step", cfg["steps"])
    if len(sim) != nodes:
        raise UsageError(
            f"snapshot has {len(sim)} rows but the manifest says {nodes} nodes")
    rho_bar, high = cfg["rho_bar"], cfg["high_side"]
    left = GasState(rho_bar if high == "left" else 1.0, 0.0, 1.0)
    right = GasState(rho_bar if high == "right" else 1.0, 0.0, 1.0)
    sol = solve_riemann(left, right)
    x = (np.arange(nodes) - interface) * dx
    exact = Snapshot(steps, *sample_profile(sol, x, float(steps)))
    ref = {"rho": exact.rho, "u": exact.u, "theta": exact.theta,
           "p": exact.pressure_reported}
    got = {"rho": sim[:, 1], "u": sim[:, 2], "theta": sim[:, 3], "p": sim[:, 4]}
    band = max(int(p) for p in cfg["model"]["p"])
    core = slice(band + 1, nodes - band - 1)
    fields = {}
    for name in ("rho", "u", "theta", "p"):
        diff = np.abs(got[name][core] - ref[name][core])
        fields[name] = {"l1": float(np.mean(diff)), "linf": float(diff.max())}
    probes = (args.probe_low, args.probe_high)  # out of the lattice: ValueError, exit 1
    sim_plateaus = extract_plateaus(Snapshot(steps, got["rho"], got["u"], got["theta"]),
                                    *probes).as_dict()
    exact_plateaus = extract_plateaus(exact, *probes).as_dict()
    plateau = {
        tag: {name: {"sim": sim_plateaus[name][i],
                     "exact": exact_plateaus[name][i],
                     "diff": abs(sim_plateaus[name][i] - exact_plateaus[name][i])}
              for name in ("rho", "u", "theta", "p")}
        for i, tag in enumerate(("low", "high"))}
    payload = {"fields": fields, "plateaus": plateau,
               "time": float(steps), "nodes": nodes}
    _emit_json(args.out, payload)
    if args.max_plateau_diff is not None:
        # np.max, unlike max(), returns NaN whenever any diff is NaN
        worst = float(np.max([plateau[tag][name]["diff"]
                              for tag in plateau for name in plateau[tag]]))
        if not worst <= args.max_plateau_diff:
            print(f"expectation violated: plateau diff {worst} exceeds "
                  f"{args.max_plateau_diff}", file=sys.stderr)
            return EXIT_EXPECTATION
    return EXIT_OK


# -------------------------------------------------------- stability-scan

def cmd_stability_scan(args) -> int:
    names = [t.strip() for t in args.models.split(",") if t.strip()]
    models = [(name, _load_model(name)) for name in names]
    specs = [_parse_expansion_label(t.strip())
             for t in args.expansions.split(",") if t.strip()]
    rho_bars = [float(t) for t in args.rho_bars.split(",") if t.strip()]
    taus = [float(t) for t in args.taus.split(",") if t.strip()]
    entries = stability_scan(models, specs, rho_bars, taus, steps=args.steps,
                             nodes=args.nodes)
    rows = [[e.model_name, e.expansion, e.rho_bar, e.tau, int(e.stable),
             e.failure_step if e.failure_step is not None else -1,
             e.failure_mode or "", e.fluctuation, e.steps] for e in entries]
    _write_text(args.out, _csv_lines(
        ["model", "expansion", "rho_bar", "tau", "stable", "failure_step",
         "failure_mode", "fluctuation", "steps"], rows))
    return EXIT_OK


# --------------------------------------------------------------- catalog

def cmd_catalog(args) -> int:
    payload = []
    for entry in CATALOG:
        item = {
            "name": entry.name,
            "q": entry.ratios.q,
            "p": list(entry.ratios.p),
            "v2_reference": entry.v2_reference,
            "note": entry.note,
        }
        if args.regenerate:
            model = resolve_catalog(entry.name)
            item["model"] = model.to_json_dict()
            item["v2_error"] = abs(model.v2 - entry.v2_reference)
        payload.append(item)
    _emit_json(args.out, payload)
    return EXIT_OK


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermolb",
        description="Discrete-velocity thermal lattice Boltzmann toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="solve a velocity model family")
    p.add_argument("--q", type=int, default=None,
                   help="number of velocities (odd, >= 3); implies ratio count")
    p.add_argument("--ratios", default="",
                   help="comma list of speed ratios beyond the base (e.g. 2,3)")
    p.add_argument("--ghost-threshold", type=float, default=1e-4)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("sweep", help="sweep one free ratio over a grid")
    p.add_argument("--ratios", default="?",
                   help="ratio list with one '?' placeholder (e.g. '2,?')")
    p.add_argument("--grid", required=True, help="start:stop:step (rationals)")
    p.add_argument("--inverse-grid", action="store_true",
                   help="grid values are inverse ratios r = 1/pbar")
    p.add_argument("--residual-grid", default=None,
                   help="also dump polynomial residuals over v2 range lo:hi:n")
    p.add_argument("--residual-out", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("expand", help="dump an equilibrium expansion table")
    p.add_argument("--kind", required=True, help="taylor or hermite")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--theta0", default="1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="check guaranteed moments of a model+expansion")
    p.add_argument("--model", required=True, help="catalog name or model JSON path")
    p.add_argument("--kind", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a shock tube")
    p.add_argument("--model", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--rho-bar", type=float, default=3.0)
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--interface", type=int, default=500)
    p.add_argument("--high-side", choices=["left", "right"], default="left")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=None,
                   help="default: shock crosses 35%% of the lattice")
    p.add_argument("--snapshot-interval", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="checked to be >= 1 (default: THERMOLB_WORKERS or 1); "
                        "the run uses one core whatever the value")
    p.add_argument("--csv", default=None, help="final snapshot CSV path")
    p.add_argument("--manifest", default=None, help="run manifest JSON path")
    p.add_argument("--expect-stable", action="store_true")
    p.add_argument("--allow-unstable", action="store_true",
                   help="exit 0 even if the run goes unstable")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("riemann", help="solve a reference Riemann problem")
    p.add_argument("--left", required=True, help="rho,u,theta")
    p.add_argument("--right", required=True, help="rho,u,theta")
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--time", type=float, default=None)
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--interface", type=int, default=500)
    p.add_argument("--dx", type=float, default=1.0)
    p.add_argument("--csv", default=None, help="sampled profile CSV path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_riemann)

    p = sub.add_parser("compare", help="compare a run against the exact solution")
    p.add_argument("--sim", required=True, help="snapshot CSV from simulate")
    p.add_argument("--manifest", required=True, help="manifest JSON from simulate")
    p.add_argument("--probe-low", type=int, default=430)
    p.add_argument("--probe-high", type=int, default=650)
    p.add_argument("--max-plateau-diff", type=float, default=None,
                   help="exit 3 if any plateau field differs by more")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stability-scan", help="stability verdicts over a grid")
    p.add_argument("--models", required=True, help="comma list of model refs")
    p.add_argument("--expansions", required=True,
                   help="comma list of kind:order labels")
    p.add_argument("--rho-bars", required=True, help="comma list of densities")
    p.add_argument("--taus", default="1.0")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--workers", type=int, default=None,
                   help="checked to be >= 1 (default: THERMOLB_WORKERS or 1); "
                        "the runs execute one after another on one core")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stability_scan)

    p = sub.add_parser("catalog", help="list built-in models")
    p.add_argument("--regenerate", action="store_true",
                   help="re-derive each model and report the deviation")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors; remap to our convention
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if hasattr(args, "workers"):  # simulate and stability-scan
            worker_count(args.workers)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoRealSolutionError, VacuumError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
