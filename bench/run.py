"""thermolb benchmark: end-to-end CLI workloads with per-layer tracing.

    python3 bench/run.py --workload tube-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload in one process
    python3 bench/run.py --workload all --quick --trace 1 # tiny inputs, one pass each

A run makes its inputs from --seed, sets up (cold, in fresh processes),
runs one untimed warm-up pass, then repeats passes through the CLI for
--seconds in a closed loop from this one process.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics.  A readable report comes
first; the last line of stdout is one JSON object.  Records and spans go
to bench/out/.  Metric names and their meaning are in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_package() -> None:
    """Import thermolb from this checkout's src/, never from elsewhere."""
    if not (SRC / "thermolb" / "__init__.py").is_file():
        raise SystemExit(f"bench: no thermolb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thermolb
    if SRC not in Path(thermolb.__file__).resolve().parents:
        raise SystemExit(f"bench: thermolb was imported from {thermolb.__file__}, not {SRC}")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    return {"seed": seed, "nproc": _nproc(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "platform": platform.platform(),
            "THERMOLB_WORKERS": os.environ["THERMOLB_WORKERS"]}


def measure_setup(spec: dict, repeats: int) -> list[float]:
    """Seconds of cold set-up, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), json.dumps(spec)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ------------------------------------------------------------- metrics

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict:
    return {
        "wall_s": (_median(p["wall_s"] for p in passes), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def derived_rates(passes: list[dict]) -> dict:
    """Workload-specific end-to-end rates, for the readable report."""
    def total(key):
        return sum(p.get(key, 0) for p in passes)

    def cli_s(command):
        return sum(p["cli_s"].get(command, 0.0) for p in passes)

    out = {}
    if total("scan_node_updates"):
        out["mlups"] = (total("scan_node_updates") / cli_s("stability-scan") / 1e6, "MLUPS")
        out["runs_per_s"] = (total("runs") / cli_s("stability-scan"), "1/s")
    elif total("node_updates"):
        out["mlups"] = (total("node_updates") / cli_s("simulate") / 1e6, "MLUPS")
    if total("solves"):
        out["solves_per_s"] = (total("solves") / total("wall_s"), "1/s")
    return out


def per_layer(setup_tracer, traced: list[tuple[dict, object]],
              untraced_walls: list[float], notes: dict) -> dict:
    from spans import percentile_pair

    trs = [t for _, t in traced]
    records = [r for r, _ in traced]
    out: dict[str, tuple[float, str]] = {}

    def durations(name, tracers=trs):
        return [d for t in tracers for d in t.durations(name)]

    def timing(metric, values, scale, unit, tail=False):
        med, high, pct, n = percentile_pair(values)
        out[metric] = (med * scale, unit)
        if tail:
            out[metric + "_tail"] = (high * scale, unit)
        notes[metric] = f"n={n}" + (f", tail=p{pct:g}" if tail else "")

    def per_pass(fn, unit="count"):
        return (_median(fn(t) for t in trs), unit)

    both = [setup_tracer] + trs
    timing("simulator.step_ms", durations("simulator.step"), 1e3, "ms", tail=True)
    timing("simulator.step_self_ms",
           [d for t in trs for d in t.self_times("simulator.step")], 1e3, "ms")
    out["simulator.steps"] = per_pass(lambda t: len(t.durations("simulator.step")))
    out["simulator.node_updates"] = per_pass(
        lambda t: sum(t.attrs.get(i, 0) for i, s in enumerate(t.spans)
                      if s[0] == "simulator.step"))
    step_time = sum(durations("simulator.step"))
    updates = sum(t.attrs.get(i, 0) for t in trs for i, s in enumerate(t.spans)
                  if s[0] == "simulator.step")
    out["simulator.mlups"] = (updates / step_time / 1e6 if step_time else 0.0, "MLUPS")
    timing("simulator.apply_boundaries_ms", durations("simulator.apply_boundaries"), 1e3, "ms")
    timing("simulator.check_health_ms", durations("simulator.check_health"), 1e3, "ms")
    timing("simulator.init_shock_tube_ms",
           durations("simulator.init_shock_tube", both), 1e3, "ms")
    timing("simulator.run_s", durations("simulator.run"), 1.0, "s", tail=True)
    executed = sum(r.get("steps", 0) for r in records)
    requested = sum(r.get("steps_requested", r.get("steps", 0)) for r in records)
    out["simulator.steps_executed_frac"] = (executed / requested if requested else 0.0, "ratio")

    timing("equilibrium.populations_ms", durations("equilibrium.populations"), 1e3, "ms")
    out["equilibrium.populations_calls"] = per_pass(
        lambda t: len(t.durations("equilibrium.populations")))
    covered = sum(t.covered_within("simulator.step", "equilibrium.populations") for t in trs)
    out["equilibrium.populations_share"] = (covered / step_time if step_time else 0.0, "ratio")
    out["equilibrium.monomials"] = per_pass(lambda t: t.counts["equilibrium.monomials"])
    steps = sum(len(t.durations("simulator.step")) for t in trs)
    popbytes = sum(t.bytes_within("simulator.step", "equilibrium.populations") for t in trs)
    out["equilibrium.populations_bytes_computed_per_step"] = (
        popbytes / steps if steps else 0.0, "B")
    timing("equilibrium.expand_cold_ms",
           setup_tracer.first_call_durations("equilibrium.expand"), 1e3, "ms")
    timing("equilibrium.verify_moments_ms", durations("equilibrium.verify_moments"), 1e3, "ms")

    timing("model_solver.resolve_catalog_ms",
           durations("model_solver.resolve_catalog", both), 1e3, "ms")
    timing("model_solver.solve_model_ms", durations("model_solver.solve_model"), 1e3, "ms",
           tail=True)
    timing("model_solver.build_polynomial_ms",
           durations("model_solver.build_polynomial"), 1e3, "ms")
    out["model_solver.solve_model_calls"] = per_pass(
        lambda t: len(t.durations("model_solver.solve_model")))
    out["model_solver.models_found"] = per_pass(lambda t: t.counts["model_solver.models_found"])

    timing("ratpoly.isolate_positive_roots_ms",
           durations("ratpoly.isolate_positive_roots"), 1e3, "ms")
    timing("ratpoly.exact_rational_roots_ms", durations("ratpoly.exact_rational_roots"), 1e3, "ms")
    timing("ratpoly.refine_root_ms", durations("ratpoly.refine_root"), 1e3, "ms")
    out["ratpoly.eval_at_calls"] = per_pass(lambda t: t.counts["ratpoly.eval_at_calls"])
    cands = sum(t.counts["ratpoly.root_candidates"] for t in trs)
    found = sum(t.counts["ratpoly.rational_roots_found"] for t in trs)
    out["ratpoly.rational_root_hit_ratio"] = (found / cands if cands else 0.0, "ratio")

    timing("moments.discrete_moment_ms", durations("moments.discrete_moment"), 1e3, "ms")

    timing("riemann.solve_riemann_us", durations("riemann.solve_riemann"), 1e6, "us")
    iters = [t.attrs[i] for t in trs for i, s in enumerate(t.spans)
             if s[0] == "riemann.solve_riemann"]
    out["riemann.iterations"] = (_median(iters), "count")
    timing("riemann.sample_profile_ms", durations("riemann.sample_profile"), 1e3, "ms")

    timing("cli.snapshot_csv_ms", durations("cli.snapshot_csv"), 1e3, "ms")
    out["cli.csv_bytes"] = per_pass(lambda t: t.counts["cli.csv_bytes"], "B")
    timing("cli.read_snapshot_csv_ms", durations("cli.read_snapshot_csv"), 1e3, "ms")
    for cmd in ("simulate", "compare", "stability_scan", "sweep", "derive", "verify", "catalog"):
        timing(f"cli.{cmd}_s", durations(f"cli.{cmd}"), 1.0, "s")

    traced_wall = _median(r["wall_s"] for r in records)
    untraced_wall = _median(untraced_walls)
    out["bench.trace_overhead_frac"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "ratio")
    return out


# ----------------------------------------------------------------- run

def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS, Checks, Runner
    from setup_probe import set_up

    make_config, run_pass = WORKLOADS[name]
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == name)
    config = make_config(random.Random(f"{name}:{seed}"), quick, _nproc())
    checks = Checks()
    workdir = OUT / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, checks)
    setup_tracer = Tracer()
    setup_times: list[float] = []
    passes: list[dict] = []
    tracers: list = []
    try:
        if trace:
            with setup_tracer:  # first in this process, so expand runs cold
                set_up(config["setup"])
        else:
            setup_times = measure_setup(config["setup"], 1 if quick else SETUP_REPEATS)
        if not quick:
            run_pass(config, runner)  # warm-up: caches and lazy set-up
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            runner.seconds = defaultdict(float)
            gc.collect()  # every pass starts from the same heap, outside the timing
            with tracer if traced else contextlib.nullcontext():
                record = run_pass(config, runner)
            record.update(cli_s=dict(runner.seconds), wall_s=sum(runner.seconds.values()),
                          traced=traced)
            passes.append(record)
            tracers.append(tracer)
            enough = len(passes) >= (2 if trace else 1)
            if enough and (quick or time.perf_counter() - start >= seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    notes: dict[str, str] = {}
    if trace:
        traced = [(p, t) for p, t in zip(passes, tracers) if p["traced"]]
        metrics = per_layer(setup_tracer, traced, [p["wall_s"] for p in untraced], notes)
    else:
        metrics = end_to_end(untraced, setup_times)
    result = {
        "workload": name, "why": why, "trace": int(trace), "quick": quick,
        "seconds": seconds, "environment": environment(seed), "config": config,
        "setup_s_samples": setup_times, "passes": passes,
        "rates": {k: {"value": v, "unit": u} for k, (v, u) in derived_rates(untraced).items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.messages,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{name}_seed{seed}_trace{int(trace)}{'_quick' if quick else ''}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        (OUT / f"spans_{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "setup": setup_tracer.spans,
             "passes": [t.spans for t in tracers if t is not None]}))
    report(result)
    return result


def report(res: dict) -> None:
    env = res["environment"]
    print(f"== {res['workload']}: seed {env['seed']}, trace {res['trace']}"
          f"{', quick' if res['quick'] else ''} ==")
    print(f"why: {res['why']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("config: " + json.dumps(res["config"], sort_keys=True))
    walls = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    print(f"passes: {len(res['passes'])} measured{'' if res['quick'] else ' after a warm-up'}"
          f", closed loop, 1 client; untraced wall_s min {min(walls):.4f} "
          f"max {max(walls):.4f} s")
    counts = {k: v for k, v in res["passes"][-1].items()
              if k not in ("cli_s", "wall_s", "traced")}
    print("exact counts per pass: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    shown = dict(res["metrics"], **({} if res["trace"] else res["rates"]))
    shown["fail_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
    for name, m in shown.items():
        note = res["notes"].get(name, "")
        print(f"  {name:50s} {m['value']:14.6g} {m['unit']:6s} {note}")
    samples = [round(t, 4) for t in res["setup_s_samples"]]
    print(f"  ({res['failed']} failed / {res['attempted']} checks"
          + (f"; set-up samples {samples})" if samples else ")"))
    for msg in res["failures"]:
        print(f"FAILED CHECK: {msg}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and one pass, to check the harness")
    args = parser.parse_args(argv)
    os.environ["THERMOLB_WORKERS"] = "1"  # the caller's environment must not change the load
    _import_package()
    seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
    names = workloads if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, seconds, bool(args.trace), args.quick)
               for n in names]
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + k: v for k, v in res["metrics"].items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
