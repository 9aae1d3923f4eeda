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
import contextlib
import dataclasses
import errno
import functools
import hashlib
import io
import json
import math
import os
import stat
import sys
import threading
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from ._ratpoly import eval_float
from .equilibrium import ExpansionSpec, expand, verify_moments
from .model_solver import (CATALOG, RESIDUAL_TOLERANCE, RatioTuple,
                           VelocityModel, _moment_residual, build_polynomial,
                           derive_catalog_model, resolve_catalog, solve_model)
from .riemann import GasState, VacuumError, sample_profile, solve_riemann
from .simulator import (ShockTubeConfig, Snapshot, check_probes,
                        extract_plateaus, run, stability_scan)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_EXPECTATION = 3

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_all(outputs: Iterable[tuple[str | None, bytes]]) -> None:
    """Write each (path, bytes) pair, a path of None or "-" meaning stdout,
    all or nothing; a pair is read once the ones before it are staged.  A
    target that is missing or a regular file (through any symlink) is
    written to a temporary sibling, and the siblings replace their
    targets, keeping an existing file's mode, once every one is written.
    An existing target of another kind (a device, a FIFO), or a file whose
    directory the run may not write, is written in place after that, and
    stdout comes last.  An error names the path asked for."""
    staged, in_place, to_stdout = [], [], []
    try:
        for i, (path, data) in enumerate(outputs):
            if path in (None, "-"):
                to_stdout.append(data)
                continue
            try:
                target = Path(path).resolve()
                try:
                    mode = target.stat().st_mode
                except FileNotFoundError:
                    mode = None
                if mode is not None and stat.S_ISDIR(mode):
                    # os.replace would fail after others were replaced
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                if mode is not None and not (stat.S_ISREG(mode)
                                             and os.access(target.parent, os.W_OK)):
                    in_place.append((path, data))
                    continue
                # the index keeps two outputs to one path apart; the last one wins
                temp = target.with_name(f".{target.name}.{os.getpid()}.{i}.tmp")
                staged.append((temp, target))
                temp.write_bytes(data)
                if mode is not None:
                    os.chmod(temp, stat.S_IMODE(mode))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for temp, target in staged:
            os.replace(temp, target)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
    for path, data in in_place:
        Path(path).write_bytes(data)
    for data in to_stdout:
        sys.stdout.flush()  # text printed before goes first
        sys.stdout.buffer.write(data)


@contextlib.contextmanager
def _sha256_beside(data):
    """Hash data on a second thread while the block runs (hashlib releases
    the GIL), and yield a function that waits for the hex digest.  The
    thread is joined when the block ends, on every path."""
    sha = hashlib.sha256()
    thread = threading.Thread(target=sha.update, args=(data,))
    thread.start()
    def digest() -> str:
        thread.join()
        return sha.hexdigest()
    try:
        yield digest
    finally:
        thread.join()


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _csv_lines(header: list[str], rows) -> bytes:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_fmt(cell) if isinstance(cell, float) else str(cell)
                            for cell in row))
    return ("\n".join(out) + "\n").encode()


def _threshold(text: str) -> float:
    """argparse type of the threshold flags: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite number >= 0, got {text!r}")
    return value


def _workers(text: str) -> int:
    """argparse type of --workers: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


def _parse_ratios(text: str | None) -> list[Fraction]:
    if not text:
        return []
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad ratio list {text!r}: {exc}") from exc


def _parse_expansion(kind: str, order: int) -> ExpansionSpec:
    aliases = {"taylor": "taylor", "te": "taylor", "hermite": "hermite", "he": "hermite"}
    k = aliases.get(kind.lower())
    if k is None:
        raise ValueError(f"unknown expansion kind {kind!r} (use taylor or hermite)")
    return ExpansionSpec(k, order)


def _parse_expansion_label(label: str) -> ExpansionSpec:
    try:
        kind, order = label.split(":")
        return _parse_expansion(kind, int(order))
    except ValueError as exc:
        raise ValueError(f"bad expansion label {label!r} (expected kind:order)") from exc


def _load_model(ref: str) -> VelocityModel:
    """A model reference is a catalog name or a path to a derive JSON file.

    A file's model is used as given, once its weights and speeds are seen
    to reproduce the Gaussian moments it was derived from."""
    for entry in CATALOG:
        if entry.name == ref:
            return resolve_catalog(ref)
    path = Path(ref)
    if not path.exists():
        raise ValueError(
            f"model {ref!r} is neither a catalog name ({[e.name for e in CATALOG]}) "
            "nor an existing JSON file")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {ref} is not valid JSON: {exc}") from exc
    if isinstance(data, list):
        if not data:
            raise ValueError(f"model file {ref} holds an empty list")
        data = data[0]
    try:
        model = VelocityModel.from_json_dict(data)
    except KeyError as exc:
        raise ValueError(f"model file {ref} has no {exc} entry") from exc
    except (TypeError, IndexError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"model file {ref} is not a derive model: {exc}") from exc
    if len(model.weights_normalized) != len(model.ratios.p) + 1:
        raise ValueError(f"model file {ref} has {len(model.weights_normalized)} weights "
                         f"for {len(model.ratios.p) + 1} speeds")
    try:
        residual = _moment_residual(model)
    except OverflowError:  # a power of a speed overflows a float
        residual = math.inf
    if not residual <= RESIDUAL_TOLERANCE:
        raise ValueError(f"model file {ref} has moment residual {residual:.3g}, "
                         f"above the tolerance {RESIDUAL_TOLERANCE:g}")
    return model


def _parse_state(text: str) -> GasState:
    try:
        rho, u, theta = (float(tok) for tok in text.split(","))
        return GasState(rho, u, theta)
    except ValueError as exc:
        raise ValueError(f"bad state {text!r} (expected rho,u,theta): {exc}") from exc


def _parse_grid(text: str) -> list[Fraction]:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, stepv = Fraction(start_s), Fraction(stop_s), Fraction(step_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad grid {text!r} (expected start:stop:step)") from exc
    if stepv <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}: need step > 0 and stop >= start")
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
            raise ValueError(f"q must be an odd integer >= 3, got {args.q}")
        if len(ratios_ext) != expected:
            raise ValueError(
                f"q = {args.q} needs {expected} ratio(s) beyond the base speed, "
                f"got {len(ratios_ext)}")
    models = solve_model(RatioTuple.from_ratios(ratios_ext),
                         ghost_threshold=args.ghost_threshold)
    _write_all([(args.out, _json_bytes([m.to_json_dict() for m in models]))])
    return EXIT_OK


# ----------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    tokens = [t.strip() for t in args.ratios.split(",")] if args.ratios else ["?"]
    if tokens.count("?") != 1:
        raise ValueError("exactly one ratio slot must be '?' to sweep")
    free = tokens.index("?")
    fixed = _parse_ratios(",".join(tokens[:free] + tokens[free + 1:]))
    grid = _parse_grid(args.grid)
    if args.inverse_grid and 0 in grid:
        raise ValueError(f"--inverse-grid needs a grid without 0, got {args.grid!r}")
    if args.residual_grid:
        if not args.residual_out:
            raise ValueError("--residual-grid needs --residual-out")
        try:
            lo_s, hi_s, n_s = args.residual_grid.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError as exc:
            raise ValueError(f"bad residual grid {args.residual_grid!r}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and n >= 0):
            raise ValueError(f"bad residual grid {args.residual_grid!r}: need finite "
                             "lo and hi and n >= 0")
    rows = []
    max_branches = 0
    results = []
    for g in grid:
        ratio_val = 1 / g if args.inverse_grid else g
        vals = fixed[:free] + [ratio_val] + fixed[free:]
        try:
            ratios = RatioTuple.from_ratios(vals)
        except ValueError:
            ratios = None
        models = [] if ratios is None else solve_model(ratios)
        results.append((g, ratios, models))
        max_branches = max(max_branches, len(models))
    k = len(fixed) + 2  # positive speeds: the base one and one per ratio slot
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
    outputs = [(args.out, _csv_lines(header, rows))]
    if args.residual_grid:
        res_rows = []
        for g, ratios, _ in results:
            if ratios is None:
                continue
            poly = build_polynomial(ratios)
            lead = poly[-1]
            for v2 in np.linspace(lo, hi, n):
                res_rows.append([float(g), float(v2),
                                 eval_float(poly, v2 * v2) / lead])
        outputs.append((args.residual_out,
                        _csv_lines(["param", "v2", "residual"], res_rows)))
    _write_all(outputs)  # once both are built, so a failure leaves neither file
    return EXIT_OK


# ---------------------------------------------------------------- expand

def cmd_expand(args) -> int:
    spec = _parse_expansion(args.kind, args.order)
    try:
        spec = ExpansionSpec(spec.kind, spec.order, args.theta0)
    except ValueError as exc:
        raise ValueError(f"bad --theta0 {args.theta0!r}: {exc}") from exc
    poly = expand(spec)
    rows = [list(r) + [spec.kind, spec.order] for r in poly.table_rows()]
    _write_all([(args.out, _csv_lines(
        ["v_power", "u_power", "t_power", "numerator", "denominator", "kind", "N"],
        rows))])
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
    _write_all([(args.out, _json_bytes(payload))])
    if not report.passed:
        print(f"expectation violated: max moment error {report.max_abs_error} "
              f"exceeds tolerance {report.tolerance}", file=sys.stderr)
        return EXIT_EXPECTATION
    return EXIT_OK


# -------------------------------------------------------------- simulate

_SNAPSHOT_HEADER = "X,rho,u,theta,p\n"
_SNAPSHOT_ROW = "%d,%.17g,%.17g,%.17g,%.17g\n"
_STRETCH_ROWS = 16  # the reader's Python steps: at most one per 16 rows
_STRETCH_MAX = 2 ** 14  # rows, which bound the memory of a stretch's shifted compare
# "0000".."9999", one row each
_DIGIT_TABLE = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")


def _index_digits(lo: int, hi: int, w: int) -> np.ndarray:
    """The indices lo..hi-1, which all print with w digits, as a (hi - lo, w)
    uint8 array of their ASCII digits.  Indices that differ only in their
    last four digits take those from one slice of _DIGIT_TABLE and share
    the digits before them."""
    out = np.empty((hi - lo, w), dtype=np.uint8)
    for at in range(lo - lo % 10_000, hi, 10_000):
        i, j = max(at, lo), min(at + 10_000, hi)
        out[i - lo:j - lo, -min(w, 4):] = _DIGIT_TABLE[i - at:j - at, -min(w, 4):]
        if w > 4:
            out[i - lo:j - lo, :-4] = np.frombuffer(b"%d" % (at // 10_000), dtype=np.uint8)
    return out


def _digits_before(i):
    """The decimal digits that the indices 0..i-1 print with, in total."""
    return i + sum(np.maximum(i - 10 ** k, 0) for k in range(1, 19))


def _snapshot_csv(rho: np.ndarray, u: np.ndarray, theta: np.ndarray) -> str:
    """Per-node profile table; the same bytes _csv_lines gives for these
    rows, formatted once per run of consecutive identical rows.

    A shock-tube snapshot is uniform outside the light cone and an exact
    Riemann profile is piecewise constant, so most rows repeat the one
    above.  Only a run's first row goes through the format string; each
    other row is its own index followed by the first row's text after its
    index.  The table is one uint8 buffer of the exact size, which the
    heads' lengths give: the heads are copied in back to back, and each
    run's other rows are filled as (rows, length) views of the buffer, one
    per stretch of indices with the same digit count, whose digits
    _index_digits gives.  Rows are compared by their float64 bit patterns,
    because -0.0 == 0.0 prints differently and a NaN never compares
    equal."""
    cols = (rho, u, theta, rho * theta)
    first = np.ones(len(rho), dtype=bool)
    first[1:] = np.logical_or.reduce([c.view(np.int64)[1:] != c.view(np.int64)[:-1]
                                      for c in cols])
    bounds = np.append(np.flatnonzero(first), len(rho))
    heads = np.frombuffer("".join([_SNAPSHOT_ROW % row for row in zip(
        bounds.tolist(), *(c[first].tolist() for c in cols))]).encode(), dtype=np.uint8)
    head_end = np.flatnonzero(heads == ord("\n")) + 1
    digits = _digits_before(bounds)
    length = np.diff(head_end, prepend=0)  # of each head row
    suffix = length - (_digits_before(bounds[:-1] + 1) - digits[:-1])
    # run k starts at byte at[k]: the header, the indices and the suffixes before it
    at = len(_SNAPSHOT_HEADER) + digits + np.cumsum(
        np.concatenate(([0], np.diff(bounds) * suffix)))
    out = np.empty(at[-1], dtype=np.uint8)
    out[:len(_SNAPSHOT_HEADER)] = np.frombuffer(_SNAPSHOT_HEADER.encode(), dtype=np.uint8)
    done = 0  # heads[:done] are in place
    for k in np.flatnonzero(np.diff(bounds) > 1).tolist():
        (start, end), tail = bounds[k:k + 2].tolist(), int(suffix[k])
        # the heads since the last run of two or more rows lie back to back
        pos = int(at[k] + length[k])
        out[pos - (head_end[k] - done):pos] = heads[done:head_end[k]]
        done = head_end[k]
        lo = start + 1
        while lo < end:
            w = len(str(lo))
            hi = min(end, 10 ** w)
            block = out[pos:pos + (hi - lo) * (w + tail)].reshape(hi - lo, w + tail)
            block[:, w:] = heads[done - tail:done]
            block[:, :w] = _index_digits(lo, hi, w)
            pos, lo = pos + block.size, hi
    out[at[-1] - (len(heads) - done):] = heads[done:]
    return str(out, "ascii")


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
    check_probes(config.nodes, config.probes)
    result = run(config)
    final = result.final
    csv_data = _snapshot_csv(final.rho, final.u, final.theta).encode()
    def outputs(digest):
        if args.csv:
            yield args.csv, csv_data
        if args.manifest or not args.csv:  # built once the CSV is staged
            yield args.manifest or None, _json_bytes({
                "command": "simulate",
                "version": __version__,
                "config": _config_dict(config, result.steps_requested),
                "verdict": dataclasses.asdict(result.verdict),
                "plateaus": extract_plateaus(final, *config.probes).as_dict(),
                "final_step": final.step,
                "output_sha256": digest(),
            })
    with _sha256_beside(csv_data) as digest:
        _write_all(outputs(digest))  # a failed write leaves neither file
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
    if args.csv and args.time is None:
        raise ValueError("--csv needs a positive --time")
    for flag, value in (("--time", args.time), ("--dx", args.dx)):
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{flag} must be a positive finite number, got {value}")
    if args.nodes < 1:
        raise ValueError(f"--nodes must be >= 1, got {args.nodes}")
    sol = solve_riemann(left, right, gamma=args.gamma)
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
    outputs = [(args.out, _json_bytes(payload))]
    if args.csv:
        with np.errstate(over="ignore"):  # sample_profile rejects an inf position
            x = (np.arange(args.nodes) - args.interface) * args.dx
        outputs.append((args.csv, _snapshot_csv(*sample_profile(sol, x, args.time)).encode()))
    _write_all(outputs)  # a failed write leaves neither file
    return EXIT_OK


# --------------------------------------------------------------- compare

def _read_snapshot_csv(path: str):
    """The (rho, u, theta, p) columns of a snapshot CSV as an (n, 4) array,
    and the sha256 of the file's bytes, read once and hashed on a second
    thread while _parse_snapshot_csv parses them."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        buf = buf[:fh.readinto(buf)]
        rest = fh.read()  # a pipe, or a file that grew
    if rest:
        buf = np.concatenate((buf, np.frombuffer(rest, dtype=np.uint8)))
    with _sha256_beside(buf) as digest:
        return _parse_snapshot_csv(path, buf), digest()


def _parse_snapshot_csv(path: str, buf: np.ndarray) -> np.ndarray:
    """The (n, 4) columns of the snapshot CSV whose bytes buf holds.

    Row i must start with i as the writer prints it and a comma; lines end
    in LF or CRLF, the last one may end in neither.  A row whose text
    after the index is byte-identical to the row above has that row's
    values, so only the first row of each such run goes through
    np.loadtxt and the result is repeated: the floats are the ones
    parsing every row gives.  Runs are found in stretches of at least
    _STRETCH_ROWS rows of one byte length and one index width: a
    stretch's (rows, length) view of buf has its indices compared with
    _index_digits, and its bytes with themselves one row on.  A row
    outside a stretch has its index read on its own and is parsed like a
    run's first row."""
    ends = np.flatnonzero(buf == ord("\n"))
    if not len(ends) or ends[-1] != len(buf) - 1:
        ends = np.append(ends, len(buf))  # no final newline
    header = buf[:ends[0]].tobytes().removesuffix(b"\r")
    if header != _SNAPSHOT_HEADER.rstrip("\n").encode():
        found = header[:40].decode(errors="replace") + ("..." if len(header) > 40 else "")
        raise ValueError(f"{path} line 1: expected the header "
                         f"{_SNAPSHOT_HEADER.rstrip()!r}, found {found!r}")
    starts, ends = ends[:-1] + 1, ends[1:]
    n = len(ends)
    if n == 0:
        return np.empty((0, 4))
    # rows lo..hi-1 have w-digit indices
    bounds = [0, *(10 ** w for w in range(1, len(str(n - 1)))), n]
    size = ends - starts
    cut = np.unique(np.concatenate((np.flatnonzero(np.diff(size)) + 1, bounds,
                                    np.arange(0, n, _STRETCH_MAX))))
    long = np.flatnonzero(np.diff(cut) >= _STRETCH_ROWS)
    ok = np.zeros(n, dtype=bool)  # the rows of each stretch whose indices are right
    same = np.zeros(n, dtype=bool)
    for lo, hi in zip(cut[long].tolist(), cut[long + 1].tolist()):
        w, line = len(str(lo)), int(size[lo])
        rows = np.ndarray((hi - lo, line), np.uint8, buf, starts[lo], (line + 1, 1))
        if not (line > w and (rows[:, w] == ord(",")).all()
                and np.array_equal(rows[:, :w], _index_digits(lo, hi, w))):
            continue  # the check of single rows below names the first bad one
        ok[lo:hi] = True
        # a row repeats the one above when its bytes from the comma on are
        # equal: compare the stretch with itself one row on, index columns cleared
        at, m = int(starts[lo]), (hi - lo - 1) * (line + 1)
        differs = np.zeros((hi - lo - 1, line + 1), dtype=bool)
        np.not_equal(buf[at + line + 1:at + line + m], buf[at:at + m - 1],
                     out=differs.reshape(-1)[:-1])
        differs[:, :w] = False
        same[lo + 1:hi] = True
        same[lo + 1 + np.flatnonzero(differs) // (line + 1)] = False
    # the other rows one by one: the window of a row shorter than w + 1
    # bytes holds the newline that ends it or the one before it
    for w, lo, hi in zip(range(1, len(bounds)), bounds, bounds[1:]):
        rows = lo + np.flatnonzero(~ok[lo:hi])
        head = sliding_window_view(buf, w + 1)[np.minimum(starts[rows], len(buf) - w - 1)]
        right = head[:, w] == ord(",")
        index = np.zeros(len(rows), dtype=np.int64)
        for k in range(w):
            digit = head[:, k] - ord("0")  # uint8: any other byte wraps to >= 10
            right &= digit < 10
            index = index * 10 + digit
        ok[rows] = right & (index == rows)
    if not ok.all():
        k = int(np.argmin(ok))
        index = buf[starts[k]:ends[k]].tobytes().split(b",")[0].decode(errors="replace")
        raise ValueError(f"{path} line {k + 2}: X is {index!r}, expected {k}")
    heads = np.flatnonzero(~same)
    # parse each block of consecutive run heads as one slice of the file.
    # The text stream hands loadtxt one line at a time, split at LF only,
    # so a stray CR stays inside its line and loadtxt rejects it.
    edges = np.flatnonzero(np.diff(~same, prepend=False, append=False)).reshape(-1, 2)
    view = memoryview(buf)
    heads_text = b"".join(view[a:b] for a, b in zip(starts[edges[:, 0]].tolist(),
                                                    (ends[edges[:, 1] - 1] + 1).tolist()))
    try:
        values = _parse_rows(io.TextIOWrapper(io.BytesIO(heads_text), encoding="utf-8",
                                              newline="\n"))
    except ValueError:
        for k in heads.tolist():  # name the first line that does not parse
            try:
                _parse_rows([buf[starts[k]:ends[k]].tobytes().decode()])
            except ValueError as exc:
                raise ValueError(f"{path} line {k + 2}: {exc}") from None
        raise
    return np.repeat(values[:, 1:], np.diff(heads, append=n), axis=0)


def _parse_rows(lines) -> np.ndarray:
    values = np.loadtxt(lines, delimiter=",", ndmin=2)
    if values.shape[1] != 5:  # a '#' comment can cut a row short
        raise ValueError(f"expected 5 fields, found {values.shape[1]}")
    return values


def cmd_compare(args) -> int:
    sim, sim_sha256 = _read_snapshot_csv(args.sim)
    manifest = json.loads(Path(args.manifest).read_text())
    # the config simulate ran, checked by ShockTubeConfig itself
    try:
        cfg = manifest["config"]
        config = ShockTubeConfig(
            model=VelocityModel.from_json_dict(cfg["model"]),
            expansion=ExpansionSpec(**cfg["expansion"]),
            rho_bar=cfg["rho_bar"], nodes=cfg["nodes"], interface=cfg["interface"],
            high_side=cfg["high_side"], tau=cfg["tau"], steps=cfg["steps"])
        steps, dx = manifest.get("final_step", cfg["steps"]), cfg["dx"]
    except KeyError as exc:
        raise ValueError(f"manifest {args.manifest} has no {exc} entry") from exc
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"manifest {args.manifest} is not a simulate manifest: "
                         f"{exc}") from exc
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
        raise ValueError(f"manifest {args.manifest} has final_step {steps!r}, "
                         "not an integer >= 0")  # a 0-step run compares at t = 0
    if dx != config.dx:
        raise ValueError(f"manifest {args.manifest} has dx {dx!r}, but its model's "
                         f"node spacing is {config.dx!r}")
    nodes, band = config.nodes, config.band_width
    if len(sim) != nodes:
        raise ValueError(
            f"snapshot has {len(sim)} rows but the manifest says {nodes} nodes")
    if sim_sha256 != manifest.get("output_sha256"):
        print(f"warning: {args.sim} is not the snapshot whose output_sha256 "
              f"{args.manifest} records", file=sys.stderr)
    sol = solve_riemann(config.left_state, config.right_state)
    # the jump lies between nodes interface - 1 and interface
    with np.errstate(over="ignore"):  # sample_profile rejects an inf position
        x = (np.arange(nodes) - config.interface + 0.5) * config.dx
    exact = Snapshot(steps, *sample_profile(sol, x, float(steps)))
    core = slice(band + 1, nodes - band - 1)
    fields = {}
    for name, got, want in zip(("rho", "u", "theta", "p"), sim.T, (
            exact.rho, exact.u, exact.theta, exact.pressure_reported)):
        diff = np.abs(got[core] - want[core])
        # sorted, so that the sum does not depend on the order of the nodes
        fields[name] = {"l1": float(np.mean(np.sort(diff))), "linf": float(diff.max())}
    low, high = config.probes  # a probe off the lattice is a ValueError, exit 1
    probes = (low if args.probe_low is None else args.probe_low,
              high if args.probe_high is None else args.probe_high)
    sim_plateaus = extract_plateaus(Snapshot(steps, *sim.T[:3]), *probes).as_dict()
    exact_plateaus = extract_plateaus(exact, *probes).as_dict()
    plateau = {
        tag: {name: {"sim": sim_plateaus[name][i],
                     "exact": exact_plateaus[name][i],
                     "diff": abs(sim_plateaus[name][i] - exact_plateaus[name][i])}
              for name in ("rho", "u", "theta", "p")}
        for i, tag in enumerate(("low", "high"))}
    payload = {"fields": fields, "plateaus": plateau,
               "time": float(steps), "nodes": nodes}
    _write_all([(args.out, _json_bytes(payload))])
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

def _scan_list(flag: str, text: str) -> list[str]:
    """The entries of a comma list; an empty grid axis is a usage error."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError(f"{flag} needs at least one entry, got {text!r}")
    return items


def cmd_stability_scan(args) -> int:
    names, labels, rho_texts, tau_texts = (
        _scan_list(flag, text) for flag, text in (
            ("--models", args.models), ("--expansions", args.expansions),
            ("--rho-bars", args.rho_bars), ("--taus", args.taus)))
    models = [(name, _load_model(name)) for name in names]
    specs = [_parse_expansion_label(t) for t in labels]
    rho_bars = [float(t) for t in rho_texts]
    taus = [float(t) for t in tau_texts]
    entries = stability_scan(models, specs, rho_bars, taus, steps=args.steps,
                             nodes=args.nodes, workers=args.workers)
    rows = [[e.model_name, e.config.expansion.label, e.config.rho_bar, e.config.tau,
             int(e.verdict.stable),
             -1 if e.verdict.failure_step is None else e.verdict.failure_step,
             e.verdict.failure_mode or "", e.verdict.max_density_fluctuation,
             e.config.steps] for e in entries]
    _write_all([(args.out, _csv_lines(
        ["model", "expansion", "rho_bar", "tau", "stable", "failure_step",
         "failure_mode", "fluctuation", "steps"], rows))])
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
            model = derive_catalog_model(entry.name)
            item["model"] = model.to_json_dict()
            item["v2_error"] = abs(model.v2 - entry.v2_reference)
        payload.append(item)
    _write_all([(args.out, _json_bytes(payload))])
    return EXIT_OK


# ------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ValueError, one line from main."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache  # parse_args keeps no state between calls, every default is immutable
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermolb",
        description="Discrete-velocity thermal lattice Boltzmann toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="solve a velocity model family")
    p.add_argument("--q", type=int, default=None,
                   help="number of velocities (odd, >= 3); implies ratio count")
    p.add_argument("--ratios", default="",
                   help="comma list of speed ratios beyond the base (e.g. 2,3)")
    p.add_argument("--ghost-threshold", type=_threshold, default=1e-4,
                   help="flag weights with |w| below this as ghosts (default 1e-4)")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")

    p = sub.add_parser("sweep", help="sweep one free ratio over a grid")
    p.add_argument("--ratios", default="?",
                   help="ratio list with one '?' placeholder (e.g. '2,?')")
    p.add_argument("--grid", required=True, help="start:stop:step (rationals)")
    p.add_argument("--inverse-grid", action="store_true",
                   help="grid values are inverse ratios r = 1/pbar")
    p.add_argument("--residual-grid", default=None,
                   help="also dump polynomial residuals over v2 range lo:hi:n")
    p.add_argument("--residual-out", default=None, help="residual CSV path (required "
                   "with --residual-grid)")
    p.add_argument("--out", default=None, help="sweep CSV path (default stdout)")

    kind_help = "taylor (te) or hermite (he)"
    order_help = "expansion order N >= 1 (taylor: a + b <= N, hermite: a + 2b <= N)"
    p = sub.add_parser("expand", help="dump an equilibrium expansion table")
    p.add_argument("--kind", required=True, help=kind_help)
    p.add_argument("--order", type=int, required=True, help=order_help)
    p.add_argument("--theta0", default="1",
                   help="base temperature, a positive rational (default 1)")
    p.add_argument("--out", default=None, help="term table CSV path (default stdout)")

    p = sub.add_parser("verify", help="check guaranteed moments of a model+expansion")
    p.add_argument("--model", required=True, help="catalog name or model JSON path")
    p.add_argument("--kind", required=True, help=kind_help)
    p.add_argument("--order", type=int, required=True, help=order_help)
    p.add_argument("--tolerance", type=_threshold, default=1e-10,
                   help="each moment passes within this times max(1, |exact moment|)")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")

    p = sub.add_parser("simulate", help="run a shock tube")
    p.add_argument("--model", required=True, help="catalog name or model JSON path")
    p.add_argument("--kind", required=True, help=kind_help)
    p.add_argument("--order", type=int, required=True, help=order_help)
    p.add_argument("--rho-bar", type=float, default=3.0,
                   help="dense-state density; the dilute one is 1 (default 3)")
    p.add_argument("--nodes", type=int, default=1000,
                   help="lattice nodes, v2 / p_1 apart (default 1000)")
    p.add_argument("--interface", type=int, default=500,
                   help="first node of the right state (default 500)")
    p.add_argument("--high-side", choices=["left", "right"], default="left",
                   help="side that holds the dense state (default left)")
    p.add_argument("--tau", type=float, default=1.0,
                   help="relaxation time in steps, >= 0.5 (default 1)")
    p.add_argument("--steps", type=int, default=None,
                   help="lattice time steps (default: shock crosses 35%% of the lattice)")
    p.add_argument("--snapshot-interval", type=int, default=None,
                   help="also score every this many steps (default: the last step only)")
    p.add_argument("--workers", type=_workers, default=1,
                   help="checked to be >= 1; the run uses one core whatever "
                        "the value")
    p.add_argument("--csv", default=None, help="final snapshot CSV path")
    p.add_argument("--manifest", default=None, help="run manifest JSON path")
    p.add_argument("--expect-stable", action="store_true",
                   help="exit 3, not 2, if the run goes unstable")
    p.add_argument("--allow-unstable", action="store_true",
                   help="exit 0 even if the run goes unstable")

    p = sub.add_parser("riemann", help="solve a reference Riemann problem")
    p.add_argument("--left", required=True, help="rho,u,theta")
    p.add_argument("--right", required=True, help="rho,u,theta")
    p.add_argument("--gamma", type=float, default=3.0, help="adiabatic index (default 3)")
    p.add_argument("--time", type=float, default=None,
                   help="sample time of --csv, in lattice steps when --dx is a run's dx")
    p.add_argument("--nodes", type=int, default=1000,
                   help="nodes of the --csv profile (default 1000)")
    p.add_argument("--interface", type=int, default=500,
                   help="node at x = 0, the initial jump (default 500)")
    p.add_argument("--dx", type=float, default=1.0,
                   help="node spacing of the --csv profile (default 1)")
    p.add_argument("--csv", default=None, help="sampled profile CSV path")
    p.add_argument("--out", default=None, help="solution JSON path (default stdout)")

    p = sub.add_parser("compare", help="compare a run against the exact solution")
    p.add_argument("--sim", required=True, help="snapshot CSV from simulate")
    p.add_argument("--manifest", required=True, help="manifest JSON from simulate; the "
                   "exact jump sits at node interface - 0.5")
    p.add_argument("--probe-low", type=int, help="default: the run's low probe node")
    p.add_argument("--probe-high", type=int, help="default: the run's high probe node")
    p.add_argument("--max-plateau-diff", type=_threshold, default=None,
                   help="exit 3 if any plateau field differs by more")
    p.add_argument("--out", default=None, help="comparison JSON path (default stdout)")

    p = sub.add_parser("stability-scan", help="stability verdicts over a grid")
    p.add_argument("--models", required=True, help="comma list of model refs")
    p.add_argument("--expansions", required=True,
                   help="comma list of kind:order labels")
    p.add_argument("--rho-bars", required=True, help="comma list of densities")
    p.add_argument("--taus", default="1.0",
                   help="comma list of relaxation times in steps (default 1.0)")
    p.add_argument("--steps", type=int, default=None,
                   help="lattice time steps (default: each row's own, as simulate's)")
    p.add_argument("--nodes", type=int, default=1000,
                   help="lattice nodes, the interface at nodes // 2 (default 1000)")
    p.add_argument("--workers", type=_workers, default=1,
                   help="processes that step the scan's (model, expansion) "
                        "groups, >= 1; the output is the same for any count")
    p.add_argument("--out", default=None, help="verdict CSV path (default stdout)")

    p = sub.add_parser("catalog", help="list built-in models")
    p.add_argument("--regenerate", action="store_true",
                   help="re-derive each model and report the deviation")
    p.add_argument("--out", default=None, help="catalog JSON path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up when called, not bound in the cached parser, so that a
        # wrapper set on this module's cmd_* (a tracer, a test) is what runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit:  # --help and --version
        return EXIT_OK
    except VacuumError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's message names the allocation it refused
        print("failure: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
