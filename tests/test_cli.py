"""Command-line round trips.

Runs the CLI in process via main(argv) so exit codes and output files can
be checked cheaply, with one subprocess test for the module entry point.
Numerical content is only spot-checked here; the underlying routines have
their own oracle-backed suites.
"""
import csv
import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from thermolb.cli import (EXIT_EXPECTATION, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                          _csv_lines, _read_snapshot_csv, _snapshot_csv, main)
from thermolb.equilibrium import ExpansionSpec, expand
from thermolb.riemann import GasState, sample_profile, solve_riemann

# star state of the rho 3:1 resting tube (frozen in the Riemann suite)
DENSE3_P_STAR = 0.8246314714243578
DENSE3_U_STAR = 0.2214347850142307
DENSE3_SHOCK_SPEED = 1.4660364739148595
DENSE3_RARE_HEAD = -1.224744871391589


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def load_json(path):
    return json.loads(path.read_text())


# ----------------------------------------------------------- basic wiring


def test_version_flag_and_missing_subcommand(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.strip()
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_module_entry_point_prints_json():
    proc = subprocess.run([sys.executable, "-m", "thermolb", "derive",
                           "--ratios", "3"], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    models = json.loads(proc.stdout)
    assert len(models) == 2  # physical branch plus the ghost branch


# ----------------------------------------------------------------- derive


def test_derive_base_three_speed_model(tmp_path):
    out = tmp_path / "m.json"
    assert main(["derive", "--ratios", "", "--out", str(out)]) == EXIT_OK
    (model,) = load_json(out)
    assert model["q"] == 3
    assert model["p"] == [1]
    assert abs(model["v2"] - 1.224744871391589) < 1e-12
    assert model["s_exact"] == [3, 2]
    assert model["weights_normalized"] == [pytest.approx(2 / 3), pytest.approx(1 / 6)]
    assert model["residual"] < 1e-12
    assert model["all_positive"] is True


def test_derive_five_speed_branches(tmp_path):
    out = tmp_path / "m.json"
    assert main(["derive", "--q", "5", "--ratios", "3", "--out", str(out)]) == EXIT_OK
    models = load_json(out)
    assert len(models) == 2
    speeds = sorted(m["v2"] for m in models)
    assert abs(speeds[0] - 0.553432) < 1e-6
    assert abs(speeds[1] - 1.166353) < 1e-6
    for m in models:
        assert m["residual"] < 1e-10
        assert not any(m["ghosts"])  # every weight carries real mass here


def test_derive_flags_ghost_weights_at_extreme_ratios(tmp_path):
    # ratio 100 approaches the three-speed limit: one branch keeps
    # v2 near sqrt(3/2) and a vanishing weight on the fast pair
    out = tmp_path / "m.json"
    assert main(["derive", "--ratios", "100", "--out", str(out)]) == EXIT_OK
    limit = max(load_json(out), key=lambda m: m["v2"])
    assert abs(limit["v2"] - 1.224744871391589) < 1e-4
    assert limit["ghosts"] == [False, False, True]
    assert limit["weights_normalized"][2] < 1e-4


def test_derive_reports_an_empty_list_when_no_real_root_exists(tmp_path):
    # ratio 3/2 sits inside the gap where the quadratic has no real root
    out = tmp_path / "m.json"
    assert main(["derive", "--ratios", "3/2", "--out", str(out)]) == EXIT_OK
    assert load_json(out) == []


def test_derive_usage_errors():
    assert main(["derive", "--q", "4", "--ratios", ""]) == EXIT_USAGE
    assert main(["derive", "--q", "5", "--ratios", ""]) == EXIT_USAGE
    assert main(["derive", "--ratios", "0"]) == EXIT_USAGE
    assert main(["derive", "--ratios", "3/0"]) == EXIT_USAGE


# ------------------------------------------------------------------ sweep


def test_sweep_family_with_a_root_gap(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--ratios", "?", "--grid", "2:4:1",
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header[0] == "param"
    assert "branch0_v2" in header and "branch1_v2" in header
    assert [float(r[0]) for r in rows] == [2.0, 3.0, 4.0]
    v2_col = header.index("branch0_v2")
    assert np.isnan(float(rows[0][v2_col]))  # ratio 2 has no real root
    found = {float(rows[1][header.index(f"branch{b}_v2")]) for b in (0, 1)}
    assert min(found) == pytest.approx(0.553432, abs=1e-6)


def test_sweep_residual_grid_brackets_the_root(tmp_path):
    out = tmp_path / "sweep.csv"
    res = tmp_path / "res.csv"
    assert main(["sweep", "--ratios", "?", "--grid", "3:3:1",
                 "--residual-grid", "0.4:0.7:4", "--residual-out", str(res),
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(res)
    assert header == ["param", "v2", "residual"]
    residual = {float(r[1]): float(r[2]) for r in rows}
    assert len(residual) == 4
    # base speed 0.553432 lies between these grid points
    assert residual[0.5] * residual[0.6] < 0


def test_sweep_usage_errors(tmp_path):
    assert main(["sweep", "--ratios", "?,?", "--grid", "2:4:1"]) == EXIT_USAGE
    assert main(["sweep", "--ratios", "?", "--grid", "4:2:1"]) == EXIT_USAGE
    assert main(["sweep", "--ratios", "?", "--grid", "2:4:1",
                 "--residual-grid", "0.4:0.7:4"]) == EXIT_USAGE


# ----------------------------------------------------------------- expand


def test_expand_first_order_table_is_exact(tmp_path):
    out = tmp_path / "te1.csv"
    assert main(["expand", "--kind", "taylor", "--order", "1",
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["v_power", "u_power", "t_power", "numerator",
                      "denominator", "kind", "N"]
    assert [tuple(r) for r in rows] == [
        ("0", "0", "0", "1", "1", "taylor", "1"),
        ("0", "0", "1", "-1", "2", "taylor", "1"),
        ("1", "1", "0", "2", "1", "taylor", "1"),
        ("2", "0", "1", "1", "1", "taylor", "1"),
    ]


def test_expand_matches_the_library_table(tmp_path):
    out = tmp_path / "he3.csv"
    assert main(["expand", "--kind", "he", "--order", "3",
                 "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    expected = expand(ExpansionSpec("hermite", 3)).table_rows()
    assert [tuple(int(c) for c in r[:5]) for r in rows] == expected
    assert all(r[5] == "hermite" and r[6] == "3" for r in rows)


def test_expand_honors_theta0(tmp_path):
    out = tmp_path / "t0.csv"
    assert main(["expand", "--kind", "hermite", "--order", "2",
                 "--theta0", "3/2", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    table = {(int(r[0]), int(r[1]), int(r[2])): Fraction(int(r[3]), int(r[4]))
             for r in rows}
    assert table == expand(ExpansionSpec("hermite", 2, Fraction(3, 2))).terms


def test_expand_usage_errors():
    assert main(["expand", "--kind", "pade", "--order", "2"]) == EXIT_USAGE
    assert main(["expand", "--kind", "taylor", "--order", "0"]) == EXIT_USAGE


# ----------------------------------------------------------------- verify


def test_verify_reports_guaranteed_moments(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--model", "q5", "--kind", "hermite", "--order", "3",
                 "--out", str(out)]) == EXIT_OK
    payload = load_json(out)
    assert payload["model_q"] == 5
    assert payload["expansion"] == "hermite:3"
    assert payload["m_max"] == 3
    assert payload["passed"] is True
    assert payload["max_abs_error"] < 1e-10
    assert payload["checks"] > 0


def test_verify_with_no_guaranteed_moments_passes_vacuously(tmp_path):
    # taylor order 5 on the five-speed model guarantees nothing
    out = tmp_path / "v.json"
    assert main(["verify", "--model", "q5", "--kind", "taylor", "--order", "5",
                 "--out", str(out)]) == EXIT_OK
    payload = load_json(out)
    assert payload["m_max"] < 0
    assert payload["checks"] == 0
    assert payload["passed"] is True


def test_verify_failure_uses_the_expectation_exit_code(tmp_path):
    model_file = tmp_path / "m.json"
    assert main(["derive", "--ratios", "3", "--out", str(model_file)]) == EXIT_OK
    broken = load_json(model_file)[0]
    # detune the base speed: the moment residual (6e-9) stays under the
    # load tolerance, the guaranteed moments drift by ~2e-9
    broken["v2"] *= 1 + 1e-9
    model_file.write_text(json.dumps(broken))
    out = tmp_path / "v.json"
    assert main(["verify", "--model", str(model_file), "--kind", "hermite",
                 "--order", "3", "--out", str(out)]) == EXIT_EXPECTATION
    payload = load_json(out)
    assert payload["passed"] is False
    assert payload["max_abs_error"] > 1e-10


def test_model_reference_accepts_a_derive_file(tmp_path, capsys):
    model_file = tmp_path / "m.json"
    assert main(["derive", "--q", "5", "--ratios", "3",
                 "--out", str(model_file)]) == EXIT_OK
    assert main(["verify", "--model", str(model_file), "--kind", "hermite",
                 "--order", "3"]) == EXIT_OK
    # one weight off by a relative 1e-6 breaks the moment rows it was solved from
    models = load_json(model_file)
    models[0]["weights_normalized"][1] *= 1 + 1e-6
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(models))
    capsys.readouterr()
    assert main(["verify", "--model", str(tampered), "--kind", "hermite",
                 "--order", "3"]) == EXIT_USAGE
    assert "moment residual" in capsys.readouterr().err
    bogus = tmp_path / "bogus.json"
    bogus.write_text("not json")
    assert main(["verify", "--model", str(bogus), "--kind", "hermite",
                 "--order", "3"]) == EXIT_USAGE
    assert main(["verify", "--model", "no-such-model", "--kind", "hermite",
                 "--order", "3"]) == EXIT_USAGE


# --------------------------------------------------------------- simulate


def simulate_args(tmp_path, tag, *extra):
    csv_path = tmp_path / f"{tag}.csv"
    manifest_path = tmp_path / f"{tag}.json"
    argv = ["simulate", "--model", "q5", "--kind", "taylor", "--order", "2",
            "--csv", str(csv_path), "--manifest", str(manifest_path), *extra]
    return argv, csv_path, manifest_path


def test_simulate_writes_snapshot_and_manifest(tmp_path):
    argv, csv_path, manifest_path = simulate_args(tmp_path, "run", "--steps", "60")
    assert main(argv) == EXIT_OK
    header, rows = read_csv(csv_path)
    assert header == ["X", "rho", "u", "theta", "p"]
    assert len(rows) == 1000
    manifest = load_json(manifest_path)
    assert manifest["command"] == "simulate"
    assert manifest["config"]["nodes"] == 1000
    assert manifest["config"]["steps"] == 60
    assert manifest["final_step"] == 60
    assert manifest["verdict"]["stable"] is True
    assert manifest["plateaus"]["probe_nodes"] == [430, 650]
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert manifest["output_sha256"] == digest


def test_simulate_output_is_byte_stable(tmp_path, monkeypatch):
    monkeypatch.delenv("THERMOLB_WORKERS", raising=False)
    argv_a, csv_a, _ = simulate_args(tmp_path, "a", "--steps", "60")
    argv_b, csv_b, _ = simulate_args(tmp_path, "b", "--steps", "60")
    argv_c, csv_c, _ = simulate_args(tmp_path, "c", "--steps", "60",
                                     "--workers", "4")
    assert main(argv_a) == EXIT_OK
    assert main(argv_b) == EXIT_OK
    assert main(argv_c) == EXIT_OK
    data = csv_a.read_bytes()
    assert csv_b.read_bytes() == data
    assert csv_c.read_bytes() == data
    monkeypatch.setenv("THERMOLB_WORKERS", "4")
    argv_d, csv_d, _ = simulate_args(tmp_path, "d", "--steps", "60")
    assert main(argv_d) == EXIT_OK
    assert csv_d.read_bytes() == data


def test_simulate_exit_codes_for_unstable_runs(tmp_path, capsys):
    unstable = ["--rho-bar", "4", "--kind", "hermite", "--order", "3",
                "--steps", "80"]
    argv, _, manifest_path = simulate_args(tmp_path, "u1", *unstable)
    assert main(argv) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    argv, _, manifest_path = simulate_args(tmp_path, "u2", *unstable,
                                           "--allow-unstable")
    assert main(argv) == EXIT_OK
    verdict = load_json(manifest_path)["verdict"]
    assert verdict["stable"] is False
    assert verdict["failure_step"] == 35
    assert verdict["failure_mode"] == "non_positive_density"
    argv, _, _ = simulate_args(tmp_path, "u3", *unstable, "--expect-stable")
    assert main(argv) == EXIT_EXPECTATION
    assert "expectation violated" in capsys.readouterr().err


def test_simulate_usage_errors(tmp_path):
    argv, _, _ = simulate_args(tmp_path, "bad_tau", "--tau", "0.4")
    assert main(argv) == EXIT_USAGE
    argv, _, _ = simulate_args(tmp_path, "bad_workers", "--workers", "0")
    assert main(argv) == EXIT_USAGE
    assert main(["simulate", "--model", "no-such", "--kind", "taylor",
                 "--order", "2"]) == EXIT_USAGE


def test_snapshot_csv_write_and_read_are_exact_on_awkward_values(tmp_path):
    tiny = float(np.finfo(np.float64).tiny)
    awkward = np.array([-0.0, 0.0, 5e-324, tiny / 3, -tiny / 7, tiny, 1e-300, -1e-300,
                        1.0, -2.0, 3e15, 2.0 ** 53, -(2.0 ** 60), 0.1, 1 / 3, 1e150])
    n = 100_003  # six-digit node indices
    rng = np.random.default_rng(5)
    rho, u, theta = (rng.permutation(np.resize(awkward, n)) for _ in range(3))
    with np.errstate(under="ignore"):  # p = rho * theta of two subnormals
        text = _snapshot_csv(rho, u, theta)
        rows = [[i, rho[i], u[i], theta[i], rho[i] * theta[i]] for i in range(n)]
    assert text == _csv_lines(["X", "rho", "u", "theta", "p"], rows)
    path = tmp_path / "awkward.csv"
    path.write_text(text)
    parsed = np.array([[float(c) for c in line.split(",")]
                       for line in text.splitlines()[1:]])
    assert np.array_equal(_read_snapshot_csv(str(path)).view(np.uint64),
                          parsed.view(np.uint64))  # sign of zero included


# ---------------------------------------------------------------- riemann


def test_riemann_star_state_of_the_reference_tube(tmp_path):
    out = tmp_path / "r.json"
    assert main(["riemann", "--left", "3,0,1", "--right", "1,0,1",
                 "--out", str(out)]) == EXIT_OK
    payload = load_json(out)
    assert payload["gamma"] == 3.0
    assert payload["p_star_physical"] == pytest.approx(DENSE3_P_STAR, rel=1e-12)
    assert payload["u_star"] == pytest.approx(DENSE3_U_STAR, rel=1e-12)
    assert payload["p_star_reported"] == pytest.approx(2 * DENSE3_P_STAR, rel=1e-12)
    assert payload["left_wave"]["kind"] == "rarefaction"
    assert payload["left_wave"]["head"] == pytest.approx(DENSE3_RARE_HEAD, rel=1e-12)
    assert payload["right_wave"]["kind"] == "shock"
    assert payload["right_wave"]["head"] == payload["right_wave"]["tail"]
    assert payload["right_wave"]["head"] == pytest.approx(DENSE3_SHOCK_SPEED,
                                                          rel=1e-12)
    # theta = 2 p / rho on both sides of the contact
    assert payload["theta_star_left"] == pytest.approx(
        2 * payload["p_star_physical"] / payload["rho_star_left"], rel=1e-12)
    assert payload["theta_star_right"] == pytest.approx(
        2 * payload["p_star_physical"] / payload["rho_star_right"], rel=1e-12)


def test_riemann_other_gamma(tmp_path):
    out = tmp_path / "sod.json"
    assert main(["riemann", "--left", "1,0,2", "--right", "0.125,0,1.6",
                 "--gamma", "1.4", "--out", str(out)]) == EXIT_OK
    payload = load_json(out)
    assert abs(payload["p_star_physical"] - 0.30313) < 2e-5
    assert abs(payload["u_star"] - 0.92745) < 2e-5


def test_riemann_profile_csv_round_trips(tmp_path):
    out = tmp_path / "r.json"
    prof = tmp_path / "prof.csv"
    assert main(["riemann", "--left", "3,0,1", "--right", "1,0,1",
                 "--csv", str(prof), "--out", str(out)]) == EXIT_USAGE  # no --time
    assert main(["riemann", "--left", "3,0,1", "--right", "1,0,1",
                 "--time", "50", "--csv", str(prof),
                 "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(prof)
    assert len(rows) == 1000
    data = np.array([[float(c) for c in r] for r in rows])
    sol = solve_riemann(GasState(3, 0, 1), GasState(1, 0, 1))
    x = (np.arange(1000) - 500) * 1.0
    rho, u, theta = sample_profile(sol, x, 50.0)
    # 17 significant digits round trip float64 exactly
    assert np.array_equal(data[:, 1], rho)
    assert np.array_equal(data[:, 2], u)
    assert np.array_equal(data[:, 3], theta)


def test_riemann_vacuum_is_a_numerical_failure(capsys):
    assert main(["riemann", "--left", "1,-3,1", "--right", "1,3,1"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert main(["riemann", "--left", "1,0", "--right", "1,0,1"]) == EXIT_USAGE


# ---------------------------------------------------------------- compare


def test_compare_against_the_exact_solution(tmp_path, capsys):
    argv, csv_path, manifest_path = simulate_args(tmp_path, "full")
    assert main(argv) == EXIT_OK  # default horizon
    out = tmp_path / "cmp.json"
    base = ["compare", "--sim", str(csv_path), "--manifest", str(manifest_path),
            "--out", str(out)]
    assert main(base) == EXIT_OK
    payload = load_json(out)
    for name in ("rho", "u", "theta", "p"):
        assert payload["fields"][name]["l1"] < 0.05
        assert payload["fields"][name]["linf"] >= payload["fields"][name]["l1"]
        for tag in ("low", "high"):
            cell = payload["plateaus"][tag][name]
            assert cell["diff"] == pytest.approx(abs(cell["sim"] - cell["exact"]))
    assert main(base + ["--max-plateau-diff", "0.05"]) == EXIT_OK
    assert main(base + ["--max-plateau-diff", "1e-9"]) == EXIT_EXPECTATION
    assert "expectation violated" in capsys.readouterr().err
    # a probe whose +-10-node window leaves the lattice is a usage error
    assert main(base + ["--probe-low", "3", "--max-plateau-diff", "1e-9"]) == EXIT_USAGE
    assert main(base + ["--probe-high", "995"]) == EXIT_USAGE
    # a NaN inside a probe window is a violation whatever the bound
    lines = csv_path.read_text().splitlines()
    cells = lines[1 + 430].split(",")
    lines[1 + 430] = ",".join([cells[0], "nan", *cells[2:]])
    with_nan = tmp_path / "nan.csv"
    with_nan.write_text("\n".join(lines) + "\n")
    assert main(["compare", "--sim", str(with_nan), "--manifest", str(manifest_path),
                 "--max-plateau-diff", "1e9"]) == EXIT_EXPECTATION
    truncated = tmp_path / "short.csv"
    truncated.write_text("\n".join(csv_path.read_text().splitlines()[:-1]) + "\n")
    assert main(["compare", "--sim", str(truncated),
                 "--manifest", str(manifest_path)]) == EXIT_USAGE


# --------------------------------------------------------- stability-scan


def test_stability_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["stability-scan", "--models", "q5", "--expansions", "hermite:3",
                 "--rho-bars", "3,4", "--steps", "50", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["model", "expansion", "rho_bar", "tau", "stable",
                      "failure_step", "failure_mode", "fluctuation", "steps"]
    ok, bad = rows
    assert ok[:2] == ["q5", "hermite:3"] and bad[:2] == ["q5", "hermite:3"]
    assert (ok[4], ok[5], ok[6]) == ("1", "-1", "")
    assert (bad[4], bad[5], bad[6]) == ("0", "35", "non_positive_density")
    assert int(ok[8]) == 50


def test_stability_scan_usage_error(monkeypatch):
    assert main(["stability-scan", "--models", "q5", "--expansions", "bogus",
                 "--rho-bars", "3"]) == EXIT_USAGE
    monkeypatch.setenv("THERMOLB_WORKERS", "0")
    assert main(["stability-scan", "--models", "q5", "--expansions", "hermite:3",
                 "--rho-bars", "3"]) == EXIT_USAGE


# ---------------------------------------------------------------- catalog


def test_catalog_lists_builtin_models(tmp_path):
    out = tmp_path / "cat.json"
    assert main(["catalog", "--out", str(out)]) == EXIT_OK
    payload = load_json(out)
    assert [e["name"] for e in payload] == ["q3", "q5", "q5-ghost", "q7",
                                            "q11", "q21"]
    for entry in payload:
        assert entry["q"] == 2 * len(entry["p"]) + 1
        assert entry["v2_reference"] > 0


def test_catalog_regenerate_matches_references(tmp_path):
    out = tmp_path / "cat.json"
    assert main(["catalog", "--regenerate", "--out", str(out)]) == EXIT_OK
    for entry in load_json(out):
        assert entry["v2_error"] < 5e-7
        assert entry["model"]["q"] == entry["q"]
