"""Shared fixtures and the acceptance summary hook.

Catalog models are derived once per session; derivation is cheap but the
simulator tests reuse the same objects many times.
"""

import warnings

import numpy as np
import pytest

from thermolb import resolve_catalog
from thermolb.cli import main

# the first words of the one stderr line of a run that exits non-zero
FAILURE_PREFIXES = ("error:", "numerical failure:", "failure:", "expectation violated")


@pytest.fixture(scope="session")
def q3():
    return resolve_catalog("q3")


@pytest.fixture(scope="session")
def q5():
    return resolve_catalog("q5")


@pytest.fixture(scope="session")
def q5_ghost():
    return resolve_catalog("q5-ghost")


@pytest.fixture(scope="session")
def q7():
    return resolve_catalog("q7")


@pytest.fixture(scope="session")
def q11():
    return resolve_catalog("q11")


@pytest.fixture(scope="session")
def q21():
    return resolve_catalog("q21")


@pytest.fixture(autouse=True)
def _no_stray_numpy_warnings():
    # macroscopic reductions guard their own divisions; anything else
    # surfacing as a warning in tests is a bug
    with np.errstate(all="warn"):
        yield


@pytest.fixture
def run_cli(capsys):
    """run_cli(argv) runs ``main(argv)`` in process, checks the CLI contract
    on that run and returns (exit code, stdout, stderr).

    The contract: the exit code is 0, 1, 2 or 3; no warning is raised and
    stderr holds no ``Traceback`` or ``Warning``; and a non-zero exit writes
    exactly one stderr line, which starts with one of FAILURE_PREFIXES."""
    def run(argv):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), code
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err and "Warning" not in err, err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith(FAILURE_PREFIXES), err
        return code, out, err

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion at the end."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in name:
                tag = name.split("::test_criterion_")[1]
                num = int(tag.split("_")[0])
                label = tag.split("_", 1)[1] if "_" in tag else ""
                verdict = "PASS" if status == "passed" else "FAIL"
                lines[num] = (verdict, label.replace("_", " "))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(lines):
        verdict, label = lines[num]
        terminalreporter.write_line(f"criterion {num:2d} {verdict}  {label}")
