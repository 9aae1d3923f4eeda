"""Golden bytes of the solver commands.

Each case runs one CLI invocation in a fresh directory and compares the
sha256 of everything it writes (stdout and output files) with a digest
recorded from an earlier release of the solver.  The solver is exact up
to its final float conversion, so any rewrite of the root finding or the
weight solve must reproduce these bytes; a changed digest means changed
output, not noise.
"""
import hashlib

import pytest

from thermolb.cli import EXIT_EXPECTATION, EXIT_OK, main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (argv, exit code, {"stdout" or output file name: sha256})
CASES = {
    "derive-rational-root-heavy": (
        ["derive", "--ratios", "2,3,6,8,9,12", "--out", "m.json"], EXIT_OK,
        {"stdout": EMPTY,
         "m.json": "33d8f9784c3a0a01facc4fcdd01709833423c1f9dfcef2474558bed45deb911d"}),
    "derive-q21": (
        ["derive", "--ratios", "2,3,4,5,6,7,8,9,11", "--out", "m.json"], EXIT_OK,
        {"stdout": EMPTY,
         "m.json": "30970162b1e418f5f86518ff997498397b004ed586c45c8b03178f71c229bade"}),
    "sweep-table-and-residual": (
        ["sweep", "--ratios", "?", "--grid", "2:4:1/2", "--residual-grid", "0.3:1.5:7",
         "--residual-out", "res.csv", "--out", "table.csv"], EXIT_OK,
        {"stdout": EMPTY,
         "table.csv": "34db486a5c86ddc3e3811a067b5335ce19246345b1b51a73fb8bb90baedec0a6",
         "res.csv": "457a7f8bd951a57d8bbf2e32d9b8dd8c30f8bed02a443c835e244d119b353b27"}),
    "sweep-inverse-grid": (
        ["sweep", "--ratios", "2,?", "--grid", "3:5:1", "--inverse-grid",
         "--residual-grid", "0.2:1.2:5", "--residual-out", "res.csv"], EXIT_OK,
        {"stdout": "cd84eb2d150903f8a3339e2274c9b9a30b7e9071d7cf765decf5b3f7d2ee5a49",
         "res.csv": "085d6c947526bb733a79765e966d1f4f4f3ce825e257dfd0e05c83048f92e1b6"}),
    "catalog-regenerate": (
        ["catalog", "--regenerate"], EXIT_OK,
        {"stdout": "edf1ae67e4a84f864f38f0def42d4d070c20e58cac47eff7a69bdd549874cd04"}),
    "verify-q21-taylor5": (
        ["verify", "--model", "q21", "--kind", "taylor", "--order", "5"], EXIT_OK,
        {"stdout": "d339113e3bd70551a2448e80b8bcef38452911e86f0bf2dcf718b31ad5c09f90"}),
    "verify-q21-taylor5-strict": (
        ["verify", "--model", "q21", "--kind", "taylor", "--order", "5",
         "--tolerance", "1e-30"], EXIT_EXPECTATION,
        {"stdout": "09688c1d0a78bd654998ce70ea09aa30090193ca369a78f21f94f40dee1bb36e"}),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_output_bytes_are_unchanged(name, tmp_path, monkeypatch, capsys):
    argv, code, digests = CASES[name]
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    got = {"stdout": _sha256(capsys.readouterr().out.encode())}
    got.update((f, _sha256((tmp_path / f).read_bytes())) for f in digests if f != "stdout")
    assert got == digests
