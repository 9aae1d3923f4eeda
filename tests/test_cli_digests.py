"""Golden bytes of the solver and simulator commands.

Each case runs one CLI invocation in a fresh directory and compares the
sha256 of everything it writes (stdout and output files) with a digest
recorded from an earlier release.  The solver is exact up to its final
float conversion, so any rewrite of the root finding or the weight solve
must reproduce these bytes.  The simulator's float operations per node
are fixed, so any rewrite of the stepping (which lattice it steps, how
the arrays are traversed) must reproduce them as well.  A changed digest
means changed output, not noise.
"""
import hashlib
import threading

import pytest

from thermolb.cli import EXIT_EXPECTATION, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

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
    # the largest powers of the speeds in the residual still fit a float
    "derive-1e40": (
        ["derive", "--ratios", "1e40", "--out", "m.json"], EXIT_OK,
        {"stdout": EMPTY,
         "m.json": "13af21e7b722428c8662ecc589ba323547f10cbabaeae3e75ac850f83fc39197"}),
    "sweep-table-and-residual": (
        ["sweep", "--ratios", "?", "--grid", "2:4:1/2", "--residual-grid", "0.3:1.5:7",
         "--residual-out", "res.csv", "--out", "table.csv"], EXIT_OK,
        {"stdout": EMPTY,
         "table.csv": "34db486a5c86ddc3e3811a067b5335ce19246345b1b51a73fb8bb90baedec0a6",
         "res.csv": "457a7f8bd951a57d8bbf2e32d9b8dd8c30f8bed02a443c835e244d119b353b27"}),
    # a degree-3 model polynomial at every grid point
    "sweep-degree3": (
        ["sweep", "--ratios", "2,3,?", "--grid", "4:10:1/4", "--out", "table.csv"], EXIT_OK,
        {"stdout": EMPTY,
         "table.csv": "130e5d39645a96c22d09e74cbfbf7b0b5f08fee9014835d1a02dddc2f5cb5609"}),
    "sweep-inverse-grid": (
        ["sweep", "--ratios", "2,?", "--grid", "3:5:1", "--inverse-grid",
         "--residual-grid", "0.2:1.2:5", "--residual-out", "res.csv"], EXIT_OK,
        {"stdout": "cd84eb2d150903f8a3339e2274c9b9a30b7e9071d7cf765decf5b3f7d2ee5a49",
         "res.csv": "085d6c947526bb733a79765e966d1f4f4f3ce825e257dfd0e05c83048f92e1b6"}),
    "expand-taylor3": (
        ["expand", "--kind", "taylor", "--order", "3"], EXIT_OK,
        {"stdout": "3cea93839dfeb7c2a4b896dd5bb810f23a4f13d9df8653a9476a2bef37eef7e9"}),
    "expand-hermite10": (
        ["expand", "--kind", "hermite", "--order", "10"], EXIT_OK,
        {"stdout": "1816aafdca5470ccf079723329d23febc8a5f4d41a1c99f14d3b0712ace7f06f"}),
    "expand-taylor5-theta0": (
        ["expand", "--kind", "taylor", "--order", "5", "--theta0", "3/2"], EXIT_OK,
        {"stdout": "76d183abbebf53b78629051f211a1c11e3e8d72ceb12935cea2e7c28a40da2be"}),
    "catalog-regenerate": (
        ["catalog", "--regenerate"], EXIT_OK,
        {"stdout": "edf1ae67e4a84f864f38f0def42d4d070c20e58cac47eff7a69bdd549874cd04"}),
    "verify-q21-taylor5": (
        ["verify", "--model", "q21", "--kind", "taylor", "--order", "5"], EXIT_OK,
        {"stdout": "d339113e3bd70551a2448e80b8bcef38452911e86f0bf2dcf718b31ad5c09f90"}),
    "verify-q21-taylor5-strict": (
        ["verify", "--model", "q21", "--kind", "taylor", "--order", "5",
         "--tolerance", "1e-30"], EXIT_EXPECTATION,
        {"stdout":
         "09688c1d0a78bd654998ce70ea09aa30090193ca369a78f21f94f40dee1bb36e"}),
}


SIMULATE = ["simulate", "--csv", "s.csv", "--manifest", "m.json", "--model"]
Q7_TAYLOR3 = SIMULATE + ["q7", "--kind", "taylor", "--order", "3"]
Q5_HERMITE3 = SIMULATE + ["q5", "--kind", "hermite", "--order", "3"]
# a lattice long enough that run() steps a shortened copy of it
LONG_TUBE = ["--nodes", "20000", "--interface", "9000", "--steps", "40"]
SCAN_GROUPS = ["stability-scan", "--rho-bars", "3,11", "--taus", "1,0.8", "--models"]
COMPARE = ["compare", "--sim", "s.csv", "--manifest", "m.json", "--out", "c.json"]

SIMULATOR_CASES = {
    "simulate-q7-taylor3": (
        Q7_TAYLOR3, EXIT_OK,
        {"stdout": EMPTY,
         "s.csv": "89af5819ef1200dfb2b1c07ea245ddf65e4d4b2969040dfabfa793f098b20f0e",
         "m.json": "1a28e254475d84749a1817e6608ee2901fda14884feab384ebf61b50048c4787"}),
    "simulate-q5-hermite3-right": (
        Q5_HERMITE3 + ["--high-side", "right"], EXIT_OK,
        {"stdout": EMPTY,
         "s.csv": "818e04df9dda5cd8778c01094a8ca0548f687e46fb5a22802d327b13ab9ceb65",
         "m.json": "54929a7b5bc39c6fb1f3a72151d4d417ebe64aa2e521225e24e52b42b8f763aa"}),
    "simulate-q7-taylor3-tau08": (
        Q7_TAYLOR3 + ["--tau", "0.8", "--steps", "150"], EXIT_OK,
        {"stdout": EMPTY,
         "s.csv": "5118edd748b972bbfc6dbacdb1013eb0e78700cd2046aa9230da6598022bc451",
         "m.json": "bfa31edad8ad8bf295ac215ce9ef24bba78aa2a8246428206102fe7811d38178"}),
    "simulate-shortened": (
        Q7_TAYLOR3 + LONG_TUBE + ["--snapshot-interval", "10"], EXIT_OK,
        {"stdout": EMPTY,
         "s.csv": "ed8f104c8d1c96c52ba03c757e923113bf26cb4a70e6ed730b72c1df1fa77c71",
         "m.json": "cc7adfcb33d1a9586dcbd2b39c1e48e1edfdfd956eca0d54a6f82c6b3c9f2a6b"}),
    "simulate-shortened-right-tau06": (
        Q7_TAYLOR3 + LONG_TUBE + ["--high-side", "right", "--tau", "0.6"], EXIT_OK,
        {"stdout": EMPTY,
         "s.csv": "0926a98084ac4b3c428f739a63585469c1de565edc039114bccee2e4f5256ff7",
         "m.json": "80d92be12216d22ba0f40f497f0facc0a6eb627ab8bd0e3bf584b1eb8141d24a"}),
    "simulate-unstable": (
        Q5_HERMITE3 + ["--rho-bar", "11", "--allow-unstable"], EXIT_OK,
        {"stdout": EMPTY,
         "s.csv": "a1fe0c0ab609707329cba263d2c08f6088bdfba863fc7cf136433d881aa82a92",
         "m.json": "81b032990ad3ad49899b0374c057d19824e42bb15cfb79a386a374bca8ffbf6e"}),
    "simulate-shortened-unstable": (
        Q5_HERMITE3 + LONG_TUBE + ["--rho-bar", "11", "--allow-unstable"], EXIT_OK,
        {"stdout": EMPTY,
         "s.csv": "bfca6c626ed7f09363312950edaf78e479dd2d8a90eb71e3b8f6d9114adbf158",
         "m.json": "2a16db9228cc7db12ab9076db294232ee7c8a1f2b63d017b852d4c06f7478c3e"}),
    "riemann-csv": (
        ["riemann", "--left", "3,0,1", "--right", "1,0,1", "--time", "150",
         "--dx", "0.8", "--csv", "r.csv", "--out", "r.json"], EXIT_OK,
        {"stdout": EMPTY,
         "r.csv": "4c9b78770cc0330fcf4b44bf82e3c87412d83cca7a4d2017d791c63c0ef9f026",
         "r.json": "c9ac7019550b85656b2358566d5ccceb24299a6a66282e96c3b49f40bdade6ee"}),
    # the mirrored pair: a right-going fan
    "riemann-csv-mirrored": (
        ["riemann", "--left", "1,0,1", "--right", "3,0,1", "--time", "150",
         "--dx", "0.8", "--csv", "r.csv", "--out", "r.json"], EXIT_OK,
        {"stdout": EMPTY,
         "r.csv": "ddeb7a478eb0feef66a4099b5a3d8f289d7382a53b40966d1a2e58e65138546f",
         "r.json": "c02062c1cbb6e5a5edf0227fd66002feb825465662a5050c7d801cb252a92c7d"}),
    # two rarefactions: a fan on each side
    "riemann-csv-two-rarefactions": (
        ["riemann", "--left", "1,-0.3,1", "--right", "2,0.3,1.2", "--time", "150",
         "--dx", "0.8", "--csv", "r.csv", "--out", "r.json"], EXIT_OK,
        {"stdout": EMPTY,
         "r.csv": "45cd94f63a48676a254fbe7a83e4fbb5ecbb0b0db04e84513c91080f373ccbfe",
         "r.json": "e3e0c57b4d25dd4d706bba12ff9caf09f20c2691fe652e4d97c9fba774822481"}),
    "compare": (
        COMPARE, EXIT_OK,
        {"stdout": EMPTY,
         "c.json": "71357eaf3bcf8d39bbc08bd458d05043288adb0c494658c8bc3e6c4cf6abe63d"}),
    # the same compare on hand-edited copies of the snapshot, which no longer
    # match the manifest's output_sha256 (a warning on stderr only)
    "compare-crlf": (
        COMPARE, EXIT_OK,
        {"stdout": EMPTY,
         "c.json": "71357eaf3bcf8d39bbc08bd458d05043288adb0c494658c8bc3e6c4cf6abe63d"}),
    "compare-no-final-newline": (
        COMPARE, EXIT_OK,
        {"stdout": EMPTY,
         "c.json": "71357eaf3bcf8d39bbc08bd458d05043288adb0c494658c8bc3e6c4cf6abe63d"}),
    "stability-scan": (
        ["stability-scan", "--models", "q5,q7", "--expansions", "hermite:3,taylor:3",
         "--rho-bars", "3,11", "--taus", "1,0.8", "--nodes", "400"], EXIT_OK,
        {"stdout":
         "808dc77154f99df99c57cc3c9778a71dbcc796acc0807f563297a4b539013a16"}),
    # two scans, each group mixing tau 1 and 0.8 and stable and failing rows:
    # cut.csv steps 30 steps on light cones cut from 20000 nodes; scan.csv
    # takes the default horizons, which differ by density, fails by density
    # and by velocity, and keeps q21 taylor:5 at rho 11 stable only at tau 1
    "stability-scan-groups": (
        SCAN_GROUPS + ["q5,q21", "--expansions", "taylor:5", "--nodes", "1000",
                       "--out", "scan.csv"], EXIT_OK,
        {"stdout": EMPTY,
         "cut.csv": "956e6a6417298bf4cd92869c8b78b8443d8d102cdc00daa329f80609dd4d88ea",
         "scan.csv": "43682c300b0a2320179091b15fbf9a06c6a195651c9e7d6870f3b2f0645bce20"}),
}


def _crlf(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def _no_final_newline(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))


# what writes a case's inputs: an argv that must exit 0, or an edit of the
# files written so far
PRELUDES = {"compare": [Q7_TAYLOR3], "compare-crlf": [Q7_TAYLOR3, _crlf],
            "compare-no-final-newline": [Q7_TAYLOR3, _no_final_newline],
            "stability-scan-groups": [
                SCAN_GROUPS + ["q5,q7", "--expansions", "hermite:3", "--nodes", "20000",
                               "--steps", "30", "--out", "cut.csv"]]}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _output_digests(argv, code, digests, tmp_path, capsys, preludes=()):
    for prelude in preludes:
        if callable(prelude):
            prelude(tmp_path)
        else:
            assert main(prelude) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == code
    got = {"stdout": _sha256(capsys.readouterr().out.encode())}
    got.update((f, _sha256((tmp_path / f).read_bytes())) for f in digests if f != "stdout")
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_output_bytes_are_unchanged(name, tmp_path, monkeypatch, capsys):
    argv, code, digests = CASES[name]
    monkeypatch.chdir(tmp_path)
    assert _output_digests(argv, code, digests, tmp_path, capsys) == digests


@pytest.mark.parametrize("name", sorted(SIMULATOR_CASES))
def test_simulator_output_bytes_are_unchanged(name, tmp_path, monkeypatch, capsys):
    argv, code, digests = SIMULATOR_CASES[name]
    monkeypatch.chdir(tmp_path)
    got = _output_digests(argv, code, digests, tmp_path, capsys, PRELUDES.get(name, ()))
    assert got == digests


SNAPSHOT = SIMULATOR_CASES["simulate-q7-taylor3"][2]["s.csv"]
REPORT = SIMULATOR_CASES["compare"][2]["c.json"]
# (argv, exit code, stdout sha256, stderr); simulate and compare hash
# their snapshot on a second thread, a failed write or read included
THREAD_CASES = {
    "simulate-unwritable-manifest": (
        ["simulate", "--csv", "s.csv", "--manifest", "nodir/m.json", *Q7_TAYLOR3[5:]],
        EXIT_NUMERICAL, EMPTY,
        "failure: [Errno 2] No such file or directory: 'nodir/m.json'\n"),
    "simulate-csv-to-stdout": (
        ["simulate", "--csv", "-", *Q7_TAYLOR3[5:]], EXIT_OK, SNAPSHOT, ""),
    "compare-bad-header": (
        ["compare", "--sim", "bad.csv", "--manifest", "m.json", "--out", "c.json"],
        EXIT_USAGE, EMPTY,
        "error: bad.csv line 1: expected the header 'X,rho,u,theta,p', found 'x,y'\n"),
    "compare": (COMPARE, EXIT_OK, EMPTY, ""),
}


@pytest.mark.parametrize("name", sorted(THREAD_CASES))
def test_no_hash_thread_outlives_a_command(name, tmp_path, monkeypatch, run_cli):
    argv, code, stdout, stderr = THREAD_CASES[name]
    monkeypatch.chdir(tmp_path)
    assert main(Q7_TAYLOR3) == EXIT_OK
    (tmp_path / "bad.csv").write_text("x,y\n0,1\n")
    threads = threading.active_count()
    got, out, err = run_cli(argv)
    assert threading.active_count() == threads
    assert (got, _sha256(out.encode()), err) == (code, stdout, stderr)
    # a failed manifest write leaves the snapshot of the first run as it was
    assert _sha256((tmp_path / "s.csv").read_bytes()) == SNAPSHOT
    if name == "compare":
        assert _sha256((tmp_path / "c.json").read_bytes()) == REPORT
