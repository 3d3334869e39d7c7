"""Tests for the command-line front end.

Each test writes its own problem files into ``tmp_path`` and drives
``iqcradius.cli.main`` in process, checking exit codes, report fields,
and byte-level determinism; one case runs the CLI as a subprocess with
RuntimeWarnings as errors.  Exit codes: 0 success, 1 input error,
2 no certified rate, 3 no witness, 4 verification failure.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from iqcradius import cli
from iqcradius.cli import main
from iqcradius.dynamic_iqc import IqcFilter, PlantData, augment_all
from iqcradius.model import IqcSet, SystemData
from iqcradius.radius import spectral_radius

ROOT = Path(__file__).resolve().parents[1]


def mat(rows):
    rows = [list(map(float, r)) for r in rows]
    cols = len(rows[0]) if rows else 0
    return {"rows": len(rows), "cols": cols,
            "data": [x for r in rows for x in r]}


JORDAN = {"dims": {"n": 2, "m": 0}, "A": mat([[1.0, 1.0], [0.0, 1.0]])}
ROTATION = {"dims": {"n": 2, "m": 0}, "A": mat([[0.0, 1.0], [-1.0, 0.0]])}
STABLE = {"dims": {"n": 1, "m": 0}, "A": mat([[0.5]])}
SIGNED_PAIR = {"dims": {"n": 1, "m": 0}, "A": mat([[1.0]]),
               "iqcs": [mat([[1.0]]), mat([[-1.0]])]}
UNBOUNDED = {"dims": {"n": 1, "m": 1}, "A": mat([[0.5]]), "B": mat([[1.0]])}
ROTATION_IQC = {"dims": {"n": 2, "m": 0},
                "A": mat([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]),
                "iqcs": [mat([[1.0, 0.0], [0.0, 0.0]])]}
GD = {"dims": {"n": 1, "m": 1}, "A": mat([[1.0]]), "B": mat([[-0.1]]),
      "iqcs": [mat([[-10.0, 5.5], [5.5, -1.0]])]}
# x_{k+1} = x_k with sum x_k^2 >= beta: radius 1.
UNIT_IQC = {"dims": {"n": 1, "m": 0}, "A": mat([[1.0]]), "iqcs": [mat([[1.0]])]}

DELAY_FILTER = {
    "plant": {"A": mat([[0.7]]), "B": mat([[1.3]]), "C": mat([[-0.4]]),
              "D": mat([[0.9]])},
    "filter": {"A_psi": mat([[0.0]]), "B_psi1": mat([[1.0]]),
               "B_psi2": mat([[0.0]]), "C_psi": mat([[1.0]]),
               "D_psi1": mat([[0.0]]), "D_psi2": mat([[0.0]]),
               "M": mat([[2.5]])},
}

IDENTITY_FILTER = {
    "plant": {"A": mat([[0.7, 0.2], [0.0, 0.5]]), "B": mat([[1.0], [0.3]]),
              "C": mat([[1.0, 0.0], [0.0, 1.0]]), "D": mat([[0.0], [0.0]])},
    "filter": {"A_psi": {"rows": 0, "cols": 0, "data": []},
               "B_psi1": {"rows": 0, "cols": 2, "data": []},
               "B_psi2": {"rows": 0, "cols": 1, "data": []},
               "C_psi": {"rows": 3, "cols": 0, "data": []},
               "D_psi1": mat([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
               "D_psi2": mat([[0.0], [0.0], [1.0]]),
               "M": mat([[1.0, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.25]])},
}

TWO_FILTERS = {
    "plant": {"A": mat([[0.6, 0.1], [0.0, 0.4]]), "B": mat([[1.0], [0.0]]),
              "C": mat([[1.0, 0.0]]), "D": mat([[0.0]])},
    "filters": [
        {"A_psi": mat([[0.5, 0.1], [0.0, 0.2]]), "B_psi1": mat([[1.0], [0.0]]),
         "B_psi2": mat([[0.0], [1.0]]), "C_psi": mat([[1.0, 1.0]]),
         "D_psi1": mat([[0.0]]), "D_psi2": mat([[1.0]]), "M": mat([[-0.5]])},
        {"A_psi": mat([[0.3]]), "B_psi1": mat([[2.0]]), "B_psi2": mat([[0.0]]),
         "C_psi": mat([[1.0], [0.0]]), "D_psi1": mat([[0.0], [1.0]]),
         "D_psi2": mat([[0.0], [0.0]]), "M": mat([[0.5, 0.0], [0.0, -0.25]])},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_radius_defective_boundary(tmp_path):
    problem = write(tmp_path, "p.json", JORDAN)
    out_path = str(tmp_path / "report.json")
    code, _ = run("radius", problem, "--out", out_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rho"] == pytest.approx(1.0, abs=1e-5)
    assert report["attained"] is False
    assert report["verdict"] == "inconclusive"


def test_radius_with_signed_constraint_pair(tmp_path):
    # Opposite-sign scalar constraints admit feasible multipliers at every
    # positive rate, so the certified radius collapses to zero and the
    # verdict is stability rather than a unit-radius boundary case.
    problem = write(tmp_path, "p.json", SIGNED_PAIR)
    out_path = str(tmp_path / "report.json")
    code, _ = run("radius", problem, "--out", out_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rho"] == pytest.approx(0.0, abs=1e-5)
    assert report["attained"] is True
    assert report["verdict"] == "asymptotically-stable"


def test_radius_ragged_rows_cite_index(tmp_path):
    doc = {"dims": {"n": 2, "m": 0}, "A": [[1.0, 0.0], [0.0]]}
    problem = write(tmp_path, "p.json", doc)
    code, out = run("radius", problem)
    assert code == 1
    assert "row 1" in out


@pytest.mark.parametrize("A", [[["0.5"]], {"rows": 1, "cols": 1, "data": [True]}])
def test_matrix_entries_must_be_numbers(tmp_path, A):
    problem = write(tmp_path, "p.json", dict(STABLE, A=A))
    code, out = run("radius", problem)
    assert code == 1
    assert "error: A: entries must be numbers" in out


def test_radius_without_certificate(tmp_path):
    problem = write(tmp_path, "p.json", UNBOUNDED)
    code, out = run("radius", problem)
    assert code == 2
    assert "rho_max" in out


def test_option_precedence(tmp_path, monkeypatch):
    problem = write(tmp_path, "p.json", STABLE)
    monkeypatch.setenv("IQCRADIUS_RHO_MAX", "0.4")
    code, _ = run("radius", problem)
    assert code == 2
    code, _ = run("radius", problem, "--rho-max", "0.6")
    assert code == 0


@pytest.mark.parametrize("command, doc, flags, env, source", [
    ("radius", STABLE, ["--tol", "nan"], {}, "--tol"),
    ("radius", STABLE, ["--tol", "-1"], {}, "--tol"),
    ("radius", STABLE, ["--rho-max", "0"], {}, "--rho-max"),
    ("radius", UNBOUNDED, ["--rho-max", "inf"], {}, "--rho-max"),
    ("radius", dict(UNBOUNDED, options={"rho_max": float("inf")}), [], {},
     "options.rho_max"),
    ("radius", STABLE, [], {"IQCRADIUS_TOL": "-1"},
     "environment IQCRADIUS_TOL"),
    ("worst-case", ROTATION, ["--horizon", "0"], {}, "--horizon"),
    ("worst-case", ROTATION, [], {"IQCRADIUS_HORIZON": "0"},
     "environment IQCRADIUS_HORIZON"),
    ("radius", UNBOUNDED, ["--rho-max", "1e80"], {}, "--rho-max"),
    ("radius", dict(UNBOUNDED, options={"rho_max": 1e160}), [], {},
     "options.rho_max"),
    ("radius", UNBOUNDED, [], {"IQCRADIUS_RHO_MAX": "1e100"},
     "environment IQCRADIUS_RHO_MAX"),
])
def test_bad_option_is_an_input_error_naming_its_source(
        tmp_path, monkeypatch, command, doc, flags, env, source):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    problem = write(tmp_path, "p.json", doc)
    code, out = run(command, problem, *flags)
    assert code == 1
    assert f"error: {source}: expected a" in out
    assert "Traceback" not in out


def test_bad_option_exits_cleanly_under_warnings_as_errors(tmp_path):
    problem = write(tmp_path, "p.json", UNBOUNDED)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "iqcradius.cli",
         "radius", problem, "--rho-max", "inf"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "error: --rho-max: expected a finite positive number" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_engine_overflow_reaches_no_user(tmp_path):
    """On two copies of a 2.12 rad rotation with one IQC, a solve's
    iterate overflows before its factorization fails.  The solve ends as
    numerical-failure without a RuntimeWarning: in process under the
    suite's warnings-as-errors, and on the CLI's stderr."""
    c, s = np.cos(2.1220338983050846), np.sin(2.1220338983050846)
    A = np.kron(np.eye(2), [[c, -s], [s, c]])
    M = np.diag([1.0, 0.0, 0.0, 0.0])
    cert = spectral_radius(SystemData(A=A), IqcSet.from_matrices([M]))
    assert abs(cert.rho - 1.0) <= 1e-6
    problem = write(tmp_path, "p.json", {"dims": {"n": 4, "m": 0},
                                         "A": mat(A), "iqcs": [mat(M)]})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "iqcradius.cli", "radius", problem],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_worst_case_rotation(tmp_path):
    problem = write(tmp_path, "p.json", ROTATION)
    out_path = str(tmp_path / "report.json")
    code, _ = run("worst-case", problem, "--out", out_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stage"] == "complete"
    witness = report["witness"]
    X = np.array(witness["X"]["data"]).reshape(2, 2)
    F = np.array(witness["F"]["data"]).reshape(2, 2)
    v = np.array(witness["v"])
    norms = []
    z = v.copy()
    for _ in range(32):
        norms.append(np.linalg.norm(X @ z))
        z = F @ z
    assert max(norms) - min(norms) <= 1e-9
    assert norms[0] > 0


def test_worst_case_rejects_signed_pair(tmp_path):
    problem = write(tmp_path, "p.json", SIGNED_PAIR)
    code, out = run("worst-case", problem)
    assert code == 3
    assert "radius-precheck" in out


def test_worst_case_rejects_contractive(tmp_path):
    problem = write(tmp_path, "p.json", STABLE)
    code, out = run("worst-case", problem)
    assert code == 3
    assert "radius-precheck" in out
    assert "below one" in out


def test_verify_roundtrip(tmp_path):
    problem = write(tmp_path, "p.json", JORDAN)
    report = str(tmp_path / "report.json")
    assert run("radius", problem, "--out", report)[0] == 0
    code, _ = run("verify", report, problem)
    assert code == 0

    rotation = write(tmp_path, "rot.json", ROTATION)
    wc_report = str(tmp_path / "wc.json")
    assert run("worst-case", rotation, "--out", wc_report)[0] == 0
    code, _ = run("verify", wc_report, rotation)
    assert code == 0


def test_verify_corrupted_certificate(tmp_path):
    problem = write(tmp_path, "p.json", JORDAN)
    report_path = tmp_path / "report.json"
    run("radius", problem, "--out", str(report_path))
    doc = json.loads(report_path.read_text())
    doc["certificate"]["P"]["data"][0] *= 7.0
    report_path.write_text(json.dumps(doc))
    code, out = run("verify", str(report_path), problem)
    assert code == 4
    assert "FAIL" in out


def test_verify_corrupted_direction(tmp_path):
    problem = write(tmp_path, "p.json", ROTATION)
    report_path = tmp_path / "report.json"
    run("worst-case", problem, "--out", str(report_path))
    doc = json.loads(report_path.read_text())
    doc["witness"]["v"] = [0.0, 0.0]
    report_path.write_text(json.dumps(doc))
    code, out = run("verify", str(report_path), problem)
    assert code == 4
    assert "null space" in out


def test_verify_does_not_trust_a_shortened_horizon(tmp_path):
    """A report that records a zero-step re-check still gets the full one."""
    problem = write(tmp_path, "p.json", ROTATION)
    report_path = tmp_path / "report.json"
    assert run("worst-case", problem, "--out", str(report_path))[0] == 0
    doc = json.loads(report_path.read_text())
    doc["witness"]["F"]["data"] = [0.5 * x for x in doc["witness"]["F"]["data"]]
    doc["margins"]["check_horizon"] = 0
    report_path.write_text(json.dumps(doc))
    code, out = run("verify", str(report_path), problem)
    assert code == 4
    assert "FAIL witness-checks" in out


@pytest.mark.parametrize("recorded", [0, 10 ** 12])
def test_verify_rechecks_over_the_fixed_horizon(tmp_path, monkeypatch, recorded):
    """The recorded ``check_horizon`` neither shortens nor lengthens the
    re-check; the orbit is never run at the recorded length."""
    problem = write(tmp_path, "p.json", ROTATION)
    report_path = tmp_path / "report.json"
    assert run("worst-case", problem, "--out", str(report_path))[0] == 0
    doc = json.loads(report_path.read_text())
    doc["margins"]["check_horizon"] = recorded
    report_path.write_text(json.dumps(doc))
    horizons = []
    check_witness = cli.check_witness

    def recording(sys, report, iqcs, horizon):
        horizons.append(horizon)
        return check_witness(sys, report, iqcs, horizon=cli.CHECK_HORIZON)

    monkeypatch.setattr(cli, "check_witness", recording)
    code, out = run("verify", str(report_path), problem)
    assert horizons == [cli.CHECK_HORIZON]
    assert code == 0, out


def _grown(m, rows=0, cols=0):
    """A report matrix with extra zero rows and columns."""
    a = np.pad(np.array(m["data"]).reshape(m["rows"], m["cols"]),
               ((0, rows), (0, cols)))
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.ravel().tolist()}


def _set(*path, value=None, grow=None):
    """A corruption that replaces the witness field at ``path`` (keys and
    indices) with ``value``, or with the matrix there grown by ``grow``."""
    def corrupt(doc):
        parent = doc["witness"]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = (_grown(parent[path[-1]], *grow) if grow
                            else value)
    return corrupt


def _stage(value):
    def corrupt(doc):
        doc["stage"] = value
    return corrupt


def _null_certificate_eig(doc):
    doc["margins"]["certificate"]["certificate_eig"] = None


def _group_without_real_part(doc):
    del doc["witness"]["groups"][0]["W_re"]


def _word_growth(doc):
    doc["witness"]["growth"] = "fast"


def _number_as_group(doc):
    doc["witness"]["groups"] = [1]


def _word_check_horizon(doc):
    doc["margins"]["check_horizon"] = "long"


def _null_rates(doc):
    doc["certificate"]["rho_cert"] = None
    doc["rho"] = None


def _list_as_certificate_margins(doc):
    doc["margins"]["certificate"] = [1]


def _number_as_witness(doc):
    doc["witness"] = 1


def _list_as_problem(doc):
    doc["problem"] = [1, 2]


def _integer_beyond_float_margin(doc):
    doc["margins"]["certificate"]["certificate_eig"] = 10 ** 400


def _list_as_kind(doc):
    doc["kind"] = []


def _object_as_kind(doc):
    doc["kind"] = {}


def _word_as_state_count(doc):
    doc["problem"]["n"] = "2"


@pytest.mark.parametrize("corrupt, code, expected", [
    (_null_certificate_eig, 4, "FAIL lyapunov-margin-reproduces"),
    (_group_without_real_part, 1, "error: witness.groups[0]: missing field 'W_re'"),
    (_word_growth, 1, "error: witness.growth: expected a number"),
    (_number_as_group, 1, "error: witness.groups[0]: expected an object"),
    (_word_check_horizon, 1, "error: margins.check_horizon: expected an integer"),
    (_null_rates, 1, "error: rho: expected a number"),
    (_list_as_certificate_margins, 1, "error: margins.certificate: expected an object"),
    (_set("X", grow=(1, 0)), 1, "error: witness.X: expected 2 rows, got 3"),
    (_set("X", grow=(0, 1)), 1, "error: witness.U: expected 0x3, got 0x2"),
    (_set("U", grow=(1, 0)), 1, "error: witness.U: expected 0x2, got 1x2"),
    (_set("F", grow=(0, 1)), 1, "error: witness.F: expected 2x2, got 2x3"),
    (_set("F", grow=(1, 0)), 1, "error: witness.F: expected 2x2, got 3x2"),
    (_set("v", value=[1.0, 0.0, 0.0]), 1, "error: witness.v: expected 2 entries, got 3"),
    (_set("v", value=[]), 1, "error: witness.v: expected 2 entries, got 0"),
    (_set("groups", 0, "W_re", grow=(1, 0)), 1,
     "error: witness.groups[0].W_re: expected 2 rows, got 3"),
    (_set("groups", 0, "W_im", grow=(0, 1)), 1,
     "error: witness.groups[0].W_im: expected 2x1, got 2x2"),
    (_set("gain", value=mat([[0.0, 0.0]])), 1,
     "error: witness.gain: expected 0x2, got 1x2"),
    (_set("pointwise", value="yes"), 1, "error: witness.pointwise: expected true or false"),
    (_set("pointwise", value=True), 4, "FAIL witness-pointwise: recorded true, recomputed false"),
    (_stage("dual-extraction"), 4, "FAIL headline-stage"),
    (_stage("finished"), 1, "error: stage: expected one of ('radius-precheck'"),
    (_number_as_witness, 1, "error: witness: expected an object"),
    (_list_as_problem, 1, "error: problem: expected an object"),
    (_integer_beyond_float_margin, 4, "FAIL lyapunov-margin-reproduces"),
    (_list_as_kind, 1, "not a report file (kind = [])"),
    (_object_as_kind, 1, "not a report file (kind = {})"),
    (_word_as_state_count, 1, "error: problem.n: expected an integer, got '2'"),
])
def test_verify_malformed_report(tmp_path, corrupt, code, expected):
    problem = write(tmp_path, "p.json", ROTATION)
    report_path = tmp_path / "report.json"
    assert run("worst-case", problem, "--out", str(report_path))[0] == 0
    doc = json.loads(report_path.read_text())
    corrupt(doc)
    report_path.write_text(json.dumps(doc))
    got, out = run("verify", str(report_path), problem)
    assert got == code
    assert expected in out
    assert "Traceback" not in out


@pytest.fixture(scope="module")
def rotation_iqc_report(tmp_path_factory):
    """A rotation-with-IQC problem file and its worst-case report."""
    workdir = tmp_path_factory.mktemp("rotation-iqc")
    problem = write(workdir, "p.json", ROTATION_IQC)
    report = workdir / "report.json"
    assert run("worst-case", problem, "--out", str(report))[0] == 0
    return problem, json.loads(report.read_text())


def verify_doc(tmp_path, doc, problem):
    path = write(tmp_path, "edited.json", doc)
    return run("verify", path, problem)


def test_verify_without_a_certificate_claims_no_rate(tmp_path):
    """A report without a certificate matrix passes only as the package
    writes it for no-certificate: rho and the bracket's upper end null."""
    gd = write(tmp_path, "gd.json", GD)
    report = tmp_path / "gd-report.json"
    assert run("radius", gd, "--out", str(report))[0] == 0
    doc = json.loads(report.read_text())
    doc["certificate"]["P"] = None
    doc.update(rho=0.1, bracket=[0.05, 0.1])
    code, out = verify_doc(tmp_path, doc, gd)
    assert code == 4, out
    assert "FAIL headline-certificate" in out

    growing = write(tmp_path, "growing.json", {"dims": {"n": 1, "m": 0}, "A": mat([[2.0]])})
    report = tmp_path / "growing-report.json"
    assert run("radius", growing, "--rho-max", "1.5", "--out", str(report))[0] == 2
    code, out = run("verify", str(report), growing)
    assert code == 0, out
    assert "PASS headline-certificate" in out
    doc = json.loads(report.read_text())
    assert doc["certificate"]["P"] is None and doc["rho"] is None
    doc["bracket"][1] = 1.5
    code, out = verify_doc(tmp_path, doc, growing)
    assert code == 4, out
    assert "FAIL headline-certificate" in out


def _witness_corruptions(witness):
    """(path, value) pairs that malform each field of a witness block and
    of its first group: wrong types, extra rows and columns of matrices,
    one entry more or fewer in lists of numbers or groups."""
    fields = [((key,), value) for key, value in witness.items()]
    fields += [(("groups", 0, key), value)
               for key, value in witness["groups"][0].items()]
    for path, value in fields:
        for bad in ("x", {}, -1):
            yield path, bad
        if isinstance(value, dict):
            yield path, _grown(value, 1, 0)
            yield path, _grown(value, 0, 1)
        elif path[-1] in ("v", "iqc_lower_bounds", "groups"):
            yield path, value + value[:1]
            yield path, value[:-1]


def test_verify_witness_field_sweep_never_crashes(tmp_path, rotation_iqc_report):
    """Every malformed witness field is an input error (1) or a failed
    check (4), never a crash or a pass."""
    problem, report = rotation_iqc_report
    cases = list(_witness_corruptions(report["witness"]))
    assert len(cases) > 50
    for path, bad in cases:
        doc = json.loads(json.dumps(report))
        _set(*path, value=bad)(doc)
        code, out = verify_doc(tmp_path, doc, problem)
        assert code in (1, 4), (path, bad, out)
        assert "Traceback" not in out


def _one_identity_group(doc):
    doc["witness"]["groups"] = [{"theta": 0.0, "multiplicity": 2,
                                 "W_re": mat(np.eye(2)),
                                 "W_im": mat(np.zeros((2, 2)))}]


def _one_column_group(doc):
    doc["witness"]["groups"] = doc["witness"]["groups"][:1]


def _no_groups(doc):
    doc["witness"]["groups"] = []


def _halved_transition(doc):
    doc["witness"]["F"]["data"] = [0.5 * x for x in doc["witness"]["F"]["data"]]


@pytest.mark.parametrize("corrupt", [_one_identity_group, _one_column_group,
                                     _no_groups, _halved_transition])
def test_verify_does_not_trust_recorded_groups(tmp_path, rotation_iqc_report,
                                               corrupt):
    problem, report = rotation_iqc_report
    doc = json.loads(json.dumps(report))
    corrupt(doc)
    code, out = verify_doc(tmp_path, doc, problem)
    assert code == 4
    assert "FAIL technical-condition" in out


def _numeric_leaves(block, path=()):
    """Paths to the numbers in a margins block."""
    if isinstance(block, dict):
        for key, value in block.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(block, list):
        for idx, value in enumerate(block):
            yield from _numeric_leaves(value, path + (idx,))
    elif isinstance(block, (int, float)) and not isinstance(block, bool):
        yield path


@pytest.mark.parametrize("command, problem_doc", [("worst-case", ROTATION_IQC),
                                                  ("radius", GD)])
def test_verify_rechecks_every_recorded_margin(tmp_path, command, problem_doc):
    """Each recorded margin, moved by a thousand times the reproduce
    tolerance (``steps`` by one), fails its reproduce item."""
    problem = write(tmp_path, "p.json", problem_doc)
    report_path = tmp_path / "report.json"
    assert run(command, problem, "--out", str(report_path))[0] == 0
    report = json.loads(report_path.read_text())
    items = {"certificate": "FAIL lyapunov-margin-reproduces",
             "witness": "FAIL witness-margins-reproduce"}
    moved = 0
    for block, expected in items.items():
        if report["margins"].get(block) is None:
            continue
        for path in _numeric_leaves(report["margins"][block]):
            doc = json.loads(json.dumps(report))
            parent = doc["margins"][block]
            for key in path[:-1]:
                parent = parent[key]
            x = parent[path[-1]]
            parent[path[-1]] = (x + 1 if path[-1] == "steps"
                                else x + 1e-6 * (1.0 + abs(x)))
            code, out = verify_doc(tmp_path, doc, problem)
            assert code == 4, (block, path, out)
            assert expected in out, (block, path, out)
            moved += 1
    assert moved == (8 if command == "worst-case" else 2)


def _recertify(doc, problem):
    """Rewrite the certificate margins to match the edited certificate."""
    prob = cli.load_problem(problem)
    cert = doc["certificate"]
    P = np.array(cert["P"]["data"]).reshape(cert["P"]["rows"], cert["P"]["cols"])
    doc["margins"]["certificate"] = cli._certificate_margins(
        prob.sys, prob.iqcs, cert["rho_cert"], P, cert["lambdas"])


def _negative_multiplier(doc, problem):
    """P = 1 and lambda = -1 make the rate-0.5 matrix -0.25 < 0, but a
    negative multiplier proves nothing."""
    doc["certificate"].update(P=mat([[1.0]]), lambdas=[-1.0], rho_cert=0.5)
    doc.update(rho=0.5, bracket=[0.5, 0.5])
    _recertify(doc, problem)


def _lowered_rate(doc, problem):
    """GD at step 0.1 has radius 0.9; below it the margin is positive."""
    rate = 0.89999189
    doc["certificate"]["rho_cert"] = rate
    doc.update(rho=rate - 5e-7, bracket=[rate - 1e-6, rate])
    _recertify(doc, problem)


def _moved_headline(doc, problem):
    doc.update(rho=0.5, bracket=[0.4, 0.6], verdict="asymptotically-stable")


def _rate(value):
    def forge(doc, problem):
        doc["certificate"]["rho_cert"] = value
    return forge


def _no_certificate_status(doc, problem):
    doc["status"] = "no-certificate"


def _true_as_entry(doc, problem):
    doc["certificate"]["P"]["data"][0] = True


@pytest.mark.parametrize("problem_doc, forge, code, expected", [
    (UNIT_IQC, _negative_multiplier, 4, "FAIL lyapunov-certificate"),
    (GD, _lowered_rate, 4, "FAIL lyapunov-certificate"),
    (UNIT_IQC, _moved_headline, 4, "FAIL headline-bracket"),
    (UNIT_IQC, _rate(0.0), 1, "error: certificate.rho_cert: expected a finite"),
    (UNIT_IQC, _rate(-1.0), 1, "error: certificate.rho_cert: expected a finite"),
    (UNIT_IQC, _rate(1e300), 4, "FAIL lyapunov-certificate"),
    (GD, _no_certificate_status, 4, "FAIL headline-status"),
    (GD, _true_as_entry, 1, "error: report certificate.P: entries must be numbers"),
])
def test_verify_rejects_forged_certificates(tmp_path, problem_doc, forge, code,
                                            expected):
    """Reports edited so that the certificate proves nothing, or proves
    something other than the headline numbers, do not pass."""
    problem = write(tmp_path, "p.json", problem_doc)
    report_path = tmp_path / "report.json"
    assert run("radius", problem, "--out", str(report_path))[0] == 0
    doc = json.loads(report_path.read_text())
    forge(doc, problem)
    got, out = verify_doc(tmp_path, doc, problem)
    assert got == code, out
    assert expected in out
    assert "Traceback" not in out


def test_non_finite_recomputation_never_reproduces():
    assert not cli._reproduces(1.0, np.inf)
    assert not cli._reproduces(-3e-8, -np.inf)
    assert not cli._reproduces({"certificate_eig": -3e-8},
                               {"certificate_eig": -np.inf})


def test_strict_eps_is_not_an_option(tmp_path):
    problem = write(tmp_path, "p.json", dict(STABLE, options={"strict_eps": 1e-8}))
    code, out = run("radius", problem)
    assert code == 1
    assert "error: options: unknown key 'strict_eps'" in out


def test_readme_and_cli_agree_on_options(monkeypatch):
    """The flags README quotes are exactly the long options of the
    subcommands, and the environment variables it names exactly those
    that ``_resolve`` reads."""
    readme = (ROOT / "README.md").read_text()
    parser = cli._parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    flags = {flag for sub in subcommands.choices.values()
             for action in sub._actions for flag in action.option_strings
             if flag.startswith("--") and flag != "--help"}
    assert set(re.findall(r"`(--[a-z][a-z-]*)`", readme)) == flags

    class Recording(dict):
        def __init__(self):
            super().__init__()
            self.asked = set()

        def __contains__(self, key):
            self.asked.add(key)
            return False

    environ = Recording()
    monkeypatch.setattr(os, "environ", environ)
    cli._resolve(argparse.Namespace(), {})
    assert set(re.findall(r"IQCRADIUS_[A-Z_]+", readme)) == environ.asked


@pytest.mark.parametrize("report, problem", [
    ("rotation_iqc.worst-case.json", "rotation_iqc.problem.json"),
    ("gd_two_over_l.worst-case.json", "gd_two_over_l.problem.json"),
    ("gd.radius.json", "gd.problem.json"),
])
def test_stored_reports_still_verify(tmp_path, report, problem):
    """Reports written by an earlier release verify, and fail once their
    certificate is corrupted.  The GD-at-2/L witness margin sits at 0.0,
    where a change in rounding is first seen."""
    data = ROOT / "tests" / "data"
    problem = str(data / problem)
    assert run("verify", str(data / report), problem)[0] == 0

    doc = json.loads((data / report).read_text())
    P = doc["certificate"]["P"]
    P["data"][0] = 0.5 * P["data"][0] - 1.0
    assert verify_doc(tmp_path, doc, problem)[0] == 4


# Each report leaf is replaced by each of these: values that change its
# JSON type (or string), and numbers that need only raise nothing.
TYPE_EDITS = (None, "1.5", [], {}, True, [[None]], float("nan"))
NUMBER_EDITS = (1e308, -1)
# Leaves ``verify`` does not re-check: the annotations, and the claims
# that need the attaining pair or the hard-shift scan (ROADMAP item 11).
UNCHECKED_LEAVES = ("options", "message", "reasons", "reason", "witness.notes",
                    "verdict", "attained", "witness.hard_shift", "bracket[0]")


def _leaf_paths(node, path=()):
    """Paths to the leaves of a report: scalars, nulls and empty
    containers; of a list of numbers, its first and last entries."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in node)
        for idx in sorted({0, len(node) - 1}) if numeric else range(len(node)):
            yield from _leaf_paths(node[idx], path + (idx,))
    else:
        yield path


def _path_name(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _unchecked(name):
    return next((u for u in UNCHECKED_LEAVES
                 if name == u or name.startswith((u + ".", u + "["))), None)


@pytest.fixture(scope="module")
def data_reports(tmp_path_factory):
    """The ``radius`` and ``worst-case`` reports of the three problems
    under ``tests/data``, with their problem files."""
    workdir = tmp_path_factory.mktemp("data-reports")
    reports = []
    for problem in sorted((ROOT / "tests" / "data").glob("*.problem.json")):
        for command in ("radius", "worst-case"):
            out = workdir / f"{problem.name}.{command}.json"
            assert run(command, str(problem), "--out", str(out))[0] in (0, 3)
            reports.append((str(problem), json.loads(out.read_text())))
    return reports


def test_verify_rechecks_every_report_leaf(tmp_path, data_reports):
    """Every leaf of every report, replaced by each edit, gives no
    exception or warning; each of ``TYPE_EDITS`` that changes the leaf
    exits 1 or 4 unless the leaf is in ``UNCHECKED_LEAVES``, and each of
    those still exits 0 on some edit, so the list cannot go stale."""
    path_out = tmp_path / "edited.json"
    passed = set()
    wrong = []
    edits = 0
    for problem, report in data_reports:
        for path in _leaf_paths(report):
            parent = report
            for key in path[:-1]:
                parent = parent[key]
            original = json.dumps(parent[path[-1]])
            name = _path_name(path)
            unchecked = _unchecked(name)
            for value in TYPE_EDITS + NUMBER_EDITS:
                parent[path[-1]] = value
                path_out.write_text(json.dumps(report))
                parent[path[-1]] = json.loads(original)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, out = run("verify", str(path_out), problem)
                edits += 1
                if code == 0 and unchecked:
                    passed.add(unchecked)
                if code not in (1, 4) and not unchecked \
                        and value not in NUMBER_EDITS \
                        and json.dumps(value) != original:
                    wrong.append((problem, name, value, code))
    assert edits > 1000
    assert not wrong, wrong
    assert passed == set(UNCHECKED_LEAVES)


def test_verify_dimension_mismatch(tmp_path):
    jordan = write(tmp_path, "jordan.json", JORDAN)
    other = write(tmp_path, "other.json", SIGNED_PAIR)
    report = str(tmp_path / "report.json")
    run("radius", jordan, "--out", report)
    code, out = run("verify", report, other)
    assert code == 1
    assert "mismatched dimensions" in out


def test_augment_static_passthrough(tmp_path):
    problem = write(tmp_path, "p.json", IDENTITY_FILTER)
    out_path = tmp_path / "static.json"
    code, _ = run("augment", problem, "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["dims"] == {"n": 2, "m": 1}
    assert doc["A"]["data"] == [0.7, 0.2, 0.0, 0.5]
    assert doc["B"]["data"] == [1.0, 0.3]
    assert doc["iqcs"][0]["data"] == IDENTITY_FILTER["filter"]["M"]["data"]


def test_augment_delay_filter(tmp_path):
    problem = write(tmp_path, "p.json", DELAY_FILTER)
    out_path = tmp_path / "static.json"
    code, _ = run("augment", problem, "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["A"]["data"] == [0.7, 0.0, -0.4, 0.0]
    assert doc["B"]["data"] == [1.3, 0.9]
    expected = np.zeros((3, 3))
    expected[1, 1] = 2.5
    assert doc["iqcs"][0]["data"] == expected.ravel().tolist()


def test_augment_two_filters_roundtrip(tmp_path):
    problem = write(tmp_path, "p.json", TWO_FILTERS)
    static_path = tmp_path / "static.json"
    code, _ = run("augment", problem, "--out", str(static_path))
    assert code == 0
    doc = json.loads(static_path.read_text())
    assert doc["dims"] == {"n": 5, "m": 1}

    report_path = tmp_path / "report.json"
    code, _ = run("radius", str(static_path), "--out", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    via_cli = report["rho"]

    plant = PlantData(A=[[0.6, 0.1], [0.0, 0.4]], B=[[1.0], [0.0]],
                      C=[[1.0, 0.0]], D=[[0.0]])
    filters = []
    for raw in TWO_FILTERS["filters"]:
        blocks = {key: np.array(value["data"]).reshape(value["rows"],
                                                       value["cols"])
                  for key, value in raw.items()}
        filters.append(IqcFilter(**blocks))
    sys_aug, iqcs = augment_all(plant, filters)
    direct = spectral_radius(sys_aug, iqcs)
    assert via_cli == pytest.approx(direct.rho, abs=1e-9)
    assert report["bracket"][0] <= via_cli <= report["bracket"][1]
    assert via_cli == pytest.approx(0.7140134682695511, abs=1e-6)


def test_augment_requires_plant_block(tmp_path):
    problem = write(tmp_path, "p.json", JORDAN)
    code, out = run("augment", problem, "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert "plant" in out


def test_reports_are_deterministic(tmp_path):
    problem = write(tmp_path, "p.json", JORDAN)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    run("radius", problem, "--out", str(first))
    run("radius", problem, "--out", str(second))
    assert first.read_bytes() == second.read_bytes()

    rotation = write(tmp_path, "rot.json", ROTATION)
    run("worst-case", rotation, "--out", str(first))
    run("worst-case", rotation, "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_zero_column_input_matrix(tmp_path):
    doc = {"dims": {"n": 1, "m": 0}, "A": mat([[0.5]]),
           "B": {"rows": 1, "cols": 0, "data": []}}
    problem = write(tmp_path, "p.json", doc)
    code, out = run("radius", problem)
    assert code == 0
    assert "0.5" in out


def test_answer_set_lists_53_loadable_problems(tmp_path):
    """``tests/answer_set.py`` names 53 problems once each, and the CLI
    loads every one of them."""
    import answer_set

    names = [name for name, _ in answer_set.problems()]
    assert len(names) == len(set(names)) == 53
    for name, doc in answer_set.problems():
        prob = cli.load_problem(write(tmp_path, f"{name}.json", doc))
        assert (prob.sys is None) == ("plant" in doc)
