"""The answer set: fixed problem files and one tree's answers on them.

    PYTHONPATH=src python3 tests/answer_set.py OUT_DIR

writes ``OUT_DIR/problems/`` (53 problem files: 49 static systems and 4
``augment`` inputs), then ``OUT_DIR/answers/`` with, for each problem,
the canonical ``radius`` and ``worst-case`` reports and, for the
``augment`` inputs, the augmented problem (the radius and worst case of
those run on it).  ``answers/exit_codes.json`` records every exit code,
and that of ``verify`` on each report and on each report whose
``certificate.P`` is corrupted (``P[0, 0] -> P[0, 0] / 2 - 1``).  The
package is the one ``iqcradius`` resolves to, so a parent and a change
tree are compared by running this once with each tree's ``src`` on
``PYTHONPATH`` and then one ``diff -r`` of the two output directories.

The problems: the ``tests/test_cli.py`` systems; the
``bench/workloads.py`` draws of seed 1 (boundary draws 0-1, ``gd-sweep``
draw 0 and the ``report-verify`` problems of draws 0-2); gradient
descent on the sector [1, 10] at five steps; hand-picked rotations,
Jordan blocks and input systems; one system per ``build_witness``
failure stage a problem file reached; and four filter problems.  The
eigenvalue search of ``worstcase.technical_condition`` completes
``stage-technical-condition`` (a repeated rotation); the problem stays,
so that answer sets of older and newer trees pair up file for file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402
from iqcradius import cli  # noqa: E402

SEED = 1


def _rotation(theta: float, scale: float = 1.0) -> np.ndarray:
    return scale * wl._rotation(theta)


def _system(A, B=None, iqcs=()) -> dict:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    doc = {"dims": {"n": A.shape[0], "m": 0 if B is None else np.shape(B)[1]},
           "A": wl.matrix_json(A), "iqcs": [wl.matrix_json(M) for M in iqcs]}
    if B is not None:
        doc["B"] = wl.matrix_json(B)
    return doc


def _filter(A_psi, B_psi1, B_psi2, C_psi, D_psi1, D_psi2, M) -> dict:
    parts = dict(A_psi=A_psi, B_psi1=B_psi1, B_psi2=B_psi2, C_psi=C_psi,
                 D_psi1=D_psi1, D_psi2=D_psi2, M=M)
    return {key: wl.matrix_json(value) for key, value in parts.items()}


def _filter_json(flt) -> dict:
    return _filter(flt.A_psi, flt.B_psi1, flt.B_psi2, flt.C_psi, flt.D_psi1,
                   flt.D_psi2, flt.M)


def _cli_systems() -> dict[str, dict]:
    """The systems of ``tests/test_cli.py``."""
    sector = wl.sector_matrix(1.0, 10.0)
    return {
        "jordan": _system([[1.0, 1.0], [0.0, 1.0]]),
        "rotation": _system([[0.0, 1.0], [-1.0, 0.0]]),
        "stable": _system([[0.5]]),
        "signed-pair": _system([[1.0]], None, [[[1.0]], [[-1.0]]]),
        "unbounded": _system([[0.5]], [[1.0]]),
        "rotation-iqc": _system(_rotation(1.0), None, [np.diag([1.0, 0.0])]),
        "gd": _system([[1.0]], [[-0.1]], [sector]),
        "unit-iqc": _system([[1.0]], None, [[[1.0]]]),
    }


def _bench_draws() -> dict[str, dict]:
    """The seed-1 draws of ``bench/workloads.py``, regenerated as there."""
    out = {}
    for k in range(2):
        rng = wl._rng(SEED, "boundary-worst-case", k)
        t1, t2 = wl._angle(rng), wl._angle(rng)
        t3 = t2 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.3, 0.8))
        A4 = np.zeros((4, 4))
        A4[:2, :2], A4[2:, 2:] = _rotation(t2), _rotation(t3)
        m, L = wl._sector_params(rng, k)
        sign = float(rng.choice([-1.0, 1.0]))
        c1, c2, c3 = rng.uniform(0.5, 2.0, 3)
        first = wl._first_coordinate
        out |= {
            f"boundary-{k}-rot2": _system(_rotation(t1), None, [first(2)]),
            f"boundary-{k}-gd2L": _system([[1.0]], [[-2.0 / L]],
                                          [wl.sector_matrix(m, L)]),
            f"boundary-{k}-jordan2": _system(sign * np.eye(2) + np.diag([c1], 1),
                                             None, [first(2)]),
            f"boundary-{k}-rot4": _system(A4, None, [first(4)]),
            f"boundary-{k}-jordan3": _system(
                sign * np.eye(3) + np.diag([c2, c3], 1), None, [first(3)]),
        }
    rng = wl._rng(SEED, "gd-sweep", 0)
    m, L = wl._sector_params(rng, 0)
    for j in range(wl.GD_STEPS):
        alpha = (2.0 / L) * wl._stratum(rng, j, wl.GD_STEPS)
        out[f"gd-sweep-0-{j}"] = _system([[1.0]], [[-alpha]],
                                         [wl.sector_matrix(m, L)])
    for k in range(3):
        rng = wl._rng(SEED, "report-verify", k)
        for i in range(2):
            out[f"verify-{k}-rot{i}"] = _system(_rotation(wl._angle(rng)), None,
                                                [wl._first_coordinate(2)])
        m, L = wl._sector_params(rng, k)
        alpha = float(rng.uniform(0.2, 1.8)) / L
        out[f"verify-{k}-gd"] = _system([[1.0]], [[-alpha]],
                                        [wl.sector_matrix(m, L)])
    return out


def _hand_picked() -> dict[str, dict]:
    sector = wl.sector_matrix(1.0, 10.0)
    out = {f"gd-{a}": _system([[1.0]], [[-a]], [sector])
           for a in (0.05, 0.1, 0.15, 0.19, 0.2)}
    rotation_input_sector = np.zeros((3, 3))
    rotation_input_sector[np.ix_([0, 2], [0, 2])] = wl.sector_matrix(-0.1, 0.1)
    out |= {
        "rotation-0.7x": _system(_rotation(1.0, 0.7)),
        "jordan-0.95": _system([[0.95, 1.0], [0.0, 0.95]]),
        "rotation-1.5x": _system(_rotation(1.0, 1.5)),
        "rotation-5x": _system(_rotation(1.0, 5.0)),
        "a2": _system([[2.0]]),
        "half-input-sector": _system([[0.5]], [[1.0]], [sector]),
        "unit-input-sector": _system([[1.0]], [[-1.0]],
                                     [wl.sector_matrix(0.5, 1.5)]),
        "rotation-0.9x-input-sector": _system(_rotation(1.0, 0.9),
                                              [[1.0], [0.0]],
                                              [rotation_input_sector]),
        # one per build_witness stage a problem file reached
        "stage-rank-deficient-input": _system([[1.0]], [[0.0]]),
        "stage-growth-iqc": _system([[2.0]], None, [[[1.0]]]),
        "stage-technical-condition": _system(
            np.kron(np.eye(2), _rotation(0.8)), None,
            [np.diag([1.0, 0.0, 0.0, 0.0])]),
    }
    return out


def _filter_problems() -> dict[str, dict]:
    """``augment`` inputs: the ``tests/test_cli.py`` filters and gradient
    descent at 0.15 with the sector and a lag-1 off-by-one filter."""
    L, m = 10.0, 1.0
    return {
        "delay-filter": {
            "plant": {"A": wl.matrix_json([[0.7]]), "B": wl.matrix_json([[1.3]]),
                      "C": wl.matrix_json([[-0.4]]), "D": wl.matrix_json([[0.9]])},
            "filter": _filter([[0.0]], [[1.0]], [[0.0]], [[1.0]], [[0.0]],
                              [[0.0]], [[2.5]])},
        "identity-filter": {
            "plant": {"A": wl.matrix_json([[0.7, 0.2], [0.0, 0.5]]),
                      "B": wl.matrix_json([[1.0], [0.3]]),
                      "C": wl.matrix_json(np.eye(2)),
                      "D": wl.matrix_json([[0.0], [0.0]])},
            "filter": _filter(np.zeros((0, 0)), np.zeros((0, 2)),
                              np.zeros((0, 1)), np.zeros((3, 0)),
                              [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                              [[0.0], [0.0], [1.0]], np.diag([1.0, -0.5, 0.25]))},
        "two-filters": {
            "plant": {"A": wl.matrix_json([[0.6, 0.1], [0.0, 0.4]]),
                      "B": wl.matrix_json([[1.0], [0.0]]),
                      "C": wl.matrix_json([[1.0, 0.0]]),
                      "D": wl.matrix_json([[0.0]])},
            "filters": [
                _filter([[0.5, 0.1], [0.0, 0.2]], [[1.0], [0.0]], [[0.0], [1.0]],
                        [[1.0, 1.0]], [[0.0]], [[1.0]], [[-0.5]]),
                _filter([[0.3]], [[2.0]], [[0.0]], [[1.0], [0.0]],
                        [[0.0], [1.0]], [[0.0], [0.0]], np.diag([0.5, -0.25])),
            ]},
        "gd-0.15-off-by-one": {
            "plant": {"A": wl.matrix_json([[1.0]]), "B": wl.matrix_json([[-0.15]]),
                      "C": wl.matrix_json([[1.0]])},
            "filters": [_filter_json(wl.sector_filter(m, L)),
                        _filter_json(wl.off_by_one_filter(m, L, 1))]},
    }


def problems() -> list[tuple[str, dict]]:
    """Every problem document of the set, with its name."""
    return [pair for group in (_cli_systems(), _bench_draws(), _hand_picked(),
                               _filter_problems())
            for pair in group.items()]


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _canonical(path: Path) -> None:
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True,
                               indent=1) + "\n")


def write_answers(out_dir: Path) -> dict[str, int]:
    """Write the problems and this tree's answers; return the exit codes."""
    problem_dir, answer_dir = out_dir / "problems", out_dir / "answers"
    problem_dir.mkdir(parents=True, exist_ok=True)
    answer_dir.mkdir(parents=True, exist_ok=True)
    codes: dict[str, int] = {}
    runs = []
    for name, doc in problems():
        path = problem_dir / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        if "plant" in doc:
            static = answer_dir / f"{name}.augment.json"
            codes[f"augment/{name}"] = _run(["augment", str(path), "--out",
                                             str(static)])
            _canonical(static)
            path = static
        runs += [(name, "radius", path), (name, "worst-case", path)]
    for name, command, path in runs:
        report = answer_dir / f"{name}.{command}.json"
        codes[f"{command}/{name}"] = _run([command, str(path), "--out",
                                           str(report)])
        _canonical(report)
        codes[f"verify/{name}.{command}"] = _run(["verify", str(report),
                                                  str(path)])
        doc = json.loads(report.read_text())
        if doc["certificate"]["P"] is not None:
            bad = out_dir / "corrupted.json"
            doc["certificate"]["P"]["data"][0] = \
                0.5 * doc["certificate"]["P"]["data"][0] - 1.0
            bad.write_text(json.dumps(doc))
            codes[f"verify-corrupted/{name}.{command}"] = _run(
                ["verify", str(bad), str(path)])
            bad.unlink()
    (answer_dir / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=1) + "\n")
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_answers(Path(sys.argv[1]))
