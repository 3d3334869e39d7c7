"""Acceptance gate: eleven criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test prints ``[PASS]``/``[FAIL] criterion N: ...`` before
asserting, so the verdict is visible either way.  Tolerances are pinned
in the assertions and are not configurable.
"""

import contextlib
import io
import json
import time

import numpy as np

from iqcradius.cli import main as cli_main
from iqcradius.dynamic_iqc import IqcFilter, PlantData, augment
from iqcradius.model import (
    IqcSet,
    SystemData,
    iqc_partial_sums,
    lyapunov_adjoint,
    lyapunov_operator,
    simulate,
    Trajectory,
)
from iqcradius.radius import spectral_radius
from iqcradius.sdp_engine import solve_margin_dual, solve_margin_primal
from iqcradius.verify import check_witness, lyapunov_trace, strengthen_certificate
from iqcradius.worstcase import build_witness, recover_orthogonal_factor

SECTOR = [[-10.0, 5.5], [5.5, -1.0]]


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def test_criterion_01_radius_matches_eigenvalues():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n))
        cert = spectral_radius(SystemData(A=A), IqcSet.empty(n))
        oracle = float(np.max(np.abs(np.linalg.eigvals(A))))
        worst = max(worst, abs(cert.rho - oracle))
    elapsed = time.monotonic() - start
    _report(1, "radius matches max |eig(A)| on 50 random systems",
            worst <= 1e-5 and elapsed < 60.0,
            f"max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_defective_boundary_block():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    cert = spectral_radius(sys, IqcSet.empty(2))
    traj = simulate(sys, [1.0, 1.0], 100)
    norms = np.linalg.norm(traj.states, axis=1)
    growth = all(norms[k] >= k / 2.0 for k in range(101))
    _report(2, "defective boundary block: rho 1, not attained, growing state",
            abs(cert.rho - 1.0) <= 1e-5 and cert.attained is False and growth,
            f"rho={cert.rho:.6f}, attained={cert.attained}")


def test_criterion_03_signed_scalar_pair():
    sys = SystemData(A=[[1.0]])
    iqcs = IqcSet.from_matrices([[[1.0]], [[-1.0]]], dim=1)
    cert = spectral_radius(sys, iqcs)
    outcome = build_witness(sys, iqcs, rho=1.0)
    ok = (abs(cert.rho - 1.0) <= 1e-5 and cert.attained is True
          and not outcome.ok
          and outcome.stage in ("dual-extraction", "technical-condition"))
    _report(3, "signed scalar constraint pair: rho 1 attained, no witness",
            ok,
            f"rho={cert.rho}, attained={cert.attained}, "
            f"witness stage={outcome.stage}")


def test_criterion_04_strong_duality():
    rng = np.random.default_rng(42)
    accepted = 0
    tried = 0
    worst = 0.0
    while accepted < 20 and tried < 60:
        tried += 1
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 1.1) / max(np.max(np.abs(np.linalg.eigvals(A))),
                                         1e-9)
        B = rng.normal(size=(n, m))
        mats = []
        for _ in range(int(rng.integers(0, 3))):
            M = rng.normal(size=(n + m, n + m))
            mats.append(0.25 * (M + M.T) / (n + m))
        sys = SystemData(A=A, B=B)
        iqcs = IqcSet.from_matrices(mats, dim=n + m)
        p = solve_margin_primal(sys, iqcs, 1.0)
        if p.status != "optimal" or p.floor_active or p.cap_active:
            continue
        d = solve_margin_dual(sys, iqcs, 1.0)
        if d.status != "optimal" or d.Q is None:
            continue
        accepted += 1
        gap = abs(p.s_star - d.d_star) / (1.0 + abs(p.s_star))
        worst = max(worst, gap)
    _report(4, "primal and dual margins agree on 20 random instances",
            accepted == 20 and worst <= 1e-6,
            f"accepted {accepted}, worst relative gap {worst:.2e}")


def test_criterion_05_adjoint_identity():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 4))
        B = rng.normal(size=(n, m)) if m else None
        sys = SystemData(A=rng.normal(size=(n, n)), B=B)
        P = rng.normal(size=(n, n))
        P = P + P.T
        Q = rng.normal(size=(n + m, n + m))
        Q = Q + Q.T
        rho = float(rng.uniform(0.2, 2.0))
        lhs = float(np.tensordot(lyapunov_adjoint(Q, sys, rho), P))
        rhs = float(np.tensordot(Q, lyapunov_operator(P, sys, rho)))
        err = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst = max(worst, err)
    _report(5, "operator and adjoint pair to 1e-10 on 100 random instances",
            worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_criterion_06_orthogonal_factor_roundtrip():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        cols = int(rng.integers(1, 5))
        rows = cols + int(rng.integers(0, 3))
        H = rng.normal(size=(rows, cols))
        F0, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
        G = H @ F0
        F = recover_orthogonal_factor(H, G)
        worst = max(worst, float(np.linalg.norm(H @ F - G, 2)))
    _report(6, "orthogonal factor recovery round-trips 100 random pairs",
            worst <= 1e-9, f"worst residual {worst:.2e}")


def test_criterion_07_witness_soundness():
    start = time.monotonic()
    cases = [("plane rotation", SystemData(A=_rotation(np.pi / 2)),
              IqcSet.empty(2))]
    cases.append(("rotation, one constraint", SystemData(A=_rotation(1.0)),
                  IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]]])))
    cases.append(("rotation, two constraints",
                  SystemData(A=_rotation(np.sqrt(2.0))),
                  IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]],
                                        [[0.5, 0.3], [0.3, 0.5]]])))
    A4 = np.zeros((4, 4))
    A4[:2, :2] = _rotation(1.0)
    A4[2:, 2:] = _rotation(2.0)
    cases.append(("two rotation blocks", SystemData(A=A4),
                  IqcSet.from_matrices([np.diag([1.0, 0.5, 0.25, 0.1])])))
    cases.append(("marginal loop with sector",
                  SystemData(A=[[1.0]], B=[[-0.2]]),
                  IqcSet.from_matrices([SECTOR])))
    failures = []
    for name, sys, iqcs in cases:
        outcome = build_witness(sys, iqcs, rho=1.0)
        if not outcome.ok:
            failures.append(f"{name}: {outcome.stage}")
            continue
        result = check_witness(sys, outcome.report, iqcs)
        checks = (result.dynamics_ok and result.iqc_ok
                  and result.norm_drift <= 1e-9 and result.direction_norm > 0
                  and result.gain_ok)
        if not checks:
            failures.append(f"{name}: checks failed")
    elapsed = time.monotonic() - start
    _report(7, "witness soundness on rotation plus four constrained instances",
            not failures and elapsed < 120.0,
            f"{len(cases)} instances, {elapsed:.1f}s"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_08_gradient_descent_rates():
    m_f, L = 1.0, 10.0
    worst = 0.0
    for alpha in (0.02, 2.0 / 11.0, 0.15):
        oracle = max(abs(1.0 - alpha * m_f), abs(1.0 - alpha * L))
        # independent check: iterate the two extreme scalar quadratics
        empirical = 0.0
        for curvature in (m_f, L):
            x = 1.0
            for _ in range(200):
                x = x - alpha * curvature * x
            empirical = max(empirical, abs(x) ** (1.0 / 200.0))
        assert abs(empirical - oracle) <= 1e-3, "oracle self-check failed"
        sys = SystemData(A=[[1.0]], B=[[-alpha]])
        iqcs = IqcSet.from_matrices([SECTOR])
        cert = spectral_radius(sys, iqcs)
        worst = max(worst, abs(cert.rho - oracle))
    _report(8, "certified contraction rates match the sector oracle",
            worst <= 1e-3, f"worst deviation {worst:.2e}")


def test_criterion_09_filter_augmentation_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        n_psi = int(rng.integers(0, 4))
        q = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.95) / max(np.max(np.abs(np.linalg.eigvals(A))),
                                          1e-6)
        plant = PlantData(A=A, B=rng.normal(size=(n, m)),
                          C=rng.normal(size=(p, n)),
                          D=rng.normal(size=(p, m)))
        M = rng.normal(size=(q, q))
        filt = IqcFilter(A_psi=rng.normal(size=(n_psi, n_psi)) * 0.6,
                         B_psi1=rng.normal(size=(n_psi, p)),
                         B_psi2=rng.normal(size=(n_psi, m)),
                         C_psi=rng.normal(size=(q, n_psi)),
                         D_psi1=rng.normal(size=(q, p)),
                         D_psi2=rng.normal(size=(q, m)),
                         M=0.5 * (M + M.T))
        x0 = rng.normal(size=n)
        inputs = rng.normal(size=(500, m))

        traj = simulate(plant.system(), x0, inputs)
        Y = traj.states[:-1] @ plant.C.T + inputs @ plant.D.T
        psi = np.zeros(n_psi)
        direct = 0.0
        for k in range(500):
            z = filt.C_psi @ psi + filt.D_psi1 @ Y[k] + filt.D_psi2 @ inputs[k]
            direct += float(z @ filt.M @ z)
            psi = filt.A_psi @ psi + filt.B_psi1 @ Y[k] + filt.B_psi2 @ inputs[k]

        sys_aug, iqcs = augment(plant, filt)
        x0_aug = np.concatenate([x0, np.zeros(n_psi)])
        aug_traj = simulate(sys_aug, x0_aug, inputs)
        (sums,) = iqc_partial_sums(aug_traj, iqcs)
        err = abs(sums[-1] - direct) / (1.0 + abs(direct))
        worst = max(worst, err)
    _report(9, "static augmentation reproduces filtered sums on 20 triples",
            worst <= 1e-8, f"worst relative error {worst:.2e}")


def test_criterion_10_strengthened_descent():
    rng = np.random.default_rng(3)
    worst = -np.inf
    for alpha in (0.02, 2.0 / 11.0):
        sys = SystemData(A=[[1.0]], B=[[-alpha]])
        iqcs = IqcSet.from_matrices([SECTOR])
        strong = strengthen_certificate(spectral_radius(sys, iqcs))
        x = np.array([1.0])
        states, inputs = [x.copy()], []
        for _ in range(80):
            u = np.array([rng.uniform(1.0, 10.0) * x[0]])
            inputs.append(u)
            x = sys.A @ x + sys.B @ u
            states.append(x.copy())
        traj = Trajectory(states=np.array(states), inputs=np.array(inputs))
        trace = lyapunov_trace(sys, traj, strong, iqcs)
        for dv, xk in zip(trace.differences, traj.states[:-1]):
            gap = float(xk @ xk)
            worst = max(worst, dv + gap - 1e-8 * (1.0 + gap))
    _report(10, "strengthened certificates enforce per-step state decay",
            worst <= 0.0, f"worst slack violation {worst:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    def matrix(rows):
        return {"rows": len(rows), "cols": len(rows[0]),
                "data": [float(x) for r in rows for x in r]}

    problems = {
        "jordan.json": {"dims": {"n": 2, "m": 0},
                        "A": matrix([[1.0, 1.0], [0.0, 1.0]])},
        "rotation.json": {"dims": {"n": 2, "m": 0},
                          "A": matrix([[0.0, 1.0], [-1.0, 0.0]])},
        "filtered.json": {
            "plant": {"A": matrix([[0.7]]), "B": matrix([[1.3]]),
                      "C": matrix([[-0.4]]), "D": matrix([[0.9]])},
            "filter": {"A_psi": matrix([[0.0]]), "B_psi1": matrix([[1.0]]),
                       "B_psi2": matrix([[0.0]]), "C_psi": matrix([[1.0]]),
                       "D_psi1": matrix([[0.0]]), "D_psi2": matrix([[0.0]]),
                       "M": matrix([[2.5]])},
        },
    }
    for name, doc in problems.items():
        (tmp_path / name).write_text(json.dumps(doc))

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli_main(list(argv))
        return code, out.getvalue()

    jordan = str(tmp_path / "jordan.json")
    rotation = str(tmp_path / "rotation.json")
    filtered = str(tmp_path / "filtered.json")
    mismatches = []

    for label, argv_a, argv_b, outputs in [
        ("radius", ["radius", jordan, "--out", str(tmp_path / "r1.json")],
         ["radius", jordan, "--out", str(tmp_path / "r2.json")],
         ("r1.json", "r2.json")),
        ("worst-case",
         ["worst-case", rotation, "--out", str(tmp_path / "w1.json")],
         ["worst-case", rotation, "--out", str(tmp_path / "w2.json")],
         ("w1.json", "w2.json")),
        ("augment",
         ["augment", filtered, "--out", str(tmp_path / "a1.json")],
         ["augment", filtered, "--out", str(tmp_path / "a2.json")],
         ("a1.json", "a2.json")),
    ]:
        code_a, _ = run(*argv_a)
        code_b, _ = run(*argv_b)
        if code_a != code_b:
            mismatches.append(f"{label}: exit codes differ")
            continue
        first, second = ((tmp_path / outputs[0]).read_bytes(),
                         (tmp_path / outputs[1]).read_bytes())
        if first != second:
            mismatches.append(f"{label}: reports differ")

    code_a, text_a = run("verify", str(tmp_path / "w1.json"), rotation)
    code_b, text_b = run("verify", str(tmp_path / "w1.json"), rotation)
    if (code_a, text_a) != (code_b, text_b):
        mismatches.append("verify: output differs")

    _report(11, "every CLI command is byte-deterministic across reruns",
            not mismatches, "; ".join(mismatches) if mismatches else "4 commands")
