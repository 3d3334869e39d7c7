"""Tests for the interior-point engine and the margin program pair."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iqcradius.model import IqcSet, SystemData
from iqcradius.radius import margin_matrix
from iqcradius.sdp_engine import (
    MARGIN_FLOOR,
    TRACE_CAP,
    SdpProblem,
    SolverConfig,
    dual_feasibility_margin,
    solve,
    solve_margin_dual,
    solve_margin_primal,
)

CONFIG = SolverConfig(feas_tol=1e-10, gap_tol=1e-10, max_iter=300)


def test_solve_scalar_nonnegativity():
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.minimize([("s", lambda v: v)])
    pb.add_scalar_ineq(0.0, [("s", lambda v: v)])
    sol = solve(pb, CONFIG)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-8)


def test_solve_smallest_dominating_multiple_of_identity():
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.minimize([("s", lambda v: v)])
    pb.add_psd(2, -np.diag([1.0, 2.0]), [("s", lambda v: v * np.eye(2))])
    sol = solve(pb, CONFIG)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-7)


def test_matrix_equality_compiles_like_its_scalar_rows():
    """add_matrix_eq gives one row per upper-triangle entry, row by row."""
    A = np.array([[0.3, -1.2, 0.5], [0.7, 0.1, -0.4], [-0.6, 0.9, 0.2]])
    C = np.array([[1.0, 2.0, -3.0], [4.0, 5.0, 6.0], [7.0, -8.0, 9.0]])

    def op(Xm, t):
        return A @ Xm @ A.T - Xm + t * C.T

    def build(matrix_form):
        pb = SdpProblem()
        pb.add_sym_var("X", 3)
        pb.add_scalar_var("t")
        pb.minimize([("t", lambda v: v)])
        pb.add_scalar_eq(-1.0, [("X", lambda Xm: float(np.trace(Xm)))])
        terms = [("X", lambda Xm: op(Xm, 0.0)), ("t", lambda v: op(np.zeros((3, 3)), v)),
                 ("X", lambda Xm: 0.5 * Xm)]
        if matrix_form:
            pb.add_matrix_eq(3, C, terms)
        else:
            for i in range(3):
                for j in range(i, 3):
                    pb.add_scalar_eq(C[i, j], [
                        (name, (lambda f, a, b: (lambda v: float(f(v)[a, b])))(fn, i, j))
                        for name, fn in terms])
        pb.add_scalar_eq(0.5, [("t", lambda v: v)])
        return pb.compile()

    got, want = build(True), build(False)
    assert got.A_eq.shape == (8, 7)
    assert got.A_eq.tobytes() == want.A_eq.tobytes()
    assert got.b_eq.tobytes() == want.b_eq.tobytes()
    with pytest.raises(ValueError, match="shape"):
        SdpProblem().add_matrix_eq(2, np.eye(3), [])


def test_solver_config_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        SolverConfig(feas_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(step_fraction=1.0)


def test_margin_primal_strictly_feasible_runs_to_floor():
    sys = SystemData(A=[[0.5]])
    res = solve_margin_primal(sys, IqcSet.empty(1), 1.0, CONFIG)
    assert res.status == "optimal"
    assert res.s_star < 0
    assert res.floor_active
    assert res.s_star == pytest.approx(MARGIN_FLOOR, abs=1e-6)
    assert res.margin_check < 0


def test_margin_primal_marginal_scalar_is_zero():
    sys = SystemData(A=[[1.0]])
    res = solve_margin_primal(sys, IqcSet.empty(1), 1.0, CONFIG)
    assert res.status == "optimal"
    assert res.s_star == pytest.approx(0.0, abs=1e-8)
    assert not res.floor_active
    assert res.margin_check <= 1e-8
    assert float(np.linalg.eigvalsh(res.P)[0]) >= 1.0 - 1e-8


def test_margin_primal_defective_boundary_gap():
    # At rate one the margin infimum is zero but is approached only by
    # unboundedly large P; the trace cap keeps the reported optimum a
    # hair positive.  One step above the boundary the program is
    # strictly feasible and runs to the floor.
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    at_one = solve_margin_primal(sys, IqcSet.empty(2), 1.0, CONFIG)
    assert at_one.s_star > 1e-7
    assert at_one.cap_active
    above = solve_margin_primal(sys, IqcSet.empty(2), 1.1, CONFIG)
    assert above.s_star < 0
    assert above.margin_check < 0


def test_margin_primal_opposite_sign_pair_runs_to_floor():
    # With both M and -M present, weighting -M makes the rate-one
    # inequality strictly feasible, so the margin is unbounded below
    # and the floor binds; the optimum is not the zero-multiplier point.
    sys = SystemData(A=[[1.0]])
    iqcs = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    res = solve_margin_primal(sys, iqcs, 1.0, CONFIG)
    assert res.status == "optimal"
    assert res.floor_active
    assert res.lambdas[1] > res.lambdas[0]
    assert res.margin_check < 0


def test_margin_dual_plane_rotation():
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    res = solve_margin_dual(sys, IqcSet.empty(2), 1.0, CONFIG)
    assert res.status == "optimal"
    assert res.d_star == pytest.approx(0.0, abs=1e-7)
    assert np.allclose(res.Q, 0.5 * np.eye(2), atol=1e-6)
    assert float(np.linalg.eigvalsh(res.Q)[0]) >= -1e-6
    assert float(np.trace(res.Q)) == pytest.approx(1.0, abs=1e-6)


def test_margin_dual_opposite_sign_pair_infeasible():
    # trace(Q*1) >= 0 and trace(Q*(-1)) >= 0 force trace(Q) = 0, which
    # contradicts the unit-trace normalization: the dual set is empty.
    sys = SystemData(A=[[1.0]])
    iqcs = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    res = solve_margin_dual(sys, iqcs, 1.0, CONFIG)
    assert res.status == "infeasible"
    assert res.infeasibility_margin < -0.5
    assert res.d_star == -np.inf


def test_margin_dual_above_the_radius_reports_infeasible():
    sys = SystemData(A=[[0.5]])
    res = solve_margin_dual(sys, IqcSet.empty(1), 1.0, CONFIG)
    assert res.status == "infeasible"
    assert res.d_star < 0


def test_dual_feasibility_margin_signs():
    rot = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    probe = dual_feasibility_margin(rot, IqcSet.empty(2), 1.0, CONFIG)
    assert probe.status == "optimal"
    assert probe.t_star == pytest.approx(0.0, abs=1e-8)
    pm = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    probe = dual_feasibility_margin(SystemData(A=[[1.0]]), pm, 1.0, CONFIG)
    assert probe.t_star == pytest.approx(-1.0, abs=1e-6)


def _random_margin_instance(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 1.1) / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    B = rng.normal(size=(n, m))
    mats = []
    for _ in range(int(rng.integers(0, 3))):
        M = rng.normal(size=(n + m, n + m))
        mats.append(0.25 * (M + M.T) / (n + m))
    return SystemData(A=A, B=B), IqcSet.from_matrices(mats, dim=n + m)


def test_strong_duality_on_random_instances():
    rng = np.random.default_rng(42)
    accepted = 0
    tried = 0
    while accepted < 5 and tried < 40:
        tried += 1
        sys, iqcs = _random_margin_instance(rng)
        p = solve_margin_primal(sys, iqcs, 1.0, CONFIG)
        if p.status != "optimal" or p.floor_active or p.cap_active:
            continue
        d = solve_margin_dual(sys, iqcs, 1.0, CONFIG)
        if d.status != "optimal" or d.Q is None:
            continue
        accepted += 1
        assert abs(p.s_star - d.d_star) <= 1e-6 * (1.0 + abs(p.s_star))
        # independent constraint re-checks on both returned points
        dim = sys.n + sys.m
        H = margin_matrix(sys, iqcs, 1.0, p.P, p.lambdas)
        assert float(np.linalg.eigvalsh(p.s_star * np.eye(dim) - H)[0]) >= -1e-6
        assert float(np.linalg.eigvalsh(p.P - np.eye(sys.n))[0]) >= -1e-6
        assert float(np.linalg.eigvalsh(d.Q)[0]) >= -1e-6
        assert abs(float(np.trace(d.Q)) - 1.0) <= 1e-6
    assert accepted == 5


def test_margin_primal_rejects_bad_rate_and_dims():
    sys = SystemData(A=[[0.5]])
    with pytest.raises(ValueError):
        solve_margin_primal(sys, IqcSet.empty(1), 0.0, CONFIG)
    with pytest.raises(Exception):
        solve_margin_primal(sys, IqcSet.empty(3), 1.0, CONFIG)


def test_verbose_prints_one_line_per_iteration(capsys):
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.minimize([("s", lambda v: v)])
    pb.add_psd(2, -np.diag([1.0, 2.0]), [("s", lambda v: v * np.eye(2))])
    quiet = solve(pb, CONFIG)
    assert capsys.readouterr().out == ""
    loud = solve(pb, SolverConfig(feas_tol=1e-10, gap_tol=1e-10, max_iter=300,
                                  verbose=True))
    lines = capsys.readouterr().out.splitlines()
    assert loud.iterations == quiet.iterations > 0
    assert len(lines) == loud.iterations
    assert all(line.lstrip().startswith("it=") for line in lines)


_ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _max_eig_problems(draw):
    """min s + tr(X) over s = t, sI >= C_b (or tI >= C_b), s >= c_j, X >= W.

    PSD blocks of size 1-4, scalar blocks, one scalar equality and a cap
    of TRACE_CAP on s + tr(X); the optimum is max(lambda_max(C_b), c_j)
    + tr(W) with X = W.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    Cs = [draw(arrays(np.float64, (d, d), elements=_ENTRY)) for d in sizes]
    Cs = [0.5 * (C + C.T) for C in Cs]
    cs = draw(st.lists(_ENTRY, max_size=3))
    k = draw(st.integers(1, 3))
    W = draw(arrays(np.float64, (k, k), elements=_ENTRY))
    W = 0.5 * (W + W.T)
    pb, optimum = _max_eig_program(Cs, cs, W)
    return pb, Cs, cs, W, optimum


def _max_eig_program(Cs, cs, W):
    """The program of ``_max_eig_problems`` for given data, and its optimum."""
    k = len(W)
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.add_scalar_var("t")
    pb.add_sym_var("X", k)
    pb.minimize([("s", lambda v: v), ("X", lambda Xm: float(np.trace(Xm)))])
    for b, C in enumerate(Cs):
        var = "st"[b % 2]
        pb.add_psd(len(C), -C, [(var, (lambda d: (lambda v: v * np.eye(d)))(len(C)))],
                   label=f"block{b}")
    pb.add_psd(k, -W, [("X", lambda Xm: Xm)], label="X_lower")
    for j, c in enumerate(cs):
        pb.add_scalar_ineq(-c, [("s", lambda v: v)], label=f"scalar{j}")
    pb.add_scalar_ineq(TRACE_CAP, [("s", lambda v: -v),
                                   ("X", lambda Xm: -float(np.trace(Xm)))], label="cap")
    pb.add_scalar_eq(0.0, [("t", lambda v: v), ("s", lambda v: -v)])

    optimum = max([float(np.linalg.eigvalsh(C)[-1]) for C in Cs] + cs)
    return pb, optimum + float(np.trace(W))


@given(_max_eig_problems())
def test_engine_properties_on_random_block_problems(case):
    pb, Cs, cs, W, expected = case
    sol = solve(pb, CONFIG)
    assert sol.status == "optimal"
    tol = 1e-7 * (1.0 + abs(expected))

    # Primal feasibility, checked block by block by eigenvalues.
    s, t, X = sol.values["s"], sol.values["t"], sol.values["X"]
    assert abs(s - t) <= tol
    for b, C in enumerate(Cs):
        v = (s, t)[b % 2]
        assert float(np.linalg.eigvalsh(v * np.eye(len(C)) - C)[0]) >= -tol
    assert float(np.linalg.eigvalsh(X - W)[0]) >= -tol
    assert all(s - c >= -tol for c in cs)
    assert TRACE_CAP - s - float(np.trace(X)) >= 0.0

    # Cone duals: one PSD matrix per labelled block, in its block's shape.
    shapes = {f"block{b}": C.shape for b, C in enumerate(Cs)}
    shapes.update({f"scalar{j}": (1, 1) for j in range(len(cs))})
    shapes.update(X_lower=W.shape, cap=(1, 1))
    assert {label: Z.shape for label, Z in sol.cone_duals.items()} == shapes
    for Z in sol.cone_duals.values():
        assert float(np.linalg.eigvalsh(Z)[0]) >= -1e-8

    assert sol.objective == pytest.approx(expected, abs=tol)
    assert np.array_equal(solve(pb, CONFIG).y, sol.y)


@pytest.mark.xfail(strict=True, reason="numerical-failure near the optimum; "
                   "IPM endgame robustness is ROADMAP item 2")
def test_engine_solves_a_found_block_problem():
    """An example the random-block property test found, pinned on its own.

    The engine stops after 13 iterations with "factorization failed" at
    gap 1.75e-9, against the 1e-10 tolerances, though its objective is
    already within 5e-12 of the optimum.
    """
    C0 = np.array([[-2.1021336055933375, -2.252690409038564],
                   [-2.252690409038564, -2.252690409038564]])
    Cs = [C0] + [np.zeros((3, 3))] * 3
    pb, expected = _max_eig_program(Cs, [0.0], np.zeros((1, 1)))
    sol = solve(pb, CONFIG)
    assert sol.status == "optimal", sol.message
    assert sol.objective == pytest.approx(expected, abs=1e-7 * (1.0 + abs(expected)))
