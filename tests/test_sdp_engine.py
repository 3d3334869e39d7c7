"""Tests for the interior-point engine and the margin program pair."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iqcradius import worstcase
from iqcradius.model import (IqcSet, SystemData, _lyapunov_stack, lyapunov_adjoint,
                             lyapunov_operator)
from iqcradius.radius import margin_matrix
from iqcradius.sdp_engine import (
    MARGIN_FLOOR,
    TRACE_CAP,
    SdpProblem,
    SdpSolution,
    _max_steps,
    _Programs,
    dual_feasibility_margin,
    solve,
    solve_margin_dual,
    solve_margin_primal,
    svec_basis,
)


def test_solve_scalar_nonnegativity():
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.minimize([("s", [1.0])])
    pb.add_scalar_ineq(0.0, [("s", [1.0])])
    sol = solve(pb)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-8)


def test_solve_smallest_dominating_multiple_of_identity():
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.minimize([("s", [1.0])])
    pb.add_psd(2, -np.diag([1.0, 2.0]), [("s", np.eye(2)[None])])
    sol = solve(pb)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-7)


def test_matrix_equality_compiles_like_its_scalar_rows():
    """add_matrix_eq gives one row per upper-triangle entry, row by row."""
    A = np.array([[0.3, -1.2, 0.5], [0.7, 0.1, -0.4], [-0.6, 0.9, 0.2]])
    C = np.array([[1.0, 2.0, -3.0], [4.0, 5.0, 6.0], [7.0, -8.0, 9.0]])

    E = svec_basis(3)

    def build(matrix_form):
        pb = SdpProblem()
        pb.add_sym_var("X", 3)
        pb.add_scalar_var("t")
        pb.minimize([("t", [1.0])])
        pb.add_scalar_eq(-1.0, [("X", np.trace(E, axis1=1, axis2=2))])
        terms = [("X", A @ E @ A.T - E), ("t", C.T[None]), ("X", 0.5 * E)]
        if matrix_form:
            pb.add_matrix_eq(3, C, terms)
        else:
            for i in range(3):
                for j in range(i, 3):
                    pb.add_scalar_eq(C[i, j], [(name, a[:, i, j]) for name, a in terms])
        pb.add_scalar_eq(0.5, [("t", [1.0])])
        return pb.compile()

    got, want = build(True), build(False)
    assert got.A_eq.shape == (8, 7)
    assert got.A_eq.tobytes() == want.A_eq.tobytes()
    assert got.b_eq.tobytes() == want.b_eq.tobytes()
    with pytest.raises(ValueError, match="shape"):
        SdpProblem().add_matrix_eq(2, np.eye(3), [])


def test_terms_of_the_wrong_shape_are_rejected():
    pb = SdpProblem()
    pb.add_sym_var("Q", 2)
    pb.add_scalar_var("t")
    with pytest.raises(ValueError, match="shape"):
        pb.add_psd(2, None, [("Q", np.zeros((1, 2, 2)))])       # k is 3 for Q
    with pytest.raises(ValueError, match="shape"):
        pb.add_matrix_eq(2, None, [("t", np.zeros((1, 3, 3)))])
    with pytest.raises(ValueError, match="shape"):
        pb.add_scalar_ineq(0.0, [("t", 1.0)])                  # a row is (k,)
    with pytest.raises(ValueError, match="shape"):
        pb.minimize([("Q", svec_basis(2))])
    with pytest.raises(ValueError, match="shape"):
        pb.add_scalar_eq(0.0, [("t", lambda v: v)])             # no callables
    with pytest.raises(ValueError, match="undeclared"):
        pb.add_scalar_eq(0.0, [("s", [1.0])])


def _unit_matrices(d):
    """E_ij + E_ji (E_ii on the diagonal), upper triangle row by row."""
    out = []
    for i in range(d):
        for j in range(i, d):
            E = np.zeros((d, d))
            E[i, j] = E[j, i] = 1.0
            out.append(E)
    return out


def _sampled(fn, d=None):
    """Coefficients of the linear map ``fn``: its value on each basis element
    of a symmetric d x d variable, or on 1.0 for a scalar (``d`` None)."""
    return np.array([fn(1.0)] if d is None else [fn(E) for E in _unit_matrices(d)])


def _reference_programs(sys, iqcs, rho):
    """The four programs, each term sampled one basis element at a time."""
    n, d = sys.n, sys.n + sys.m

    def pairing(M):
        return lambda Qm: float(np.tensordot(Qm, M))

    def trace(Xm):
        return float(np.trace(Xm))

    margin = SdpProblem()
    margin.add_scalar_var("s")
    margin.add_sym_var("P", n)
    lams = [margin.add_scalar_var(f"lam{i}") for i in range(len(iqcs))]
    margin.minimize([("s", _sampled(lambda v: v))])
    margin.add_psd(d, None, [("s", _sampled(lambda v: v * np.eye(d))),
                             ("P", _sampled(lambda Pm: -lyapunov_operator(Pm, sys, rho), n))]
                   + [(lam, _sampled(lambda v: -v * M)) for lam, M in zip(lams, iqcs)],
                   label="margin")
    margin.add_psd(n, -np.eye(n), [("P", _sampled(lambda Pm: Pm, n))], label="P_minus_I")
    for lam in lams:
        margin.add_scalar_ineq(0.0, [(lam, _sampled(lambda v: v))], label=f"{lam}_nonneg")
    margin.add_scalar_ineq(-MARGIN_FLOOR, [("s", _sampled(lambda v: v))], label="floor")
    margin.add_scalar_ineq(TRACE_CAP, [("P", _sampled(lambda Pm: -trace(Pm), n))]
                           + [(lam, _sampled(lambda v: -v)) for lam in lams], label="cap")

    def dual(objective, t_weight):
        pb = SdpProblem()
        pb.add_sym_var("Q", d)
        if t_weight:
            pb.add_scalar_var("t")
        pb.minimize(objective)
        t_row = [("t", _sampled(lambda v: -v))] if t_weight else []
        if n:
            pb.add_psd(n, None,
                       [("Q", _sampled(lambda Qm: lyapunov_adjoint(Qm, sys, rho), d))]
                       + [("t", _sampled(lambda v: -v * np.eye(n)))] * t_weight,
                       label="adjoint")
        pb.add_psd(d, None, [("Q", _sampled(lambda Qm: Qm, d))], label="Q_psd")
        for i, M in enumerate(iqcs):
            pb.add_scalar_ineq(0.0, [("Q", _sampled(pairing(M), d))] + t_row,
                               label=f"iqc{i}")
        if t_weight:
            pb.add_scalar_ineq(10.0 * (sys.scale() + iqcs.scale()), t_row, label="tcap")
        pb.add_scalar_eq(-1.0, [("Q", _sampled(trace, d))])
        return pb

    phase1 = dual([("t", _sampled(lambda v: -v))], 1)
    margin_dual = dual(
        [("Q", _sampled(lambda Qm: -trace(lyapunov_adjoint(Qm, sys, rho)), d))], 0)

    witness = SdpProblem()
    witness.add_sym_var("Q", d)
    witness.add_scalar_var("t")
    witness.minimize([("t", _sampled(lambda v: -v))])
    witness.add_psd(d, None, [("Q", _sampled(lambda Qm: Qm, d)),
                              ("t", _sampled(lambda v: -v * np.eye(d)))],
                    label="Q_minus_tI")
    for i, M in enumerate(iqcs):
        witness.add_scalar_ineq(0.0, [("Q", _sampled(pairing(M), d)),
                                      ("t", _sampled(lambda v: -v))], label=f"iqc{i}")
    witness.add_matrix_eq(n, None, [("Q", _sampled(lambda Qm: lyapunov_adjoint(Qm, sys, 1.0), d))])
    witness.add_scalar_eq(-1.0, [("Q", _sampled(trace, d))])

    return [margin, phase1, margin_dual, witness]


def test_programs_compile_like_per_element_references():
    """Each program, captured through ``solver=``, compiles byte for byte
    like the same program sampled one basis element at a time."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, m = int(rng.integers(1, 5)), int(rng.integers(0, 3))
        sys = SystemData(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
        mats = [M + M.T for M in rng.normal(size=(int(rng.integers(0, 3)), n + m, n + m))]
        iqcs = IqcSet.from_matrices(mats, dim=n + m)
        rho = float(rng.uniform(0.2, 2.0))

        captured = []

        def spy(pb):
            # Zero values: every caller goes on to its next program, and
            # the witness stage rejects them (trace(Q) is zero).
            captured.append(pb)
            comp = pb.compile()
            values = {name: pb.extract(name, np.zeros(comp.p), comp.spans)
                      for name in comp.spans}
            return SdpSolution("optimal", 0.0, values, {}, 0)

        solve_margin_primal(sys, iqcs, rho, solver=spy)
        solve_margin_dual(sys, iqcs, rho, solver=spy)
        with pytest.raises(ValueError, match="trace"):
            worstcase.extract_dual_witness(sys, iqcs, solver=spy)
        references = _reference_programs(sys, iqcs, rho)
        assert len(captured) == len(references) == 4

        for got, want in zip(captured, references):
            got, want = got.compile(), want.compile()
            assert (got.blocks, got.labels, got.spans) == (want.blocks, want.labels, want.spans)
            for field in ("F0", "cols", "c", "A_eq", "b_eq"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def _fresh_programs(sys, iqcs, rho):
    """The margin and phase-I programs at one rate, each stated with its
    rate term and compiled from scratch."""
    n, d = sys.n, sys.n + sys.m
    E = svec_basis(n)
    margin = SdpProblem()
    margin.add_scalar_var("s")
    margin.add_sym_var("P", n)
    lams = [margin.add_scalar_var(f"lam{i}") for i in range(len(iqcs))]
    margin.minimize([("s", [1.0])])
    margin.add_psd(d, None, [("s", np.eye(d)[None]), ("P", -_lyapunov_stack(E, sys, rho))]
                   + [(lam, -M[None]) for lam, M in zip(lams, iqcs)], label="margin")
    margin.add_psd(n, -np.eye(n), [("P", E)], label="P_minus_I")
    for lam in lams:
        margin.add_scalar_ineq(0.0, [(lam, [1.0])], label=f"{lam}_nonneg")
    margin.add_scalar_ineq(-MARGIN_FLOOR, [("s", [1.0])], label="floor")
    margin.add_scalar_ineq(TRACE_CAP, [("P", -np.trace(E, axis1=1, axis2=2))]
                           + [(lam, [-1.0]) for lam in lams], label="cap")

    E = svec_basis(d)
    phase1 = SdpProblem()
    phase1.add_sym_var("Q", d)
    phase1.add_scalar_var("t")
    phase1.minimize([("t", [-1.0])])
    phase1.add_psd(n, None, [("Q", _lyapunov_stack(E, sys, rho, adjoint=True)),
                             ("t", -np.eye(n)[None])], label="adjoint")
    phase1.add_psd(d, None, [("Q", E)], label="Q_psd")
    for i, M in enumerate(iqcs):
        phase1.add_scalar_ineq(0.0, [("Q", np.tensordot(E, M)), ("t", [-1.0])],
                               label=f"iqc{i}")
    phase1.add_scalar_ineq(10.0 * (sys.scale() + iqcs.scale()), [("t", [-1.0])],
                           label="tcap")
    phase1.add_scalar_eq(-1.0, [("Q", np.trace(E, axis1=1, axis2=2))])
    return margin.compile(), phase1.compile()


def _assert_same_form(got, want):
    assert (got.blocks, got.labels, got.spans) == (want.blocks, want.labels, want.spans)
    for field in ("F0", "cols", "c", "A_eq", "b_eq"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


@st.composite
def _systems(draw):
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys = SystemData(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    mats = [M + M.T for M in rng.normal(size=(k, n + m, n + m))]
    return sys, IqcSet.from_matrices(mats, dim=n + m)


@given(_systems(), st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=4))
def test_prepared_programs_compile_like_fresh_builds(case, rates):
    """One prepared pair of programs, reused over several rates, gives at
    each rate the standard form of a fresh build byte for byte, and so do
    the public calls, which prepare their program for that rate alone."""
    sys, iqcs = case
    programs = _Programs(sys, iqcs)
    captured = []

    def spy(pb):
        captured.append(pb.compile())
        values = {name: pb.extract(name, np.zeros(captured[-1].p), captured[-1].spans)
                  for name in captured[-1].spans}
        return SdpSolution("optimal", 0.0, values, {}, 0)

    forms = []
    for rho in rates:
        solve_margin_primal(sys, iqcs, rho, solver=spy)
        dual_feasibility_margin(sys, iqcs, rho, solver=spy)
        forms.append((programs.margin(rho).compile(), programs.phase1(rho).compile(),
                      *captured[-2:]))
    # Compared after every rate is written, so no rate's form aliases another's.
    for rho, (margin, phase1, public_margin, public_phase1) in zip(rates, forms):
        fresh_margin, fresh_phase1 = _fresh_programs(sys, iqcs, rho)
        for got in (margin, public_margin):
            _assert_same_form(got, fresh_margin)
        for got in (phase1, public_phase1):
            _assert_same_form(got, fresh_phase1)


def test_margin_primal_strictly_feasible_runs_to_floor():
    sys = SystemData(A=[[0.5]])
    res = solve_margin_primal(sys, IqcSet.empty(1), 1.0)
    assert res.status == "optimal"
    assert res.s_star < 0
    assert res.floor_active
    assert res.s_star == pytest.approx(MARGIN_FLOOR, abs=1e-6)
    assert res.margin_check < 0


def test_margin_primal_marginal_scalar_is_zero():
    sys = SystemData(A=[[1.0]])
    res = solve_margin_primal(sys, IqcSet.empty(1), 1.0)
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
    at_one = solve_margin_primal(sys, IqcSet.empty(2), 1.0)
    assert at_one.s_star > 1e-7
    assert at_one.cap_active
    above = solve_margin_primal(sys, IqcSet.empty(2), 1.1)
    assert above.s_star < 0
    assert above.margin_check < 0


def test_margin_primal_opposite_sign_pair_runs_to_floor():
    # With both M and -M present, weighting -M makes the rate-one
    # inequality strictly feasible, so the margin is unbounded below
    # and the floor binds; the optimum is not the zero-multiplier point.
    sys = SystemData(A=[[1.0]])
    iqcs = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    res = solve_margin_primal(sys, iqcs, 1.0)
    assert res.status == "optimal"
    assert res.floor_active
    assert res.lambdas[1] > res.lambdas[0]
    assert res.margin_check < 0


def test_margin_dual_plane_rotation():
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    res = solve_margin_dual(sys, IqcSet.empty(2), 1.0)
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
    res = solve_margin_dual(sys, iqcs, 1.0)
    assert res.status == "infeasible"
    assert res.infeasibility_margin < -0.5
    assert res.d_star == -np.inf


def test_margin_dual_above_the_radius_reports_infeasible():
    sys = SystemData(A=[[0.5]])
    res = solve_margin_dual(sys, IqcSet.empty(1), 1.0)
    assert res.status == "infeasible"
    assert res.d_star < 0


def test_dual_feasibility_margin_signs():
    rot = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    probe = dual_feasibility_margin(rot, IqcSet.empty(2), 1.0)
    assert probe.status == "optimal"
    assert probe.t_star == pytest.approx(0.0, abs=1e-8)
    pm = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    probe = dual_feasibility_margin(SystemData(A=[[1.0]]), pm, 1.0)
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
        p = solve_margin_primal(sys, iqcs, 1.0)
        if p.status != "optimal" or p.floor_active or p.cap_active:
            continue
        d = solve_margin_dual(sys, iqcs, 1.0)
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
        solve_margin_primal(sys, IqcSet.empty(1), 0.0)
    with pytest.raises(Exception):
        solve_margin_primal(sys, IqcSet.empty(3), 1.0)


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
    E = svec_basis(k)
    trace = np.trace(E, axis1=1, axis2=2)
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.add_scalar_var("t")
    pb.add_sym_var("X", k)
    pb.minimize([("s", [1.0]), ("X", trace)])
    for b, C in enumerate(Cs):
        var = "st"[b % 2]
        pb.add_psd(len(C), -C, [(var, np.eye(len(C))[None])], label=f"block{b}")
    pb.add_psd(k, -W, [("X", E)], label="X_lower")
    for j, c in enumerate(cs):
        pb.add_scalar_ineq(-c, [("s", [1.0])], label=f"scalar{j}")
    pb.add_scalar_ineq(TRACE_CAP, [("s", [-1.0]), ("X", -trace)], label="cap")
    pb.add_scalar_eq(0.0, [("t", [1.0]), ("s", [-1.0])])

    optimum = max([float(np.linalg.eigvalsh(C)[-1]) for C in Cs] + cs)
    return pb, optimum + float(np.trace(W))


@given(_max_eig_problems())
def test_engine_properties_on_random_block_problems(case):
    pb, Cs, cs, W, expected = case
    sol = solve(pb)
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
    assert np.array_equal(solve(pb).y, sol.y)


def test_engine_solves_a_found_block_problem():
    """An example the random-block property test found, pinned on its own.

    The objective is within 5e-12 of the optimum while the gap is still
    above the 1e-10 tolerances, so an iteration that loses positive
    definiteness of an iterate here stops with "factorization failed".
    """
    C0 = np.array([[-2.1021336055933375, -2.252690409038564],
                   [-2.252690409038564, -2.252690409038564]])
    Cs = [C0] + [np.zeros((3, 3))] * 3
    pb, expected = _max_eig_program(Cs, [0.0], np.zeros((1, 1)))
    sol = solve(pb)
    assert sol.status == "optimal", sol.message
    assert sol.objective == pytest.approx(expected, abs=1e-7 * (1.0 + abs(expected)))


_INT = st.integers(-3, 3)


@st.composite
def _step_cases(draw):
    """A block-diagonal X = R R' + I and a symmetric dX, each scaled.

    Integer entries keep every nonzero eigenvalue of a dX block away from
    zero, so the checks below stay far above rounding; ``pd`` draws dX
    as C C' + I, which has no boundary.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    pd = draw(st.booleans())
    D = sum(sizes)
    X, dX = np.zeros((D, D)), np.zeros((D, D))
    at = 0
    for d in sizes:
        R = draw(arrays(np.float64, (d, d), elements=_INT))
        C = draw(arrays(np.float64, (d, d), elements=_INT))
        sl = slice(at, at + d)
        X[sl, sl] = R @ R.T + np.eye(d)
        dX[sl, sl] = C @ C.T + np.eye(d) if pd else C + C.T
        at += d
    scale = st.floats(1e-3, 1e3)
    return draw(scale) * X, draw(scale) * dX, pd


def _min_eig_of(M):
    return float(np.linalg.eigvalsh(M)[0])


@given(_step_cases())
def test_factored_step_length_stops_at_the_boundary(case):
    X, dX, pd = case
    Linv = np.linalg.inv(np.linalg.cholesky(X))
    alpha = float(_max_steps(Linv[None], dX[None])[0])
    if pd:
        assert alpha == np.inf
        return
    if _min_eig_of(dX) >= -1e-9 * np.abs(dX).max():
        # A singular PSD dX: rounding may put a zero eigenvalue a hair below
        # zero, and then the step is finite but far beyond the unit steps
        # the engine takes.
        assert alpha == np.inf or \
            alpha * np.linalg.norm(dX, 2) >= 1e12 * _min_eig_of(X)
        return
    assert 0 < alpha < np.inf
    assert _min_eig_of(X + alpha * (1 - 1e-9) * dX) >= 0.0
    assert _min_eig_of(X + alpha * (1 + 1e-6) * dX) < 0.0
