"""Tests for dual-witness extraction and trajectory construction.

Covers the full pipeline (dual optimum -> rank factorization ->
orthogonal factor -> eigen-grouping -> sign-condition direction ->
trajectory) plus the per-stage operations and their documented edge
cases.  Numeric expectations were frozen from hand-checkable instances:
plane rotations, scalar marginal systems, and diagonal constraint
matrices whose partial sums can be brute-forced.
"""

import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iqcradius import worstcase
from iqcradius.model import IqcSet, SystemData, iqc_partial_sums
from iqcradius.radius import spectral_radius
from iqcradius.sdp_engine import solve
from iqcradius.verify import _walk, check_witness
from iqcradius.worstcase import (
    WorstCaseModes,
    build_witness,
    eigen_group,
    extract_dual_witness,
    feedback_gain,
    iqc_sum_lower_bound,
    mode_orbit,
    rank_factor,
    recover_orthogonal_factor,
    technical_condition,
    verify_direction,
)
from iqcradius.model import lyapunov_adjoint


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def shift_of(sys, modes, iqcs):
    """The shift ``verify`` reads off the modes' orbit."""
    return _walk(sys, modes, 1.0, iqcs).hard_shift


def pointwise_of(sys, modes, iqcs):
    """The pointwise flag ``verify`` reads off the modes' orbit."""
    return _walk(sys, modes, 1.0, iqcs).pointwise


def scalar_modes(H_value, v=1.0):
    """Rank-one modes for a 1-d system with a single constraint form."""
    F = np.array([[1.0]])
    return WorstCaseModes(
        Q=np.array([[1.0]]),
        d=1,
        X=np.array([[1.0]]),
        U=np.zeros((0, 1)),
        F=F,
        groups=tuple(eigen_group(F)),
        H=(np.array([[H_value]]),),
        v=np.array([v]),
    )


@pytest.fixture(scope="module")
def rotation_witness():
    sys = SystemData(A=rotation(np.pi / 2))
    outcome = build_witness(sys, IqcSet.empty(2), rho=1.0)
    assert outcome.ok, outcome.reason
    return sys, outcome


@pytest.fixture(scope="module")
def constrained_witnesses():
    """Three boundary instances with constraints, all expected to complete."""
    cases = []
    sys1 = SystemData(A=rotation(1.0))
    iqcs1 = IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]]])
    cases.append((sys1, iqcs1, build_witness(sys1, iqcs1, rho=1.0)))

    sys2 = SystemData(A=rotation(np.sqrt(2.0)))
    iqcs2 = IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]],
                                  [[0.5, 0.3], [0.3, 0.5]]])
    cases.append((sys2, iqcs2, build_witness(sys2, iqcs2, rho=1.0)))

    A4 = np.zeros((4, 4))
    A4[:2, :2] = rotation(1.0)
    A4[2:, 2:] = rotation(2.0)
    sys4 = SystemData(A=A4)
    iqcs4 = IqcSet.from_matrices([np.diag([1.0, 0.5, 0.25, 0.1])])
    cases.append((sys4, iqcs4, build_witness(sys4, iqcs4, rho=1.0)))

    for _, _, outcome in cases:
        assert outcome.ok, outcome.reason
    return cases


@pytest.fixture(scope="module")
def feedback_witness():
    """Marginal scalar loop with an input and a sector constraint."""
    sys = SystemData(A=[[1.0]], B=[[-0.2]])
    iqcs = IqcSet.from_matrices([[[-10.0, 5.5], [5.5, -1.0]]])
    outcome = build_witness(sys, iqcs, rho=1.0)
    assert outcome.ok, outcome.reason
    return sys, iqcs, outcome


def test_dual_witness_plane_rotation():
    Q = extract_dual_witness(SystemData(A=rotation(np.pi / 2)), IqcSet.empty(2))
    np.testing.assert_allclose(Q, 0.5 * np.eye(2), atol=1e-6)


def test_dual_witness_marginal_scalar():
    Q = extract_dual_witness(SystemData(A=[[1.0]]), IqcSet.empty(1))
    np.testing.assert_allclose(Q, [[1.0]], atol=1e-8)


def test_dual_witness_postconditions(constrained_witnesses):
    for sys, iqcs, outcome in constrained_witnesses:
        Q = outcome.modes.Q
        assert np.linalg.eigvalsh(Q).min() >= -1e-8
        assert abs(np.trace(Q) - 1.0) <= 1e-8
        assert np.linalg.norm(lyapunov_adjoint(Q, sys), 2) <= 1e-6
        for M in iqcs.entries:
            top = M[:sys.n, :sys.n]
            assert np.trace(Q @ top) >= -1e-6


def test_dual_witness_absent_for_signed_scalar_pair():
    iqcs = IqcSet.from_matrices([[[1.0]], [[-1.0]]], dim=1)
    with pytest.raises(ValueError, match=r"trace\(Q M"):
        extract_dual_witness(SystemData(A=[[1.0]]), iqcs)


def test_rank_factor_full_rank():
    X, U, d = rank_factor(0.5 * np.eye(2), 2)
    assert d == 2
    assert U.shape == (0, 2)
    np.testing.assert_allclose(X @ X.T, 0.5 * np.eye(2), atol=1e-12)


def test_rank_factor_rank_one_with_input_row():
    Q = np.zeros((3, 3))
    Q[0, 0] = 1.0
    X, U, d = rank_factor(Q, 2)
    assert d == 1
    assert X.shape == (2, 1) and U.shape == (1, 1)
    stacked = np.vstack([X, U]).ravel()
    np.testing.assert_allclose(np.abs(stacked), [1.0, 0.0, 0.0], atol=1e-12)


def test_rank_factor_threshold():
    eps = 1e-9
    Q = np.diag([1.0 - eps, eps])
    X, U, d = rank_factor(Q, 2)
    assert d == 1
    assert np.linalg.norm(Q - X @ X.T, 2) <= 10 * 1e-7


def test_rank_factor_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        rank_factor(np.zeros((2, 2)), 2)


def test_orthogonal_factor_exact_rotation():
    G = rotation(np.pi / 2)
    F = recover_orthogonal_factor(np.eye(2), G)
    np.testing.assert_allclose(F, G, atol=1e-12)


def test_orthogonal_factor_completion():
    X = np.array([[1.0, 0.0]])
    G = np.array([[0.0, 1.0]])
    F = recover_orthogonal_factor(X, G)
    np.testing.assert_allclose(F.T @ F, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(X @ F, G, atol=1e-12)


def test_orthogonal_factor_roundtrip():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        H = rng.normal(size=(4, 3))
        raw = rng.normal(size=(3, 3))
        F0, _ = np.linalg.qr(raw)
        G = H @ F0
        F = recover_orthogonal_factor(H, G)
        worst = max(worst, np.linalg.norm(H @ F - G, 2))
    assert worst <= 1e-10


def test_eigen_group_identity():
    groups = eigen_group(np.eye(2))
    assert len(groups) == 1
    assert groups[0].theta == pytest.approx(0.0, abs=1e-12)
    assert groups[0].W.shape == (2, 2)
    W = groups[0].W
    np.testing.assert_allclose(W.conj().T @ W, np.eye(2), atol=1e-12)


def test_eigen_group_quarter_turn():
    groups = eigen_group(rotation(np.pi / 2))
    assert [g.multiplicity for g in groups] == [1, 1]
    thetas = sorted(g.theta for g in groups)
    assert thetas == pytest.approx([np.pi / 2, 3 * np.pi / 2], abs=1e-12)
    lo, hi = sorted(groups, key=lambda g: g.theta)
    np.testing.assert_allclose(hi.W, lo.W.conj(), atol=1e-12)


def test_eigen_group_reflection():
    groups = eigen_group(np.diag([1.0, -1.0]))
    thetas = sorted(g.theta for g in groups)
    assert thetas == pytest.approx([0.0, np.pi], abs=1e-12)


def test_eigen_group_near_merge_warns():
    F = np.zeros((4, 4))
    F[:2, :2] = rotation(1.0)
    F[2:, 2:] = rotation(1.0 + 5e-6)
    with pytest.warns(RuntimeWarning, match="clustering gap"):
        groups = eigen_group(F)
    assert len(groups) == 4


def test_direction_rank_one(feedback_witness):
    """At d = 1 the basis sum is v = [1] exactly (``eigen_group`` returns
    the basis [[1]] for F = 1 and F = -1)."""
    _, _, outcome = feedback_witness
    assert outcome.modes.d == 1
    v, method = technical_condition(outcome.modes)
    assert method == "distinct-eigenvalues"
    assert v.tolist() == [1.0]


def test_direction_distinct_eigenvalues(rotation_witness):
    _, outcome = rotation_witness
    modes = outcome.modes
    v, method = technical_condition(modes)
    assert method == "distinct-eigenvalues"
    basis_sum = sum(g.W[:, 0] for g in modes.groups)
    assert np.linalg.norm(basis_sum.imag) <= 1e-10
    np.testing.assert_allclose(v, basis_sum.real, atol=1e-10)


def test_direction_unconstrained_fallback():
    X, U, d = rank_factor(0.5 * np.eye(2), 2)
    modes = WorstCaseModes(Q=0.5 * np.eye(2), d=d, X=X, U=U, F=np.eye(2),
                           groups=tuple(eigen_group(np.eye(2))), H=())
    v, method = technical_condition(modes)
    assert method == "eigenvalue-search"
    np.testing.assert_array_equal(v, np.linalg.svd(X)[2][0])


def test_direction_absent_for_opposite_signs():
    F = np.array([[1.0]])
    modes = WorstCaseModes(Q=np.array([[1.0]]), d=1, X=np.array([[1.0]]),
                           U=np.zeros((0, 1)), F=F,
                           groups=tuple(eigen_group(F)),
                           H=(np.array([[1.0]]), np.array([[-1.0]])))
    with pytest.raises(ValueError, match="no direction exists"):
        technical_condition(modes)


def test_direction_verifier_messages(rotation_witness):
    _, outcome = rotation_witness
    modes = outcome.modes
    assert verify_direction(modes, modes.v) == ""
    assert "not finite" in verify_direction(modes, np.array([np.nan, 0.0]))
    null_modes = WorstCaseModes(
        Q=modes.Q, d=modes.d, X=np.array([[1.0, 0.0], [0.0, 0.0]]),
        U=modes.U, F=modes.F, groups=modes.groups, H=modes.H)
    assert "null space" in verify_direction(null_modes, np.array([0.0, 1.0]))


def test_repeated_eigenvalue_plane_completes():
    """A repeated eigenvalue (F = I_2) with one constraint: the basis sum
    does not apply, and the top eigenvector of K_1 passes."""
    sys = SystemData(A=np.eye(2))
    iqcs = IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]]])
    outcome = build_witness(sys, iqcs, rho=1.0)
    assert outcome.ok, outcome.reason
    assert technical_condition(outcome.modes)[1] == "eigenvalue-search"
    assert check_witness(sys, outcome.report, iqcs).ok


def _repeated_rotation_system(rng, r, k):
    """kron(I_r, rotation) under a random orthogonal similarity, with k
    random constraints, each shifted by a multiple of the identity so that
    its pairing with the stationary dual I / 2r is nonnegative."""
    n = 2 * r
    O = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = O @ np.kron(np.eye(r), rotation(rng.uniform(0.3, 2.8))) @ O.T
    mats = []
    for _ in range(k):
        G = rng.normal(size=(n, n))
        G = G + G.T
        mats.append(G - min(np.trace(G) / n, 0.0) * np.eye(n))
    return SystemData(A=A), IqcSet.from_matrices(mats, dim=n)


def test_repeated_eigenvalue_boundary_sample_completes():
    """Each eigen-group of these systems has multiplicity r, so the basis
    sum does not apply; the eigenvalue search certifies the sign
    condition, and the witness passes ``check_witness``."""
    rng = np.random.default_rng(28)
    for r in (2, 3):
        for k in (1, 2, 3):
            for _ in range(2):
                sys, iqcs = _repeated_rotation_system(rng, r, k)
                outcome = build_witness(sys, iqcs, rho=1.0,
                                        radius_cert=_CLAIMED_BOUNDARY)
                assert outcome.ok, (r, k, outcome.stage, outcome.reason)
                assert {g.multiplicity for g in outcome.modes.groups} == {r}
                assert check_witness(sys, outcome.report, iqcs).ok


def test_sign_condition_solves_no_program():
    """With a stored certificate the dual extraction is the only solve."""
    sys = SystemData(A=np.kron(np.eye(2), rotation(0.8)))
    iqcs = IqcSet.from_matrices([np.diag([1.0, 0.0, 0.0, 0.0])])
    cert = spectral_radius(sys, iqcs)
    calls = []

    def counting(pb):
        calls.append(pb)
        return solve(pb)

    outcome = build_witness(sys, iqcs, rho=1.0, radius_cert=cert,
                            solver=counting)
    assert len(calls) == 1
    assert outcome.ok, outcome.reason


def test_trajectory_constant_mode():
    modes = scalar_modes(0.0)
    _, traj = mode_orbit(modes, 50)
    np.testing.assert_allclose(traj.states, np.ones((51, 1)), atol=1e-14)


def test_trajectory_isometry(rotation_witness):
    _, outcome = rotation_witness
    norms = np.linalg.norm(outcome.trajectory.states, axis=1)
    assert norms.max() - norms.min() <= 1e-12
    assert norms[0] > 0


def test_trajectory_norm_bound(constrained_witnesses):
    for _, _, outcome in constrained_witnesses:
        modes = outcome.modes
        bound = np.linalg.norm(modes.X, 2) * np.linalg.norm(modes.v)
        norms = np.linalg.norm(outcome.trajectory.states, axis=1)
        assert norms.max() <= bound + 1e-9


def test_sum_lower_bound_single_group_is_zero():
    modes = scalar_modes(0.0)
    bounds = iqc_sum_lower_bound(modes)
    np.testing.assert_allclose(bounds, [0.0])


def test_sum_lower_bound_empty(rotation_witness):
    _, outcome = rotation_witness
    assert iqc_sum_lower_bound(outcome.modes).size == 0


def test_sum_lower_bound_brute_force(constrained_witnesses):
    for sys, iqcs, outcome in constrained_witnesses:
        sums = iqc_partial_sums(outcome.trajectory, iqcs)
        for bound, series in zip(outcome.report.iqc_lower_bounds, sums):
            assert series.min() >= bound - 1e-6


def test_feedback_gain_no_input(rotation_witness):
    _, outcome = rotation_witness
    K = feedback_gain(outcome.modes)
    assert K.shape == (0, 2)


def test_feedback_gain_scalar(feedback_witness):
    _, _, outcome = feedback_witness
    modes = outcome.modes
    K = feedback_gain(outcome.modes)
    np.testing.assert_allclose(K, modes.U / modes.X, atol=1e-10)
    np.testing.assert_allclose(np.abs(K), [[10.0]], rtol=1e-6)


def test_feedback_gain_rank_deficient_absent():
    F = np.eye(2)
    modes = WorstCaseModes(Q=0.5 * np.eye(2), d=2,
                           X=np.array([[1.0, 0.0], [0.0, 0.0]]),
                           U=np.array([[0.0, 1.0]]), F=F,
                           groups=tuple(eigen_group(F)), H=(),
                           v=np.array([1.0, 0.0]))
    assert feedback_gain(modes) is None


def test_hard_shift_minimum_at_start(constrained_witnesses):
    _, _, outcome = constrained_witnesses[0]
    assert outcome.report.hard_shift == 1


def test_hard_shift_decreasing_absent():
    modes = scalar_modes(-1.0)
    assert shift_of(SystemData(A=[[1.0]]), modes,
                    IqcSet.from_matrices([[[-1.0]]])) is None


def test_hard_shift_matches_brute_force():
    F = rotation(0.1)
    M = np.diag([-0.99, 1.01])
    modes = WorstCaseModes(Q=0.5 * np.eye(2), d=2, X=np.eye(2),
                           U=np.zeros((0, 2)), F=F,
                           groups=tuple(eigen_group(F)), H=(M,),
                           v=np.array([1.0, 0.0]))
    iqcs = IqcSet.from_matrices([M])
    shift = shift_of(SystemData(A=F), modes, iqcs)
    _, traj = mode_orbit(modes, 10_000)
    (sums,) = iqc_partial_sums(traj, iqcs)
    assert shift == int(np.argmin(sums)) + 1
    assert shift == 8


def test_hard_shift_ignores_rounding_of_an_equality_witness():
    """Gradient descent at step 2/L meets its sector constraint with
    equality, so its per-step constraint forms are zero up to rounding; a
    rounding-level change of the witness rows X or U must not move the
    shift."""
    L = 10.0
    M = np.array([[-L, 0.5 * (1.0 + L)], [0.5 * (1.0 + L), -1.0]])
    sys, iqcs = SystemData(A=[[1.0]], B=[[-2.0 / L]]), IqcSet.from_matrices([M])
    outcome = build_witness(sys, iqcs, rho=1.0)
    assert outcome.ok
    modes, shifts = outcome.modes, set()
    for k in range(-40, 41, 5):
        scale = 1.0 + k * 1e-16
        shifts.add(shift_of(sys, replace(modes, X=modes.X * scale), iqcs))
        shifts.add(shift_of(sys, replace(modes, U=modes.U * scale), iqcs))
    assert shifts == {outcome.report.hard_shift} == {1}


def test_pointwise_flags(feedback_witness, rotation_witness):
    sys, iqcs, outcome = feedback_witness
    assert pointwise_of(sys, outcome.modes, iqcs) is True
    rot_sys, rot_outcome = rotation_witness
    assert pointwise_of(rot_sys, rot_outcome.modes, IqcSet.empty(2)) is False
    assert pointwise_of(SystemData(A=[[1.0]]), scalar_modes(0.0),
                        IqcSet.from_matrices([[[0.0]]])) is True


def test_witness_modes_invariants(rotation_witness, constrained_witnesses,
                                  feedback_witness):
    cases = [(rotation_witness[0], IqcSet.empty(2), rotation_witness[1])]
    cases += list(constrained_witnesses)
    cases.append(feedback_witness)
    for sys, iqcs, outcome in cases:
        modes = outcome.modes
        stacked = np.vstack([modes.X, modes.U])
        assert np.linalg.norm(modes.Q - stacked @ stacked.T, 2) <= 1e-6
        B = sys.B if sys.m else np.zeros((sys.n, 0))
        residual = sys.A @ modes.X + B @ modes.U - modes.X @ modes.F
        assert np.linalg.norm(residual, 2) <= 1e-6
        assert np.linalg.norm(modes.F.T @ modes.F - np.eye(modes.d), 2) <= 1e-8
        for H in modes.H:
            assert np.trace(H) >= -1e-6
        assert np.linalg.norm(modes.X, 2) > 0
        thetas = np.array(sorted(g.theta for g in modes.groups))
        if thetas.size > 1:
            assert np.diff(thetas).min() > 1e-6
        assert np.linalg.norm(modes.X @ modes.v) > 1e-8


def test_witness_trajectory_soundness(constrained_witnesses):
    for sys, iqcs, outcome in constrained_witnesses:
        traj = outcome.trajectory
        states = traj.states
        for k in range(len(traj) - 1):
            step = states[k + 1] - sys.A @ states[k]
            if sys.m:
                step = step - sys.B @ traj.inputs[k]
            norm = np.linalg.norm(states[k])
            assert np.linalg.norm(step) <= 1e-8 * (1.0 + norm)


def test_orthogonal_powers_revisit_identity(rotation_witness,
                                            constrained_witnesses):
    outcomes = [rotation_witness[1]] + [o for _, _, o in constrained_witnesses]
    for outcome in outcomes:
        F = outcome.modes.F
        eye = np.eye(F.shape[0])
        power = eye.copy()
        best = np.inf
        for _ in range(100_000):
            power = power @ F
            best = min(best, np.linalg.norm(power - eye, 2))
            if best <= 0.05:
                break
        assert best <= 0.2


def test_growth_mode_above_one():
    sys = SystemData(A=1.5 * rotation(np.pi / 3))
    outcome = build_witness(sys, IqcSet.empty(2), rho=1.5)
    assert outcome.ok, outcome.reason
    norms = np.linalg.norm(outcome.trajectory.states, axis=1)
    assert norms[-1] > 10 * norms[0]


def test_growth_orbit_overflow_stops_at_trajectory_assembly():
    """A horizon whose weights would overflow is shortened, not refused."""
    sys = SystemData(A=[[2.0]])
    outcome = build_witness(sys, rho=2.0)
    assert outcome.ok, outcome.reason
    assert len(outcome.trajectory) == 432     # floor(300 / ln 2)
    assert "horizon shortened to 432 steps" in outcome.check.notes[0]
    result = check_witness(sys, outcome.report, IqcSet.empty(1))
    assert result.ok
    assert result.steps == 432


def test_growth_orbit_overflow_warns_nothing():
    """The shortened growth orbit never forms an overflowing weight."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = build_witness(SystemData(A=[[2.0]]), rho=2.0)
    assert outcome.ok


def test_huge_radius_keeps_its_own_search_within_the_rho_max_limit():
    """Searching up to 2 * rho would exceed the rho_max limit; the search
    stops at the limit and the precheck reports the mismatch."""
    outcome = build_witness(SystemData(A=[[2.0]]), rho=1e60)
    assert not outcome.ok
    assert outcome.stage == "radius-precheck"
    assert "does not match" in outcome.reason


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       horizon=st.integers(0, 10**4), extra=st.integers(1, 10**4))
def test_mode_orbit_matches_the_step_loop(seed, d, horizon, extra):
    rng = np.random.default_rng(seed)
    F, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v = rng.standard_normal(d)
    modes = WorstCaseModes(Q=np.eye(d), d=d, X=np.eye(d), U=np.zeros((0, d)),
                           F=F, groups=(), H=(), v=v)
    Z, _ = mode_orbit(modes, horizon)

    reference = np.empty_like(Z)
    z = v.copy()
    for k in range(horizon + 1):
        reference[k] = z
        z = F @ z
    tol = 1e-11 * np.linalg.norm(v)
    assert np.abs(Z - reference).max() <= tol
    assert np.abs(Z[1:] - Z[:-1] @ F.T).max(initial=0.0) <= tol

    longer, _ = mode_orbit(modes, horizon + extra)
    assert longer[:horizon + 1].tobytes() == Z.tobytes()


def test_growth_orbit_with_finite_states_beyond_norm_range_is_kept():
    """A rate-5 orbit is cut where its squared norms still fit a float."""
    sys = SystemData(A=5.0 * rotation(np.pi / 3))
    outcome = build_witness(sys, IqcSet.empty(2), rho=5.0)
    assert outcome.ok, outcome.reason
    states = outcome.trajectory.states
    assert len(outcome.trajectory) == 186     # floor(300 / ln 5)
    assert np.isfinite(states).all()
    assert np.isfinite(np.einsum("ki,ki->k", states, states)).all()
    assert check_witness(sys, outcome.report, IqcSet.empty(2)).ok


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       growth=st.floats(1.0, 1e6, exclude_min=True),
       horizon=st.integers(0, 10**5))
def test_growth_orbit_rows_and_squared_norms_stay_finite(seed, d, growth,
                                                         horizon):
    rng = np.random.default_rng(seed)
    F, _ = np.linalg.qr(rng.standard_normal((d, d)))
    modes = WorstCaseModes(Q=np.eye(d), d=d, X=np.eye(d), U=np.eye(d),
                           F=F, groups=(), H=(), v=rng.standard_normal(d))
    cap = max(int(np.floor(300.0 / np.log(growth))), 1)
    Z, traj = mode_orbit(modes, horizon, growth)
    assert len(Z) == min(horizon, cap) + 1
    for rows in (traj.states, traj.inputs):
        assert np.isfinite(rows).all()
        assert np.isfinite(np.einsum("ki,ki->k", rows, rows)).all()


def test_rejects_rank_deficient_input_matrix():
    sys = SystemData(A=rotation(1.0), B=[[1.0, 1.0], [1.0, 1.0]])
    iqcs = IqcSet.from_matrices([np.diag([1.0, 0.0, 0.0, 0.0])], dim=4)
    outcome = build_witness(sys, iqcs, rho=1.0)
    assert not outcome.ok
    assert outcome.stage == "radius-precheck"
    assert "full column rank" in outcome.reason


def test_rejects_contractive_system():
    outcome = build_witness(SystemData(A=[[0.5]]), IqcSet.empty(1), rho=1.0)
    assert not outcome.ok
    assert outcome.stage == "radius-precheck"


def test_radius_precheck_is_the_same_with_a_stored_certificate():
    # A Jordan block: radius 1, not attained.  At rho = 1 attainment
    # fails; at rho = 1.5 the radius does not match.
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    cert = spectral_radius(sys)
    for rho in (1.0, 1.5):
        fresh = build_witness(sys, rho=rho)
        stored = build_witness(sys, rho=rho, radius_cert=cert)
        assert fresh.stage == stored.stage == "radius-precheck"
        assert fresh.reason == stored.reason


def test_below_one_is_the_rule_classify_uses():
    """A radius ``classify`` calls asymptotically stable gets no witness,
    even inside the band around one that ``build_witness`` counts as one:
    a rotation whose certificate claims 1 - 5e-5 is refused, and one that
    claims 1 + 5e-5 still gets its witness."""
    sys = SystemData(A=rotation(1.0))
    cert = spectral_radius(sys)
    below, above = (replace(cert, rho=1.0 + s * 5e-5) for s in (-1.0, 1.0))
    assert worstcase._below_one(below.rho, 1e-6)
    outcome = build_witness(sys, rho=below.rho, radius_cert=below)
    assert (outcome.stage, outcome.reason) == (
        "radius-precheck",
        "radius 0.99995 is below one; no non-vanishing witness exists")
    assert build_witness(sys, rho=above.rho, radius_cert=above).ok


def _raise_stub(*args, **kwargs):
    raise ValueError("stub failure")


_CLAIMED_BOUNDARY = types.SimpleNamespace(rho=1.0, attained=True)

# (system, iqcs, rho, radius_cert, monkeypatched target and value, stage,
#  reason, whether the outcome carries modes)
_STAGE_CASES = [
    (SystemData(A=[[1.0]], B=[[0.0]]), None, 1.0, None, None,
     "radius-precheck",
     "input matrix is not full column rank, which the factorization "
     "argument requires", False),
    (SystemData(A=[[2.0]]), IqcSet.from_matrices([[[1.0]]], dim=1), 2.0,
     None, None, "radius-precheck",
     "witness construction needs radius one: constraint partial sums do "
     "not transfer across the geometric growth weighting", False),
    (SystemData(A=rotation(1.0)), None, 1.5, None, None, "radius-precheck",
     "computed radius (1) does not match the requested 1.5", False),
    (SystemData(A=[[1.0]]), IqcSet.from_matrices([[[1.0]], [[-1.0]]], dim=1),
     1.0, _CLAIMED_BOUNDARY, None, "dual-extraction",
     "no constraint-compatible stationary dual matrix: "
     "trace(Q M_1) = -1.000e+00", False),
    (SystemData(A=np.kron(np.eye(2), rotation(0.8))),
     IqcSet.from_matrices([np.diag([1.0, 0.0, 0.0, 0.0])]), 1.0, None,
     ("iqcradius.worstcase._eigen_search", _raise_stub),
     "technical-condition",
     "sign condition not certified (distinct-eigenvalues: an eigenvalue of "
     "F is repeated; eigenvalue-search: stub failure)", True),
    (SystemData(A=rotation(1.0)), None, 1.0, None,
     ("iqcradius.worstcase.rank_factor", _raise_stub), "rank-factorization",
     "stub failure", False),
    (SystemData(A=rotation(1.0)), None, 1.0, None,
     ("iqcradius.worstcase.recover_orthogonal_factor",
      lambda X, G: np.zeros((X.shape[1],) * 2)),
     "orthogonal-factor",
     "dual witness inconsistent: the stationary factor misses an "
     "orthogonal transition by 1.000e+00", False),
    (SystemData(A=rotation(1.0)), None, 1.0, None,
     ("iqcradius.worstcase.eigen_group", _raise_stub), "eigen-grouping",
     "stub failure", False),
    (SystemData(A=rotation(1.0)), None, 1.0, None,
     ("iqcradius.verify.DYNAMICS_RTOL", -1.0), "trajectory-assembly",
     "witness re-check failed: dynamics", True),
]


@pytest.mark.parametrize("sys, iqcs, rho, cert, stub, stage, reason, has_modes",
                         _STAGE_CASES, ids=[c[5] for c in _STAGE_CASES])
def test_every_failure_stage_and_reason(monkeypatch, sys, iqcs, rho, cert,
                                        stub, stage, reason, has_modes):
    """Each stage of ``build_witness`` fails under its own name with its
    own reason; the four stages no public input reached are stubbed, and
    trajectory assembly fails by a ``verify`` tolerance no orbit meets."""
    if stub is not None:
        monkeypatch.setattr(*stub)
    outcome = build_witness(sys, iqcs, rho=rho, radius_cert=cert)
    assert not outcome.ok
    assert (outcome.stage, outcome.reason) == (stage, reason)
    assert (outcome.modes is not None) == has_modes
    assert outcome.report is None and outcome.trajectory is None
    assert outcome.check is None


def test_stages_name_every_outcome():
    """``STAGES``, the names ``verify`` accepts for a report's ``stage``,
    are the failure stages pinned above and "complete"."""
    assert set(worstcase.STAGES) == {c[5] for c in _STAGE_CASES} | {"complete"}
