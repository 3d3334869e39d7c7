"""Tests for the core types and the Lyapunov-difference algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iqcradius.model import (
    DimensionMismatchError,
    IqcSet,
    SystemData,
    Trajectory,
    _row_forms,
    _row_norms,
    iqc_partial_sums,
    lyapunov_adjoint,
    lyapunov_operator,
    quadratic_form,
    simulate,
)


@pytest.mark.parametrize("B", [None, np.zeros((0, 1))])
def test_system_without_states_is_rejected(B):
    with pytest.raises(DimensionMismatchError):
        SystemData(A=np.zeros((0, 0)), B=B)


def test_lyapunov_operator_scalar_zero_state_matrix():
    sys = SystemData(A=[[0.0]])
    out = lyapunov_operator(np.array([[1.0]]), sys, rho=1.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(-1.0, abs=1e-15)


def test_lyapunov_operator_identity_is_zero():
    sys = SystemData(A=np.eye(2))
    out = lyapunov_operator(np.eye(2), sys, rho=1.0)
    assert np.allclose(out, np.zeros((2, 2)), atol=1e-15)


def test_lyapunov_operator_shear_hand_value():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    out = lyapunov_operator(np.eye(2), sys, rho=1.0)
    assert np.allclose(out, [[0.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_lyapunov_operator_exactly_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 3))
        sys = SystemData(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
        P = rng.normal(size=(n, n))
        P = P + P.T
        out = lyapunov_operator(P, sys, rho=float(rng.uniform(0.1, 2.0)))
        assert np.array_equal(out, out.T)


def test_lyapunov_operator_rejects_nonpositive_rate():
    sys = SystemData(A=[[0.5]])
    with pytest.raises(ValueError):
        lyapunov_operator(np.eye(1), sys, rho=0.0)


def test_lyapunov_adjoint_scalar_marginal():
    sys = SystemData(A=[[1.0]])
    out = lyapunov_adjoint(np.array([[1.0]]), sys)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_lyapunov_adjoint_with_input_hand_value():
    sys = SystemData(A=[[0.0]], B=[[1.0]])
    out = lyapunov_adjoint(np.eye(2), sys)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_adjoint_identity_across_dimensions():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for m in range(0, 4):
            for _ in range(5):
                sys = SystemData(A=rng.normal(size=(n, n)),
                                 B=rng.normal(size=(n, m)))
                P = rng.normal(size=(n, n))
                P = P + P.T
                Q = rng.normal(size=(n + m, n + m))
                Q = Q + Q.T
                lhs = float(np.tensordot(Q, lyapunov_operator(P, sys)))
                rhs = float(np.tensordot(lyapunov_adjoint(Q, sys), P))
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_iqc_partial_sums_zero_trajectory():
    traj = Trajectory(states=np.zeros((6, 2)), inputs=np.zeros((5, 1)))
    iqcs = IqcSet.from_matrices([np.eye(3), -np.eye(3)])
    sums = iqc_partial_sums(traj, iqcs)
    assert len(sums) == 2
    for s in sums:
        assert np.allclose(s, 0.0, atol=1e-15)


def test_iqc_partial_sums_constant_state_counts_steps():
    states = np.ones((8, 1))
    traj = Trajectory(states=states, inputs=np.zeros((7, 0)))
    iqcs = IqcSet.from_matrices([[[-1.0]], [[1.0]]])
    neg, pos = iqc_partial_sums(traj, iqcs)
    assert np.allclose(neg, -np.arange(1, 8, dtype=float))
    assert np.allclose(pos, np.arange(1, 8, dtype=float))


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 50),
       d=st.integers(1, 6), exponent=st.integers(-100, 100))
def test_row_kernels_match_the_reference_formulas(seed, rows, d, exponent):
    """The orbit-row kernels agree with the three-operand einsum and the
    axis norm they replaced, up to the order of the sums."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((rows, d)) * 10.0 ** exponent
    M = rng.standard_normal((d, d))
    M = M + M.T

    forms = _row_forms(Z, M)
    reference = np.einsum("ki,ij,kj->k", Z, M, Z)
    scale = np.einsum("ki,ki->k", np.abs(Z) @ np.abs(M), np.abs(Z))
    assert forms.shape == (rows,)
    assert np.all(np.abs(forms - reference) <= 1e-12 * scale)

    norms = _row_norms(Z)
    reference = np.linalg.norm(Z, axis=1)
    assert norms.shape == (rows,)
    assert np.all(np.abs(norms - reference) <= 1e-12 * reference)


def test_simulate_defective_boundary_mode_grows_linearly():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    traj = simulate(sys, [1.0, 1.0], 50)
    for k in range(51):
        assert np.allclose(traj.states[k], [1.0 + k, 1.0], atol=1e-12)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.all(np.diff(norms) > 0)


def test_simulate_scalar_decay():
    sys = SystemData(A=[[0.5]])
    traj = simulate(sys, [1.0], 20)
    assert np.allclose(traj.states[:, 0], 0.5 ** np.arange(21), atol=1e-15)


def test_simulate_forced_step_response():
    sys = SystemData(A=[[0.0]], B=[[1.0]])
    traj = simulate(sys, [0.0], np.ones((10, 1)))
    assert traj.states[0, 0] == 0.0
    assert np.allclose(traj.states[1:, 0], 1.0, atol=1e-15)


def test_simulate_residual_is_rounding_level():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 3))
        sys = SystemData(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
        traj = simulate(sys, rng.normal(size=n), rng.normal(size=(30, m)))
        pred = traj.states[:-1] @ sys.A.T + traj.inputs @ sys.B.T
        err = np.linalg.norm(traj.states[1:] - pred, axis=1)
        norms = np.linalg.norm(traj.states[:-1], axis=1)
        assert np.all(err <= 1e-12 * (1.0 + norms))


def test_zero_input_dimension_round_trips():
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    assert sys.m == 0
    assert sys.B.shape == (2, 0)
    traj = simulate(sys, [1.0, 0.0], 12)
    assert traj.inputs.shape == (12, 0)
    iqcs = IqcSet.from_matrices([np.eye(2)])
    (s,) = iqc_partial_sums(traj, iqcs)
    assert s[-1] == pytest.approx(12.0, rel=1e-12)
    L = lyapunov_operator(np.eye(2), sys)
    assert L.shape == (2, 2)
    adj = lyapunov_adjoint(np.eye(2), sys)
    assert adj.shape == (2, 2)
    assert quadratic_form(np.eye(2), traj.states[0]) == pytest.approx(1.0)


def test_trajectory_length_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Trajectory(states=np.zeros((3, 1)), inputs=np.zeros((3, 1)))


def test_system_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatchError):
        SystemData(A=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SystemData(A=[[np.nan]])
    with pytest.raises(DimensionMismatchError, match="B"):
        SystemData(A=np.eye(2), B=np.zeros((3, 1)))


def test_iqc_set_dimension_checks():
    iqcs = IqcSet.from_matrices([np.eye(3)])
    sys = SystemData(A=np.eye(2), B=np.zeros((2, 1)))
    iqcs.check_matches(sys)
    small = SystemData(A=np.eye(2))
    with pytest.raises(DimensionMismatchError):
        iqcs.check_matches(small)
    with pytest.raises(DimensionMismatchError):
        IqcSet.from_matrices([np.eye(3), np.eye(2)])
    with pytest.raises(ValueError):
        IqcSet.from_matrices([])


def test_asymmetric_constraint_matrix_warns_and_symmetrizes():
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.warns(UserWarning):
        iqcs = IqcSet.from_matrices([M])
    assert np.allclose(iqcs.entries[0], [[1.0, 0.5], [0.5, 1.0]])


def test_types_are_immutable():
    sys = SystemData(A=np.eye(2))
    with pytest.raises(ValueError):
        sys.A[0, 0] = 5.0
    traj = simulate(sys, [1.0, 0.0], 3)
    with pytest.raises(ValueError):
        traj.states[0, 0] = 5.0
