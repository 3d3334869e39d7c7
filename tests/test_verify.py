"""Tests for independent certificate and witness re-verification.

The descent checks replay certified instances with randomized
constraint-respecting inputs; the witness checks replay recorded
reports, including deliberately corrupted ones that must fail.
"""

from dataclasses import replace

import numpy as np
import pytest

import iqcradius.model
from iqcradius.model import (
    DimensionMismatchError,
    IqcSet,
    SystemData,
    Trajectory,
    simulate,
)
from iqcradius.radius import classify, spectral_radius
from iqcradius.verify import (
    CHECK_HORIZON,
    check_witness,
    lyapunov_trace,
    strengthen_certificate,
    trajectory_diagnostics,
)
from iqcradius.worstcase import (
    WitnessReport,
    WorstCaseModes,
    build_witness,
    eigen_group,
    mode_orbit,
)

SECTOR = [[-10.0, 5.5], [5.5, -1.0]]


def gradient_instance(alpha):
    return SystemData(A=[[1.0]], B=[[-alpha]]), IqcSet.from_matrices([SECTOR])


def sector_trajectory(sys, steps, seed):
    """Drive the loop with gains sampled inside the certified sector."""
    rng = np.random.default_rng(seed)
    x = np.array([1.0])
    states, inputs = [x.copy()], []
    for _ in range(steps):
        u = np.array([rng.uniform(1.0, 10.0) * x[0]])
        inputs.append(u)
        x = sys.A @ x + sys.B @ u
        states.append(x.copy())
    return Trajectory(states=np.array(states), inputs=np.array(inputs))


def flip_witness():
    """Hand-built witness for A=0, B=1: the orbit alternates x and u."""
    F = np.array([[0.0, 1.0], [1.0, 0.0]])
    modes = WorstCaseModes(
        Q=0.5 * np.eye(2), d=2,
        X=np.array([[1.0, 0.0]]) / np.sqrt(2.0),
        U=np.array([[0.0, 1.0]]) / np.sqrt(2.0),
        F=F, groups=tuple(eigen_group(F)), H=(), v=np.array([1.0, 0.0]))
    report = WitnessReport(modes=modes, gain=None, iqc_lower_bounds=np.zeros(0),
                           hard_shift=None, pointwise=False, growth=1.0,
                           notes=())
    return SystemData(A=[[0.0]], B=[[1.0]]), report


def test_zero_trajectory_vanishes():
    sys = SystemData(A=[[0.5]])
    cert = spectral_radius(sys, IqcSet.empty(1))
    trace = lyapunov_trace(sys, simulate(sys, [0.0], 5), cert)
    np.testing.assert_array_equal(trace.values, np.zeros(6))


def test_contractive_scalar_trace():
    sys = SystemData(A=[[0.5]])
    cert = replace(spectral_radius(sys, IqcSet.empty(1)), P=np.array([[1.0]]))
    trace = lyapunov_trace(sys, simulate(sys, [1.0], 12), cert)
    k = np.arange(13)
    np.testing.assert_allclose(trace.values, 0.25 ** k, rtol=1e-12)
    np.testing.assert_allclose(trace.differences, 0.25 ** k[:-1] * (0.25 - 1.0),
                               rtol=1e-12)
    assert trace.identity_ok


def test_difference_identity_random():
    rng = np.random.default_rng(9)
    sys, iqcs = gradient_instance(0.13)
    cert = spectral_radius(sys, iqcs)
    for seed in range(5):
        traj = sector_trajectory(sys, 40, seed)
        loaded = replace(cert, P=np.array([[rng.uniform(0.5, 3.0)]]),
                         lambdas=rng.uniform(0.0, 2.0, size=1))
        trace = lyapunov_trace(sys, traj, loaded, iqcs)
        assert trace.identity_ok
        assert trace.identity_error <= 1e-9


def test_descent_for_certified_contraction():
    sys, iqcs = gradient_instance(2.0 / 11.0)
    cert = spectral_radius(sys, iqcs)
    assert cert.rho < 1
    traj = sector_trajectory(sys, 60, seed=2)
    trace = lyapunov_trace(sys, traj, cert, iqcs)
    assert max(trace.differences) <= 1e-8


def test_strengthened_descent():
    sys, iqcs = gradient_instance(2.0 / 11.0)
    strong = strengthen_certificate(spectral_radius(sys, iqcs))
    traj = sector_trajectory(sys, 60, seed=3)
    trace = lyapunov_trace(sys, traj, strong, iqcs)
    for dv, x in zip(trace.differences, traj.states[:-1]):
        gap = float(x @ x)
        assert dv <= -gap + 1e-8 * (1.0 + gap)


def test_strengthen_requires_contraction():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    cert = spectral_radius(sys, IqcSet.empty(2))
    with pytest.raises(ValueError, match="below one"):
        strengthen_certificate(cert)


@pytest.mark.parametrize("missing", [{"P": None, "rho_cert": None},
                                     {"lambdas": None}, {"rho_cert": None}],
                         ids=["P", "lambdas", "rho_cert"])
def test_certificate_without_p_or_multipliers_is_refused(missing):
    """Neither re-check substitutes a rate or zero multipliers for a
    missing part; both refuse with ``ValueError``.  ``lyapunov_trace``
    evaluates at rate one, so a missing rate leaves it working."""
    sys, iqcs = gradient_instance(2.0 / 11.0)
    cert = replace(spectral_radius(sys, iqcs), **missing)
    with pytest.raises(ValueError, match="carries no"):
        strengthen_certificate(cert)
    traj = sector_trajectory(sys, 5, seed=0)
    if missing == {"rho_cert": None}:
        assert lyapunov_trace(sys, traj, cert, iqcs).identity_ok
        return
    with pytest.raises(ValueError, match="carries no"):
        lyapunov_trace(sys, traj, cert, iqcs)


def test_diagnostics_flag_growth():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    verdict = classify(sys, IqcSet.empty(2))
    diag = trajectory_diagnostics(sys, verdict.trajectory)
    assert diag.dynamics_ok
    assert diag.growing

    stable = SystemData(A=[[0.5]])
    calm = trajectory_diagnostics(stable, simulate(stable, [1.0], 50))
    assert calm.dynamics_ok
    assert not calm.growing


def test_diagnostics_of_huge_finite_states_warn_nothing():
    """Norms past the float range are inf, silently, as in the residual."""
    sys = SystemData(A=[[1.0]])
    traj = Trajectory(states=[[1e200], [1e200]], inputs=np.zeros((1, 0)))
    diag = trajectory_diagnostics(sys, traj)
    assert diag.steps == 1
    assert not diag.growing


def test_diagnostics_of_a_zero_step_trajectory():
    sys = SystemData(A=[[1.0]])
    traj = Trajectory(states=[[1.0]], inputs=np.zeros((0, 0)))
    iqcs = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    diag = trajectory_diagnostics(sys, traj, iqcs)
    assert diag.steps == 0
    assert diag.dynamics_ok
    assert np.array_equal(diag.iqc_minima, [np.inf, np.inf])


def test_check_witness_computes_the_state_norms_once(monkeypatch):
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    outcome = build_witness(sys, IqcSet.empty(2), rho=1.0)
    _, traj = mode_orbit(outcome.report.modes, CHECK_HORIZON)
    seen = []
    row_norms = iqcradius.model._row_norms

    def recording(Z):
        seen.append(Z.copy())
        return row_norms(Z)

    monkeypatch.setattr(iqcradius.model, "_row_norms", recording)
    monkeypatch.setattr("iqcradius.verify._row_norms", recording)
    assert check_witness(sys, outcome.report, IqcSet.empty(2)).ok
    states = [Z for Z in seen if len(Z) >= len(traj) and Z.shape[1] == traj.n
              and np.array_equal(Z, traj.states[:len(Z)])]
    assert len(states) == 1


def test_check_witness_rotation_passes():
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    outcome = build_witness(sys, IqcSet.empty(2), rho=1.0)
    result = check_witness(sys, outcome.report, IqcSet.empty(2))
    assert result.ok
    assert result.iqc_ok
    assert result.direction_norm > 0
    assert not result.growing


def test_check_witness_direction_corruption_fails():
    sys, report = flip_witness()
    assert check_witness(sys, report, IqcSet.empty(2)).ok
    bad_modes = replace(report.modes, v=np.array([0.0, 1.0]))
    bad = replace(report, modes=bad_modes)
    result = check_witness(sys, bad, IqcSet.empty(2))
    assert not result.ok
    assert "null space" in result.condition_defect
    assert result.direction_norm == pytest.approx(0.0, abs=1e-12)


def test_check_witness_has_one_null_space_threshold():
    """A direction whose image ``Xv`` is positive but below the sign
    condition's threshold fails the re-check, as it fails ``verify``."""
    sys, report = flip_witness()
    tiny = replace(report, modes=replace(report.modes, v=np.array([1e-9, 1.0])))
    result = check_witness(sys, tiny, IqcSet.empty(2))
    assert 0.0 < result.direction_norm < 1e-8
    assert not result.ok
    assert result.failed == ("technical condition",)


def test_check_witness_gain_corruption_fails():
    sys = SystemData(A=[[1.0]], B=[[-0.2]])
    iqcs = IqcSet.from_matrices([SECTOR])
    outcome = build_witness(sys, iqcs, rho=1.0)
    assert check_witness(sys, outcome.report, iqcs).ok
    tampered = replace(outcome.report, gain=np.array([[5.0]]))
    result = check_witness(sys, tampered, iqcs)
    assert not result.ok
    assert not result.gain_ok


def test_check_witness_bounds_handshake():
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    outcome = build_witness(sys, IqcSet.empty(2), rho=1.0)
    with pytest.raises(DimensionMismatchError, match="bounds"):
        check_witness(sys, outcome.report, IqcSet.from_matrices([np.eye(2)]))


def test_check_witness_caps_growing_horizon():
    theta = np.pi / 3
    sys = SystemData(A=1.5 * np.array([[np.cos(theta), np.sin(theta)],
                                       [-np.sin(theta), np.cos(theta)]]))
    outcome = build_witness(sys, IqcSet.empty(2), rho=1.5)
    result = check_witness(sys, outcome.report, IqcSet.empty(2))
    assert result.ok
    assert result.growing
    assert result.steps < 10_000
    assert any("shortened" in note for note in result.notes)


@pytest.mark.parametrize("sys, iqcs, rho", [
    (SystemData(A=[[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]]),
     IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]]]), 1.0),
    (SystemData(A=1.5 * np.array([[np.cos(np.pi / 3), np.sin(np.pi / 3)],
                                  [-np.sin(np.pi / 3), np.cos(np.pi / 3)]])),
     IqcSet.empty(2), 1.5),
], ids=["boundary-with-iqc", "growth"])
def test_check_witness_orbit_extends_the_witness_trajectory(sys, iqcs, rho):
    """The verifier's longer orbit starts with the pipeline's, bit for bit."""
    outcome = build_witness(sys, iqcs, rho=rho, horizon=300)
    assert outcome.ok, outcome.reason
    report = outcome.report
    assert report.growth == rho
    Z, longer = mode_orbit(report.modes, 500, report.growth)
    traj = outcome.trajectory
    assert Z.shape == (501, report.modes.d)
    assert longer.states[:301].tobytes() == traj.states.tobytes()
    assert longer.inputs[:300].tobytes() == traj.inputs.tobytes()
    assert check_witness(sys, report, iqcs).ok
