"""Tests for the bisection radius, attainment, and classification."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcradius import radius, sdp_engine
from iqcradius.model import IqcSet, SystemData
from iqcradius.radius import (
    attainment_check,
    classify,
    exponential_rate_certificate,
    margin_matrix,
    spectral_radius,
)
from iqcradius.sdp_engine import (
    TRACE_CAP,
    SdpSolution,
    dual_feasibility_margin,
    margin_point,
    solve_margin_primal,
)


def sector_constraint(m_f: float, L: float) -> list:
    """Quadratic form that is nonnegative when u lies in the sector
    between the lines u = m_f*x and u = L*x."""
    return [[-m_f * L, (m_f + L) / 2.0], [(m_f + L) / 2.0, -1.0]]


def gradient_instance(alpha: float):
    sys = SystemData(A=[[1.0]], B=[[-alpha]])
    iqcs = IqcSet.from_matrices([sector_constraint(1.0, 10.0)])
    return sys, iqcs


def test_radius_scalar_matches_eigenvalue():
    cert = spectral_radius(SystemData(A=[[0.5]]), IqcSet.empty(1))
    assert cert.ok
    assert cert.rho == pytest.approx(0.5, abs=1e-6)
    assert cert.attained


def test_radius_defective_boundary_not_attained():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    cert = spectral_radius(sys, IqcSet.empty(2))
    assert cert.rho == pytest.approx(1.0, abs=1e-6)
    assert not cert.attained


def test_radius_gradient_descent_instance():
    sys, iqcs = gradient_instance(2.0 / 11.0)
    cert = spectral_radius(sys, iqcs)
    assert cert.rho == pytest.approx(9.0 / 11.0, abs=1e-4)
    assert cert.attained


def test_radius_matches_eigenvalues_on_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n))
        cert = spectral_radius(SystemData(A=A), IqcSet.empty(n))
        oracle = float(np.max(np.abs(np.linalg.eigvals(A))))
        assert abs(cert.rho - oracle) <= 1e-5


def test_monotone_feasibility_above_the_radius():
    sys, iqcs = gradient_instance(2.0 / 11.0)
    cert = spectral_radius(sys, iqcs)
    for off in (0.01, 0.05, 0.1, 0.5, 1.0):
        res = solve_margin_primal(sys, iqcs, cert.rho + off)
        assert res.margin_check < 0


def test_certificate_revalidates_by_eigenvalues():
    cases = [
        gradient_instance(2.0 / 11.0),
        (SystemData(A=[[0.5]]), IqcSet.empty(1)),
        (SystemData(A=[[0.0, 1.0], [-1.0, 0.0]]), IqcSet.empty(2)),
    ]
    for sys, iqcs in cases:
        cert = spectral_radius(sys, iqcs)
        assert cert.P is not None
        scale = sys.scale() + iqcs.scale()
        H = margin_matrix(sys, iqcs, cert.rho_cert, cert.P, cert.lambdas)
        assert float(np.linalg.eigvalsh(H)[-1]) <= 1e-6 * scale
        assert float(np.linalg.eigvalsh(cert.P)[0]) >= 1.0 - 1e-6
        assert np.all(cert.lambdas >= 0)
        assert cert.bracket[0] <= cert.rho <= cert.bracket[1]


def test_attainment_boundary_cases():
    pm = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    attained, _ = attainment_check(SystemData(A=[[1.0]]), pm, 1.0)
    assert attained
    attained, _ = attainment_check(
        SystemData(A=[[1.0, 1.0], [0.0, 1.0]]), IqcSet.empty(2), 1.0)
    assert not attained
    attained, _ = attainment_check(SystemData(A=[[0.0]]), IqcSet.empty(1), 1.0)
    assert attained


def test_no_certificate_sentinel_for_unweighted_input():
    # With an input but no constraint weighting it, the (2,2) block of
    # the inequality is B'PB > 0, so no rate admits a certificate.
    sys = SystemData(A=[[0.5]], B=[[1.0]])
    cert = spectral_radius(sys, IqcSet.empty(2), rho_max=50.0)
    assert cert.status == "no-certificate"
    assert np.isinf(cert.rho)
    assert not cert.attained


def test_rho_max_ceiling_applies_to_eigenvalue_shortcut():
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    cert = spectral_radius(sys, IqcSet.empty(2), rho_max=0.5)
    assert cert.status == "no-certificate"
    assert np.isinf(cert.rho)


def test_classify_stable_scalar():
    verdict = classify(SystemData(A=[[0.5]]), IqcSet.empty(1))
    assert verdict.classification == "asymptotically-stable"


def test_classify_defective_boundary_inconclusive_with_diagnostic():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    verdict = classify(sys, IqcSet.empty(2))
    assert verdict.classification == "inconclusive"
    assert verdict.trajectory is not None
    norms = np.linalg.norm(verdict.trajectory.states, axis=1)
    assert norms[-1] > 10.0 * norms[0]
    assert any("not attained" in r for r in verdict.reasons)
    assert any("grow" in r for r in verdict.reasons)


def test_classify_plane_rotation_bounded_with_witness():
    sys = SystemData(A=[[0.0, 1.0], [-1.0, 0.0]])
    verdict = classify(sys, IqcSet.empty(2))
    assert verdict.classification == "bounded"
    assert verdict.trajectory is not None
    norms = np.linalg.norm(verdict.trajectory.states, axis=1)
    assert norms.max() - norms.min() <= 1e-9
    assert norms.min() > 0


def test_classify_attaches_only_an_accepted_witness(monkeypatch):
    """A witness the re-check refuses is not attached to the verdict."""
    monkeypatch.setattr("iqcradius.verify.NORM_DRIFT_TOL", -1.0)
    verdict = classify(SystemData(A=[[0.0, 1.0], [-1.0, 0.0]]), IqcSet.empty(2))
    assert verdict.classification == "bounded"
    assert verdict.trajectory is None
    assert verdict.reasons == ("no worst-case witness: witness re-check "
                               "failed: norm drift",)


def test_classify_opposite_sign_pair_certifies_any_rate():
    # Weighting -M makes the rate inequality feasible at every rate, so
    # the computed radius is zero and the verdict is stability; the
    # constraints admit only the zero trajectory, so the verdict is
    # true for every admissible trajectory.
    pm = IqcSet.from_matrices([[[1.0]], [[-1.0]]])
    verdict = classify(SystemData(A=[[1.0]]), pm)
    assert verdict.classification == "asymptotically-stable"
    assert verdict.certificate.rho == pytest.approx(0.0, abs=1e-6)


def test_exponential_rate_scalar():
    res = exponential_rate_certificate(SystemData(A=[[0.5]]), IqcSet.empty(1))
    assert res.ok
    assert res.rho == pytest.approx(0.5, abs=1e-6)
    cert = res.certificate
    sys = SystemData(A=[[0.5 / res.rho]])
    H = margin_matrix(sys, IqcSet.empty(1), 1.0, cert.P, cert.lambdas)
    assert float(np.linalg.eigvalsh(H)[-1]) <= 1e-6


def test_exponential_rate_gradient_descent():
    sys, iqcs = gradient_instance(2.0 / 11.0)
    res = exponential_rate_certificate(sys, iqcs)
    assert res.ok
    assert res.rho == pytest.approx(9.0 / 11.0, abs=1e-4)


def test_exponential_rate_declined_without_attainment():
    sys = SystemData(A=[[1.0, 1.0], [0.0, 1.0]])
    res = exponential_rate_certificate(sys, IqcSet.empty(2))
    assert not res.ok
    assert "not attained" in res.reason


def test_spectral_radius_rejects_bad_options():
    sys = SystemData(A=[[0.5]])
    with pytest.raises(ValueError):
        spectral_radius(sys, IqcSet.empty(1), bisect_tol=0.0)
    with pytest.raises(ValueError):
        spectral_radius(sys, IqcSet.empty(1), rho_max=-1.0)
    for bad in ({"bisect_tol": np.nan}, {"rho_max": np.inf},
                {"rho_max": 1e80}):
        with pytest.raises(ValueError):
            spectral_radius(sys, IqcSet.empty(1), **bad)


def test_solver_hook_runs_every_solve(monkeypatch):
    sys, iqcs = gradient_instance(0.1)
    engine_solve = sdp_engine.solve
    default_calls, spy_calls = [], []

    def counting(calls):
        def run(problem):
            calls.append(problem)
            return engine_solve(problem)
        return run

    monkeypatch.setattr(sdp_engine, "solve", counting(default_calls))
    default = spectral_radius(sys, iqcs)
    n_default = len(default_calls)
    hooked = spectral_radius(sys, iqcs, solver=counting(spy_calls))
    assert hooked.rho == default.rho
    assert len(spy_calls) == n_default > 0
    # No solve went around the hook.
    assert len(default_calls) == n_default


def rotation_instance():
    c, s = np.cos(1.0), np.sin(1.0)
    sys = SystemData(A=[[c, -s], [s, c]])
    return sys, IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]]])


@pytest.mark.parametrize("case, radius_value", [
    (gradient_instance(2.0 / 11.0), 9.0 / 11.0),
    (rotation_instance(), 1.0),
])
def test_phase1_duals_certify_rates_above_the_radius(case, radius_value):
    sys, iqcs = case
    strict = 1e-8 * (sys.scale() + iqcs.scale())
    for off in (1e-3, 0.01, 0.1, 0.5):
        rho = radius_value + off
        probe = dual_feasibility_margin(sys, iqcs, rho)
        assert probe.t_star < 0
        p_min = float(np.linalg.eigvalsh(probe.solution.cone_duals["adjoint"])[0])
        cert = radius._dual_certificate(sys, iqcs, rho, probe)
        assert float(np.linalg.eigvalsh(cert.P)[0]) >= 1.0 - 1e-9
        assert np.all(cert.lambdas >= 0)
        H = margin_matrix(sys, iqcs, rho, cert.P, cert.lambdas)
        assert cert.margin_check == float(np.linalg.eigvalsh(H)[-1])
        assert cert.margin_check == pytest.approx(probe.t_star / p_min, rel=1e-4)
        assert radius._certified_above(sys, iqcs, cert, strict)


def _stored_certificate_attains(sys, iqcs, rate, cert) -> bool:
    """Whether the certificate of ``cert`` passes the attainment test at ``rate``."""
    unsolved = SdpSolution(status="optimal", objective=np.nan, values={},
                           residuals={}, iterations=0)
    point = margin_point(sys, iqcs, rate, cert.P, cert.lambdas, unsolved)
    return radius._attains(point, 1e-8 * (sys.scale() + iqcs.scale()))


def test_margin_program_solved_only_for_attainment_and_fallbacks(monkeypatch):
    sys, iqcs = gradient_instance(0.1)
    solves, margin_calls, failed_pairs = [], [], []
    in_attainment = []
    engine_solve = sdp_engine.solve
    real_margin = radius.solve_margin_primal
    real_attainment = radius.attainment_check
    real_dual_certificate = radius._dual_certificate

    def spy(problem):
        solves.append(problem)
        return engine_solve(problem)

    def margin(sys_, iqcs_, rho, *args, **kwargs):
        margin_calls.append((rho, bool(in_attainment)))
        return real_margin(sys_, iqcs_, rho, *args, **kwargs)

    def attainment(*args, **kwargs):
        in_attainment.append(True)
        try:
            return real_attainment(*args, **kwargs)
        finally:
            in_attainment.pop()

    def dual_certificate(sys_, iqcs_, rho, probe):
        cert = real_dual_certificate(sys_, iqcs_, rho, probe)
        strict = 1e-8 * (sys_.scale() + iqcs_.scale())
        if cert is None or not radius._certified_above(sys_, iqcs_, cert, strict):
            failed_pairs.append(rho)
        return cert

    monkeypatch.setattr(radius, "solve_margin_primal", margin)
    monkeypatch.setattr(radius, "attainment_check", attainment)
    monkeypatch.setattr(radius, "_dual_certificate", dual_certificate)
    cert = spectral_radius(sys, iqcs, solver=spy)
    assert cert.rho == pytest.approx(0.9, abs=1e-5)
    assert cert.attained
    assert len(solves) <= 12
    # The stored certificate already passes the attainment test at rho, so
    # no margin program is solved for attainment.
    assert not any(attained for _, attained in margin_calls)
    assert _stored_certificate_attains(sys, iqcs, cert.rho, cert)
    assert all(attained or rho in failed_pairs for rho, attained in margin_calls)


def _random_system(n: int, m: int, with_iqc: bool, seed: int):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, m))
    if not with_iqc or m == 0:
        return SystemData(A=A, B=B), IqcSet.empty(n + m)
    # Sector [0.5, 2] between u and y = c'x: (u - 0.5 y)(2 y - u) >= 0.
    T = np.zeros((2, n + 1))
    T[0, :n] = rng.normal(size=n)
    T[1, n] = 1.0
    S = np.array([[-1.0, 1.25], [1.25, -1.0]])
    return SystemData(A=A, B=B), IqcSet.from_matrices([T.T @ S @ T])


def _jordan_block():
    return SystemData(A=[[1.0, 1.0], [0.0, 1.0]]), IqcSet.empty(2)


@pytest.mark.parametrize("case, attained", [
    (_jordan_block(), False),
    (_random_system(2, 1, True, 1), True),
])
def test_attainment_solves_when_the_stored_certificate_fails(case, attained):
    sys, iqcs = case
    margin_solves = []

    def counting(problem):
        margin_solves.append("margin" in problem.compile().labels)
        return sdp_engine.solve(problem)

    cert = spectral_radius(sys, iqcs, solver=counting)
    rate = max(cert.rho, 1e-6)
    assert not _stored_certificate_attains(sys, iqcs, rate, cert)
    # The attainment check runs after the search, so it made the last solve.
    assert margin_solves[-1]
    assert cert.attained is attained
    assert cert.attained == attainment_check(sys, iqcs, rate)[0]


@pytest.mark.parametrize("case, margin_reused", [
    (gradient_instance(0.1), False),
    (_jordan_block(), True),    # fallback probes and the attainment check
])
def test_each_program_is_prepared_once_per_radius(monkeypatch, case, margin_reused):
    """The search and its attainment checks prepare the phase-I and the
    margin program at most once each, and solve them at every probed rate."""
    sys, iqcs = case
    prepared = {"phase1": 0, "margin": 0}
    solved = {"adjoint": [], "margin": []}

    def counting(name, prepare):
        def run(*args):
            prepared[name] += 1
            return prepare(*args)
        return run

    def solver(problem):
        comp = problem.compile()
        for label, seen in solved.items():
            if label in comp.labels:
                seen.append(problem)
        return sdp_engine.solve(problem)

    monkeypatch.setattr(sdp_engine, "_prepare_phase1",
                        counting("phase1", sdp_engine._prepare_phase1))
    monkeypatch.setattr(sdp_engine, "_prepare_margin",
                        counting("margin", sdp_engine._prepare_margin))
    cert = spectral_radius(sys, iqcs, solver=solver)
    assert len(solved["adjoint"]) == cert.probes > 1
    assert (len(solved["margin"]) > 1) is margin_reused
    assert prepared == {"phase1": 1, "margin": int(len(solved["margin"]) > 0)}
    # One problem per solve, each with its own coefficients.
    problems = solved["adjoint"] + solved["margin"]
    assert len({id(pb.compile().cols) for pb in problems}) == len(problems)


@pytest.mark.parametrize("alpha", [0.1, 2.0 / 11.0, 0.2])
def test_each_probe_projects_its_dual_once(monkeypatch, alpha):
    """A probe's phase-I Q is projected onto the unit-trace PSD matrices
    once, for its reach and every candidate rate alike."""
    sys, iqcs = gradient_instance(alpha)
    calls = []
    project = radius._unit_trace_psd

    def counting(Q):
        calls.append(Q)
        return project(Q)

    monkeypatch.setattr(radius, "_unit_trace_psd", counting)
    cert = spectral_radius(sys, iqcs)
    assert 0 < len(calls) <= cert.probes


@settings(max_examples=20)
@given(n=st.integers(1, 4), m=st.integers(0, 1), with_iqc=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_radius_certificate_property(n, m, with_iqc, seed):
    sys, iqcs = _random_system(n, m, with_iqc, seed)
    tol = 1e-6
    cert = spectral_radius(sys, iqcs, bisect_tol=tol)
    if cert.status != "ok":
        assert not np.isfinite(cert.rho)
        return
    lo, hi = cert.bracket
    assert lo <= cert.rho <= hi
    eigen_shortcut = len(iqcs) == 0 and (sys.m == 0 or not np.any(sys.B))
    if not eigen_shortcut:
        assert hi - lo <= tol
    assert cert.rho_cert == hi
    scale = sys.scale() + iqcs.scale()
    H = margin_matrix(sys, iqcs, cert.rho_cert, cert.P, cert.lambdas)
    assert float(np.linalg.eigvalsh(H)[-1]) <= -0.5e-8 * scale
    assert float(np.linalg.eigvalsh(cert.P)[0]) >= 1.0 - 1e-6
    assert np.all(cert.lambdas >= 0)
    assert float(np.trace(cert.P)) + float(np.sum(cert.lambdas)) <= TRACE_CAP


@pytest.mark.parametrize("case, exact", [
    *[(gradient_instance(a), max(abs(1.0 - a), abs(1.0 - 10.0 * a)))
      for a in (0.02, 0.05, 0.1, 2.0 / 11.0, 0.15, 0.19, 0.2)],
    (rotation_instance(), 1.0),
])
def test_closed_form_lies_in_the_bracket(case, exact):
    sys, iqcs = case
    cert = spectral_radius(sys, iqcs)
    lo, hi = cert.bracket
    assert lo <= exact <= hi
    assert cert.rho == pytest.approx(exact, abs=1e-6)


@settings(max_examples=20)
@given(n=st.integers(1, 4), m=st.integers(0, 1), with_iqc=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_bracket_ends_are_proven(n, m, with_iqc, seed):
    """The lower end is a rate at which a dual Q re-checked with slack >= 0
    (or 0, or the eigenvalue radius less bisect_tol without constraints),
    unless that proof stops short of the tolerance; the upper end is
    ``rho_cert``, where (P, lambda) re-verifies."""
    sys, iqcs = _random_system(n, m, with_iqc, seed)
    tol = 1e-6
    proven, kinds = [0.0], {}
    real_slack, real_probe = radius._lyapunov_dual_slack, radius._Search.probe

    def slack(sys_, rho, Qp):
        value = real_slack(sys_, rho, Qp)
        # A rate counts as proven only by the whole dual test: slack >= 0
        # and trace(Qp M_i) >= 0 for every constraint.
        if value >= 0 and all(float(np.tensordot(Qp, M)) >= 0 for M in iqcs):
            proven.append(rho)
        return value

    def probe(self, rate):
        kinds[rate] = real_probe(self, rate)
        return kinds[rate]

    with mock.patch.object(radius, "_lyapunov_dual_slack", slack), \
            mock.patch.object(radius._Search, "probe", probe):
        cert = spectral_radius(sys, iqcs, bisect_tol=tol)
    if cert.status != "ok":
        return
    lo, hi = cert.bracket
    if len(iqcs) == 0 and (sys.m == 0 or not np.any(sys.B)):
        oracle = float(np.max(np.abs(np.linalg.eigvals(sys.A))))
        assert lo == max(oracle - tol, 0.0)
    elif hi - max(proven) <= tol:
        assert lo == max(proven)
    else:
        assert kinds[lo] == "ambiguous"
    assert cert.rho_cert == hi
    scale = sys.scale() + iqcs.scale()
    H = margin_matrix(sys, iqcs, hi, cert.P, cert.lambdas)
    assert float(np.linalg.eigvalsh(H)[-1]) <= -0.5e-8 * scale
    assert float(np.linalg.eigvalsh(cert.P)[0]) >= 1.0 - 1e-6


def test_overflowing_growth_witness_warns_nothing():
    """The rate-5 witness orbit is cut at 186 steps, where its states reach
    about 1e130 and their squared norms still fit a float; nothing warns."""
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    sys = SystemData(A=5.0 * np.array([[c, -s], [s, c]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = classify(sys)
    assert verdict.classification == "witness-unstable"
    assert verdict.certificate.rho == pytest.approx(5.0, rel=1e-6)
