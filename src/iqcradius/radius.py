"""Constrained spectral radius by bisection, with certificates.

The radius rho(A, B, M) is the infimum of the rates rho at which the
inequality  L_rho(P) + sum_i lambda_i M_i <= 0  admits P >= I and
lambda >= 0.  Feasibility is monotone in rho, so the radius is found by
bisection.  Each probe classifies a rate as

  * at-or-below the radius: certified by a unit-trace PSD Q with
    L_rho*(Q) >= -eps and trace(Q M_i) >= -eps, which by weak duality
    rules out a strictly feasible rate-rho inequality, or
  * above the radius: certified by a primal point (P, lambda) with
    P >= I, lambda >= 0 and trace(P) + sum(lambda) <= TRACE_CAP whose
    margin re-checks strictly negative by an eigenvalue routine, or
  * ambiguous: neither certificate could be produced (this happens in a
    narrow band around a defective boundary, where certifying P grows
    like 1/(rho - radius)^2 and the dual slack vanishes cubically).

A probe first re-checks, at its own rate, the certificates of earlier
probes: each Q found below, then each (P, lambda) found above.  Both
tests are the ones above, done by eigenvalues; for a fixed certificate
each is monotone in the rate, and they often settle a rate with no
solve.  Otherwise the probe solves the phase-I dual program once: its Q
certifies "below", or its cone duals, scaled so that P >= I, give the
(P, lambda) that certifies "above".  The margin program is solved as
well only when that pair fails its re-check.

Attainment is decided by the same kind of re-check first: the (P,
lambda) stored at the bracket's upper end is tested at the radius by the
eigenvalue test of :func:`attainment_check`, and the margin program is
solved there only when that certificate fails.  If the solved point does
not attain either, it is re-checked one ``bisect_tol`` above the radius
before a last solve there.

Ambiguous probes are treated as at-or-below, which biases the reported
radius upward, the safe direction for stability claims.  For systems
with no constraints and no input the radius equals the largest
eigenvalue magnitude of A and is computed directly from the eigenvalues;
the bisection machinery only assembles the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (IqcSet, SystemData, Trajectory, lyapunov_adjoint,
                    margin_matrix, simulate)
from .sdp_engine import (TRACE_CAP, DualFeasibilityResult,
                         MarginPrimalResult, dual_feasibility_margin,
                         margin_point, solve_margin_primal)

__all__ = [
    "RadiusCertificate",
    "StabilityVerdict",
    "spectral_radius",
    "attainment_check",
    "classify",
    "exponential_rate_certificate",
    "ExponentialRateResult",
    "margin_matrix",
]

_MAX_BISECT = 80
_LADDER = (1.0, 10.0, 100.0)      # certificate search offsets, in units of bisect_tol
_LADDER_REL = (1e-3, 1e-2, 0.1, 1.0)  # then relative offsets


@dataclass
class RadiusCertificate:
    """Result of the radius computation.

    ``rho`` is the computed radius (``inf`` when no rate up to rho_max
    admits a certificate; 0.0 when every probed rate does).  ``P`` and
    ``lambdas`` certify feasibility at ``rho_cert`` (the bracket's upper
    end) with the reported ``margin``; ``attained`` records whether the
    margin is already non-positive at ``rho`` itself.  ``probes`` counts
    the rates classified by the search, including those settled by a
    stored certificate without a solve; ``ambiguous`` counts those that
    no certificate settled.
    """

    rho: float
    P: np.ndarray | None
    lambdas: np.ndarray | None
    attained: bool
    margin: float
    bracket: tuple[float, float]
    rho_cert: float | None = None
    status: str = "ok"
    message: str = ""
    probes: int = 0
    ambiguous: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class StabilityVerdict:
    classification: str    # asymptotically-stable | bounded | inconclusive | witness-unstable
    certificate: RadiusCertificate | None
    trajectory: Trajectory | None = None
    reasons: tuple[str, ...] = ()


@dataclass
class ExponentialRateResult:
    ok: bool
    rho: float
    certificate: RadiusCertificate | None
    reason: str = ""


def _certified_dual_slack(sys: SystemData, iqcs: IqcSet, rho: float,
                          Q: np.ndarray | None) -> float:
    """Worst slack of the dual system at a PSD-projected, trace-1 Q.

    The returned value is achieved by an exactly feasible Q, so
    ``slack >= -eps`` certifies that no strictly feasible primal point
    exists at this rate, i.e. that rho is at or below the radius.
    """
    if Q is None or Q.size == 0 or not np.all(np.isfinite(Q)):
        return -np.inf
    w, V = np.linalg.eigh(0.5 * (Q + Q.T))
    w = np.clip(w, 0.0, None)
    tr = float(np.sum(w))
    if tr <= 0:
        return -np.inf
    Qp = (V * (w / tr)) @ V.T
    slacks = []
    if sys.n:
        slacks.append(float(np.linalg.eigvalsh(lyapunov_adjoint(Qp, sys, rho))[0]))
    for M in iqcs:
        slacks.append(float(np.tensordot(Qp, M)))
    return min(slacks) if slacks else 0.0


def _certified_above(sys: SystemData, iqcs: IqcSet, result: MarginPrimalResult,
                     strict: float) -> bool:
    """True when (P, lambda) provably puts this rate strictly above the radius.

    The pair must also lie in the set the margin program searches: P >= I
    and trace(P) + sum(lambda) <= TRACE_CAP (``margin_point`` has already
    clipped lambda to be nonnegative).
    """
    if not np.all(np.isfinite(result.P)) or not np.all(np.isfinite(result.lambdas)):
        return False
    if result.s_star > -strict or result.margin_check > -0.5 * strict:
        return False
    if sys.n and float(np.linalg.eigvalsh(result.P)[0]) < 1.0 - 1e-6:
        return False
    return float(np.trace(result.P)) + float(np.sum(result.lambdas)) <= TRACE_CAP


def _dual_certificate(sys: SystemData, iqcs: IqcSet, rho: float,
                      probe: DualFeasibilityResult) -> MarginPrimalResult | None:
    """The primal point held in the cone duals of a phase-I solve.

    The duals P of the adjoint block and lambda_i of the constraint rows
    satisfy L_rho(P) + sum_i lambda_i M_i <= t* I (Vandenberghe & Boyd,
    SIAM Review 38(1), 1996).  Scaled by 1 / lambda_min(P) they have
    P >= I and the margin t* / lambda_min(P), which is negative above the
    radius.  Returns None when the duals are absent (a substituted solver
    need not report them) or P is not positive definite.
    """
    duals = probe.solution.cone_duals
    labels = ["adjoint"] + [f"iqc{i}" for i in range(len(iqcs))]
    if not sys.n or any(label not in duals for label in labels):
        return None
    P = duals["adjoint"]
    p_min = float(np.linalg.eigvalsh(P)[0])
    if not p_min > 0:
        return None
    lams = np.array([float(duals[f"iqc{i}"][0, 0]) for i in range(len(iqcs))])
    return margin_point(sys, iqcs, rho, P / p_min, lams / p_min, probe.solution)


class _Prober:
    """Classifies rates against the radius, with one phase-I solve or none.

    Before solving, a rate is tested against the certificates stored so
    far: the dual Qs of rates found below, then the (P, lambda) of rates
    found above.  A stored pair that passes is recorded under the new
    rate too, so the lowest certified rate keeps its certificate.
    Otherwise one phase-I solve decides: its dual slack certifies
    "below", or its cone duals certify "above"; the margin program is
    solved only when that pair fails its re-check.
    """

    def __init__(self, sys, iqcs, strict, eps_t, solver):
        self.sys = sys
        self.iqcs = iqcs
        self.strict = strict
        self.eps_t = eps_t
        self.solver = solver
        self.count = 0
        self.ambiguous = 0
        self.duals: list[np.ndarray] = []            # Q of each solved "below" rate
        self.pairs: list[MarginPrimalResult] = []    # (P, lambda) of each solved "above" rate
        self.certs: dict[float, MarginPrimalResult] = {}

    def _below(self, rho: float, Q: np.ndarray | None) -> bool:
        return _certified_dual_slack(self.sys, self.iqcs, rho, Q) >= -self.eps_t

    def _above(self, rho: float, cert: MarginPrimalResult | None) -> bool:
        if cert is None or not _certified_above(self.sys, self.iqcs, cert, self.strict):
            return False
        self.certs[rho] = cert
        return True

    def classify(self, rho: float) -> str:
        self.count += 1
        if any(self._below(rho, Q) for Q in self.duals):
            return "below"
        if any(self._above(rho, margin_point(self.sys, self.iqcs, rho, pair.P,
                                             pair.lambdas, pair.solution))
               for pair in self.pairs):
            return "above"
        probe = dual_feasibility_margin(self.sys, self.iqcs, rho, solver=self.solver)
        if self._below(rho, probe.Q):
            self.duals.append(probe.Q)
            return "below"
        if not (self._above(rho, _dual_certificate(self.sys, self.iqcs, rho, probe))
                or self._above(rho, solve_margin_primal(
                    self.sys, self.iqcs, rho, solver=self.solver))):
            self.ambiguous += 1
            return "ambiguous"
        self.pairs.append(self.certs[rho])
        return "above"


def _eig_radius(A: np.ndarray) -> float:
    if A.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def spectral_radius(sys: SystemData, iqcs: IqcSet | None = None, *,
                    bisect_tol: float = 1e-6, rho_max: float = 1e3,
                    strict_eps: float = 1e-8,
                    solver=None) -> RadiusCertificate:
    """Compute the constrained spectral radius with a feasibility certificate.

    Returns the radius within ``bisect_tol`` (up to the floating-point
    resolution of the probes; near defective boundary eigenvalues the
    certified band is wider and the ``ambiguous`` counter is nonzero),
    the final bracket, and (P, lambdas) certifying feasibility at the
    bracket's upper end.  ``rho == inf`` with status ``no-certificate``
    means no rate up to ``rho_max`` could be certified feasible, which
    proves nothing about trajectories.
    """
    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    iqcs.check_matches(sys)
    if bisect_tol <= 0 or rho_max <= 0 or strict_eps <= 0:
        raise ValueError("bisect_tol, rho_max and strict_eps must be positive")
    scale = sys.scale() + iqcs.scale()
    strict = strict_eps * scale
    eps_t = 1e-9 * scale
    prober = _Prober(sys, iqcs, strict, eps_t, solver)

    def build(rho, lo, hi, status="ok", message=""):
        cert_rho = min(prober.certs) if prober.certs else None
        cert = prober.certs.get(cert_rho) if cert_rho is not None else None
        attained = False
        if status == "ok":
            # The bisected rho is known only to +-bisect_tol and the margin
            # may be a hair positive just below the true radius.  The margin
            # is non-increasing in rho, so one step above cannot miss an
            # attained optimum, while the trace cap keeps rejecting optima
            # that are approached only by unbounded certificates.  At each
            # rate the point already in hand is re-checked before solving.
            point = cert
            for rate in (max(rho, bisect_tol), max(rho, bisect_tol) + bisect_tol):
                if point is not None and _attains(margin_point(
                        sys, iqcs, rate, point.P, point.lambdas, point.solution),
                        strict):
                    attained = True
                    break
                attained, point = attainment_check(sys, iqcs, rate,
                                                   strict_eps=strict_eps,
                                                   solver=solver)
                if attained:
                    break
        return RadiusCertificate(
            rho=rho,
            P=cert.P if cert else None,
            lambdas=cert.lambdas if cert else None,
            attained=attained,
            margin=cert.s_star if cert else np.nan,
            bracket=(lo, hi),
            rho_cert=cert_rho,
            status=status,
            message=message,
            probes=prober.count,
            ambiguous=prober.ambiguous,
        )

    # Constraint-free systems: the radius is the largest eigenvalue
    # magnitude of A; only the certificate needs solves.  (With a
    # nonzero B and no constraints the (2,2) block of the inequality is
    # B'PB, which cannot be negative semidefinite, and the general
    # search below reports the +inf sentinel.)
    fast = len(iqcs) == 0 and (sys.m == 0 or not np.any(sys.B))
    if fast:
        rho_e = _eig_radius(sys.A)
        if rho_e > rho_max and prober.classify(rho_max) != "above":
            return build(np.inf, rho_max, np.inf, status="no-certificate",
                         message=f"no certified feasible rate up to rho_max={rho_max:g}")
        hi = None
        for off in [bisect_tol * u for u in _LADDER] + \
                   [max(1.0, rho_e) * u for u in _LADDER_REL]:
            cand = rho_e + off
            if prober.classify(cand) == "above":
                hi = cand
                break
        if hi is None:
            return _general_bisect(sys, prober, bisect_tol, rho_max, build)
        lo = max(rho_e - bisect_tol, 0.0)
        return build(rho_e, lo, hi)

    return _general_bisect(sys, prober, bisect_tol, rho_max, build)


def _general_bisect(sys, prober, bisect_tol, rho_max, build):
    lo = bisect_tol
    kind = prober.classify(lo)
    if kind == "above":
        return build(0.0, 0.0, lo)

    hi = max(1.0, _eig_radius(sys.A))
    while True:
        if hi > rho_max:
            kind = prober.classify(rho_max)
            if kind != "above":
                return build(np.inf, rho_max, np.inf, status="no-certificate",
                             message=f"no certified feasible rate up to rho_max={rho_max:g}")
            hi = rho_max
            break
        kind = prober.classify(hi)
        if kind == "above":
            break
        lo = hi
        hi = 2.0 * hi

    for _ in range(_MAX_BISECT):
        if hi - lo <= bisect_tol:
            break
        mid = 0.5 * (lo + hi)
        if prober.classify(mid) == "above":
            hi = mid
        else:
            lo = mid

    rho = 0.5 * (lo + hi)
    return build(rho, lo, hi)


def attainment_check(sys: SystemData, iqcs: IqcSet, rho: float, *,
                     strict_eps: float = 1e-8,
                     solver=None) -> tuple[bool, MarginPrimalResult]:
    """Whether the rate-rho inequality is feasible at rho itself.

    True iff the margin program at exactly rho produces a certificate
    (P, lambda) whose margin, recomputed by an eigenvalue routine, is
    at most ``strict_eps`` (scale-adjusted) with P >= I.  The decision
    rests on the recomputed certificate, not the solver's status: a
    shaky solve with a verifiable certificate counts, while a failed
    solve without one reports False, never a false positive.
    """
    iqcs.check_matches(sys)
    scale = sys.scale() + iqcs.scale()
    tol = strict_eps * scale
    result = solve_margin_primal(sys, iqcs, rho, solver=solver)
    return _attains(result, tol), result


def _attains(result: MarginPrimalResult, tol: float) -> bool:
    """The attainment test on a margin point: P is finite with P >= I (to
    1e-6), and its recomputed margin is at most ``2 * tol``."""
    return bool(np.all(np.isfinite(result.P))
                and result.margin_check <= 2.0 * tol
                and float(np.linalg.eigvalsh(result.P)[0]) >= 1.0 - 1e-6)


def _growth_diagnostic(sys: SystemData, rho: float,
                       horizon: int = 200) -> Trajectory | None:
    """Unbounded-mode diagnostic for input-free systems at the boundary.

    When the radius 1 is not attained for an input-free system, the
    boundary eigenvalue is defective and the matrix powers grow; the
    returned trajectory follows the fastest-growing direction.  Returns
    None when no growth is detected.
    """
    if sys.m != 0 and np.any(sys.B):
        return None
    A = sys.A
    if A.shape[0] == 0:
        return None
    Ak = np.linalg.matrix_power(A, horizon)
    _, sv, Vt = np.linalg.svd(Ak)
    if sv.size == 0 or sv[0] < 10.0:
        return None
    x0 = Vt[0]
    traj = simulate(sys, x0, horizon)
    return Trajectory(states=traj.states, inputs=traj.inputs,
                      provenance="unbounded-mode diagnostic (defective boundary eigenvalue)")


def classify(sys: SystemData, iqcs: IqcSet | None = None, *,
             bisect_tol: float = 1e-6, rho_max: float = 1e3,
             strict_eps: float = 1e-8,
             solver=None, witness_horizon: int = 100) -> StabilityVerdict:
    """Stability classification from the radius and attainment.

    radius < 1: asymptotically stable.  radius == 1 (within tolerance)
    with the optimum attained: bounded; a worst-case witness trajectory
    is attached when the extraction pipeline produces one.  radius > 1
    with attainment and a witness: witness-unstable (a trajectory that
    does not converge to zero).  Everything else: inconclusive, with
    reasons.
    """
    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    cert = spectral_radius(sys, iqcs, bisect_tol=bisect_tol, rho_max=rho_max,
                           strict_eps=strict_eps, solver=solver)
    if not np.isfinite(cert.rho):
        return StabilityVerdict(
            classification="inconclusive", certificate=cert,
            reasons=("no feasibility certificate up to rho_max; "
                     "this proves nothing about trajectories",))

    if cert.rho < 1.0 - bisect_tol:
        return StabilityVerdict(classification="asymptotically-stable",
                                certificate=cert)

    def try_witness(reasons):
        from .worstcase import build_witness
        wit = build_witness(sys, iqcs, rho=cert.rho, horizon=witness_horizon,
                            bisect_tol=bisect_tol, strict_eps=strict_eps,
                            solver=solver, radius_cert=cert)
        if wit.ok:
            return wit.trajectory, reasons
        return None, reasons + [f"no worst-case witness: {wit.reason}"]

    at_boundary = abs(cert.rho - 1.0) <= bisect_tol
    if at_boundary and cert.attained:
        trajectory, reasons = try_witness([])
        return StabilityVerdict(classification="bounded", certificate=cert,
                                trajectory=trajectory, reasons=tuple(reasons))
    if at_boundary:
        reasons = ["radius 1 but the margin optimum is not attained; "
                   "boundedness is not implied"]
        diag = _growth_diagnostic(sys, cert.rho)
        if diag is not None:
            reasons.append("matrix powers grow along the attached diagnostic trajectory")
        return StabilityVerdict(classification="inconclusive", certificate=cert,
                                trajectory=diag, reasons=tuple(reasons))

    # radius above 1
    if cert.attained:
        trajectory, reasons = try_witness(
            [f"radius {cert.rho:.6g} exceeds 1 with the optimum attained"])
        if trajectory is not None:
            return StabilityVerdict(classification="witness-unstable",
                                    certificate=cert, trajectory=trajectory,
                                    reasons=tuple(reasons))
        return StabilityVerdict(classification="inconclusive", certificate=cert,
                                reasons=tuple(reasons))
    return StabilityVerdict(
        classification="inconclusive", certificate=cert,
        reasons=(f"radius {cert.rho:.6g} exceeds 1 but the optimum is not attained; "
                 "the witness construction does not apply",))


def exponential_rate_certificate(sys: SystemData, iqcs: IqcSet | None = None, *,
                                 bisect_tol: float = 1e-6, rho_max: float = 1e3,
                                 strict_eps: float = 1e-8,
                                 solver=None) -> ExponentialRateResult:
    """Decay-rate certificate: the radius, realized at the scaled pair (A/rho, B/rho).

    Valid for trajectories satisfying the rate-weighted constraints
    sum_k rho^{-2k} [x_k; u_k]' M_i [x_k; u_k] >= beta.  Requires the
    margin optimum to be attained at the radius; declined otherwise.
    """
    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    cert = spectral_radius(sys, iqcs, bisect_tol=bisect_tol, rho_max=rho_max,
                           strict_eps=strict_eps, solver=solver)
    if not np.isfinite(cert.rho):
        return ExponentialRateResult(False, np.inf, None,
                                     "no feasibility certificate up to rho_max")
    if not cert.attained:
        return ExponentialRateResult(
            False, cert.rho, None,
            "margin optimum not attained at the radius; the rate-weighted "
            "substitution requires attainment")
    rate = max(cert.rho, bisect_tol)
    scaled = SystemData(A=sys.A / rate, B=None if sys.m == 0 else sys.B / rate)
    attained, result = attainment_check(scaled, iqcs, 1.0, strict_eps=strict_eps,
                                        solver=solver)
    if not attained:
        return ExponentialRateResult(
            False, cert.rho, None,
            "could not certify the scaled pair at rate 1")
    out = RadiusCertificate(
        rho=rate, P=result.P, lambdas=result.lambdas, attained=True,
        margin=result.s_star, bracket=cert.bracket, rho_cert=rate,
        status="ok", probes=cert.probes, ambiguous=cert.ambiguous)
    return ExponentialRateResult(True, rate, out)
