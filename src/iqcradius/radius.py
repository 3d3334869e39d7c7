"""Constrained spectral radius by a search over certificate reaches.

The radius rho(A, B, M) is the infimum of the rates rho at which the
inequality  L_rho(P) + sum_i lambda_i M_i <= 0  admits P >= I and
lambda >= 0.  Feasibility is monotone in rho.  A rate is

  * at-or-below the radius when a unit-trace PSD Q has L_rho*(Q) >= 0
    and trace(Q M_i) >= 0, which by weak duality rules out a strictly
    feasible rate-rho inequality, or
  * above the radius when a point (P, lambda) with P >= I, lambda >= 0
    and trace(P) + sum(lambda) <= TRACE_CAP has a margin that re-checks
    at most -strict by an eigenvalue routine, strict = STRICT_EPS times
    the problem scale (``model.certificate_defect`` holds the test).

Both tests are eigenvalue re-checks, monotone in the rate for a fixed
certificate, so each certificate has a *reach*, the furthest rate it
proves, which costs no solve: for Q, sqrt(lambda_min) of the pencil
(G Q G', Q_xx); for (P, lambda), the least rho with W - rho^2 diag(P, 0)
<= 0, W = G'PG + sum lambda_i M_i + strict I (Boyd, El Ghaoui, Feron &
Balakrishnan, *LMIs in System and Control Theory*, 1994, section 2.2.3).
A reach counts only once the same test passes at it.

Each probe solves the phase-I dual program once and uses both of its
certificates, the Q and the (P, lambda) in its cone duals; the margin
program is solved there too only when that pair fails at the probe rate
and Q does not prove the rate below.  The proven ends are the largest Q
reach and the smallest pair reach.  A probe neither certificate settles
is *ambiguous*: around a defective boundary certifying P grows like
1/(rho - radius)^2, and at a degenerate one the dual slack is zero up to
rounding over a band of rates.  It moves neither proven end, but no
later probe goes below it, so the search converges where counting it as
at-or-below would.  ``rho`` is the midpoint of (highest ambiguous rate
or proven lower end, proven upper end).

Both programs are compiled once per call of :func:`spectral_radius`,
each on its first use, and shared by the whole search and the attainment
checks; a probe rewrites only the block that carries the rate (see
``sdp_engine``).

The first probes are ``bisect_tol`` and max(1, |eig|), doubling until
an upper end is proven.  Then each rate is an Illinois (secant) step on
the phase-I value t*(rho) between the nearest solved rates on each side
of its root, kept a thousandth of the placement interval inside it (its
midpoint when the step falls outside), and a probe that does not halve
the interval is followed by a bisection step.  A probe next to a reach
is a Dinkelbach iteration (Management Science 13(7), 1967), so near a
smooth boundary the ends close in a few solves.

Attainment is decided by the same kind of re-check first: the (P,
lambda) stored at the bracket's upper end is tested at the radius by the
eigenvalue test of :func:`attainment_check`, and the margin program is
solved there only when that certificate fails.  If the solved point does
not attain either, it is re-checked one ``bisect_tol`` above the radius
before a last solve there.

For systems with no constraints and no input the radius is the largest
eigenvalue magnitude of A, which also proves the bracket's lower end;
the search only finds the certificate above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (IqcSet, SystemData, Trajectory, _lyapunov_stack,
                    certificate_defect, margin_matrix, simulate)
from .sdp_engine import (TRACE_CAP, DualFeasibilityResult,
                         MarginPrimalResult, _Programs,
                         dual_feasibility_margin, margin_point,
                         solve_margin_primal)
from . import worstcase

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
# Relative move of a reach, away from the radius, when rounding fails the
# re-check at the reach itself.
_NUDGE = 1e-12
# Largest accepted rho_max.  Programs carry rho^2 and the engine squares
# their coefficients (``sdp_engine._block_norms``), so rho^4 must stay well
# inside the float range; from rho_max = 1e80 those products overflow.
RHO_MAX_LIMIT = 1e50
# Strict-feasibility threshold, relative to the problem scale: a pair
# proves a rate above the radius with margin <= -0.5 STRICT_EPS scale.
STRICT_EPS = 1e-8
# Steps of the unbounded-mode diagnostic trajectory.
_GROWTH_STEPS = 200
# The classifications ``classify`` returns.
VERDICTS = ("asymptotically-stable", "bounded", "witness-unstable",
            "inconclusive")


@dataclass
class RadiusCertificate:
    """Result of the radius computation.

    ``rho`` is the computed radius (``inf`` when no rate up to rho_max
    admits a certificate; 0.0 when every probed rate does).  ``bracket``
    is (proven below, proven above).  A dual Q re-checks at-or-below the
    radius at its lower end (on the eigenvalue path, the eigenvalues
    prove it), unless that proof stops more than ``bisect_tol`` short of
    the upper end: then the lower end is the highest ambiguous probe.
    ``P`` and ``lambdas`` certify feasibility at the upper end,
    ``rho_cert``.  ``rho`` lies inside,
    above every ambiguous probe below the upper end.  Without a
    certificate the upper end is ``inf``.  ``attained`` records whether
    the margin is already non-positive at ``rho`` itself.  ``probes``
    counts the rates probed by a solve; ``ambiguous`` counts those that
    no certificate settled.
    """

    rho: float
    P: np.ndarray | None
    lambdas: np.ndarray | None
    attained: bool
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
    """``classify``'s result: ``witness`` is its one ``build_witness``
    outcome (None without a finite radius), whatever the classification;
    ``trajectory`` is the orbit the classification rests on, if any."""

    classification: str    # one of VERDICTS
    certificate: RadiusCertificate | None
    trajectory: Trajectory | None = None
    reasons: tuple[str, ...] = ()
    witness: worstcase.WitnessOutcome | None = None


@dataclass
class ExponentialRateResult:
    ok: bool
    rho: float
    certificate: RadiusCertificate | None
    reason: str = ""


def _unit_trace_psd(Q: np.ndarray | None) -> np.ndarray | None:
    """The PSD projection of Q scaled to trace 1; None when there is none."""
    if Q is None or Q.size == 0 or not np.all(np.isfinite(Q)):
        return None
    w, V = np.linalg.eigh(0.5 * (Q + Q.T))
    w = np.clip(w, 0.0, None)
    tr = float(np.sum(w))
    if tr <= 0:
        return None
    return (V * (w / tr)) @ V.T


def _lyapunov_dual_slack(sys: SystemData, rho: float, Qp: np.ndarray) -> float:
    """lambda_min of the rate-rho adjoint Lyapunov map at a PSD, trace-1 Qp.

    The value is achieved by an exactly feasible Qp, so when also
    trace(Qp M_i) >= 0 for every constraint, ``slack >= 0`` certifies that
    no strictly feasible primal point exists at this rate, i.e. that rho
    is at or below the radius.
    """
    Qs = 0.5 * (Qp + Qp.T)      # the arithmetic of lyapunov_adjoint, unchecked
    return float(np.linalg.eigvalsh(
        _lyapunov_stack(Qs[None], sys, rho, adjoint=True)[0])[0])


def _certified_above(sys: SystemData, iqcs: IqcSet, result: MarginPrimalResult,
                     strict: float) -> bool:
    """True when (P, lambda) provably puts this rate strictly above the radius.

    The pair passes ``certificate_defect`` with bound -0.5 * strict, the
    test ``verify`` applies to a report.  The search also asks for a
    solver margin at most -strict and for the pair to lie in the set the
    margin program searches, trace(P) + sum(lambda) <= TRACE_CAP.
    """
    if result.s_star > -strict or certificate_defect(
            result.P, result.lambdas, result.margin_check, -0.5 * strict):
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
    if any(label not in duals for label in labels):
        return None
    P = duals["adjoint"]
    p_min = float(np.linalg.eigvalsh(P)[0])
    if not p_min > 0:
        return None
    lams = np.array([float(duals[f"iqc{i}"][0, 0]) for i in range(len(iqcs))])
    return margin_point(sys, iqcs, rho, P / p_min, lams / p_min, probe.solution)


def _pencil_eigs(S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the pencil (S, L L'), L lower triangular."""
    X = np.linalg.solve(L, S)
    return np.linalg.eigvalsh(np.linalg.solve(L, X.T))


def _q_reach(sys: SystemData, Qp: np.ndarray) -> float:
    """The largest rate at which a PSD, trace-1 Qp has Lyapunov slack >= 0.

    The slack lambda_min(G Qp G' - rho^2 Qp_xx) falls as rho grows, so
    the rate is sqrt(lambda_min) of the pencil (G Qp G', Qp_xx).  0.0 when
    Qp_xx is singular or when Qp proves no rate.
    """
    try:
        L = np.linalg.cholesky(Qp[:sys.n, :sys.n])
    except np.linalg.LinAlgError:
        return 0.0
    GQG = _lyapunov_stack(Qp[None], sys, 0.0, adjoint=True)[0]
    low = float(_pencil_eigs(GQG, L)[0])
    return float(np.sqrt(low)) if low > 0 else 0.0


def _pair_reach(sys: SystemData, iqcs: IqcSet, pair: MarginPrimalResult,
                strict: float) -> float:
    """The smallest rate at which (P, lambda) has margin <= -strict.

    That is the least rho with W - rho^2 diag(P, 0) <= 0, where W =
    G'PG + sum_i lambda_i M_i + strict I.  With an input this needs
    W_uu < 0; the rate is then sqrt(lambda_max) of the pencil (S, P), S
    the Schur complement of W_uu.  inf when no rate is reached.
    """
    n = sys.n
    P = 0.5 * (pair.P + pair.P.T)
    if not np.all(np.isfinite(P)) or not np.all(np.isfinite(pair.lambdas)):
        return np.inf
    W = _lyapunov_stack(P[None], sys, 0.0)[0] + strict * np.eye(n + sys.m)
    for lam, M in zip(pair.lambdas, iqcs):
        W += lam * M
    try:
        S = W[:n, :n]
        if sys.m:
            Y = np.linalg.solve(np.linalg.cholesky(-W[n:, n:]), W[n:, :n])
            S = S + Y.T @ Y
        top = float(_pencil_eigs(S, np.linalg.cholesky(P))[-1])
    except np.linalg.LinAlgError:
        return np.inf
    if np.isnan(top):
        return np.inf
    return float(np.sqrt(max(top, 0.0)))


class _Search:
    """The proven bracket of the radius, grown one phase-I solve at a time.

    ``lo`` is the largest rate a dual Q re-checks at-or-below the radius
    (0.0 before any does); ``hi`` is the smallest rate a pair (P, lambda)
    re-checks above it, and ``cert`` is that pair evaluated at ``hi``.
    Rates of ambiguous probes below ``hi`` are kept in ``unsettled``;
    they prove nothing, but ``floor`` places no probe below them.
    ``points`` holds the (rate, t*) of every solve with a finite t*.
    """

    def __init__(self, sys, iqcs, strict, solver, programs):
        self.sys = sys
        self.iqcs = iqcs
        self.strict = strict
        self.solver = solver
        self.programs = programs
        self.count = 0
        self.ambiguous = 0
        self.lo = 0.0
        self.hi = np.inf
        self.cert: MarginPrimalResult | None = None
        self.unsettled: list[float] = []
        self.points: list[tuple[float, float]] = []

    @property
    def floor(self) -> float:
        return max([self.lo] + [r for r in self.unsettled if r < self.hi])

    def _lower(self, rate: float, Q: np.ndarray | None) -> float:
        """The highest of Q's reach, that reach nudged down and ``rate``
        at which Q re-checks at-or-below the radius; 0.0 for none.  Q is
        projected, and its pairings trace(Qp M_i) >= 0 tested, once for
        every rate: they do not depend on it."""
        Qp = _unit_trace_psd(Q)
        if Qp is None or any(float(np.tensordot(Qp, M)) < 0 for M in self.iqcs):
            return 0.0
        reach = _q_reach(self.sys, Qp)
        for r in sorted({reach, reach * (1.0 - _NUDGE), rate}, reverse=True):
            if 0 < r < np.inf and _lyapunov_dual_slack(self.sys, r, Qp) >= 0:
                return r
        return 0.0

    def _upper(self, rate: float, pair: MarginPrimalResult) -> None:
        """Lower ``hi`` to the least of the pair's reach, that reach nudged
        up and ``rate`` at which the pair re-checks above the radius."""
        reach = _pair_reach(self.sys, self.iqcs, pair, self.strict)
        for r in sorted({reach, reach * (1.0 + _NUDGE), rate}):
            if not 0 < r < self.hi:
                continue
            point = pair if r == rate else margin_point(
                self.sys, self.iqcs, r, pair.P, pair.lambdas, pair.solution)
            if _certified_above(self.sys, self.iqcs, point, self.strict):
                self.hi, self.cert = r, point
                return

    def probe(self, rate: float) -> str:
        """Solve at ``rate``, a rate inside (lo, hi), tighten the bracket
        and classify the rate."""
        sys, iqcs = self.sys, self.iqcs
        self.count += 1
        probe = dual_feasibility_margin(sys, iqcs, rate, solver=self.solver,
                                        _programs=self.programs)
        if np.isfinite(probe.t_star):
            self.points.append((rate, probe.t_star))
        self.lo = max(self.lo, self._lower(rate, probe.Q))
        pairs = [_dual_certificate(sys, iqcs, rate, probe)]
        if self.lo < rate and not (pairs[0] is not None and _certified_above(
                sys, iqcs, pairs[0], self.strict)):
            pairs.append(solve_margin_primal(sys, iqcs, rate, solver=self.solver,
                                             _programs=self.programs))
        for pair in pairs:
            if pair is not None:
                self._upper(rate, pair)
        if self.lo >= rate:
            return "below"
        if self.hi <= rate:
            return "above"
        self.ambiguous += 1
        self.unsettled.append(rate)
        return "ambiguous"

    def next_rate(self) -> float:
        """An Illinois step on t*(rho) between the nearest solved rates on
        each side of its root, kept a thousandth of the placement interval
        (floor, hi) inside it; the interval's midpoint when the step falls
        outside it or no solved rates bracket the root."""
        a, b = self.floor, self.hi
        below = [p for p in self.points if p[1] >= 0]
        above = [p for p in self.points if p[1] < 0]
        if not (below and above):
            return 0.5 * (a + b)
        (ra, ta), (rb, tb) = max(below), min(above)
        # Illinois: each further probe on the side of the last one halves
        # the value kept at the opposite end.
        side = self.points[-1][1] >= 0
        repeats = 0
        for _, t in reversed(self.points[:-1]):
            if (t >= 0) != side:
                break
            repeats += 1
        if side:
            tb *= 0.5 ** repeats
        else:
            ta *= 0.5 ** repeats
        x = ra + ta * (rb - ra) / (ta - tb)
        if not a < x < b:
            return 0.5 * (a + b)
        pad = 1e-3 * (b - a)
        return min(max(x, a + pad), b - pad)


def _eig_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def spectral_radius(sys: SystemData, iqcs: IqcSet | None = None, *,
                    bisect_tol: float = 1e-6, rho_max: float = 1e3,
                    solver=None) -> RadiusCertificate:
    """Compute the constrained spectral radius with a feasibility certificate.

    Returns the radius within ``bisect_tol`` (near defective or
    degenerate boundaries, up to the probes counted in ``ambiguous``),
    the bracket, and (P, lambdas) certifying feasibility at the bracket's
    upper end.  ``rho == inf`` with status ``no-certificate`` means no
    rate up to ``rho_max`` could be certified feasible, which proves
    nothing about trajectories.
    """
    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    iqcs.check_matches(sys)
    if not (0 < bisect_tol < np.inf and 0 < rho_max <= RHO_MAX_LIMIT):
        raise ValueError("bisect_tol must be finite and > 0, "
                         f"and rho_max in (0, {RHO_MAX_LIMIT:g}]")
    programs = _Programs(sys, iqcs)
    strict = STRICT_EPS * programs.scale
    search = _Search(sys, iqcs, strict, solver, programs)

    def build(rho, lo, status="ok", message=""):
        cert = search.cert if status == "ok" else None
        attained = False
        if status == "ok":
            # The searched rho is known only to +-bisect_tol and the margin
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
                                                   solver=solver,
                                                   _programs=programs)
                if attained:
                    break
        hi = float(search.hi) if cert else np.inf
        return RadiusCertificate(
            rho=float(rho),
            P=cert.P if cert else None,
            lambdas=cert.lambdas if cert else None,
            attained=attained,
            bracket=(float(lo), hi),
            rho_cert=hi if cert else None,
            status=status,
            message=message,
            probes=search.count,
            ambiguous=search.ambiguous,
        )

    def no_certificate():
        return build(np.inf, search.lo, status="no-certificate",
                     message=f"no certified feasible rate up to rho_max={rho_max:g}")

    # Constraint-free systems: the radius is the largest eigenvalue
    # magnitude of A; only the certificate needs solves.  (With a
    # nonzero B and no constraints the (2,2) block of the inequality is
    # B'PB, which cannot be negative semidefinite, and the general
    # search below reports the +inf sentinel.)
    fast = len(iqcs) == 0 and (sys.m == 0 or not np.any(sys.B))
    if fast:
        rho_e = _eig_radius(sys.A)
        if rho_e > rho_max and search.probe(rho_max) != "above":
            return no_certificate()
        for off in [bisect_tol * u for u in _LADDER] + \
                   [max(1.0, rho_e) * u for u in _LADDER_REL]:
            if search.hi <= rho_e + off or search.probe(rho_e + off) == "above":
                return build(rho_e, max(rho_e - bisect_tol, 0.0))

    if search.probe(bisect_tol) == "above":
        return build(0.0, 0.0)
    # Doubling from max(1, |eig|) until a probe proves an upper end.
    rate = max(1.0, _eig_radius(sys.A))
    while search.hi > min(rate, rho_max) and search.floor < rho_max:
        if rate > search.floor:
            search.probe(min(rate, rho_max))
        if rate >= rho_max:
            break
        rate *= 2.0
    if search.hi > rho_max:
        return no_certificate()

    halved = True
    for _ in range(_MAX_BISECT):
        a, b = search.floor, search.hi
        if b - a <= bisect_tol:
            break
        search.probe(search.next_rate() if halved else 0.5 * (a + b))
        halved = search.hi - search.floor <= 0.5 * (b - a)
    # Where the dual certificates cannot close the bracket (a defective or
    # degenerate boundary, whose dual slack vanishes over a band of rates
    # up to rounding), the lower end is the highest ambiguous rate instead.
    lo = search.lo if search.hi - search.lo <= bisect_tol else search.floor
    return build(0.5 * (search.floor + search.hi), lo)


def attainment_check(sys: SystemData, iqcs: IqcSet, rho: float, *,
                     solver=None, _programs: _Programs | None = None
                     ) -> tuple[bool, MarginPrimalResult]:
    """Whether the rate-rho inequality is feasible at rho itself.

    True iff the margin program at exactly rho produces a certificate
    (P, lambda) that passes ``certificate_defect`` with bound 2 STRICT_EPS
    (scale-adjusted) on its margin recomputed by an eigenvalue routine.
    The decision rests on the recomputed certificate, not the solver's
    status: a shaky solve with a verifiable certificate counts, while a
    failed solve without one reports False, never a false positive.
    """
    iqcs.check_matches(sys)
    programs = _programs or _Programs(sys, iqcs)
    result = solve_margin_primal(sys, iqcs, rho, solver=solver,
                                 _programs=programs)
    tol = STRICT_EPS * programs.scale
    return _attains(result, tol), result


def _attains(result: MarginPrimalResult, tol: float) -> bool:
    """The attainment test on a margin point: ``certificate_defect`` with
    bound ``2 * tol`` on its recomputed margin."""
    return not certificate_defect(result.P, result.lambdas,
                                  result.margin_check, 2.0 * tol)


def _growth_diagnostic(sys: SystemData) -> Trajectory | None:
    """Unbounded-mode diagnostic for input-free systems at the boundary.

    When the radius 1 is not attained for an input-free system, the
    boundary eigenvalue is defective and the matrix powers grow; the
    returned trajectory follows the fastest-growing direction.  Returns
    None when no growth is detected.
    """
    if sys.m != 0 and np.any(sys.B):
        return None
    Ak = np.linalg.matrix_power(sys.A, _GROWTH_STEPS)
    _, sv, Vt = np.linalg.svd(Ak)
    if sv[0] < 10.0:
        return None
    return simulate(sys, Vt[0], _GROWTH_STEPS)


def classify(sys: SystemData, iqcs: IqcSet | None = None, *,
             bisect_tol: float = 1e-6, rho_max: float = 1e3,
             solver=None) -> StabilityVerdict:
    """Stability classification from the radius and attainment.

    radius < 1 (``worstcase._below_one``): asymptotically stable.
    radius == 1 (within tolerance) with the optimum attained: bounded; a
    worst-case witness trajectory is attached when the extraction
    pipeline produces one.  radius > 1 with attainment and a witness:
    witness-unstable (a trajectory that does not converge to zero).
    Everything else: inconclusive, with reasons.  A finite radius gets
    one ``build_witness`` call, whose outcome the verdict carries.
    """
    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    cert = spectral_radius(sys, iqcs, bisect_tol=bisect_tol, rho_max=rho_max,
                           solver=solver)
    if not np.isfinite(cert.rho):
        return StabilityVerdict(
            classification="inconclusive", certificate=cert,
            reasons=("no feasibility certificate up to rho_max; "
                     "this proves nothing about trajectories",))

    wit = worstcase.build_witness(sys, iqcs, rho=cert.rho, bisect_tol=bisect_tol,
                                  solver=solver, radius_cert=cert)
    missing = () if wit.ok else (f"no worst-case witness: {wit.reason}",)

    def verdict(classification, reasons=(), trajectory=None):
        return StabilityVerdict(classification, cert, trajectory,
                                tuple(reasons), wit)

    if worstcase._below_one(cert.rho, bisect_tol):
        return verdict("asymptotically-stable")
    at_boundary = abs(cert.rho - 1.0) <= bisect_tol
    if at_boundary and cert.attained:
        return verdict("bounded", missing, wit.trajectory)
    if at_boundary:
        reasons = ["radius 1 but the margin optimum is not attained; "
                   "boundedness is not implied"]
        diag = _growth_diagnostic(sys)
        if diag is not None:
            reasons.append("matrix powers grow along the attached diagnostic trajectory")
        return verdict("inconclusive", reasons, diag)

    # radius above 1
    if cert.attained:
        return verdict("witness-unstable" if wit.ok else "inconclusive",
                       (f"radius {cert.rho:.6g} exceeds 1 with the optimum "
                        "attained",) + missing, wit.trajectory)
    return verdict("inconclusive",
                   (f"radius {cert.rho:.6g} exceeds 1 but the optimum is not "
                    "attained; the witness construction does not apply",))


def exponential_rate_certificate(sys: SystemData, iqcs: IqcSet | None = None, *,
                                 bisect_tol: float = 1e-6, rho_max: float = 1e3,
                                 solver=None) -> ExponentialRateResult:
    """Decay-rate certificate: the radius, realized at the scaled pair (A/rho, B/rho).

    Valid for trajectories satisfying the rate-weighted constraints
    sum_k rho^{-2k} [x_k; u_k]' M_i [x_k; u_k] >= beta.  Requires the
    margin optimum to be attained at the radius; declined otherwise.
    """
    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    cert = spectral_radius(sys, iqcs, bisect_tol=bisect_tol, rho_max=rho_max,
                           solver=solver)
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
    attained, result = attainment_check(scaled, iqcs, 1.0, solver=solver)
    if not attained:
        return ExponentialRateResult(
            False, cert.rho, None,
            "could not certify the scaled pair at rate 1")
    out = RadiusCertificate(
        rho=rate, P=result.P, lambdas=result.lambdas, attained=True,
        bracket=cert.bracket, rho_cert=rate,
        status="ok", probes=cert.probes, ambiguous=cert.ambiguous)
    return ExponentialRateResult(True, rate, out)
