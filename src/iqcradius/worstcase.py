"""Worst-case witness construction at the stability boundary.

When the feasibility radius equals one and the margin optimum is
attained, the stationary dual matrix Q (positive semidefinite, trace
one, annihilated by the adjoint Lyapunov map, with nonnegative pairing
against every constraint matrix) factors as Q = [X; U][X; U]' with an
orthogonal transition F satisfying AX + BU = XF.  The orbit
[x_k; u_k] = [X; U] F^k v then solves the dynamics exactly, never
converges to zero, and keeps every constraint partial sum bounded
below, provided the direction v passes a group-wise sign condition.

``build_witness`` runs the pipeline end to end and stops with a reason
at the first stage that cannot be certified: radius precheck, dual
extraction, rank factorization, orthogonal factor, eigen grouping,
technical condition, trajectory assembly.  Every stage after the radius
precheck fails one way: it raises ``ValueError`` with the reason, and
``build_witness`` alone turns that into a ``WitnessOutcome`` naming the
stage.  The last stage accepts a witness by one test only,
``verify.check_witness``, the same one ``verify`` runs on a report; a
failed check downgrades the outcome rather than weakening the claim.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    IqcSet,
    SystemData,
    Trajectory,
    _lyapunov_stack,
    _row_forms,
    lyapunov_adjoint,
    symmetrize,
)
from .sdp_engine import SdpProblem, solve, svec_basis

if TYPE_CHECKING:
    from .verify import WitnessCheck

__all__ = [
    "EigenGroup",
    "WitnessOutcome",
    "WitnessReport",
    "WorstCaseModes",
    "build_trajectory",
    "build_witness",
    "eigen_group",
    "extract_dual_witness",
    "feedback_gain",
    "hard_iqc_shift",
    "iqc_sum_lower_bound",
    "pointwise_check",
    "rank_factor",
    "recover_orthogonal_factor",
    "technical_condition",
    "verify_direction",
    "verify_groups",
]

_TWO_PI = 2.0 * np.pi

# Direct acceptance checks on an extracted stationary dual matrix.
_PSD_TOL = 1e-8
_TRACE_TOL = 1e-8
_ADJOINT_TOL = 1e-6
_PAIRING_TOL = 1e-6

# Relative eigenvalue cut of the rank factorization.
RANK_TOL = 1e-7
# Angles of the orthogonal factor closer than this form one eigen-group.
ANGLE_TOL = 1e-6
# Allowed distance from orthogonality of F and from unitarity of the
# stacked eigen-group bases.
UNITARY_TOL = 1e-6
# Horizons scanned for the hard-constraint shift.
SHIFT_WINDOW = 10_000
# Partial sums within SHIFT_RTOL * scale * sum_k |z_k|^2 of their minimum
# count as the minimum, where scale is the size at which the constraint
# form H = [X; U]' M [X; U] was rounded: sums that are all zero up to
# rounding then give one shift whatever the sign of that rounding.
SHIFT_RTOL = 1e-12
# Steps over which a rank-one witness is re-checked pointwise.
POINTWISE_HORIZON = 1000
# A growth orbit stops before growth ** k passes exp(GROWTH_LOG_CAP), so
# its states and their squared norms stay inside the float range.
GROWTH_LOG_CAP = 300.0
SHORTENED_NOTE = ("horizon shortened to {} steps to keep the "
                  "growth-weighted orbit finite")
# The stages ``build_witness`` names: the one that stopped it, or "complete".
STAGES = ("radius-precheck", "dual-extraction", "rank-factorization",
          "orthogonal-factor", "eigen-grouping", "technical-condition",
          "trajectory-assembly", "complete")


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class EigenGroup:
    """One eigenvalue cluster of the orthogonal factor.

    ``theta`` is the common angle in [0, 2*pi); the columns of ``W``
    form an orthonormal basis (complex) of the clustered eigenspace.
    """

    theta: float
    W: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.W.shape[1]

    def projector(self) -> np.ndarray:
        """Hermitian projector onto the group eigenspace."""
        return self.W @ self.W.conj().T


@dataclass(frozen=True)
class WorstCaseModes:
    """Factorized dual witness: Q = [X; U][X; U]' with AX + BU = XF
    (``Q`` is None on modes read from a report, which does not record it)."""

    Q: np.ndarray | None
    d: int
    X: np.ndarray
    U: np.ndarray
    F: np.ndarray
    groups: tuple[EigenGroup, ...]
    H: tuple[np.ndarray, ...]
    v: np.ndarray | None = None


@dataclass(frozen=True)
class WitnessReport:
    """What a report's witness block records: the modes with their
    direction ``v``, and the quantities derived from them.  The orbit is
    not part of it; ``WitnessOutcome.trajectory`` carries the one that
    ``build_witness`` assembled, and ``verify.check_witness`` regenerates
    its own from the modes."""

    modes: WorstCaseModes
    gain: np.ndarray | None
    iqc_lower_bounds: np.ndarray
    hard_shift: int | None
    pointwise: bool
    growth: float
    notes: tuple[str, ...]


@dataclass(frozen=True)
class WitnessOutcome:
    """Result of ``build_witness``; ``reason`` names the failing stage.
    ``check`` is the re-check that accepted ``report``."""

    ok: bool
    stage: str
    reason: str
    report: WitnessReport | None = None
    trajectory: Trajectory | None = None
    modes: WorstCaseModes | None = None
    check: WitnessCheck | None = None


# ---------------------------------------------------------------------------
# stage 1: stationary dual matrix


def extract_dual_witness(sys: SystemData, iqcs: IqcSet | None = None, *,
                         solver=None) -> np.ndarray:
    """Most interior trace-one stationary dual matrix at rate one.

    Maximizes min(lambda_min(Q), min_i trace(Q M_i)) subject to the
    stationarity equalities [A B] Q [A B]' = Q_xx and trace(Q) = 1.
    The program is always strictly feasible in (Q, t), so a negative
    optimal value certifies that no witness matrix exists, while the
    returned Q is accepted only after direct eigenvalue and pairing
    checks (callers never need to trust the solver's word alone).
    Raises ``ValueError`` naming the failed checks when no Q passes.
    """
    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    iqcs.check_matches(sys)
    n, dim = sys.n, sys.n + sys.m
    E = svec_basis(dim)

    pb = SdpProblem()
    pb.add_sym_var("Q", dim)
    pb.add_scalar_var("t")
    pb.minimize([("t", [-1.0])])
    pb.add_psd(dim, None, [("Q", E), ("t", -np.eye(dim)[None])], label="Q_minus_tI")
    for i, M in enumerate(iqcs):
        pb.add_scalar_ineq(0.0, [("Q", np.tensordot(E, M)), ("t", [-1.0])],
                           label=f"iqc{i}")
    pb.add_matrix_eq(n, None, [("Q", _lyapunov_stack(E, sys, 1.0, adjoint=True))])
    pb.add_scalar_eq(-1.0, [("Q", np.trace(E, axis1=1, axis2=2))])

    sol = (solver or solve)(pb)
    if sol.status == "infeasible" or "Q" not in sol.values:
        raise ValueError("no trace-one stationary dual matrix exists at rate "
                         "one (the linear stationarity system is inconsistent)")

    Q = symmetrize(np.asarray(sol.values["Q"]), name="Q")
    if not np.all(np.isfinite(Q)):
        raise ValueError("solver returned non-finite values")

    checks = []
    lam_min = float(np.linalg.eigvalsh(Q)[0])
    if lam_min < -_PSD_TOL:
        checks.append(f"lambda_min(Q) = {lam_min:.3e}")
    tr_err = abs(float(np.trace(Q)) - 1.0)
    if tr_err > _TRACE_TOL:
        checks.append(f"|trace(Q) - 1| = {tr_err:.3e}")
    adj = float(np.linalg.norm(lyapunov_adjoint(Q, sys, 1.0), 2))
    if adj > _ADJOINT_TOL:
        checks.append(f"stationarity residual {adj:.3e}")
    for i, M in enumerate(iqcs):
        pair = float(np.tensordot(Q, M))
        if pair < -_PAIRING_TOL:
            checks.append(f"trace(Q M_{i}) = {pair:.3e}")

    if checks:
        raise ValueError("no constraint-compatible stationary dual matrix: "
                         + "; ".join(checks))
    return Q


# ---------------------------------------------------------------------------
# stage 2: rank factorization


def rank_factor(Q: np.ndarray, n: int):
    """Factor Q = [X; U][X; U]' by thresholded eigendecomposition.

    Returns (X, U, d) with d the number of eigenvalues above
    ``RANK_TOL`` times the largest one; ``n`` splits the stacked factor
    into state rows X and input rows U.  Raises ``ValueError`` when Q
    is numerically zero or indefinite beyond the tolerance.
    """
    Q = symmetrize(np.asarray(Q, dtype=float), name="Q")
    if n < 0 or n > Q.shape[0]:
        raise ValueError(f"state dimension {n} does not fit a "
                         f"{Q.shape[0]}x{Q.shape[0]} matrix")
    w, V = np.linalg.eigh(Q)
    lam_max = float(w[-1]) if w.size else 0.0
    if lam_max <= RANK_TOL:
        raise ValueError("dual witness matrix is numerically zero")
    if float(w[0]) < -RANK_TOL * max(1.0, lam_max):
        raise ValueError(
            f"matrix is not positive semidefinite within the rank "
            f"tolerance (lambda_min = {float(w[0]):.3e})")
    keep = np.flatnonzero(w > RANK_TOL * lam_max)[::-1]  # descending
    Z = V[:, keep] * np.sqrt(w[keep])
    # Deterministic column signs: largest-magnitude entry positive.
    for k in range(Z.shape[1]):
        j = int(np.argmax(np.abs(Z[:, k])))
        if Z[j, k] < 0:
            Z[:, k] = -Z[:, k]
    return Z[:n], Z[n:], int(keep.size)


# ---------------------------------------------------------------------------
# stage 3: orthogonal factor


def recover_orthogonal_factor(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Orthogonal F minimizing ||XF - G|| in the Frobenius norm.

    Computed from the singular value decomposition of X'G; on the
    subspace where X'G vanishes (the null space of X) the remaining
    rotational freedom is spent making F as close to the identity as
    orthogonality allows, which keeps the factor deterministic.
    """
    X = np.asarray(X, dtype=float)
    G = np.asarray(G, dtype=float)
    if X.shape != G.shape:
        raise ValueError(f"shape mismatch: X is {X.shape}, G is {G.shape}")
    d = X.shape[1]
    if d == 0:
        return np.zeros((0, 0))
    Us, s, Vt = np.linalg.svd(X.T @ G)
    smax = float(s[0]) if s.size else 0.0
    r = int(np.count_nonzero(s > 1e-12 * max(smax, 1e-300)))
    F = Us[:, :r] @ Vt[:r]
    if r < d:
        # Free block: maximize trace(U2 C V2') over orthogonal C.
        N = Vt[r:] @ Us[:, r:]
        Un, _, Vnt = np.linalg.svd(N)
        F = F + Us[:, r:] @ (Vnt.T @ Un.T) @ Vt[r:]
    return F


def _repair_factor(sys: SystemData, X: np.ndarray, U: np.ndarray,
                   F: np.ndarray):
    """Least-norm correction of (X, U) so AX + BU = XF holds exactly.

    The linear system may be singular (A and F share the boundary
    eigenvalues), so the least-squares correction removes only the
    reachable part of the residual; the original pair is kept whenever
    the correction does not actually improve it.
    """
    n, d = X.shape
    m = U.shape[0]
    resid = sys.A @ X + sys.B @ U - X @ F
    before = float(np.linalg.norm(resid))
    if before == 0.0:
        return X, U
    L = np.kron(sys.A, np.eye(d)) - np.kron(np.eye(n), F.T)
    blocks = [L] + ([np.kron(sys.B, np.eye(d))] if m else [])
    coef = np.hstack(blocks)
    delta, *_ = np.linalg.lstsq(coef, -resid.reshape(-1), rcond=None)
    Xn = X + delta[:n * d].reshape(n, d)
    Un = U + delta[n * d:].reshape(m, d) if m else U
    after = float(np.linalg.norm(sys.A @ Xn + sys.B @ Un - Xn @ F))
    if after < before:
        return Xn, Un
    return X, U


# ---------------------------------------------------------------------------
# stage 4: eigen grouping


def _orthonormal_basis(cols: np.ndarray, real: bool) -> np.ndarray:
    """Orthonormal basis of span(cols); real basis for real eigenspaces."""
    mult = cols.shape[1]
    if real:
        stacked = np.hstack([cols.real, cols.imag])
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        return u[:, :mult].astype(complex)
    u, _, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :mult]


def _normalize_phase(W: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    W = W.copy()
    for k in range(W.shape[1]):
        j = int(np.argmax(np.abs(W[:, k])))
        pivot = W[j, k]
        if abs(pivot) > 0:
            W[:, k] = W[:, k] * (pivot.conjugate() / abs(pivot))
    return W


def eigen_group(F: np.ndarray) -> list[EigenGroup]:
    """Cluster the unitary eigendecomposition of an orthogonal F by angle.

    Groups are ordered by increasing angle in [0, 2*pi); angles within
    ``ANGLE_TOL`` of each other are merged (including across the wrap
    at 2*pi).  Conjugate groups share exactly conjugated bases, and
    eigenspaces at angles 0 and pi get real bases.  A between-group gap
    within ten times the tolerance triggers a warning but keeps the
    finer grouping.
    """
    F = np.asarray(F, dtype=float)
    d = F.shape[0]
    if d == 0:
        return []
    if float(np.linalg.norm(F.T @ F - np.eye(d), 2)) > UNITARY_TOL:
        raise ValueError("transition factor is not orthogonal")
    w, V = np.linalg.eig(F)
    V = V.astype(complex)
    ang = np.mod(np.angle(w), _TWO_PI)
    order = np.argsort(ang, kind="stable")
    ang = ang[order]
    V = V[:, order]

    clusters: list[list[int]] = [[0]]
    for k in range(1, d):
        if ang[k] - ang[clusters[-1][-1]] <= ANGLE_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    shift = np.zeros(d)
    if len(clusters) > 1 and (_TWO_PI - ang[clusters[-1][0]]) + ang[0] <= ANGLE_TOL:
        tail = clusters.pop()
        shift[tail] = -_TWO_PI
        clusters[0] = tail + clusters[0]

    if len(clusters) > 1:
        centers = sorted(float(np.mean(ang[c] + shift[c])) % _TWO_PI
                         for c in clusters)
        gaps = [b - a for a, b in zip(centers, centers[1:])]
        gaps.append(_TWO_PI - centers[-1] + centers[0])
        tight = [g for g in gaps if ANGLE_TOL < g <= 10 * ANGLE_TOL]
        if tight:
            warnings.warn(
                "eigenvalue clustering gap "
                f"{min(tight):.2e} is close to the tolerance "
                f"{ANGLE_TOL:.2e}; keeping the finer grouping",
                RuntimeWarning, stacklevel=2)

    raw: list[tuple[float, np.ndarray]] = []
    for c in clusters:
        theta = float(np.mean(ang[c] + shift[c])) % _TWO_PI
        self_conj = min(theta, _TWO_PI - theta) <= ANGLE_TOL or \
            abs(theta - np.pi) <= ANGLE_TOL
        if self_conj:
            theta = 0.0 if min(theta, _TWO_PI - theta) <= ANGLE_TOL else float(np.pi)
        W = _normalize_phase(_orthonormal_basis(V[:, c], real=self_conj))
        raw.append((theta, W))
    raw.sort(key=lambda item: item[0])

    # Enforce exact conjugate pairing: bases above pi mirror their partner.
    groups: list[EigenGroup] = []
    for theta, W in raw:
        if theta > np.pi + ANGLE_TOL:
            partner = _TWO_PI - theta
            near = [g for g in groups
                    if abs(g.theta - partner) <= 10 * ANGLE_TOL]
            if near:
                best = min(near, key=lambda g: abs(g.theta - partner))
                W = best.W.conj()
                theta = _TWO_PI - best.theta
        groups.append(EigenGroup(theta=theta, W=W))

    basis = np.hstack([g.W for g in groups])
    if float(np.linalg.norm(basis.conj().T @ basis - np.eye(d), 2)) > UNITARY_TOL:
        raise ValueError("eigenvector groups failed to form a unitary basis")
    groups.sort(key=lambda g: g.theta)
    return groups


def verify_groups(modes: WorstCaseModes) -> str:
    """Re-check recorded eigen-groups against the transition factor F.

    Returns an empty string when the group bases together form an
    orthonormal basis of C^d within ``UNITARY_TOL``; each group spans an
    eigenspace of ``F`` at its angle, with ``F W - e^{i theta} W`` at
    most ``multiplicity * ANGLE_TOL`` (an ``eigen_group`` cluster chains
    angles ``ANGLE_TOL`` apart, and its angle may snap to 0 or pi); and
    the angles lie more than ``ANGLE_TOL`` apart on the circle.  Both
    residuals are Frobenius norms, never below the 2-norms that
    ``eigen_group`` bounds.  Otherwise returns a description of the
    defect.  Used to re-verify recorded witnesses; a non-orthogonal
    ``F`` fails here rather than raising.
    """
    d, groups = modes.d, modes.groups
    basis = np.hstack([g.W for g in groups] + [np.zeros((d, 0))])
    if basis.shape[1] != d or \
            not np.linalg.norm(basis.conj().T @ basis - np.eye(d)) <= UNITARY_TOL:
        return "eigen-group bases do not form an orthonormal basis of C^d"
    thetas = [g.theta for g in groups]
    ks = [g.multiplicity for g in groups]
    resid = modes.F @ basis - basis * np.repeat(np.exp(1j * np.array(thetas)), ks)
    col = 0
    for j, (theta, k) in enumerate(zip(thetas, ks)):
        r = float(np.linalg.norm(resid[:, col:col + k]))
        col += k
        if not r <= ANGLE_TOL * k:
            return (f"group {j} is not an eigenspace of F at angle "
                    f"{theta:.9g} (residual {r:.3e})")
    angles = sorted(theta % _TWO_PI for theta in thetas)
    wrapped = [a + _TWO_PI for a in angles[:1]]
    if any(b - a <= ANGLE_TOL for a, b in zip(angles, angles[1:] + wrapped)):
        return "two eigen-groups share an angle"
    return ""


# ---------------------------------------------------------------------------
# stage 5: technical condition


def _group_sum_matrices(modes: WorstCaseModes) -> list[np.ndarray]:
    """Hermitian matrices sum_j P_j H_i P_j, one per constraint."""
    projectors = [g.projector() for g in modes.groups]
    out = []
    for Hi in modes.H:
        S = np.zeros_like(projectors[0]) if projectors else np.zeros((modes.d, modes.d))
        S = S.astype(complex)
        for P in projectors:
            S = S + P @ Hi @ P
        out.append(S)
    return out


def _condition_slacks(modes: WorstCaseModes, v: np.ndarray) -> np.ndarray:
    """Group-projected quadratic forms v' (sum_j P_j H_i P_j) v."""
    return np.array([float((v @ S @ v).real) for S in _group_sum_matrices(modes)])


def verify_direction(modes: WorstCaseModes, v: np.ndarray) -> str:
    """Re-check a direction against the group-wise sign condition.

    Returns an empty string when ``v`` is finite, has ``Xv`` outside the
    null space of ``X``, and every group-projected constraint form is
    nonnegative within tolerance; otherwise a description of the defect.
    Used to re-verify recorded witnesses without re-solving anything.
    """
    if v is None or not np.all(np.isfinite(v)):
        return "direction is not finite"
    xnorm = float(np.linalg.norm(modes.X @ v))
    if xnorm < 1e-8:
        return f"direction lies in the null space of X (|Xv| = {xnorm:.1e})"
    slacks = _condition_slacks(modes, v)
    if slacks.size and float(slacks.min()) < -1e-8:
        return f"projected constraint form is negative ({float(slacks.min()):.3e})"
    return ""


def technical_condition(modes: WorstCaseModes, *,
                        solver=None) -> tuple[np.ndarray, str]:
    """Find a real direction v with Xv != 0 passing the sign condition.

    Tried in order: the rank-one case (v = 1); all transition
    eigenvalues distinct (v = sum of the group basis columns, made real
    by conjugate pairing); no constraints at all (any direction outside
    the null space of X works, the leading right singular vector is
    used); and finally a trace-minimization relaxation over PSD V with
    trace(V X'X) = 1, accepted only when its optimum is rank one.
    Every candidate is re-verified directly before being returned as
    ``(v, method)``; when none passes, raises ``ValueError`` listing why
    each candidate failed.
    """
    failures: list[str] = []

    def accept(v, method):
        defect = verify_direction(modes, v)
        if defect:
            failures.append(f"{method}: {defect}")
            return None
        return v, method

    if modes.d == 1:
        got = accept(np.ones(1), "rank-one")
        if got:
            return got

    if all(g.multiplicity == 1 for g in modes.groups) and \
            len(modes.groups) == modes.d and modes.d >= 1:
        v = np.zeros(modes.d, dtype=complex)
        for g in modes.groups:
            v = v + g.W[:, 0]
        if float(np.linalg.norm(v.imag)) <= 1e-10 * max(1.0, float(np.linalg.norm(v.real))):
            got = accept(v.real.copy(), "distinct-eigenvalues")
            if got:
                return got
        else:
            failures.append("distinct-eigenvalues: basis sum is not real")

    if not modes.H and modes.d >= 1:
        # The sign condition is vacuous; only Xv != 0 is needed.
        _, _, vt = np.linalg.svd(modes.X, full_matrices=False)
        if vt.shape[0]:
            got = accept(vt[0], "unconstrained")
            if got:
                return got

    try:
        v = _relaxed_direction(modes, solver)
    except ValueError as err:
        failures.append(f"relaxation: {err}")
    else:
        got = accept(v, "relaxation")
        if got:
            return got
    raise ValueError("; ".join(failures))


def _relaxed_direction(modes: WorstCaseModes, solver) -> np.ndarray:
    """Trace-minimizing PSD relaxation of the sign condition.

    Minimizes trace(V) over V >= 0 with trace(V X'X) = 1 and
    trace(V K_i) >= 0, where K_i is the real symmetric part of the
    group-projected constraint matrix (exact for quadratic forms in a
    real direction).  Only a rank-one optimum is converted back into a
    direction; anything else raises ``ValueError``.
    """
    d = modes.d
    XtX = modes.X.T @ modes.X
    mats = [0.5 * (S.real + S.real.T) for S in _group_sum_matrices(modes)]
    E = svec_basis(d)
    pb = SdpProblem()
    pb.add_sym_var("V", d)
    pb.minimize([("V", np.trace(E, axis1=1, axis2=2))])
    pb.add_psd(d, None, [("V", E)], label="V_psd")
    for i, K in enumerate(mats):
        pb.add_scalar_ineq(0.0, [("V", np.tensordot(E, K))], label=f"group{i}")
    pb.add_scalar_eq(-1.0, [("V", np.tensordot(E, XtX))])
    sol = (solver or solve)(pb)
    if sol.status == "infeasible" or "V" not in sol.values:
        raise ValueError("the relaxed sign-condition program is infeasible")
    V = symmetrize(np.asarray(sol.values["V"]), name="V")
    if not np.all(np.isfinite(V)):
        raise ValueError("solver returned non-finite values")
    w, vecs = np.linalg.eigh(V)
    top = float(w[-1])
    total = float(np.trace(V))
    if total <= 0 or top < (1.0 - 1e-6) * total:
        raise ValueError(f"relaxation optimum is not rank one (top eigenvalue "
                         f"carries {top / max(total, 1e-300):.6f} of the trace)")
    v = vecs[:, -1] * np.sqrt(max(top, 0.0))
    xnorm = float(np.linalg.norm(modes.X @ v))
    if xnorm > 0:
        v = v / xnorm
    return v


# ---------------------------------------------------------------------------
# stage 6: trajectory and derived quantities


def mode_orbit(modes: WorstCaseModes, horizon: int,
               growth: float = 1.0) -> tuple[np.ndarray, Trajectory]:
    """Rows z_k = F^k v, k = 0..horizon, and the orbit growth^k [X; U] z_k.

    For ``growth > 1`` the horizon is cut to
    ``max(floor(GROWTH_LOG_CAP / ln growth), 1)`` steps; callers compare
    the orbit's length with the horizon they asked for.  All three are
    column-major (transposes of C-ordered arrays).  Block doubling: from
    column 0 = v, each K = 1, 2, 4, ... sets columns K:2K to F^K times
    columns :K (cut at the horizon), then squares F^K.  einsum, unlike BLAS,
    rounds a one-column block as a wider one, so a shorter orbit is a
    bit-for-bit prefix of a longer one.  Over 10^4 steps the rows stay
    within 1e-12 |v| of an extended-precision loop (orthogonal F, d <= 6).
    """
    if modes.v is None:
        raise ValueError("modes carry no direction v")
    if growth > 1.0:
        horizon = min(horizon, max(int(GROWTH_LOG_CAP / np.log(growth)), 1))
    Zt = np.empty((modes.d, horizon + 1))
    Zt[:, 0] = modes.v
    Fk, k = modes.F, 1
    while k <= horizon:
        m = min(k, horizon + 1 - k)
        np.einsum("ij,jk->ik", Fk, Zt[:, :m], out=Zt[:, k:k + m])
        Fk, k = Fk @ Fk, 2 * k
    states = modes.X @ Zt
    inputs = modes.U @ Zt[:, :horizon]
    if growth != 1.0:
        weights = growth ** np.arange(horizon + 1)
        states *= weights
        inputs *= weights[:horizon]
    return Zt.T, Trajectory(states=states.T, inputs=inputs.T)


def build_trajectory(modes: WorstCaseModes, horizon: int,
                     growth: float = 1.0) -> Trajectory:
    """The orbit [x_k; u_k] = growth^k [X; U] F^k v; see ``mode_orbit``."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return mode_orbit(modes, horizon, growth)[1]


def iqc_sum_lower_bound(modes: WorstCaseModes) -> np.ndarray:
    """Uniform lower bound on every constraint partial sum of the orbit.

    Cross-frequency terms are geometric sums, bounded by
    2 / |1 - e^{i(theta_l - theta_j)}| each; the same-frequency part is
    nonnegative by the sign condition, so the bound holds for every
    horizon.  A single eigen-group has no cross terms and the bound
    degenerates to zero.
    """
    if modes.v is None:
        raise ValueError("modes carry no direction v")
    v = np.asarray(modes.v, dtype=float)
    projectors = [g.projector() for g in modes.groups]
    right = [P @ v for P in projectors]        # P_l v
    left = [v @ P for P in projectors]         # v' P_j, plain transpose
    thetas = [g.theta for g in modes.groups]
    out = np.zeros(len(modes.H))
    for i, Hi in enumerate(modes.H):
        bound = 0.0
        for j in range(len(modes.groups)):
            for l in range(len(modes.groups)):
                if j == l:
                    continue
                term = complex(left[j] @ (Hi @ right[l]))
                denom = abs(1.0 - np.exp(1j * (thetas[l] - thetas[j])))
                if denom > 0:
                    bound -= abs(term) * 2.0 / denom
        out[i] = bound
    return out


def feedback_gain(modes: WorstCaseModes) -> np.ndarray | None:
    """Static gain K with u_k = K x_k along the orbit, when X allows it.

    Present when X has full column rank (then K = U X^+ reproduces U
    exactly); absent otherwise.  With no inputs the gain is the empty
    0 x n matrix, which is trivially consistent.
    """
    n = modes.X.shape[0]
    m = modes.U.shape[0]
    if m == 0:
        return np.zeros((0, n))
    sv = np.linalg.svd(modes.X, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0 or sv[-1] <= 1e-8 * sv[0]:
        return None
    K = modes.U @ np.linalg.pinv(modes.X)
    if float(np.linalg.norm(modes.U - K @ modes.X)) > 1e-6 * (1.0 + float(np.linalg.norm(modes.U))):
        return None
    return K


def _constraint_forms(X: np.ndarray, U: np.ndarray,
                      iqcs: IqcSet) -> tuple[np.ndarray, ...]:
    """H_i = [X; U]' M_i [X; U], symmetrized.  The pipeline and a report's
    reader both form them here, so a re-derived shift is bit-identical."""
    Z = np.vstack([X, U])
    return tuple(0.5 * (G + G.T) for G in (Z.T @ M @ Z for M in iqcs))


def _shift_scale(modes: WorstCaseModes, M: np.ndarray) -> float:
    """``||[X; U]||_2^2 ||M||_2``, the size at which H was rounded (inf
    past the float range)."""
    z = float(np.linalg.norm(np.vstack([modes.X, modes.U]), 2))
    return z * z * float(np.linalg.norm(M, 2))


def _shift_from_rows(Z: np.ndarray, H: np.ndarray, scale: float) -> int | None:
    """The scan of ``hard_iqc_shift`` over the orbit rows ``Z[:SHIFT_WINDOW]``
    (copied to the layout ``mode_orbit`` gives, so the sums round alike)."""
    Z = np.asfortranarray(Z[:SHIFT_WINDOW])
    sums = np.cumsum(_row_forms(Z, H))
    tol = SHIFT_RTOL * scale * float(np.einsum("ki,ki->", Z, Z))
    n_star = int(np.argmax(sums <= sums.min() + tol)) + 1
    if n_star > SHIFT_WINDOW - max(1, SHIFT_WINDOW // 10):
        return None
    return n_star


def hard_iqc_shift(modes: WorstCaseModes,
                   scale: float | None = None) -> int | None:
    """Start offset making the single constraint's partial sums nonnegative.

    Scans the partial sums over horizons 1..SHIFT_WINDOW and returns the
    first horizon whose sum lies within the rounding tolerance
    ``SHIFT_RTOL * scale * sum_k |z_k|^2`` of the minimum, provided it lies
    outside the trailing tenth of the window (a minimum at the edge cannot
    be certified: the sums may keep decreasing).  ``scale`` is the size at
    which H was formed, ``_shift_scale``; by default ``||H||``.
    Requires exactly one constraint matrix.
    """
    if len(modes.H) != 1:
        raise ValueError("the shift argument applies to exactly one constraint")
    if scale is None:
        scale = float(np.linalg.norm(modes.H[0], 2))
    Z, _ = mode_orbit(modes, SHIFT_WINDOW - 1)
    return _shift_from_rows(Z, modes.H[0], scale)


def pointwise_check(modes: WorstCaseModes) -> bool:
    """Whether every constraint holds at each step, not just in sums.

    True exactly for rank-one witnesses (the factor columns are vectors,
    so the trace inequality is already the pointwise one); re-verified
    numerically along the first ``POINTWISE_HORIZON`` steps of the orbit.
    """
    if modes.d != 1:
        return False
    if modes.v is None or not modes.H:
        return modes.v is not None
    Z, _ = mode_orbit(modes, POINTWISE_HORIZON - 1)
    for Hi in modes.H:
        per_step = _row_forms(Z, Hi)
        tol = 1e-8 * (1.0 + float(np.max(np.abs(per_step), initial=0.0)))
        if not float(per_step.min(initial=0.0)) >= -tol:     # NaN fails too
            return False
    return True


# ---------------------------------------------------------------------------
# the full pipeline


def build_witness(sys: SystemData, iqcs: IqcSet | None = None, *,
                  rho: float = 1.0, horizon: int = 300,
                  bisect_tol: float = 1e-6, solver=None,
                  radius_cert=None) -> WitnessOutcome:
    """Run the witness pipeline and return the orbit or the failing stage.

    ``rho`` is the radius the caller established (1 for the stability
    boundary).  Above one the system is rescaled by 1/rho and the orbit
    re-inflated geometrically, which preserves the dynamics exactly but
    is only offered without constraint matrices (their partial sums do
    not survive the growth weighting).  ``radius_cert`` is the radius
    certificate when the caller already searched; without one the radius
    is recomputed.  Either way it must match ``rho`` with attainment.

    A ``horizon`` below one raises ``ValueError`` before any solve.  After
    the radius precheck every stage fails by raising ``ValueError``, and
    one handler returns its reason under the stage's name; failures from
    the technical condition on also carry the modes built so far.  The
    witness is accepted only when ``verify.check_witness`` passes it; a
    failed re-check fails trajectory assembly and names the failed tests.
    """
    from .verify import check_witness

    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    iqcs.check_matches(sys)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    def fail(stage, reason, modes=None):
        return WitnessOutcome(ok=False, stage=stage, reason=reason, modes=modes)

    if not np.isfinite(rho) or rho <= 0:
        return fail("radius-precheck", f"radius {rho} is not a positive number")

    if sys.m > 0:
        sv = np.linalg.svd(sys.B, compute_uv=False)
        if sv[0] <= 0 or sv[-1] <= 1e-10 * sv[0]:
            return fail("radius-precheck",
                        "input matrix is not full column rank, which the "
                        "factorization argument requires")

    at_boundary = abs(rho - 1.0) <= max(100.0 * bisect_tol, 1e-9)
    if not at_boundary and rho < 1.0:
        return fail("radius-precheck",
                    f"radius {rho:.6g} is below one; no non-vanishing witness exists")
    if not at_boundary and len(iqcs) > 0:
        return fail("radius-precheck",
                    "witness construction needs radius one: constraint "
                    "partial sums do not transfer across the geometric "
                    "growth weighting")

    if radius_cert is None:
        from .radius import RHO_MAX_LIMIT, spectral_radius
        radius_cert = spectral_radius(sys, iqcs, bisect_tol=bisect_tol,
                                      rho_max=min(max(1e3, 2.0 * rho),
                                                  RHO_MAX_LIMIT),
                                      solver=solver)
    found = radius_cert.rho
    if not np.isfinite(found) or \
            abs(found - rho) > max(10.0 * bisect_tol * max(1.0, rho), 1e-9):
        got = f"{found:.6g}" if np.isfinite(found) else "no certificate"
        return fail("radius-precheck",
                    f"computed radius ({got}) does not match the "
                    f"requested {rho:.6g}")
    if not radius_cert.attained:
        return fail("radius-precheck",
                    "margin optimum is not attained at the radius; the "
                    "factorization argument needs attainment")

    growth = 1.0 if at_boundary else float(rho)
    wsys = sys if at_boundary else SystemData(A=sys.A / growth, B=sys.B / growth)

    stage, modes = "dual-extraction", None
    try:
        Q = extract_dual_witness(wsys, iqcs, solver=solver)

        stage = "rank-factorization"
        X, U, d = rank_factor(Q, sys.n)

        stage = "orthogonal-factor"
        G = wsys.A @ X + wsys.B @ U
        F = recover_orthogonal_factor(X, G)
        residual = float(np.linalg.norm(X @ F - G))
        if residual > 1e-4 * (1.0 + float(np.linalg.norm(G))):
            raise ValueError(f"dual witness inconsistent: the stationary factor "
                             f"misses an orthogonal transition by {residual:.3e}")
        X, U = _repair_factor(wsys, X, U, F)
        H = _constraint_forms(X, U, iqcs)

        stage = "eigen-grouping"
        groups = tuple(eigen_group(F))
        modes = WorstCaseModes(Q=Q, d=d, X=X, U=U, F=F, groups=groups, H=H)

        stage = "technical-condition"
        modes = replace(modes, v=technical_condition(modes, solver=solver)[0])

        stage = "trajectory-assembly"
        traj = build_trajectory(modes, horizon, growth)
        notes: list[str] = []
        if len(traj) < horizon:
            notes.append(SHORTENED_NOTE.format(len(traj)))
        gain = feedback_gain(modes)
        if gain is None:
            notes.append("no static gain: the state factor is column rank deficient")
        shift = None
        if len(iqcs) == 1:
            shift = hard_iqc_shift(modes, _shift_scale(modes, iqcs.entries[0]))
            if shift is None:
                notes.append("no certified shift: the constraint partial sums "
                             "keep decreasing through the scan window")
        report = WitnessReport(modes=modes, gain=gain,
                               iqc_lower_bounds=iqc_sum_lower_bound(modes),
                               hard_shift=shift, pointwise=pointwise_check(modes),
                               growth=growth, notes=tuple(notes))
        check = check_witness(sys, report, iqcs)
        if not check.ok:
            raise ValueError("witness re-check failed: " + ", ".join(check.failed))
    except ValueError as err:
        reason = str(err)
        if stage == "technical-condition":
            reason = f"sign condition not certified ({reason})"
        return fail(stage, reason, modes)

    return WitnessOutcome(ok=True, stage="complete", reason="", report=report,
                          trajectory=traj, modes=modes, check=check)
