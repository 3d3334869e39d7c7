"""Worst-case witness construction at the stability boundary.

When the feasibility radius equals one and the margin optimum is
attained, the stationary dual matrix Q (positive semidefinite, trace
one, annihilated by the adjoint Lyapunov map, with nonnegative pairing
against every constraint matrix) factors as Q = [X; U][X; U]' with an
orthogonal transition F satisfying AX + BU = XF.  The orbit
[x_k; u_k] = [X; U] F^k v then solves the dynamics exactly, never
converges to zero, and keeps every constraint partial sum bounded
below, provided the direction v passes a group-wise sign condition.
That direction is found by eigenvalue computations alone: the sum of the
eigen-group basis columns when every eigenvalue of F is simple, else the
top eigenvector of a weighted sum of the group-projected constraint forms
(exact for one constraint, where a negative top eigenvalue proves that
no direction exists).  The only program solved is the dual extraction.

``build_witness`` runs the pipeline end to end and stops with a reason
at the first stage that cannot be certified: radius precheck, dual
extraction, rank factorization, orthogonal factor, eigen grouping,
technical condition, trajectory assembly.  Every stage after the radius
precheck fails one way: it raises ``ValueError`` with the reason, and
``build_witness`` alone turns that into a ``WitnessOutcome`` naming the
stage.  The last stage walks one orbit and accepts a witness by the tests
of ``verify.check_witness``, which ``verify`` runs on a report; a failed
check downgrades the outcome rather than weakening the claim.
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
    "build_witness",
    "eigen_group",
    "extract_dual_witness",
    "feedback_gain",
    "iqc_sum_lower_bound",
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
# A group-projected constraint form may fall this far below zero.
FORM_TOL = 1e-8
# Weight updates of the sign-condition eigenvalue search.
SEARCH_STEPS = 300
# A growth orbit stops before growth ** k passes exp(GROWTH_LOG_CAP), so
# its states and their squared norms stay inside the float range.
GROWTH_LOG_CAP = 300.0
# The stages ``build_witness`` names: the one that stopped it, or "complete".
STAGES = ("radius-precheck", "dual-extraction", "rank-factorization",
          "orthogonal-factor", "eigen-grouping", "technical-condition",
          "trajectory-assembly", "complete")


def _below_one(rho: float, bisect_tol: float) -> bool:
    """Below one by more than ``bisect_tol``: ``classify`` calls such a
    radius stable, and ``build_witness`` refuses it."""
    return rho < 1.0 - bisect_tol


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
    ``build_witness`` walked, and ``verify.check_witness`` walks the same
    orbit again from the modes."""

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


def _sign_forms(modes: WorstCaseModes) -> list[np.ndarray]:
    """K_i, the real symmetric part of sum_j P_j H_i P_j, one per constraint:
    for a real direction v, v' K_i v is the group-projected form of H_i."""
    projectors = [g.projector() for g in modes.groups]
    out = []
    for Hi in modes.H:
        R = sum((P @ Hi @ P for P in projectors), np.zeros((modes.d, modes.d))).real
        out.append(0.5 * (R + R.T))
    return out


def _direction_defect(X: np.ndarray, K: list[np.ndarray], v: np.ndarray) -> str:
    """``verify_direction`` on the forms ``K`` of ``_sign_forms``."""
    if v is None or not np.all(np.isfinite(v)):
        return "direction is not finite"
    xnorm = float(np.linalg.norm(X @ v))
    if xnorm < 1e-8:
        return f"direction lies in the null space of X (|Xv| = {xnorm:.1e})"
    slack = min((float(v @ Ki @ v) for Ki in K), default=0.0)
    if slack < -FORM_TOL:
        return f"projected constraint form is negative ({slack:.3e})"
    return ""


def verify_direction(modes: WorstCaseModes, v: np.ndarray) -> str:
    """Re-check a direction against the group-wise sign condition.

    Returns an empty string when ``v`` is finite, has ``Xv`` outside the
    null space of ``X``, and every group-projected constraint form is
    nonnegative within ``FORM_TOL``; otherwise a description of the
    defect.  Used to re-verify recorded witnesses without re-solving
    anything.
    """
    return _direction_defect(modes.X, _sign_forms(modes), v)


def _basis_sum(modes: WorstCaseModes) -> np.ndarray:
    """Sum of the group basis columns when every eigenvalue of F is simple:
    real by conjugate pairing, with forms v' K_i v = trace(H_i), and
    v = [1] at d = 1."""
    if any(g.multiplicity > 1 for g in modes.groups):
        raise ValueError("an eigenvalue of F is repeated")
    v = sum(g.W[:, 0] for g in modes.groups)
    if float(np.linalg.norm(v.imag)) > 1e-10 * max(1.0, float(np.linalg.norm(v.real))):
        raise ValueError("basis sum is not real")
    return v.real.copy()


def _eigen_search(X: np.ndarray, K: list[np.ndarray]) -> np.ndarray:
    """Unit top eigenvector of sum_i mu_i K_i, with mu on the simplex
    chosen to lower that top eigenvalue.

    Every unit v has min_i v' K_i v <= lambda_max(sum_i mu_i K_i), so a
    top eigenvalue below ``-FORM_TOL`` at any mu proves that no direction
    exists, and raises ``ValueError`` saying so.  With one constraint the
    single ``eigh`` decides; with several, ``SEARCH_STEPS``
    exponentiated-subgradient steps move weight onto the forms the
    current eigenvector leaves negative, stopping at the first vector
    that passes the sign condition, else returning the last one.  With no
    constraints the condition is vacuous and the top right singular
    vector of X (largest |Xv|) is returned.
    """
    if not K:
        return np.linalg.svd(X, full_matrices=False)[2][0]
    scale = max(float(np.linalg.norm(Ki, 2)) for Ki in K) or 1.0
    mu = np.full(len(K), 1.0 / len(K))
    for t in range(SEARCH_STEPS if len(K) > 1 else 1):
        w, V = np.linalg.eigh(sum(m * Ki for m, Ki in zip(mu, K)))
        if w[-1] < -FORM_TOL:
            raise ValueError(
                "no direction exists: the weighted constraint form "
                f"sum_i mu_i K_i is negative definite (top eigenvalue "
                f"{w[-1]:.3e} at mu = {np.array2string(mu, precision=3)})")
        v = V[:, -1]
        if not _direction_defect(X, K, v):
            return v
        forms = np.array([float(v @ Ki @ v) for Ki in K])
        mu = mu * np.exp(-forms / (scale * np.sqrt(t + 1.0)))
        mu = mu / mu.sum()
    return v


def technical_condition(modes: WorstCaseModes) -> tuple[np.ndarray, str]:
    """Find a real direction v with Xv != 0 passing the sign condition.

    Two candidates, in order: ``_basis_sum`` ("distinct-eigenvalues")
    and ``_eigen_search`` ("eigenvalue-search", exact for one constraint
    and for none).  A candidate is accepted only by the test of
    ``verify_direction`` and returned as ``(v, method)``; when neither
    passes, raises ``ValueError`` saying why each failed.  No program is
    solved.
    """
    K = _sign_forms(modes)
    failures: list[str] = []
    candidates = (("distinct-eigenvalues", lambda: _basis_sum(modes)),
                  ("eigenvalue-search", lambda: _eigen_search(modes.X, K)))
    for method, candidate in candidates:
        try:
            v = candidate()
            defect = _direction_defect(modes.X, K, v)
        except ValueError as err:
            defect = str(err)
        if not defect:
            return v, method
        failures.append(f"{method}: {defect}")
    raise ValueError("; ".join(failures))


# ---------------------------------------------------------------------------
# stage 6: the orbit, its sum bounds and feedback gain


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
    reader both form them here, so their sign-condition checks agree."""
    Z = np.vstack([X, U])
    return tuple(0.5 * (G + G.T) for G in (Z.T @ M @ Z for M in iqcs))


# ---------------------------------------------------------------------------
# the full pipeline


def build_witness(sys: SystemData, iqcs: IqcSet | None = None, *,
                  rho: float = 1.0, bisect_tol: float = 1e-6, solver=None,
                  radius_cert=None) -> WitnessOutcome:
    """Run the witness pipeline and return the orbit or the failing stage.

    ``rho`` is the radius the caller established (1 for the stability
    boundary).  A radius below one (``_below_one``) is refused, and one
    within ``max(100 * bisect_tol, 1e-9)`` of one counts as one.  Above
    that band the system is rescaled by 1/rho and the orbit re-inflated
    geometrically, which preserves the dynamics exactly but is only
    offered without constraint matrices (their partial sums do not
    survive the growth weighting).  ``radius_cert`` is the radius
    certificate when the caller already searched; without one the radius
    is recomputed.  Either way it must match ``rho`` with attainment.

    After the radius precheck every stage fails by raising ``ValueError``,
    and one handler returns its reason under the stage's name; failures
    from the technical condition on also carry the modes built so far.
    Trajectory assembly walks the orbit ``verify.check_witness`` walks,
    takes ``hard_shift`` and ``pointwise`` from that walk (read off its
    per-step constraint forms), accepts the witness by that function's
    tests (naming any that fail) and returns the orbit.
    """
    from .verify import _judge, _walk

    iqcs = iqcs if iqcs is not None else IqcSet.empty(sys.n + sys.m)
    iqcs.check_matches(sys)

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

    if _below_one(rho, bisect_tol):
        return fail("radius-precheck",
                    f"radius {rho:.6g} is below one; no non-vanishing witness exists")
    at_boundary = abs(rho - 1.0) <= max(100.0 * bisect_tol, 1e-9)
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
        modes = replace(modes, v=technical_condition(modes)[0])

        stage = "trajectory-assembly"
        walk = _walk(sys, modes, growth, iqcs)
        notes: list[str] = []
        gain = feedback_gain(modes)
        if gain is None:
            notes.append("no static gain: the state factor is column rank deficient")
        if len(iqcs) == 1 and walk.hard_shift is None:
            notes.append("no certified shift: the constraint partial sums "
                         "keep decreasing through the scan window")
        report = WitnessReport(modes=modes, gain=gain,
                               iqc_lower_bounds=iqc_sum_lower_bound(modes),
                               hard_shift=walk.hard_shift, growth=growth,
                               pointwise=walk.pointwise, notes=tuple(notes))
        check = _judge(report, walk)
        if not check.ok:
            raise ValueError("witness re-check failed: " + ", ".join(check.failed))
    except ValueError as err:
        reason = str(err)
        if stage == "technical-condition":
            reason = f"sign condition not certified ({reason})"
        return fail(stage, reason, modes)

    return WitnessOutcome(ok=True, stage="complete", reason="", report=report,
                          trajectory=walk.trajectory, modes=modes, check=check)
