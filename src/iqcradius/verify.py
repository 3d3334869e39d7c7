"""Independent re-checks of certificates, witnesses, and trajectories.

Everything the rest of the package produces can be re-verified here
without trusting the solver that produced it: Lyapunov descent along a
trajectory, constraint partial sums against their recorded lower
bounds, witness orbit properties, and a growth test.  All checks are
plain linear algebra over the reported data.

The Lyapunov function along a trajectory is

    V_k = x_k' P x_k + sum_i lambda_i * S_i(k),

where ``S_i(k)`` is the running constraint sum over steps j < k, and
its one-step difference obeys the algebraic identity

    V_{k+1} - V_k = [x_k; u_k]' (L_1(P) + sum_i lambda_i M_i) [x_k; u_k].

``lyapunov_trace`` evaluates both sides and reports their agreement.

The one-step dynamics residual and its tolerance live in ``model``
(``_residual_and_state_norms``, ``DYNAMICS_RTOL``) and the orbit generator in
``worstcase`` (``mode_orbit``), shared with the witness pipeline.
``check_witness``, the one test that accepts a witness, walks the orbit
over ``CHECK_HORIZON`` steps once (``_walk``, the only ``mode_orbit`` call)
and judges it (``_judge``); ``worstcase.build_witness`` runs both and
returns that orbit.  The walk forms each constraint once per step on
``[x_k; u_k]``; the partial sums, the hard shift and the pointwise flag
are all read off those forms.  Row forms and norms use ``model``'s
column-major kernels.

The growth test states a horizon-bounded fact only (a half-versus-half
comparison of state norms); a finite trajectory cannot certify a limit,
so no field here claims one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    DYNAMICS_RTOL,
    DimensionMismatchError,
    IqcSet,
    SystemData,
    Trajectory,
    _residual_and_state_norms,
    _row_forms,
    _row_norms,
    iqc_partial_sums,
    margin_matrix,
)
from .radius import RadiusCertificate
from .worstcase import (WitnessReport, WorstCaseModes, mode_orbit,
                        verify_direction, verify_groups)

__all__ = [
    "LyapunovTrace",
    "TrajectoryDiagnostics",
    "WitnessCheck",
    "lyapunov_trace",
    "strengthen_certificate",
    "trajectory_diagnostics",
    "check_witness",
]

# Steps over which a witness orbit is re-checked.
CHECK_HORIZON = 10_000
# Horizons scanned for the hard-constraint shift.
SHIFT_WINDOW = 10_000
# Partial sums within SHIFT_RTOL * ||M|| * sum_k |[x_k; u_k]|^2 of their
# minimum count as the minimum: sums that are all zero up to rounding then
# give one shift whatever the sign of that rounding.
SHIFT_RTOL = 1e-12
# Steps over which a rank-one witness is re-checked pointwise.
POINTWISE_HORIZON = 1000
# Agreement tolerance for the telescoped-versus-direct difference
# identity; it is exact algebra, so only rounding noise is allowed.
IDENTITY_RTOL = 1e-9
# Slack allowed below a recorded constraint lower bound.
IQC_SLACK = 1e-6
# Allowed drift of the orbit coefficient norm ||F^k v||.
NORM_DRIFT_TOL = 1e-9
# Relative residual allowed in the feedback relation u_k = K x_k.
GAIN_RTOL = 1e-6
# Half-versus-half norm ratio above which a trajectory counts as
# growing on the tested horizon.
GROWTH_RATIO_TOL = 1e-6
SHORTENED_NOTE = ("horizon shortened to {} steps to keep the "
                  "growth-weighted orbit finite")


@dataclass(frozen=True)
class LyapunovTrace:
    """Lyapunov values along a trajectory and the difference identity.

    ``differences`` is exactly ``values[1:] - values[:-1]``;
    ``quadratic`` is the per-step direct evaluation of the same
    difference through the rate-one inequality matrix.
    """

    values: np.ndarray        # (N+1,)
    differences: np.ndarray   # (N,)
    quadratic: np.ndarray     # (N,)
    identity_error: float
    identity_ok: bool


@dataclass(frozen=True)
class TrajectoryDiagnostics:
    """Horizon-bounded facts about one trajectory.

    ``growing`` compares the largest state norm over the second half of
    the horizon with the first half, which also catches sub-geometric
    growth.
    """

    steps: int
    dynamics_residual: float
    dynamics_ok: bool
    iqc_minima: np.ndarray    # min_N S_i(N), one per constraint
    growing: bool


@dataclass(frozen=True)
class WitnessCheck:
    """Re-verification of a witness report over a fresh, longer orbit;
    ``failed`` names the tests that did not pass."""

    ok: bool
    failed: tuple[str, ...]
    steps: int
    dynamics_residual: float
    dynamics_ok: bool
    iqc_margins: np.ndarray   # min_N S_i(N) - beta_i, one per constraint
    iqc_ok: bool
    norm_drift: float         # max_k | ||F^k v|| - ||v|| |
    norm_ok: bool
    direction_norm: float     # ||X v||, a margin of the sign condition
    condition_defect: str     # eigen-group or sign-condition defect, or ""
    gain_residual: float      # nan when the report carries no gain
    gain_ok: bool
    hard_shift: int | None    # recomputed from the orbit's constraint sums
    pointwise: bool           # recomputed from the orbit's constraint forms
    growing: bool
    notes: tuple[str, ...]


def _as_lambdas(cert: RadiusCertificate, count: int) -> np.ndarray:
    if cert.lambdas is None:
        raise ValueError("certificate carries no multipliers")
    lambdas = np.asarray(cert.lambdas, dtype=float).reshape(-1)
    if lambdas.size != count:
        raise DimensionMismatchError(
            f"certificate carries {lambdas.size} multipliers but the "
            f"constraint set has {count}")
    return lambdas


def lyapunov_trace(sys: SystemData, traj: Trajectory,
                   cert: RadiusCertificate,
                   iqcs: IqcSet | None = None) -> LyapunovTrace:
    """Evaluate V_k along ``traj`` and check the difference identity.

    Both the telescoped differences ``V_{k+1} - V_k`` and the direct
    quadratic form of the rate-one inequality matrix are computed; they
    agree up to rounding for any symmetric ``P`` and multipliers, so a
    larger discrepancy flags corrupted data.
    """
    if iqcs is None:
        iqcs = IqcSet.empty(sys.n + sys.m)
    iqcs.check_matches(sys)
    if cert.P is None:
        raise ValueError("certificate carries no P matrix to evaluate")
    P = np.asarray(cert.P, dtype=float)
    if P.shape != (sys.n, sys.n):
        raise DimensionMismatchError(
            f"certificate P has shape {P.shape}, expected "
            f"({sys.n}, {sys.n})")
    if traj.n != sys.n or traj.m != sys.m:
        raise DimensionMismatchError(
            f"trajectory dimensions (n={traj.n}, m={traj.m}) do not "
            f"match the system (n={sys.n}, m={sys.m})")
    lambdas = _as_lambdas(cert, len(iqcs))

    values = _row_forms(traj.states, P)
    for lam, sums in zip(lambdas, iqc_partial_sums(traj, iqcs)):
        values[1:] += lam * sums
    differences = values[1:] - values[:-1]

    W = margin_matrix(sys, iqcs, 1.0, P, lambdas)
    quadratic = _row_forms(traj.stacked(), W)

    err = float(np.max(np.abs(differences - quadratic)
                       / (1.0 + np.abs(quadratic)), initial=0.0))
    return LyapunovTrace(values=values, differences=differences,
                         quadratic=quadratic, identity_error=err,
                         identity_ok=err <= IDENTITY_RTOL)


def strengthen_certificate(cert: RadiusCertificate) -> RadiusCertificate:
    """Rescale a below-one certificate to a unit-decrement one.

    The feasibility program is homogeneous in ``(P, lambda)``: if the
    pair certifies rate ``r < 1`` with ``P >= I``, then the rate-one
    inequality matrix of ``(P, lambda) / (1 - r^2)`` is at most
    ``-blkdiag(I, 0)``, so the Lyapunov difference along any
    constraint-satisfying trajectory is at most ``-||x_k||^2``.
    """
    if cert.P is None or cert.lambdas is None:
        raise ValueError("certificate carries no P or multipliers to rescale")
    rate = cert.rho_cert
    if rate is None:
        raise ValueError("certificate carries no certified rate to rescale")
    if not np.isfinite(rate) or rate >= 1.0:
        raise ValueError(
            f"strengthening needs a certified rate below one, got {rate}")
    scale = 1.0 / (1.0 - rate * rate)
    return replace(cert, P=scale * np.asarray(cert.P, dtype=float),
                   lambdas=scale * np.asarray(cert.lambdas, dtype=float))


def _growing(norms: np.ndarray) -> bool:
    half = (norms.size + 1) // 2
    first, second = norms[:half], norms[half:]
    peak_first = float(first.max()) if first.size else 0.0
    peak_second = float(second.max()) if second.size else 0.0
    if peak_first > 0.0:
        return peak_second / peak_first > 1.0 + GROWTH_RATIO_TOL
    return peak_second > 0.0


def trajectory_diagnostics(sys: SystemData, traj: Trajectory,
                           iqcs: IqcSet | None = None) -> TrajectoryDiagnostics:
    """Dynamics residual, constraint sums, and the growth test for a trajectory.

    One pass of state norms serves the residual and the growth test.  A
    trajectory with no steps bounds no horizon: its ``iqc_minima`` are +inf.
    """
    if traj.n != sys.n or traj.m != sys.m:
        raise DimensionMismatchError(
            f"trajectory dimensions (n={traj.n}, m={traj.m}) do not "
            f"match the system (n={sys.n}, m={sys.m})")
    sums = iqc_partial_sums(traj, iqcs) if iqcs is not None and len(iqcs) else []
    return _diagnostics(sys, traj, sums)


def _diagnostics(sys: SystemData, traj: Trajectory,
                 sums: list[np.ndarray]) -> TrajectoryDiagnostics:
    """``trajectory_diagnostics`` given the constraint partial sums."""
    residual, norms = _residual_and_state_norms(sys, traj)
    minima = np.array([float(s.min(initial=np.inf)) for s in sums])
    return TrajectoryDiagnostics(
        steps=len(traj), dynamics_residual=residual,
        dynamics_ok=residual <= DYNAMICS_RTOL, iqc_minima=minima,
        growing=_growing(norms))


@dataclass(frozen=True)
class _Walk:
    """A witness orbit, rows ``z_k = F^k v``, and what is read off it."""

    rows: np.ndarray
    trajectory: Trajectory
    diagnostics: TrajectoryDiagnostics
    hard_shift: int | None
    pointwise: bool


def _walk(sys: SystemData, modes: WorstCaseModes, growth: float,
          iqcs: IqcSet) -> _Walk:
    """Walk the witness orbit, the package's one ``mode_orbit`` call, and
    form each constraint ``[x_k; u_k]' M_i [x_k; u_k]`` along it once.

    The forms' partial sums give the diagnostics and, for one constraint,
    the hard shift: the first horizon of the first ``SHIFT_WINDOW`` within
    ``SHIFT_RTOL ||M|| sum_k |[x_k; u_k]|^2`` of their minimum, unless it
    falls in the window's trailing tenth (the sums may keep decreasing).
    A rank-one witness (``d = 1``) meets every constraint pointwise, which
    the forms of its first ``POINTWISE_HORIZON`` steps re-check.
    """
    Z, traj = mode_orbit(modes, CHECK_HORIZON, growth)
    S = traj.stacked()
    forms = [_row_forms(S, M) for M in iqcs]
    sums = [np.cumsum(f) for f in forms]
    shift = None
    if len(iqcs) == 1:
        window, rows = sums[0][:SHIFT_WINDOW], S[:SHIFT_WINDOW]
        tol = SHIFT_RTOL * iqcs.scale() * float(np.einsum("ki,ki->", rows, rows))
        shift = int(np.argmax(window <= window.min() + tol)) + 1
        if shift > SHIFT_WINDOW - max(1, SHIFT_WINDOW // 10):
            shift = None
    pointwise = modes.d == 1
    for f in forms if pointwise else ():
        f = f[:POINTWISE_HORIZON]
        tol = 1e-8 * (1.0 + float(np.max(np.abs(f), initial=0.0)))
        pointwise = pointwise and float(f.min(initial=0.0)) >= -tol   # NaN fails
    return _Walk(rows=Z, trajectory=traj,
                 diagnostics=_diagnostics(sys, traj, sums),
                 hard_shift=shift, pointwise=pointwise)


def _judge(report: WitnessReport, walk: _Walk) -> WitnessCheck:
    """Every witness test, run on a report and the orbit walked from it."""
    modes, diag, traj = report.modes, walk.diagnostics, walk.trajectory
    notes: list[str] = []
    if len(traj) < CHECK_HORIZON:
        notes.append(SHORTENED_NOTE.format(len(traj)))

    bounds = np.asarray(report.iqc_lower_bounds, dtype=float).reshape(-1)
    margins = diag.iqc_minima - bounds
    iqc_ok = bool(np.all(np.isfinite(margins) & (margins >= -IQC_SLACK)))

    v_norm = float(np.linalg.norm(modes.v))
    drift = float(np.max(np.abs(_row_norms(walk.rows) - v_norm)))
    norm_ok = drift <= NORM_DRIFT_TOL * (1.0 + v_norm)

    direction_norm = float(np.linalg.norm(modes.X @ modes.v))
    defect = verify_groups(modes) or verify_direction(modes, modes.v)

    if report.gain is not None:
        K, U = np.asarray(report.gain, dtype=float), traj.inputs
        gain_residual = 0.0                       # no inputs: K is 0 x n
        if U.shape[1]:
            miss = K @ traj.states[:-1].T - U.T   # one column per step
            gain_residual = float(np.max(
                _row_norms(miss.T) / (1.0 + _row_norms(U))))
        gain_ok = gain_residual <= GAIN_RTOL
    else:
        gain_residual = float("nan")
        gain_ok = True
        notes.append("report carries no feedback gain; relation not checked")

    passed = {"dynamics": diag.dynamics_ok, "constraint sums": iqc_ok,
              "norm drift": norm_ok, "technical condition": not defect,
              "gain": gain_ok,
              "hard shift": report.hard_shift == walk.hard_shift,
              "pointwise": report.pointwise == walk.pointwise}
    failed = tuple(name for name, ok in passed.items() if not ok)
    return WitnessCheck(
        ok=not failed, failed=failed, steps=diag.steps,
        dynamics_residual=diag.dynamics_residual,
        dynamics_ok=diag.dynamics_ok,
        iqc_margins=margins, iqc_ok=iqc_ok,
        norm_drift=drift, norm_ok=norm_ok,
        direction_norm=direction_norm, condition_defect=defect,
        gain_residual=gain_residual, gain_ok=gain_ok,
        hard_shift=walk.hard_shift, pointwise=walk.pointwise,
        growing=diag.growing, notes=tuple(notes))


def check_witness(sys: SystemData, report: WitnessReport,
                  iqcs: IqcSet | None = None) -> WitnessCheck:
    """Re-verify a witness report over a freshly generated orbit.

    Checks, each with its margin: the orbit satisfies the dynamics; all
    constraint partial sums stay above their recorded lower bounds for
    every horizon up to ``CHECK_HORIZON`` (shortened for a growth orbit,
    with a note); the orbit coefficient norm ``||F^k v||`` is constant;
    the groups and direction pass ``verify_groups`` and the sign
    condition ``verify_direction``; a recorded feedback gain holds; and
    ``hard_shift`` and ``pointwise`` are re-derived from the per-step
    constraint forms of the orbit, the one ``build_witness`` returns.
    Failures are recorded in the result, not raised.
    """
    if iqcs is None:
        iqcs = IqcSet.empty(sys.n + sys.m)
    iqcs.check_matches(sys)
    bounds = np.asarray(report.iqc_lower_bounds, dtype=float).reshape(-1)
    if bounds.size != len(iqcs):
        raise DimensionMismatchError(
            f"report records {bounds.size} constraint bounds but the "
            f"problem supplies {len(iqcs)} constraints")
    return _judge(report, _walk(sys, report.modes, float(report.growth), iqcs))
