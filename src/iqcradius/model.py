"""Core data types and quadratic-form algebra for constrained linear systems.

This module holds the problem data shared by every other part of the
package: a discrete-time linear time-invariant system ``x_{k+1} = A x_k +
B u_k``, a family of integral quadratic constraints (IQCs) given by
symmetric matrices ``M_i`` acting on the stacked vector ``[x; u]``, and
trajectories of the system.  It also provides the Lyapunov-difference
operator

    L_rho(P) = [[A'PA - rho^2 P, A'PB], [B'PA, B'PB]]

and its adjoint ``L*(Q) = [A B] Q [A B]' - [I 0] Q [I 0]'`` with respect
to the trace inner product, and the rate-rho inequality matrix
``L_rho(P) + sum_i lambda_i M_i`` that every certificate is checked
against (``margin_matrix``), with the one test a certificate must pass
(``certificate_defect``).  Everything downstream (feasibility margins,
the radius search, witness extraction) is built from these two maps.
Per-step forms and norms of orbit rows use ``_row_forms``/``_row_norms``.

All matrices are dense 64-bit floating point.  Input dimension zero is a
first-class citizen: ``B`` may be an ``n x 0`` matrix, and every
operation works without special-casing that shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "SystemData",
    "IqcSet",
    "Trajectory",
    "quadratic_form",
    "lyapunov_operator",
    "lyapunov_adjoint",
    "margin_matrix",
    "certificate_defect",
    "iqc_partial_sums",
    "DYNAMICS_RTOL",
    "simulate",
]

# Relative asymmetry above which ingestion of an IQC matrix warns before
# symmetrizing.  Quadratic forms only see the symmetric part, so the fix
# is always (M + M') / 2; the warning flags inputs that look like bugs.
SYMMETRY_WARN_REL = 1e-9
# One-step dynamics residual, relative to the current state norm.
DYNAMICS_RTOL = 1e-8


class DimensionMismatchError(ValueError):
    """Raised when an operand's shape is inconsistent with the system."""


def _as_matrix(value, rows: int | None = None, cols: int | None = None,
               name: str = "matrix") -> np.ndarray:
    """Coerce to a float64 2-D array and optionally enforce a shape."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(len(arr), 1) if cols == 1 else arr.reshape(1, -1) if rows == 1 else arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name}: expected a 2-D matrix, got ndim={arr.ndim}")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionMismatchError(
            f"{name}: expected {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatchError(
            f"{name}: expected {cols} columns, got {arr.shape[1]}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite (found NaN or Inf)")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def symmetrize(M: np.ndarray, name: str = "M") -> np.ndarray:
    """Return the symmetric part of ``M``, warning on large asymmetry."""
    M = _as_matrix(M, name=name)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"{name}: must be square, got {M.shape}")
    if M.size:
        scale = max(1.0, float(np.linalg.norm(M)))
        asym = float(np.linalg.norm(M - M.T)) / scale
        if asym > SYMMETRY_WARN_REL:
            warnings.warn(
                f"{name} has relative asymmetry {asym:.2e}; using its "
                "symmetric part", stacklevel=3)
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class SystemData:
    """Discrete-time LTI system ``x_{k+1} = A x_k + B u_k``.

    ``B`` may be omitted for autonomous systems, in which case it is the
    ``n x 0`` matrix and the input dimension ``m`` is zero.  The state
    dimension ``n`` is at least one.
    """

    A: np.ndarray
    B: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A: must be square, got {A.shape}")
        n = A.shape[0]
        if n == 0:
            raise DimensionMismatchError("A: needs at least one state, got 0x0")
        B = self.B
        if B is None:
            B = np.zeros((n, 0))
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(n, -1) if B.size else B.reshape(n, 0)
        B = _as_matrix(B, rows=n, name="B")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def AB(self) -> np.ndarray:
        """The horizontally stacked matrix ``[A B]`` of shape n x (n+m)."""
        return np.hstack([self.A, self.B])

    def scale(self) -> float:
        """A rough magnitude of the system data, used to set tolerances."""
        s = float(np.linalg.norm(self.A, 2))
        if self.m:
            s = max(s, float(np.linalg.norm(self.B, 2)))
        return 1.0 + s * s


@dataclass(frozen=True)
class IqcSet:
    """Ordered family of symmetric (n+m) x (n+m) constraint matrices.

    Each entry defines the soft constraint ``sum_k [x_k;u_k]' M_i
    [x_k;u_k] >= beta_i`` for some finite beta_i.  The set may be empty,
    which recovers the unconstrained problem.
    """

    entries: tuple = ()
    dim: int = None  # type: ignore[assignment]

    def __post_init__(self):
        mats = []
        d = self.dim
        for idx, M in enumerate(self.entries):
            S = symmetrize(M, name=f"M[{idx}]")
            if d is None:
                d = S.shape[0]
            elif S.shape[0] != d:
                raise DimensionMismatchError(
                    f"M[{idx}]: expected size {d}x{d}, got {S.shape}")
            mats.append(_freeze(S))
        if d is None:
            raise ValueError("IqcSet needs an explicit dim when empty")
        object.__setattr__(self, "entries", tuple(mats))
        object.__setattr__(self, "dim", int(d))

    @classmethod
    def empty(cls, dim: int) -> "IqcSet":
        return cls(entries=(), dim=dim)

    @classmethod
    def from_matrices(cls, mats: Iterable, dim: int | None = None) -> "IqcSet":
        mats = tuple(mats)
        if not mats and dim is None:
            raise ValueError("IqcSet needs an explicit dim when empty")
        return cls(entries=mats, dim=dim)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def check_matches(self, sys: SystemData) -> None:
        if self.dim != sys.n + sys.m:
            raise DimensionMismatchError(
                f"IqcSet dimension {self.dim} does not match n+m="
                f"{sys.n + sys.m}")

    def scale(self) -> float:
        if not self.entries:
            return 0.0
        return max(float(np.linalg.norm(M, 2)) for M in self.entries)


@dataclass(frozen=True)
class Trajectory:
    """A finite trajectory x_0..x_N with inputs u_0..u_{N-1}."""

    states: np.ndarray   # (N+1, n)
    inputs: np.ndarray   # (N, m)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.states, dtype=float))
        u = np.asarray(self.inputs, dtype=float)
        if u.ndim == 1:
            # A list of scalars is a length-N sequence of 1-vectors; an
            # empty array means no inputs at all.
            u = u.reshape(-1, 1) if u.size else u.reshape(x.shape[0] - 1, 0)
        if x.shape[0] != u.shape[0] + 1:
            raise DimensionMismatchError(
                f"states has length {x.shape[0]} but inputs has length "
                f"{u.shape[0]}; expected len(states) = len(inputs) + 1")
        object.__setattr__(self, "states", _freeze(x))
        object.__setattr__(self, "inputs", _freeze(u))

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    def __len__(self) -> int:
        """Number of steps N (one less than the number of states)."""
        return self.inputs.shape[0]

    def stacked(self) -> np.ndarray:
        """Rows [x_k; u_k] for k = 0..N-1, shape (N, n+m), column-major."""
        return np.vstack([self.states[:-1].T, self.inputs.T]).T


def quadratic_form(M: np.ndarray, x: np.ndarray, u: np.ndarray | None = None) -> float:
    """Evaluate ``[x; u]' M [x; u]`` for one time step.

    ``u`` may be omitted or empty for autonomous systems.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if u is None:
        u = np.zeros(0)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    z = np.concatenate([x, u])
    M = _as_matrix(M, rows=z.size, cols=z.size, name="M")
    val = float(z @ M @ z)
    if not np.isfinite(val):
        raise ValueError("quadratic form evaluated to a non-finite value")
    return val


def _lyapunov_stack(X: np.ndarray, sys: SystemData, rho: float,
                    adjoint: bool = False) -> np.ndarray:
    """``L_rho``, or ``L_rho*`` when ``adjoint``, of each matrix of the stack X.

    ``X`` is ``(k, n, n)`` for the operator and ``(k, n+m, n+m)`` for the
    adjoint; no validation.  Each output matrix is the one the 2-D public
    function returns for that input.
    """
    return _rate_shift(_rate_free(X, sys, adjoint), X, sys.n, rho, adjoint)


def _rate_free(X: np.ndarray, sys: SystemData, adjoint: bool = False) -> np.ndarray:
    """The part of ``_lyapunov_stack`` that does not depend on the rate:
    ``[A B] X [A B]'`` for the adjoint, ``[A B]' X [A B]`` for the operator."""
    G = sys.AB
    return G @ X @ G.T if adjoint else G.T @ X @ G


def _rate_shift(product: np.ndarray, X: np.ndarray, n: int, rho: float,
                adjoint: bool = False) -> np.ndarray:
    """``_lyapunov_stack`` from its rate-free ``product``, which is left
    unchanged: subtract ``rho^2`` times the state block, then symmetrize."""
    if adjoint:
        out = product - rho * rho * X[:, :n, :n]
    else:
        out = product.copy()
        out[:, :n, :n] -= rho * rho * X
    return 0.5 * (out + out.swapaxes(1, 2))


def lyapunov_operator(P: np.ndarray, sys: SystemData, rho: float = 1.0) -> np.ndarray:
    """Lyapunov-difference map ``[[A'PA - rho^2 P, A'PB], [B'PA, B'PB]]``.

    With ``rho = 1`` this is the plain one-step difference of the
    quadratic form x'Px along the dynamics; the ``rho^2`` weight turns a
    feasibility test of this map into a decay-rate test.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    P = symmetrize(_as_matrix(P, rows=sys.n, cols=sys.n, name="P"), name="P")
    return _lyapunov_stack(P[None], sys, rho)[0]


def lyapunov_adjoint(Q: np.ndarray, sys: SystemData, rho: float = 1.0) -> np.ndarray:
    """Adjoint map ``[A B] Q [A B]' - rho^2 [I 0] Q [I 0]'``.

    Satisfies the trace-pairing identity ``<Q, L_rho(P)> = <L_rho*(Q), P>``
    for all symmetric P and Q.  The default ``rho = 1`` is the adjoint of
    the plain Lyapunov-difference map.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    d = sys.n + sys.m
    Q = symmetrize(_as_matrix(Q, rows=d, cols=d, name="Q"), name="Q")
    return _lyapunov_stack(Q[None], sys, rho, adjoint=True)[0]


def margin_matrix(sys: SystemData, iqcs: IqcSet, rho: float,
                  P: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
    """The rate-rho inequality matrix  L_rho(P) + sum_i lambda_i M_i."""
    H = lyapunov_operator(P, sys, rho)
    for lam, M in zip(np.asarray(lambdas, dtype=float), iqcs):
        H = H + lam * M
    return H


def certificate_defect(P: np.ndarray, lambdas: np.ndarray, margin: float,
                       bound: float) -> str:
    """Why (P, lambda) is not a certificate with margin <= ``bound``; "" if
    it is.  ``margin`` is the largest eigenvalue of its ``margin_matrix`` at
    the checked rate.  In order: the margin is finite and at most ``bound``,
    P and lambda are finite, lambda >= 0 (the S-procedure multipliers) and
    lambda_min(P) >= 1 - 1e-6, computed only for a pair that passes the rest.
    """
    if not (np.isfinite(margin) and margin <= bound):
        return "margin not finite or above the bound"
    lambdas = np.asarray(lambdas, dtype=float)
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(lambdas))):
        return "P or lambda not finite"
    if np.any(lambdas < 0):
        return "negative multiplier"
    if float(np.linalg.eigvalsh(P)[0]) < 1.0 - 1e-6:
        return "min eig of P below 1 - 1e-6"
    return ""


# On the (d, N) transposes each sum runs along the long axis, contiguous
# for column-major rows; only the order of the sums differs from a loop.
def _row_forms(Z: np.ndarray, M: np.ndarray) -> np.ndarray:
    """z_k' M z_k for every row z_k of ``Z``."""
    return np.einsum("ik,ik->k", M.T @ Z.T, Z.T)


def _row_norms(Z: np.ndarray) -> np.ndarray:
    """||z_k|| for every row z_k of ``Z``."""
    return np.sqrt(np.einsum("ik,ik->k", Z.T, Z.T))


def iqc_partial_sums(traj: Trajectory, iqcs: IqcSet) -> list[np.ndarray]:
    """Running sums S_i(N) = sum_{k<N} [x_k;u_k]' M_i [x_k;u_k], N = 1..len.

    Returns one array per IQC, in the input order.
    """
    if iqcs.dim != traj.n + traj.m:
        raise DimensionMismatchError(
            f"IqcSet dimension {iqcs.dim} does not match trajectory "
            f"n+m={traj.n + traj.m}")
    Z = traj.stacked()
    return [np.cumsum(_row_forms(Z, M)) for M in iqcs]


def _residual_and_state_norms(sys: SystemData,
                              traj: Trajectory) -> tuple[float, np.ndarray]:
    """The dynamics residual max_k ||x_{k+1} - A x_k - B u_k|| / (1 + ||x_k||)
    and every ``||x_k||``, from one pass of norms.

    The row norms are not rescaled, so a state with an entry beyond about
    1.3e154 gives inf / inf = NaN even when every state is finite; a NaN
    residual fails ``DYNAMICS_RTOL``, as an overflowed orbit should.  That
    overflow is expected, so it raises no warning.
    """
    Xt = traj.states.T
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _row_norms(traj.states)
        step = sys.A @ Xt[:, :-1]       # A x_k + B u_k - x_{k+1}, in place
        if sys.m:
            step += sys.B @ traj.inputs.T
        step -= Xt[:, 1:]
        return float(np.max(_row_norms(step.T) / (1.0 + norms[:-1]), initial=0.0)), norms


def simulate(sys: SystemData, x0, inputs=None) -> Trajectory:
    """Roll out ``x_{k+1} = A x_k + B u_k`` from ``x0``.

    ``inputs`` is a sequence of N input vectors (or an integer horizon
    for autonomous systems, meaning N zero-dimensional inputs).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != sys.n:
        raise DimensionMismatchError(
            f"x0: expected length {sys.n}, got {x0.size}")
    if inputs is None:
        inputs = 0
    if isinstance(inputs, (int, np.integer)):
        U = np.zeros((int(inputs), sys.m))
    else:
        U = np.asarray(inputs, dtype=float)
        if U.ndim == 1:
            U = U.reshape(-1, 1) if sys.m == 1 else U.reshape(-1, sys.m)
        if U.ndim != 2 or U.shape[1] != sys.m:
            raise DimensionMismatchError(
                f"inputs: expected shape (N, {sys.m}), got {U.shape}")
    N = U.shape[0]
    X = np.empty((N + 1, sys.n))
    X[0] = x0
    for k in range(N):
        X[k + 1] = sys.A @ X[k] + sys.B @ U[k]
    return Trajectory(states=X, inputs=U)
