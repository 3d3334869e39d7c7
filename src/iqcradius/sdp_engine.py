"""Small dense semidefinite-program engine and the margin programs.

The analysis needs a handful of small dense SDPs: the feasibility-margin
program over (s, P, lambda), its trace-normalized dual over Q, a
feasibility probe used by the bisection, and later a nuclear-norm
relaxation.  All of them are affine in their matrix variables, so this
module provides

  * :class:`SdpProblem` -- a tiny builder for block-structured affine
    SDPs (symmetric matrix and scalar variables, PSD constraints, scalar
    inequalities, equality constraints),
  * :func:`solve` -- a dense primal-dual interior-point method
    (Mehrotra predictor-corrector with the HKM direction of Helmberg,
    Rendl, Vanderbei & Wolkowicz 1996) for the compiled standard form
    min c'y  s.t.  F0 + sum_i y_i F_i >= 0,
  * the domain-level wrappers ``solve_margin_primal``,
    ``solve_margin_dual`` and ``dual_feasibility_margin``.

Compilation packs every PSD constraint and scalar inequality into the
diagonal blocks of one ``D x D`` matrix, so each iterate S, Z and each
coefficient F_i is a single block-diagonal matrix and an iteration is a
few whole-matrix products: the Schur complement is one matrix product
over the stacked coefficients, and each step length is one Cholesky
factorization and one eigenvalue computation.  Block-diagonal
factorizations create no fill outside the blocks, so this computes what
a loop over the blocks would.  Residuals, the constraint violation and
the cone duals are still read block by block.

The engine is deliberately self-contained (dense numpy only) and is
meant for desk-scale problems, at most a few thousand scalar unknowns.
An external solver can be substituted anywhere a ``solver=`` callable is
accepted; it must map ``(SdpProblem, SolverConfig) -> SdpSolution``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import (IqcSet, SystemData, lyapunov_adjoint, lyapunov_operator,
                    margin_matrix)

__all__ = [
    "SolverConfig",
    "SdpProblem",
    "SdpSolution",
    "solve",
    "MarginPrimalResult",
    "MarginDualResult",
    "DualFeasibilityResult",
    "solve_margin_primal",
    "margin_point",
    "solve_margin_dual",
    "dual_feasibility_margin",
    "MARGIN_FLOOR",
    "TRACE_CAP",
    "CERTIFY_CONFIG",
]

# Lower bound on the margin objective and cap on trace(P) + sum(lambda).
# The margin program of the certificate search is homogeneous in (P,
# lambda): once it is strictly feasible its value runs to -infinity, and
# near non-attained optima the minimizing P runs off to infinity.  The
# floor and cap keep every solve bounded with a compact optimal face;
# both are reported back when active so callers can tell.
MARGIN_FLOOR = -1.0
TRACE_CAP = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for the interior-point engine."""

    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98
    verbose: bool = False

    def __post_init__(self):
        if self.feas_tol <= 0 or self.gap_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not (0 < self.step_fraction < 1):
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


# Tolerances of the certificate searches (radius probes, attainment checks
# and witness extraction) when the caller passes no config.
CERTIFY_CONFIG = SolverConfig(feas_tol=1e-10, gap_tol=1e-10, max_iter=300)


def _sym_coords(d: int):
    for i in range(d):
        for j in range(i, d):
            yield i, j


def _sym_basis(d: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((d, d))
    E[i, j] = 1.0
    E[j, i] = 1.0
    return E


def _block_slices(blocks: Sequence[int]) -> list[slice]:
    """Row/column ranges of the diagonal blocks of a block-diagonal matrix."""
    ends = np.cumsum(blocks, dtype=int)
    return [slice(int(e - d), int(e)) for d, e in zip(blocks, ends)]


class SdpProblem:
    """Builder for a block-structured affine SDP.

    Variables are symmetric matrix blocks or scalars.  Constraints are
    affine:  ``constant + sum_v op_v(value_v)``  must be PSD, zero, or a
    nonnegative scalar.  Each ``op_v`` must be a *linear* map of its
    variable (any constant part belongs in ``constant``); it is sampled
    on basis elements during compilation.
    """

    def __init__(self):
        self._vars: dict[str, tuple] = {}
        self._order: list[str] = []
        self._obj_terms: list[tuple[str, Callable]] = []
        self._obj_const: float = 0.0
        self._psd: list[tuple[int, np.ndarray, list, str]] = []
        self._ineq: list[tuple[float, list, str]] = []
        self._eq: list[tuple[int, np.ndarray, list]] = []

    # -- variables ---------------------------------------------------
    def add_sym_var(self, name: str, dim: int) -> str:
        if name in self._vars:
            raise ValueError(f"variable {name!r} already declared")
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self._vars[name] = ("sym", int(dim))
        self._order.append(name)
        return name

    def add_scalar_var(self, name: str) -> str:
        if name in self._vars:
            raise ValueError(f"variable {name!r} already declared")
        self._vars[name] = ("scalar",)
        self._order.append(name)
        return name

    # -- objective and constraints ------------------------------------
    def minimize(self, terms: Sequence[tuple[str, Callable]], constant: float = 0.0):
        self._check_terms(terms)
        self._obj_terms = list(terms)
        self._obj_const = float(constant)

    def add_psd(self, dim: int, constant, terms: Sequence[tuple[str, Callable]],
                label: str = ""):
        self._check_terms(terms)
        C = np.zeros((dim, dim)) if constant is None else np.asarray(constant, dtype=float)
        if C.shape != (dim, dim):
            raise ValueError(f"constant block has shape {C.shape}, expected {(dim, dim)}")
        self._psd.append((int(dim), 0.5 * (C + C.T), list(terms), label))

    def add_scalar_ineq(self, constant: float, terms: Sequence[tuple[str, Callable]],
                        label: str = ""):
        self._check_terms(terms)
        self._ineq.append((float(constant), list(terms), label))

    def add_scalar_eq(self, constant: float, terms: Sequence[tuple[str, Callable]]):
        self._check_terms(terms)
        self._eq.append((1, np.array([[float(constant)]]), list(terms)))

    def add_matrix_eq(self, dim: int, constant, terms: Sequence[tuple[str, Callable]]):
        """Entrywise equality  constant + sum op_v(value_v) == 0  (symmetric)."""
        self._check_terms(terms)
        C = np.zeros((dim, dim)) if constant is None else np.asarray(constant, dtype=float)
        if C.shape != (dim, dim):
            raise ValueError(f"constant block has shape {C.shape}, expected {(dim, dim)}")
        self._eq.append((int(dim), C, list(terms)))

    def _check_terms(self, terms):
        for name, fn in terms:
            if name not in self._vars:
                raise ValueError(f"constraint references undeclared variable {name!r}")
            if not callable(fn):
                raise ValueError(f"term for {name!r} must be callable")

    # -- compilation ---------------------------------------------------
    def _var_basis(self, name: str):
        kind = self._vars[name]
        if kind[0] == "scalar":
            yield 1.0
        else:
            d = kind[1]
            for i, j in _sym_coords(d):
                yield _sym_basis(d, i, j)

    def _var_span(self):
        spans = {}
        p = 0
        for name in self._order:
            kind = self._vars[name]
            size = 1 if kind[0] == "scalar" else kind[1] * (kind[1] + 1) // 2
            spans[name] = (p, p + size)
            p += size
        return spans, p

    def compile(self):
        spans, p = self._var_span()
        entries = [(dim, C, terms, label) for dim, C, terms, label in self._psd if dim]
        entries += [(1, np.array([[const]]), terms, label)
                    for const, terms, label in self._ineq]
        blocks = [dim for dim, *_ in entries]
        D = sum(blocks)
        F0 = np.zeros((D, D))
        cols = np.zeros((p, D, D))
        for (dim, const, terms, _label), sl in zip(entries, _block_slices(blocks)):
            F0[sl, sl] = const
            for name, fn in terms:
                lo, _hi = spans[name]
                for off, basis in enumerate(self._var_basis(name)):
                    out = np.asarray(fn(basis), dtype=float).reshape(dim, dim)
                    cols[lo + off, sl, sl] += 0.5 * (out + out.T)

        c = np.zeros(p)
        for name, fn in self._obj_terms:
            lo, _hi = spans[name]
            for off, basis in enumerate(self._var_basis(name)):
                c[lo + off] += float(fn(basis))

        rows = sum(dim * (dim + 1) // 2 for dim, *_ in self._eq)
        A_eq = np.zeros((rows, p))
        b_eq = np.zeros(rows)
        r = 0
        for dim, const, terms in self._eq:
            # Flat positions of the upper triangle, row by row.
            upper = np.array([i * dim + j for i, j in _sym_coords(dim)], dtype=np.intp)
            rs = slice(r, r + upper.size)
            b_eq[rs] = -const.reshape(dim * dim)[upper]
            for name, fn in terms:
                lo, _hi = spans[name]
                for off, basis in enumerate(self._var_basis(name)):
                    out = np.asarray(fn(basis), dtype=float).reshape(dim * dim)
                    A_eq[rs, lo + off] += out[upper]
            r = rs.stop

        return _Compiled(self, spans, p, blocks, [label for *_, label in entries],
                         F0, cols, c, self._obj_const, A_eq, b_eq)

    def extract(self, name: str, y: np.ndarray, spans) -> np.ndarray | float:
        lo, hi = spans[name]
        kind = self._vars[name]
        if kind[0] == "scalar":
            return float(y[lo])
        d = kind[1]
        X = np.zeros((d, d))
        for off, (i, j) in enumerate(_sym_coords(d)):
            X[i, j] = y[lo + off]
            X[j, i] = y[lo + off]
        return X


@dataclass
class _Compiled:
    """Standard form  F0 + sum_k y_k cols[k] >= 0  over one block-diagonal matrix.

    ``F0`` and each ``cols[k]`` are ``D x D`` with ``D = sum(blocks)``; the
    diagonal blocks, in the order of ``blocks`` and ``labels``, are the PSD
    constraints followed by the scalar inequalities, and every entry off
    those blocks is zero.
    """

    problem: SdpProblem
    spans: dict
    p: int
    blocks: list
    labels: list
    F0: np.ndarray                 # (D, D)
    cols: np.ndarray               # (p, D, D)
    c: np.ndarray
    obj_const: float
    A_eq: np.ndarray
    b_eq: np.ndarray


@dataclass
class SdpSolution:
    status: str                    # optimal | infeasible | numerical-failure | iteration-limit
    objective: float
    values: dict
    residuals: dict
    iterations: int
    message: str = ""
    cone_duals: dict = field(default_factory=dict)
    y: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _min_eig(M: np.ndarray) -> float:
    if M.size == 0:
        return np.inf
    return float(np.linalg.eigvalsh(M)[0])


def _block_norms(M: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Frobenius norms of the diagonal blocks of ``M`` (last two axes).

    ``starts`` holds the first row of each block; entries off the diagonal
    blocks must be zero.
    """
    return np.sqrt(np.add.reduceat((M * M).sum(-1), starts, axis=-1))


def _step_to_boundary(X: np.ndarray, dX: np.ndarray) -> float:
    """Largest alpha with X + alpha dX >= 0, for X > 0.

    For block-diagonal X and dX the factors stay block diagonal, and the
    smallest eigenvalue is the minimum over the blocks.
    """
    if X.size == 0:
        return np.inf
    L = np.linalg.cholesky(X)
    Linv = np.linalg.solve(L, np.eye(X.shape[0]))
    W = Linv @ dX @ Linv.T
    lam = float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve an :class:`SdpProblem` with the built-in interior-point method."""
    config = config or SolverConfig()
    comp = problem.compile()

    # Eliminate equality constraints by restricting to their affine set.
    p = comp.p
    if comp.A_eq.shape[0]:
        y0, *_ = np.linalg.lstsq(comp.A_eq, comp.b_eq, rcond=None)
        resid = np.linalg.norm(comp.A_eq @ y0 - comp.b_eq)
        if resid > 1e-9 * (1.0 + np.linalg.norm(comp.b_eq)):
            return SdpSolution(
                status="infeasible", objective=np.nan, values={},
                residuals={"eq_residual": float(resid)}, iterations=0,
                message="equality constraints are inconsistent")
        U, sv, Vt = np.linalg.svd(comp.A_eq)
        tol = max(comp.A_eq.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
        rank = int(np.sum(sv > tol))
        N = Vt[rank:].T    # (p, p - rank)
    else:
        y0 = np.zeros(p)
        N = np.eye(p)

    pz = N.shape[1]
    blocks = comp.blocks
    D = sum(blocks)
    slices = _block_slices(blocks)
    starts = np.array([sl.start for sl in slices], dtype=int)
    eye = np.eye(D)

    # Constant part and reduced coefficients, all D x D block diagonal.
    G0 = comp.F0 + np.tensordot(y0, comp.cols, 1)
    Gb = np.tensordot(N, comp.cols, axes=(0, 0))       # (pz, D, D)
    cz = N.T @ comp.c
    const_obj = comp.obj_const + float(comp.c @ y0)
    g0_norms = _block_norms(G0, starts)

    # Column scaling for a better-conditioned Schur complement.
    scale = 1.0 / np.maximum(1.0, _block_norms(Gb, starts).max(axis=1, initial=0.0))
    Gb = Gb * scale[:, None, None]
    Gf = Gb.reshape(pz, D * D)
    cz = cz * scale

    def full_y(zvec: np.ndarray) -> np.ndarray:
        return y0 + N @ (zvec * scale)

    def violation(zvec: np.ndarray) -> float:
        S = G0 + np.tensordot(zvec, Gb, 1)
        return max([max(0.0, -_min_eig(S[sl, sl])) / (1.0 + g0_norms[b])
                    for b, sl in enumerate(slices)], default=0.0)

    def finish(status, zvec, Zm, iters, message=""):
        yfull = full_y(zvec)
        values = {name: problem.extract(name, yfull, comp.spans)
                  for name in problem._order}
        cone = {label: Zm[sl, sl].copy()
                for label, sl in zip(comp.labels, slices) if label}
        res = {"constraint_violation": violation(zvec)}
        res.update(last_res)
        return SdpSolution(status=status, objective=float(cz @ zvec) + const_obj,
                           values=values, residuals=res, iterations=iters,
                           message=message, cone_duals=cone, y=yfull)

    last_res: dict = {}

    if pz == 0:
        # Fully determined by the equality constraints.
        viol = violation(np.zeros(0))
        status = "optimal" if viol <= 1e3 * config.feas_tol else "infeasible"
        return finish(status, np.zeros(0), np.zeros((D, D)), 0,
                      "" if status == "optimal" else
                      f"fixed point violates PSD constraints by {viol:.2e}")

    f0_norm = g0_norms.max() if blocks else 1.0

    z = np.zeros(pz)
    # Per-block initialization: a shared scale would let one block with a
    # large constant (for example a trace cap) wreck the centering of the
    # small well-scaled blocks.
    zscale = 1.0 + float(np.linalg.norm(cz, np.inf))
    S = np.diag(np.repeat(1.0 + g0_norms, blocks))
    Z = eye * zscale

    best = None
    status = "iteration-limit"
    message = ""
    it = 0

    for it in range(1, config.max_iter + 1):
        # Residuals.
        Rd = G0 + np.tensordot(z, Gb, 1) - S
        rp = cz - Gf @ Z.ravel()
        gap = float(np.vdot(S, Z))
        mu = gap / max(1, D)
        obj_p = float(cz @ z)
        obj_d = -float(np.vdot(G0, Z))
        pres = float(_block_norms(Rd, starts).max(initial=0.0)) / (1.0 + f0_norm)
        dres = float(np.linalg.norm(rp, np.inf)) / (1.0 + float(np.linalg.norm(cz, np.inf)))
        gap_rel = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))
        mu_rel = mu / (1.0 + abs(obj_p) + abs(obj_d))

        last_res = {"primal_residual": pres, "dual_residual": dres,
                    "gap": gap_rel, "mu": mu}
        merit = max(pres, dres, gap_rel, mu_rel)
        if config.verbose:
            print(f"  it={it:3d} obj={obj_p: .6e} dual={obj_d: .6e} "
                  f"pres={pres:.2e} dres={dres:.2e} mu={mu:.2e} merit={merit:.2e}")
        if best is None or merit < best[0]:
            best = (merit, z.copy(), Z.copy())

        if pres <= config.feas_tol and dres <= config.feas_tol and (
                gap_rel <= config.gap_tol or mu_rel <= config.gap_tol):
            status = "optimal"
            break

        try:
            Sinv = np.linalg.solve(S, eye)
            Sinv = 0.5 * (Sinv + Sinv.T)
            # Schur complement M[i,j] = tr(G_i Z G_j Sinv); the order
            # Z G_j Sinv matters, Z does not commute with the G's.
            Msc = Gf @ (Z @ Gb @ Sinv).reshape(pz, -1).T
            Msc = 0.5 * (Msc + Msc.T)

            def direction(Rcomp):
                T = (Rcomp - Z @ Rd) @ Sinv
                rhs = Gf @ T.ravel() - rp
                try:
                    dz = np.linalg.solve(Msc, rhs)
                    dz += np.linalg.solve(Msc, rhs - Msc @ dz)
                except np.linalg.LinAlgError:
                    dz, *_ = np.linalg.lstsq(Msc, rhs, rcond=None)
                dS = Rd + np.tensordot(dz, Gb, 1)
                M = (Rcomp - Z @ dS) @ Sinv
                return dz, dS, 0.5 * (M + M.T)

            # Predictor.
            dz_a, dS_a, dZ_a = direction(-(Z @ S))
            a_p = min(1.0, config.step_fraction * _step_to_boundary(S, dS_a))
            a_d = min(1.0, config.step_fraction * _step_to_boundary(Z, dZ_a))
            gap_aff = float(np.vdot(S + a_p * dS_a, Z + a_d * dZ_a))
            sigma = min(1.0, max(1e-10, (gap_aff / gap) ** 3)) if gap > 0 else 0.0

            # Corrector.
            dz, dS, dZ = direction(sigma * mu * eye - Z @ S - dZ_a @ dS_a)
            a_p = _step_to_boundary(S, dS)
            a_d = _step_to_boundary(Z, dZ)
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            message = "factorization failed (loss of positive definiteness)"
            break

        a_p = min(1.0, config.step_fraction * a_p)
        a_d = min(1.0, config.step_fraction * a_d)
        if not np.isfinite(a_p) or not np.isfinite(a_d):
            status = "numerical-failure"
            message = "non-finite step length"
            break
        if max(a_p, a_d) < 1e-10:
            status = "numerical-failure"
            message = "step lengths collapsed"
            break

        z = z + a_p * dz
        S = S + a_p * dS
        Z = Z + a_d * dZ

    else:
        it = config.max_iter

    if status != "optimal" and best is not None:
        _, z, Z = best

    return finish(status, z, Z, it, message)


# ---------------------------------------------------------------------------
# Domain-level programs.
# ---------------------------------------------------------------------------

SolverFn = Callable[[SdpProblem, SolverConfig], SdpSolution]


@dataclass
class MarginPrimalResult:
    """Outcome of the margin program  min s : sI >= L_rho(P) + sum l_i M_i."""

    s_star: float
    P: np.ndarray
    lambdas: np.ndarray
    status: str
    floor_active: bool
    cap_active: bool
    margin_check: float          # independent eigenvalue re-check of the margin
    solution: SdpSolution


@dataclass
class MarginDualResult:
    d_star: float
    Q: np.ndarray | None
    status: str                  # optimal | infeasible | ...
    infeasibility_margin: float  # phase-I value t*; negative certifies infeasibility
    solution: SdpSolution | None


@dataclass
class DualFeasibilityResult:
    """Phase-I value of the trace-normalized dual feasibility system.

    t_star >= 0 (up to tolerance) iff there is a unit-trace PSD Q with
    L_rho*(Q) >= 0 and trace(Q M_i) >= 0 for all i; t_star < 0 certifies
    that no such Q exists, i.e. the margin program is unbounded below.
    """

    t_star: float
    Q: np.ndarray | None
    status: str
    solution: SdpSolution


def _margin_problem(sys: SystemData, iqcs: IqcSet, rho: float,
                    margin_floor: float, trace_cap: float) -> SdpProblem:
    n, m = sys.n, sys.m
    d = n + m
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.add_sym_var("P", n)
    for i in range(len(iqcs)):
        pb.add_scalar_var(f"lam{i}")
    pb.minimize([("s", lambda v: v)])

    terms = [("s", lambda v: v * np.eye(d)),
             ("P", lambda Pm: -lyapunov_operator(Pm, sys, rho))]
    for i, M in enumerate(iqcs):
        terms.append((f"lam{i}", (lambda Mi: (lambda v: -v * Mi))(M)))
    pb.add_psd(d, None, terms, label="margin")
    pb.add_psd(n, -np.eye(n), [("P", lambda Pm: Pm)], label="P_minus_I")
    for i in range(len(iqcs)):
        pb.add_scalar_ineq(0.0, [(f"lam{i}", lambda v: v)], label=f"lam{i}_nonneg")
    pb.add_scalar_ineq(-margin_floor, [("s", lambda v: v)], label="floor")
    cap_terms = [("P", lambda Pm: -float(np.trace(Pm)))]
    for i in range(len(iqcs)):
        cap_terms.append((f"lam{i}", lambda v: -v))
    pb.add_scalar_ineq(trace_cap, cap_terms, label="cap")
    return pb


def solve_margin_primal(sys: SystemData, iqcs: IqcSet, rho: float,
                        config: SolverConfig | None = None, *,
                        margin_floor: float = MARGIN_FLOOR,
                        trace_cap: float = TRACE_CAP,
                        solver: SolverFn | None = None) -> MarginPrimalResult:
    """Minimal margin s with sI >= L_rho(P) + sum l_i M_i, P >= I, l >= 0.

    The raw program is unbounded below whenever it is strictly feasible
    (scale (s, P, lambda) up), so the search is run with a floor on s
    and a cap on trace(P) + sum lambda; ``floor_active``/``cap_active``
    report when either bound binds.  Strict feasibility of the
    rate-``rho`` inequality is equivalent to ``s_star < 0``.
    """
    iqcs.check_matches(sys)
    if rho <= 0:
        raise ValueError("rho must be positive")
    config = config or SolverConfig()
    run = solver or solve
    pb = _margin_problem(sys, iqcs, rho, margin_floor, trace_cap)
    sol = run(pb, config)
    P = np.asarray(sol.values.get("P", np.eye(sys.n)))
    lams = np.array([float(sol.values.get(f"lam{i}", 0.0)) for i in range(len(iqcs))])
    return margin_point(sys, iqcs, rho, P, lams, sol,
                        s_star=float(sol.values.get("s", np.nan)),
                        margin_floor=margin_floor, trace_cap=trace_cap)


def margin_point(sys: SystemData, iqcs: IqcSet, rho: float, P: np.ndarray,
                 lambdas: np.ndarray, solution: SdpSolution, *,
                 s_star: float | None = None,
                 margin_floor: float = MARGIN_FLOOR,
                 trace_cap: float = TRACE_CAP) -> MarginPrimalResult:
    """The point (P, max(lambda, 0)) of the margin program at rate ``rho``.

    ``margin_check`` is the largest eigenvalue of the rate-rho inequality
    matrix, recomputed here.  ``s_star`` is the solver's margin when the
    point came from a margin solve; otherwise it is the best margin of the
    point itself, ``max(margin_check, margin_floor)``.
    """
    lams = np.maximum(np.asarray(lambdas, dtype=float), 0.0)
    H = margin_matrix(sys, iqcs, rho, P, lams)
    margin_check = float(np.linalg.eigvalsh(H)[-1]) if H.size else 0.0
    s = max(margin_check, margin_floor) if s_star is None else s_star
    floor_active = s <= margin_floor + 1e-6 * (1 + abs(margin_floor))
    cap_active = (float(np.trace(P)) + float(np.sum(lams))) >= trace_cap * (1 - 1e-6)
    return MarginPrimalResult(s_star=s, P=P, lambdas=lams, status=solution.status,
                              floor_active=floor_active, cap_active=cap_active,
                              margin_check=margin_check, solution=solution)


def dual_feasibility_margin(sys: SystemData, iqcs: IqcSet, rho: float,
                            config: SolverConfig | None = None, *,
                            solver: SolverFn | None = None) -> DualFeasibilityResult:
    """Phase-I slack of the dual constraint system at rate ``rho``.

    Maximizes t subject to L_rho*(Q) >= tI, trace(Q M_i) >= t, Q >= 0,
    trace(Q) = 1.  The feasible set is compact and always has interior,
    which makes this the numerically robust probe for the bisection.
    """
    iqcs.check_matches(sys)
    if rho <= 0:
        raise ValueError("rho must be positive")
    config = config or SolverConfig()
    run = solver or solve
    n, m = sys.n, sys.m
    d = n + m
    pb = SdpProblem()
    pb.add_sym_var("Q", d)
    pb.add_scalar_var("t")
    pb.minimize([("t", lambda v: -v)])
    if n:
        pb.add_psd(n, None,
                   [("Q", lambda Qm: lyapunov_adjoint(Qm, sys, rho)),
                    ("t", lambda v: -v * np.eye(n))],
                   label="adjoint")
    pb.add_psd(d, None, [("Q", lambda Qm: Qm)], label="Q_psd")
    for i, M in enumerate(iqcs):
        pb.add_scalar_ineq(
            0.0, [("Q", (lambda Mi: (lambda Qm: float(np.tensordot(Qm, Mi))))(M)),
                  ("t", lambda v: -v)],
            label=f"iqc{i}")
    # Keeps the objective bounded even with n = 0 and no constraints.
    tcap = 10.0 * (sys.scale() + iqcs.scale())
    pb.add_scalar_ineq(tcap, [("t", lambda v: -v)], label="tcap")
    pb.add_scalar_eq(-1.0, [("Q", lambda Qm: float(np.trace(Qm)))])
    sol = run(pb, config)
    t = float(sol.values.get("t", np.nan))
    Q = sol.values.get("Q")
    if Q is not None:
        Q = np.asarray(Q)
    return DualFeasibilityResult(t_star=t, Q=Q, status=sol.status, solution=sol)


def solve_margin_dual(sys: SystemData, iqcs: IqcSet, rho: float,
                      config: SolverConfig | None = None, *,
                      solver: SolverFn | None = None) -> MarginDualResult:
    """Maximize trace(L_rho*(Q)) over the trace-normalized dual set.

    Reports status ``infeasible`` (with the certifying phase-I margin)
    when the constraint set is empty, which happens exactly when the
    margin program is strictly feasible at this rate.
    """
    iqcs.check_matches(sys)
    if rho <= 0:
        raise ValueError("rho must be positive")
    config = config or SolverConfig()
    run = solver or solve
    phase1 = dual_feasibility_margin(sys, iqcs, rho, config, solver=solver)
    scale = sys.scale() + iqcs.scale()
    if phase1.t_star < -1e-7 * scale:
        return MarginDualResult(d_star=-np.inf, Q=None, status="infeasible",
                                infeasibility_margin=phase1.t_star, solution=None)
    n, m = sys.n, sys.m
    d = n + m
    pb = SdpProblem()
    pb.add_sym_var("Q", d)
    pb.minimize([("Q", lambda Qm: -float(np.trace(lyapunov_adjoint(Qm, sys, rho))))])
    if n:
        pb.add_psd(n, None, [("Q", lambda Qm: lyapunov_adjoint(Qm, sys, rho))],
                   label="adjoint")
    pb.add_psd(d, None, [("Q", lambda Qm: Qm)], label="Q_psd")
    for i, M in enumerate(iqcs):
        pb.add_scalar_ineq(
            0.0, [("Q", (lambda Mi: (lambda Qm: float(np.tensordot(Qm, Mi))))(M))],
            label=f"iqc{i}")
    pb.add_scalar_eq(-1.0, [("Q", lambda Qm: float(np.trace(Qm)))])
    sol = run(pb, config)
    Q = np.asarray(sol.values["Q"])
    return MarginDualResult(d_star=-sol.objective, Q=Q, status=sol.status,
                            infeasibility_margin=phase1.t_star, solution=sol)
