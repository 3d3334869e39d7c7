"""Small dense semidefinite-program engine and the margin programs.

The analysis needs a handful of small dense SDPs: the feasibility-margin
program over (s, P, lambda), its trace-normalized dual over Q, a
feasibility probe used by the radius search, and the most interior
stationary dual matrix of ``worstcase.extract_dual_witness``.  All of
them are affine in their matrix variables, so this module provides

  * :class:`SdpProblem` -- a tiny builder for block-structured affine
    SDPs (symmetric matrix and scalar variables, PSD constraints, scalar
    inequalities, equality constraints), each term given by the
    coefficient stack of its variable over :func:`svec_basis`,
  * :func:`solve` -- a dense primal-dual interior-point method
    (Mehrotra predictor-corrector with the HKM direction of Helmberg,
    Rendl, Vanderbei & Wolkowicz 1996) for the compiled standard form
    min c'y  s.t.  F0 + sum_i y_i F_i >= 0,
  * the domain-level wrappers ``solve_margin_primal``,
    ``solve_margin_dual`` and ``dual_feasibility_margin``.

The phase-I and margin programs depend on the rate only through one
block, ``rho^2`` times a fixed stack plus a rate-free product (the GEVP
form of Boyd, El Ghaoui, Feron & Balakrishnan, 1994, section 2.2.3), so
each is compiled once per analysis, with its equality elimination
(``_Programs``, which the radius search passes to every call).  A probe
rewrites only the rate block, and its standard form is byte for byte
the one a fresh build compiles.

Compilation packs every PSD constraint and scalar inequality into the
diagonal blocks of one ``D x D`` matrix, so each iterate S, Z and each
coefficient F_i is a single block-diagonal matrix and an iteration is a
few whole-matrix products.  Each iteration factors the iterate once: one
batched Cholesky factorization of the pair (S, Z), whose inverse factors
give S^-1 for the Schur complement and all four step lengths (predictor
and corrector, for S and for Z), two batched eigenvalue computations in
all.  The Schur complement is one matrix product over the stacked
coefficients; it is inverted once per iteration, and the predictor and
the corrector each take one step of iterative refinement on it.
Block-diagonal factorizations create no fill outside the blocks, so this
computes what a loop over the blocks would.  Residuals, the constraint
violation and the cone duals are still read block by block.

The engine is deliberately self-contained (dense numpy only) and is
meant for desk-scale problems, at most a few thousand scalar unknowns.
Every solve stops at the same fixed tolerances: ``FEAS_TOL`` on the
primal and dual residuals, ``GAP_TOL`` on the relative gap, at most
``MAX_ITER`` iterations, each step taking ``STEP_FRACTION`` of the way
to the cone boundary.  The margin program adds ``MARGIN_FLOOR`` and
``TRACE_CAP``.

An external solver can be substituted anywhere a ``solver=`` callable is
accepted (``SolverFn``); it must map ``(SdpProblem) -> SdpSolution``.
It receives the program as data: ``SdpProblem.compile()`` returns the
standard form ``F0``, ``cols``, ``c``, ``A_eq``, ``b_eq`` with the block
sizes and labels, and ``SdpProblem.extract`` maps a solution vector ``y``
back to the named variables.  The domain programs state every term as
arrays, built from one ``svec_basis`` stack and one batched call of the
Lyapunov maps, so a substituted solver never calls back into the model.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .model import (IqcSet, SystemData, _lyapunov_stack, _rate_free,
                    _rate_shift)

__all__ = [
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
    "FEAS_TOL",
    "GAP_TOL",
    "MAX_ITER",
    "STEP_FRACTION",
    "MARGIN_FLOOR",
    "TRACE_CAP",
    "SolverFn",
    "svec_basis",
]

# Interior-point stopping rule and step length, the same for every solve.
FEAS_TOL = 1e-10
GAP_TOL = 1e-10
MAX_ITER = 300
STEP_FRACTION = 0.98

# Lower bound on the margin objective and cap on trace(P) + sum(lambda).
# The margin program of the certificate search is homogeneous in (P,
# lambda): once it is strictly feasible its value runs to -infinity, and
# near non-attained optima the minimizing P runs off to infinity.  The
# floor and cap keep every solve bounded with a compact optimal face;
# both are reported back when active so callers can tell.
MARGIN_FLOOR = -1.0
TRACE_CAP = 1e6


def svec_basis(d: int) -> np.ndarray:
    """The ``(d(d+1)/2, d, d)`` stack of symmetric unit matrices E_ij + E_ji
    (E_ii on the diagonal), upper triangle row by row: the order in which
    :class:`SdpProblem` numbers the coordinates of a symmetric variable.
    """
    i, j = _upper(d)
    E = np.zeros((i.size, d, d))
    k = np.arange(i.size)
    E[k, i, j] = 1.0
    E[k, j, i] = 1.0
    return E


def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle, row by row (as
    ``np.triu_indices``, at a third of its cost for small ``d``)."""
    return np.nonzero(~np.tri(d, k=-1, dtype=bool))


def _block_slices(blocks: Sequence[int]) -> list[slice]:
    """Row/column ranges of the diagonal blocks of a block-diagonal matrix."""
    ends = np.cumsum(blocks, dtype=int)
    return [slice(int(e - d), int(e)) for d, e in zip(blocks, ends)]


class SdpProblem:
    """Builder for a block-structured affine SDP.

    Variables are symmetric matrix blocks or scalars.  Constraints are
    affine:  ``constant + sum_v op_v(value_v)``  must be PSD, zero, or a
    nonnegative scalar.  Each term ``(name, coeffs)`` states ``op_v`` by
    its coefficients: ``coeffs[k]`` is ``op_v`` of the k-th basis element
    of the variable, so ``coeffs`` has shape ``(k, dim, dim)`` in a PSD
    block or a matrix equality and ``(k,)`` in a scalar row or the
    objective.  ``k`` is 1 for a scalar variable and ``d(d+1)/2`` for a
    symmetric one, whose basis is :func:`svec_basis`.  Every term is
    therefore linear by construction; shapes are checked when a term is
    added.
    """

    def __init__(self):
        self._dims: dict[str, int | None] = {}     # None for a scalar
        self._spans: dict[str, tuple[int, int]] = {}
        self._p = 0
        self._obj_terms: list = []
        self._obj_const: float = 0.0
        self._psd: list[tuple[int, np.ndarray, list, str]] = []
        self._ineq: list[tuple[int, np.ndarray, list, str]] = []
        self._eq: list[tuple[int, np.ndarray, list]] = []
        self._compiled: _Compiled | None = None    # set for one rate of a prepared program

    # -- variables ---------------------------------------------------
    def add_sym_var(self, name: str, dim: int) -> str:
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        return self._declare(name, int(dim), dim * (dim + 1) // 2)

    def add_scalar_var(self, name: str) -> str:
        return self._declare(name, None, 1)

    def _declare(self, name: str, dim: int | None, size: int) -> str:
        """Give the variable the next ``size`` coordinates of y."""
        if name in self._dims:
            raise ValueError(f"variable {name!r} already declared")
        self._dims[name] = dim
        self._spans[name] = (self._p, self._p + size)
        self._p += size
        return name

    # -- objective and constraints ------------------------------------
    def minimize(self, terms, constant: float = 0.0):
        self._obj_terms = self._terms(terms, ())
        self._obj_const = float(constant)

    def add_psd(self, dim: int, constant, terms, label: str = ""):
        self._psd.append((int(dim), self._constant(dim, constant, symmetric=True),
                          self._terms(terms, (dim, dim)), label))

    def add_scalar_ineq(self, constant: float, terms, label: str = ""):
        self._ineq.append((1, np.array([[float(constant)]]), self._rows(terms), label))

    def add_scalar_eq(self, constant: float, terms):
        self._eq.append((1, np.array([[float(constant)]]), self._rows(terms)))

    def add_matrix_eq(self, dim: int, constant, terms):
        """Entrywise equality  constant + sum op_v(value_v) == 0  (symmetric)."""
        self._eq.append((int(dim), self._constant(dim, constant),
                         self._terms(terms, (dim, dim))))

    @staticmethod
    def _constant(dim, constant, symmetric=False) -> np.ndarray:
        C = np.zeros((dim, dim)) if constant is None else np.asarray(constant, dtype=float)
        if C.shape != (dim, dim):
            raise ValueError(f"constant block has shape {C.shape}, expected {(dim, dim)}")
        return 0.5 * (C + C.T) if symmetric else C

    def _terms(self, terms, shape: tuple) -> list:
        """Each term's coefficients, checked to be an array of shape (k,) + shape."""
        out = []
        for name, coeffs in terms:
            if name not in self._dims:
                raise ValueError(f"constraint references undeclared variable {name!r}")
            lo, hi = self._spans[name]
            want = (hi - lo,) + shape
            try:
                a = np.asarray(coeffs, dtype=float)
            except (TypeError, ValueError):     # a callable, a ragged list, ...
                a = None
            if a is None or a.shape != want:
                raise ValueError(f"term for {name!r} must be an array of shape {want}")
            out.append((name, a))
        return out

    def _rows(self, terms) -> list:
        """Scalar-row terms, (k,) each, as coefficients of a 1 x 1 block."""
        return [(name, a.reshape(-1, 1, 1)) for name, a in self._terms(terms, ())]

    # -- compilation ---------------------------------------------------
    def compile(self):
        if self._compiled is not None:
            return self._compiled
        spans, p = dict(self._spans), self._p
        entries = [entry for entry in self._psd if entry[0]] + self._ineq
        blocks = [dim for dim, *_ in entries]
        D = sum(blocks)
        F0 = np.zeros((D, D))
        cols = np.zeros((p, D, D))
        for (dim, const, terms, _label), sl in zip(entries, _block_slices(blocks)):
            F0[sl, sl] = const
            for name, a in terms:
                cols[slice(*spans[name]), sl, sl] += 0.5 * (a + a.swapaxes(1, 2))

        c = np.zeros(p)
        for name, a in self._obj_terms:
            c[slice(*spans[name])] += a

        rows = sum(dim * (dim + 1) // 2 for dim, *_ in self._eq)
        A_eq = np.zeros((rows, p))
        b_eq = np.zeros(rows)
        r = 0
        for dim, const, terms in self._eq:
            # Flat positions of the upper triangle, row by row.
            i, j = _upper(dim)
            upper = i * dim + j
            rs = slice(r, r + upper.size)
            b_eq[rs] = -const.reshape(dim * dim)[upper]
            for name, a in terms:
                A_eq[rs, slice(*spans[name])] += a.reshape(len(a), dim * dim)[:, upper].T
            r = rs.stop

        return _Compiled(spans, p, blocks, [label for *_, label in entries],
                         F0, cols, c, self._obj_const, A_eq, b_eq)

    def extract(self, name: str, y: np.ndarray, spans) -> np.ndarray | float:
        lo, hi = spans[name]
        d = self._dims[name]
        if d is None:
            return float(y[lo])
        i, j = _upper(d)
        X = np.zeros((d, d))
        X[i, j] = y[lo:hi]
        X[j, i] = y[lo:hi]
        return X


@dataclass
class _Compiled:
    """Standard form  F0 + sum_k y_k cols[k] >= 0  over one block-diagonal matrix.

    ``F0`` and each ``cols[k]`` are ``D x D`` with ``D = sum(blocks)``; the
    diagonal blocks, in the order of ``blocks`` and ``labels``, are the PSD
    constraints followed by the scalar inequalities, and every entry off
    those blocks is zero.  ``elimination`` is :func:`_eliminate` of this
    form when it was computed ahead of the solve.
    """

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
    elimination: tuple | None = None


def _eliminate(comp: _Compiled) -> tuple[np.ndarray, np.ndarray, float]:
    """``(y0, N, residual)``: the points y0 + N z, z free, are the solutions
    of ``A_eq y = b_eq`` when ``residual``, that of the least-squares y0, is
    zero up to rounding.  Without equalities y0 = 0 and N = I."""
    if not comp.A_eq.shape[0]:
        return np.zeros(comp.p), np.eye(comp.p), 0.0
    y0, *_ = np.linalg.lstsq(comp.A_eq, comp.b_eq, rcond=None)
    resid = float(np.linalg.norm(comp.A_eq @ y0 - comp.b_eq))
    _, sv, Vt = np.linalg.svd(comp.A_eq)
    tol = max(comp.A_eq.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    return y0, Vt[rank:].T, resid     # N is (p, p - rank)


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


def _max_steps(Linv: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """Largest alpha with X + alpha dX >= 0, for each X = L L' of a stack.

    ``Linv`` stacks the inverse Cholesky factors of positive definite
    ``X`` and ``dX`` the symmetric directions, both ``(k, D, D)``.  The
    step is ``-1 / lambda_min(L^-1 dX L^-T)`` and ``inf`` when that
    eigenvalue is not negative.  For block-diagonal X and dX the factors
    stay block diagonal, and the smallest eigenvalue is the minimum over
    the blocks.
    """
    if Linv.shape[-1] == 0:
        return np.full(len(Linv), np.inf)
    W = Linv @ dX @ Linv.swapaxes(1, 2)
    lam = np.linalg.eigvalsh(0.5 * (W + W.swapaxes(1, 2)))[:, 0]
    return np.where(lam >= -1e-14, np.inf, -1.0 / np.minimum(lam, -1e-14))


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve an :class:`SdpProblem` with the built-in interior-point method."""
    comp = problem.compile()

    # Eliminate equality constraints by restricting to their affine set.
    y0, N, resid = comp.elimination or _eliminate(comp)
    if resid > 1e-9 * (1.0 + np.linalg.norm(comp.b_eq)):
        return SdpSolution(
            status="infeasible", objective=np.nan, values={},
            residuals={"eq_residual": resid}, iterations=0,
            message="equality constraints are inconsistent")

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
        S = G0 + (zvec @ Gf).reshape(D, D)
        return max([max(0.0, -_min_eig(S[sl, sl])) / (1.0 + g0_norms[b])
                    for b, sl in enumerate(slices)], default=0.0)

    def finish(status, zvec, Zm, iters, message=""):
        yfull = full_y(zvec)
        values = {name: problem.extract(name, yfull, comp.spans)
                  for name in problem._dims}
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
        status = "optimal" if viol <= 1e3 * FEAS_TOL else "infeasible"
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

    with np.errstate(over="ignore", invalid="ignore"):   # a failing iterate may overflow
        for it in range(1, MAX_ITER + 1):
            # Residuals.
            Rd = G0 + (z @ Gf).reshape(D, D) - S
            rp = cz - Gf @ Z.ravel()
            gap = float(np.vdot(S, Z))
            mu = gap / max(1, D)
            obj_p = float(cz @ z)
            obj_d = -float(np.vdot(G0, Z))
            pres = float(_block_norms(Rd, starts).max(initial=0.0)) / (1.0 + f0_norm)
            dres = float(np.abs(rp).max()) / zscale
            gap_rel = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))
            mu_rel = mu / (1.0 + abs(obj_p) + abs(obj_d))

            last_res = {"primal_residual": pres, "dual_residual": dres,
                        "gap": gap_rel, "mu": mu}
            merit = max(pres, dres, gap_rel, mu_rel)
            if best is None or merit < best[0]:
                best = (merit, z.copy(), Z.copy())

            if pres <= FEAS_TOL and dres <= FEAS_TOL and (
                    gap_rel <= GAP_TOL or mu_rel <= GAP_TOL):
                status = "optimal"
                break

            try:
                # One factorization of the iterate: S = Ls Ls', Z = Lz Lz'.  The
                # inverse factors give S^-1 and all four step lengths.
                Linv = np.linalg.inv(np.linalg.cholesky(np.array((S, Z))))
                Sinv = Linv[0].T @ Linv[0]
                # Schur complement M[i,j] = tr(G_i Z G_j Sinv); the order
                # Z G_j Sinv matters, Z does not commute with the G's.
                Msc = Gf @ (Z @ Gb @ Sinv).reshape(pz, -1).T
                Msc = 0.5 * (Msc + Msc.T)
                try:
                    Minv = np.linalg.inv(Msc)
                except np.linalg.LinAlgError:
                    Minv = np.linalg.pinv(Msc)

                def direction(Rcomp):
                    T = (Rcomp - Z @ Rd) @ Sinv
                    rhs = Gf @ T.ravel() - rp
                    dz = Minv @ rhs
                    dz += Minv @ (rhs - Msc @ dz)    # one step of refinement
                    dS = Rd + (dz @ Gf).reshape(D, D)
                    M = (Rcomp - Z @ dS) @ Sinv
                    return dz, dS, 0.5 * (M + M.T)

                # Predictor.
                dz_a, dS_a, dZ_a = direction(-(Z @ S))
                a_p, a_d = np.minimum(1.0, STEP_FRACTION * _max_steps(
                    Linv, np.array((dS_a, dZ_a))))
                gap_aff = float(np.vdot(S + a_p * dS_a, Z + a_d * dZ_a))
                sigma = min(1.0, max(1e-10, (gap_aff / gap) ** 3)) if gap > 0 else 0.0

                # Corrector.
                dz, dS, dZ = direction(sigma * mu * eye - Z @ S - dZ_a @ dS_a)
                a_p, a_d = _max_steps(Linv, np.array((dS, dZ)))
            except np.linalg.LinAlgError:
                status = "numerical-failure"
                message = "factorization failed (loss of positive definiteness)"
                break

            a_p = min(1.0, STEP_FRACTION * a_p)
            a_d = min(1.0, STEP_FRACTION * a_d)
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
            it = MAX_ITER

    if status != "optimal" and best is not None:
        _, z, Z = best

    return finish(status, z, Z, it, message)


# ---------------------------------------------------------------------------
# Domain-level programs.
# ---------------------------------------------------------------------------

SolverFn = Callable[[SdpProblem], SdpSolution]


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


class _RateProgram:
    """A program whose rate enters one term only, compiled once.

    ``problem`` leaves that term out (``L_rho*`` of the basis of Q in phase
    I, ``-L_rho`` of the basis of P in the margin program), and ``comp`` is
    its standard form with the equality elimination; the arrays that every
    rate shares are read-only.  :meth:`at` writes the term for one rate
    with the arithmetic of a fresh build: the ``_lyapunov_stack`` formula,
    then compile's symmetrized ``+=`` into zeros.
    """

    def __init__(self, problem: SdpProblem, var: str, label: str,
                 basis: np.ndarray, sys: SystemData, adjoint: bool):
        comp = problem.compile()
        comp.elimination = _eliminate(comp)
        for a in (comp.F0, comp.c, comp.A_eq, comp.b_eq, *comp.elimination[:2]):
            a.setflags(write=False)
        self.problem, self.comp, self.basis = problem, comp, basis
        self.var = slice(*comp.spans[var])          # the coordinates of Q or P
        self.block = _block_slices(comp.blocks)[comp.labels.index(label)]
        self.product = _rate_free(basis, sys, adjoint)
        self.n, self.adjoint = sys.n, adjoint

    def at(self, rho: float) -> SdpProblem:
        """The program at rate ``rho``; its ``compile()`` returns the form."""
        a = _rate_shift(self.product, self.basis, self.n, rho, self.adjoint)
        if not self.adjoint:
            a = -a
        cols = self.comp.cols.copy()
        cols[self.var, self.block, self.block] += 0.5 * (a + a.swapaxes(1, 2))
        pb = copy.copy(self.problem)
        pb._compiled = replace(self.comp, cols=cols)
        return pb


def _prepare_margin(sys: SystemData, iqcs: IqcSet) -> _RateProgram:
    """The margin program of :func:`solve_margin_primal`, over all rates."""
    n, d = sys.n, sys.n + sys.m
    E = svec_basis(n)
    pb = SdpProblem()
    pb.add_scalar_var("s")
    pb.add_sym_var("P", n)
    lams = [pb.add_scalar_var(f"lam{i}") for i in range(len(iqcs))]
    pb.minimize([("s", [1.0])])
    # Its term -L_rho(P) is written by _RateProgram.at.
    pb.add_psd(d, None, [("s", np.eye(d)[None])]
               + [(lam, -M[None]) for lam, M in zip(lams, iqcs)], label="margin")
    pb.add_psd(n, -np.eye(n), [("P", E)], label="P_minus_I")
    for lam in lams:
        pb.add_scalar_ineq(0.0, [(lam, [1.0])], label=f"{lam}_nonneg")
    pb.add_scalar_ineq(-MARGIN_FLOOR, [("s", [1.0])], label="floor")
    pb.add_scalar_ineq(TRACE_CAP, [("P", -np.trace(E, axis1=1, axis2=2))]
                       + [(lam, [-1.0]) for lam in lams], label="cap")
    return _RateProgram(pb, "P", "margin", E, sys, adjoint=False)


def _prepare_phase1(sys: SystemData, iqcs: IqcSet, scale: float) -> _RateProgram:
    """The phase-I program of :func:`dual_feasibility_margin`, over all
    rates; ``scale`` is ``sys.scale() + iqcs.scale()``."""
    n, d = sys.n, sys.n + sys.m
    E = svec_basis(d)
    pb = SdpProblem()
    pb.add_sym_var("Q", d)
    pb.add_scalar_var("t")
    pb.minimize([("t", [-1.0])])
    # Its term L_rho*(Q) is written by _RateProgram.at.
    pb.add_psd(n, None, [("t", -np.eye(n)[None])], label="adjoint")
    pb.add_psd(d, None, [("Q", E)], label="Q_psd")
    for i, M in enumerate(iqcs):
        pb.add_scalar_ineq(0.0, [("Q", np.tensordot(E, M)), ("t", [-1.0])],
                           label=f"iqc{i}")
    # Caps t at ten times the problem scale, above any slack a trace-1 Q
    # attains, so the row never binds at the optimum.
    pb.add_scalar_ineq(10.0 * scale, [("t", [-1.0])], label="tcap")
    pb.add_scalar_eq(-1.0, [("Q", np.trace(E, axis1=1, axis2=2))])
    return _RateProgram(pb, "Q", "adjoint", E, sys, adjoint=True)


class _Programs:
    """The phase-I and margin programs of one system, for one analysis.

    Each is prepared on its first use and then only has its rate term
    written at every later rate.  ``scale`` is ``sys.scale() +
    iqcs.scale()``, computed once.
    """

    def __init__(self, sys: SystemData, iqcs: IqcSet):
        self.sys, self.iqcs = sys, iqcs
        self.scale = sys.scale() + iqcs.scale()
        self._phase1: _RateProgram | None = None
        self._margin: _RateProgram | None = None

    def phase1(self, rho: float) -> SdpProblem:
        if self._phase1 is None:
            self._phase1 = _prepare_phase1(self.sys, self.iqcs, self.scale)
        return self._phase1.at(rho)

    def margin(self, rho: float) -> SdpProblem:
        if self._margin is None:
            self._margin = _prepare_margin(self.sys, self.iqcs)
        return self._margin.at(rho)


def solve_margin_primal(sys: SystemData, iqcs: IqcSet, rho: float, *,
                        solver: SolverFn | None = None,
                        _programs: _Programs | None = None) -> MarginPrimalResult:
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
    programs = _programs or _Programs(sys, iqcs)
    sol = (solver or solve)(programs.margin(rho))
    P = np.asarray(sol.values.get("P", np.eye(sys.n)))
    lams = np.array([float(sol.values.get(f"lam{i}", 0.0)) for i in range(len(iqcs))])
    return margin_point(sys, iqcs, rho, P, lams, sol,
                        s_star=float(sol.values.get("s", np.nan)))


def margin_point(sys: SystemData, iqcs: IqcSet, rho: float, P: np.ndarray,
                 lambdas: np.ndarray, solution: SdpSolution, *,
                 s_star: float | None = None) -> MarginPrimalResult:
    """The point (P, max(lambda, 0)) of the margin program at rate ``rho``.

    ``margin_check`` is the largest eigenvalue of the rate-rho inequality
    matrix, recomputed here with the arithmetic of ``margin_matrix`` but
    none of its input checks.  ``s_star`` is the solver's margin when the
    point came from a margin solve; otherwise it is the best margin of the
    point itself, ``max(margin_check, MARGIN_FLOOR)``.
    """
    lams = np.maximum(np.asarray(lambdas, dtype=float), 0.0)
    Pf = np.asarray(P, dtype=float)
    Ps = 0.5 * (Pf + Pf.T)
    H = _lyapunov_stack(Ps[None], sys, rho)[0]
    for lam, M in zip(lams, iqcs):
        H = H + lam * M
    margin_check = float(np.linalg.eigvalsh(H)[-1])
    s = max(margin_check, MARGIN_FLOOR) if s_star is None else s_star
    floor_active = s <= MARGIN_FLOOR + 1e-6 * (1 + abs(MARGIN_FLOOR))
    cap_active = (float(np.trace(P)) + float(np.sum(lams))) >= TRACE_CAP * (1 - 1e-6)
    return MarginPrimalResult(s_star=s, P=P, lambdas=lams, status=solution.status,
                              floor_active=floor_active, cap_active=cap_active,
                              margin_check=margin_check, solution=solution)


def dual_feasibility_margin(sys: SystemData, iqcs: IqcSet, rho: float, *,
                            solver: SolverFn | None = None,
                            _programs: _Programs | None = None
                            ) -> DualFeasibilityResult:
    """Phase-I slack of the dual constraint system at rate ``rho``.

    Maximizes t subject to L_rho*(Q) >= tI, trace(Q M_i) >= t, Q >= 0,
    trace(Q) = 1.  The feasible set is compact and always has interior,
    which makes this the numerically robust probe for the radius search.
    """
    iqcs.check_matches(sys)
    if rho <= 0:
        raise ValueError("rho must be positive")
    programs = _programs or _Programs(sys, iqcs)
    sol = (solver or solve)(programs.phase1(rho))
    t = float(sol.values.get("t", np.nan))
    Q = sol.values.get("Q")
    if Q is not None:
        Q = np.asarray(Q)
    return DualFeasibilityResult(t_star=t, Q=Q, status=sol.status, solution=sol)


def solve_margin_dual(sys: SystemData, iqcs: IqcSet, rho: float, *,
                      solver: SolverFn | None = None) -> MarginDualResult:
    """Maximize trace(L_rho*(Q)) over the trace-normalized dual set.

    Reports status ``infeasible`` (with the certifying phase-I margin)
    when the constraint set is empty, which happens exactly when the
    margin program is strictly feasible at this rate.
    """
    iqcs.check_matches(sys)
    if rho <= 0:
        raise ValueError("rho must be positive")
    programs = _Programs(sys, iqcs)
    phase1 = dual_feasibility_margin(sys, iqcs, rho, solver=solver,
                                     _programs=programs)
    if phase1.t_star < -1e-7 * programs.scale:
        return MarginDualResult(d_star=-np.inf, Q=None, status="infeasible",
                                infeasibility_margin=phase1.t_star, solution=None)
    n, d = sys.n, sys.n + sys.m
    E = svec_basis(d)
    adj = _lyapunov_stack(E, sys, rho, adjoint=True)
    pb = SdpProblem()
    pb.add_sym_var("Q", d)
    pb.minimize([("Q", -np.trace(adj, axis1=1, axis2=2))])
    pb.add_psd(n, None, [("Q", adj)], label="adjoint")
    pb.add_psd(d, None, [("Q", E)], label="Q_psd")
    for i, M in enumerate(iqcs):
        pb.add_scalar_ineq(0.0, [("Q", np.tensordot(E, M))], label=f"iqc{i}")
    pb.add_scalar_eq(-1.0, [("Q", np.trace(E, axis1=1, axis2=2))])
    sol = (solver or solve)(pb)
    Q = np.asarray(sol.values["Q"])
    return MarginDualResult(d_star=-sol.objective, Q=Q, status=sol.status,
                            infeasibility_margin=phase1.t_star, solution=sol)
