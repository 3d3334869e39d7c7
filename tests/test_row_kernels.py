"""The row kernels, their layout, and their cost.

A three-operand ``einsum`` such as ``"ki,ij,kj->k"`` is several times
slower than ``model._row_forms`` (a matrix product, then a two-operand
row einsum) on the 10^4-row orbits that ``verify`` re-checks.  Every
``einsum`` call in ``src/iqcradius`` must therefore take at most two
operands, and its subscripts must be a string literal so that this can
be read off the source.

The kernels compute on the ``(d, N)`` transposes of their row arrays, and
``worstcase.mode_orbit`` stores its orbits column-major so that those
transposes are contiguous.  They must give the same numbers as a plain
per-row loop for either layout, and the orbits must stay column-major.
``mode_orbit`` has one call site, so a witness is walked once, and
``verify`` imports no private name from ``worstcase``.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcradius.model import (
    IqcSet,
    SystemData,
    Trajectory,
    _residual_and_state_norms,
    _row_forms,
    _row_norms,
    simulate,
)
from iqcradius.radius import RadiusCertificate
from iqcradius.verify import lyapunov_trace, trajectory_diagnostics
from iqcradius.worstcase import WorstCaseModes, mode_orbit

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iqcradius"
SOURCES = sorted(PACKAGE.glob("*.py"))


def einsum_calls(path: Path) -> list[tuple[int, str | None, int]]:
    """Line, literal subscripts (or None) and operand count of each call."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if name != "einsum" or not node.args:
            continue
        first = node.args[0]
        literal = first.value if isinstance(first, ast.Constant) \
            and isinstance(first.value, str) else None
        calls.append((node.lineno, literal, len(node.args) - 1))
    return calls


def test_every_einsum_takes_at_most_two_operands():
    assert SOURCES
    calls = {f"{path.name}:{line}": (literal, operands)
             for path in SOURCES for line, literal, operands in einsum_calls(path)}
    assert calls
    slow = {where: literal for where, (literal, operands) in calls.items()
            if literal is None or operands > 2
            or len(literal.split("->")[0].split(",")) > 2}
    assert not slow


def _layout(a: np.ndarray, fortran: bool) -> np.ndarray:
    return np.asfortranarray(a) if fortran else np.ascontiguousarray(a)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(0, 3),
       steps=st.integers(0, 10**4), fortran=st.booleans())
def test_row_kernels_match_a_per_row_loop(seed, n, m, steps, fortran):
    """Forms, norms and the dynamics residual agree with one float64 loop
    over the rows to 1e-12 of each row's scale, in C or Fortran order."""
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    X = _layout(rng.standard_normal((steps + 1, n)), fortran)
    U = _layout(rng.standard_normal((steps, m)), fortran)
    traj = Trajectory(states=X, inputs=U)
    Z = _layout(traj.stacked(), fortran)
    M = rng.standard_normal((n + m, n + m))

    forms, norms = _row_forms(Z, M), _row_norms(Z)
    residual, state_norms = _residual_and_state_norms(SystemData(A, B), traj)
    worst = 0.0
    for k, z in enumerate(Z):
        scale = float(np.abs(z) @ np.abs(M) @ np.abs(z))
        assert abs(forms[k] - float(z @ M @ z)) <= 1e-12 * scale
        length = float(np.sqrt(z @ z))
        assert abs(norms[k] - length) <= 1e-12 * length
        x, step = X[k], X[k + 1] - A @ X[k] - B @ U[k]
        worst = max(worst, float(np.sqrt(step @ step)) / (1.0 + np.sqrt(x @ x)))
    for k, x in enumerate(X):
        length = float(np.sqrt(x @ x))
        assert abs(state_norms[k] - length) <= 1e-12 * length
    assert abs(residual - worst) <= 1e-12 * worst


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), n=st.integers(2, 6),
       m=st.integers(2, 3), horizon=st.integers(2, 10**4),
       growth=st.sampled_from([1.0, 1.01]))
def test_mode_orbits_are_column_major(seed, d, n, m, horizon, growth):
    """Rows, states and inputs are transposes of C-ordered arrays, so a
    return to row layout fails here."""
    rng = np.random.default_rng(seed)
    F, _ = np.linalg.qr(rng.standard_normal((d, d)))
    modes = WorstCaseModes(Q=None, d=d, X=rng.standard_normal((n, d)),
                           U=rng.standard_normal((m, d)), F=F, groups=(),
                           H=(), v=rng.standard_normal(d))
    Z, traj = mode_orbit(modes, horizon, growth)
    for rows in (Z, traj.states, traj.inputs, traj.stacked()):
        assert rows.flags.f_contiguous and not rows.flags.c_contiguous


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(0, 2),
       steps=st.integers(0, 2000))
def test_simulated_trajectory_checks_match_a_per_row_loop(seed, n, m, steps):
    """On ``simulate``'s row-major trajectories, ``lyapunov_trace`` and
    ``trajectory_diagnostics`` agree with one loop over the steps."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 0.99 / max(1.0, float(np.abs(np.linalg.eigvals(A)).max()))
    B = rng.standard_normal((n, m))
    sys = SystemData(A, B)
    traj = simulate(sys, rng.standard_normal(n), rng.standard_normal((steps, m)))
    assert traj.states.flags.c_contiguous
    Ms = [rng.standard_normal((n + m, n + m)) for _ in range(2)]
    iqcs = IqcSet.from_matrices([M + M.T for M in Ms])
    P = rng.standard_normal((n, n))
    P = P @ P.T + np.eye(n)
    lambdas = rng.uniform(0.0, 2.0, 2)
    cert = RadiusCertificate(rho=0.5, P=P, lambdas=lambdas, attained=False,
                             bracket=(0.5, 0.5), rho_cert=0.5)

    trace = lyapunov_trace(sys, traj, cert, iqcs)
    diag = trajectory_diagnostics(sys, traj, iqcs)
    X, U = traj.states, traj.inputs
    sums, minima, worst, scale = np.zeros(2), np.full(2, np.inf), 0.0, 0.0
    for k in range(steps + 1):
        x = X[k]
        value = float(x @ P @ x) + float(lambdas @ sums)
        scale = max(scale, float(np.abs(x) @ np.abs(P) @ np.abs(x))
                    + float(lambdas @ np.abs(sums)))
        assert abs(trace.values[k] - value) <= 1e-12 * (1.0 + scale) * (k + 1)
        if k == steps:
            break
        z = np.concatenate([x, U[k]])
        sums += [z @ M @ z for M in iqcs]
        minima = np.minimum(minima, sums)
        step = X[k + 1] - A @ x - B @ U[k]
        worst = max(worst, float(np.sqrt(step @ step)) / (1.0 + np.sqrt(x @ x)))
    assert trace.identity_ok
    assert abs(diag.dynamics_residual - worst) <= 1e-12 * (1.0 + worst)
    assert np.allclose(diag.iqc_minima, minima, rtol=1e-12,
                       atol=1e-12 * (1.0 + scale) * (steps + 1))
    assert diag.dynamics_ok


def test_mode_orbit_has_one_call_site():
    """A witness orbit is walked in one place, ``verify._walk``."""
    sites = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "mode_orbit" in
             (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert len(sites) == 1, sites


def test_verify_imports_no_private_name_from_worstcase():
    """``verify`` reads the shift and the pointwise flag off its own walk;
    it borrows no private helper from ``worstcase``."""
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "worstcase"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
