"""The benchmark workloads: seeded problem generators, the analysis each
case runs, and the answer check each result must pass.

Every workload is built by a maker ``make(seed, k, ctx) -> Batch``.  The
run calls it once per set-up ``k`` (``DRAWS`` set-ups); each call draws
its own problems from ``(seed, workload, k)``, so the same seed always
gives the same inputs.  Parameters that set how much work an analysis
does (the condition number ``L/m``, the step) are stratified over the
draws and cases, so that every seed gets the same mix of easy and hard
problems and only the points inside each stratum move.  The package
receives only the generated matrices (through its public API) or the
generated problem files (through the in-process CLI,
``iqcradius.cli.main(argv)``).

The answer checks are properties that hold for any seed:

* ``gd-sweep``: gradient descent with step ``a`` under the sector IQC
  has the radius ``max(|1 - a m|, |1 - a L|)``; the result must lie
  within ``2 * TOL`` of it, or above it by at most ``2 * TOL`` plus the
  probe resolution (``probe_resolution``), and the certificate ``(P,
  lambda)`` must re-verify by eigenvalues at ``rho_cert``.  A closed
  form outside the returned bracket is a *bracket miss*, and a result
  more than ``2 * TOL`` from it (within the resolution) is
  *resolution-limited*: both counted, not failed.
* ``filtered-radius``: the certificate re-verifies; ``rho`` is at least
  ``max_q rho(A + q B C) - TOL`` over ``q`` in ``[m, L]`` (quadratic
  objectives satisfy the sector and every off-by-one constraint, so no
  certificate may claim a faster rate); gradient-descent plants also
  meet their closed form within ``2 * TOL``.
* ``boundary-worst-case``: rotations and gradient descent at ``2/L``
  give exit 0 (a witness that passed its 10^4-step re-check) and a
  radius within ``2 * TOL`` of 1, plus the probe resolution for
  gradient descent, as on ``gd-sweep``; defective
  Jordan blocks are never reported bounded or stable (``rho >= 1 -
  TOL``); a problem run twice in one run writes byte-identical reports.
* ``report-verify``: honest reports verify (exit 0); the report whose
  ``P`` was corrupted fails (exit 4).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from iqcradius import cli, dynamic_iqc, radius
from iqcradius.dynamic_iqc import IqcFilter, PlantData
from iqcradius.model import IqcSet, SystemData

# The package's default radius tolerance (bisect_tol); answers are
# checked against it.
TOL = 1e-6
# Set-ups per run, each with its own draw of problems.  setup_s is
# their median.  The loop runs passes over every draw, so a pass should
# fit in a 30 s run: 5 draws of gd-sweep take about 33 s, 2 of
# boundary-worst-case about 28 s.
DRAWS = {"gd-sweep": 5, "filtered-radius": 3, "boundary-worst-case": 2,
         "report-verify": 3}
# Steps per draw of (m, L).  With 5 draws of 6 steps, a pass (about
# 30 s) covers every stratum of L/m and of the step once.
GD_STEPS = 6
KAPPA = (5.0, 20.0)          # range of the condition number L/m
KAPPA_STRATA = 5
EXIT_OK, EXIT_NO_WITNESS, EXIT_VERIFY_FAILED = 0, 3, 4
# spectral_radius counts a probe rate as below the radius when an exactly
# feasible dual point has slack >= -eps_t, with eps_t = PROBE_EPS *
# (sys.scale() + iqcs.scale()): the "floating-point resolution of the
# probes" that qualifies its bisect_tol accuracy.
PROBE_EPS = 1e-9


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    bracket_miss: bool = False
    resolution_limited: bool = False


@dataclass
class Case:
    """One analysis: ``run()`` is timed, ``check(output)`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Batch:
    cases: list[Case]
    warmup: Case


@dataclass
class Context:
    """Per-run state: the scratch directory and reports seen so far."""

    workdir: Path
    reports: dict = field(default_factory=dict)
    comparisons: int = 0


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    tag = sum(ord(c) * 31 ** i for i, c in enumerate(workload)) % 2**31
    return np.random.default_rng([seed, tag, k])


def _stratum(rng, j: int, count: int) -> float:
    """A point of (0, 1) inside stratum ``j`` of ``count``."""
    return (j + float(rng.uniform(0.02, 0.98))) / count


def _sector_params(rng, k: int) -> tuple[float, float]:
    """(m, L) with log L/m in a stratum set by the draw ``k``.

    Draws 0, 1, 2, 3, 4 take strata 0, 2, 4, 1, 3 of ``KAPPA_STRATA``,
    so any first few draws span the whole range.
    """
    m = float(rng.uniform(0.5, 2.0))
    lo, hi = KAPPA
    j = (2 * k) % KAPPA_STRATA
    return m, m * lo * (hi / lo) ** _stratum(rng, j, KAPPA_STRATA)


def sector_matrix(m: float, L: float) -> np.ndarray:
    """(u - m y)(L y - u) >= 0 as a quadratic form in (y, u)."""
    return np.array([[-m * L, 0.5 * (m + L)], [0.5 * (m + L), -1.0]])


def gd_rate(alpha: float, m: float, L: float) -> float:
    return max(abs(1.0 - alpha * m), abs(1.0 - alpha * L))


def gd_dual_slack(rho: float, alpha: float, m: float, L: float) -> float:
    """The best dual slack of gradient descent under the sector IQC.

    The largest, over PSD ``Q`` with trace 1, of the smaller of
    ``[1 -a] Q [1 -a]' - rho^2 Q_11`` and ``<Q, M>``: the figure the radius
    search compares with ``-eps_t``.  It is positive below the radius and
    negative above.  ``Q = [[1 + z, x], [x, 1 - z]] / 2`` with ``x^2 + z^2
    <= 1`` makes both affine on the unit disc, so the best of their
    minimum lies where one of them peaks or where they cross on the
    circle.
    """
    # (constant, x, z) coefficients of the two affine functions
    g = np.array([1.0 - rho * rho + alpha * alpha, -2.0 * alpha,
                  1.0 - rho * rho - alpha * alpha]) / 2
    h = np.array([-m * L - 1.0, m + L, 1.0 - m * L]) / 2
    points = [g[1:] / np.linalg.norm(g[1:]), h[1:] / np.linalg.norm(h[1:])]
    d, e = g[1:] - h[1:], h[0] - g[0]           # g = h on the line d.p = e
    nd = float(np.linalg.norm(d))
    if abs(e) <= nd:
        foot, along = d * e / nd ** 2, np.array([-d[1], d[0]]) / nd
        half = np.sqrt(nd * nd - e * e) / nd
        points += [foot + half * along, foot - half * along]
    return max(min(g[0] + g[1:] @ p, h[0] + h[1:] @ p) for p in points)


def probe_resolution(alpha: float, m: float, L: float, exact: float) -> float:
    """How far above the closed form a probe may still count as below it.

    The distance from ``exact`` to the rate where ``gd_dual_slack`` falls
    to ``-eps_t``: below 1e-7 for most steps, up to about 1e-5 next to
    ``2/L``, where the slack vanishes slowly.
    """
    sys, iqcs = gd_system(alpha, m, L)
    eps_t = PROBE_EPS * (sys.scale() + iqcs.scale())
    lo, hi = exact, exact + 1e-2
    for _ in range(60):                 # the slack is non-increasing in rho
        mid = 0.5 * (lo + hi)
        if gd_dual_slack(mid, alpha, m, L) >= -eps_t:
            lo = mid
        else:
            hi = mid
    return lo - exact


def against_exact(rho: float, bracket, exact: float,
                  resolution: float = 0.0) -> Verdict:
    """``rho`` within ``2 * TOL`` of a closed form, or above it by at most
    ``2 * TOL + resolution``: a probe can place the radius too high by
    its resolution, never too low.

    Bracket misses and resolution-limited results are counted.
    """
    lo, hi = bracket
    miss = not (lo <= exact <= hi)
    if not -2 * TOL <= rho - exact <= 2 * TOL + resolution:
        return Verdict(False, f"rho {rho!r} is {rho - exact:+.3e} from the "
                              f"exact {exact!r} (tolerance -{2 * TOL:.1e}, "
                              f"+{2 * TOL + resolution:.2e})", miss)
    return Verdict(True, "", miss, abs(rho - exact) > 2 * TOL)


def _certificate(sys: SystemData, iqcs: IqcSet, cert) -> str:
    """Re-verify (P, lambda) at rho_cert by eigenvalues; '' when it holds."""
    if cert.P is None or cert.rho_cert is None:
        return "no certificate"
    P = np.asarray(cert.P, dtype=float)
    G = np.hstack([sys.A, sys.B])
    H = G.T @ P @ G
    H[:sys.n, :sys.n] -= cert.rho_cert ** 2 * P
    for lam, M in zip(np.asarray(cert.lambdas, dtype=float).reshape(-1), iqcs):
        if lam < 0:
            return f"negative multiplier {lam:.3e}"
        H = H + lam * M
    eig = float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1])
    pmin = float(np.linalg.eigvalsh(0.5 * (P + P.T))[0])
    scale = sys.scale() + iqcs.scale()
    if eig > 1e-6 * scale or pmin < 1.0 - 1e-6:
        return f"certificate fails: margin eig {eig:.3e}, min eig P {pmin:.9g}"
    return ""


# ---------------------------------------------------------------------------
# plants and filters


def sector_filter(m: float, L: float) -> IqcFilter:
    """The static sector constraint on (y, u)."""
    return IqcFilter.static([[1.0], [0.0]], [[0.0], [1.0]], sector_matrix(m, L))


def off_by_one_filter(m: float, L: float, lag: int) -> IqcFilter:
    """The off-by-one constraint of Lessard, Recht & Packard, lagged.

    ``z1 = (L y_k - u_k) - (L y_{k-lag} - u_{k-lag})`` and
    ``z2 = u_k - m y_k`` with ``sum z1 z2 >= 0``; the filter state is a
    shift register of the last ``lag`` values of ``L y - u``.
    """
    A = np.eye(lag, k=-1)
    B1, B2 = np.zeros((lag, 1)), np.zeros((lag, 1))
    B1[0, 0], B2[0, 0] = L, -1.0
    C = np.zeros((2, lag))
    C[0, -1] = -1.0
    return IqcFilter(A_psi=A, B_psi1=B1, B_psi2=B2, C_psi=C,
                     D_psi1=[[L], [-m]], D_psi2=[[-1.0], [1.0]],
                     M=[[0.0, 0.5], [0.5, 0.0]])


def gd_plant(alpha: float) -> PlantData:
    return PlantData(A=[[1.0]], B=[[-alpha]], C=[[1.0]])


def heavy_ball_plant(alpha: float, beta: float) -> PlantData:
    """x+ = x - alpha u + beta (x - x_prev), state (x, x_prev)."""
    return PlantData(A=[[1.0 + beta, -beta], [1.0, 0.0]], B=[[-alpha], [0.0]],
                     C=[[1.0, 0.0]])


def gd_system(alpha: float, m: float, L: float) -> tuple[SystemData, IqcSet]:
    """Gradient descent on an (m, L) sector, from its plant and filter.

    The sector filter is static, so ``augment_all`` returns the n = 1,
    m = 1 system ``x+ = x - alpha u`` with the sector matrix itself.
    """
    return dynamic_iqc.augment_all(gd_plant(alpha), [sector_filter(m, L)])


# ---------------------------------------------------------------------------
# gd-sweep: spectral_radius over a gradient-descent step-size sweep


def _gd_case(name: str, alpha: float, m: float, L: float) -> Case:
    sys, iqcs = gd_system(alpha, m, L)
    exact = gd_rate(alpha, m, L)
    resolution = probe_resolution(alpha, m, L, exact)

    def check(cert) -> Verdict:
        if not cert.ok or not np.isfinite(cert.rho):
            return Verdict(False, f"status {cert.status}: {cert.message}")
        verdict = against_exact(cert.rho, cert.bracket, exact, resolution)
        if verdict.ok and (bad := _certificate(sys, iqcs, cert)):
            verdict.ok, verdict.reason = False, bad
        return verdict

    return Case(name, lambda: radius.spectral_radius(sys, iqcs), check)


def gd_sweep(seed: int, k: int, ctx: Context) -> Batch:
    rng = _rng(seed, "gd-sweep", k)
    m, L = _sector_params(rng, k)
    # One step per stratum of (0, 2/L): the grid covers the whole range,
    # including the optimal step 2/(m+L) and steps next to 2/L.
    alphas = [(2.0 / L) * _stratum(rng, j, GD_STEPS) for j in range(GD_STEPS)]
    cases = [_gd_case(f"gd-sweep/{k}/{j}", a, m, L) for j, a in enumerate(alphas)]
    return Batch(cases, warmup=cases[0])


# ---------------------------------------------------------------------------
# filtered-radius: classify on plants augmented with off-by-one filters

# (plant, lags of the off-by-one filters): n = 3, 3, 4, 4, 5.
FILTERED = (("gd", (2,)), ("hb", (1,)), ("gd", (1, 2)), ("hb", (2,)),
            ("hb", (1, 2)))


def _quadratic_rate(plant: PlantData, m: float, L: float) -> float:
    """max over q in [m, L] of rho(A + q B C): the rate on quadratics."""
    rates = [np.abs(np.linalg.eigvals(plant.A + q * plant.B @ plant.C)).max()
             for q in np.linspace(m, L, 257)]
    return float(max(rates))


def _filtered_case(name: str, plant: PlantData, lags, m: float, L: float,
                   exact: float | None) -> Case:
    filters = [sector_filter(m, L)] + [off_by_one_filter(m, L, g) for g in lags]
    sys, iqcs = dynamic_iqc.augment_all(plant, filters)
    floor = _quadratic_rate(plant, m, L)

    def check(verdict) -> Verdict:
        cert = verdict.certificate
        if cert is None or not cert.ok or not np.isfinite(cert.rho):
            return Verdict(False, f"{verdict.classification}: {verdict.reasons}")
        if bad := _certificate(sys, iqcs, cert):
            return Verdict(False, bad)
        if cert.rho < floor - TOL:
            return Verdict(False, f"rho {cert.rho!r} below the rate "
                                  f"{floor!r} quadratics achieve")
        if exact is not None:
            return against_exact(cert.rho, cert.bracket, exact)
        return Verdict(True)

    return Case(name, lambda: radius.classify(sys, iqcs), check)


def filtered_radius(seed: int, k: int, ctx: Context) -> Batch:
    rng = _rng(seed, "filtered-radius", k)
    m, L = _sector_params(rng, k)
    cases = []
    for j, (kind, lags) in enumerate(FILTERED):
        alpha = _stratum(rng, j, len(FILTERED)) * (1.5 / L) + 0.25 / L
        if kind == "gd":
            plant, exact = gd_plant(alpha), gd_rate(alpha, m, L)
        else:
            beta = float(rng.uniform(0.2, 0.4))
            plant, exact = heavy_ball_plant(alpha, beta), None
        cases.append(_filtered_case(f"filtered-radius/{k}/{kind}{lags}",
                                    plant, lags, m, L, exact))
    return Batch(cases, warmup=cases[0])


# ---------------------------------------------------------------------------
# problem files and the in-process CLI


def matrix_json(a) -> dict:
    a = np.asarray(a, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": [float(x) for x in a.ravel()]}


def write_problem(path: Path, A, B=None, iqcs=()) -> str:
    A = np.asarray(A, dtype=float)
    doc = {"dims": {"n": A.shape[0], "m": 0 if B is None else np.shape(B)[1]},
           "A": matrix_json(A), "iqcs": [matrix_json(M) for M in iqcs]}
    if B is not None:
        doc["B"] = matrix_json(B)
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv: list[str]) -> int:
    """``iqcradius`` in process; its human summary is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _first_coordinate(n: int) -> np.ndarray:
    """The one-coordinate nonnegative IQC x_1^2 >= 0."""
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    return E


def _angle(rng) -> float:
    return float(rng.uniform(0.4, np.pi - 0.4))


def boundary_problems(rng, k: int, workdir: Path) -> dict[str, tuple[str, str, float]]:
    """One set of boundary systems as problem files.

    name -> (kind, path, probe resolution at the radius 1).
    """
    t1, t2 = _angle(rng), _angle(rng)
    t3 = t2 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.3, 0.8))
    A4 = np.zeros((4, 4))
    A4[:2, :2], A4[2:, 2:] = _rotation(t2), _rotation(t3)
    m, L = _sector_params(rng, k)
    sign = float(rng.choice([-1.0, 1.0]))
    c1, c2, c3 = rng.uniform(0.5, 2.0, 3)
    problems = {
        "rot2": ("rotation", _rotation(t1), None, [_first_coordinate(2)], 0.0),
        "gd2L": ("gd-2/L", [[1.0]], [[-2.0 / L]], [sector_matrix(m, L)],
                 probe_resolution(2.0 / L, m, L, 1.0)),
        "jordan2": ("jordan", sign * np.eye(2) + np.diag([c1], 1), None,
                    [_first_coordinate(2)], 0.0),
        "rot4": ("rotation", A4, None, [_first_coordinate(4)], 0.0),
        "jordan3": ("jordan", sign * np.eye(3) + np.diag([c2, c3], 1), None,
                    [_first_coordinate(3)], 0.0),
    }
    return {name: (kind, write_problem(workdir / f"boundary-{k}-{name}.json", A, B, iqcs),
                   resolution)
            for name, (kind, A, B, iqcs, resolution) in problems.items()}


def _worst_case(kind: str, pid: str, problem: str, resolution: float,
                ctx: Context) -> Case:
    out = ctx.workdir / f"wc-{pid.replace('/', '-')}.json"

    def run():
        code = run_cli(["worst-case", problem, "--out", str(out)])
        return code, out.read_bytes()

    def check(result) -> Verdict:
        code, raw = result
        first = ctx.reports.setdefault(pid, raw)
        if first is not raw:
            ctx.comparisons += 1
            if first != raw:
                return Verdict(False, "report differs from the earlier run")
        rep = json.loads(raw)
        rho = rep["rho"]
        if rho is None:
            return Verdict(False, "no finite radius")
        if kind == "jordan":
            if code == EXIT_OK or rep["witness"] is not None:
                return Verdict(False, "defective boundary reported bounded")
            if code != EXIT_NO_WITNESS or rho < 1.0 - TOL:
                return Verdict(False, f"exit {code}, rho {rho!r}")
            return Verdict(True)
        verdict = against_exact(rho, rep["bracket"], 1.0, resolution)
        if verdict.ok and (code != EXIT_OK or rep["witness"] is None):
            verdict.ok = False
            verdict.reason = f"exit {code}: {rep['stage']} {rep['reason']}"
        return verdict

    return Case(f"boundary-worst-case/{pid}", run, check)


def boundary_worst_case(seed: int, k: int, ctx: Context) -> Batch:
    """Rotations (n=2, 4), GD at 2/L, Jordan blocks of size 2 and 3.

    The warm-up runs the set's first problem, so the measured run of the
    same problem is compared byte for byte with it.
    """
    rng = _rng(seed, "boundary-worst-case", k)
    cases = [_worst_case(kind, f"{k}/{name}", path, resolution, ctx)
             for name, (kind, path, resolution)
             in boundary_problems(rng, k, ctx.workdir).items()]
    return Batch(cases, warmup=cases[0])


# ---------------------------------------------------------------------------
# report-verify: replay reports written during set-up


def _corrupt(report: Path, out: Path) -> None:
    doc = json.loads(report.read_text())
    P = doc["certificate"]["P"]
    P["data"][0] = 0.5 * P["data"][0] - 1.0
    out.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _verify_case(name: str, report: Path, problem: str, expect: int) -> Case:
    def check(code) -> Verdict:
        return Verdict(code == expect, "" if code == expect
                       else f"verify exit {code}, expected {expect}")

    return Case(name, lambda: run_cli(["verify", str(report), problem]), check)


def report_verify(seed: int, k: int, ctx: Context) -> Batch:
    """Two rotations' witness reports, a GD radius report, and the first
    witness report with its ``P`` corrupted.

    Three of four replays re-check a 10^4-step witness orbit (the
    corrupted one too: verify runs every check), so the median lands on
    ``check_witness``; every witness is a 2x2 rotation, so that median
    does not depend on which witnesses a seed draws.
    """
    rng = _rng(seed, "report-verify", k)
    d = ctx.workdir
    rotations = [write_problem(d / f"verify-{k}-rot{i}.json",
                               _rotation(_angle(rng)), None, [_first_coordinate(2)])
                 for i in range(2)]
    m, L = _sector_params(rng, k)
    alpha = float(rng.uniform(0.2, 1.8)) / L
    stable = write_problem(d / f"verify-{k}-gd.json", [[1.0]], [[-alpha]],
                           [sector_matrix(m, L)])
    witness = [d / f"verify-{k}-wc{i}.json" for i in range(2)]
    rad, bad = d / f"verify-{k}-radius.json", d / f"verify-{k}-bad.json"
    for argv in [["worst-case", p, "--out", str(w)] for p, w in zip(rotations, witness)] \
            + [["radius", stable, "--out", str(rad)]]:
        if run_cli(argv) != EXIT_OK:
            raise RuntimeError(f"set-up could not write a report: {argv}")
    _corrupt(witness[0], bad)
    cases = [_verify_case(f"report-verify/{k}/witness{i}", w, p, EXIT_OK)
             for i, (w, p) in enumerate(zip(witness, rotations))]
    cases += [_verify_case(f"report-verify/{k}/radius", rad, stable, EXIT_OK),
              _verify_case(f"report-verify/{k}/corrupted", bad, rotations[0],
                           EXIT_VERIFY_FAILED)]
    return Batch(cases, warmup=cases[2])


WORKLOADS = {
    "gd-sweep": gd_sweep,
    "filtered-radius": filtered_radius,
    "boundary-worst-case": boundary_worst_case,
    "report-verify": report_verify,
}
