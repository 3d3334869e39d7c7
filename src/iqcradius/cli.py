"""Command-line front end: problem files in, machine-readable reports out.

Problem files are JSON documents.  A static analysis problem carries a
``dims`` block (``{"n": ..., "m": ...}``), the matrix ``A``, the matrix
``B`` when ``m > 0``, and an optional ``iqcs`` list of symmetric
constraint matrices.  Matrices are objects with explicit dimensions,
``{"rows": r, "cols": c, "data": [...]}`` with row-major flat data (a
nested list of rows is also accepted), so an ``n x 0`` matrix
serializes as ``{"rows": n, "cols": 0, "data": []}``.  A file may
instead (or additionally) carry a ``plant`` block and a ``filters``
list describing filtered constraints for the ``augment`` command, plus
an ``options`` block overriding default tolerances.

Reports are JSON documents with sorted keys and fixed formatting, so
identical inputs and flags produce byte-identical files.  ``radius`` and
``worst-case`` run ``classify`` once (``_analyze``) and write one
report, which differs between them only in ``kind``.  It records the
computed radius, bracket, attainment, the certificate ``(P, lambda)``
with its rate, the stability verdict and its reasons, the witness stage
and its reason, the full witness when one was found (``X``, ``U``,
``F``, eigen-groups with their angles and basis columns, ``v``, the
feedback gain, the hard-constraint shift and the constraint lower
bounds), and the verification margins that ``verify`` re-checks.
Eigen-group bases are stored as separate real and imaginary parts so
reports round-trip exactly.

One test accepts a witness, ``verify.check_witness``: ``build_witness``
runs its tests last, on the orbit it returns, so a report carries only
a witness that passed them, and ``verify`` walks the same orbit
from the recorded block, runs the tests again and prints the results
as four items.  ``verify`` recomputes each recorded margins
block with the functions that wrote it (``_certificate_margins``,
``_witness_margins``) and compares them entry by entry, ``steps``
included; a non-finite recomputed number never matches.  The
certificate must pass the test that admitted it in the search
(``model.certificate_defect``, bound -0.5 ``radius.STRICT_EPS`` scale)
at ``rho_cert``, a finite positive rate (exit 1 otherwise) that must be
the bracket's upper end, with ``rho`` inside the bracket.  Each headline
key present is checked, and ``kind`` names those a report of an earlier
release must carry: ``status`` is ``ok`` exactly with a certificate
matrix, ``stage`` (one of ``worstcase.STAGES``) is ``complete`` exactly
with a witness, and ``verdict`` is one of ``radius.VERDICTS``;
``asymptotically-stable`` needs ``rho_cert < 1`` or, with no
constraints and no input, ``max |eig(A)| < 1``, and
``witness-unstable`` needs the witness block.  It rejects a witness
block whose arrays do not have the shapes that ``n``, ``m`` and ``X``
give (exit 1).  Not re-checked yet: the verdict ``bounded``,
``attained``, ``bracket[0]`` and which failing stage is named;
``options``, ``message``, ``reasons``, ``reason`` and ``notes`` are
annotations.

Exit codes:

* 0 -- success.
* 1 -- input error: unreadable or unparseable file, inconsistent
  dimensions, missing blocks, or a usage error (an unknown flag, a
  missing argument, a flag value that does not parse).
* 2 -- ``radius``: no certified rate at or below the search ceiling.
* 3 -- ``worst-case``: no witness, and none is written; the stage that
  stopped the pipeline is named in the output.
* 4 -- ``verify``: a recorded margin failed to reproduce or a check
  failed.

The environment variables ``IQCRADIUS_TOL`` and ``IQCRADIUS_RHO_MAX``
override the built-in defaults; a problem file's ``options`` block
overrides the environment, and command-line flags override everything.
A bad value from any of them (see ``_check_option``) is an input error,
and so is a ``rho_max`` above ``radius.RHO_MAX_LIMIT`` = 1e50.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamic_iqc import IqcFilter, PlantData, augment_all
from .model import (DimensionMismatchError, IqcSet, SystemData,
                    certificate_defect, margin_matrix)
from .radius import RHO_MAX_LIMIT, STRICT_EPS, VERDICTS, classify
from .verify import CHECK_HORIZON, check_witness
from .worstcase import (STAGES, EigenGroup, WitnessOutcome, WitnessReport,
                        WorstCaseModes, _constraint_forms)

__all__ = ["main", "load_problem", "ProblemFormatError"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CERTIFICATE = 2
EXIT_NO_WITNESS = 3
EXIT_VERIFY_FAILED = 4

DEFAULT_TOL = 1e-6
DEFAULT_RHO_MAX = 1e3
# Agreement required between recorded and recomputed margins.
REPRODUCE_RTOL = 1e-9

_OPTION_DEFAULTS = {"rho_max": DEFAULT_RHO_MAX, "tol": DEFAULT_TOL}
_OPTION_KEYS = tuple(_OPTION_DEFAULTS)
_FILTER_KEYS = ("A_psi", "B_psi1", "B_psi2", "C_psi", "D_psi1", "D_psi2", "M")
# The keys of a report's witness block and of each eigen-group, in the
# order the writer zips its values with them and the reader unpacks them.
_WITNESS_KEYS = ("X", "U", "F", "groups", "v", "gain", "iqc_lower_bounds",
                 "hard_shift", "pointwise", "growth", "notes")
_GROUP_KEYS = ("theta", "W_re", "W_im")
# The headline keys that each kind of report has always carried.
_HEADLINE_KEYS = {"radius": ("status", "verdict"), "worst-case": ("stage",)}


class ProblemFormatError(ValueError):
    """A problem or report file does not parse; names field and place."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProblemFormatError(message)


def _as_count(value, field: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{field}: expected an integer, got {value!r}")
    _require(value >= 0, f"{field}: must be nonnegative, got {value}")
    return value


def _matrix_from_json(obj, field: str, shape=None) -> np.ndarray:
    """Decode a matrix: either {rows, cols, data} or a list of rows; with
    ``shape``, a matrix of another shape is an input error."""
    if isinstance(obj, list):
        data, rows = obj, len(obj)
        cols = len(obj[0]) if obj and isinstance(obj[0], list) else 0
        nested = True
    else:
        _require(isinstance(obj, dict),
                 f"{field}: expected a matrix object with rows/cols/data "
                 f"or a list of rows")
        for key in ("rows", "cols", "data"):
            _require(key in obj, f"{field}: missing '{key}'")
        rows = _as_count(obj["rows"], f"{field}.rows")
        cols = _as_count(obj["cols"], f"{field}.cols")
        data = obj["data"]
        _require(isinstance(data, list), f"{field}.data: expected a list")
        nested = bool(data) and all(isinstance(row, list) for row in data)
        _require(not nested or len(data) == rows,
                 f"{field}: expected {rows} rows, got {len(data)}")
    if nested:
        flat: list = []
        for idx, row in enumerate(data):
            _require(isinstance(row, list),
                     f"{field}: row {idx} is not a list")
            _require(len(row) == cols,
                     f"{field}: row {idx} has {len(row)} entries, "
                     f"expected {cols}")
            flat.extend(row)
    else:
        _require(len(data) == rows * cols,
                 f"{field}: expected {rows * cols} entries for "
                 f"{rows}x{cols}, got {len(data)}")
        flat = data
    _require(all(map(_is_number, flat)), f"{field}: entries must be numbers")
    arr = np.asarray(flat, dtype=float).reshape(rows, cols)
    _require(np.isfinite(arr).all(), f"{field}: entries must be finite")
    if shape is not None:
        _require(arr.shape == shape,
                 f"{field}: expected {shape[0]}x{shape[1]}, got {rows}x{cols}")
    return arr


def _matrix_to_json(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
            "data": [float(x) for x in arr.ravel(order="C")]}


def _is_number(value) -> bool:
    """A float, or an integer that converts to one; not a bool."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max)


def _check_option(key: str, value, source: str) -> None:
    """An option is a finite number > 0, ``rho_max`` at most
    ``RHO_MAX_LIMIT`` (beyond it the engine's rho^4 products overflow);
    ``source`` names where the value came from."""
    limit = RHO_MAX_LIMIT if key == "rho_max" else sys.float_info.max
    bound = f" up to {limit:g}" if key == "rho_max" else ""
    # False for NaN, inf and integers too large for a float.
    _require(_is_number(value) and 0 < value <= limit,
             f"{source}: expected a finite positive number{bound}, "
             f"got {value!r}")


def _as_number(value, field: str) -> float:
    _require(_is_number(value), f"{field}: expected a number, got {value!r}")
    return float(value)


def _vector_from_json(obj, field: str) -> np.ndarray:
    _require(isinstance(obj, list), f"{field}: expected a list of numbers")
    _require(all(map(_is_number, obj)), f"{field}: entries must be numbers")
    return np.asarray(obj, dtype=float)


def _num(x) -> float | None:
    """A float for JSON, with None standing in for non-finite values."""
    x = float(x)
    return x if np.isfinite(x) else None


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


@dataclass
class Problem:
    """Parsed problem file: static system, filters, and options."""

    sys: SystemData | None
    iqcs: IqcSet | None
    plant: PlantData | None
    filters: tuple[IqcFilter, ...]
    options: dict


def _read_json(path: str) -> dict:
    """Read a JSON document whose top level is an object."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: invalid document: {exc.msg} (line {exc.lineno}, "
            f"column {exc.colno})") from None
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    return doc


def load_problem(path: str) -> Problem:
    """Parse a problem file; errors name the offending field."""
    doc = _read_json(path)
    allowed = {"dims", "A", "B", "iqcs", "plant", "filter", "filters",
               "options"}
    for key in doc:
        _require(key in allowed, f"unknown top-level field '{key}'")

    sys_data = None
    iqcs = None
    if "dims" in doc or "A" in doc:
        _require("dims" in doc, "dims block required alongside A")
        dims = doc["dims"]
        _require(isinstance(dims, dict), "dims: expected an object")
        _require("n" in dims and "m" in dims, "dims: needs both n and m")
        n = _as_count(dims["n"], "dims.n")
        m = _as_count(dims["m"], "dims.m")
        _require(n >= 1, "dims.n: must be at least 1")
        _require("A" in doc, "A: required")
        A = _matrix_from_json(doc["A"], "A", (n, n))
        _require("B" in doc or m == 0, "B: required when m > 0")
        B = _matrix_from_json(doc["B"], "B", (n, m)) if "B" in doc \
            else np.zeros((n, 0))
        mats = []
        raw = doc.get("iqcs", [])
        _require(isinstance(raw, list), "iqcs: expected a list")
        for idx, entry in enumerate(raw):
            M = _matrix_from_json(entry, f"iqcs[{idx}]", (n + m, n + m))
            asym = float(np.linalg.norm(M - M.T))
            _require(asym <= 1e-9 * max(1.0, float(np.linalg.norm(M))),
                     f"iqcs[{idx}]: matrix is not symmetric")
            mats.append(M)
        sys_data = SystemData(A=A, B=B)
        iqcs = IqcSet.from_matrices(mats, dim=n + m)

    plant = None
    if "plant" in doc:
        blk = doc["plant"]
        _require(isinstance(blk, dict), "plant: expected an object")
        for key in blk:
            _require(key in {"A", "B", "C", "D"},
                     f"plant: unknown field '{key}'")
        _require("A" in blk, "plant.A: required")
        _require("C" in blk, "plant.C: required")
        kwargs = {k: _matrix_from_json(blk[k], f"plant.{k}")
                  for k in ("A", "B", "C", "D") if k in blk}
        try:
            plant = PlantData(**kwargs)
        except (DimensionMismatchError, ValueError) as exc:
            raise ProblemFormatError(f"plant: {exc}") from None

    raw_filters = doc.get("filters", [])
    if "filter" in doc:
        _require("filters" not in doc,
                 "give either 'filter' or 'filters', not both")
        raw_filters = [doc["filter"]]
    _require(isinstance(raw_filters, list), "filters: expected a list")
    filters = []
    for idx, blk in enumerate(raw_filters):
        _require(isinstance(blk, dict), f"filters[{idx}]: expected an object")
        for key in blk:
            _require(key in _FILTER_KEYS,
                     f"filters[{idx}]: unknown field '{key}'")
        for key in _FILTER_KEYS:
            _require(key in blk, f"filters[{idx}]: missing field '{key}'")
        parts = {k: _matrix_from_json(blk[k], f"filters[{idx}].{k}")
                 for k in _FILTER_KEYS}
        try:
            filters.append(IqcFilter(**parts))
        except (DimensionMismatchError, ValueError) as exc:
            raise ProblemFormatError(f"filters[{idx}]: {exc}") from None

    options = doc.get("options", {})
    _require(isinstance(options, dict), "options: expected an object")
    for key, value in options.items():
        _require(key in _OPTION_KEYS,
                 f"options: unknown key '{key}' (allowed: "
                 f"{', '.join(_OPTION_KEYS)})")
        _check_option(key, value, f"options.{key}")

    return Problem(sys=sys_data, iqcs=iqcs, plant=plant,
                   filters=tuple(filters), options=dict(options))


def _resolve(args, options: dict) -> tuple:
    """The options in ``_OPTION_KEYS`` order, each from the first of: its
    flag, the problem file's ``options``, ``IQCRADIUS_<KEY>`` in the
    environment, the built-in default.  A subcommand without a flag for
    a key skips the first step.  Each value passes ``_check_option``,
    whichever source it came from."""
    out = []
    for key, default in _OPTION_DEFAULTS.items():
        env_key = f"IQCRADIUS_{key.upper()}"
        flag = getattr(args, key, None)
        if flag is not None:
            value, source = flag, "--" + key.replace("_", "-")
        elif key in options:
            value, source = options[key], f"options.{key}"
        elif env_key in os.environ:
            raw, source = os.environ[env_key], f"environment {env_key}"
            try:
                value = float(raw)
            except ValueError:
                raise ProblemFormatError(
                    f"{source}: expected a number, got {raw!r}") from None
        else:
            value, source = default, "default"
        _check_option(key, value, source)
        out.append(float(value))
    return tuple(out)


def _need_system(prob: Problem) -> tuple[SystemData, IqcSet]:
    _require(prob.sys is not None,
             "problem file has no static system block (dims/A/B); "
             "run the augment command first")
    return prob.sys, prob.iqcs


# ---------------------------------------------------------------------------
# report assembly


def _certificate_json(cert) -> dict:
    if cert.P is None:      # no certificate: no multipliers and no rate either
        return dict.fromkeys(("P", "lambdas", "rho_cert"))
    return {"P": _matrix_to_json(cert.P), "rho_cert": _num(cert.rho_cert),
            "lambdas": [float(x) for x in np.asarray(cert.lambdas).reshape(-1)]}


def _certificate_margins(sys_data: SystemData, iqcs: IqcSet, rho_c: float,
                         P, lambdas) -> dict:
    """Largest eigenvalue of the rate-rho_c inequality matrix, smallest of P."""
    lambdas = np.asarray(lambdas, dtype=float).reshape(-1)
    W = margin_matrix(sys_data, iqcs, rho_c, P, lambdas)
    eig = float(np.linalg.eigvalsh(W)[-1])
    pmin = float(np.linalg.eigvalsh(np.asarray(P))[0])
    return {"certificate_eig": eig, "p_min_eig": pmin}


def _witness_json(report: WitnessReport) -> dict:
    modes = report.modes
    groups = [dict(zip(_GROUP_KEYS, (float(g.theta), _matrix_to_json(g.W.real),
                                     _matrix_to_json(g.W.imag))))
              for g in modes.groups]
    return dict(zip(_WITNESS_KEYS, (
        _matrix_to_json(modes.X),
        _matrix_to_json(modes.U),
        _matrix_to_json(modes.F),
        groups,
        [float(x) for x in np.asarray(modes.v).reshape(-1)],
        None if report.gain is None else _matrix_to_json(report.gain),
        [float(x) for x in report.iqc_lower_bounds],
        None if report.hard_shift is None else int(report.hard_shift),
        bool(report.pointwise),
        float(report.growth),
        list(report.notes),
    )))


def _witness_margins(wc) -> dict:
    return {
        "dynamics_residual": float(wc.dynamics_residual),
        "iqc_margins": [float(x) for x in wc.iqc_margins],
        "norm_drift": float(wc.norm_drift),
        "direction_norm": float(wc.direction_norm),
        "gain_residual": _num(wc.gain_residual),
        "steps": int(wc.steps),
    }


def _witness_from_json(blk: dict, sys_data: SystemData,
                       iqcs: IqcSet) -> WitnessReport:
    """Parse a report's witness block into modes without ``Q``.  ``d`` is
    the column count of ``X``; every other array must have the shape that
    ``n``, ``m``, ``d`` and ``W_re`` give.  Other keys, such as an earlier
    release's ``d``, ``Q`` and ``multiplicity``, are ignored."""
    for key in _WITNESS_KEYS:
        _require(key in blk, f"report witness: missing field '{key}'")
    X, U, F, raw_groups, v, gain, bounds, hard_shift, pointwise, growth, \
        notes = (blk[key] for key in _WITNESS_KEYS)
    X = _matrix_from_json(X, "witness.X")
    n, m, d = sys_data.n, sys_data.m, X.shape[1]
    _require(X.shape[0] == n, f"witness.X: expected {n} rows, got {X.shape[0]}")
    U = _matrix_from_json(U, "witness.U", (m, d))
    F = _matrix_from_json(F, "witness.F", (d, d))
    v = _vector_from_json(v, "witness.v")
    _require(v.size == d, f"witness.v: expected {d} entries, got {v.size}")
    _require(isinstance(raw_groups, list), "witness.groups: expected a list")
    groups = []
    for idx, g in enumerate(raw_groups):
        field = f"witness.groups[{idx}]"
        _require(isinstance(g, dict), f"{field}: expected an object")
        for key in _GROUP_KEYS:
            _require(key in g, f"{field}: missing field '{key}'")
        theta, W_re, W_im = (g[key] for key in _GROUP_KEYS)
        W_re = _matrix_from_json(W_re, f"{field}.W_re")
        _require(W_re.shape[0] == d,
                 f"{field}.W_re: expected {d} rows, got {W_re.shape[0]}")
        W_im = _matrix_from_json(W_im, f"{field}.W_im", W_re.shape)
        groups.append(EigenGroup(theta=_as_number(theta, f"{field}.theta"),
                                 W=W_re + 1j * W_im))
    modes = WorstCaseModes(Q=None, d=d, X=X, U=U, F=F, groups=tuple(groups),
                           H=_constraint_forms(X, U, iqcs), v=v)
    gain = None if gain is None else _matrix_from_json(gain, "witness.gain", (m, n))
    _require(isinstance(pointwise, bool),
             "witness.pointwise: expected true or false")
    _require(isinstance(notes, list), "witness.notes: expected a list")
    return WitnessReport(
        modes=modes, gain=gain,
        iqc_lower_bounds=_vector_from_json(bounds, "witness.iqc_lower_bounds"),
        hard_shift=None if hard_shift is None
        else _as_count(hard_shift, "witness.hard_shift"),
        pointwise=pointwise,
        growth=_as_number(growth, "witness.growth"),
        notes=tuple(notes))


def _write_out(out_path: str | None, doc: dict) -> None:
    if out_path:
        Path(out_path).write_text(_dump(doc))


# ---------------------------------------------------------------------------
# subcommands


def _analyze(args, kind: str) -> tuple:
    """Load the problem, run ``classify`` once and write the one report
    that ``radius`` and ``worst-case`` share (they differ in ``kind``
    only).  Returns the verdict, the witness outcome and ``rho_max``."""
    prob = load_problem(args.problem)
    sys_data, iqcs = _need_system(prob)
    rho_max, tol = _resolve(args, prob.options)
    verdict = classify(sys_data, iqcs, bisect_tol=tol, rho_max=rho_max)
    cert = verdict.certificate
    wit = verdict.witness or WitnessOutcome(
        ok=False, stage="radius-precheck",
        reason=f"no certified feasible rate up to rho_max = {rho_max:g}")
    margins = {"certificate": None if cert.P is None else
               _certificate_margins(sys_data, iqcs, cert.rho_cert, cert.P,
                                    cert.lambdas)}
    if wit.ok:
        margins.update(witness=_witness_margins(wit.check),
                       check_horizon=CHECK_HORIZON)
    _write_out(args.out, {
        "kind": kind,
        "problem": {"n": sys_data.n, "m": sys_data.m,
                    "iqc_count": len(iqcs)},
        "options": {"tol": tol, "rho_max": rho_max},
        "rho": _num(cert.rho),
        "bracket": [_num(cert.bracket[0]), _num(cert.bracket[1])],
        "attained": bool(cert.attained),
        "certificate": _certificate_json(cert),
        "margins": margins,
        "status": cert.status, "message": cert.message,
        "verdict": verdict.classification, "reasons": list(verdict.reasons),
        "stage": wit.stage, "reason": wit.reason,
        "witness": _witness_json(wit.report) if wit.ok else None,
    })
    return verdict, wit, rho_max


def cmd_radius(args) -> int:
    verdict, _, rho_max = _analyze(args, "radius")
    cert = verdict.certificate
    if np.isfinite(cert.rho):
        print(f"rho = {cert.rho:.9g}")
        print(f"bracket = [{cert.bracket[0]:.9g}, {cert.bracket[1]:.9g}]")
        print(f"attained = {'true' if cert.attained else 'false'}")
    else:
        print(f"rho = unbounded (no certified rate up to "
              f"rho_max = {rho_max:g})")
    print(f"verdict = {verdict.classification}")
    for reason in verdict.reasons:
        print(f"  - {reason}")
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_OK if np.isfinite(cert.rho) else EXIT_NO_CERTIFICATE


def cmd_worst_case(args) -> int:
    verdict, wit, _ = _analyze(args, "worst-case")
    if wit.ok:
        wc, modes = wit.check, wit.report.modes
        print(f"witness found at rho = {verdict.certificate.rho:.9g}")
        print(f"modes: d = {modes.d}, groups = {len(modes.groups)}, "
              f"growth = {wit.report.growth:.9g}")
        print(f"checks: dynamics residual = {wc.dynamics_residual:.3e}, "
              f"norm drift = {wc.norm_drift:.3e}, "
              f"|Xv| = {wc.direction_norm:.6g}")
        if len(wc.iqc_margins):
            margin = float(np.min(wc.iqc_margins))
            print(f"constraint sum margin over {wc.steps} steps = "
                  f"{margin:.3e}")
    else:
        print(f"no witness: stage = {wit.stage}")
        print(f"reason: {wit.reason}")
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_OK if wit.ok else EXIT_NO_WITNESS


def _load_report(path: str) -> dict:
    doc = _read_json(path)
    kind = doc.get("kind")
    _require(isinstance(kind, str) and kind in {"radius", "worst-case"},
             f"{path}: not a report file (kind = {kind!r})")
    return doc


def _reproduces(recorded, recomputed) -> bool:
    """Whether a recorded margins block matches its recomputation: dicts
    key by key, lists entry by entry, numbers within ``REPRODUCE_RTOL``.
    A recorded value of another type or length never does, and neither
    does any value against a non-finite recomputed number."""
    if isinstance(recomputed, dict):
        return (isinstance(recorded, dict)
                and recorded.keys() == recomputed.keys()
                and all(_reproduces(recorded[k], x)
                        for k, x in recomputed.items()))
    if isinstance(recomputed, list):
        return (isinstance(recorded, list)
                and len(recorded) == len(recomputed)
                and all(map(_reproduces, recorded, recomputed)))
    if recomputed is None or not _is_number(recorded):
        return recorded is None and recomputed is None
    if not np.isfinite(recomputed):
        return False
    return abs(float(recorded) - recomputed) \
        <= REPRODUCE_RTOL * (1.0 + abs(recomputed))


def _fmt(recorded) -> str:
    """A recorded value for a message: a number in %e form, else as given."""
    return f"{recorded:.6e}" if _is_number(recorded) else repr(recorded)


def cmd_verify(args) -> int:
    report = _load_report(args.report)
    prob = load_problem(args.problem)
    sys_data, iqcs = _need_system(prob)
    recorded_dims = report.get("problem", {})
    _require(isinstance(recorded_dims, dict), "problem: expected an object")
    n, m, count = (_as_count(recorded_dims.get(key), f"problem.{key}")
                   for key in ("n", "m", "iqc_count"))
    if (n, m, count) != (sys_data.n, sys_data.m, len(iqcs)):
        raise ProblemFormatError(
            f"mismatched dimensions: report was made for "
            f"n={n}, m={m}, iqcs={count} but the problem has "
            f"n={sys_data.n}, m={sys_data.m}, iqcs={len(iqcs)}")

    failures: list[str] = []

    def item(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    cert_blk = report.get("certificate") or {}
    margins_blk = report.get("margins") or {}
    wit_blk = report.get("witness")
    _require(isinstance(cert_blk, dict), "certificate: expected an object")
    _require(isinstance(margins_blk, dict), "margins: expected an object")
    has_cert = cert_blk.get("P") is not None
    # Every headline key present is checked; ``kind`` names those that a
    # report of an earlier release, written by one command, must carry.
    headline = set(report) | set(_HEADLINE_KEYS[report["kind"]])
    status, verdict, stage = map(report.get, ("status", "verdict", "stage"))
    if "status" in headline:
        item("headline-status", status == ("ok" if has_cert else "no-certificate"),
             f"status {status!r}, certificate matrix present {has_cert}")
    if "verdict" in headline:
        _require(verdict in VERDICTS,
                 f"verdict: expected one of {VERDICTS}, got {verdict!r}")
    if "stage" in headline:
        _require(stage in STAGES, f"stage: expected one of {STAGES}, got {stage!r}")
        item("headline-stage", (stage == "complete") == (wit_blk is not None),
             f"stage {stage!r}, witness present {wit_blk is not None}")

    recorded = margins_blk.get("certificate")
    if has_cert:
        P = _matrix_from_json(cert_blk["P"], "report certificate.P")
        lambdas = _vector_from_json(cert_blk.get("lambdas"),
                                    "report certificate.lambdas")
        _require(lambdas.size == len(iqcs),
                 f"report certificate.lambdas: expected {len(iqcs)} "
                 f"entries, got {lambdas.size}")
        rho = _as_number(report.get("rho"), "rho")
        rho_c = _as_number(cert_blk.get("rho_cert"), "certificate.rho_cert")
        _require(0 < rho_c < np.inf, f"certificate.rho_cert: expected a "
                                     f"finite positive rate, got {rho_c!r}")
        bracket = report.get("bracket")
        _require(isinstance(bracket, list) and len(bracket) == 2,
                 "bracket: expected a list of two numbers")
        lo, hi = (_as_number(x, f"bracket[{i}]") for i, x in enumerate(bracket))
        with np.errstate(over="ignore", invalid="ignore"):
            # A huge rate overflows to a non-finite margin, which fails
            # both checks below.
            margins = _certificate_margins(sys_data, iqcs, rho_c, P, lambdas)
        eig, pmin = margins["certificate_eig"], margins["p_min_eig"]
        _require(recorded is not None,
                 "report: certificate present but no recorded margins")
        _require(isinstance(recorded, dict),
                 "margins.certificate: expected an object")
        item("lyapunov-margin-reproduces", _reproduces(recorded, margins),
             f"recorded eig {_fmt(recorded.get('certificate_eig'))}, "
             f"recomputed {eig:.6e}")
        bound = -0.5 * STRICT_EPS * (sys_data.scale() + iqcs.scale())
        defect = certificate_defect(P, lambdas, eig, bound)
        item("lyapunov-certificate", not defect,
             f"inequality eig {eig:.3e} (bound {bound:.1e}), "
             f"min eig of P {pmin:.9g}" + (f"; {defect}" if defect else ""))
        item("headline-bracket", hi == rho_c and lo <= rho <= hi,
             f"rho {rho:.9g} in [{lo:.9g}, {hi:.9g}], upper end at the "
             f"certificate rate {rho_c:.9g}")
    else:
        # Only a report without a certified rate may lack the matrix: the
        # one written for status no-certificate, with rho and bracket[1] null.
        rho, bracket = report.get("rho"), report.get("bracket")
        item("headline-certificate", rho is None and isinstance(bracket, list)
             and len(bracket) == 2 and bracket[1] is None,
             f"no certificate matrix, so no rate may be claimed: rho "
             f"{_fmt(rho)}, bracket {bracket!r} (need rho and bracket[1] null)")

    if verdict == "asymptotically-stable":
        # classify's two proofs: a certified rate below one, or, with no
        # constraints and no input, the eigenvalues of A.
        eig = float(np.abs(np.linalg.eigvals(sys_data.A)).max())
        free = not len(iqcs) and not np.any(sys_data.B)
        item("headline-verdict", has_cert and rho_c < 1.0 or free and eig < 1.0,
             f"needs certificate rate {_fmt(cert_blk.get('rho_cert'))} < 1, or "
             f"no constraints and no input with max |eig(A)| {eig:.9g} < 1")
    elif verdict == "witness-unstable":
        # Proven by the witness block, which the items below re-check.
        item("headline-verdict", wit_blk is not None,
             f"needs a witness block, witness present {wit_blk is not None}")

    if wit_blk is not None:
        _require(isinstance(wit_blk, dict), "witness: expected an object")
        recorded = margins_blk.get("witness")
        _require(recorded is not None,
                 "report: witness present but no recorded margins")
        _require(isinstance(recorded, dict), "margins.witness: expected an object")
        # The recorded horizon must be an integer, but the re-check always
        # runs over CHECK_HORIZON: a report neither shortens nor lengthens it.
        _as_count(margins_blk.get("check_horizon", CHECK_HORIZON),
                  "margins.check_horizon")
        # Huge entries overflow to non-finite numbers, which fail below.
        with np.errstate(over="ignore", invalid="ignore"):
            wrep = _witness_from_json(wit_blk, sys_data, iqcs)
            wc = check_witness(sys_data, wrep, iqcs)
        item("witness-margins-reproduce",
             _reproduces(recorded, _witness_margins(wc)),
             f"dynamics {wc.dynamics_residual:.3e}, "
             f"drift {wc.norm_drift:.3e}, |Xv| {wc.direction_norm:.6g}, "
             f"steps {wc.steps}")
        failed = set(wc.failed)
        item("witness-checks", failed <= {"technical condition", "pointwise"},
             f"dynamics ok {wc.dynamics_ok}, sums ok {wc.iqc_ok}, "
             f"norm ok {wc.norm_ok}, gain ok {wc.gain_ok}, hard shift "
             f"{wrep.hard_shift} (recomputed {wc.hard_shift})")
        item("technical-condition", "technical condition" not in failed,
             wc.condition_defect or "group-projected forms nonnegative")
        item("witness-pointwise", "pointwise" not in failed,
             f"recorded {str(wrep.pointwise).lower()}, "
             f"recomputed {str(wc.pointwise).lower()}")

    ok = not failures
    print(f"verification: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_augment(args) -> int:
    prob = load_problem(args.problem)
    _require(prob.plant is not None,
             "problem file has no plant block (required by augment)")
    _require(len(prob.filters) >= 1,
             "problem file has no filter blocks (required by augment)")
    sys_aug, iqcs_aug = augment_all(prob.plant, prob.filters)
    doc = {
        "dims": {"n": sys_aug.n, "m": sys_aug.m},
        "A": _matrix_to_json(sys_aug.A),
        "B": _matrix_to_json(sys_aug.B),
        "iqcs": [_matrix_to_json(M) for M in iqcs_aug],
    }
    if prob.options:
        doc["options"] = prob.options
    _write_out(args.out, doc)
    psi_total = sys_aug.n - prob.plant.n
    print(f"augmented system: n = {sys_aug.n} ({prob.plant.n} plant + "
          f"{psi_total} filter states), m = {sys_aug.m}, "
          f"constraints = {len(iqcs_aug)}")
    print(f"problem written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``parser_class`` its subparsers, whose usage
    errors are input errors (exit 1) rather than argparse's exit 2."""

    def error(self, message):
        raise ProblemFormatError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by ``main``."""
    parser = _Parser(
        prog="iqcradius",
        description="Certified spectral-radius analysis of discrete-time "
                    "LTI systems under integral quadratic constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius",
                       help="compute the constrained spectral radius, "
                            "classify stability, and emit a certificate")
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--tol", type=float, default=None,
                   help="radius bracketing tolerance")
    p.add_argument("--rho-max", dest="rho_max", type=float, default=None,
                   help="largest rate searched for a certificate")
    p.add_argument("--out", default=None, help="write the report here")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("worst-case",
                       help="extract a non-convergent worst-case witness "
                            "at the stability boundary")
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--out", default=None, help="write the report here")
    p.set_defaults(func=cmd_worst_case)

    p = sub.add_parser("verify",
                       help="re-check a report's margins against its "
                            "problem file")
    p.add_argument("report", help="report file produced by radius or "
                                  "worst-case")
    p.add_argument("problem", help="problem file the report was made from")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("augment",
                       help="rewrite filtered constraints as static ones "
                            "on an augmented state")
    p.add_argument("problem", help="problem file with plant and filter "
                                   "blocks")
    p.add_argument("--out", required=True,
                   help="write the augmented problem here")
    p.set_defaults(func=cmd_augment)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ProblemFormatError, DimensionMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
