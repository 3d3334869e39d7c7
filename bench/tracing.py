"""Spans around the calls into each layer of the package, and the
per-layer metrics computed from them.

The wrappers are installed from the benchmark's own files, at the
import sites the package actually calls through, so no file of the
package changes.  A span records its name, start, end, parent and the
analysis it belongs to; spans are kept in memory and written out when
the run ends.  Self time is a span's duration minus the time its child
spans cover.  A site that no longer exists is skipped, so a function a
later change removes reports 0 calls instead of crashing the run.

Only public functions at module boundaries are wrapped.  ``model``
functions are called once per basis element inside
``SdpProblem.compile``; wrapping them would distort the timings, so
their time is part of their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from pathlib import Path

# (module, attribute) pairs rebound to traced wrappers.  The same
# function reached through two modules is wrapped at both sites, because
# each module calls through its own reference.
_FIXED_SITES = (
    ("sdp_engine", "solve"),
    ("worstcase", "solve"),
    ("sdp_engine", "SdpProblem.compile"),
    ("radius", "dual_feasibility_margin"),
    ("radius", "solve_margin_primal"),
    ("radius", "attainment_check"),
    ("radius", "spectral_radius"),
    ("radius", "classify"),
    ("cli", "main"),
    ("cli", "classify"),
    ("cli", "spectral_radius"),
    ("cli", "build_witness"),
    ("cli", "build_trajectory"),
    ("cli", "verify_direction"),
    ("cli", "check_witness"),
    ("dynamic_iqc", "augment_all"),
)
# Every public function of these modules is wrapped as well.
_PUBLIC_MODULES = ("worstcase", "verify")

LAYERS = ("sdp_engine", "radius", "worstcase", "verify", "cli", "dynamic_iqc")
ROOT = "bench.analysis"
STATUSES = ("optimal", "numerical-failure", "iteration-limit", "infeasible")


def _attrs(name: str, result) -> dict:
    """The counts a span keeps from its return value."""
    if name == "sdp_engine.solve":
        return {"status": str(getattr(result, "status", "")),
                "iterations": int(getattr(result, "iterations", 0))}
    if name == "radius.spectral_radius":
        return {"probes": int(getattr(result, "probes", 0)),
                "ambiguous": int(getattr(result, "ambiguous", 0))}
    if name == "worstcase.build_witness":
        return {"ok": bool(getattr(result, "ok", False))}
    if name == "verify.check_witness":
        return {"ok": bool(getattr(result, "ok", False)),
                "steps": int(getattr(result, "steps", 0))}
    return {}


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self.analysis: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def call(self, name: str, fn, args, kwargs):
        frame = {"id": self._next_id, "child_s": 0.0, "solves": 0}
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            solves = frame["solves"] + (name == "sdp_engine.solve")
            if parent is not None:
                parent["child_s"] += dur
                parent["solves"] += solves
            self.spans.append({
                "id": frame["id"],
                "parent": None if parent is None else parent["id"],
                "analysis": self.analysis, "name": name,
                "start": t0, "end": t1, "self_s": dur - frame["child_s"],
                "solves": solves, **_attrs(name, result)})

    def run_analysis(self, analysis_id: str, fn):
        """Run ``fn()`` under a root span that tags every span it causes."""
        self.analysis = analysis_id
        try:
            return self.call(ROOT, fn, (), {})
        finally:
            self.analysis = None

    # -- installation --------------------------------------------------
    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _rebind(self, owner, attr: str) -> None:
        fn = owner.__dict__.get(attr)
        if not inspect.isfunction(fn):
            return
        home = fn.__module__.rsplit(".", 1)[-1]
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(f"{home}.{fn.__qualname__}", fn))

    def install(self) -> None:
        mods = {}
        for short in {s for s, _ in _FIXED_SITES} | set(_PUBLIC_MODULES):
            try:
                mods[short] = importlib.import_module(f"iqcradius.{short}")
            except ImportError:
                continue
        sites = list(_FIXED_SITES)
        for short in _PUBLIC_MODULES:
            mod = mods.get(short)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    sites.append((short, attr))
        for short, path in sites:
            owner = mods.get(short)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is not None:
                self._rebind(owner, attr)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def analysis_counts(spans: list[dict]) -> dict[str, dict]:
    """Counts per analysis that must repeat exactly between two runs."""
    out: dict[str, dict] = {}
    for s in spans:
        if s["analysis"] is None:
            continue
        c = out.setdefault(s["analysis"], {"solves": 0, "iterations": 0,
                                           "probes": 0, "ambiguous": 0})
        if s["name"] == "sdp_engine.solve":
            c["solves"] += 1
            c["iterations"] += s["iterations"]
            key = f"status.{s['status']}"
            c[key] = c.get(key, 0) + 1
        elif s["name"] == "radius.spectral_radius":
            c["probes"] += s["probes"]
            c["ambiguous"] += s["ambiguous"]
    return out


def _ratio(num: float, den: float) -> float:
    """A share of attempts; 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit)."""
    work = [s for s in spans if s["analysis"] is not None]

    def named(name):
        return [s for s in work if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    solves = named("sdp_engine.solve")
    iters = sum(s["iterations"] for s in solves)
    solve_s = total("sdp_engine.solve")
    compile_s = total("sdp_engine.SdpProblem.compile")
    radii = named("radius.spectral_radius")
    probes = sum(s["probes"] for s in radii)
    ambiguous = sum(s["ambiguous"] for s in radii)
    witnesses = named("worstcase.build_witness")
    checks = named("verify.check_witness")
    mains = named("cli.main")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in work:
        layer = s["name"].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s["self_s"]

    m: dict[str, tuple[float, str]] = {
        "sdp_engine.solves": (len(solves), "count"),
        "sdp_engine.solve_s": (solve_s, "s"),
        "sdp_engine.iterations": (iters, "count"),
        "sdp_engine.iterations_per_solve":
            (_median([s["iterations"] for s in solves]), "count"),
        "sdp_engine.s_per_iteration": (_ratio(solve_s - compile_s, iters), "s"),
        "sdp_engine.compile_s": (compile_s, "s"),
    }
    for status in STATUSES:
        m[f"sdp_engine.status.{status}"] = (
            sum(s["status"] == status for s in solves), "count")
    m["sdp_engine.ok_ratio"] = (
        _ratio(sum(s["status"] == "optimal" for s in solves), len(solves)), "ratio")
    for name in ("sdp_engine.dual_feasibility_margin",
                 "sdp_engine.solve_margin_primal",
                 "worstcase.extract_dual_witness",
                 "worstcase.technical_condition"):
        m[f"{name}.calls"] = (len(named(name)), "count")
        m[f"{name}_s"] = (total(name), "s")
    m.update({
        "radius.calls": (len(radii), "count"),
        "radius.s": (total("radius.spectral_radius"), "s"),
        "radius.self_s": (layer_self["radius"], "s"),
        "radius.probes": (probes, "count"),
        "radius.ambiguous": (ambiguous, "count"),
        "radius.useful_probe_ratio": (_ratio(probes - ambiguous, probes), "ratio"),
        "radius.solves_per_radius": (_median([s["solves"] for s in radii]), "count"),
        "radius.attainment_checks": (len(named("radius.attainment_check")), "count"),
        "radius.attainment_s": (total("radius.attainment_check"), "s"),
        "worstcase.build_witness.calls": (len(witnesses), "count"),
        "worstcase.build_witness_s": (total("worstcase.build_witness"), "s"),
        "worstcase.build_witness.self_s":
            (sum(s["self_s"] for s in witnesses), "s"),
        "worstcase.ok_ratio": (_ratio(sum(s["ok"] for s in witnesses),
                                      len(witnesses)), "ratio"),
        "worstcase.hard_iqc_shift_s": (total("worstcase.hard_iqc_shift"), "s"),
        "verify.check_witness.calls": (len(checks), "count"),
        "verify.check_witness_s": (total("verify.check_witness"), "s"),
        "verify.orbit_steps": (sum(s["steps"] for s in checks), "count"),
        "verify.ok_ratio": (_ratio(sum(s["ok"] for s in checks), len(checks)),
                            "ratio"),
        "cli.main.calls": (len(mains), "count"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "dynamic_iqc.augment_all_s": (
            sum(s["end"] - s["start"] for s in spans
                if s["name"] == "dynamic_iqc.augment_all"), "s"),
    })
    for layer in ("sdp_engine", "worstcase", "verify"):
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    roots = named(ROOT)
    wall = sum(s["end"] - s["start"] for s in roots)
    remainder = sum(s["self_s"] for s in roots)
    m["trace.analyses"] = (len(roots), "count")
    m["trace.analysis_s"] = (wall, "s")
    m["trace.remainder_s"] = (remainder, "s")
    return m
