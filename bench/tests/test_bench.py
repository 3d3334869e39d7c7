"""Smoke tests of the benchmark at tiny sizes: one analysis per workload,
the answer checks catching wrong results, the tracer, and the output
contract of ``bench/run.py``.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads as W
from iqcradius import cli, radius

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture
def ctx(tmp_path):
    return W.Context(workdir=tmp_path)


def _run(cases):
    runner = run.Runner()
    for case in cases:
        runner.run(case)
    return runner


def test_gd_sweep_case_passes(ctx):
    batch = W.gd_sweep(0, 0, ctx)
    assert len(batch.cases) == W.GD_STEPS
    runner = _run(batch.cases[:1])
    assert (runner.attempted, runner.failed) == (1, 0), runner.reasons


def test_boundary_rotation_repeats_byte_for_byte(ctx):
    batch = W.boundary_worst_case(0, 0, ctx)
    rotation = batch.cases[0]
    runner = _run([rotation, rotation])
    assert runner.failed == 0, runner.reasons
    assert ctx.comparisons == 1


def test_report_verify_honest_and_corrupted(ctx):
    batch = W.report_verify(0, 1, ctx)
    runner = _run(batch.cases)
    assert (runner.attempted, runner.failed) == (4, 0), runner.reasons


def test_filtered_radius_case_passes(ctx):
    batch = W.filtered_radius(0, 0, ctx)
    assert [c.name.split("/")[-1] for c in batch.cases] == \
        [f"{kind}{lags}" for kind, lags in W.FILTERED]
    runner = _run(batch.cases[1:2])          # heavy ball, n = 3
    assert (runner.attempted, runner.failed) == (1, 0), runner.reasons


def test_off_by_one_holds_on_quadratics():
    # u = q y with q in [m, L]: the partial sums of z1 z2 stay >= 0.
    m, L, q = 1.0, 10.0, 4.0
    for lag in (1, 2):
        f = W.off_by_one_filter(m, L, lag)
        psi, total = np.zeros(lag), 0.0
        for y in np.random.default_rng(lag).normal(size=50):
            u = q * y
            z = f.C_psi @ psi + f.D_psi1[:, 0] * y + f.D_psi2[:, 0] * u
            total += z @ f.M @ z
            assert total >= -1e-12
            psi = f.A_psi @ psi + f.B_psi1[:, 0] * y + f.B_psi2[:, 0] * u


def test_wrong_rho_is_counted_failed(ctx):
    case = W.gd_sweep(0, 0, ctx).cases[0]
    def wrong_rho():
        cert = case.run()
        return dataclasses.replace(cert, rho=cert.rho + 1e-3)

    runner = _run([dataclasses.replace(case, run=wrong_rho)])
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "from the exact" in runner.reasons[0]


@pytest.mark.parametrize("alpha_L", [0.3, 2.0 / 11.0, 1.0, 1.9, 2.0])
def test_gd_dual_slack_changes_sign_at_the_closed_form(alpha_L):
    m, L = 1.0, 10.0
    alpha = alpha_L / L
    exact = W.gd_rate(alpha, m, L)
    assert W.gd_dual_slack(exact - 1e-4, alpha, m, L) > 0
    assert abs(W.gd_dual_slack(exact, alpha, m, L)) < 1e-12
    assert W.gd_dual_slack(exact + 1e-4, alpha, m, L) < 0


def test_probe_resolution_widens_the_tolerance_and_no_more():
    m, L = 1.0, 10.0
    alpha = 1.95 / L
    exact = W.gd_rate(alpha, m, L)
    res = W.probe_resolution(alpha, m, L, exact)
    assert 1e-7 < res < 1e-4
    bracket = (exact - W.TOL, exact + W.TOL)
    near = W.against_exact(exact + res + 1.5 * W.TOL, bracket, exact, res)
    assert near.ok and near.resolution_limited
    assert not W.against_exact(exact + res + 2.5 * W.TOL, bracket, exact, res).ok
    assert not W.against_exact(exact - 2.5 * W.TOL, bracket, exact, res).ok


def test_corrupted_report_passed_as_honest_is_counted_failed(ctx, monkeypatch):
    monkeypatch.setattr(W, "EXIT_VERIFY_FAILED", W.EXIT_OK)
    corrupted = W.report_verify(0, 0, ctx).cases[-1]
    runner = _run([corrupted])
    assert runner.failed == 1
    assert "verify exit 4, expected 0" in runner.reasons[0]


def test_boundary_rho_outside_tolerance_is_counted_failed(ctx):
    rotation = W.boundary_worst_case(0, 0, ctx).cases[0]

    def shifted():
        code, raw = rotation.run()
        report = json.loads(raw)
        report["rho"] += 4e-5
        return code, json.dumps(report).encode()

    runner = _run([dataclasses.replace(rotation, run=shifted)])
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "from the exact" in runner.reasons[0]


def test_raising_analysis_is_counted_failed():
    def boom():
        raise ValueError("broken")
    runner = _run([W.Case("raises", boom, lambda out: W.Verdict(True))])
    assert runner.failed == 1 and "broken" in runner.reasons[0]


def test_tracer_spans_and_self_times(ctx):
    case = W.gd_sweep(0, 0, ctx).cases[0]
    original = radius.spectral_radius
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_analysis("a", case.run)
    finally:
        tracer.uninstall()
    assert radius.spectral_radius is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["radius.calls"][0] == 1
    assert metrics["sdp_engine.solves"][0] == metrics["radius.solves_per_radius"][0] > 0
    assert metrics["radius.probes"][0] > 0
    assert all(s["parent"] is not None for s in tracer.spans if s["name"] != tracing.ROOT)


def test_missing_function_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(cli, "check_witness")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics([])
    assert metrics["verify.check_witness.calls"][0] == 0
    assert metrics["sdp_engine.ok_ratio"][0] == 0.0


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_contract(trace, key):
    proc = _bench("--workload", "gd-sweep", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    # Any failure must be counted and named, and correct must follow.
    failed = [line for line in lines if line.startswith("FAILED ")]
    assert result["failed"] == sum(line.startswith("FAILED gd-sweep/")
                                   for line in failed)
    assert result["correct"] == (not failed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec[key]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "gd-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
