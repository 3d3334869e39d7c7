"""Benchmark of the iqcradius package: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
its ``src/`` directory.  Load shape: a closed loop with one client; the
next analysis starts when the previous one returns.  Set-up (problem
generation, files written for replay, and one untimed warm-up analysis)
runs ``workloads.DRAWS[workload]`` times, each on its own draw of
problems, and ``setup_s`` is the import time plus the median set-up.
The loop runs passes over all the draws, whole, and stops at the pass
boundary nearest to ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
analyses of the first draw three times: once untraced, then twice with
spans around every call into a layer.  It prints the per-layer metrics of the
first traced pass, the tracing overhead, and checks that the counts of
the two traced passes are identical.

Every analysis is answer-checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the run completed, even when some
answers failed (they show in ``failed``); it is not 0 when the run could
not start, for instance without the package sources.
"""

from __future__ import annotations

import argparse
import os
import sys

# Single-threaded BLAS, set before NumPy loads: one client, and counts
# that repeat exactly.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_package():
    """Import numpy and the package from this checkout; seconds taken."""
    t0 = time.perf_counter()
    if not (SRC / "iqcradius" / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import iqcradius  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across NumPy versions
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Runner:
    """Runs cases, checks answers and keeps the tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bracket_misses = 0
        self.resolution_limited = 0
        self.reasons: list[str] = []

    def run(self, case, wrap=None) -> float:
        """Run and check one analysis; returns its wall time.

        ``wrap(fn)``, when given, calls the analysis ``fn`` for us.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = wrap(case.run) if wrap else case.run()
        except Exception:
            took = time.perf_counter() - t0
            self._fail(case, traceback.format_exc(limit=3).strip())
            return took
        took = time.perf_counter() - t0
        try:
            verdict = case.check(out)
        except Exception:
            self._fail(case, traceback.format_exc(limit=3).strip())
            return took
        self.bracket_misses += verdict.bracket_miss
        self.resolution_limited += verdict.resolution_limited
        if not verdict.ok:
            self._fail(case, verdict.reason)
        return took

    def _fail(self, case, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{case.name}: {reason}")


def set_up(workload: str, seed: int, ctx) -> tuple[list, list[float]]:
    """All set-ups of a run: the cases of each draw and each set-up's seconds."""
    from workloads import DRAWS, WORKLOADS
    make = WORKLOADS[workload]
    draws, times = [], []
    for k in range(DRAWS[workload]):
        t0 = time.perf_counter()
        batch = make(seed, k, ctx)
        warm = batch.warmup
        warm.check(warm.run())
        times.append(time.perf_counter() - t0)
        draws.append(batch.cases)
    return draws, times


def latency_tail(lat: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 samples beyond."""
    n = len(lat)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(lat)[n - 11]


def end_to_end(args, runner, draws, import_s, setup_times) -> dict:
    lat = []
    by_case: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for case in itertools.chain.from_iterable(draws):
            lat.append(runner.run(case))
            by_case.setdefault(case.name, []).append(lat[-1])
        wall = time.perf_counter() - start
        # Stop at the pass boundary nearest to --seconds: a run holds
        # whole passes over every draw, so its mix of cheap and costly
        # analyses does not depend on where the time runs out.
        if wall >= args.seconds - 0.5 * (time.perf_counter() - t0):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The median over the distinct analyses, each timed by the mean of
    # its repeats: report-verify replays each of its 12 reports about a
    # hundred times, and single 25 ms samples swing with the host's
    # momentary speed far more than their mean does.
    per_case = [statistics.fmean(times) for times in by_case.values()]
    metrics = {
        "analyses_per_s": (len(lat) / wall, "1/s"),
        "latency_p50_s": (statistics.median(per_case), "s"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    tail = latency_tail(lat)
    if tail is None:
        print(f"latency_tail_s: omitted, {len(lat)} samples "
              f"(needs at least 11)")
    else:
        print(f"latency_tail_s: {tail[1]!r} s at p{tail[0]:.1f} "
              f"({len(lat)} samples, 10 beyond)")
    print(f"failed_fraction: {runner.failed / runner.attempted!r} ratio "
          f"({runner.failed} of {runner.attempted})")
    print(f"radius.bracket_misses: {runner.bracket_misses} count")
    print(f"radius.resolution_limited: {runner.resolution_limited} count")
    print(f"setup: import {import_s!r} s, set-ups {setup_times!r} s")
    return metrics


def traced(args, runner, draws, out_dir: Path) -> tuple[dict, list[str]]:
    import tracing
    from workloads import WORKLOADS, Context

    # The first draw, whole: a fixed set of analyses, so the counts do
    # not depend on timing and repeat between runs of one seed.
    cases = draws[0]
    count = len(cases)
    tracer = tracing.Tracer()
    problems: list[str] = []
    untraced = traced_s = 0.0
    misses = limited = 0
    passes = [[], []]
    try:
        # Each case runs untraced, then traced, so drift in the machine's
        # speed hits both sides of the overhead alike.
        for i, case in enumerate(cases):
            untraced += runner.run(case)
            tracer.install()
            try:
                first, before = len(tracer.spans), runner.bracket_misses
                limited_before = runner.resolution_limited
                traced_s += runner.run(case, lambda fn: tracer.run_analysis(
                    f"pass1/{i}:{case.name}", fn))
                misses += runner.bracket_misses - before
                limited += runner.resolution_limited - limited_before
                passes[0].extend(tracer.spans[first:])
            finally:
                tracer.uninstall()
        tracer.install()
        # Generation again, traced, for the augmentation time; no
        # analysis runs here.
        if args.workload in ("gd-sweep", "filtered-radius"):
            WORKLOADS[args.workload](args.seed, 0, Context(workdir=out_dir))
        first = len(tracer.spans)
        for i, case in enumerate(cases):
            runner.run(case, lambda fn: tracer.run_analysis(
                f"pass2/{i}:{case.name}", fn))
        passes[1] = tracer.spans[first:]
    finally:
        tracer.uninstall()
    tracer.write(out_dir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")

    counts = [list(tracing.analysis_counts(spans).values()) for spans in passes]
    repeat = counts[0] == counts[1]
    if not repeat:
        problems.append("counts differ between the two traced passes")
    metrics = tracing.layer_metrics(
        passes[0] + [s for s in tracer.spans if s["analysis"] is None])
    metrics["radius.bracket_misses"] = (misses, "count")
    metrics["radius.resolution_limited"] = (limited, "count")
    metrics["trace.untraced_analyses_per_s"] = (count / untraced, "1/s")
    metrics["trace.traced_analyses_per_s"] = (count / traced_s, "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced, "ratio")
    metrics["trace.counts_repeat"] = (float(repeat), "bool")
    if args.workload == "report-verify" and metrics["sdp_engine.solves"][0] != 0:
        problems.append("report-verify ran SDP solves")
    totals = {key: sum(c.get(key, 0) for c in counts[0])
              for key in sorted({key for c in counts[0] for key in c})}
    print(f"traced {count} analyses twice; counts of the first pass {totals}, "
          f"{'identical' if repeat else 'NOT identical'} in the second")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = load_package()
    from workloads import WORKLOADS, Context
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    try:
        ctx = Context(workdir=work)
        draws, setup_times = set_up(args.workload, args.seed, ctx)
        runner = Runner()
        problems: list[str] = []
        if args.trace:
            metrics, problems = traced(args, runner, draws, work)
        else:
            metrics = end_to_end(args, runner, draws, import_s, setup_times)
            if args.workload == "boundary-worst-case" and ctx.comparisons == 0:
                problems.append("no problem ran twice")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    for line in runner.reasons + problems:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
