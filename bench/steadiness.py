"""Run each workload once per seed and report the spread of every metric.

    python3 bench/steadiness.py [--workloads W ...] [--seeds 1 2 ...]
                                [--seconds S] [--label NAME]

Runs ``bench/run.py`` in a fresh process per (workload, seed), one at a
time, from the root of the checkout.  For every end-to-end metric it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the quartile distance as a
share of the median next to the bound in ``BENCHMARK.json``.  With
``--compare FILE`` it also prints how far each median moved from an
earlier summary.  The summary is written to
``.bench_out/steadiness-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["failures"] = [line for line in lines if line.startswith("FAILED ")]
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        help="default: the workloads in BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", type=Path, default=None,
                        help="an earlier summary to compare the medians with")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    earlier = json.loads(args.compare.read_text()) if args.compare else {}

    summary = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, 0)
            print(f"{workload} seed {seed}: correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed, "
                  f"wall {res['wall_s']:.1f} s", flush=True)
            for line in res["failures"]:
                print(f"  {line}", flush=True)
            ok &= res["correct"]
            runs.append(res)
        summary[workload] = {"wall_s": sum(r["wall_s"] for r in runs),
                             "metrics": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[workload]["metrics"][name] = stats
            line = (f"  {name}: median {stats['median']:.6g}, quartiles "
                    f"[{stats['q1']:.6g}, {stats['q3']:.6g}], spread "
                    f"{stats['spread']:.3f} (bound {bound})")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                moved = stats["median"] / before["median"] - 1.0
                line += f", median moved {moved:+.3f}"
            print(line, flush=True)
    out = ROOT / ".bench_out" / f"steadiness-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"summary written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
