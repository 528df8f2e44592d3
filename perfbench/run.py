"""circleprimes benchmark runner.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a source checkout (``src/circleprimes``); nothing is installed.
Each iteration of the workload runs in a fresh interpreter (child.py),
one at a time, until the next one would end past S seconds. Every
iteration's output is checked (checks.py). The last line of stdout is
one JSON object: ``correct``, ``attempted`` and ``failed`` iterations,
and the medians of the metrics that BENCHMARK.json lists, the end-to-end
ones with --trace 0 and the per-layer ones with --trace 1. The traced run
alternates untraced and traced iterations, so that it can report the
tracing overhead. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import CHECKS
from inputs import WORKLOADS, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SRC_MODULES = ("arith", "circlemap", "claims", "cli", "pseudoprimes")
SETUP_LAUNCHES = 11
# prints the moment the parser is built; perf_counter is the system-wide
# monotonic clock on Linux, so it compares across processes
SETUP_CODE = (
    "from circleprimes.cli import build_parser; build_parser(); "
    "import time; print(time.perf_counter())"
)
# stop starting iterations well before a run reaches three minutes
DEADLINE_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Median time from launching a fresh interpreter until it has imported
    the CLI and built its parser. The first launch also writes the bytecode
    cache; it is not timed."""
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        if i:
            times.append(float(proc.stdout) - start)
    return statistics.median(times)


def run_child(workload: str, seed: int, traced: bool, env, timeout: float) -> dict | None:
    """One iteration in a fresh interpreter; None if it did not report."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed), str(int(traced))]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: iteration timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: iteration exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def src_lines() -> dict[str, int]:
    return {
        f"{m}.src_lines": len((SRC / "circleprimes" / f"{m}.py").read_text().splitlines())
        for m in SRC_MODULES
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "circleprimes" / "__init__.py").is_file():
        print(f"error: no circleprimes sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    began = perf_counter()
    env = child_env()
    try:
        setup_s = setup_seconds(env)
    except subprocess.SubprocessError as exc:
        print(f"error: cannot import circleprimes: {exc}", file=sys.stderr)
        return 1
    inp = make_inputs(args.workload, args.seed)
    check = CHECKS[args.workload]

    # untraced iterations, and with --trace 1 traced ones in alternation
    modes = [False, True] if args.trace else [False]
    samples: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    measure_start = perf_counter()
    while True:
        traced = modes[attempted % len(modes)]
        start = perf_counter()
        result = run_child(args.workload, args.seed, traced, env, DEADLINE_S - (start - began))
        durations[traced].append(perf_counter() - start)
        attempted += 1
        problems = ["no result"] if result is None else check(inp, result["summary"])
        if problems:
            failed += 1
            print(f"{args.workload} seed {args.seed}: " + "; ".join(problems)[:4000], file=sys.stderr)
        if result is not None:
            samples[traced].append(result)
        if attempted < len(modes):
            continue
        upcoming = modes[attempted % len(modes)]
        elapsed = perf_counter() - measure_start
        if elapsed + statistics.median(durations[upcoming]) > args.seconds:
            break
        if perf_counter() - began + 2 * max(durations[upcoming]) > DEADLINE_S:
            break

    if not samples[False] or (args.trace and not samples[True]):
        print("error: no iteration produced measurements", file=sys.stderr)
        return 1

    def median(runs: list[dict], key) -> float:
        return statistics.median(key(r) for r in runs)

    plain = samples[False]
    if args.trace:
        traced_runs = samples[True]
        values = {
            name: statistics.median_low(r["layers"][name] for r in traced_runs)
            for name in traced_runs[0]["layers"]
        }
        values["trace.overhead_s"] = median(traced_runs, lambda r: r["wall_s"]) - median(
            plain, lambda r: r["wall_s"]
        )
        values.update(src_lines())
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": median(plain, lambda r: r["wall_s"]),
            "throughput": median(plain, lambda r: r["items"] / r["wall_s"]),
            "first_row_s": median(plain, lambda r: r["first_row_s"]),
            "peak_rss_mb": median(plain, lambda r: r["peak_rss_mb"]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
