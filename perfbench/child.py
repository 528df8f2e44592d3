"""Run one workload once, in this fresh interpreter, and report it.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE
with ``src`` on PYTHONPATH. Prints one JSON line: the timed body's wall
time, the time to its first output, its work count, the process's peak
RSS, a summary of the outputs for the checks in checks.py, and, when
TRACE is 1, the per-layer metrics of tracer.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from time import perf_counter

from inputs import make_inputs, pseudoprimes_argv, records_argv
from tracer import Tracer, layer_metrics

from circleprimes import arith, circlemap, claims, cli


class StdoutSink(io.RawIOBase):
    """What the CLI writes to stdout: hashed, counted, first write timed.

    It sits under the same buffered text layers as a piped stdout, so
    the first write happens when the first byte would reach a reader.
    """

    def __init__(self, keep: bool) -> None:
        self.sha256 = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.first_write: float | None = None
        self.kept = bytearray() if keep else None

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if self.first_write is None:
            self.first_write = perf_counter()
        data = bytes(data)
        self.sha256.update(data)
        self.bytes += len(data)
        self.lines += data.count(b"\n")
        if self.kept is not None:
            self.kept += data
        return len(data)


def run_cli(argv: list[str], keep: bool) -> tuple[float, float, StdoutSink, int]:
    sink = StdoutSink(keep)
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        rc = cli.main(argv)
        out.flush()
        end = perf_counter()
    first = sink.first_write if sink.first_write is not None else end
    return end - start, first - start, sink, rc


def sweep(inp: dict) -> tuple[float, float, int, dict]:
    config = claims.SweepConfig(bases=tuple(inp["bases"]), max_n=inp["max_n"])
    start = perf_counter()
    report = claims.run_suite(config, threads=1)
    wall = perf_counter() - start
    summary = {
        "total": report.total,
        "failures": report.failure_count,
        "tallies": {
            claim.value: {verdict.value: n for verdict, n in counts.items()}
            for claim, counts in report.tallies.items()
        },
    }
    # run_suite hands back nothing before the whole report
    return wall, wall, report.total, summary


def records(inp: dict) -> tuple[float, float, int, dict]:
    wall, first, sink, rc = run_cli(records_argv(inp), keep=False)
    summary = {
        "rc": rc, "sha256": sink.sha256.hexdigest(),
        "bytes": sink.bytes, "lines": sink.lines,
    }
    return wall, first, sink.lines, summary


def pseudoprimes(inp: dict) -> tuple[float, float, int, dict]:
    wall, first, sink, rc = run_cli(pseudoprimes_argv(inp), keep=True)
    summary = {
        "rc": rc, "stdout": sink.kept.decode(),
        "bytes": sink.bytes, "lines": sink.lines,
    }
    return wall, first, len(range(9, inp["limit"] + 1, 2)), summary


def orbits(inp: dict) -> tuple[float, float, int, dict]:
    k, n = inp["k"], inp["n"]
    lattice = circlemap.make_lattice(k, n)
    start = perf_counter()
    first = None
    count = period_sum = 0
    for orbit in circlemap.enumerate_orbits(lattice):
        if first is None:
            first = perf_counter()
        count += 1
        period_sum += orbit.period
    nonzero = [
        [kk, nn]
        for kk in range(*inp["pi_ks"])
        for nn in range(1, inp["pi_n_max"] + 1)
        if circlemap.pi_mod(kk, nn, nn)
    ]
    wall = perf_counter() - start
    summary = {"orbits": count, "period_sum": period_sum, "pi_mod_nonzero": nonzero[:10]}
    return wall, first - start, lattice.modulus, summary


BODIES = {"sweep": sweep, "records": records, "pseudoprimes": pseudoprimes, "orbits": orbits}


def main() -> None:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    inp = make_inputs(workload, seed)
    # the library's own orbit census, for the checks; taken before tracing
    census = None
    if workload == "orbits":
        census = sum(circlemap.orbit_count(inp["k"], d) for d in arith.divisors(inp["n"]))
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    wall, first, items, summary = BODIES[workload](inp)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if census is not None:
        summary["orbit_count_sum"] = census
    layers = None
    if tracer is not None:
        layers = layer_metrics(*tracer.totals())
        layers["cli.rows"] = summary.get("lines", 0)
        layers["cli.bytes"] = summary.get("bytes", 0)
    print(json.dumps({
        "wall_s": wall, "first_row_s": first, "items": items,
        "peak_rss_mb": peak_kib / 1024, "summary": summary, "layers": layers,
    }))


if __name__ == "__main__":
    main()
