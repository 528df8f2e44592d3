"""Write expected.json: the outputs the checks compare against.

Usage: PYTHONPATH=src python3 perfbench/freeze.py

The values were frozen once, at the commit that defined the benchmark,
for every input the seeds can draw. Regenerate them only when a change
is meant to alter circleprimes' output, never to make a check pass.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from pathlib import Path

import inputs
from child import run_cli

from circleprimes.claims import SweepConfig, run_suite


def main() -> None:
    sweep_bases = sorted(inputs.SWEEP_HEAVY + inputs.SWEEP_MEDIUM + inputs.SWEEP_LIGHT)
    tallies = {}
    for base in sweep_bases:
        report = run_suite(SweepConfig(bases=(base,), max_n=inputs.SWEEP_MAX_N))
        tallies[str(base)] = {
            claim.value: {verdict.value: n for verdict, n in counts.items()}
            for claim, counts in report.tallies.items()
        }

    digests = {}
    for pair in itertools.product(inputs.RECORDS_NO_ODD_FACTOR, inputs.RECORDS_ODD_FACTOR_3):
        # output does not depend on --threads, so freeze with the fast one
        inp = {"bases": sorted(pair), "max_n": inputs.RECORDS_MAX_N, "threads": 1}
        _, _, sink, rc = run_cli(inputs.records_argv(inp), keep=False)
        assert rc == 0, (pair, rc)
        digests[",".join(map(str, inp["bases"]))] = sink.sha256.hexdigest()

    counts = {}
    for base in inputs.PSEUDOPRIME_BASES:
        inp = {"base": base, "limit": inputs.PSEUDOPRIME_LIMIT}
        _, _, sink, rc = run_cli(inputs.pseudoprimes_argv(inp), keep=True)
        assert rc == 0, (base, rc)
        rows = list(csv.DictReader(io.StringIO(sink.kept.decode())))
        counts[str(base)] = [len(rows), sum(row["carmichael"] == "True" for row in rows)]

    expected = {
        "sweep": {"max_n": inputs.SWEEP_MAX_N, "tallies": tallies},
        "records": {"max_n": inputs.RECORDS_MAX_N, "sha256": digests},
        "pseudoprimes": {"limit": inputs.PSEUDOPRIME_LIMIT, "counts": counts},
    }
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
