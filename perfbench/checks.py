"""Output checks, run off the clock on the summary each child reports.

Nothing here imports circleprimes: primality and factors come from trial
division, orbit totals from the necklace formula, and the rest from
values frozen in expected.json at the commit that defined the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
from math import gcd, isqrt
from pathlib import Path

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


def trial_factors(n: int) -> list[int]:
    """Prime factors of n with multiplicity, by trial division."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    out = n
    for p in set(trial_factors(n)):
        out = out // p * (p - 1)
    return out


def orbit_total(k: int, n: int) -> int:
    """Cycles of j -> k*j on Z/(k**n - 1): the k-ary necklaces of length n,
    less the all-(k-1) necklace, which is the same point as 0."""
    necklaces = sum(totient(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return necklaces // n - 1


def odd_semiprimes(limit: int) -> int:
    """How many p*q <= limit with odd primes p < q."""
    sieve = bytearray([1]) * (limit // 3 + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(len(sieve)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    primes = [p for p in range(3, len(sieve)) if sieve[p]]
    count = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q > limit:
                break
            count += 1
    return count


def check_sweep(inp: dict, out: dict) -> list[str]:
    frozen = EXPECTED["sweep"]
    if inp["max_n"] != frozen["max_n"]:
        return [f"no frozen tallies for max_n={inp['max_n']}"]
    want: dict[str, dict[str, int]] = {}
    for base in inp["bases"]:
        for claim, counts in frozen["tallies"][str(base)].items():
            row = want.setdefault(claim, dict.fromkeys(counts, 0))
            for verdict, n in counts.items():
                row[verdict] += n
    problems = []
    if out["tallies"] != want:
        problems.append(f"verdict tallies {out['tallies']} != frozen {want}")
    if out["failures"]:
        problems.append(f"{out['failures']} claim failures")
    total = sum(sum(row.values()) for row in want.values())
    if out["total"] != total:
        problems.append(f"{out['total']} checks, expected {total}")
    return problems


def check_records(inp: dict, out: dict) -> list[str]:
    frozen = EXPECTED["records"]
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit code {out['rc']}")
    rows = len(inp["bases"]) * odd_semiprimes(inp["max_n"])
    if out["lines"] != rows:
        problems.append(f"{out['lines']} rows, expected {rows}")
    key = ",".join(map(str, inp["bases"]))
    if inp["max_n"] != frozen["max_n"] or key not in frozen["sha256"]:
        problems.append(f"no frozen digest for bases {key}, max_n={inp['max_n']}")
    elif out["sha256"] != frozen["sha256"][key]:
        problems.append(f"stdout sha256 {out['sha256']} != frozen {frozen['sha256'][key]}")
    return problems


def check_pseudoprimes(inp: dict, out: dict) -> list[str]:
    base, limit = inp["base"], inp["limit"]
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit code {out['rc']}")
    rows = list(csv.DictReader(io.StringIO(out["stdout"])))
    carmichael = 0
    previous = 0
    for row in rows:
        n = int(row["n"])
        factors = trial_factors(n)
        korselt = len(set(factors)) == len(factors) > 1 and all(
            (n - 1) % (p - 1) == 0 for p in factors
        )
        listed = []
        for part in row["factorization"].split("*"):
            p, _, e = part.partition("^")
            listed.append((int(p), int(e or 1)))
        expanded = sorted((p, factors.count(p)) for p in set(factors))
        if not (
            previous < n <= limit and n % 2 and len(factors) > 1
            and gcd(base, n) == 1 and pow(base, n - 1, n) == 1
            and int(row["base"]) == base and listed == expanded
            and row["carmichael"] == str(korselt)
        ):
            problems.append(f"bad row {row}")
        previous = n
        carmichael += korselt
    frozen = EXPECTED["pseudoprimes"]
    if limit != frozen["limit"] or str(base) not in frozen["counts"]:
        problems.append(f"no frozen counts for base {base}, limit {limit}")
    elif [len(rows), carmichael] != frozen["counts"][str(base)]:
        problems.append(
            f"{len(rows)} pseudoprimes, {carmichael} Carmichael;"
            f" frozen {frozen['counts'][str(base)]}"
        )
    return problems


def check_orbits(inp: dict, out: dict) -> list[str]:
    k, n = inp["k"], inp["n"]
    problems = []
    total = orbit_total(k, n)
    if not out["orbits"] == out["orbit_count_sum"] == total:
        problems.append(
            f"{out['orbits']} orbits; orbit_count sum {out['orbit_count_sum']},"
            f" necklace formula {total}"
        )
    if out["period_sum"] != k**n - 1:
        problems.append(f"periods sum to {out['period_sum']}, not {k}**{n} - 1")
    if out["pi_mod_nonzero"]:
        problems.append(f"pi_mod(k, n, n) != 0 for (k, n) in {out['pi_mod_nonzero']}")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "records": check_records,
    "pseudoprimes": check_pseudoprimes,
    "orbits": check_orbits,
}
