"""Workload inputs drawn from a seed.

Seed 0 gives the reference inputs. Other seeds draw bases (and the
pi_mod multiplier range) from the stated pools, which are chosen so that
every draw does about the same amount of work as seed 0; see README.md.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "records", "pseudoprimes", "orbits")

# sweep strata, grouped by how many tasks a base adds at max_n = 50,000:
# about 38.8k ({4, 8}), 28.4k-30.2k ({6, 9, 12, 14}) and 20.7k-24.1k (rest).
SWEEP_HEAVY = (4, 8)
SWEEP_MEDIUM = (6, 9, 12, 14)
SWEEP_LIGHT = (2, 3, 5, 7, 10, 11, 13, 15)
SWEEP_MAX_N = 50_000

# records pairs one base from each pool. Only odd primes dividing the base
# decide which odd semiprimes are not applicable (gcd > 1), so every pair
# has the same rows and verdict mix as seed 0's (2, 3).
RECORDS_NO_ODD_FACTOR = (2, 4, 8)
RECORDS_ODD_FACTOR_3 = (3, 6, 9, 12)
RECORDS_MAX_N = 200_000
RECORDS_THREADS = 2

PSEUDOPRIME_BASES = tuple(range(2, 14))
PSEUDOPRIME_LIMIT = 10**6

ORBIT_LATTICE = (2, 22)
ORBIT_K_STARTS = range(2, 65)
ORBIT_K_COUNT = 28
ORBIT_N_MAX = 2000


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed; the same seed, the same inputs."""
    rng = random.Random(seed)
    if workload == "sweep":
        if seed == 0:
            bases = [2, 3, 4, 5, 6, 7]
        else:
            bases = (
                rng.sample(SWEEP_HEAVY, 1)
                + rng.sample(SWEEP_MEDIUM, 1)
                + rng.sample(SWEEP_LIGHT, 4)
            )
        return {"bases": sorted(bases), "max_n": SWEEP_MAX_N}
    if workload == "records":
        if seed == 0:
            bases = [2, 3]
        else:
            bases = [rng.choice(RECORDS_NO_ODD_FACTOR), rng.choice(RECORDS_ODD_FACTOR_3)]
        return {
            "bases": sorted(bases),
            "max_n": RECORDS_MAX_N,
            "threads": RECORDS_THREADS,
        }
    if workload == "pseudoprimes":
        base = 2 if seed == 0 else rng.choice(PSEUDOPRIME_BASES)
        return {"base": base, "limit": PSEUDOPRIME_LIMIT}
    if workload == "orbits":
        k0 = 2 if seed == 0 else rng.choice(ORBIT_K_STARTS)
        k, n = ORBIT_LATTICE
        return {
            "k": k,
            "n": n,
            "pi_ks": [k0, k0 + ORBIT_K_COUNT],
            "pi_n_max": ORBIT_N_MAX,
        }
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def records_argv(inp: dict) -> list[str]:
    argv = ["verify", "--claims", "T2"]
    for b in inp["bases"]:
        argv += ["--base", str(b)]
    return argv + [
        "--max-n", str(inp["max_n"]), "--records", "--format", "json",
        "--threads", str(inp["threads"]),
    ]


def pseudoprimes_argv(inp: dict) -> list[str]:
    return [
        "pseudoprimes", "--base", str(inp["base"]),
        "--limit", str(inp["limit"]), "--format", "csv",
    ]
