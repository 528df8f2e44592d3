"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every criterion is exact (zero tolerance) and carries the time
budget it must fit in.
"""

import time
from collections import Counter
from math import gcd, isqrt

from circleprimes.arith import divisors, factorize, is_prime, primes_up_to
from circleprimes.circlemap import (
    count_exact_period,
    enumerate_orbits,
    make_lattice,
    orbit_count,
    pi_mod,
)
from circleprimes.claims import ClaimId, SweepConfig, Verdict, check_T1, check_T2, run_suite
from circleprimes.pseudoprimes import enumerate_pseudoprimes, is_carmichael, is_pseudoprime

PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]

GOLDEN_BASE2_5000 = [
    341, 561, 645, 1105, 1387, 1729, 1905, 2047,
    2465, 2701, 2821, 3277, 4033, 4369, 4371, 4681,
]


def _criterion(name: str, budget_seconds: float | None, body) -> None:
    started = time.perf_counter()
    failure: AssertionError | None = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - started
    over_budget = budget_seconds is not None and elapsed > budget_seconds
    status = "PASS" if failure is None and not over_budget else "FAIL"
    budget_note = "" if budget_seconds is None else f" of {budget_seconds:g}s budget"
    print(f"{status} {name} ({elapsed:.2f}s{budget_note})")
    if failure is not None:
        raise failure
    assert not over_budget, f"{name}: {elapsed:.2f}s exceeded {budget_seconds:g}s"


def test_criterion_1_fermat_divisibility_sweep():
    def body():
        for n in PRIMES_BELOW_100:
            for k in range(2, 51):
                assert (pow(k, n, n) - k) % n == 0, (k, n)

    _criterion("criterion-1 fermat-sweep-primes-below-100", 1.0, body)


def test_criterion_2_gauss_congruence():
    def body():
        for k in range(2, 13):
            for n in range(1, 17):
                assert pi_mod(k, n, n) == 0, (k, n)

    _criterion("criterion-2 gauss-congruence", 1.0, body)


def test_criterion_3_orbit_oracle_equivalence():
    # every (k, n) pair whose lattice fits in 2**20 indices, k up to 12;
    # the n = 1 column alone would otherwise admit every k below 2**20
    def body():
        cap = 1 << 20
        pairs = 0
        for k in range(2, 13):
            n = 1
            while k**n - 1 <= cap:
                lattice = make_lattice(k, n)
                points_by_period: Counter = Counter()
                for orbit in enumerate_orbits(lattice):
                    points_by_period[orbit.period] += orbit.period
                for d in divisors(n):
                    assert points_by_period.get(d, 0) == count_exact_period(k, d), (k, n, d)
                assert sum(points_by_period.values()) == k**n - 1, (k, n)
                pairs += 1
                n += 1
        assert pairs >= 60

    _criterion("criterion-3 enumeration-vs-moebius-counts", 120.0, body)


def test_criterion_4_smallest_pseudoprime_and_carmichael():
    def body():
        assert enumerate_pseudoprimes(2, 600)[0] == 341
        assert factorize(341) == ((11, 1), (31, 1))
        first_carmichael = next(n for n in range(2, 10**4) if is_carmichael(n))
        assert first_carmichael == 561
        assert factorize(561) == ((3, 1), (11, 1), (17, 1))

    _criterion("criterion-4 smallest-pseudoprime-341-first-carmichael-561", None, body)


def test_criterion_5_golden_list():
    def body():
        assert enumerate_pseudoprimes(2, 5000) == GOLDEN_BASE2_5000

    _criterion("criterion-5 base2-pseudoprimes-to-5000-golden-list", 5.0, body)


def test_criterion_6_t1_over_base2_and_base3_pseudoprimes():
    def body():
        for base in (2, 3):
            hits = enumerate_pseudoprimes(base, 10**4)
            assert hits, base
            for n in hits:
                assert check_T1(base, n).verdict is Verdict.HOLDS, (base, n)

    _criterion("criterion-6 T1-holds-up-to-10000", 5.0, body)


def test_criterion_7_t2_biconditional_exhaustive():
    # odd semiprimes only: an even product can never be a pseudoprime,
    # so the biconditional is stated (and checked) over odd prime pairs
    def body():
        limit = 10**4
        primes = [p for p in primes_up_to(limit // 3) if p > 2]
        checked = 0
        for i, p in enumerate(primes):
            if p > isqrt(limit):
                break
            for q in primes[i + 1 :]:
                n = p * q
                if n > limit:
                    break
                for k in range(2, 21):
                    if gcd(k, n) != 1:
                        continue
                    assert check_T2(k, p, q).verdict is Verdict.HOLDS, (k, p, q)
                    checked += 1
        assert checked > 10**4

    _criterion("criterion-7 T2-biconditional-semiprimes-to-10000", 60.0, body)


def test_criterion_8_korselt_equals_all_bases():
    def body():
        for n in range(4, 10**4 + 1):
            if is_prime(n):
                continue
            all_bases = n % 2 == 1 and all(
                is_pseudoprime(k, n) for k in range(2, n) if gcd(k, n) == 1
            )
            assert is_carmichael(n) == all_bases, n

    _criterion("criterion-8 korselt-vs-exhaustive-bases-to-10000", 120.0, body)


def test_criterion_9_full_identity_suite():
    def body():
        config = SweepConfig(
            bases=tuple(range(2, 11)),
            max_n=10**4,
            rs_min=-3,
            rs_max=3,
            qpmj_max=3,
            claims=(
                ClaimId.R24_27, ClaimId.GA28_32, ClaimId.GB33_35,
                ClaimId.EC36_38, ClaimId.GC39_42, ClaimId.GE43,
                ClaimId.TP44_47, ClaimId.TP48_58, ClaimId.TP59_61,
            ),
        )
        report = run_suite(config)
        assert report.failure_count == 0, report.failures[:5]
        for claim in config.claims:
            assert report.tallies[claim][Verdict.HOLDS] > 0, claim

    _criterion("criterion-9 identity-suite-zero-failures", 300.0, body)


def test_criterion_10_spot_values():
    def body():
        assert 2**20 - 1 == 341 * 3075
        assert 2**16 - 1 == 17 * 3855
        assert count_exact_period(2, 6) == 54
        assert orbit_count(2, 6) == 9

    _criterion("criterion-10 hand-checked-spot-values", None, body)
