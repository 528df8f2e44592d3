from math import gcd

import pytest

from circleprimes import arith
from circleprimes.arith import is_prime, totient
from circleprimes.pseudoprimes import (
    enumerate_pseudoprimes,
    euler_theorem_check,
    is_carmichael,
    is_pseudoprime,
)
from oracles import naive_pseudoprime_sweep, prime_sieve

# Base-2 pseudoprimes up to 5000, frozen after regeneration by the
# independent naive sweep (see test_golden_list_regeneration).
GOLDEN_BASE2_5000 = [
    341, 561, 645, 1105, 1387, 1729, 1905, 2047,
    2465, 2701, 2821, 3277, 4033, 4369, 4371, 4681,
]

CARMICHAEL_BELOW_10K = [561, 1105, 1729, 2465, 2821, 6601, 8911]


class TestFermatCongruence:
    """The k**(n-1) == 1 (mod n) congruence, as is_pseudoprime decides it."""

    def test_examples(self):
        assert is_pseudoprime(2, 341)  # 2**10 == 1 (mod 341)
        assert is_pseudoprime(2, 2047)  # 2**11 == 1 (mod 2047)
        assert not is_pseudoprime(3, 341)

    def test_equivalent_to_nth_power_form(self):
        # for odd composite n coprime to k: k**(n-1) == 1 iff n | k**n - k
        sieve = prime_sieve(10**4)
        for n in range(9, 10**4 + 1, 2):
            if sieve[n]:
                continue
            for k in range(2, 21):
                if gcd(k, n) != 1:
                    continue
                assert is_pseudoprime(k, n) == (pow(k, n, n) == k % n), (k, n)


class TestIsPseudoprime:
    def test_examples(self):
        assert is_pseudoprime(2, 341)
        assert not is_pseudoprime(2, 31)  # prime, excluded
        assert is_pseudoprime(2, 561)

    def test_excludes_shared_factors_and_evens(self):
        assert not is_pseudoprime(3, 561)  # gcd(3, 561) = 3
        assert not is_pseudoprime(3, 14)
        # even n is excluded even when the congruence holds:
        # 14 = 2*7 with any base == 1 mod 14, and 682 = 2*11*31 with base 67
        assert pow(15, 13, 14) == 1 and not is_pseudoprime(15, 14)
        assert pow(67, 681, 682) == 1 and not is_pseudoprime(67, 682)

    def test_base_reduced_modulo_n(self):
        # the congruence only sees k mod n
        assert is_pseudoprime(341 + 2, 341) == is_pseudoprime(2, 341)
        assert is_pseudoprime(2 * 341 + 3, 341) == is_pseudoprime(3, 341)
        assert not is_pseudoprime(341, 341)  # reduces to 0
        assert is_pseudoprime(342, 341)  # reduces to 1, congruence trivial

    def test_no_prime_is_a_pseudoprime(self):
        sieve = prime_sieve(10**4)
        primes = [n for n in range(2, 10**4 + 1) if sieve[n]]
        for p in primes:
            for k in (2, 3, 5, 10, 20):
                assert not is_pseudoprime(k, p)


class TestEnumeratePseudoprimes:
    def test_examples(self):
        assert enumerate_pseudoprimes(2, 400) == [341]
        assert enumerate_pseudoprimes(2, 700) == [341, 561, 645]
        assert enumerate_pseudoprimes(2, 100) == []

    def test_golden_list_regeneration(self):
        # regenerate with the fully naive oracle, then compare both ways
        regenerated = naive_pseudoprime_sweep(2, 5000)
        assert regenerated == GOLDEN_BASE2_5000
        assert enumerate_pseudoprimes(2, 5000) == GOLDEN_BASE2_5000

    @pytest.mark.parametrize("k", range(2, 11))
    def test_agrees_with_naive_sweep(self, k):
        assert enumerate_pseudoprimes(k, 2 * 10**4) == naive_pseudoprime_sweep(k, 2 * 10**4)

    def test_segment_edges(self, monkeypatch):
        # 8 odd numbers per segment: segments start at 3 + 16*j, so the
        # pseudoprimes 1105 and 1729 each end a segment
        monkeypatch.setattr(arith, "_SEGMENT", 8)
        hits = naive_pseudoprime_sweep(2, 2000)
        for start in range(3, 2000, 16):
            for limit in range(max(2, start - 2), start + 3):
                want = [n for n in hits if n <= limit]
                assert enumerate_pseudoprimes(2, limit) == want, limit

    def test_ascending_no_duplicates(self):
        for k in (2, 3, 5):
            hits = enumerate_pseudoprimes(k, 3000)
            assert hits == sorted(set(hits))

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            enumerate_pseudoprimes(2, 1)


class TestIsCarmichael:
    def test_examples(self):
        assert is_carmichael(561)
        assert not is_carmichael(341)  # 340 is not divisible by 30
        assert not is_carmichael(9)  # not squarefree

    def test_known_list_below_ten_thousand(self):
        assert [n for n in range(2, 10**4 + 1) if is_carmichael(n)] == CARMICHAEL_BELOW_10K

    def test_korselt_matches_all_bases_small(self):
        # exhaustive-base definition as the oracle
        for n in range(4, 3000):
            if is_prime(n):
                continue
            all_bases = n % 2 == 1 and all(
                is_pseudoprime(k, n)
                for k in range(2, n)
                if gcd(k, n) == 1
            )
            assert is_carmichael(n) == all_bases, n


class TestEulerTheoremCheck:
    def test_examples(self):
        assert euler_theorem_check(2, 341)  # 2**300 == 1 mod 341
        assert euler_theorem_check(7, 1)
        assert euler_theorem_check(5, 7)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            euler_theorem_check(6, 9)

    def test_always_holds_on_coprime_range(self):
        for n in range(1, 2001):
            phi = totient(n)
            for k in range(1, 51):
                if gcd(k, n) != 1:
                    continue
                assert pow(k, phi, n) == 1 % n, (k, n)
