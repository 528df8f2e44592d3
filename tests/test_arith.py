import random
from math import prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from circleprimes import arith
from circleprimes.arith import (
    Factorization,
    divisors,
    factorize,
    is_prime,
    moebius,
    primes_up_to,
    totient,
)
from oracles import (
    brute_divisors,
    lucas_is_prime,
    naive_moebius,
    naive_totient,
    prime_sieve,
    rho_factor,
    trial_division_is_prime,
    trial_factor,
)


# OEIS A014233: psi_t, the least odd composite that is a strong probable
# prime to each of the first t prime bases, for t = 1..13
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
PSI_13 = A014233[-1]


class TestIsPrime:
    def test_examples(self):
        assert is_prime(31)
        assert not is_prime(341)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(2)

    def test_agrees_with_sieve_below_one_million(self):
        sieve = prime_sieve(10**6 - 1)
        for n in range(10**6):
            assert is_prime(n) == bool(sieve[n]), n

    def test_large_known_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(18446744073709551557)  # largest prime below 2**64

    def test_strong_pseudoprime_composites(self):
        # each psi_t fools the first t prime bases, psi_12 fools 2..37
        for psi in sorted(set(A014233[:12])):
            assert not lucas_is_prime(psi), psi
            assert not is_prime(psi), psi

    def test_agrees_with_oracle_around_witness_tiers(self):
        # at psi_13 and above is_prime is only a probable prime test
        for psi in sorted(set(A014233)):
            for n in range(psi - 50, min(psi + 51, PSI_13)):
                assert is_prime(n) == lucas_is_prime(n), n

    @seed(20170401)
    @settings(max_examples=500, deadline=None, database=None)
    @given(st.integers(min_value=0, max_value=10**7 - 1))
    def test_agrees_with_trial_division_property(self, n):
        assert is_prime(n) == trial_division_is_prime(n)


class TestFactorize:
    def test_examples(self):
        assert factorize(561).factors == ((3, 1), (11, 1), (17, 1))
        assert factorize(341).factors == ((11, 1), (31, 1))
        assert factorize(8).factors == ((2, 3),)

    def test_rejects_small(self):
        for n in (1, 0, -5):
            with pytest.raises(ValueError):
                factorize(n)

    def test_reconstructs_and_factors_prime(self):
        sieve = prime_sieve(10**5)
        for n in range(2, 10**5 + 1):
            f = factorize(n)
            product = 1
            for p, e in f:
                assert sieve[p], (n, p)
                product *= p**e
            assert product == n

    def test_mixed_exponents(self):
        assert factorize(720).factors == ((2, 4), (3, 2), (5, 1))

    def test_large_semiprime_beyond_trial_range(self):
        # both factors are far above 97, so rho splits n
        f = factorize(1000003 * 1000033)
        assert f.factors == ((1000003, 1), (1000033, 1))

    def test_large_prime_power(self):
        f = factorize(1000003**2)
        assert f.factors == ((1000003, 2),)

    def test_psi_12(self):
        # a strong pseudoprime to bases 2..37 split into two 12-digit primes
        f = factorize(318665857834031151167461)
        assert f.factors == ((399165290221, 1), (798330580441, 1))

    def test_brent_rho_splits_every_small_odd_composite(self):
        # 480 of these n need the backtrack from the last block's ys: at
        # n = 143, c = 1 backtracks to 143 itself and c = 2 backtracks to 11
        sieve = prime_sieve(20000)
        for n in range(9, 20000, 2):
            if not sieve[n]:
                f = arith._brent_rho(n)
                assert 1 < f < n and n % f == 0, (n, f)

    def test_semiprime_whose_first_rho_backtracks(self):
        # both primes are far above 97, and rho with c = 1 backtracks
        n = 1000003 * 1000159
        assert [p for p, e in factorize(n) for _ in range(e)] == trial_factor(n)

    def test_rho_cofactors_agree_with_oracle(self):
        # every cofactor left after dividing by the primes to 97 goes to
        # is_prime and Brent rho; rho_factor shares no code with either
        sieve = prime_sieve(10**4)
        primes = [p for p in range(98, 10**4) if sieve[p]]
        rng = random.Random(20)
        cases = [p**e for p in primes if p < 3000 for e in (2, 3, 4)]
        cases += [rng.choice(primes) * rng.choice(primes) for _ in range(500)]
        cases += [prod(rng.choices(primes, k=3)) for _ in range(500)]
        cases += [rng.randrange(10**12, 10**18) for _ in range(100)]
        for n in cases:
            assert [p for p, e in factorize(n) for _ in range(e)] == rho_factor(n), n


class TestFactorizationType:
    def test_properties(self):
        f = Factorization(((3, 1), (11, 1), (17, 1)))
        assert f.n == 561
        assert f.primes == (3, 11, 17)
        assert f.is_squarefree
        assert not Factorization(((2, 3),)).is_squarefree

    def test_rejects_unsorted_or_repeated(self):
        with pytest.raises(ValueError):
            Factorization(((11, 1), (3, 1)))
        with pytest.raises(ValueError):
            Factorization(((3, 1), (3, 2)))
        with pytest.raises(ValueError):
            Factorization(((3, 0),))


class TestDivisors:
    def test_examples(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(341) == [1, 11, 31, 341]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_agrees_with_trial_division(self):
        for n in range(1, 501):
            assert divisors(n) == brute_divisors(n)

    def test_ends(self):
        for n in (2, 97, 360, 9999):
            ds = divisors(n)
            assert ds[0] == 1 and ds[-1] == n
            assert ds == sorted(ds)


class TestMoebius:
    def test_examples(self):
        assert moebius(1) == 1
        assert moebius(4) == 0
        assert moebius(30) == -1

    def test_agrees_with_naive(self):
        for n in range(1, 2001):
            assert moebius(n) == naive_moebius(n)

    def test_divisor_column_sums(self):
        # sum of mu(d) over d | n is 1 for n = 1 and 0 otherwise
        for n in range(1, 10**4 + 1):
            total = sum(moebius(d) for d in divisors(n))
            assert total == (1 if n == 1 else 0), n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            moebius(0)


class TestTotient:
    def test_examples(self):
        assert totient(341) == 300  # (11-1)*(31-1)
        assert totient(561) == 320  # 2*10*16
        assert totient(1) == 1

    def test_agrees_with_naive(self):
        for n in range(1, 301):
            assert totient(n) == naive_totient(n)

    def test_divisor_sums(self):
        # sum of phi(d) over d | n equals n
        for n in range(1, 10**4 + 1):
            assert sum(totient(d) for d in divisors(n)) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            totient(0)


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_matches_trial_division(self):
        assert primes_up_to(2000) == [
            n for n in range(2001) if trial_division_is_prime(n)
        ]

    def test_segment_edges(self, monkeypatch):
        # 8 odd numbers per segment: segments start at 3, 19, 35, ..., so
        # every limit covers each way a segment can end, and limits 8, 9
        # and 10 cross the guard that stops the sieve's recursion at 9
        monkeypatch.setattr(arith, "_SEGMENT", 8)
        primes = [n for n in range(401) if trial_division_is_prime(n)]
        for limit in range(401):
            assert primes_up_to(limit) == [p for p in primes if p <= limit], limit
