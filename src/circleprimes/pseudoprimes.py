"""Fermat pseudoprimes, Carmichael numbers, and the totient congruence."""

from __future__ import annotations

from itertools import compress
from math import gcd

from .arith import Factorization, factorize, is_prime, odd_composite_segments, totient

__all__ = [
    "enumerate_pseudoprimes",
    "euler_theorem_check",
    "is_carmichael",
    "is_pseudoprime",
]


def is_pseudoprime(k: int, n: int) -> bool:
    """Fermat pseudoprime test: odd composite n, coprime to k, passing
    the k**(n-1) == 1 congruence.

    The congruence only depends on k mod n, so the base is reduced first
    and any k > 1 is accepted.
    """
    if k < 2:
        raise ValueError(f"base must be > 1, got {k}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n % 2 == 0:
        return False
    b = k % n
    if gcd(b, n) != 1:
        return False
    if pow(b, n - 1, n) != 1:
        return False
    return not is_prime(n)


def enumerate_pseudoprimes(k: int, limit: int) -> list[int]:
    """All base-k pseudoprimes up to limit, ascending.

    The odd composites come from the segmented sieve, so no primality
    test runs; memory is O(sqrt(limit)) plus one sieve segment.  The
    congruence alone implies gcd(k, n) == 1, and leaving out a gcd
    shortcut makes every base cost the same, one pow per odd composite.
    """
    if k < 2:
        raise ValueError(f"base must be > 1, got {k}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    hits: list[int] = []
    for odds, composite in odd_composite_segments(limit):
        hits += [n for n in compress(odds, composite) if pow(k, n - 1, n) == 1]
    return hits


def is_carmichael(n: int) -> bool:
    """Korselt test: n composite, squarefree, and p-1 | n-1 for every
    prime p dividing n.

    This finite criterion is equivalent to being a pseudoprime to every
    base coprime to n (the exhaustive-base form is kept as a test oracle).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return not is_prime(n) and _korselt(n, factorize(n))


def _korselt(n: int, factors: Factorization) -> bool:
    """Korselt's criterion for composite n from its factorization: n is
    squarefree and p-1 | n-1 for every prime p dividing n."""
    return factors.is_squarefree and all((n - 1) % (p - 1) == 0 for p in factors.primes)


def euler_theorem_check(k: int, n: int) -> bool:
    """True iff k**phi(n) == 1 mod n; requires gcd(k, n) == 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = gcd(k, n)
    if g != 1:
        raise ValueError(f"k and n must be coprime, gcd({k}, {n}) = {g}")
    return pow(k, totient(n), n) == 1 % n
