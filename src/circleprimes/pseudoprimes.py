"""Fermat pseudoprimes, Carmichael numbers, and the totient congruence."""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator

from .arith import _odd_primes, factorize, is_prime, totient

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

    Only the candidates of _fermat_candidates run the Fermat test, which
    stays the final word, so the output is exactly the pseudoprimes.  No
    primality test runs, and memory is O(sqrt(limit)) plus one sieve
    segment.
    """
    if k < 2:
        raise ValueError(f"base must be > 1, got {k}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    return sorted(n for n in _fermat_candidates(k, limit) if pow(k, n - 1, n) == 1)


def _fermat_candidates(k: int, limit: int) -> Iterator[int]:
    """The odd composites n <= limit that can be base-k pseudoprimes, each
    once, in no fixed order.

    Every odd composite falls in one of two groups:

    - all prime factors <= sqrt(limit): each is a candidate, built once as
      a product of odd primes in non-decreasing order;
    - a prime factor q > sqrt(limit): q occurs once, and n = q*m with m odd
      and 3 <= m < q.  The angle 1/q has exact period ord_q(k) under
      theta -> k*theta, and k**(n-1) == 1 (mod q) needs ord_q(k) | n - 1 =
      m*(q - 1) + m - 1, so ord_q(k) | m - 1 as ord_q(k) | q - 1.  With m
      odd, m == 1 (mod e) for the least even e with k**e == 1 (mod q), and
      e is looked for only up to limit // q, the largest m.

    Every base costs nearly the same: the first group does not depend on k,
    and the second scans the same primes q for every k, keeping a few
    hundred of its composites at limit 10**6.
    """
    root = isqrt(limit)
    small = list(_odd_primes(root))
    stack = [(1, 0)]
    while stack:
        n, i = stack.pop()
        for j in range(i, len(small)):
            m = n * small[j]
            if m > limit:
                break
            stack.append((m, j))
            if n > 1:
                yield m
    for q in _odd_primes(limit // 3):
        if q <= root:
            continue
        top = limit // q
        k2 = k * k % q
        power, e = k2, 2
        while power != 1 and e < top:
            power = power * k2 % q
            e += 2
        if power == 1:
            yield from range(q * (e + 1), limit + 1, q * e)


def is_carmichael(n: int) -> bool:
    """Korselt test: n composite, squarefree, and p-1 | n-1 for every
    prime p dividing n.

    This finite criterion is equivalent to being a pseudoprime to every
    base coprime to n (the exhaustive-base form is kept as a test oracle).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return not is_prime(n) and _korselt(n, factorize(n))


def _korselt(n: int, pairs: tuple[tuple[int, int], ...]) -> bool:
    """Korselt's criterion for composite n from its (prime, exponent)
    pairs: n is squarefree and p-1 | n-1 for every prime p dividing n."""
    return all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in pairs)


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
