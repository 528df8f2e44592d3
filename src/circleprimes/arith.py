"""Exact integer primitives: primality, factorization, divisor machinery.

Everything here is deterministic, and exact with one stated exception:
at or above psi_13 (about 3.3e24) ``is_prime`` is a strong probable prime
test to 13 bases, and ``factorize`` trusts it for its cofactors.  Python
integers are arbitrary precision, so no value ever overflows; the only
size limits in this package are the explicit caps in
:mod:`circleprimes.circlemap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterator

__all__ = [
    "Factorization",
    "divisors",
    "factorize",
    "is_prime",
    "moebius",
    "primes_up_to",
    "totient",
]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ordered (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError(f"primes must be strictly increasing, got {primes}")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be positive")

    @property
    def n(self) -> int:
        """The factored integer."""
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __iter__(self):
        return iter(self.factors)


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
# one gcd with this product is trial division by every small prime at once
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
# 101 is the next prime: a composite below 101**2 has a factor in _SMALL_PRIMES
_TRIAL_DECIDES_BELOW = 101 * 101

_WITNESSES = _SMALL_PRIMES[:13]
# (psi_t, t): psi_t is the least odd composite that is a strong probable
# prime to each of the first t prime bases (OEIS A014233), so below psi_t
# those t bases prove primality.  psi_1 = 2047 lies below
# _TRIAL_DECIDES_BELOW; psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so
# those tiers add nothing and are left out.
_WITNESS_TIERS = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def is_prime(n: int) -> bool:
    """Primality by trial division, then strong-probable-prime rounds.

    Exact for every n below psi_13 = 3,317,044,064,679,887,385,961,981:
    n is tested on the shortest prefix of the bases 2, 3, 5, ..., 41 that
    is proven to leave no strong pseudoprime below n, so a prime below
    1,373,653 costs two modular powers and one below 101**2 none.  At or
    above that bound the answer is a strong probable prime test to all 13
    bases and nothing more; psi_13 itself is composite and passes it.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    if n < _TRIAL_DECIDES_BELOW:
        return True
    witnesses = _WITNESSES
    for bound, count in _WITNESS_TIERS:
        if n < bound:
            witnesses = _WITNESSES[:count]
            break
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 2, smallest prime first.
    No time bound: Brent rho takes about sqrt(p) steps, p the second-largest prime factor."""
    if n < 2:
        raise ValueError(f"cannot factor {n}; need n >= 2")
    return Factorization(_factor_pairs(n))


def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1, smallest prime first; () for 1.
    Valid by construction: package internals skip Factorization's checks."""
    m = n
    found: list[tuple[int, int]] = []
    for p in _SMALL_PRIMES:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            found.append((p, e))
    if m > 1:
        found.extend(_factor_hard(m))  # sorted, all above _SMALL_PRIMES
    return tuple(found)


def _factor_hard(m: int) -> list[tuple[int, int]]:
    """Factor m > 1 with no prime in _SMALL_PRIMES: is_prime, then Brent rho."""
    counts: dict[int, int] = {}
    stack = [m]
    while stack:
        v = stack.pop()
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        f = _brent_rho(v)
        stack.append(f)
        stack.append(v // f)
    return sorted(counts.items())


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n via Brent's cycle method."""
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = x = ys = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            j = 0
            while j < r and g == 1:
                ys = y
                for _ in range(min(128, r - j)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                j += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to split {n}")  # pragma: no cover


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1 in increasing order."""
    if n < 1:
        raise ValueError(f"divisors need n >= 1, got {n}")
    out = [1]
    for p, e in _factor_pairs(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    out.sort()
    return out


def moebius(n: int) -> int:
    """Moebius mu: 0 when a square divides n, else (-1)**(prime count)."""
    if n < 1:
        raise ValueError(f"moebius needs n >= 1, got {n}")
    pairs = _factor_pairs(n)
    if any(e > 1 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def totient(n: int) -> int:
    """Euler phi of n >= 1, from the factorization."""
    if n < 1:
        raise ValueError(f"totient needs n >= 1, got {n}")
    out = 1
    for p, e in _factor_pairs(n):
        out *= (p - 1) * p ** (e - 1)
    return out


# odd numbers per sieve segment: 32 KiB of flags, small enough for the cache
_SEGMENT = 1 << 15


def _odd_primes(limit: int) -> Iterator[int]:
    """The odd primes <= limit, ascending: a segmented sieve of Eratosthenes
    over the odd numbers, in O(sqrt(limit) + _SEGMENT) memory."""
    # below 9 no odd number is composite, and the recursion stops
    sieving = list(_odd_primes(math.isqrt(limit))) if limit >= 9 else []
    for lo in range(3, limit + 1, 2 * _SEGMENT):
        odds = range(lo, min(lo + 2 * _SEGMENT, limit + 1), 2)
        prime = bytearray(b"\x01") * len(odds)
        for p in sieving:
            square = p * p
            if square > odds[-1]:
                break
            if square >= lo:
                i = (square - lo) // 2
            else:
                # lo + 2*i == 0 (mod p); (p + 1) // 2 inverts 2 mod p
                i = -lo * ((p + 1) // 2) % p
            prime[i::p] = bytes(len(range(i, len(odds), p)))
        yield from compress(odds, prime)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    return [2, *_odd_primes(limit)] if limit >= 2 else []
