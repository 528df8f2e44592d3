"""Exact dynamics of the multiply-by-k circle map on its rational lattice.

A point of period n of theta -> k*theta (mod one turn) is a rational angle
with denominator k**n - 1, so the whole period-n state space is the integer
lattice {0, ..., k**n - 2} and the map becomes j -> k*j mod (k**n - 1).
Angles are never floats here: floats would corrupt period detection, while
on the integer lattice periods, orbits and counts are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterator

from .arith import _factor_pairs, divisors

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_MODULUS_BIT_BUDGET",
    "InvariantViolation",
    "LatticePoint",
    "OrbitSummary",
    "PeriodSpectrum",
    "PeriodicLattice",
    "ResourceLimitError",
    "count_exact_period",
    "enumerate_orbits",
    "exact_period",
    "fixed_points",
    "make_lattice",
    "orbit_count",
    "period_spectrum",
    "pi_mod",
]

# Most points enumerate_orbits walks; it bounds the k**i - 1 table and the
# integers each necklace step handles.
DEFAULT_ENUMERATION_CAP = 1 << 26
# Bit budget for materializing k**n - 1 exactly; counting beyond this must
# go through pi_mod, which never forms big integers.
DEFAULT_MODULUS_BIT_BUDGET = 1 << 22
# Only n below this are memoised: such an n has at most 7 distinct primes, so
# at most 128 Moebius divisors, and the 4096 entries hold under 7 MB.
_MEMO_BOUND = 1 << 20
# Largest k fixed_points lists: the list holds about 128 B per point, and the
# CLI's rows about 320 B, so fixed-points peaks near 340 MB at the cap
_FIXED_POINTS_CAP = 10**6


class ResourceLimitError(RuntimeError):
    """A configured size cap would be exceeded."""


class InvariantViolation(RuntimeError):
    """An arithmetic invariant failed; this always indicates a bug."""


def _guard_modulus_bits(k: int, n: int) -> None:
    """Reject k < 2, n < 1 and a k**n - 1 over the bit budget, before
    anything forms k**n."""
    if k < 2:
        raise ValueError(f"k must be > 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n * math.log2(k) > DEFAULT_MODULUS_BIT_BUDGET:
        raise ResourceLimitError(
            f"k**n - 1 for k={k}, n={n} needs about {int(n * math.log2(k))} bits,"
            f" over the {DEFAULT_MODULUS_BIT_BUDGET}-bit budget"
        )


@dataclass(frozen=True)
class PeriodicLattice:
    """The k**n - 1 rational angles closed under multiplication by k.

    Index j stands for the angle j/(k**n - 1) of a full turn.
    """

    k: int
    n: int
    modulus: int = field(init=False)

    def __post_init__(self) -> None:
        _guard_modulus_bits(self.k, self.n)
        object.__setattr__(self, "modulus", self.k**self.n - 1)


@dataclass(frozen=True)
class LatticePoint:
    """One lattice site of a periodic lattice."""

    index: int
    lattice: PeriodicLattice

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.lattice.modulus:
            raise ValueError(
                f"index {self.index} outside [0, {self.lattice.modulus})"
            )


@dataclass(frozen=True, slots=True)
class OrbitSummary:
    """One cycle of the map: its smallest member and its exact period.
    members is walked from the representative on each access, not stored."""

    representative: int
    period: int
    lattice: PeriodicLattice

    def __post_init__(self) -> None:
        if exact_period(LatticePoint(self.representative, self.lattice)) != self.period:
            raise ValueError(f"{self.representative} does not have period {self.period}")
        if self.representative != min(self.members):
            raise ValueError("representative must be the smallest member")

    @property
    def members(self) -> tuple[int, ...]:
        """The cycle in iteration order, starting at the representative."""
        k, m = self.lattice.k, self.lattice.modulus
        walk = accumulate(range(1, self.period), lambda j, _: j * k % m, initial=self.representative)
        return tuple(walk)


@dataclass
class PeriodSpectrum:
    """Per-divisor exact-period census of a period-n lattice.

    entries maps each divisor d of n to (points of exact period d,
    number of period-d orbits).
    """

    k: int
    n: int
    entries: dict[int, tuple[int, int]]


def fixed_points(k: int) -> list[tuple[int, int]]:
    """The k - 1 fixed-point angles as unreduced fractions (j, k - 1).

    Fraction (j, d) stands for the angle j/d of a full turn.  A k over the
    cap is refused before any point is built.
    """
    if k < 2:
        raise ValueError(f"k must be > 1, got {k}")
    if k > _FIXED_POINTS_CAP:
        raise ResourceLimitError(f"k={k} is over the fixed-points cap of {_FIXED_POINTS_CAP}")
    return [(j, k - 1) for j in range(k - 1)]


def make_lattice(k: int, n: int) -> PeriodicLattice:
    """Build the period-n lattice for multiplier k."""
    return PeriodicLattice(k, n)


def exact_period(point: LatticePoint) -> int:
    """Least d >= 1 after which the point returns to itself.

    d steps return j iff (k**d - 1)*j == 0 mod (k**n - 1), and the d that
    do are the multiples of the least, which divides n.  So starting from
    n, each prime of n is divided out while the rest still returns j.
    """
    lat, j = point.lattice, point.index
    k, m, d = lat.k, lat.modulus, lat.n
    for p, _ in _factor_pairs(d):
        while d % p == 0 and (pow(k, d // p, m) - 1) * j % m == 0:
            d //= p
    return d


def enumerate_orbits(lattice: PeriodicLattice) -> Iterator[OrbitSummary]:
    """Yield the disjoint cycles that partition the lattice, by increasing
    representative, holding none of them.  The first next() refuses a
    lattice larger than the enumeration cap.

    A map step rotates the n-digit base-k word of an index, so the cycles
    are the necklaces: least rotation as representative, Lyndon prefix
    length as period.  Fredricksen-Kessler-Maiorana lists them in order,
    visiting no other point, up to the all-(k - 1) word m, which is 0.
    """
    m, k, n = lattice.modulus, lattice.k, lattice.n
    if m > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"lattice has {m} points, over the enumeration cap of {DEFAULT_ENUMERATION_CAP}"
        )
    wrap = [k**i - 1 for i in range(n + 1)]  # i digits k - 1
    # trusted cycles: setting the slots skips the walk in __post_init__
    set_rep = OrbitSummary.representative.__set__
    set_period = OrbitSummary.period.__set__
    set_lattice = OrbitSummary.lattice.__set__
    word, i = 0, 1  # a prenecklace and the length of its Lyndon prefix
    while True:
        if n % i == 0:
            orbit = object.__new__(OrbitSummary)
            set_rep(orbit, word)
            set_period(orbit, i)
            set_lattice(orbit, lattice)
            yield orbit
        # successor: word + 1 carries through the trailing digits k - 1 to the
        # incremented prefix x, then x repeats: the base-k fraction x/(k**i - 1)
        x, i = word + 1, n
        while not x % k:
            x //= k
            i -= 1
        if x == wrap[i]:
            return
        word = (m + 1) * x // wrap[i]


@lru_cache(maxsize=4096)
def _moebius_divisors(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The d | n with mu(n // d) = +1, then those with mu(n // d) = -1: d = n / prod(S),
    sign (-1)**len(S), for each subset S of the primes of n, from one factorization of n."""
    plus, minus = [n], []
    for p, _ in _factor_pairs(n):
        plus, minus = plus + [d // p for d in minus], minus + [d // p for d in plus]
    return tuple(plus), tuple(minus)


def _pi_sum(k: int, n: int, m: int | None) -> int:
    """Sum of mu(n // d) * (pow(k, d, m) - 1) over d | n; m = None is exact.  For
    n > 1 the -1 terms cancel, as half the squarefree n // d have each sign."""
    plus, minus = (_moebius_divisors if n < _MEMO_BOUND else _moebius_divisors.__wrapped__)(n)
    total = sum(map(pow, repeat(k), plus, repeat(m)))
    return total - sum(map(pow, repeat(k), minus, repeat(m))) - (n == 1)


def count_exact_period(k: int, n: int) -> int:
    """Exact number of lattice points whose least period is n.

    Inclusion-exclusion over the period-dividing counts:
    sum of mu(n/d) * (k**d - 1) over the divisors d of n.  For prime n
    this collapses to k**n - k; for n = 1 it is the k - 1 fixed points.
    """
    _guard_modulus_bits(k, n)
    return _pi_sum(k, n, None)


def orbit_count(k: int, n: int) -> int:
    """Number of distinct cycles of exact period n.

    Every period-n cycle carries n points, so this is
    count_exact_period(k, n) / n; the division is checked and a remainder
    raises InvariantViolation (it would mean the counting is wrong).
    """
    pi = count_exact_period(k, n)
    q, r = divmod(pi, n)
    if r:
        raise InvariantViolation(f"period-{n} point count {pi} not divisible by {n}")
    return q


def pi_mod(k: int, n: int, m: int) -> int:
    """count_exact_period(k, n) reduced mod m, term by term.

    Never materializes k**d, so it works for k, n far beyond the exact
    counters' bit budget.
    """
    if k < 2:
        raise ValueError(f"k must be > 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return _pi_sum(k, n, m) % m


def period_spectrum(k: int, n: int) -> PeriodSpectrum:
    """Point and orbit counts for every exact period d dividing n: the
    orbit_count of each d, so each count passes its Gauss congruence."""
    _guard_modulus_bits(k, n)
    entries: dict[int, tuple[int, int]] = {}
    for d in divisors(n):
        q = orbit_count(k, d)
        entries[d] = (q * d, q)
    total = sum(pts for pts, _ in entries.values())
    if total != k**n - 1:
        raise InvariantViolation(
            f"spectrum total {total} != {k}**{n} - 1"
        )  # pragma: no cover
    if entries[1][0] != k - 1:
        raise InvariantViolation("fixed-point count != k - 1")  # pragma: no cover
    return PeriodSpectrum(k, n, entries)
