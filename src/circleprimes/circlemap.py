"""Exact dynamics of the multiply-by-k circle map on its rational lattice.

A point of period n of theta -> k*theta (mod one turn) is a rational angle
with denominator k**n - 1, so the whole period-n state space is the integer
lattice {0, ..., k**n - 2} and the map becomes j -> k*j mod (k**n - 1).
Angles are never floats here: floats would corrupt period detection, while
on the integer lattice periods, orbits and counts are exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate

from .arith import _factor_pairs

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_MODULUS_BIT_BUDGET",
    "ENUM_CAP_ENV",
    "InvariantViolation",
    "LatticePoint",
    "OrbitSummary",
    "PeriodSpectrum",
    "PeriodicLattice",
    "ResourceLimitError",
    "count_exact_period",
    "enumerate_orbits",
    "enumeration_cap",
    "exact_period",
    "fixed_points",
    "make_lattice",
    "orbit_count",
    "period_spectrum",
    "pi_mod",
    "step",
]

DEFAULT_ENUMERATION_CAP = 1 << 26
ENUM_CAP_ENV = "CIRCLEPRIMES_ENUM_CAP"
# Bit budget for materializing k**n - 1 exactly; counting beyond this must
# go through pi_mod, which never forms big integers.
DEFAULT_MODULUS_BIT_BUDGET = 1 << 22


class ResourceLimitError(RuntimeError):
    """A configured size cap would be exceeded."""


class InvariantViolation(RuntimeError):
    """An arithmetic invariant failed; this always indicates a bug."""


def enumeration_cap() -> int:
    """Active orbit-enumeration cap; CIRCLEPRIMES_ENUM_CAP overrides it."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be >= 1, got {cap}")
    return cap


def _guard_modulus_bits(k: int, n: int, max_bits: int) -> None:
    if n * math.log2(k) > max_bits:
        raise ResourceLimitError(
            f"k**n - 1 for k={k}, n={n} needs about {int(n * math.log2(k))} bits,"
            f" over the {max_bits}-bit budget"
        )


@dataclass(frozen=True)
class PeriodicLattice:
    """The k**n - 1 rational angles closed under multiplication by k.

    Index j stands for the angle j/(k**n - 1) of a full turn.
    """

    k: int
    n: int
    modulus: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be > 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.modulus != self.k**self.n - 1:
            raise ValueError(
                f"modulus {self.modulus} != {self.k}**{self.n} - 1; use make_lattice"
            )


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

    Fraction (j, d) stands for the angle j/d of a full turn.
    """
    if k < 2:
        raise ValueError(f"k must be > 1, got {k}")
    return [(j, k - 1) for j in range(k - 1)]


def make_lattice(
    k: int, n: int, *, max_bits: int = DEFAULT_MODULUS_BIT_BUDGET
) -> PeriodicLattice:
    """Build the period-n lattice for multiplier k."""
    if k < 2:
        raise ValueError(f"k must be > 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _guard_modulus_bits(k, n, max_bits)
    return PeriodicLattice(k, n, k**n - 1)


def step(point: LatticePoint) -> LatticePoint:
    """One application of the map: j -> k*j mod (k**n - 1)."""
    lat = point.lattice
    return LatticePoint(point.index * lat.k % lat.modulus, lat)


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


def enumerate_orbits(
    lattice: PeriodicLattice, *, cap: int | None = None
) -> list[OrbitSummary]:
    """Partition every lattice index into disjoint cycles, sorted by
    representative.  Refuses lattices larger than the enumeration cap.

    A map step rotates the n-digit base-k word of an index, so the cycles
    are the necklaces: least rotation as representative, Lyndon prefix
    length as period.  Fredricksen-Kessler-Maiorana lists them in order,
    visiting no other point, up to the all-(k - 1) word m, which is 0.
    """
    limit = enumeration_cap() if cap is None else cap
    m, k, n = lattice.modulus, lattice.k, lattice.n
    if m > limit:
        raise ResourceLimitError(
            f"lattice has {m} points, over the enumeration cap of {limit}"
        )
    wrap = [k**i - 1 for i in range(n + 1)]  # i digits k - 1
    # trusted cycles: setting the slots skips the walk in __post_init__
    set_rep = OrbitSummary.representative.__set__
    set_period = OrbitSummary.period.__set__
    set_lattice = OrbitSummary.lattice.__set__
    orbits: list[OrbitSummary] = []
    word, i = 0, 1  # a prenecklace and the length of its Lyndon prefix
    while True:
        if n % i == 0:
            orbit = object.__new__(OrbitSummary)
            set_rep(orbit, word)
            set_period(orbit, i)
            set_lattice(orbit, lattice)
            orbits.append(orbit)
        # successor: word + 1 carries through the trailing digits k - 1 to the
        # incremented prefix x, then x repeats: the base-k fraction x/(k**i - 1)
        x, i = word + 1, n
        while not x % k:
            x //= k
            i -= 1
        if x == wrap[i]:
            return orbits
        word = (m + 1) * x // wrap[i]


def _moebius_terms(n: int, factors: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """The terms (mu(n // d), d) with mu(n // d) != 0 of a sum over d | n: d = n / prod(S)
    and sign (-1)**len(S) for each subset S of the primes in factors, the pairs of n."""
    terms = [(1, n)]
    for p, _ in factors:
        terms += [(-s, d // p) for s, d in terms]
    return terms


def count_exact_period(
    k: int, n: int, *, max_bits: int = DEFAULT_MODULUS_BIT_BUDGET
) -> int:
    """Exact number of lattice points whose least period is n.

    Inclusion-exclusion over the period-dividing counts:
    sum of mu(n/d) * (k**d - 1) over the divisors d of n.  For prime n
    this collapses to k**n - k; for n = 1 it is the k - 1 fixed points.
    """
    if k < 2:
        raise ValueError(f"k must be > 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _guard_modulus_bits(k, n, max_bits)
    return sum(s * (k**d - 1) for s, d in _moebius_terms(n, _factor_pairs(n)))


def orbit_count(k: int, n: int, *, max_bits: int = DEFAULT_MODULUS_BIT_BUDGET) -> int:
    """Number of distinct cycles of exact period n.

    Every period-n cycle carries n points, so this is
    count_exact_period(k, n) / n; the division is checked and a remainder
    raises InvariantViolation (it would mean the counting is wrong).
    """
    pi = count_exact_period(k, n, max_bits=max_bits)
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
    return sum(s * (pow(k, d, m) - 1) for s, d in _moebius_terms(n, _factor_pairs(n))) % m


def period_spectrum(
    k: int, n: int, *, max_bits: int = DEFAULT_MODULUS_BIT_BUDGET
) -> PeriodSpectrum:
    """Point and orbit counts for every exact period d dividing n."""
    if k < 2:
        raise ValueError(f"k must be > 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _guard_modulus_bits(k, n, max_bits)
    divisors = [(1, ())]  # each d | n with its factors, from one factorization
    for p, e in _factor_pairs(n):
        divisors += [(d * p**i, fs + ((p, i),)) for d, fs in divisors for i in range(1, e + 1)]
    entries: dict[int, tuple[int, int]] = {}
    total = 0
    for d, factors in sorted(divisors):
        pts = sum(s * (k**e - 1) for s, e in _moebius_terms(d, factors))
        q, r = divmod(pts, d)
        if r:
            raise InvariantViolation(
                f"period-{d} point count {pts} not divisible by {d}"
            )
        entries[d] = (pts, q)
        total += pts
    if total != k**n - 1:
        raise InvariantViolation(
            f"spectrum total {total} != {k}**{n} - 1"
        )  # pragma: no cover
    if entries[1][0] != k - 1:
        raise InvariantViolation("fixed-point count != k - 1")  # pragma: no cover
    return PeriodSpectrum(k, n, entries)
