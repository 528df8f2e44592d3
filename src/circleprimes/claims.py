"""Machine-checkable divisibility identities for factored pseudoprimes.

Every identity is evaluated entirely in modular arithmetic: "the quotient
is a natural number" becomes "the residue is zero", so exponents in the
thousands cost O(log e) multiplications and no big integers are formed.

Checks report a verdict instead of raising on data-dependent conditions:

* ``holds`` / ``fails`` - the identity was evaluated; a failure carries a
  witness (the offending residue).
* ``degenerate`` - an exponent evaluated to zero, which is outside the
  identity's stated domain (k**0 - 1 = 0 is divisible by everything and
  would silently mask range errors).
* ``not_applicable`` - the pseudoprime precondition is unmet, reported
  separately from ``fails`` so sweeps need no pre-filtering.

Structurally invalid inputs (a non-prime factor, repeated factors, a base
below 2, an auxiliary parameter outside its domain) raise ValueError.

The public ``check_*`` functions validate their inputs and the
pseudoprime precondition, then call a private kernel that only computes.
The sweep (iter_suite) trusts its own construction: its pseudoprimes come
from enumerate_pseudoprimes with factors from factorize, its semiprimes
from sieved primes, so it calls the kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from math import isqrt
from typing import Iterator

from .arith import factorize, gcd, is_prime, primes_up_to
from .circlemap import pi_mod
from .pseudoprimes import enumerate_pseudoprimes, is_pseudoprime

__all__ = [
    "ALL_CLAIMS",
    "CLAIM_DESCRIPTIONS",
    "ClaimId",
    "ClaimResult",
    "SuiteReport",
    "SweepConfig",
    "Verdict",
    "check_EC36_38",
    "check_GA28_32",
    "check_GB33_35",
    "check_GC39_42",
    "check_GE43",
    "check_R24_27",
    "check_T1",
    "check_T2",
    "check_TP44_47",
    "check_TP48_58",
    "check_TP59_61",
    "iter_suite",
    "run_suite",
    "t2_sides",
]


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    DEGENERATE = "degenerate"
    NOT_APPLICABLE = "not_applicable"


class ClaimId(Enum):
    T1 = "T1"
    T2 = "T2"
    R24_27 = "R24_27"
    GA28_32 = "GA28_32"
    GB33_35 = "GB33_35"
    EC36_38 = "EC36_38"
    GC39_42 = "GC39_42"
    GE43 = "GE43"
    TP44_47 = "TP44_47"
    TP48_58 = "TP48_58"
    TP59_61 = "TP59_61"


ALL_CLAIMS: tuple[ClaimId, ...] = tuple(ClaimId)

CLAIM_DESCRIPTIONS: dict[ClaimId, str] = {
    ClaimId.T1: "n divides k**n - k - pi_n for every base-k pseudoprime n",
    ClaimId.T2: "n1*n2 is a base-k pseudoprime iff n1 | k**n2 - k and n2 | k**n1 - k",
    ClaimId.R24_27: "two-prime pseudoprime: n | k**ni - k, and n, n1, n2 all divide k**|n1-n2| - 1",
    ClaimId.GA28_32: "prime-power telescope: n1 | k**(n1**r) - k, n1 | k**|n1**r - n2| - 1, n2 | k**|n2**r - n1| - 1",
    ClaimId.GB33_35: "n divides k**(r*(ni - 1)) - 1 for i = 1, 2 and every r >= 1",
    ClaimId.EC36_38: "n divides k**(n1 + n2 - 2) - 1, and k**phi(n) - 1 with phi(n) = n1*n2 - n1 - n2 + 1",
    ClaimId.GC39_42: "n divides k**(r*n1 + s*n2 - (r + s)) - 1 whenever the exponent is positive",
    ClaimId.GE43: "n divides k**(r*n1**q + s*n2**p - (r + s)) - 1 whenever the exponent is positive",
    ClaimId.TP44_47: "three-prime pseudoprime: n and each ni divide the six-term power sum",
    ClaimId.TP48_58: "each ni divides k**|nj*nl - ni| - 1 for the three rotations",
    ClaimId.TP59_61: "each ni divides k**(j*|nj*nl - ni**m|) - 1 for all m, j >= 1",
}


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one identity check on one parameter tuple."""

    claim: ClaimId
    params: tuple[tuple[str, int], ...]
    verdict: Verdict
    witness: str | None = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.FAILS and not self.witness:
            raise ValueError("a failing result must carry a witness")

    def as_record(self) -> dict[str, str]:
        """Flat serialization: claim_id, params as key=value, verdict, witness."""
        return {
            "claim_id": self.claim.value,
            "params": " ".join(f"{name}={value}" for name, value in self.params),
            "verdict": self.verdict.value,
            "witness": self.witness or "",
        }


def _params(**kv: int) -> tuple[tuple[str, int], ...]:
    return tuple(kv.items())


def _require_base_and_primes(k: int, *ns: int) -> None:
    """A base above 1 and distinct prime factors, or ValueError."""
    if k < 2:
        raise ValueError(f"base must be > 1, got {k}")
    for p in ns:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if len(set(ns)) != len(ns):
        raise ValueError(f"prime factors must be distinct, got {ns}")


def _power_minus_one(k: int, e: int, d: int) -> str | None:
    """Witness if d does not divide k**e - 1, else None."""
    r = (pow(k, e, d) - 1) % d
    return None if r == 0 else f"{k}**{e} - 1 = {r} (mod {d})"


def _power_minus_k(k: int, e: int, d: int) -> str | None:
    """Witness if d does not divide k**e - k, else None."""
    r = (pow(k, e, d) - k) % d
    return None if r == 0 else f"{k}**{e} - {k} = {r} (mod {d})"


def _settle(claim: ClaimId, params, witnesses) -> ClaimResult:
    for w in witnesses:
        if w is not None:
            return ClaimResult(claim, params, Verdict.FAILS, witness=w)
    return ClaimResult(claim, params, Verdict.HOLDS)


def _gated(claim: ClaimId, params, k: int, n: int, kernel, *args: int) -> ClaimResult:
    """The kernel's result if n is a base-k pseudoprime, else not_applicable."""
    if not is_pseudoprime(k, n):
        return ClaimResult(claim, params, Verdict.NOT_APPLICABLE)
    return kernel(claim, params, k, *args)


# Kernels: each takes integers that already satisfy its claim's
# preconditions (a base above 1, distinct prime factors whose product is
# a base-k pseudoprime, auxiliary parameters in their domain) and returns
# the result under the given claim id and params.


def _t1(claim: ClaimId, params, k: int, n: int) -> ClaimResult:
    r = (pow(k, n, n) - k - pi_mod(k, n, n)) % n
    return _settle(claim, params, (
        None if r == 0 else f"{k}**{n} - {k} - pi_{n} = {r} (mod {n})",
    ))


def _t2(claim: ClaimId, params, k: int, n1: int, n2: int) -> ClaimResult:
    # n1*n2 is an odd composite coprime to k, so the Fermat congruence
    # alone decides whether it is a pseudoprime
    n = n1 * n2
    left = pow(k, n - 1, n) == 1
    right = pow(k, n2, n1) == k % n1 and pow(k, n1, n2) == k % n2
    return _settle(claim, params, (
        None if left == right else f"pseudoprime={left} but cross-divisibilities={right}",
    ))


def _r24_27(claim: ClaimId, params, k: int, n1: int, n2: int) -> ClaimResult:
    n = n1 * n2
    e = abs(n1 - n2)
    return _settle(claim, params, (
        _power_minus_k(k, n1, n),
        _power_minus_k(k, n2, n),
        _power_minus_one(k, e, n),
        _power_minus_one(k, e, n1),
        _power_minus_one(k, e, n2),
    ))


def _ga28_32(claim: ClaimId, params, k: int, n1: int, n2: int, r: int) -> ClaimResult:
    e_cross1 = abs(n1**r - n2)
    e_cross2 = abs(n2**r - n1)
    if e_cross1 == 0 or e_cross2 == 0:
        return ClaimResult(claim, params, Verdict.DEGENERATE)
    return _settle(claim, params, (
        _power_minus_k(k, n1**r, n1),
        _power_minus_one(k, e_cross1, n1),
        _power_minus_one(k, e_cross2, n2),
    ))


def _gb33_35(claim: ClaimId, params, k: int, n1: int, n2: int, r: int) -> ClaimResult:
    n = n1 * n2
    return _settle(claim, params, (
        _power_minus_one(k, r * (n1 - 1), n),
        _power_minus_one(k, r * (n2 - 1), n),
    ))


def _ec36_38(claim: ClaimId, params, k: int, n1: int, n2: int) -> ClaimResult:
    n = n1 * n2
    phi = n1 * n2 - n1 - n2 + 1
    return _settle(claim, params, (
        _power_minus_one(k, n1 + n2 - 2, n),
        _power_minus_one(k, phi, n),
    ))


def _ge43(
    claim: ClaimId, params, k: int, n1: int, n2: int, r: int, s: int, q: int, p: int
) -> ClaimResult:
    e = r * n1**q + s * n2**p - (r + s)
    if e <= 0:
        return ClaimResult(claim, params, Verdict.DEGENERATE)
    return _settle(claim, params, (_power_minus_one(k, e, n1 * n2),))


def _tp44_47(claim: ClaimId, params, k: int, n1: int, n2: int, n3: int) -> ClaimResult:
    def sum_witness(d: int) -> str | None:
        r = (
            pow(k, n1 * n2, d) + pow(k, n1 * n3, d) + pow(k, n2 * n3, d)
            - pow(k, n1, d) - pow(k, n2, d) - pow(k, n3, d)
        ) % d
        return None if r == 0 else f"six-term power sum = {r} (mod {d})"

    return _settle(claim, params, (
        sum_witness(n1 * n2 * n3), sum_witness(n1), sum_witness(n2), sum_witness(n3),
    ))


def _tp59_61(
    claim: ClaimId, params, k: int, n1: int, n2: int, n3: int, m: int, j: int
) -> ClaimResult:
    e1 = j * abs(n2 * n3 - n1**m)
    e2 = j * abs(n1 * n3 - n2**m)
    e3 = j * abs(n1 * n2 - n3**m)
    if 0 in (e1, e2, e3):
        return ClaimResult(claim, params, Verdict.DEGENERATE)
    return _settle(claim, params, (
        _power_minus_one(k, e1, n1),
        _power_minus_one(k, e2, n2),
        _power_minus_one(k, e3, n3),
    ))


def check_T1(k: int, n: int) -> ClaimResult:
    """n | k**n - k - pi_n, where pi_n counts the exact-period-n points.

    Applicable to any base-k pseudoprime n; evaluated with pi_mod so n
    around a few hundred needs no multi-hundred-bit integers.
    """
    _require_base_and_primes(k)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _gated(ClaimId.T1, _params(k=k, n=n), k, n, _t1, n)


def t2_sides(k: int, n1: int, n2: int) -> tuple[bool, bool]:
    """The two sides of the product biconditional.

    Left: n1*n2 is a base-k pseudoprime.  Right: n1 | k**n2 - k and
    n2 | k**n1 - k.
    """
    n = n1 * n2
    left = is_pseudoprime(k, n)
    right = pow(k, n2, n1) == k % n1 and pow(k, n1, n2) == k % n2
    return left, right


def check_T2(k: int, n1: int, n2: int) -> ClaimResult:
    """The biconditional itself: the two sides of t2_sides must agree.

    n1 and n2 must be distinct odd primes coprime to k.  2 is rejected
    because an even product can never be a pseudoprime (they are odd by
    definition) while the right-hand divisibilities can still hold, so
    the biconditional is only a theorem over odd factors.
    """
    _require_base_and_primes(k, n1, n2)
    if 2 in (n1, n2):
        raise ValueError("factors must be odd primes; even products are never pseudoprimes")
    n = n1 * n2
    g = gcd(k, n)
    if g != 1:
        raise ValueError(f"base must be coprime to n1*n2, gcd({k}, {n}) = {g}")
    return _t2(ClaimId.T2, _params(k=k, n1=n1, n2=n2), k, n1, n2)


def check_R24_27(k: int, n1: int, n2: int) -> ClaimResult:
    """For a two-prime pseudoprime n = n1*n2: n | k**n1 - k, n | k**n2 - k,
    and n, n1, n2 each divide k**|n1 - n2| - 1."""
    _require_base_and_primes(k, n1, n2)
    params = _params(k=k, n1=n1, n2=n2)
    return _gated(ClaimId.R24_27, params, k, n1 * n2, _r24_27, n1, n2)


def check_GA28_32(k: int, n1: int, n2: int, r: int) -> ClaimResult:
    """Telescoped prime powers: n1 | k**(n1**r) - k, n1 | k**|n1**r - n2| - 1,
    and n2 | k**|n2**r - n1| - 1.

    Absolute values keep the exponents positive whichever factor is
    larger; a zero exponent is degenerate.
    """
    _require_base_and_primes(k, n1, n2)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    params = _params(k=k, n1=n1, n2=n2, r=r)
    return _gated(ClaimId.GA28_32, params, k, n1 * n2, _ga28_32, n1, n2, r)


def check_GB33_35(k: int, n1: int, n2: int, r: int) -> ClaimResult:
    """n | k**(r*(ni - 1)) - 1 for i = 1, 2."""
    _require_base_and_primes(k, n1, n2)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    params = _params(k=k, n1=n1, n2=n2, r=r)
    return _gated(ClaimId.GB33_35, params, k, n1 * n2, _gb33_35, n1, n2, r)


def check_EC36_38(k: int, n1: int, n2: int) -> ClaimResult:
    """n | k**(n1 + n2 - 2) - 1, and independently n | k**phi(n) - 1
    using the two-distinct-prime product rule phi(n) = n1*n2 - n1 - n2 + 1."""
    _require_base_and_primes(k, n1, n2)
    params = _params(k=k, n1=n1, n2=n2)
    return _gated(ClaimId.EC36_38, params, k, n1 * n2, _ec36_38, n1, n2)


def check_GC39_42(k: int, n1: int, n2: int, r: int, s: int) -> ClaimResult:
    """n | k**e - 1 with e = r*n1 + s*n2 - (r + s).

    r and s range over all integers; tuples with e <= 0 fall outside the
    identity's domain and come back degenerate.  This is check_GE43 with
    q = p = 1 under its own claim id.
    """
    _require_base_and_primes(k, n1, n2)
    params = _params(k=k, n1=n1, n2=n2, r=r, s=s)
    return _gated(ClaimId.GC39_42, params, k, n1 * n2, _ge43, n1, n2, r, s, 1, 1)


def check_GE43(
    k: int, n1: int, n2: int, r: int, s: int, q: int, p: int
) -> ClaimResult:
    """n | k**e - 1 with e = r*n1**q + s*n2**p - (r + s); q, p >= 1.

    With q = p = 1 this specializes to check_GC39_42.
    """
    _require_base_and_primes(k, n1, n2)
    if q < 1 or p < 1:
        raise ValueError(f"q and p must be >= 1, got q={q}, p={p}")
    params = _params(k=k, n1=n1, n2=n2, r=r, s=s, q=q, p=p)
    return _gated(ClaimId.GE43, params, k, n1 * n2, _ge43, n1, n2, r, s, q, p)


def check_TP44_47(k: int, n1: int, n2: int, n3: int) -> ClaimResult:
    """For a three-prime pseudoprime n = n1*n2*n3, the six-term sum
    k**(n1*n2) + k**(n1*n3) + k**(n2*n3) - k**n1 - k**n2 - k**n3
    is divisible by n and by each ni."""
    _require_base_and_primes(k, n1, n2, n3)
    params = _params(k=k, n1=n1, n2=n2, n3=n3)
    return _gated(ClaimId.TP44_47, params, k, n1 * n2 * n3, _tp44_47, n1, n2, n3)


def check_TP48_58(k: int, n1: int, n2: int, n3: int) -> ClaimResult:
    """Each factor divides the complementary power difference:
    n1 | k**|n2*n3 - n1| - 1, n2 | k**|n1*n3 - n2| - 1, n3 | k**|n1*n2 - n3| - 1.

    Absolute values cover the orderings where a product is smaller than
    the remaining factor; a zero exponent is degenerate.  This is
    check_TP59_61 with m = j = 1 under its own claim id.
    """
    _require_base_and_primes(k, n1, n2, n3)
    params = _params(k=k, n1=n1, n2=n2, n3=n3)
    return _gated(ClaimId.TP48_58, params, k, n1 * n2 * n3, _tp59_61, n1, n2, n3, 1, 1)


def check_TP59_61(
    k: int, n1: int, n2: int, n3: int, m: int, j: int
) -> ClaimResult:
    """Scaled rotations of check_TP48_58:
    ni | k**(j*|nj*nl - ni**m|) - 1 for the three rotations, any m, j >= 1.

    With m = j = 1 this specializes to check_TP48_58.
    """
    _require_base_and_primes(k, n1, n2, n3)
    if m < 1 or j < 1:
        raise ValueError(f"m and j must be >= 1, got m={m}, j={j}")
    params = _params(k=k, n1=n1, n2=n2, n3=n3, m=m, j=j)
    return _gated(ClaimId.TP59_61, params, k, n1 * n2 * n3, _tp59_61, n1, n2, n3, m, j)


@dataclass(frozen=True)
class SweepConfig:
    """Parameter ranges for a verification sweep.

    bases are the k values; pseudoprimes are enumerated up to max_n;
    r and s range over [rs_min, rs_max] where a claim admits them
    (claims requiring r >= 1 clamp the lower end); q, p, m and j range
    over [1, qpmj_max].
    """

    bases: tuple[int, ...] = (2,)
    max_n: int = 1000
    rs_min: int = -3
    rs_max: int = 3
    qpmj_max: int = 3
    claims: tuple[ClaimId, ...] = ALL_CLAIMS

    def __post_init__(self) -> None:
        if not self.bases:
            raise ValueError("need at least one base")
        if any(b < 2 for b in self.bases):
            raise ValueError(f"bases must be > 1, got {self.bases}")
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")
        if self.rs_min > self.rs_max:
            raise ValueError("rs_min must not exceed rs_max")
        if self.qpmj_max < 1:
            raise ValueError(f"qpmj_max must be >= 1, got {self.qpmj_max}")
        unknown = set(self.claims) - set(ALL_CLAIMS)
        if unknown:
            raise ValueError(f"unknown claims: {unknown}")
        object.__setattr__(self, "bases", tuple(sorted(set(self.bases))))
        wanted = set(self.claims)
        object.__setattr__(
            self, "claims", tuple(c for c in ALL_CLAIMS if c in wanted)
        )


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate of one sweep: per-claim verdict tallies plus all failures."""

    config: SweepConfig
    total: int
    tallies: dict[ClaimId, dict[Verdict, int]]
    failures: tuple[ClaimResult, ...]

    @property
    def failure_count(self) -> int:
        return len(self.failures)


def _pseudoprime_families(
    base: int, max_n: int
) -> tuple[list[int], list[tuple[int, tuple[int, ...]]], list[tuple[int, tuple[int, ...]]]]:
    """Base-`base` pseudoprimes up to max_n: all of them, then the
    squarefree two-prime and three-prime ones with their factors."""
    if max_n < 2:
        return [], [], []
    every = enumerate_pseudoprimes(base, max_n)
    two: list[tuple[int, tuple[int, ...]]] = []
    three: list[tuple[int, tuple[int, ...]]] = []
    for n in every:
        f = factorize(n)
        if not f.is_squarefree:
            continue
        if len(f.factors) == 2:
            two.append((n, f.primes))
        elif len(f.factors) == 3:
            three.append((n, f.primes))
    return every, two, three


def _odd_semiprimes(max_n: int) -> list[tuple[int, int, int]]:
    """(n, p, q) for every n = p*q <= max_n with 2 < p < q prime, by n."""
    if max_n < 15:
        return []
    primes = primes_up_to(max_n // 3)
    out = []
    for i, p in enumerate(primes):
        if p == 2:
            continue
        if p > isqrt(max_n):
            break
        for q in primes[i + 1 :]:
            if p * q > max_n:
                break
            out.append((p * q, p, q))
    out.sort()
    return out


def iter_suite(config: SweepConfig, threads: int = 1) -> Iterator[ClaimResult]:
    """Evaluate every parameter tuple in range, each as it is generated,
    yielding results in canonical order: claim, then base, then n, then
    auxiliary parameters.

    The tuples come from pseudoprimes the sweep enumerated and factored
    itself and from sieved primes, so they go straight to the kernels
    without the public checks' validation.  Evaluation is single-threaded
    (it is CPU-bound under the interpreter lock): threads must be >= 1
    and is otherwise ignored.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # T2 draws its tuples from semiprimes; only the other claims read families
    needs_families = any(c is not ClaimId.T2 for c in config.claims)
    families = {
        b: _pseudoprime_families(b, config.max_n) if needs_families else ([], [], [])
        for b in config.bases
    }
    semiprimes = (
        _odd_semiprimes(config.max_n) if ClaimId.T2 in config.claims else []
    )
    rs_range = range(config.rs_min, config.rs_max + 1)
    pos_r = range(max(1, config.rs_min), config.rs_max + 1)
    qpmj = range(1, config.qpmj_max + 1)

    for claim in config.claims:
        for k in config.bases:
            every, two, three = families[k]
            if claim is ClaimId.T1:
                for n in every:
                    yield _t1(claim, _params(k=k, n=n), k, n)
            elif claim is ClaimId.T2:
                for n, p, q in semiprimes:
                    params = _params(k=k, n1=p, n2=q)
                    if gcd(k, n) == 1:
                        yield _t2(claim, params, k, p, q)
                    else:
                        yield ClaimResult(claim, params, Verdict.NOT_APPLICABLE)
            elif claim is ClaimId.R24_27:
                for _, (p, q) in two:
                    yield _r24_27(claim, _params(k=k, n1=p, n2=q), k, p, q)
            elif claim is ClaimId.GA28_32:
                # not symmetric in (n1, n2): sweep both orderings
                for _, (p, q) in two:
                    for (n1, n2), r in product(((p, q), (q, p)), pos_r):
                        yield _ga28_32(claim, _params(k=k, n1=n1, n2=n2, r=r), k, n1, n2, r)
            elif claim is ClaimId.GB33_35:
                for _, (p, q) in two:
                    for r in pos_r:
                        yield _gb33_35(claim, _params(k=k, n1=p, n2=q, r=r), k, p, q, r)
            elif claim is ClaimId.EC36_38:
                for _, (p, q) in two:
                    yield _ec36_38(claim, _params(k=k, n1=p, n2=q), k, p, q)
            elif claim is ClaimId.GC39_42:
                for _, (p, q) in two:
                    for r, s in product(rs_range, repeat=2):
                        params = _params(k=k, n1=p, n2=q, r=r, s=s)
                        yield _ge43(claim, params, k, p, q, r, s, 1, 1)
            elif claim is ClaimId.GE43:
                for _, (p, q) in two:
                    for r, s, qq, pp in product(rs_range, rs_range, qpmj, qpmj):
                        params = _params(k=k, n1=p, n2=q, r=r, s=s, q=qq, p=pp)
                        yield _ge43(claim, params, k, p, q, r, s, qq, pp)
            elif claim is ClaimId.TP44_47:
                for _, (p, q, t) in three:
                    yield _tp44_47(claim, _params(k=k, n1=p, n2=q, n3=t), k, p, q, t)
            elif claim is ClaimId.TP48_58:
                for _, (p, q, t) in three:
                    yield _tp59_61(claim, _params(k=k, n1=p, n2=q, n3=t), k, p, q, t, 1, 1)
            elif claim is ClaimId.TP59_61:
                for _, (p, q, t) in three:
                    for m, j in product(qpmj, repeat=2):
                        params = _params(k=k, n1=p, n2=q, n3=t, m=m, j=j)
                        yield _tp59_61(claim, params, k, p, q, t, m, j)


def run_suite(config: SweepConfig, threads: int = 1) -> SuiteReport:
    """Run the sweep and aggregate per-claim tallies plus the failure list.

    threads is passed to iter_suite: validated, and otherwise ignored.
    """
    tallies = {c: {v: 0 for v in Verdict} for c in config.claims}
    failures: list[ClaimResult] = []
    total = 0
    for result in iter_suite(config, threads=threads):
        total += 1
        tallies[result.claim][result.verdict] += 1
        if result.verdict is Verdict.FAILS:
            failures.append(result)
    return SuiteReport(
        config=config, total=total, tallies=tallies, failures=tuple(failures)
    )
