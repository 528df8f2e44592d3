"""Machine-checkable divisibility identities for factored pseudoprimes.

Every identity is evaluated entirely in modular arithmetic: "the quotient
is a natural number" becomes "the residue is zero", so exponents in the
thousands cost O(log e) multiplications and no big integers are formed.

Checks report a verdict instead of raising on data-dependent conditions:

* ``holds`` / ``fails`` - the identity was evaluated; a failure carries a
  witness (the offending residue).
* ``degenerate`` - an exponent evaluated to zero or below, which is
  outside the identity's stated domain (k**0 - 1 = 0 is divisible by
  everything and would silently mask range errors).  Only GC39_42 and
  GE43 can reach it, through r or s below 1.
* ``not_applicable`` - the pseudoprime precondition is unmet, reported
  separately from ``fails`` so sweeps need no pre-filtering.

Structurally invalid inputs (a non-prime factor, repeated factors, a base
below 2, an auxiliary parameter outside its domain) raise ValueError.

Each claim is one registry row: where its factor tuples come from, its
auxiliary parameters with their domains, and a private kernel that only
computes.  The public ``check_*`` functions validate their inputs and the
pseudoprime precondition from the row, then call the kernel.  The sweep
trusts its own construction (pseudoprimes from enumerate_pseudoprimes,
factors from factorize, semiprimes from sieved primes), so its one loop
calls the kernels directly.  iter_suite makes a ClaimResult of each
outcome, run_suite only of a failure, and verify --records of none.
ClaimResult and SuiteReport are named tuples; nothing checks a hand-built one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import product, repeat, starmap
from math import gcd, isqrt, prod
from typing import Callable, Iterator, NamedTuple

from .arith import _odd_primes, factorize, is_prime
from .circlemap import pi_mod
from .pseudoprimes import enumerate_pseudoprimes, is_pseudoprime

__all__ = [
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


class ClaimResult(NamedTuple):
    """Outcome of one identity check on one tuple; nothing checks a hand-built one."""

    claim: ClaimId
    params: tuple[tuple[str, int], ...]
    verdict: Verdict
    witness: str | None = None

    def as_record(self) -> dict[str, str]:
        """Flat serialization: claim_id, params as key=value, verdict, witness."""
        return {
            "claim_id": self.claim.value,
            "params": " ".join(f"{name}={value}" for name, value in self.params),
            "verdict": self.verdict.value,
            "witness": self.witness or "",
        }


def _require_base_and_primes(k: int, *ns: int) -> None:
    """A base above 1 and distinct prime factors, or ValueError."""
    if k < 2:
        raise ValueError(f"base must be > 1, got {k}")
    for p in ns:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if len(set(ns)) != len(ns):
        raise ValueError(f"prime factors must be distinct, got {ns}")


def _power_witness(k: int, e: int, d: int, c: int = 1) -> str | None:
    """Witness if d does not divide k**e - c, else None."""
    r = (pow(k, e, d) - c) % d
    return None if r == 0 else f"{k}**{e} - {c} = {r} (mod {d})"


def _result(claim: ClaimId, names, args, outcome: Verdict | str | None) -> ClaimResult:
    """The result of a kernel's outcome on args (named by names): a verdict
    it settled itself, the witness of a failed divisibility, or None when
    every one holds."""
    params = tuple(zip(names, args))
    if outcome is None:
        return ClaimResult(claim, params, Verdict.HOLDS)
    if isinstance(outcome, Verdict):
        return ClaimResult(claim, params, outcome)
    return ClaimResult(claim, params, Verdict.FAILS, witness=outcome)


# Kernels: each takes integers that already satisfy its claim's
# preconditions (a base above 1, distinct prime factors whose product is
# a base-k pseudoprime, auxiliary parameters in their domain) and returns
# the witness of the first divisibility that fails, None when all hold, or
# a verdict for a tuple outside the identity's domain: DEGENERATE from
# _ge43, NOT_APPLICABLE from _t2.


def _t1(k: int, n: int) -> str | None:
    r = (pow(k, n, n) - k - pi_mod(k, n, n)) % n
    return None if r == 0 else f"{k}**{n} - {k} - pi_{n} = {r} (mod {n})"


def _t2(k: int, n1: int, n2: int) -> Verdict | str | None:
    # T2 has no pseudoprime precondition: n1*n2 is any odd semiprime
    n = n1 * n2
    if gcd(k, n) != 1:
        return Verdict.NOT_APPLICABLE
    # n is an odd composite coprime to k, so the Fermat congruence alone
    # decides whether it is a pseudoprime
    left = pow(k, n - 1, n) == 1
    right = pow(k, n2, n1) == k % n1 and pow(k, n1, n2) == k % n2
    return None if left == right else f"pseudoprime={left} but cross-divisibilities={right}"


def _r24_27(k: int, n1: int, n2: int) -> str | None:
    n = n1 * n2
    # n1 and n2 divide n, so their k**|n1 - n2| - 1 clauses follow from n's
    return (
        _power_witness(k, n1, n, k) or _power_witness(k, n2, n, k)
        or _power_witness(k, abs(n1 - n2), n)
    )


def _ga28_32(k: int, n1: int, n2: int, r: int) -> str | None:
    # no exponent is zero: of two distinct primes neither is a power of the other
    return (
        _power_witness(k, n1**r, n1, k) or _power_witness(k, abs(n1**r - n2), n1)
        or _power_witness(k, abs(n2**r - n1), n2)
    )


def _gb33_35(k: int, n1: int, n2: int, r: int) -> str | None:
    n = n1 * n2
    return _power_witness(k, r * (n1 - 1), n) or _power_witness(k, r * (n2 - 1), n)


def _ec36_38(k: int, n1: int, n2: int) -> str | None:
    n = n1 * n2
    phi = n1 * n2 - n1 - n2 + 1
    return _power_witness(k, n1 + n2 - 2, n) or _power_witness(k, phi, n)


def _ge43(
    k: int, n1: int, n2: int, r: int, s: int, q: int = 1, p: int = 1
) -> Verdict | str | None:
    # with the default q = p = 1 this is the GC39_42 kernel
    e = r * n1**q + s * n2**p - (r + s)
    if e <= 0:
        return Verdict.DEGENERATE
    return _power_witness(k, e, n1 * n2)


def _tp44_47(k: int, n1: int, n2: int, n3: int) -> str | None:
    n = n1 * n2 * n3
    # each ni divides n, so the sum's residue mod n settles the ni clauses too
    r = (
        pow(k, n1 * n2, n) + pow(k, n1 * n3, n) + pow(k, n2 * n3, n)
        - pow(k, n1, n) - pow(k, n2, n) - pow(k, n3, n)
    ) % n
    return None if r == 0 else f"six-term power sum = {r} (mod {n})"


def _tp59_61(k: int, n1: int, n2: int, n3: int, m: int = 1, j: int = 1) -> str | None:
    # with the default m = j = 1 this is the TP48_58 kernel; no exponent is
    # zero, as unique factorization rules out ni**m = nj*nl for distinct primes
    return (
        _power_witness(k, j * abs(n2 * n3 - n1**m), n1)
        or _power_witness(k, j * abs(n1 * n3 - n2**m), n2)
        or _power_witness(k, j * abs(n1 * n2 - n3**m), n3)
    )


class _Row(NamedTuple):
    source: str
    aux: tuple[tuple[str, str], ...]
    kernel: Callable[..., Verdict | str | None]


# A row's source names where the sweep draws its factor tuples and what
# they are called in params: every base-k pseudoprime n, the odd
# semiprimes n1 < n2 (for every base), and the squarefree two-prime
# (once, or in both orders) and three-prime pseudoprimes.
_FACTOR_NAMES: dict[str, tuple[str, ...]] = {
    "every": ("n",),
    "semiprimes": ("n1", "n2"),
    "two": ("n1", "n2"),
    "two_both_orders": ("n1", "n2"),
    "three": ("n1", "n2", "n3"),
}

# Auxiliary parameters are (name, domain): "rs" is any integer (swept over
# rs_min..rs_max), "rs>=1" the same range clamped to >= 1, and "qpmj" is
# 1..qpmj_max.  Only "rs" admits values below 1.
_REGISTRY: dict[ClaimId, _Row] = {
    ClaimId.T1: _Row("every", (), _t1),
    ClaimId.T2: _Row("semiprimes", (), _t2),
    ClaimId.R24_27: _Row("two", (), _r24_27),
    # not symmetric in (n1, n2)
    ClaimId.GA28_32: _Row("two_both_orders", (("r", "rs>=1"),), _ga28_32),
    ClaimId.GB33_35: _Row("two", (("r", "rs>=1"),), _gb33_35),
    ClaimId.EC36_38: _Row("two", (), _ec36_38),
    ClaimId.GC39_42: _Row("two", (("r", "rs"), ("s", "rs")), _ge43),
    ClaimId.GE43: _Row(
        "two", (("r", "rs"), ("s", "rs"), ("q", "qpmj"), ("p", "qpmj")), _ge43
    ),
    ClaimId.TP44_47: _Row("three", (), _tp44_47),
    ClaimId.TP48_58: _Row("three", (), _tp59_61),
    ClaimId.TP59_61: _Row("three", (("m", "qpmj"), ("j", "qpmj")), _tp59_61),
}


def _check(claim: ClaimId, k: int, *args: int) -> ClaimResult:
    """A factor-based public check: validate the base, the distinct primes
    and the auxiliary domains from the claim's row, then evaluate its
    kernel if the primes' product is a base-k pseudoprime."""
    source, aux, kernel = _REGISTRY[claim]
    names = _FACTOR_NAMES[source]
    primes = args[: len(names)]
    _require_base_and_primes(k, *primes)
    for (name, domain), value in zip(aux, args[len(names) :]):
        if domain != "rs" and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    names = ("k", *names, *(name for name, _ in aux))
    outcome = kernel(k, *args) if is_pseudoprime(k, prod(primes)) else Verdict.NOT_APPLICABLE
    return _result(claim, names, (k, *args), outcome)


def check_T1(k: int, n: int) -> ClaimResult:
    """n | k**n - k - pi_n, where pi_n counts the exact-period-n points.

    Applicable to any base-k pseudoprime n; evaluated with pi_mod so n
    around a few hundred needs no multi-hundred-bit integers.  k > 1 and
    n >= 2 are checked by is_pseudoprime.
    """
    outcome = _t1(k, n) if is_pseudoprime(k, n) else Verdict.NOT_APPLICABLE
    return _result(ClaimId.T1, ("k", "n"), (k, n), outcome)


def check_T2(k: int, n1: int, n2: int) -> ClaimResult:
    """n1*n2 is a base-k pseudoprime iff n1 | k**n2 - k and n2 | k**n1 - k.

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
    return _result(ClaimId.T2, ("k", "n1", "n2"), (k, n1, n2), _t2(k, n1, n2))


def check_R24_27(k: int, n1: int, n2: int) -> ClaimResult:
    """For a two-prime pseudoprime n = n1*n2: n | k**n1 - k, n | k**n2 - k,
    and n, n1, n2 each divide k**|n1 - n2| - 1."""
    return _check(ClaimId.R24_27, k, n1, n2)


def check_GA28_32(k: int, n1: int, n2: int, r: int) -> ClaimResult:
    """Telescoped prime powers: n1 | k**(n1**r) - k, n1 | k**|n1**r - n2| - 1,
    and n2 | k**|n2**r - n1| - 1.

    Absolute values keep the exponents positive whichever factor is
    larger; none is zero for distinct primes, so no tuple is degenerate.
    """
    return _check(ClaimId.GA28_32, k, n1, n2, r)


def check_GB33_35(k: int, n1: int, n2: int, r: int) -> ClaimResult:
    """n | k**(r*(ni - 1)) - 1 for i = 1, 2."""
    return _check(ClaimId.GB33_35, k, n1, n2, r)


def check_EC36_38(k: int, n1: int, n2: int) -> ClaimResult:
    """n | k**(n1 + n2 - 2) - 1, and independently n | k**phi(n) - 1
    using the two-distinct-prime product rule phi(n) = n1*n2 - n1 - n2 + 1."""
    return _check(ClaimId.EC36_38, k, n1, n2)


def check_GC39_42(k: int, n1: int, n2: int, r: int, s: int) -> ClaimResult:
    """n | k**e - 1 with e = r*n1 + s*n2 - (r + s).

    r and s range over all integers; tuples with e <= 0 fall outside the
    identity's domain and come back degenerate.  This is check_GE43 with
    q = p = 1 under its own claim id.
    """
    return _check(ClaimId.GC39_42, k, n1, n2, r, s)


def check_GE43(
    k: int, n1: int, n2: int, r: int, s: int, q: int, p: int
) -> ClaimResult:
    """n | k**e - 1 with e = r*n1**q + s*n2**p - (r + s); q, p >= 1.

    With q = p = 1 this specializes to check_GC39_42.
    """
    return _check(ClaimId.GE43, k, n1, n2, r, s, q, p)


def check_TP44_47(k: int, n1: int, n2: int, n3: int) -> ClaimResult:
    """For a three-prime pseudoprime n = n1*n2*n3, the six-term sum
    k**(n1*n2) + k**(n1*n3) + k**(n2*n3) - k**n1 - k**n2 - k**n3
    is divisible by n and by each ni."""
    return _check(ClaimId.TP44_47, k, n1, n2, n3)


def check_TP48_58(k: int, n1: int, n2: int, n3: int) -> ClaimResult:
    """Each factor divides the complementary power difference:
    n1 | k**|n2*n3 - n1| - 1, n2 | k**|n1*n3 - n2| - 1, n3 | k**|n1*n2 - n3| - 1.

    Absolute values cover the orderings where a product is smaller than
    the remaining factor; none is zero for distinct primes, so no tuple is
    degenerate.  This is check_TP59_61 with m = j = 1 under its own claim id.
    """
    return _check(ClaimId.TP48_58, k, n1, n2, n3)


def check_TP59_61(
    k: int, n1: int, n2: int, n3: int, m: int, j: int
) -> ClaimResult:
    """Scaled rotations of check_TP48_58:
    ni | k**(j*|nj*nl - ni**m|) - 1 for the three rotations, any m, j >= 1.

    With m = j = 1 this specializes to check_TP48_58.
    """
    return _check(ClaimId.TP59_61, k, n1, n2, n3, m, j)


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
    claims: tuple[ClaimId, ...] = tuple(ClaimId)

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
        unknown = set(self.claims) - set(ClaimId)
        if unknown:
            raise ValueError(f"unknown claims: {unknown}")
        object.__setattr__(self, "bases", tuple(sorted(set(self.bases))))
        wanted = set(self.claims)
        object.__setattr__(
            self, "claims", tuple(c for c in ClaimId if c in wanted)
        )


class SuiteReport(NamedTuple):
    """Aggregate of one sweep: per-claim verdict tallies plus all failures.
    Nothing checks a hand-built one against its tallies."""

    tallies: dict[ClaimId, dict[Verdict, int]]
    failures: tuple[ClaimResult, ...]

    @property
    def total(self) -> int:
        return sum(sum(counts.values()) for counts in self.tallies.values())

    @property
    def failure_count(self) -> int:
        return len(self.failures)


def _pseudoprime_families(base: int, max_n: int) -> dict[str, list[tuple[int, ...]]]:
    """Base-`base` pseudoprimes up to max_n as the factor tuples of each
    pseudoprime source in _FACTOR_NAMES."""
    every = enumerate_pseudoprimes(base, max_n) if max_n >= 2 else []
    unzipped = (zip(*factorize(n)) for n in every)
    squarefree = [primes for primes, exponents in unzipped if max(exponents) == 1]
    two = [ps for ps in squarefree if len(ps) == 2]
    return {
        "every": [(n,) for n in every],
        "two": two,
        "two_both_orders": [pair for p, q in two for pair in ((p, q), (q, p))],
        "three": [ps for ps in squarefree if len(ps) == 3],
    }


def _odd_semiprimes(max_n: int) -> list[tuple[int, int]]:
    """(p, q) for every p*q <= max_n with 2 < p < q prime, by product."""
    primes = list(_odd_primes(max_n // 3))
    out = []
    for i, p in enumerate(primes):
        if p > isqrt(max_n):
            break
        # the q with p < q <= max_n // p, without copying the primes above them
        out += zip(repeat(p), primes[i + 1 : bisect_right(primes, max_n // p)])
    out.sort(key=prod)
    return out


def _outcomes(config: SweepConfig) -> Iterator[tuple]:
    """The one sweep loop: (claim, param names, args, kernel outcome) per
    tuple in canonical order: claim, then base, then n, then auxiliary
    parameters."""
    rows = [(claim, _REGISTRY[claim]) for claim in config.claims]
    sources = {row.source for _, row in rows}
    # pseudoprimes are enumerated only for claims that read them (not T2)
    families = {
        b: _pseudoprime_families(b, config.max_n) if sources - {"semiprimes"} else {}
        for b in config.bases
    }
    semiprimes = _odd_semiprimes(config.max_n) if "semiprimes" in sources else []
    domains = {
        "rs": range(config.rs_min, config.rs_max + 1),
        "rs>=1": range(max(1, config.rs_min), config.rs_max + 1),
        "qpmj": range(1, config.qpmj_max + 1),
    }
    for claim, (source, aux, kernel) in rows:
        names = ("k", *_FACTOR_NAMES[source], *(name for name, _ in aux))
        # a fresh product per factor tuple: no table of (rs range)**2 * qpmj_max**2 tails
        ranges = [domains[domain] for _, domain in aux]
        for k in config.bases:
            for factors in semiprimes if source == "semiprimes" else families[k][source]:
                head = (k, *factors)
                for tail in product(*ranges):
                    args = head + tail
                    yield claim, names, args, kernel(*args)


def iter_suite(config: SweepConfig) -> Iterator[ClaimResult]:
    """One ClaimResult per tuple in range, lazily, in canonical order, from
    one thread: evaluation is CPU-bound under the interpreter lock."""
    return starmap(_result, _outcomes(config))


def run_suite(config: SweepConfig, threads: int = 1) -> SuiteReport:
    """The per-claim tallies and the failures of iter_suite's results,
    counted from the kernel outcomes with a ClaimResult built only for a
    failure.  threads must be >= 1 and is otherwise ignored, as the sweep
    runs on one thread; it stays for callers that still pass it."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # per claim, counts in Verdict order: holds, fails, degenerate, not applicable
    counts = {claim: [0, 0, 0, 0] for claim in config.claims}
    failures: list[ClaimResult] = []
    current = tally = None
    for claim, names, args, outcome in _outcomes(config):
        if claim is not current:
            current, tally = claim, counts[claim]
        if outcome is None:
            tally[0] += 1
        elif outcome is Verdict.DEGENERATE:
            tally[2] += 1
        elif outcome is Verdict.NOT_APPLICABLE:
            tally[3] += 1
        else:
            # kernels return no other verdict, so this is a witness
            tally[1] += 1
            failures.append(_result(claim, names, args, outcome))
    tallies = {claim: dict(zip(Verdict, c)) for claim, c in counts.items()}
    return SuiteReport(tallies, tuple(failures))
