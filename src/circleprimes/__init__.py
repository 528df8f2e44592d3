"""Exact circle-map orbit counting and pseudoprime identity verification.

The multiply-by-k circle map keeps the rational angles with denominator
k**n - 1 to themselves, so its periodic structure is pure integer
arithmetic.  This package enumerates and counts those orbits exactly,
searches for Fermat pseudoprimes and Carmichael numbers, and verifies a
family of divisibility identities tying the two together.
"""

from .arith import (
    Factorization,
    divisors,
    factorize,
    is_prime,
    moebius,
    primes_up_to,
    totient,
)
from .circlemap import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_MODULUS_BIT_BUDGET,
    InvariantViolation,
    LatticePoint,
    OrbitSummary,
    PeriodicLattice,
    PeriodSpectrum,
    ResourceLimitError,
    count_exact_period,
    enumerate_orbits,
    exact_period,
    fixed_points,
    make_lattice,
    orbit_count,
    period_spectrum,
    pi_mod,
)
from .claims import (
    ALL_CLAIMS,
    CLAIM_DESCRIPTIONS,
    ClaimId,
    ClaimResult,
    SuiteReport,
    SweepConfig,
    Verdict,
    check_EC36_38,
    check_GA28_32,
    check_GB33_35,
    check_GC39_42,
    check_GE43,
    check_R24_27,
    check_T1,
    check_T2,
    check_TP44_47,
    check_TP48_58,
    check_TP59_61,
    iter_suite,
    run_suite,
    t2_sides,
)
from .pseudoprimes import (
    enumerate_pseudoprimes,
    euler_theorem_check,
    is_carmichael,
    is_pseudoprime,
)

__version__ = "0.1.0"
