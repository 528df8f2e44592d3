"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and shares no code with the
library: repeated multiplication instead of fast powering, trial division
instead of witness tests, step-by-step map iteration instead of divisor
criteria.  Slow is fine; independent is the point.  Two exceptions use
the built-in three-argument pow.  lucas_is_prime, for numbers too large
for trial division, proves every answer with a Fermat witness, a factor,
or a Lucas certificate.  naive_is_pseudoprime and naive_claim_verdict,
whose exponents reach n1**3, evaluate each claim from its stated formula
rather than from the library's kernels.
"""

from math import gcd, isqrt, prod


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_sieve(limit: int) -> bytearray:
    """sieve[i] == 1 iff i is prime, for 0 <= i <= limit."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return sieve


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def trial_factor(n: int) -> list[int]:
    """Prime factors with multiplicity, ascending."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def naive_moebius(n: int) -> int:
    fs = trial_factor(n)
    if len(fs) != len(set(fs)):
        return 0
    return -1 if len(fs) % 2 else 1


def naive_totient(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def iterate_cycle(k: int, modulus: int, start: int) -> list[int]:
    """The cycle of start under j -> k*j mod modulus, by pure iteration."""
    cycle = [start]
    j = start * k % modulus
    while j != start:
        cycle.append(j)
        j = j * k % modulus
    return cycle


def naive_orbit_partition(k: int, n: int) -> list[list[int]]:
    """All cycles of j -> k*j on {0, ..., k**n - 2}, by iterating the map."""
    modulus = k**n - 1
    seen = set()
    orbits = []
    for j in range(modulus):
        if j in seen:
            continue
        cycle = iterate_cycle(k, modulus, j)
        seen.update(cycle)
        orbits.append(cycle)
    return orbits


def naive_exact_period(k: int, n: int, j: int) -> int:
    """Least number of map steps returning j to itself."""
    modulus = k**n - 1
    steps = 1
    x = j * k % modulus
    while x != j:
        x = x * k % modulus
        steps += 1
    return steps


def naive_multiplicative_order(k: int, p: int) -> int:
    """Least d >= 1 with k**d == 1 (mod prime p), by repeated multiplication."""
    if k % p == 0:
        raise ValueError(f"{p} divides {k}: no power of it is 1 mod {p}")
    acc, d = k % p, 1
    while acc != 1:
        acc = acc * k % p
        d += 1
    return d


def naive_pseudoprime_sweep(k: int, limit: int) -> list[int]:
    """Base-k pseudoprimes up to limit using only naive building blocks."""
    hits = []
    for n in range(3, limit + 1, 2):
        if trial_division_is_prime(n):
            continue
        if gcd(k, n) != 1:
            continue
        # k is a unit mod n, so its powers return to 1 after ord(k) steps,
        # and k**(n-1) == 1 (mod n) exactly when ord(k) divides n - 1
        acc, order = k % n, 1
        while acc != 1:
            acc = acc * k % n
            order += 1
        if (n - 1) % order == 0:
            hits.append(n)
    return hits


_TRIAL_PRIME_LIMIT = 10**10


def lucas_is_prime(n: int) -> bool:
    """Exact primality with a certificate rather than a witness set.

    Trial division settles n below 10**10.  Above it a Fermat witness,
    a**(n-1) != 1 (mod n), or a factor found by rho proves n composite,
    and Lucas's theorem proves it prime: some a has a**(n-1) == 1 while
    a**((n-1)/q) != 1 for every prime q dividing n - 1.  Those q come
    from rho_factor, which certifies each of them with this same
    function.
    """
    if n < _TRIAL_PRIME_LIMIT:
        return trial_division_is_prime(n)
    if pow(2, n - 1, n) != 1:
        return False
    qs = set(rho_factor(n - 1))
    for a in range(2, 1000):
        if pow(a, n - 1, n) != 1:
            return False
        if all(pow(a, (n - 1) // q, n) != 1 for q in qs):
            return True
    # every base below 1000 passes Fermat, yet none has order n - 1:
    # a Carmichael-like composite, which rho splits (or this raises)
    rho_split(n)
    return False


def rho_split(n: int) -> int:
    """A proper factor of the odd composite n, by Floyd's cycle-finding rho."""
    for c in range(1, 100):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def rho_factor(n: int) -> list[int]:
    """Prime factors of n >= 2 with multiplicity, ascending: trial
    division below 10**5, then rho_split on the rest."""
    out = []
    d = 2
    while d < 10**5 and d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if lucas_is_prime(m):
            out.append(m)
        else:
            f = rho_split(m)
            stack += [f, m // f]
    return sorted(out)


def naive_is_pseudoprime(k: int, n: int) -> bool:
    """Odd composite n, coprime to k, with k**(n-1) == 1 (mod n)."""
    return (
        n % 2 == 1 and n > 1 and not trial_division_is_prime(n)
        and gcd(k, n) == 1 and pow(k, n - 1, n) == 1
    )


def naive_claim_verdict(claim: str, k: int, *args: int) -> str:
    """The verdict ("holds", "fails", "degenerate" or "not_applicable") of
    the claim with this id on base k and the arguments of its public
    check, evaluated from the identity as stated.

    T2 is decided for every odd semiprime coprime to k (not_applicable
    otherwise).  Every other claim is not_applicable unless n (T1's
    argument, or the product of the primes) is a base-k pseudoprime, and
    degenerate when an exponent leaves the identity's domain: zero for
    GA28_32, TP48_58 and TP59_61, zero or negative for GC39_42 and GE43.
    """
    if claim == "T2":
        n1, n2 = args
        if gcd(k, n1 * n2) != 1:
            return "not_applicable"
        left = naive_is_pseudoprime(k, n1 * n2)
        right = (pow(k, n2, n1) - k) % n1 == 0 and (pow(k, n1, n2) - k) % n2 == 0
        return "holds" if left == right else "fails"

    def divides(d: int, e: int, c: int = 1) -> bool:
        """d | k**e - c"""
        return (pow(k, e, d) - c) % d == 0

    if claim == "T1":
        (n,) = args
    else:
        arity = 3 if claim.startswith("TP") else 2
        primes, aux = args[:arity], args[arity:]
        n = prod(primes)
    if not naive_is_pseudoprime(k, n):
        return "not_applicable"

    if claim == "T1":
        # pi_n by Moebius inversion of the k**d - 1 points of period dividing d
        pi = sum(naive_moebius(n // d) * (pow(k, d, n) - 1) for d in brute_divisors(n))
        tests = [divides(n, n, k + pi)]
    elif claim == "R24_27":
        n1, n2 = primes
        e = abs(n1 - n2)
        tests = [divides(n, n1, k), divides(n, n2, k), divides(n, e), divides(n1, e), divides(n2, e)]
    elif claim == "GA28_32":
        (n1, n2), (r,) = primes, aux
        e1, e2 = abs(n1**r - n2), abs(n2**r - n1)
        if e1 == 0 or e2 == 0:
            return "degenerate"
        tests = [divides(n1, n1**r, k), divides(n1, e1), divides(n2, e2)]
    elif claim == "GB33_35":
        (n1, n2), (r,) = primes, aux
        tests = [divides(n, r * (n1 - 1)), divides(n, r * (n2 - 1))]
    elif claim == "EC36_38":
        n1, n2 = primes
        tests = [divides(n, n1 + n2 - 2), divides(n, naive_totient(n))]
    elif claim in ("GC39_42", "GE43"):
        n1, n2 = primes
        r, s, q, p = aux if claim == "GE43" else (*aux, 1, 1)
        e = r * n1**q + s * n2**p - (r + s)
        if e <= 0:
            return "degenerate"
        tests = [divides(n, e)]
    elif claim == "TP44_47":
        n1, n2, n3 = primes
        tests = [
            (pow(k, n1 * n2, d) + pow(k, n1 * n3, d) + pow(k, n2 * n3, d)
             - pow(k, n1, d) - pow(k, n2, d) - pow(k, n3, d)) % d == 0
            for d in (n, n1, n2, n3)
        ]
    elif claim in ("TP48_58", "TP59_61"):
        n1, n2, n3 = primes
        m, j = aux if claim == "TP59_61" else (1, 1)
        rotations = [(n1, n2 * n3), (n2, n1 * n3), (n3, n1 * n2)]
        exponents = [j * abs(rest - ni**m) for ni, rest in rotations]
        if 0 in exponents:
            return "degenerate"
        tests = [divides(ni, e) for (ni, _), e in zip(rotations, exponents)]
    else:
        raise ValueError(f"unknown claim {claim!r}")
    return "holds" if all(tests) else "fails"
