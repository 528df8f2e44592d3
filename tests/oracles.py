"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and shares no code with the
library: repeated multiplication instead of fast powering, trial division
instead of witness tests, step-by-step map iteration instead of divisor
criteria.  Slow is fine; independent is the point.  The one exception is
lucas_is_prime, for numbers too large for trial division: it uses the
built-in three-argument pow, but proves every answer with a Fermat
witness, a factor, or a Lucas certificate.
"""

from math import gcd, isqrt


def naive_mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus by plain repeated multiplication."""
    acc = 1 % modulus
    for _ in range(exponent):
        acc = acc * base % modulus
    return acc


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
