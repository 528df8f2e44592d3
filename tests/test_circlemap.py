import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from circleprimes.arith import divisors
from circleprimes.circlemap import (
    InvariantViolation,
    OrbitSummary,
    PeriodicLattice,
    ResourceLimitError,
    _FIXED_POINTS_CAP,
    _moebius_divisors,
    count_exact_period,
    enumerate_orbits,
    exact_period,
    fixed_points,
    make_lattice,
    orbit_count,
    period_spectrum,
    pi_mod,
)
from oracles import brute_divisors, naive_exact_period, naive_moebius, naive_orbit_partition


class TestFixedPoints:
    def test_examples(self):
        assert list(fixed_points(2)) == [(0, 1)]
        assert list(fixed_points(3)) == [(0, 2), (1, 2)]
        assert list(fixed_points(5)) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_count_is_k_minus_one(self):
        for k in range(2, 51):
            assert len(list(fixed_points(k))) == k - 1

    def test_rejects_k_below_two(self):
        for k in (1, 0, -3):
            with pytest.raises(ValueError):
                fixed_points(k)

    def test_over_the_cap_refused_before_any_point(self):
        # the cap bounds time, not memory: the points are yielded one at a
        # time, yet the refusal comes at the call, before any point exists
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"cap of {_FIXED_POINTS_CAP}$"):
                fixed_points(_FIXED_POINTS_CAP + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        with pytest.raises(ResourceLimitError, match=f"cap of {_FIXED_POINTS_CAP}$"):
            fixed_points(10**30)

    def test_at_the_cap_lists(self):
        # the call builds no point, and the points are counted as they come:
        # a list of them would take about 128 MB
        tracemalloc.start()
        try:
            points = fixed_points(_FIXED_POINTS_CAP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        for count, last in enumerate(points, 1):
            pass
        assert count == _FIXED_POINTS_CAP - 1
        assert last == (_FIXED_POINTS_CAP - 2, _FIXED_POINTS_CAP - 1)


class TestMakeLattice:
    def test_examples(self):
        assert make_lattice(2, 4).modulus == 15
        assert make_lattice(3, 2).modulus == 8
        assert make_lattice(2, 1).modulus == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_lattice(1, 4)
        with pytest.raises(ValueError):
            make_lattice(2, 0)

    def test_bit_budget(self):
        with pytest.raises(ResourceLimitError) as err:
            make_lattice(2, 10**7)
        assert "4194304" in str(err.value)

    def test_direct_construction_sets_modulus(self):
        assert PeriodicLattice(2, 4) == make_lattice(2, 4)
        assert PeriodicLattice(2, 4).modulus == 15
        with pytest.raises(TypeError):
            PeriodicLattice(2, 4, 15)

    def test_direct_construction_checks_budget_before_modulus(self):
        # 3**(10**7) would take seconds to build
        with pytest.raises(ResourceLimitError) as err:
            PeriodicLattice(3, 10**7)
        assert "4194304" in str(err.value)

    def test_point_bounds(self):
        lat = make_lattice(2, 4)
        assert exact_period(lat, 0) == 1
        assert exact_period(lat, 14) == 4
        with pytest.raises(ValueError, match=r"index 15 outside \[0, 15\)"):
            exact_period(lat, 15)
        with pytest.raises(ValueError, match=r"index -1 outside \[0, 15\)"):
            exact_period(lat, -1)


class TestStep:
    """The map step j -> k*j mod (k**n - 1), as OrbitSummary.members takes it."""

    def test_examples(self):
        lat = make_lattice(2, 4)
        assert OrbitSummary(3, 4, lat).members == (3, 6, 12, 9)
        assert OrbitSummary(0, 1, lat).members == (0,)
        lat32 = make_lattice(3, 2)
        assert OrbitSummary(4, 1, lat32).members == (4,)  # the theta = half-turn fixed point

    def test_stays_on_lattice(self):
        lat = make_lattice(5, 3)
        for orbit in enumerate_orbits(lat):
            assert all(0 <= j < lat.modulus for j in orbit.members)


class TestExactPeriod:
    def test_examples(self):
        lat = make_lattice(2, 4)
        assert exact_period(lat, 3) == 4
        assert exact_period(lat, 5) == 2
        assert exact_period(lat, 0) == 1

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 2), (3, 4), (5, 2), (2, 12), (7, 3)])
    def test_agrees_with_map_iteration(self, k, n):
        lat = make_lattice(k, n)
        for j in range(lat.modulus):
            assert exact_period(lat, j) == naive_exact_period(k, n, j)

    def test_divides_n(self):
        for k, n in [(2, 12), (3, 8), (6, 4)]:
            lat = make_lattice(k, n)
            for j in range(lat.modulus):
                assert n % exact_period(lat, j) == 0


class TestEnumerateOrbits:
    def test_period_census_examples(self):
        by_period = Counter(o.period for o in enumerate_orbits(make_lattice(2, 4)))
        assert by_period == {1: 1, 2: 1, 4: 3}
        by_period = Counter(o.period for o in enumerate_orbits(make_lattice(3, 2)))
        assert by_period == {1: 2, 2: 3}
        assert [o.members for o in enumerate_orbits(make_lattice(2, 1))] == [(0,)]

    def test_partition_matches_iteration_oracle(self):
        for k in range(2, 6):
            for n in range(1, 7):
                got = {frozenset(o.members) for o in enumerate_orbits(make_lattice(k, n))}
                want = {frozenset(c) for c in naive_orbit_partition(k, n)}
                assert got == want, (k, n)

    def test_every_small_lattice_matches_iteration_oracle(self):
        # representatives, periods, members and their order, on every
        # lattice with 2 <= k <= 32 and k**n <= 2**15
        lattices = [(k, n) for k in range(2, 33) for n in range(1, 16) if k**n <= 2**15]
        assert len(lattices) == 129
        for k, n in lattices:
            lat = make_lattice(k, n)
            orbits = list(enumerate_orbits(lat))
            cycles = naive_orbit_partition(k, n)
            assert orbits == [OrbitSummary(c[0], len(c), lat) for c in cycles], (k, n)
            assert [o.members for o in orbits] == [tuple(c) for c in cycles], (k, n)

    def test_orbit_well_formedness(self):
        for k, n in [(2, 6), (3, 4), (4, 3), (10, 2)]:
            lat = make_lattice(k, n)
            seen: set[int] = set()
            previous_rep = -1
            for orbit in enumerate_orbits(lat):
                assert orbit.representative == min(orbit.members)
                assert orbit.representative > previous_rep  # sorted output
                previous_rep = orbit.representative
                assert len(orbit.members) == orbit.period
                # closed under the map, in iteration order
                for a, b in zip(orbit.members, orbit.members[1:]):
                    assert a * lat.k % lat.modulus == b
                assert orbit.members[-1] * lat.k % lat.modulus == orbit.members[0]
                for member in orbit.members:
                    assert exact_period(lat, member) == orbit.period
                seen.update(orbit.members)
            assert seen == set(range(lat.modulus))

    def test_is_its_own_iterator(self):
        orbits = enumerate_orbits(make_lattice(2, 4))
        assert iter(orbits) is orbits
        assert next(orbits).representative == 0

    def test_memory_is_flat(self):
        lat = make_lattice(2, 16)  # 4,115 orbits
        tracemalloc.start()
        try:
            for _ in enumerate_orbits(lat):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_first_orbits_at_the_cap_come_at_once(self):
        # 2**26 orbits of one point each: a list of them would take gigabytes
        orbits = islice(enumerate_orbits(make_lattice(2**26 + 1, 1)), 3)
        assert [(o.representative, o.period) for o in orbits] == [(0, 1), (1, 1), (2, 1)]

    def test_cap_exceeded_names_cap(self):
        orbits = enumerate_orbits(make_lattice(2, 27))
        with pytest.raises(ResourceLimitError) as err:
            next(orbits)
        assert "67108864" in str(err.value) and "134217727" in str(err.value)


class TestCountExactPeriod:
    def test_examples(self):
        assert count_exact_period(2, 4) == 12
        assert count_exact_period(2, 6) == 54  # 2**6 - 2**3 - 2**2 + 2
        assert count_exact_period(2, 1) == 1

    def test_prime_period_is_k_pow_n_minus_k(self):
        for n in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for k in range(2, 11):
                assert count_exact_period(k, n) == k**n - k

    def test_counts_match_enumeration(self):
        for k in range(2, 6):
            for n in range(1, 8):
                if k**n - 1 > 4096:
                    continue
                by_period = Counter()
                for orbit in enumerate_orbits(make_lattice(k, n)):
                    by_period[orbit.period] += orbit.period
                for d in divisors(n):
                    assert by_period.get(d, 0) == count_exact_period(k, d), (k, n, d)

    def test_partition_sum(self):
        # per-divisor counts partition the full lattice
        for k in range(2, 9):
            for n in range(1, 13):
                total = sum(count_exact_period(k, d) for d in divisors(n))
                assert total == k**n - 1, (k, n)

    def test_bit_budget(self):
        with pytest.raises(ResourceLimitError) as err:
            count_exact_period(2, 10**7)
        assert "4194304" in str(err.value)

    def test_decimal_round_trip(self):
        # arbitrary-precision counts survive the string round trip exactly
        value = count_exact_period(2, 341)
        assert int(str(value)) == value
        assert value.bit_length() > 300


class TestOrbitCount:
    def test_examples(self):
        assert orbit_count(2, 4) == 3
        assert orbit_count(2, 6) == 9
        assert orbit_count(3, 5) == 48  # (3**5 - 3) / 5

    def test_times_n_recovers_count(self):
        for k in range(2, 7):
            for n in range(1, 11):
                assert orbit_count(k, n) * n == count_exact_period(k, n)


class TestPiMod:
    def test_examples(self):
        assert pi_mod(2, 341, 341) == 0
        assert pi_mod(2, 4, 5) == 2
        assert pi_mod(2, 1, 7) == 1

    def test_matches_exact_count(self):
        moduli = (1, 2, 3, 5, 7, 341, 1000)
        for k in range(2, 7):
            for n in range(1, 11):
                exact = count_exact_period(k, n)
                for m in moduli:
                    assert pi_mod(k, n, m) == exact % m

    def test_gauss_congruence(self):
        for k in range(2, 13):
            for n in range(1, 17):
                assert pi_mod(k, n, n) == 0, (k, n)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            pi_mod(2, 4, 0)
        with pytest.raises(ValueError):
            pi_mod(1, 4, 5)
        with pytest.raises(ValueError):
            pi_mod(2, 0, 5)


class TestMoebiusPath:
    @seed(20170401)
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=600), st.data())
    def test_agrees_with_naive_moebius_sum_property(self, k, n, data):
        exact = sum(naive_moebius(n // d) * (k**d - 1) for d in brute_divisors(n))
        assert count_exact_period(k, n) == exact
        for m in (n, 1, 97, 2**61 - 1):
            assert pi_mod(k, n, m) == exact % m
        # a point of the period-d sublattice, so short periods come up too
        d = data.draw(st.sampled_from(brute_divisors(n)))
        lat = make_lattice(k, n)
        j = data.draw(st.integers(min_value=0, max_value=k**d - 2)) * (lat.modulus // (k**d - 1))
        assert exact_period(lat, j) == naive_exact_period(k, n, j)


class TestMoebiusMemo:
    """pi_mod and count_exact_period read the Moebius divisors of an n below
    2**20 from a bounded memo, and compute those of a larger n afresh."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _moebius_divisors.cache_clear()
        yield
        _moebius_divisors.cache_clear()

    @staticmethod
    def naive_terms(n):
        return [(naive_moebius(n // d), d) for d in brute_divisors(n)]

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 97, 360, 1001, 510510])
    def test_cold_and_warm_agree_with_naive_sum(self, n):
        # 510510 = 2*3*5*7*11*13*17 has the most primes of any n below 2**20
        terms = self.naive_terms(n)
        for _ in range(2):  # the first pass fills the memo, the second reads it
            for k in (2, 3, 10):
                if n <= 1001:  # 128 exact powers up to 10**510510 take seconds
                    assert count_exact_period(k, n) == sum(mu * (k**d - 1) for mu, d in terms)
                for m in (n, 97, 2**61 - 1):
                    expected = sum(mu * (pow(k, d, m) - 1) for mu, d in terms) % m
                    assert pi_mod(k, n, m) == expected, (k, n, m)
        info = _moebius_divisors.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (4096, 1, 1)

    def test_n_from_the_bound_up_is_not_memoised(self):
        # 9699690 = 2*3*5*...*19: 256 Moebius divisors, one prime more than
        # any n below 2**20 has
        n = 9699690
        terms = self.naive_terms(n)
        for k in (2, 3, 40):
            for m in (n, 97, 2**61 - 1):
                expected = sum(mu * (pow(k, d, m) - 1) for mu, d in terms) % m
                assert pi_mod(k, n, m) == expected, (k, m)
        assert pi_mod(2, 1 << 20, 1 << 20) == 0
        assert count_exact_period(2, 1 << 20) == 2 ** (1 << 20) - 2 ** (1 << 19)
        assert _moebius_divisors.cache_info().currsize == 0
        assert pi_mod(2, (1 << 20) - 1, (1 << 20) - 1) == 0
        assert _moebius_divisors.cache_info().currsize == 1


class TestPeriodSpectrum:
    def test_example_2_4(self):
        spectrum = period_spectrum(2, 4)
        assert type(spectrum) is dict
        assert spectrum == {1: (1, 1), 2: (2, 1), 4: (12, 3)}

    def test_example_2_6(self):
        assert period_spectrum(2, 6)[6] == (54, 9)

    def test_example_3_1(self):
        assert period_spectrum(3, 1) == {1: (2, 2)}

    def test_matches_naive_moebius_counts(self):
        for k in range(2, 6):
            for n in (1, 8, 12, 30, 36, 64, 90, 210):
                want = {}
                for d in brute_divisors(n):
                    pts = sum(naive_moebius(d // e) * (k**e - 1) for e in brute_divisors(d))
                    want[d] = (pts, pts // d)
                assert period_spectrum(k, n) == want, (k, n)

    def test_fixed_point_row_always_k_minus_one(self):
        for k in range(2, 8):
            for n in range(1, 9):
                assert period_spectrum(k, n)[1] == (k - 1, k - 1)


class TestFixedPointEmbedding:
    def test_fixed_points_embed_in_every_lattice(self):
        # the k-1 fixed points sit at j*(k**n - 1)/(k - 1) on the period-n lattice
        for k in range(2, 7):
            for n in range(1, 6):
                lat = make_lattice(k, n)
                spacing = lat.modulus // (k - 1)
                fixed = [
                    j for j in range(lat.modulus)
                    if j * lat.k % lat.modulus == j
                ]
                assert fixed == [j * spacing for j in range(k - 1)]
                assert len(fixed) == k - 1
