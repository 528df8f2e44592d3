import inspect
import threading
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import gcd

import pytest
from oracles import (
    naive_claim_verdict,
    naive_is_pseudoprime,
    naive_pseudoprime_sweep,
    trial_division_is_prime,
    trial_factor,
)

import circleprimes.claims as claims
from circleprimes.arith import factorize, primes_up_to
from circleprimes.circlemap import pi_mod
from circleprimes.claims import (
    ClaimId,
    ClaimResult,
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
)
from circleprimes.pseudoprimes import enumerate_pseudoprimes

ORACLE_BASES = (2, 3, 4, 5, 6, 7)
ORACLE_LIMIT = 3000


@pytest.fixture(scope="module")
def oracle_families():
    """Per base in ORACLE_BASES: the base-k pseudoprimes up to ORACLE_LIMIT,
    then the squarefree two-prime and three-prime ones as factor tuples,
    from the oracles alone."""
    families = {}
    for k in ORACLE_BASES:
        every = naive_pseudoprime_sweep(k, ORACLE_LIMIT)
        factored = [tuple(trial_factor(n)) for n in every]
        families[k] = (
            every,
            [f for f in factored if len(set(f)) == len(f) == 2],
            [f for f in factored if len(set(f)) == len(f) == 3],
        )
    return families


def same_outcome(a: ClaimResult, b: ClaimResult) -> bool:
    return (a.verdict, a.witness) == (b.verdict, b.witness)


def t2_sides(k: int, n1: int, n2: int) -> tuple[bool, bool]:
    """The two sides of T2's biconditional, from the oracle and plain pow:
    n1*n2 is a base-k pseudoprime; n1 | k**n2 - k and n2 | k**n1 - k."""
    left = naive_is_pseudoprime(k, n1 * n2)
    right = (pow(k, n2) - k) % n1 == 0 and (pow(k, n1) - k) % n2 == 0
    return left, right


def tallies_of(results, claim_ids) -> dict:
    """Per-claim verdict counts of results, shaped like SuiteReport.tallies."""
    counted = Counter((result.claim, result.verdict) for result in results)
    return {claim: {v: counted[claim, v] for v in Verdict} for claim in claim_ids}


class TestClaimResult:
    def test_record_serialization(self):
        result = ClaimResult(
            ClaimId.T2, (("k", 2), ("n1", 11), ("n2", 31)), Verdict.HOLDS
        )
        assert result.as_record() == {
            "claim_id": "T2",
            "params": "k=2 n1=11 n2=31",
            "verdict": "holds",
            "witness": "",
        }


class TestT1:
    def test_base2_examples(self):
        assert check_T1(2, 341).verdict is Verdict.HOLDS
        assert check_T1(2, 561).verdict is Verdict.HOLDS

    def test_not_applicable_when_not_pseudoprime(self):
        result = check_T1(3, 341)
        assert result.verdict is Verdict.NOT_APPLICABLE
        assert result.witness is None

    def test_holds_for_every_base2_pseudoprime_below_2000(self):
        for n in enumerate_pseudoprimes(2, 2000):
            assert check_T1(2, n).verdict is Verdict.HOLDS


class TestT2:
    def test_both_sides_true(self):
        result = check_T2(2, 11, 31)
        assert result.verdict is Verdict.HOLDS
        assert t2_sides(2, 11, 31) == (True, True)

    def test_both_sides_false(self):
        assert check_T2(2, 3, 5).verdict is Verdict.HOLDS
        assert t2_sides(2, 3, 5) == (False, False)

    def test_2047_is_pseudoprime(self):
        assert check_T2(2, 23, 89).verdict is Verdict.HOLDS
        assert t2_sides(2, 23, 89) == (True, True)

    def test_rejects_composite_factor(self):
        with pytest.raises(ValueError):
            check_T2(2, 9, 11)

    def test_rejects_equal_factors(self):
        with pytest.raises(ValueError):
            check_T2(2, 11, 11)

    def test_rejects_shared_base_factor(self):
        with pytest.raises(ValueError):
            check_T2(3, 3, 11)

    def test_rejects_factor_two(self):
        # 7**3 - 7 is even and 3 | 7**2 - 7, yet 42 is not a pseudoprime:
        # the biconditional is only a theorem over odd factors
        with pytest.raises(ValueError):
            check_T2(7, 2, 3)

    def test_exhaustive_agreement_below_2000(self):
        primes = [p for p in primes_up_to(700) if p > 2]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                n = p * q
                if n > 2000:
                    break
                for k in range(2, 21):
                    if gcd(k, n) != 1:
                        continue
                    assert check_T2(k, p, q).verdict is Verdict.HOLDS, (k, p, q)

    def test_both_true_cases_are_exactly_the_semiprime_pseudoprimes(self):
        limit = 3000
        semiprime_pseudoprimes = [
            n for n in enumerate_pseudoprimes(2, limit)
            if tuple(e for _, e in factorize(n)) == (1, 1)
        ]
        both_true = []
        primes = [p for p in primes_up_to(limit // 3) if p > 2]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                n = p * q
                if n > limit:
                    break
                if gcd(2, n) == 1 and t2_sides(2, p, q) == (True, True):
                    assert check_T2(2, p, q).verdict is Verdict.HOLDS, (p, q)
                    both_true.append(n)
        assert sorted(both_true) == semiprime_pseudoprimes


class TestR24_27:
    def test_341_instance_with_hand_value(self):
        assert check_R24_27(2, 31, 11).verdict is Verdict.HOLDS
        # the |n1 - n2| = 20 instance, checked by direct division
        assert 2**20 - 1 == 341 * 3075

    def test_2047_and_1387(self):
        assert check_R24_27(2, 89, 23).verdict is Verdict.HOLDS
        assert check_R24_27(2, 73, 19).verdict is Verdict.HOLDS

    def test_order_independent(self):
        assert check_R24_27(2, 11, 31).verdict is Verdict.HOLDS

    def test_not_applicable(self):
        assert check_R24_27(2, 3, 5).verdict is Verdict.NOT_APPLICABLE


class TestGA28_32:
    def test_r2_instance(self):
        # 11 | 2**121 - 2 and 11 | 2**90 - 1 via 2**10 == 1 mod 11
        assert check_GA28_32(2, 11, 31, 2).verdict is Verdict.HOLDS

    def test_r1_collapses_to_difference_form(self):
        assert check_GA28_32(2, 11, 31, 1).verdict is Verdict.HOLDS

    def test_r3_swapped_order(self):
        assert check_GA28_32(2, 31, 11, 3).verdict is Verdict.HOLDS

    def test_rejects_r_below_one(self):
        with pytest.raises(ValueError):
            check_GA28_32(2, 11, 31, 0)

    def test_not_applicable(self):
        assert check_GA28_32(3, 11, 31, 2).verdict is Verdict.NOT_APPLICABLE


class TestGB33_35:
    def test_r1_hand_value(self):
        assert check_GB33_35(2, 11, 31, 1).verdict is Verdict.HOLDS
        assert 2**10 - 1 == 3 * 341

    def test_r7(self):
        assert check_GB33_35(2, 11, 31, 7).verdict is Verdict.HOLDS

    def test_2047_r2(self):
        assert check_GB33_35(2, 23, 89, 2).verdict is Verdict.HOLDS


class TestEC36_38:
    def test_341_both_routes(self):
        # exponent 40 route and totient (= 300) route together
        assert check_EC36_38(2, 11, 31).verdict is Verdict.HOLDS

    def test_2701(self):
        assert check_EC36_38(2, 37, 73).verdict is Verdict.HOLDS


class TestGC39_42:
    def test_unit_coefficients(self):
        assert check_GC39_42(2, 11, 31, 1, 1).verdict is Verdict.HOLDS

    def test_zero_exponent_is_degenerate(self):
        # 3*11 - 31 - 2 = 0
        result = check_GC39_42(2, 11, 31, 3, -1)
        assert result.verdict is Verdict.DEGENERATE
        assert check_GC39_42(2, 11, 31, 0, 0).verdict is Verdict.DEGENERATE

    def test_negative_s_with_positive_exponent(self):
        # e = 44 - 31 - 3 = 10 and 2**10 - 1 = 1023 = 3*341
        assert check_GC39_42(2, 11, 31, 4, -1).verdict is Verdict.HOLDS
        assert 2**10 - 1 == 3 * 341

    def test_negative_exponent_is_degenerate(self):
        assert check_GC39_42(2, 11, 31, -1, 0).verdict is Verdict.DEGENERATE


class TestGE43:
    def test_examples(self):
        # e = 121 + 31 - 2 = 150, a multiple of the order of 2 mod 341
        assert check_GE43(2, 11, 31, 1, 1, 2, 1).verdict is Verdict.HOLDS
        # e = 242 + 961 - 3 = 1200
        assert check_GE43(2, 11, 31, 2, 1, 2, 2).verdict is Verdict.HOLDS

    def test_specializes_to_gc_at_unit_powers(self, oracle_families):
        # every two-prime pseudoprime to 3000 in bases 2..7, 341 = 11*31 and
        # base-3 91 = 7*13 among them; verdict and witness must agree
        for k, (_, two, _) in oracle_families.items():
            for n1, n2 in two:
                for r in range(-3, 4):
                    for s in range(-3, 4):
                        ge = check_GE43(k, n1, n2, r, s, 1, 1)
                        gc = check_GC39_42(k, n1, n2, r, s)
                        assert same_outcome(ge, gc), (k, n1, n2, r, s)

    def test_rejects_bad_powers(self):
        with pytest.raises(ValueError):
            check_GE43(2, 11, 31, 1, 1, 0, 1)


class TestTP44_47:
    def test_carmichael_561(self):
        assert check_TP44_47(2, 3, 11, 17).verdict is Verdict.HOLDS

    def test_1105_and_1729(self):
        assert check_TP44_47(2, 5, 13, 17).verdict is Verdict.HOLDS
        assert check_TP44_47(2, 7, 13, 19).verdict is Verdict.HOLDS

    def test_not_applicable(self):
        assert check_TP44_47(2, 3, 5, 7).verdict is Verdict.NOT_APPLICABLE


KERNEL_BASES = range(2, 8)
KERNEL_PAIRS = list(combinations(filter(trial_division_is_prime, range(3, 100, 2)), 2))
KERNEL_TRIPLES = list(combinations(filter(trial_division_is_prime, range(3, 40, 2)), 3))


class TestKernelsModN:
    # the R24_27 and TP44_47 kernels check only modulus n, since each ni
    # divides n; called without the pseudoprime gate, most tuples fail, and
    # every clause as stated is computed here with built-in pow alone

    def test_r24_27_fails_exactly_when_a_clause_fails(self):
        kernel = claims._REGISTRY[ClaimId.R24_27].kernel
        outcomes = set()
        for k, (n1, n2) in product(KERNEL_BASES, KERNEL_PAIRS):
            n, e = n1 * n2, abs(n1 - n2)
            clauses = [(n1, n, k), (n2, n, k), (e, n, 1), (e, n1, 1), (e, n2, 1)]
            residues = [(x, d, c, (pow(k, x, d) - c) % d) for x, d, c in clauses]
            witness = kernel(k, n1, n2)
            outcomes.add(witness is None)
            assert (witness is not None) == any(r for *_, r in residues), (k, n1, n2)
            if witness is not None:
                mod_n = {f"{k}**{x} - {c} = {r} (mod {d})" for x, d, c, r in residues if d == n and r}
                assert witness in mod_n, (k, n1, n2, witness)
        assert outcomes == {True, False}

    def test_tp44_47_fails_exactly_when_a_clause_fails(self):
        kernel = claims._REGISTRY[ClaimId.TP44_47].kernel
        outcomes = set()
        for k, (n1, n2, n3) in product(KERNEL_BASES, KERNEL_TRIPLES):
            n = n1 * n2 * n3
            residues = {
                d: (
                    pow(k, n1 * n2, d) + pow(k, n1 * n3, d) + pow(k, n2 * n3, d)
                    - pow(k, n1, d) - pow(k, n2, d) - pow(k, n3, d)
                ) % d
                for d in (n, n1, n2, n3)
            }
            witness = kernel(k, n1, n2, n3)
            outcomes.add(witness is None)
            assert (witness is not None) == any(residues.values()), (k, n1, n2, n3)
            if witness is not None:
                assert witness == f"six-term power sum = {residues[n]} (mod {n})"
        assert outcomes == {True, False}


class TestTP48_58:
    def test_561_with_hand_value(self):
        assert check_TP48_58(2, 3, 11, 17).verdict is Verdict.HOLDS
        # the 17-rotation exponent is |3*11 - 17| = 16: 2**16 - 1 = 17*3855
        assert 2**16 - 1 == 17 * 3855

    def test_other_three_factor_pseudoprimes(self):
        assert check_TP48_58(2, 3, 5, 43).verdict is Verdict.HOLDS  # 645
        assert check_TP48_58(2, 5, 13, 17).verdict is Verdict.HOLDS  # 1105


class TestTP59_61:
    def test_specializes_to_tp48_at_unit_parameters(self, oracle_families):
        # every three-prime pseudoprime to 3000 in bases 2..7 (561, 1105,
        # 1729 among them); verdict and witness must agree
        for k, (_, _, three) in oracle_families.items():
            for primes in three:
                tp59 = check_TP59_61(k, *primes, 1, 1)
                assert same_outcome(tp59, check_TP48_58(k, *primes)), (k, primes)

    def test_examples(self):
        assert check_TP59_61(2, 3, 11, 17, 2, 3).verdict is Verdict.HOLDS
        assert check_TP59_61(2, 5, 13, 17, 2, 2).verdict is Verdict.HOLDS

    def test_rejects_bad_m_j(self):
        with pytest.raises(ValueError):
            check_TP59_61(2, 3, 11, 17, 0, 1)


class TestDecompositionIdentity:
    def test_three_factor_split_under_any_modulus(self):
        # k**n - k = pi_n + sum of pairwise pi + sum of single pi
        cases = [(3, 11, 17), (5, 13, 17), (7, 13, 19), (3, 5, 43)]
        moduli = (7, 341, 561, 1000, 10**9 + 7)
        for n1, n2, n3 in cases:
            n = n1 * n2 * n3
            for k in range(2, 7):
                for m in moduli:
                    left = (pow(k, n, m) - k) % m
                    right = (
                        pi_mod(k, n, m)
                        + pi_mod(k, n1 * n2, m) + pi_mod(k, n1 * n3, m)
                        + pi_mod(k, n2 * n3, m)
                        + pi_mod(k, n1, m) + pi_mod(k, n2, m) + pi_mod(k, n3, m)
                    ) % m
                    assert left == right, (k, n1, n2, n3, m)


class TestSweepConfig:
    def test_canonicalizes_bases_and_claims(self):
        config = SweepConfig(bases=(5, 2, 5), claims=(ClaimId.GE43, ClaimId.T1))
        assert config.bases == (2, 5)
        assert config.claims == (ClaimId.T1, ClaimId.GE43)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SweepConfig(bases=())
        with pytest.raises(ValueError):
            SweepConfig(bases=(1,))
        with pytest.raises(ValueError):
            SweepConfig(rs_min=2, rs_max=-2)
        with pytest.raises(ValueError):
            SweepConfig(qpmj_max=0)
        with pytest.raises(ValueError):
            SweepConfig(max_n=0)
        with pytest.raises(ValueError):
            SweepConfig(claims=("T9",))


class TestRunSuite:
    def test_empty_range_empty_report(self):
        report = run_suite(SweepConfig(bases=(2,), max_n=1))
        assert report.total == 0
        assert report.failure_count == 0

    def test_small_sweep_zero_failures(self):
        config = SweepConfig(
            bases=(2, 3), max_n=2000, rs_min=-2, rs_max=2, qpmj_max=2
        )
        report = run_suite(config)
        assert report.failure_count == 0
        assert report.total > 0
        # tallies account for every result
        assert sum(sum(c.values()) for c in report.tallies.values()) == report.total
        # at least one claim of each family actually ran
        for claim in ClaimId:
            assert sum(report.tallies[claim].values()) > 0, claim

    def test_total_and_failure_count_follow_tallies_and_failures(self):
        # the benchmark's seed-0 sweep: bases 2..7 up to 50,000
        report = run_suite(SweepConfig(bases=(2, 3, 4, 5, 6, 7), max_n=50_000))
        assert report.total == sum(map(sum, (c.values() for c in report.tallies.values())))
        assert report.total == 157_107
        assert report.failure_count == len(report.failures) == 0

    def test_t2_only_semiprime_sweep(self):
        report = run_suite(SweepConfig(bases=(2,), max_n=3000, claims=(ClaimId.T2,)))
        assert report.failure_count == 0
        assert set(report.tallies) == {ClaimId.T2}

    def test_t2_only_sweep_enumerates_no_pseudoprimes(self, monkeypatch):
        def refuse(k, limit):
            raise AssertionError("T2 reads no pseudoprime families")

        monkeypatch.setattr(claims, "enumerate_pseudoprimes", refuse)
        results = list(iter_suite(SweepConfig(bases=(2, 3), max_n=3000, claims=(ClaimId.T2,))))
        assert results and all(r.claim is ClaimId.T2 for r in results)

    def test_deterministic_order(self):
        config = SweepConfig(bases=(2,), max_n=700)
        first = list(iter_suite(config))
        second = list(iter_suite(config))
        assert first == second

    def test_threads_do_not_change_results(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("the sweep starts no threads")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        config = SweepConfig(bases=(2, 3), max_n=700)
        assert run_suite(config, threads=1) == run_suite(config, threads=4)
        with pytest.raises(ValueError):
            run_suite(config, threads=0)

    def test_evaluates_one_tuple_per_result(self, monkeypatch):
        evaluated = []
        for claim, row in claims._REGISTRY.items():
            counted = row._replace(
                kernel=lambda *args, kernel=row.kernel: evaluated.append(args) or kernel(*args)
            )
            monkeypatch.setitem(claims._REGISTRY, claim, counted)
        results = iter_suite(SweepConfig(bases=(2, 3), max_n=3000))
        first = next(results)
        assert first.claim is ClaimId.T1 and len(evaluated) == 1
        next(results)
        assert len(evaluated) == 2
        next(iter_suite(SweepConfig(bases=(2,), max_n=3000, claims=(ClaimId.T2,))))
        assert len(evaluated) == 3
        evaluated.clear()
        report = run_suite(SweepConfig(bases=(2, 3), max_n=3000))
        assert report.total > 0 and len(evaluated) == report.total

    @pytest.mark.usefixtures("break_gb33_35")
    def test_failures_and_tallies_match_iter_suite(self):
        config = SweepConfig(bases=(2, 3), max_n=3000)
        results = list(iter_suite(config))
        report = run_suite(config)
        failing = [r for r in results if r.verdict is Verdict.FAILS]
        assert failing and report.failures == tuple(failing)
        assert report.failure_count == len(failing)
        assert report.tallies == tallies_of(results, config.claims)
        assert list(report.tallies) == list(config.claims)
        assert all(list(counts) == list(Verdict) for counts in report.tallies.values())
        assert report.total == len(results)
        gb = report.tallies[ClaimId.GB33_35]
        assert gb[Verdict.NOT_APPLICABLE] and gb[Verdict.DEGENERATE] and gb[Verdict.HOLDS]

    def test_first_row_holds_no_table_of_auxiliary_parameters(self):
        # GE43 sweeps (rs_max - rs_min + 1)**2 * qpmj_max**2 auxiliary tuples
        # per pair, 1.96 million here: a table of them would take about 150 MB
        config = SweepConfig(bases=(2,), max_n=1000, claims=(ClaimId.GE43,), qpmj_max=200)
        results = iter_suite(config)
        tracemalloc.start()
        try:
            first = next(results)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.claim is ClaimId.GE43
        assert peak < 1 << 20

    def test_degenerate_tuples_never_fail(self):
        config = SweepConfig(bases=(2,), max_n=700, rs_min=-3, rs_max=3)
        for result in iter_suite(config):
            if result.verdict is Verdict.DEGENERATE:
                assert result.witness is None
        report = run_suite(config)
        # only r or s below 1 leaves an exponent at 0 or less; for distinct
        # primes no GA28_32, TP48_58 or TP59_61 exponent is ever zero
        degenerate = {c for c, tally in report.tallies.items() if tally[Verdict.DEGENERATE]}
        assert degenerate == {ClaimId.GC39_42, ClaimId.GE43}
        assert report.tallies[ClaimId.TP59_61][Verdict.HOLDS] > 0
        assert report.failure_count == 0


def oracle_suite(families):
    """What iter_suite must yield for bases ORACLE_BASES up to ORACLE_LIMIT
    with the default ranges, in canonical order, from the public checks on
    tuples the oracles built."""
    rs, pos_r, qpmj = range(-3, 4), range(1, 4), range(1, 4)
    semiprimes = []
    for n in range(15, ORACLE_LIMIT + 1, 2):
        f = trial_factor(n)
        if len(f) == 2 and f[0] != f[1]:
            semiprimes.append((n, *f))
    for claim in ClaimId:
        for k in ORACLE_BASES:
            every, two, three = families[k]
            if claim is ClaimId.T1:
                for n in every:
                    yield check_T1(k, n)
            elif claim is ClaimId.T2:
                for n, p, q in semiprimes:
                    if gcd(k, n) == 1:
                        yield check_T2(k, p, q)
                    else:
                        with pytest.raises(ValueError):
                            check_T2(k, p, q)
                        params = (("k", k), ("n1", p), ("n2", q))
                        yield ClaimResult(ClaimId.T2, params, Verdict.NOT_APPLICABLE)
            elif claim is ClaimId.R24_27:
                for p, q in two:
                    yield check_R24_27(k, p, q)
            elif claim is ClaimId.GA28_32:
                for p, q in two:
                    for pair in ((p, q), (q, p)):
                        for r in pos_r:
                            yield check_GA28_32(k, *pair, r)
            elif claim is ClaimId.GB33_35:
                for p, q in two:
                    for r in pos_r:
                        yield check_GB33_35(k, p, q, r)
            elif claim is ClaimId.EC36_38:
                for p, q in two:
                    yield check_EC36_38(k, p, q)
            elif claim is ClaimId.GC39_42:
                for p, q in two:
                    for r in rs:
                        for s in rs:
                            yield check_GC39_42(k, p, q, r, s)
            elif claim is ClaimId.GE43:
                for p, q in two:
                    for r in rs:
                        for s in rs:
                            for qq in qpmj:
                                for pp in qpmj:
                                    yield check_GE43(k, p, q, r, s, qq, pp)
            elif claim is ClaimId.TP44_47:
                for ps in three:
                    yield check_TP44_47(k, *ps)
            elif claim is ClaimId.TP48_58:
                for ps in three:
                    yield check_TP48_58(k, *ps)
            elif claim is ClaimId.TP59_61:
                for ps in three:
                    for m in qpmj:
                        for j in qpmj:
                            yield check_TP59_61(k, *ps, m, j)


class TestSweepOracle:
    def test_sweep_equals_public_checks_on_oracle_tuples(self, oracle_families):
        swept = list(iter_suite(SweepConfig(bases=ORACLE_BASES, max_n=ORACLE_LIMIT)))
        expected = list(oracle_suite(oracle_families))
        assert len(swept) == len(expected)
        for got, want in zip(swept, expected):
            assert got == want
        not_applicable_t2 = [
            r for r in swept if r.claim is ClaimId.T2 and r.verdict is Verdict.NOT_APPLICABLE
        ]
        assert not_applicable_t2  # bases 3..7 share factors with some semiprimes

    def test_run_suite_tallies_equal_public_checks(self, oracle_families):
        # run_suite counts kernel outcomes without reading iter_suite, so it
        # needs its own comparison with the public checks
        report = run_suite(SweepConfig(bases=ORACLE_BASES, max_n=ORACLE_LIMIT))
        expected = list(oracle_suite(oracle_families))
        assert report.tallies == tallies_of(expected, ClaimId)
        assert report.total == len(expected)
        assert report.failures == ()


def plain_ascii(text: str) -> bool:
    """Printable ASCII with no quote, backslash or comma: json.dumps and
    csv.writer write such a string as it is, between quotes for json."""
    return text.isascii() and text.isprintable() and not set(text) & set('"\\,')


class TestRecordText:
    # verify --records writes json and csv rows without an encoder, which
    # is exact only while every params and witness string is plain ASCII

    def test_every_witness_template_is_plain_ascii(self):
        # the kernels validate nothing, so odd non-primes and repeated
        # factors make every identity fail somewhere, T2 included
        domains = {"rs": (-1, 1, 2), "rs>=1": (1, 2), "qpmj": (1, 2)}
        for claim, (source, aux, kernel) in claims._REGISTRY.items():
            witnesses = set()
            arity = len(claims._FACTOR_NAMES[source])
            for k in (2, 3):
                for factors in product((3, 5, 7, 9, 11), repeat=arity):
                    for values in product(*(domains[domain] for _, domain in aux)):
                        outcome = kernel(k, *factors, *values)
                        if isinstance(outcome, str):
                            witnesses.add(outcome)
            assert witnesses, claim
            assert all(plain_ascii(w) for w in witnesses), claim

    def test_every_params_string_is_plain_ascii(self):
        config = SweepConfig(bases=(2, 3), max_n=3000, rs_min=-3, rs_max=3)
        records = [result.as_record() for result in iter_suite(config)]
        assert {record["claim_id"] for record in records} == {c.value for c in ClaimId}
        assert all(plain_ascii(record["params"]) for record in records)


# Each public check with arguments it accepts (base 2; 341 = 11*31 and
# 561 = 3*11*17 are base-2 pseudoprimes), the positions of its arguments
# that must be >= 1 (T1's n must be >= 2) and of the auxiliary parameters
# that take any integer.
PUBLIC_CHECKS = {
    ClaimId.T1: (check_T1, (2, 341), (1,), ()),
    ClaimId.T2: (check_T2, (2, 11, 31), (), ()),
    ClaimId.R24_27: (check_R24_27, (2, 11, 31), (), ()),
    ClaimId.GA28_32: (check_GA28_32, (2, 11, 31, 2), (3,), ()),
    ClaimId.GB33_35: (check_GB33_35, (2, 11, 31, 2), (3,), ()),
    ClaimId.EC36_38: (check_EC36_38, (2, 11, 31), (), ()),
    ClaimId.GC39_42: (check_GC39_42, (2, 11, 31, 1, 1), (), (3, 4)),
    ClaimId.GE43: (check_GE43, (2, 11, 31, 1, 1, 2, 1), (5, 6), (3, 4)),
    ClaimId.TP44_47: (check_TP44_47, (2, 3, 11, 17), (), ()),
    ClaimId.TP48_58: (check_TP48_58, (2, 3, 11, 17), (), ()),
    ClaimId.TP59_61: (check_TP59_61, (2, 3, 11, 17, 2, 3), (4, 5), ()),
}


def replaced(args: tuple, position: int, value: int) -> tuple:
    return args[:position] + (value,) + args[position + 1 :]


class TestVerdictOracle:
    def test_public_checks_match_naive_verdicts(self, oracle_families):
        # every oracle-built tuple with the default ranges, and T2 on every
        # odd semiprime, against each identity evaluated from its formula
        for result in oracle_suite(oracle_families):
            args = [value for _, value in result.params]
            assert result.verdict.value == naive_claim_verdict(result.claim.value, *args), result

    @pytest.mark.parametrize(
        "claim", [c for c in ClaimId if c is not ClaimId.T2], ids=lambda c: c.value
    )
    def test_non_pseudoprimes_are_not_applicable(self, claim):
        check, valid, _, _ = PUBLIC_CHECKS[claim]
        arity = sum(name.startswith("n") for name in inspect.signature(check).parameters)
        # a prime, an odd composite, and products that are base-2 but not
        # base-3 pseudoprimes (341, 561) or not pseudoprimes at all
        cases = [
            (2, (7,)), (2, (15,)), (3, (341,)),
            (2, (7, 13)), (3, (11, 31)), (3, (3, 11)),
            (2, (5, 7, 11)), (3, (3, 11, 17)),
        ]
        for k, factors in cases:
            if len(factors) == arity:
                args = (k, *factors, *valid[1 + arity :])
                assert check(*args).verdict is Verdict.NOT_APPLICABLE, args
                assert naive_claim_verdict(claim.value, *args) == "not_applicable", args


@pytest.mark.parametrize("claim", ClaimId, ids=lambda c: c.value)
def test_public_check_validation(claim):
    check, valid, at_least_one, any_integer = PUBLIC_CHECKS[claim]
    result = check(*valid)
    assert result.claim is claim
    assert [name for name, _ in result.params] == list(inspect.signature(check).parameters)
    assert [value for _, value in result.params] == list(valid)
    with pytest.raises(ValueError):
        check(1, *valid[1:])
    if claim is not ClaimId.T1:  # T1's n is the pseudoprime, not a prime factor
        with pytest.raises(ValueError):
            check(*replaced(valid, 1, 9))
        with pytest.raises(ValueError):
            check(*replaced(valid, 2, valid[1]))
    for position in at_least_one:
        with pytest.raises(ValueError):
            check(*replaced(valid, position, 0))
    for position in any_integer:
        check(*replaced(valid, position, -3))
