import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import circleprimes.claims as claims
import circleprimes.cli as cli
from circleprimes.circlemap import _FIXED_POINTS_CAP
from circleprimes.claims import (
    ClaimId,
    ClaimResult,
    SuiteReport,
    SweepConfig,
    Verdict,
    iter_suite,
    run_suite,
)
from circleprimes.cli import main
from circleprimes.pseudoprimes import is_carmichael


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error_code(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    capsys.readouterr()
    return err.value.code


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


class TestFixedPointsCommand:
    def test_k3_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--k", "3")
        assert code == 0
        assert out.splitlines() == ["0/2 · 2π", "1/2 · 2π"]

    def test_k2_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--k", "2")
        assert code == 0
        assert out.splitlines() == ["0/1 · 2π"]

    def test_k1_usage_error(self, capsys):
        assert usage_error_code(capsys, "fixed-points", "--k", "1") == 2

    @pytest.mark.parametrize("k", [_FIXED_POINTS_CAP + 1, 10**30])
    def test_over_the_cap_refused_before_any_point(self, capsys, k):
        # circlemap.fixed_points refuses k before it builds a point
        code, out, err = run_cli(capsys, "fixed-points", "--k", str(k))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(_FIXED_POINTS_CAP) in err

    def test_at_the_cap_lists(self, capsys, monkeypatch):
        # the CLI adds no cap of its own; the points are stubbed, since their
        # rows take seconds at the cap
        monkeypatch.setattr(cli, "fixed_points", lambda k: [(0, k - 1)])
        code, out, _ = run_cli(capsys, "fixed-points", "--k", str(_FIXED_POINTS_CAP))
        assert (code, out) == (0, f"0/{_FIXED_POINTS_CAP - 1} · 2π\n")

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_rows_are_not_held(self, fmt):
        # neither points nor rows are held: a list of the points alone is
        # about 12.8 MB at k = 10**5, and one of row dicts about 19 MB more
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["fixed-points", "--k", "100000", "--format", fmt]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2e6, peak

    def test_json_csv_numeric_equality(self, capsys):
        _, json_out, _ = run_cli(capsys, "fixed-points", "--k", "5", "--format", "json")
        _, csv_out, _ = run_cli(capsys, "fixed-points", "--k", "5", "--format", "csv")
        json_rows = parse_json_lines(json_out)
        csv_rows = parse_csv(csv_out)
        assert len(json_rows) == len(csv_rows) == 4
        for j, c in zip(json_rows, csv_rows):
            assert j == {key: int(value) for key, value in c.items()}

    @pytest.mark.parametrize("fmt, digest", [
        ((), "3ead12147ac71fa599e29bb9068e1c323ce65cce6906864c60c72af6689eab83"),
        (("--format", "json"), "a26ff1949fdfd58042fc2fe3b06ceb0f5cbd7839304e7a0e5dae83ba4d915887"),
        (("--format", "csv"), "e17222f71c7ed7b1260bed740a994088cdad1976298d0ae4e673173e0c045f96"),
    ])
    def test_fixed_points_golden_digest(self, capsys, fmt, digest):
        # frozen stdout: the six angles 2*pi*j/6 of the map theta -> 7*theta
        code, out, _ = run_cli(capsys, "fixed-points", "--k", "7", *fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSpectrumCommand:
    def test_2_4_rows_and_footer(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--k", "2", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "period 1: 1 points, 1 orbits"
        assert lines[1] == "period 2: 2 points, 1 orbits"
        assert lines[2] == "period 4: 12 points, 3 orbits"
        assert lines[3] == "total 15 points = 2^4 - 1"

    def test_2_6_top_row(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--k", "2", "--n", "6")
        assert "period 6: 54 points, 9 orbits" in out.splitlines()

    def test_3_1_single_row(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--k", "3", "--n", "1")
        assert out.splitlines()[0] == "period 1: 2 points, 2 orbits"

    def test_json_csv_numeric_equality(self, capsys):
        _, json_out, _ = run_cli(capsys, "spectrum", "--k", "2", "--n", "12", "--format", "json")
        _, csv_out, _ = run_cli(capsys, "spectrum", "--k", "2", "--n", "12", "--format", "csv")
        json_rows = parse_json_lines(json_out)
        csv_rows = parse_csv(csv_out)
        assert json_rows and len(json_rows) == len(csv_rows)
        for j, c in zip(json_rows, csv_rows):
            assert j == {key: int(value) for key, value in c.items()}

    def test_resource_cap_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--k", "2", "--n", "99999999")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("k, n, fmt, digest", [
        (2, 360, (), "81c921a963926cf19999983ad0c95c93d363bd897e6e452429d5b5ce87a55b04"),
        (2, 360, ("--format", "json"), "81db9b6beafaf995a5e3cb6061b639e9a8743fc874d35a1654a6f3132a90239a"),
        (2, 360, ("--format", "csv"), "8e885cb909dd6e77e47be839370d2ddccfba54c468a33f80195c4988c026385a"),
        (13, 210, (), "238d922a780ec6b241a73d039ebce54600c1fbcc8824620d833a24d53db6af32"),
        (13, 210, ("--format", "json"), "8e8691dea3eaccc02f81af5b5ddec86cf7e3496a281639b11919823da00a943c"),
        (13, 210, ("--format", "csv"), "26f00025eab128f9feaae6f4329364efe6ba84bfb51ab5cc4eaf35834ed51fe8"),
        (2, 14284, (), "d0025a2204704829c0e9f55cbcddb73ce2062636b8182d725bf77ac39aa2d4bb"),
        (2, 14284, ("--format", "json"), "f9a1014853cef4148ab45ee39f63438dc7fbd7a8fea008548e7fcee1db8acafb"),
        (2, 14284, ("--format", "csv"), "44ebc788e93164b6aed1185bf0c6adf117e755f50fc0abf833cf6f5dbde306a5"),
    ])
    def test_spectrum_golden_digest(self, capsys, k, n, fmt, digest):
        # frozen stdout: the 24 divisors of 360 = 2**3 * 3**2 * 5, the 16 of
        # the squarefree 210 = 2 * 3 * 5 * 7 in base 13, and 2**14284 - 1,
        # which has 4300 digits, the most the default digit limit prints
        code, out, _ = run_cli(capsys, "spectrum", "--k", str(k), "--n", str(n), *fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.fixture
    def digit_limit(self):
        """sys.set_int_max_str_digits, with the limit restored afterwards."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no integer digit limit")
        before = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_digit_limit_refused_before_any_row(self, capsys, digit_limit, fmt):
        # 2**14285 - 1 and the period-14285 points both have 4301 digits;
        # the table used to stop partway through and then exit 2
        digit_limit(4300)
        code, out, err = run_cli(capsys, "spectrum", "--k", "2", "--n", "14285", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4300" in err

    @pytest.mark.parametrize("limit, getter", [(5000, True), (0, True), (0, False)],
                             ids=["raised", "unlimited", "no-getter"])
    def test_digit_limit_lifted_prints(self, capsys, monkeypatch, digit_limit, limit, getter):
        # 0 means no limit, as on an interpreter without one (before 3.10.7)
        digit_limit(limit)
        if not getter:
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        code, out, _ = run_cli(capsys, "spectrum", "--k", "2", "--n", "14285")
        assert code == 0
        assert out.splitlines()[-1] == f"total {2**14285 - 1} points = 2^14285 - 1"


class TestPseudoprimesCommand:
    def test_limit_600(self, capsys):
        code, out, _ = run_cli(capsys, "pseudoprimes", "--base", "2", "--limit", "600")
        assert code == 0
        assert out.splitlines() == ["341 = 11*31", "561 = 3*11*17 [carmichael]"]

    def test_carmichael_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "pseudoprimes", "--base", "2", "--limit", "600", "--carmichael"
        )
        assert code == 0
        assert out.splitlines() == ["561 = 3*11*17 [carmichael]"]

    def test_carmichael_flag_matches_is_carmichael(self, capsys):
        # 121 = 11**2 is a base-3 pseudoprime whose one prime passes 10 | 120,
        # so only the squarefree test keeps it from being flagged
        _, out, _ = run_cli(
            capsys, "pseudoprimes", "--base", "3", "--limit", "2000", "--format", "json"
        )
        rows = parse_json_lines(out)
        assert {"n": 121, "base": 3, "factorization": "11^2", "carmichael": False} in rows
        assert all(row["carmichael"] == is_carmichael(row["n"]) for row in rows)
        assert [row["n"] for row in rows if row["carmichael"]] == [1105, 1729]

    def test_empty_stream_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "pseudoprimes", "--base", "2", "--limit", "300")
        assert code == 0
        assert out == ""

    def test_empty_stream_csv_keeps_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "pseudoprimes", "--base", "2", "--limit", "300", "--format", "csv"
        )
        assert code == 0
        assert out == "n,base,factorization,carmichael\n"

    def test_json_csv_numeric_equality(self, capsys):
        args = ("pseudoprimes", "--base", "2", "--limit", "2000")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        json_rows = parse_json_lines(json_out)
        csv_rows = parse_csv(csv_out)
        assert [row["n"] for row in json_rows] == [341, 561, 645, 1105, 1387, 1729, 1905]
        for j, c in zip(json_rows, csv_rows):
            assert j["n"] == int(c["n"])
            assert j["base"] == int(c["base"])
            assert j["factorization"] == c["factorization"]
            assert j["carmichael"] == (c["carmichael"] == "True")

    def test_limit_validation(self, capsys):
        assert usage_error_code(capsys, "pseudoprimes", "--base", "2", "--limit", "1") == 2
        assert usage_error_code(capsys, "pseudoprimes", "--base", "2", "--limit", "x") == 2

    @pytest.mark.parametrize("flags, digest", [
        ((), "fa036b1dff033501cbde8ba9eb2c690b6d36351d08637e55e56906c6c5f5595e"),
        (("--format", "json"), "26a359a72f8a07d82992b9060de12fe579b370ec545ee687af16ec2f429872e3"),
        (("--format", "csv"), "e9475eaa61c22447eff97cc11d70d722621e758fb8447f80add333a72add4207"),
        (("--carmichael",), "51ed595a251e1281b2cbb680c2c4089bc2e380c1b2f5d734b81012ffb7958816"),
        (("--carmichael", "--format", "json"),
         "861a72a407e4111ec3193251900c5b9e7c3dc09e79bbeff83a4674a8e85d5f2a"),
        (("--carmichael", "--format", "csv"),
         "ec2879ae8e0e17c6aeeb4e476e65b168fba12ea603828b2f02e266a5c2fea2e7"),
    ])
    def test_pseudoprimes_golden_digest(self, capsys, flags, digest):
        # frozen stdout: the 76 base-3 pseudoprimes to 10**5, seven of them
        # with a prime power (121 = 11^2 first) and 14 Carmichael numbers
        code, out, _ = run_cli(capsys, "pseudoprimes", "--base", "3", "--limit", "100000", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_max_n_1_empty_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "1")
        assert code == 0
        assert "total 0 checks, 0 failures" in out

    def test_default_sweep_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--base", "2", "--max-n", "2000")
        assert code == 0
        assert "0 failures" in out.splitlines()[-1]

    def test_claim_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claims", "T2", "--base", "2", "--max-n", "2000"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("T2")
        assert len(lines) == 2  # one tally row plus the total

    def test_unknown_claim_usage_error(self, capsys):
        assert usage_error_code(capsys, "verify", "--claims", "BOGUS") == 2

    @pytest.mark.parametrize("option, value, named", [
        ("--claims", "T1,BOGUS", "argument --claims: 'BOGUS' is not a valid ClaimId; known: T1, T2,"),
        ("--rs-min", "x", "argument --rs-min: invalid int value: 'x'"),
        ("--max-n", "x", "argument --max-n: invalid integer value: 'x'"),
    ])
    def test_bad_value_names_its_option_and_token(self, capsys, option, value, named):
        with pytest.raises(SystemExit) as err:
            main(["verify", option, value])
        assert err.value.code == 2
        assert named in capsys.readouterr().err

    def test_claim_list_tokens_are_stripped_and_canonically_ordered(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--claims", " T2 , T1", "--max-n", "300")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[:-1]] == ["T1", "T2"]

    def test_clamped_empty_rs_range_exits_zero(self, capsys):
        # --rs-max 0 leaves GA28_32 and GB33_35 (r >= 1) no tuple, and every
        # GC39_42 and GE43 tuple degenerate
        code, out, _ = run_cli(
            capsys, "verify", "--rs-max", "0", "--max-n", "3000", "--format", "json"
        )
        assert code == 0
        rows = {row["claim_id"]: row for row in parse_json_lines(out)}
        assert rows["GA28_32"]["checked"] == rows["GB33_35"]["checked"] == 0
        for claim in ("GC39_42", "GE43"):
            assert rows[claim]["checked"] == rows[claim]["degenerate"] > 0

    def test_records_stream(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--base", "2", "--max-n", "700", "--records"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 660
        assert all(" holds" in line or " degenerate" in line or " not_applicable" in line
                   for line in lines)

    def test_records_json_csv_equality(self, capsys):
        args = ("verify", "--base", "2", "--max-n", "700", "--records")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        json_rows = parse_json_lines(json_out)
        csv_rows = parse_csv(csv_out)
        assert len(json_rows) == len(csv_rows) == 660
        assert json_rows == csv_rows  # every field is a string already

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_records_rows_leave_as_they_arrive(self, capsys, monkeypatch, fmt):
        first = (ClaimId.T1, ("k", "n"), (2, 341), None)
        second = (ClaimId.T1, ("k", "n"), (2, 561), None)
        printed_before_second = []

        def outcomes(config):
            yield first
            printed_before_second.append(capsys.readouterr().out)
            yield second

        monkeypatch.setattr(cli, "_outcomes", outcomes)
        code, rest, _ = run_cli(
            capsys, "verify", "--base", "2", "--max-n", "600", "--records", "--format", fmt
        )
        assert code == 0
        early = printed_before_second[0]
        rows = parse_json_lines(early) if fmt == "json" else parse_csv(early)
        assert rows == [claims._result(*first).as_record()]
        assert "561" not in early and "561" in rest

    def test_records_csv_header_when_empty(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_outcomes", lambda config: iter(()))
        code, out, _ = run_cli(
            capsys, "verify", "--base", "2", "--max-n", "600", "--records", "--format", "csv"
        )
        assert code == 0
        assert out == "claim_id,params,verdict,witness\n"

    def test_summary_json_csv_equality(self, capsys):
        args = ("verify", "--base", "2", "--max-n", "700")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        json_rows = parse_json_lines(json_out)
        csv_rows = parse_csv(csv_out)
        for j, c in zip(json_rows, csv_rows):
            assert j["claim_id"] == c["claim_id"]
            for field in ("checked", "holds", "fails", "degenerate", "not_applicable"):
                assert j[field] == int(c[field])

    @pytest.mark.parametrize("fmt, digest", [
        ((), "c4ea2be6612ae8f3860b92d9ef90e6b8c4bddd78c66a528fc1308961bf5d3ca3"),
        (("--format", "csv"), "59403100bb52731983243248cb1be3198b99dcbd1c282e3558296d4e8404af42"),
        (("--format", "json"), "dc339a9eb50a386b878c0fbdf7e3fa723a28abf34d8967f3e22edaeb7a0214f3"),
    ])
    def test_records_golden_digest(self, capsys, fmt, digest):
        # frozen stdout: 6,841 records over all 11 claims in two bases, with
        # holds, degenerate and not_applicable rows
        code, out, _ = run_cli(
            capsys, "verify", "--base", "2", "--base", "3", "--max-n", "3000", "--records", *fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ((), "9832d6a0dc9d0a2faa486b32940a70d553d3b0b7f276ce4721d697c6ebb37064"),
        (("--format", "json"), "b092513007f16bff63a6e1d11d01e3631090df8f19e10a3f65ffb05441b7aebd"),
        (("--format", "csv"), "e2cf90603371794c4048d444ea74aa8d2c0d1a260729915187d744622b355e1b"),
    ])
    def test_summary_golden_digest(self, capsys, fmt, digest):
        # frozen stdout: the tallies of the same 6,841 checks as the records
        code, out, _ = run_cli(capsys, "verify", "--base", "2", "--base", "3", "--max-n", "3000", *fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_threads_flag_preserves_output(self, capsys, monkeypatch):
        def refuse(thread):
            raise RuntimeError("verify starts no threads")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        args = ("verify", "--base", "2", "--base", "3", "--max-n", "700")
        _, single, _ = run_cli(capsys, *args, "--threads", "1")
        _, multi, _ = run_cli(capsys, *args, "--threads", "4")
        assert single == multi

    def test_failure_exits_one(self, capsys, monkeypatch):
        # no true counterexamples exist, so inject one to pin the exit path
        failing = ClaimResult(
            ClaimId.GB33_35, (("k", 2), ("n1", 11), ("n2", 31), ("r", 1)),
            Verdict.FAILS, witness="2**10 - 1 = 5 (mod 341)",
        )
        report = SuiteReport(
            tallies={ClaimId.GB33_35: {v: int(v is Verdict.FAILS) for v in Verdict}},
            failures=(failing,),
        )
        monkeypatch.setattr(cli, "run_suite", lambda config: report)
        code, out, _ = run_cli(capsys, "verify", "--base", "2", "--max-n", "400")
        assert code == 1
        assert "FAIL GB33_35" in out
        assert "total 1 checks, 1 failures" in out

    @pytest.mark.usefixtures("break_gb33_35")
    def test_records_rows_are_the_encoders_bytes(self, capsys):
        # the rows are written without json or csv encoders; failing rows
        # carry witnesses, so every field of a record is exercised
        args = ("verify", "--base", "2", "--base", "3", "--max-n", "3000", "--records")
        records = [r.as_record() for r in iter_suite(SweepConfig(bases=(2, 3), max_n=3000))]
        assert any(record["witness"] for record in records)
        assert {"fails", "not_applicable", "degenerate"} <= {
            record["verdict"] for record in records if record["claim_id"] == "GB33_35"
        }
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 1
        assert parse_json_lines(out) == records
        assert out == "".join(json.dumps(record) + "\n" for record in records)
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        expected = io.StringIO()
        writer = csv.DictWriter(expected, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        assert code == 1 and out == expected.getvalue()
        code, out, _ = run_cli(capsys, *args)
        assert code == 1 and out == "".join(
            f"{r['claim_id']} {r['params']} {r['verdict']}"
            + (f" witness: {r['witness']}" if r["witness"] else "") + "\n"
            for r in records
        )

    @pytest.mark.usefixtures("break_gb33_35")
    def test_failure_lines_from_a_failing_kernel(self, capsys):
        results = list(iter_suite(SweepConfig(bases=(2, 3), max_n=3000)))
        failing = [r.as_record() for r in results if r.verdict is Verdict.FAILS]
        code, out, _ = run_cli(capsys, "verify", "--base", "2", "--base", "3", "--max-n", "3000")
        assert code == 1
        lines = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert lines == [f"FAIL {f['claim_id']} {f['params']}: {f['witness']}" for f in failing]
        assert lines[0] == "FAIL GB33_35 k=2 n1=11 n2=31 r=1: 2**10 - 1 = 7 (mod 341)"
        assert out.splitlines()[-1] == f"total {len(results)} checks, {len(failing)} failures"

    def test_failure_exits_one_in_records_mode(self, capsys, monkeypatch):
        failing = (ClaimId.T1, ("k", "n"), (2, 341), "residue 7")
        monkeypatch.setattr(cli, "_outcomes", lambda config: iter([failing]))
        code, out, _ = run_cli(
            capsys, "verify", "--base", "2", "--max-n", "400", "--records"
        )
        assert code == 1
        assert "witness: residue 7" in out

    @pytest.mark.parametrize("argv, first_line", [
        (["verify", "--base", "2", "--base", "3", "--max-n", "3000", "--records",
          "--format", "json"], b'{"claim_id": "T1", "params": "k=2 n=341", '),
        (["fixed-points", "--k", "200000", "--format", "csv"], b"numerator,denominator\n"),
    ], ids=["records", "table"])
    def test_closed_pipe_exits_141_without_traceback(self, argv, first_line):
        # about 680 KB of records, or 2.7 MB of one table through _emit_rows:
        # far more than a pipe buffers, so the CLI is still writing when the
        # reader goes away
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-m", "circleprimes.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(first_line)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert "Traceback" not in err.decode()
        assert proc.returncode == 141


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("fixed-points", "--k", "7"),
        ("spectrum", "--k", "3", "--n", "6"),
        ("pseudoprimes", "--base", "3", "--limit", "2000"),
        ("verify", "--base", "2", "--max-n", "700"),
    ])
    def test_identical_flags_identical_output(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()


def verify_stdout(config: SweepConfig, fmt: str) -> tuple[int, str]:
    """verify --records on config's ranges: its exit code and stdout."""
    argv = ["verify", "--records", "--format", fmt, f"--max-n={config.max_n}",
            f"--rs-min={config.rs_min}", f"--rs-max={config.rs_max}",
            f"--qpmj-max={config.qpmj_max}", "--claims", ",".join(c.value for c in config.claims)]
    for base in config.bases:
        argv += ["--base", str(base)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


class TestSweepReaders:
    # iter_suite, run_suite and verify --records each decode the kernel
    # outcomes (None, a Verdict or a witness) in their own loop

    @seed(20170401)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        bases=st.sets(st.integers(2, 13), min_size=1, max_size=3),
        max_n=st.integers(1, 1500),
        rs=st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(sorted),
        qpmj_max=st.integers(1, 2),
        chosen=st.sets(st.sampled_from(ClaimId), min_size=1),
        broken=st.booleans(),
    )
    def test_readers_agree(self, gb33_35_breaker, bases, max_n, rs, qpmj_max, chosen, broken):
        config = SweepConfig(bases=tuple(bases), max_n=max_n, rs_min=rs[0], rs_max=rs[1],
                             qpmj_max=qpmj_max, claims=tuple(chosen))
        with pytest.MonkeyPatch.context() as patch:
            if broken:
                gb33_35_breaker(patch)
            results = list(iter_suite(config))
            report = run_suite(config)
            printed = {fmt: verify_stdout(config, fmt) for fmt in cli.FORMATS}

        failing = tuple(r for r in results if r.verdict is Verdict.FAILS)
        counts = Counter((r.claim, r.verdict) for r in results)
        assert report.failures == failing
        assert report.tallies == {
            claim: {verdict: counts[claim, verdict] for verdict in Verdict}
            for claim in config.claims
        }
        records = [r.as_record() for r in results]
        expected_csv = io.StringIO()
        writer = csv.writer(expected_csv, lineterminator="\n")
        writer.writerow(["claim_id", "params", "verdict", "witness"])
        writer.writerows(record.values() for record in records)
        expected = {
            "json": "".join(json.dumps(record) + "\n" for record in records),
            "csv": expected_csv.getvalue(),
            "plain": "".join(
                f"{r['claim_id']} {r['params']} {r['verdict']}"
                + (f" witness: {r['witness']}" if r["witness"] else "") + "\n"
                for r in records
            ),
        }
        code = 1 if failing else 0
        assert printed == {fmt: (code, expected[fmt]) for fmt in cli.FORMATS}
