"""Command-line front end.

Subcommands: fixed-points, spectrum, pseudoprimes, verify.  Output is
plain text by default; --format json emits one object per line and
--format csv a header plus rows, both carrying the same fields.

Exit codes: 0 success / no failures, 1 a claim failure was found,
2 usage or resource error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Iterable

from .arith import factorize
from .circlemap import ResourceLimitError, fixed_points, period_spectrum
from .claims import (
    ClaimId,
    SweepConfig,
    Verdict,
    _outcomes,
    run_suite,
)
from .pseudoprimes import _korselt, enumerate_pseudoprimes

FORMATS = ("plain", "json", "csv")


def _int_at_least(minimum: int):
    # argparse names the function in its error: "invalid integer value: 'x'"
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _claim_list(text: str) -> tuple[ClaimId, ...]:
    try:
        return tuple(ClaimId(token.strip()) for token in text.split(","))
    except ValueError as exc:  # "'BOGUS' is not a valid ClaimId"
        known = ", ".join(claim.value for claim in ClaimId)
        raise argparse.ArgumentTypeError(f"{exc}; known: {known}") from None


def _emit_rows(rows: Iterable[dict], fields: tuple[str, ...], fmt: str, plain) -> None:
    """One line per row: plain(row), a json object, or csv under a header
    that is written even when there are no rows."""
    if fmt == "plain":
        for row in rows:
            print(plain(row))
    elif fmt == "json":
        for row in rows:
            print(json.dumps(row))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _cmd_fixed_points(args) -> int:
    # one dict at a time: a list of k - 1 rows would hold about 190 B per point
    rows = (
        {"numerator": j, "denominator": d} for j, d in fixed_points(args.k)
    )
    _emit_rows(rows, ("numerator", "denominator"), args.format,
               "{numerator}/{denominator} · 2π".format_map)
    return 0


def _cmd_spectrum(args) -> int:
    spectrum = period_spectrum(args.k, args.n)
    rows = [
        {"period": d, "points": points, "orbits": orbits}
        for d, (points, orbits) in sorted(spectrum.items())
    ]
    total = sum(row["points"] for row in rows)
    # str() of an int over the interpreter's digit limit raises mid-table, so
    # refuse before the first row: plain prints the total, json and csv points
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    largest = total if args.format == "plain" else max(row["points"] for row in rows)
    if digits and largest >= 10**digits:
        raise ResourceLimitError(f"k={args.k}, n={args.n} gives an integer over {digits} "
                                 "digits, the interpreter's limit for printing one")
    _emit_rows(rows, ("period", "points", "orbits"), args.format,
               "period {period}: {points} points, {orbits} orbits".format_map)
    if args.format == "plain":
        print(f"total {total} points = {args.k}^{args.n} - 1")
    return 0


def _factor_string(factorization) -> str:
    return "*".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in factorization
    )


def _cmd_pseudoprimes(args) -> int:
    rows = []
    for n in enumerate_pseudoprimes(args.base, args.limit):
        factors = factorize(n)
        carmichael = _korselt(n, factors)
        if args.carmichael and not carmichael:
            continue
        rows.append({
            "n": n,
            "base": args.base,
            "factorization": _factor_string(factors),
            "carmichael": carmichael,
        })
    plain = "{n} = {factorization}".format_map
    _emit_rows(rows, ("n", "base", "factorization", "carmichael"), args.format,
               lambda row: plain(row) + (" [carmichael]" if row["carmichael"] else ""))
    return 0


def _cmd_verify(args) -> int:
    config = SweepConfig(
        bases=tuple(args.base or SweepConfig.bases),
        max_n=args.max_n,
        rs_min=args.rs_min,
        rs_max=args.rs_max,
        qpmj_max=args.qpmj_max,
        claims=args.claims or SweepConfig.claims,
    )
    if args.records:
        write, fmt, failures, current = sys.stdout.write, args.format, 0, None
        if fmt == "csv":
            write("claim_id,params,verdict,witness\n")
        for claim, names, values, outcome in _outcomes(config):
            if claim is not current:
                current, cid = claim, claim.value
                template = " ".join(f"{name}=%d" for name in names)
            params = template % values
            if outcome is None:
                verdict, witness = "holds", ""
            elif isinstance(outcome, Verdict):
                verdict, witness = outcome.value, ""
            else:
                verdict, witness, failures = "fails", outcome, failures + 1
            # params and witnesses are printable ASCII with no quote, comma or
            # backslash, so these are the bytes of json.dumps and csv.writer
            if fmt == "json":
                write(f'{{"claim_id": "{cid}", "params": "{params}", '
                      f'"verdict": "{verdict}", "witness": "{witness}"}}\n')
            elif fmt == "csv":
                write(f"{cid},{params},{verdict},{witness}\n")
            else:
                write(f"{cid} {params} {verdict}{witness and ' witness: ' + witness}\n")
        return 1 if failures else 0

    report = run_suite(config)
    # the tally fields are the verdicts' values, in Verdict order
    fields = ("claim_id", "checked", *(verdict.value for verdict in Verdict))
    rows = [
        dict(zip(fields, (claim.value, sum(counts.values()), *map(counts.get, Verdict))))
        for claim, counts in report.tallies.items()
    ]
    _emit_rows(rows, fields, args.format,
               "{claim_id:<9} checked {checked:>6}  holds {holds:>6}  fails {fails:>3}"
               "  degenerate {degenerate:>4}  not-applicable {not_applicable:>6}".format_map)
    if args.format == "plain":
        for failure in report.failures:
            print("FAIL {claim_id} {params}: {witness}".format_map(failure.as_record()))
        print(f"total {report.total} checks, {report.failure_count} failures")
    return 1 if report.failure_count else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleprimes",
        description=(
            "Exact circle-map orbit counting, pseudoprime search, and "
            "divisibility-identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("fixed-points", help="list the k-1 fixed-point angles")
    p.add_argument("--k", type=_int_at_least(2), required=True,
                   help="map multiplier, must be > 1")
    add_format(p)
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("spectrum", help="exact-period census of the period-n lattice")
    p.add_argument("--k", type=_int_at_least(2), required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pseudoprimes", help="enumerate base-k pseudoprimes")
    p.add_argument("--base", type=_int_at_least(2), required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.add_argument("--carmichael", action="store_true",
                   help="only emit Carmichael numbers")
    add_format(p)
    p.set_defaults(func=_cmd_pseudoprimes)

    p = sub.add_parser("verify", help="run the divisibility-identity suite")
    p.add_argument("--base", type=_int_at_least(2), action="append",
                   help=f"base k; repeatable (default: {', '.join(map(str, SweepConfig.bases))})")
    p.add_argument("--max-n", type=_int_at_least(1), default=SweepConfig.max_n,
                   help="sweep pseudoprimes up to this bound")
    p.add_argument("--rs-min", type=int, default=SweepConfig.rs_min)
    p.add_argument("--rs-max", type=int, default=SweepConfig.rs_max)
    p.add_argument("--qpmj-max", type=_int_at_least(1), default=SweepConfig.qpmj_max)
    p.add_argument("--claims", type=_claim_list, default=None,
                   help="comma-separated claim ids (default: all)")
    p.add_argument("--records", action="store_true",
                   help="stream one record per checked tuple")
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="must be >= 1, otherwise ignored: evaluation is "
                        "single-threaded and output is the same for every value")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as if the signal had ended the process


if __name__ == "__main__":
    sys.exit(main())
