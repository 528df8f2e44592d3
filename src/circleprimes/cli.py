"""Command-line front end.

Subcommands: fixed-points, spectrum, pseudoprimes, verify.  Output is
plain text by default; --format json emits one object per line and
--format csv a header plus rows, both carrying the same fields.

Exit codes: 0 success / no failures, 1 a claim failure was found,
2 usage or resource error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Iterable

from .arith import factorize
from .circlemap import ResourceLimitError, fixed_points, period_spectrum
from .claims import (
    ALL_CLAIMS,
    ClaimId,
    SweepConfig,
    Verdict,
    iter_suite,
    run_suite,
)
from .pseudoprimes import _korselt, enumerate_pseudoprimes

FORMATS = ("plain", "json", "csv")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        value = _any_int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _any_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _claim_list(text: str) -> tuple[ClaimId, ...]:
    ids = []
    by_value = {c.value: c for c in ALL_CLAIMS}
    for token in text.split(","):
        token = token.strip()
        if token not in by_value:
            known = ", ".join(sorted(by_value))
            raise argparse.ArgumentTypeError(f"unknown claim {token!r}; known: {known}")
        ids.append(by_value[token])
    return tuple(ids)


def _emit_rows(rows: Iterable[dict], fields: tuple[str, ...], fmt: str, out) -> None:
    """Line-delimited json objects, or csv with a header even when empty.

    Each row is written as soon as the iterable yields it.
    """
    if fmt == "json":
        for row in rows:
            print(json.dumps(row), file=out)
    elif fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _cmd_fixed_points(args) -> int:
    rows = [
        {"numerator": j, "denominator": d} for j, d in fixed_points(args.k)
    ]
    if args.format == "plain":
        for row in rows:
            print(f"{row['numerator']}/{row['denominator']} · 2π")
    else:
        _emit_rows(rows, ("numerator", "denominator"), args.format, sys.stdout)
    return 0


def _cmd_spectrum(args) -> int:
    spectrum = period_spectrum(args.k, args.n)
    rows = [
        {"period": d, "points": points, "orbits": orbits}
        for d, (points, orbits) in sorted(spectrum.entries.items())
    ]
    if args.format == "plain":
        for row in rows:
            print(f"period {row['period']}: {row['points']} points, {row['orbits']} orbits")
        total = sum(row["points"] for row in rows)
        print(f"total {total} points = {args.k}^{args.n} - 1")
    else:
        _emit_rows(rows, ("period", "points", "orbits"), args.format, sys.stdout)
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
    if args.format == "plain":
        for row in rows:
            suffix = " [carmichael]" if row["carmichael"] else ""
            print(f"{row['n']} = {row['factorization']}{suffix}")
    else:
        _emit_rows(rows, ("n", "base", "factorization", "carmichael"), args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    config = SweepConfig(
        bases=tuple(args.base or [2]),
        max_n=args.max_n,
        rs_min=args.rs_min,
        rs_max=args.rs_max,
        qpmj_max=args.qpmj_max,
        claims=args.claims or ALL_CLAIMS,
    )
    if args.records:
        failures = 0
        if args.format == "csv":
            print("claim_id,params,verdict,witness")
        for result in iter_suite(config, threads=args.threads):
            failures += result.verdict is Verdict.FAILS
            claim, verdict = result.claim.value, result.verdict.value
            params = " ".join(f"{name}={value}" for name, value in result.params)
            witness = result.witness or ""
            # params and witnesses are printable ASCII with no quote, comma or
            # backslash, so these are the bytes of json.dumps and csv.writer
            if args.format == "json":
                print(f'{{"claim_id": "{claim}", "params": "{params}", '
                      f'"verdict": "{verdict}", "witness": "{witness}"}}')
            elif args.format == "csv":
                print(f"{claim},{params},{verdict},{witness}")
            else:
                print(f"{claim} {params} {verdict}" + (f" witness: {witness}" if witness else ""))
        return 1 if failures else 0

    report = run_suite(config, threads=args.threads)
    rows = [
        {
            "claim_id": claim.value,
            "checked": sum(counts.values()),
            "holds": counts[Verdict.HOLDS],
            "fails": counts[Verdict.FAILS],
            "degenerate": counts[Verdict.DEGENERATE],
            "not_applicable": counts[Verdict.NOT_APPLICABLE],
        }
        for claim, counts in report.tallies.items()
    ]
    if args.format == "plain":
        for row in rows:
            print(
                f"{row['claim_id']:<9} checked {row['checked']:>6}"
                f"  holds {row['holds']:>6}  fails {row['fails']:>3}"
                f"  degenerate {row['degenerate']:>4}"
                f"  not-applicable {row['not_applicable']:>6}"
            )
        for failure in report.failures:
            record = failure.as_record()
            print(f"FAIL {record['claim_id']} {record['params']}: {record['witness']}")
        print(f"total {report.total} checks, {report.failure_count} failures")
    else:
        _emit_rows(
            rows,
            ("claim_id", "checked", "holds", "fails", "degenerate", "not_applicable"),
            args.format, sys.stdout,
        )
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
                   help="base k; repeatable (default: 2)")
    p.add_argument("--max-n", type=_int_at_least(1), default=1000,
                   help="sweep pseudoprimes up to this bound")
    p.add_argument("--rs-min", type=_any_int, default=-3)
    p.add_argument("--rs-max", type=_any_int, default=3)
    p.add_argument("--qpmj-max", type=_int_at_least(1), default=3)
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


if __name__ == "__main__":
    sys.exit(main())
