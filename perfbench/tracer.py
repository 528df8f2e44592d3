"""Per-layer tracing by wrapping circleprimes' public functions from outside.

Each traced function is replaced, in every circleprimes module that holds
a reference to it, by a wrapper that counts calls and accumulates self
time (duration minus the time of traced calls made inside it). Hot
leaves such as ``is_prime`` run hundreds of thousands of times, so calls
are aggregated per name instead of being recorded one span each. Every
thread keeps its own span stack and tables, so ``verify --threads 2``
traces correctly without locking on the hot path; the tables are summed
when the run ends.

Install the tracer before the sweep builds its tasks: ``claims`` binds
the ``check_*`` functions into ``functools.partial`` objects at that point.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter
from time import perf_counter

MODULES = ("arith", "pseudoprimes", "claims", "circlemap", "cli")

# (defining module, function, span name)
SPANS = (
    ("arith", "is_prime", "arith.is_prime"),
    ("arith", "factorize", "arith.factorize"),
    ("arith", "divisors", "arith.divisors"),
    ("arith", "moebius", "arith.moebius"),
    ("pseudoprimes", "enumerate_pseudoprimes", "pseudoprimes.enumerate"),
    ("circlemap", "enumerate_orbits", "circlemap.enumerate_orbits"),
    ("circlemap", "pi_mod", "circlemap.pi_mod"),
    ("cli", "main", "cli"),
) + tuple(
    ("claims", f"check_{cid}", f"claims.{cid}")
    for cid in (
        "T1", "T2", "R24_27", "GA28_32", "GB33_35", "EC36_38",
        "GC39_42", "GE43", "TP44_47", "TP48_58", "TP59_61",
    )
)


def _observe_enumerate(tables, args, result, is_prime_calls) -> None:
    _, limit = args
    tables.counts["pseudoprimes.candidates"] += len(range(9, limit + 1, 2))
    tables.counts["pseudoprimes.hits"] += len(result)
    tables.counts["pseudoprimes.is_prime_calls"] += is_prime_calls


def _observe_orbits(tables, args, result, is_prime_calls) -> None:
    tables.counts["circlemap.points"] += args[0].modulus


# extra counters for spans whose arguments or result carry the work done
_OBSERVERS = {
    "pseudoprimes.enumerate": _observe_enumerate,
    "circlemap.enumerate_orbits": _observe_orbits,
}


class _ThreadTables:
    def __init__(self) -> None:
        self.stack: list[float] = []  # child time of each open span
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()


class Tracer:
    """Counts and self times of the traced layers, summed over threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadTables] = []

    def _tables_here(self) -> _ThreadTables:
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = self._local.tables = _ThreadTables()
            with self._lock:
                self._tables.append(tables)
        return tables

    def _enter(self, name: str) -> _ThreadTables:
        tables = self._tables_here()
        tables.calls[name] += 1
        tables.stack.append(0.0)
        return tables

    @staticmethod
    def _leave(tables: _ThreadTables, name: str, elapsed: float) -> None:
        stack = tables.stack
        tables.self_s[name] += elapsed - stack.pop()
        if stack:
            stack[-1] += elapsed

    def _wrap(self, fn, name: str, caller: str):
        calls_from = f"{name}.calls.from_{caller}"
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tables = self._enter(name)
            tables.counts[calls_from] += 1
            if observe is not None:
                before = tables.calls["arith.is_prime"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(tables, name, perf_counter() - start)
            if observe is not None:
                observe(tables, args, result, tables.calls["arith.is_prime"] - before)
            return result

        return traced

    def _wrap_iter_suite(self, fn):
        """Span over each resumption of the sweep generator, plus the time
        from the call to its first yield and the per-claim verdict tally."""
        name = "claims.iter_suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            called = perf_counter()
            results = fn(*args, **kwargs)
            first = True
            while True:
                tables = self._enter(name)
                start = perf_counter()
                try:
                    result = next(results)
                except StopIteration:
                    return
                finally:
                    self._leave(tables, name, perf_counter() - start)
                if first:
                    tables.counts["claims.build_s"] += perf_counter() - called
                    first = False
                tables.counts[f"claims.{result.claim.value}.tasks"] += 1
                tables.counts[f"claims.verdict.{result.verdict.value}"] += 1
                yield result

        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper, wherever it is bound."""
        modules = {m: importlib.import_module(f"circleprimes.{m}") for m in MODULES}
        originals = [(getattr(modules[home], fn_name), name) for home, fn_name, name in SPANS]
        iter_suite = modules["claims"].iter_suite
        for caller, module in modules.items():
            for fn_name, value in list(vars(module).items()):
                if value is iter_suite:
                    setattr(module, fn_name, self._wrap_iter_suite(value))
                    continue
                for original, name in originals:
                    if value is original:
                        setattr(module, fn_name, self._wrap(original, name, caller))

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(calls, self seconds, counters), summed over every thread."""
        calls, self_s, counts = Counter(), Counter(), Counter()
        with self._lock:
            for tables in self._tables:
                calls.update(tables.calls)
                self_s.update(tables.self_s)
                counts.update(tables.counts)
        return calls, self_s, counts


def layer_metrics(calls: Counter, self_s: Counter, counts: Counter) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from Tracer.totals()
    (cli.rows and cli.bytes come from the stdout sink instead)."""
    tasks = sum(counts[f"claims.verdict.{v}"] for v in ("holds", "fails", "degenerate", "not_applicable"))
    evaluated = counts["claims.verdict.holds"] + counts["claims.verdict.fails"]
    enumerate_is_prime = counts["pseudoprimes.is_prime_calls"]
    metrics = {
        "arith.is_prime.calls": calls["arith.is_prime"],
        "arith.is_prime.self_s": self_s["arith.is_prime"],
        "arith.is_prime.calls.from_claims": counts["arith.is_prime.calls.from_claims"],
        "arith.is_prime.calls.from_pseudoprimes": counts["arith.is_prime.calls.from_pseudoprimes"],
        "arith.factorize.calls": calls["arith.factorize"],
        "arith.factorize.self_s": self_s["arith.factorize"],
        "arith.divisors.calls": calls["arith.divisors"],
        "arith.moebius.calls": calls["arith.moebius"],
        "pseudoprimes.enumerate.self_s": self_s["pseudoprimes.enumerate"],
        "pseudoprimes.candidates": counts["pseudoprimes.candidates"],
        "pseudoprimes.hits": counts["pseudoprimes.hits"],
        "pseudoprimes.hit_ratio": (
            counts["pseudoprimes.hits"] / enumerate_is_prime if enumerate_is_prime else 0.0
        ),
        "circlemap.enumerate_orbits.self_s": self_s["circlemap.enumerate_orbits"],
        "circlemap.points": counts["circlemap.points"],
        "circlemap.pi_mod.calls": calls["circlemap.pi_mod"],
        "circlemap.pi_mod.self_s": self_s["circlemap.pi_mod"],
        "claims.build_s": counts["claims.build_s"],
        "claims.iter_suite.self_s": self_s["claims.iter_suite"],
        "claims.evaluated_ratio": evaluated / tasks if tasks else 0.0,
        "cli.self_s": self_s["cli"],
    }
    for _, fn_name, name in SPANS:
        if name.startswith("claims."):
            metrics[f"{name}.tasks"] = counts[f"{name}.tasks"]
            metrics[f"{name}.self_s"] = self_s[name]
    return metrics
