"""The public surface: what the package and each module export, what was
taken out of it, and the README's library example and CLI lines."""

import inspect
import re
import shlex
from pathlib import Path

import pytest

import circleprimes
from circleprimes import arith, circlemap, claims, cli, pseudoprimes

MODULES = (arith, circlemap, claims, pseudoprimes)

# removed public names, by the module that defined them
REMOVED = {
    arith: ("gcd", "mod_pow", "odd_composite_segments", "Factorization"),
    circlemap: (
        "step", "enumeration_cap", "ENUM_CAP_ENV", "PeriodSpectrum", "LatticePoint",
        "DEFAULT_ENUMERATION_CAP", "DEFAULT_MODULUS_BIT_BUDGET",
    ),
    claims: ("t2_sides", "CLAIM_DESCRIPTIONS", "ALL_CLAIMS"),
    pseudoprimes: ("PseudoprimeRecord", "fermat_congruence_holds", "make_record"),
}

# removed keyword options
REMOVED_KEYWORDS = (
    (pseudoprimes.is_pseudoprime, "allow_even"),
    (circlemap.make_lattice, "max_bits"),
    (circlemap.count_exact_period, "max_bits"),
    (circlemap.orbit_count, "max_bits"),
    (circlemap.period_spectrum, "max_bits"),
    (circlemap.enumerate_orbits, "cap"),
    (circlemap.exact_period, "point"),
    (claims.SuiteReport, "config"),
    (claims.SuiteReport, "total"),
)

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", (circleprimes, *MODULES), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        getattr(module, name)


def test_package_exports_exactly_the_modules_names():
    names = [name for module in MODULES for name in module.__all__]
    assert circleprimes.__all__ == names
    assert len(set(names)) == len(names)


def test_removed_names_are_gone():
    for home, names in REMOVED.items():
        for name in names:
            assert not hasattr(home, name), (home.__name__, name)
            for module in (circleprimes, *MODULES):
                assert name not in getattr(module, "__all__", ()), (module.__name__, name)
                # claims and pseudoprimes import math.gcd, which is not ours
                value = getattr(module, name, None)
                owner = getattr(value, "__module__", None) or ""
                assert not owner.startswith("circleprimes"), (module.__name__, name)


@pytest.mark.parametrize(
    "fn,keyword", REMOVED_KEYWORDS, ids=[f"{fn.__name__}-{kw}" for fn, kw in REMOVED_KEYWORDS]
)
def test_removed_keywords_are_gone(fn, keyword):
    assert keyword not in inspect.signature(fn).parameters


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_run(capsys):
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", block, re.S).group(1).splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert commands and all(argv[0] == "circleprimes" for argv in commands)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out, argv
