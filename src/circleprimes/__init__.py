"""Exact circle-map orbit counting and pseudoprime identity verification.

The multiply-by-k circle map keeps the rational angles with denominator
k**n - 1 to themselves, so its periodic structure is pure integer
arithmetic.  This package enumerates and counts those orbits exactly,
searches for Fermat pseudoprimes and Carmichael numbers, and verifies a
family of divisibility identities tying the two together.
"""

# The package exports exactly what each module lists in its __all__.
from . import arith, circlemap, claims, pseudoprimes
from .arith import *
from .circlemap import *
from .claims import *
from .pseudoprimes import *

__all__ = arith.__all__ + circlemap.__all__ + claims.__all__ + pseudoprimes.__all__

__version__ = "0.1.0"
