"""Axiomatic information thermodynamics over eidostates.

The package provides the model-independent state algebra, exact entropy
arithmetic, two concrete models (macrostate and quantum), a
model-generic computation engine, a property-test harness for the axiom
system, and a scenario-file command line.
"""

from .exact import Comparison, ExactEntropy, PrecisionExhausted, compare_entropy
from .states import (
    Atom,
    Eidostate,
    Pair,
    Process,
    ProcessType,
    ResourceCapError,
    StateExpr,
    combine,
    n_copies,
    prime_factorize,
    similar,
    singleton,
    subsets_of,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Comparison",
    "Eidostate",
    "ExactEntropy",
    "Pair",
    "PrecisionExhausted",
    "Process",
    "ProcessType",
    "ResourceCapError",
    "StateExpr",
    "combine",
    "compare_entropy",
    "n_copies",
    "prime_factorize",
    "similar",
    "singleton",
    "subsets_of",
    "__version__",
]
