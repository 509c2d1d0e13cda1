"""Exact-arithmetic toolkit for finite-dimensional group-graded division algebras.

Construction of twisted group algebras D(K, beta, mu) from their invariants,
exact verification oracles (grading, unit, associativity, graded-division),
centers, the graded-isomorphism decision read off the cocycles, the complete
classification of real graded-division algebras with abelian support, and
decision procedures for gradings on fields (binomial irreducibility,
square-class independence, Frobenius eigenspace and Kummer gradings of
finite fields).
"""

from .abelian import FinAbGroup, Subgroup
from .exactfield import CyclotomicField, FiniteField, RationalField, RealField
from .gradedalg import GradedAlgebra
from .quasitorus import AltBicharacter, MuFunction, construct

__version__ = "0.1.0"

__all__ = [
    "AltBicharacter",
    "CyclotomicField",
    "FinAbGroup",
    "FiniteField",
    "GradedAlgebra",
    "MuFunction",
    "RationalField",
    "RealField",
    "Subgroup",
    "construct",
    "__version__",
]
