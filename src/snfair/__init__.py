"""Harmonic analysis of transaction-ordering fairness on the symmetric group.

Layers, bottom up: permutations and their dense ranks; partitions and
standard tableaux; orthogonal representation matrices; the matrix-valued
Fourier transform of payoff functions; payoff model generators; pairwise
agreement structure of ordering sets; Cayley averaging operators; fairness
gaps and their spectral bounds; and a vote-to-admissible-orderings
sequencing pipeline.  The ``snfair`` command drives it all reproducibly.
"""

__version__ = "0.1.0"

from .errors import CapacityError, DegenerateError, EmptySetError, ModelValidityError
from .fourier import (
    FourierSpectrum,
    PayoffFn,
    degree,
    inverse,
    schatten_summary,
    transform,
    uncertainty_check,
)
from .partitions import dimension, partitions_of, standard_tableaux
from .permutations import Permutation, enumerate_group, group_matrix, lehmer_unrank
from .sets import OrderingSet

__all__ = [
    "CapacityError",
    "DegenerateError",
    "EmptySetError",
    "FourierSpectrum",
    "ModelValidityError",
    "OrderingSet",
    "PayoffFn",
    "Permutation",
    "__version__",
    "degree",
    "dimension",
    "enumerate_group",
    "group_matrix",
    "inverse",
    "lehmer_unrank",
    "partitions_of",
    "schatten_summary",
    "standard_tableaux",
    "transform",
    "uncertainty_check",
]
