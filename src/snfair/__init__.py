"""Harmonic analysis of transaction-ordering fairness on the symmetric group.

Layers, bottom up: permutations and their dense ranks; partitions and
standard tableaux; orthogonal representation matrices; the matrix-valued
Fourier transform of payoff functions; payoff model generators; pairwise
agreement structure of ordering sets; Cayley averaging operators; fairness
gaps and their spectral bounds; and a vote-to-admissible-orderings
sequencing pipeline.  The ``snfair`` command drives it all reproducibly.

Import names from their modules (``snfair.fourier``, ``snfair.sets``,
...): the package re-exports nothing, so importing one layer, or the
command line, loads only the modules that layer needs.
"""

__version__ = "0.1.0"
