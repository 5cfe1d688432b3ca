"""Averaging operators of Cayley graphs on S_n and their block spectra.

A symmetric connection set F (closed under inversion) defines the graph
with an edge from p to t*p for every t in F.  The averaging operator

    (T_F f)(p) = (1/|F|) * mean-free average of f over neighbors
               = (1/|F|) * sum_{t in F} f(t * p)

acts within each isotype; on the spectral side it multiplies every block
by

    B_shape = (1/|F|) * sum_{t in F} rho_shape(t),

so the spectrum of the full n! x n! operator is the union over shapes of
the eigenvalues of B_shape, each with multiplicity dim(shape).  The
reference bound checked here is

    eig_max(B.T @ B) <= n! / (|F| * dim(shape))

for the normalized operator.  The raw sum (no 1/|F|) appears in practice
too; its gram eigenvalues are the normalized ones times |F|^2 >= 1
against the same bound, so :func:`spectrum_report` flags it from the
normalized eigenvalues, and every shape that breaks the normalized bound
breaks the raw one too.

A connection set is a :class:`SymmetricSet`: an ordering set that checks
on construction that it is nonempty and closed under inversion.  It keeps
its blocks B_shape, read-only: its indicator's transform divided by |F|.
Inverse ranks are computed in int64 by ``rank_of_word`` and cast to the
members' int32 block by block as they are stored, so the closure check
compares and searches in one dtype.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from types import MappingProxyType

import numpy as np

from .errors import EmptySetError
from .partitions import dimension
from .payoffs import indicator_payoff
from .permutations import group_order, rank_of_word, word_blocks, words
from .sets import OrderingSet

# Absolute: a shape is within the bound when the largest eigenvalue of
# B.T @ B is at most bound + BOUND_TOL.  For all transpositions at n = 8
# and 9 those eigenvalues measured within 6.7e-16 of their exact values.
BOUND_TOL = 1e-9


def _inverse_ranks(members: OrderingSet) -> np.ndarray:
    """Rank of each member's inverse: its word's argsort, ranked one block
    of :func:`snfair.permutations.word_blocks` at a time."""
    inv = np.empty(len(members), dtype=np.int32)
    for rows, block in word_blocks(members.n, members.members):
        inv[rows] = rank_of_word(np.argsort(block, axis=1) + 1)
    return inv


# Frozen again, or the kept blocks could be replaced: a frozen parent
# does not stop a subclass's instances from gaining attributes.
@dataclass(frozen=True, eq=False)
class SymmetricSet(OrderingSet):
    """A nonempty ordering set closed under inversion."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self) == 0:
            raise EmptySetError("connection set must be nonempty")
        inv = _inverse_ranks(self)
        # Each inverse's place in the sorted members; past the last member
        # it reads the last, which is then smaller than the inverse.
        at = np.searchsorted(self.members, inv)
        lacking = self.members[np.minimum(at, len(self) - 1, out=at)] != inv
        if lacking.any():
            i = int(np.argmax(lacking))
            raise ValueError(
                f"set is not closed under inversion: rank {self.members[i]} lacks {inv[i]}"
            )

    @cached_property
    def blocks(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """B_shape = (1/|F|) sum_{t in F} rho_shape(t) for every shape: the
        averaging blocks, from the transform of the set's indicator."""
        blocks = {}
        for shape, raw in indicator_payoff(self).spectrum.blocks.items():
            blocks[shape] = raw / len(self)
            blocks[shape].setflags(write=False)
        return MappingProxyType(blocks)


def symmetrize(members: OrderingSet) -> SymmetricSet:
    """Close an ordering set under inversion."""
    both = np.concatenate([members.members, _inverse_ranks(members)])
    return SymmetricSet.from_ranks(members.n, both)


@dataclass(frozen=True)
class BlockSpectrum:
    """Eigenvalues of B.T @ B for one shape, with the reference bound and
    whether B and the raw sum |F| * B are within it."""

    eigenvalues: np.ndarray  # descending
    bound: float
    within_bound: bool
    raw_within_bound: bool


def spectrum_report(conn: SymmetricSet) -> dict[tuple[int, ...], BlockSpectrum]:
    """Per-shape gram eigenvalues and bound flags of both scalings."""
    out = {}
    for shape, b in conn.blocks.items():
        eig = np.linalg.eigvalsh(b.T @ b)[::-1]
        bound = factorial(conn.n) / (len(conn) * dimension(shape))
        out[shape] = BlockSpectrum(
            eigenvalues=eig,
            bound=bound,
            within_bound=bool(eig[0] <= bound + BOUND_TOL),
            raw_within_bound=bool(eig[0] * len(conn) ** 2 <= bound + BOUND_TOL),
        )
    return out


def dense_operator(conn: SymmetricSet) -> np.ndarray:
    """The full n! x n! averaging matrix, built from group multiplication only.

    Independent of the representation machinery; used to cross-check the
    block route.  Row p holds weight 1/|F| at column rank(t * p) for each t.
    """
    size = group_order(conn.n)
    perms = words(conn.n)
    mat = np.zeros((size, size))
    for t in words(conn.n, conn.members):
        # column rank(t * p) for every row p; p -> t * p is a bijection
        mat[np.arange(size), rank_of_word(t[perms - 1])] += 1.0 / len(conn)
    return mat
