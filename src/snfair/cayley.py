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

for the normalized operator.  The raw-sum variant (no 1/|F|) is exposed as
well since either scaling appears in practice; its gram eigenvalues are
the normalized ones times |F|^2 >= 1 against the same bound, so every
shape that breaks the normalized bound breaks the raw one too.

A connection set is a :class:`SymmetricSet`: an ordering set that checks
on construction that it is nonempty and closed under inversion.  Inverse
ranks come from the argsort of the member words, ranked in row chunks.
It keeps its raw blocks sum_{t in F} rho_shape(t), read-only; the
normalized ones divide them by |F|, so both scalings share one transform.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .errors import EmptySetError
from .fourier import FourierSpectrum
from .partitions import dimension
from .permutations import group_matrix, rank_of_word, row_chunks
from .representations import fft
from .sets import OrderingSet

# Absolute: a shape is within the bound when the largest eigenvalue of
# B.T @ B is at most bound + BOUND_TOL.  For all transpositions at n = 8
# and 9 those eigenvalues measured within 6.7e-16 of their exact values.
BOUND_TOL = 1e-9


def _inverse_ranks(members: OrderingSet) -> np.ndarray:
    """Rank of each member's inverse: its word's argsort, ranked ROW_CHUNK
    members at a time."""
    perms = group_matrix(members.n)
    inv = np.empty(len(members), dtype=np.int64)
    for rows in row_chunks(len(members)):
        inv[rows] = rank_of_word(np.argsort(perms[members.members[rows]], axis=1) + 1)
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
        lacking = ~self.mask()[inv]
        if lacking.any():
            i = int(np.argmax(lacking))
            raise ValueError(
                f"set is not closed under inversion: rank {self.members[i]} lacks {inv[i]}"
            )

    @cached_property
    def blocks(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """sum_{t in F} rho_shape(t) for every shape: the transform of the
        set's indicator."""
        return FourierSpectrum(self.n, fft(self.n, self.mask().astype(float))).blocks


def symmetrize(members: OrderingSet) -> SymmetricSet:
    """Close an ordering set under inversion."""
    both = np.concatenate([members.members, _inverse_ranks(members)])
    return SymmetricSet.from_ranks(members.n, both)


def block_operators(
    conn: SymmetricSet, normalized: bool = True
) -> Mapping[tuple[int, ...], np.ndarray]:
    """B_shape for every shape: the set's blocks, averaged over |F| when
    normalized."""
    if not normalized:
        return conn.blocks
    return {s: b / len(conn) for s, b in conn.blocks.items()}


@dataclass(frozen=True)
class BlockSpectrum:
    """Eigenvalues of B.T @ B for one shape, with the reference bound."""

    eigenvalues: np.ndarray  # descending
    bound: float
    within_bound: bool


def spectrum_report(
    conn: SymmetricSet, normalized: bool = True
) -> dict[tuple[int, ...], BlockSpectrum]:
    """Per-shape gram eigenvalues and bound flags for the chosen scaling."""
    out = {}
    for shape, b in block_operators(conn, normalized).items():
        eig = np.linalg.eigvalsh(b.T @ b)[::-1]
        bound = factorial(conn.n) / (len(conn) * dimension(shape))
        out[shape] = BlockSpectrum(
            eigenvalues=eig,
            bound=bound,
            within_bound=bool(eig[0] <= bound + BOUND_TOL),
        )
    return out


def bound_violations(
    conn: SymmetricSet, normalized: bool = True
) -> tuple[tuple[int, ...], ...]:
    """Shapes whose gram eigenvalues exceed the reference bound."""
    report = spectrum_report(conn, normalized=normalized)
    return tuple(s for s, spec in report.items() if not spec.within_bound)


def dense_operator(conn: SymmetricSet, normalized: bool = True) -> np.ndarray:
    """The full n! x n! averaging matrix, built from group multiplication only.

    Independent of the representation machinery; used to cross-check the
    block route.  Row p holds weight at column rank(t * p) for each t.
    """
    size = factorial(conn.n)
    perms = group_matrix(conn.n)
    mat = np.zeros((size, size))
    weight = 1.0 / len(conn) if normalized else 1.0
    for t in perms[conn.members]:
        # column rank(t * p) for every row p; p -> t * p is a bijection
        mat[np.arange(size), rank_of_word(t[perms - 1])] += weight
    return mat
