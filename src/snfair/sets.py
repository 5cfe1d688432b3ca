"""Sets of orderings, stored as read-only arrays of sorted dense ranks.

An :class:`OrderingSet` holds its members as one read-only int32 array
of strictly increasing Lehmer ranks, half the bytes of int64: every rank
of S_10 fits.  Indicator payoffs, word matrices and payoff restrictions
index with it directly, and membership is a binary search in it with an
int32 key; the rows of :meth:`OrderingSet.matrix` are the members'
one-line words.  It keeps its agreement `profile`, scanned on first use.

The members array is made once, by the package's one rank rule,
:func:`snfair.permutations.rank_array`: a list is typed and converted,
and an array is kept if it is read-only and owns its memory, else
copied, so later writes by the caller cannot reach the set.
:meth:`OrderingSet.from_ranks` sorts and drops repeats first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .permutations import group_order, is_integer, rank_array, row_chunks, words

if TYPE_CHECKING:
    from .intersecting import IntersectionProfile


@dataclass(frozen=True, eq=False)
class OrderingSet:
    """A subset of S_n given by strictly increasing Lehmer ranks, kept as a
    read-only int32 array."""

    n: int
    members: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", rank_array(self.n, self.members))

    @classmethod
    def from_ranks(cls, n: int, ranks) -> "OrderingSet":
        """The set of the given ranks, in any order and with repeats."""
        return cls(n, rank_array(n, ranks, sort=True))

    @classmethod
    def from_mask(cls, n: int, keep: np.ndarray) -> "OrderingSet":
        """The ranks where a length-n! boolean mask is True, gathered
        ROW_CHUNK mask entries at a time, so the members array is the only
        large array it makes."""
        size = group_order(n)
        if not isinstance(keep, np.ndarray) or keep.dtype != bool or keep.shape != (size,):
            raise ValueError(f"the mask must be a 1-D bool array of length {size}")
        ranks = np.empty(np.count_nonzero(keep), dtype=np.int32)
        filled = 0
        for rows in row_chunks(len(keep)):
            found = np.flatnonzero(keep[rows])
            found += rows.start
            ranks[filled : filled + len(found)] = found
            filled += len(found)
        ranks.setflags(write=False)
        return cls(n, ranks)

    @classmethod
    def full_group(cls, n: int) -> "OrderingSet":
        ranks = np.arange(group_order(n), dtype=np.int32)
        ranks.setflags(write=False)
        return cls(n, ranks)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.members, other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.members.tobytes()))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, rank: int) -> bool:
        # The key takes the members' dtype, which holds every rank of S_n:
        # a Python int key would make searchsorted copy them to int64.
        if not (is_integer(rank) and 0 <= rank < group_order(self.n)):
            return False
        i = np.searchsorted(self.members, np.int32(rank))
        return bool(i < len(self.members) and self.members[i] == rank)

    @cached_property
    def profile(self) -> IntersectionProfile:
        """:func:`snfair.intersecting.intersection_profile` of this set."""
        # Imported here: intersecting imports this module.
        from .intersecting import intersection_profile

        return intersection_profile(self)

    def matrix(self) -> np.ndarray:
        """Members as one-line words, one row per member (int8)."""
        return words(self.n, self.members)
