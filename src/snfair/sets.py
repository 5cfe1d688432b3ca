"""Sets of orderings, stored as read-only arrays of sorted dense ranks.

An :class:`OrderingSet` holds its members as one read-only int64 array of
strictly increasing Lehmer ranks, so masks, word matrices and payoff
restrictions index with it directly; the rows of :meth:`OrderingSet.matrix`
are the members' one-line words.  It keeps its agreement `profile`,
scanned on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import TYPE_CHECKING

import numpy as np

from .permutations import check_enumerable, group_matrix

if TYPE_CHECKING:
    from .intersecting import IntersectionProfile


@dataclass(frozen=True, eq=False)
class OrderingSet:
    """A subset of S_n given by strictly increasing Lehmer ranks."""

    n: int
    members: np.ndarray

    def __post_init__(self) -> None:
        check_enumerable(self.n)
        size = factorial(self.n)
        raw = np.asarray(self.members)
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
            raise ValueError("members must be a 1-D sequence of integer ranks")
        ranks = raw.astype(np.int64)
        if ranks.size and (
            ranks[0] < 0 or ranks[-1] >= size or np.any(ranks[1:] <= ranks[:-1])
        ):
            raise ValueError(
                f"members must be strictly increasing ranks in [0, {size})"
            )
        ranks.setflags(write=False)
        object.__setattr__(self, "members", ranks)

    @classmethod
    def from_ranks(cls, n: int, ranks) -> "OrderingSet":
        ranks = np.sort(np.asarray(ranks, dtype=np.int64))
        keep = np.ones(ranks.shape, dtype=bool)
        keep[1:] = ranks[1:] != ranks[:-1]
        return cls(n, ranks[keep])

    @classmethod
    def full_group(cls, n: int) -> "OrderingSet":
        check_enumerable(n)
        return cls(n, np.arange(factorial(n)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.members, other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.members.tobytes()))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, rank: int) -> bool:
        i = np.searchsorted(self.members, rank)
        return bool(i < len(self.members) and self.members[i] == rank)

    @cached_property
    def profile(self) -> IntersectionProfile:
        """:func:`snfair.intersecting.intersection_profile` of this set."""
        # Imported here: intersecting imports this module.
        from .intersecting import intersection_profile

        return intersection_profile(self)

    def mask(self) -> np.ndarray:
        """Dense boolean membership vector of length n!."""
        out = np.zeros(factorial(self.n), dtype=bool)
        out[self.members] = True
        return out

    def matrix(self) -> np.ndarray:
        """Members as one-line words, one row per member (int8)."""
        return group_matrix(self.n)[self.members]
