"""Sets of orderings, stored as read-only arrays of sorted dense ranks.

An :class:`OrderingSet` holds its members as one read-only int64 array of
strictly increasing Lehmer ranks, so indicator payoffs, word matrices
and payoff restrictions index with it directly, and membership is a
binary search in it; the rows of :meth:`OrderingSet.matrix` are the
members' one-line words.  It keeps its agreement `profile`,
scanned on first use.

The members array is made at most once.  A read-only int64 array that
owns its memory is kept as given: nothing can write to it without first
clearing its read-only flag, as is true of any array the set keeps.  A
list is typed (integers, no bools) and converted once; any other input
(a writable array, a view that a writable array may alias, another
dtype) is copied once, so later writes by the caller cannot reach the
set.  Payoffs and spectra keep their arrays by the same rule,
:func:`owned_read_only`.  :meth:`OrderingSet.from_ranks`,
:meth:`OrderingSet.from_mask` and :meth:`OrderingSet.full_group` build
their rank arrays themselves and hand them over that way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .permutations import all_of, group_order, row_chunks, words

if TYPE_CHECKING:
    from .intersecting import IntersectionProfile


def _rank_array(raw) -> np.ndarray:
    """`raw` as a 1-D integer array, typed first if a list (numpy reads True as 1)."""
    if not isinstance(raw, (list, tuple)):
        raw = np.asarray(raw)
    elif all_of(raw, (int, np.integer)):
        try:
            raw = np.array(raw, dtype=np.int64)
            raw.setflags(write=False)  # so that owned_read_only keeps it
        except OverflowError:  # a rank past int64: the list is rejected below
            pass
    if not isinstance(raw, np.ndarray) or raw.ndim != 1 or raw.size and raw.dtype.kind not in "iu":
        raise ValueError("members must be a 1-D sequence of integer ranks")
    return raw


def owned_read_only(raw, dtype=None) -> np.ndarray:
    """`raw` as a read-only array, kept as given when it is one that owns
    its memory (and has the dtype), else converted or copied once."""
    owned = isinstance(raw, np.ndarray) and raw.base is None and not raw.flags.writeable
    out = np.asarray(raw, dtype=dtype) if owned else np.array(raw, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OrderingSet:
    """A subset of S_n given by strictly increasing Lehmer ranks."""

    n: int
    members: np.ndarray

    def __post_init__(self) -> None:
        size = group_order(self.n)
        ranks = owned_read_only(_rank_array(self.members), np.int64)
        if ranks.size and (ranks[0] < 0 or ranks[-1] >= size or np.any(ranks[1:] <= ranks[:-1])):
            raise ValueError(f"members must be strictly increasing ranks in [0, {size})")
        object.__setattr__(self, "members", ranks)

    @classmethod
    def from_ranks(cls, n: int, ranks) -> "OrderingSet":
        """The set of the given ranks, in any order and with repeats."""
        ranks = np.sort(_rank_array(ranks).astype(np.int64, copy=False))
        keep = np.ones(ranks.shape, dtype=bool)
        keep[1:] = ranks[1:] != ranks[:-1]
        ranks = ranks[keep]
        ranks.setflags(write=False)
        return cls(n, ranks)

    @classmethod
    def from_mask(cls, n: int, keep: np.ndarray) -> "OrderingSet":
        """The ranks where a length-n! boolean mask is True, gathered
        ROW_CHUNK mask entries at a time, so the members array is the only
        large array it makes."""
        size = group_order(n)
        if not isinstance(keep, np.ndarray) or keep.dtype != bool or keep.shape != (size,):
            raise ValueError(f"the mask must be a 1-D bool array of length {size}")
        ranks = np.empty(np.count_nonzero(keep), dtype=np.int64)
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
        ranks = np.arange(group_order(n))
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
        i = np.searchsorted(self.members, rank)
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
