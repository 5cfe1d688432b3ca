"""Pairwise-agreement structure of ordering sets.

Two orderings agree at slot i when they place the same item there.  The
intersection level of a set is the minimum agreement count over all
unordered pairs of distinct members; a singleton agrees with itself
everywhere and gets level n by convention.  Sets that pin specific items
to specific slots ("stabilizer" sets) are the canonical high-agreement
examples: t pinned slots leave (n - t)! members all sharing those slots.

The scan is exact and stops as soon as the answer is known.  Every pair
agrees on the slots all members share, so their number (the floor) is a
lower bound on the level.  Member 0 is compared with all the others
first, in O(m n), reading the members' words one block at a time from
:func:`snfair.permutations.word_blocks`, which builds them from the S_8
table above n = 8.  The pass ends at the first block that holds a
member agreeing with member 0 nowhere: then no slot is shared and the
level is 0, whatever the rest holds.  The pass alone reaches the floor
for stabilizer sets, the full group and every admissible set whose
majority graph orders all its components (as a tournament's does): such
a set permutes the items of each component freely, and every component
of two or more items has a derangement.  Otherwise the remaining pairs are compared in square
tiles of TILE x TILE members: with each word one-hot encoded as n^2
(slot, item) float32 entries, the product of a row tile and a column
tile counts agreements exactly, and the scan stops after the first tile
that brings the minimum down to the floor.  Each tile's words are read
as it comes, so the scan holds no copy of the members' words, nor any
table of S_n above n = 8: its memory is one block, or one tile, beyond
the set's ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import EmptySetError
from .permutations import group_order, is_integer, word_blocks, words
from .sets import OrderingSet

# Rows and columns of one agreement tile: a 1024 x 1024 float32 product is 4 MB.
TILE = 1024


@dataclass(frozen=True)
class IntersectionProfile:
    """Agreement statistics of an ordering set."""

    t_max: int
    common_pairs: tuple[tuple[int, int], ...]
    size_gate: bool  # the set has at least (n - t_max)! members


def intersection_profile(members: OrderingSet) -> IntersectionProfile:
    """Minimum pairwise agreement, slots shared by all members, size gate."""
    m = len(members)
    if m == 0:
        raise EmptySetError("intersection profile of the empty set is undefined")
    n = members.n
    ranks = members.members
    first = words(n, ranks[:1])[0]

    # Member 0 against every member, itself included: it agrees with
    # itself at all n slots, the level's starting value.
    shared = np.ones(n, dtype=bool)
    t_max = n
    for _, block in word_blocks(n, ranks):
        agree = block == first
        shared &= agree.all(axis=0)
        t_max = min(t_max, int(agree.sum(axis=1).min()))
        if t_max == 0:  # a member shares no slot with member 0, so no slot is common
            break
    common_pairs = tuple((int(i) + 1, int(first[i])) for i in np.nonzero(shared)[0])
    floor = len(common_pairs)

    if t_max > floor:
        t_max = _tiled_minimum(n, ranks, t_max, floor)

    gate = m >= factorial(n - t_max)
    return IntersectionProfile(t_max=t_max, common_pairs=common_pairs, size_gate=gate)


def _tiled_minimum(n: int, ranks: np.ndarray, t_max: int, floor: int) -> int:
    """min(t_max, agreement of members i < j with i >= 1), stopping at floor.

    A tile may also hold (j, i) or (i, i), which add nothing below the
    true minimum.
    """
    m = len(ranks)
    for r0 in range(1, m - 1, TILE):
        rows = _one_hot(words(n, ranks[r0 : r0 + TILE]))
        for c0 in range(r0, m, TILE):
            cols = _one_hot(words(n, ranks[c0 : c0 + TILE]))
            t_max = min(t_max, int((rows @ cols.T).min()))
            if t_max == floor:
                return t_max
    return t_max


def _one_hot(words: np.ndarray) -> np.ndarray:
    """Rows of n^2 float32 (slot, item) indicators, one per word."""
    k, n = words.shape
    hot = words[:, :, None] == np.arange(1, n + 1, dtype=words.dtype)
    return hot.reshape(k, n * n).astype(np.float32)


def stabilizer_set(n: int, pairs) -> OrderingSet:
    """All orderings placing item j at slot i for every (i, j) pair given.

    Distinct slots must get distinct items, all in 1..n; the result has
    (n - t)! members for t pairs.  This is the one check of position pins:
    each junta term's indicator is that of its stabilizer set.
    """
    pairs = [tuple(pair) for pair in pairs]
    for pair in pairs:
        if not all(map(is_integer, pair)):
            raise ValueError(f"pair {pair!r} must hold two integers")
    pairs = [(int(i), int(j)) for i, j in pairs]
    if not pairs:
        return OrderingSet.full_group(n)
    slots = [i for i, _ in pairs]
    items = [j for _, j in pairs]
    if len(set(slots)) != len(slots) or len(set(items)) != len(items):
        raise ValueError(f"slots and items must each be distinct: {pairs!r}")
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"pair ({i}, {j}) outside 1..{n}")
    keep = np.ones(group_order(n), dtype=bool)
    for rows, block in word_blocks(n):
        part = keep[rows]
        for i, j in pairs:
            part &= block[:, i - 1] == j
    return OrderingSet.from_mask(n, keep)
