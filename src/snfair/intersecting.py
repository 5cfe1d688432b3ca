"""Pairwise-agreement structure of ordering sets.

Two orderings agree at slot i when they place the same item there.  The
intersection level of a set is the minimum agreement count over all
unordered pairs of distinct members; a singleton agrees with itself
everywhere and gets level n by convention.  Sets that pin specific items
to specific slots ("stabilizer" sets) are the canonical high-agreement
examples: t pinned slots leave (n - t)! members all sharing those slots.

The structural link verified here: once a set's size clears (n - t)!, its
indicator function must carry spectral mass at degree t or above.  The
degree of any function caps at n - 1, so the comparison level is clamped
there; the clamp only binds for singletons (any two distinct orderings
agree on at most n - 2 slots, hence non-singleton levels never exceed
n - 2), and a singleton's point-mass indicator has full spectrum anyway.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import EmptySetError
from .fourier import DEGREE_TOL, degree
from .payoffs import indicator_payoff
from .permutations import group_matrix
from .sets import OrderingSet


@dataclass(frozen=True)
class IntersectionProfile:
    """Agreement statistics of an ordering set."""

    t_max: int
    common_pairs: tuple[tuple[int, int], ...]
    size: int
    size_gate: bool  # size >= (n - t_max)!


def intersection_profile(members: OrderingSet) -> IntersectionProfile:
    """Minimum pairwise agreement, slots shared by all members, size gate."""
    m = len(members)
    if m == 0:
        raise EmptySetError("intersection profile of the empty set is undefined")
    n = members.n
    words = members.matrix()

    shared = np.all(words == words[0], axis=0)
    common_pairs = tuple(
        (int(i) + 1, int(words[0, i])) for i in np.nonzero(shared)[0]
    )

    t_max = n
    for i in range(m - 1):
        agree = (words[i + 1 :] == words[i]).sum(axis=1)
        t_max = min(t_max, int(agree.min()))
        if t_max == 0:
            break

    gate = m >= factorial(n - t_max)
    return IntersectionProfile(
        t_max=t_max, common_pairs=common_pairs, size=m, size_gate=gate
    )


@dataclass(frozen=True)
class IndicatorDegreeReport:
    """Measured agreement level versus the indicator's spectral degree."""

    t_max: int
    deg_indicator: int
    size_gate: bool
    claim_holds: bool


def verify_indicator_degree(
    members: OrderingSet, tol: float = DEGREE_TOL
) -> IndicatorDegreeReport:
    """Check that a large high-agreement set has a high-degree indicator.

    The comparison level is min(t_max, n - 1) because degrees cap at
    n - 1; the clamp only matters for singletons (see module docstring).
    Sets below the (n - t_max)! size gate satisfy the claim vacuously.
    """
    profile = intersection_profile(members)
    deg = degree(indicator_payoff(members), tol=tol)
    required = min(profile.t_max, members.n - 1)
    holds = (not profile.size_gate) or deg >= required
    return IndicatorDegreeReport(
        t_max=profile.t_max,
        deg_indicator=deg,
        size_gate=profile.size_gate,
        claim_holds=holds,
    )


def stabilizer_set(n: int, pairs) -> OrderingSet:
    """All orderings placing item j at slot i for every (i, j) pair given.

    Distinct slots must get distinct items; the result has (n - t)!
    members for t pairs.
    """
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
    perms = group_matrix(n)
    keep = np.ones(perms.shape[0], dtype=bool)
    for i, j in pairs:
        keep &= perms[:, i - 1] == j
    return OrderingSet.from_ranks(n, np.nonzero(keep)[0])
