"""Sets of orderings, stored as sorted dense ranks."""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .permutations import Permutation, check_enumerable, group_matrix, lehmer_unrank


@dataclass(frozen=True)
class OrderingSet:
    """A subset of S_n given by strictly increasing Lehmer ranks."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        check_enumerable(self.n)
        size = factorial(self.n)
        prev = -1
        for r in self.members:
            if not prev < r < size:
                raise ValueError(
                    f"members must be strictly increasing ranks in [0, {size})"
                )
            prev = r

    @classmethod
    def from_ranks(cls, n: int, ranks) -> "OrderingSet":
        return cls(n, tuple(sorted(set(int(r) for r in ranks))))

    @classmethod
    def from_permutations(cls, perms) -> "OrderingSet":
        perms = list(perms)
        if not perms:
            raise ValueError("cannot infer n from an empty iterable")
        n = perms[0].n
        if any(p.n != n for p in perms):
            raise ValueError("mixed group sizes")
        return cls.from_ranks(n, (p.rank() for p in perms))

    @classmethod
    def full_group(cls, n: int) -> "OrderingSet":
        check_enumerable(n)
        return cls(n, tuple(range(factorial(n))))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, rank: int) -> bool:
        i = np.searchsorted(self.members, rank)
        return i < len(self.members) and self.members[i] == rank

    def mask(self) -> np.ndarray:
        """Dense boolean membership vector of length n!."""
        out = np.zeros(factorial(self.n), dtype=bool)
        if self.members:
            out[list(self.members)] = True
        return out

    def matrix(self) -> np.ndarray:
        """Members as one-line words, one row per member (int8, read-only rows)."""
        return group_matrix(self.n)[list(self.members)]

    def permutations(self) -> tuple[Permutation, ...]:
        return tuple(lehmer_unrank(self.n, r) for r in self.members)

    def to_dict(self) -> dict:
        return {"n": self.n, "members": [int(r) for r in self.members]}

    @classmethod
    def from_dict(cls, data: dict) -> "OrderingSet":
        return cls(int(data["n"]), tuple(int(r) for r in data["members"]))
