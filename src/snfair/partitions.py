"""Integer partitions, standard Young tableaux, and irreducible dimensions.

Partitions are tuples of weakly decreasing positive parts.  The canonical
ordering of the partitions of n is descending-lexicographic on the full
tuple, which sorts first by decreasing largest part:

    (4) > (3, 1) > (2, 2) > (2, 1, 1) > (1, 1, 1, 1)

Dimensions come from the hook length formula in exact integer arithmetic.
Standard tableaux of a shape are enumerated in last-letter order: tableaux
are compared by the row index of n, then of n - 1, and so on.  This order
makes the restriction from S_n to S_{n-1} block-structured, and it fixes
the basis used by the representation matrices.

The cached helpers here and in :mod:`snfair.representations` check their
arguments' types before the cache lookup (:func:`checked_cache`): the
cache compares keys by value, so ``(2, True)`` would find the entry of
``(2, 1)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from math import factorial, prod

import numpy as np

from .permutations import all_of, is_integer


def checked_cache(check, maxsize: int):
    """lru_cache(maxsize) behind `check`, which is called with the same
    arguments before every lookup and raises on a mistyped one."""

    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def checked(*args, **kwargs):
            check(*args, **kwargs)
            return cached(*args, **kwargs)

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return decorate


def _check_count(n: int) -> None:
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")


def _check_parts(shape: tuple[int, ...]) -> None:
    """A shape's types, checked before a cache lookup; its values are
    checked on a miss, as equal keys share one verdict."""
    if type(shape) is not tuple or not all_of(shape, (int, np.integer)):
        raise ValueError(f"a shape must be a tuple of integers, got {shape!r}")


def _check_shape(shape: tuple[int, ...]) -> None:
    if len(shape) == 0:
        raise ValueError("empty shape")
    if any(p < 1 for p in shape):
        raise ValueError(f"parts must be positive: {shape!r}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {shape!r}")


@checked_cache(_check_count, maxsize=64)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in descending-lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(gen(n, n))


@checked_cache(_check_parts, maxsize=4096)
def dimension(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shape (hook length formula, exact)."""
    _check_shape(shape)
    n = sum(shape)
    hooks = []
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            arm = row_len - j - 1
            leg = sum(1 for r in shape[i + 1 :] if r > j)
            hooks.append(arm + leg + 1)
    num, denom = factorial(n), prod(hooks)
    assert num % denom == 0
    return num // denom


@dataclass(frozen=True)
class StandardTableau:
    """A standard Young tableau: rows increase left-to-right, columns downward."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def position(self, value: int) -> tuple[int, int]:
        """(row, column) of a value, 0-based."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v == value:
                    return (i, j)
        raise IndexError(f"value {value} not in tableau")

    def swap(self, k: int) -> "StandardTableau":
        """Exchange the entries k and k + 1 (caller guarantees validity)."""
        sub = {k: k + 1, k + 1: k}
        return StandardTableau(
            tuple(tuple(sub.get(v, v) for v in row) for row in self.rows)
        )

    def last_letter_key(self) -> tuple[int, ...]:
        """Row indices of n, n-1, ..., 1; sorting by this gives last-letter order."""
        row_of = {}
        for i, row in enumerate(self.rows):
            for v in row:
                row_of[v] = i
        return tuple(row_of[v] for v in range(self.n, 0, -1))


@checked_cache(_check_parts, maxsize=1024)
def standard_tableaux(shape: tuple[int, ...]) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the shape, in last-letter order."""
    _check_shape(shape)
    n = sum(shape)
    out: list[StandardTableau] = []
    rows = [[] for _ in shape]

    def place(value: int) -> None:
        if value > n:
            out.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for i, row in enumerate(rows):
            j = len(row)
            if j >= shape[i]:
                continue
            # cell (i, j) is addable iff the cell above is already filled
            if i > 0 and len(rows[i - 1]) <= j:
                continue
            row.append(value)
            place(value + 1)
            row.pop()

    place(1)
    out.sort(key=StandardTableau.last_letter_key)
    return tuple(out)
