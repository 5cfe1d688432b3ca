"""Elements of the symmetric group S_n and dense indexing of the group.

Conventions used throughout the package:

- One-line notation is 1-based: ``Permutation((2, 1, 3))`` maps 1 -> 2,
  2 -> 1, 3 -> 3, i.e. ``mapping[i - 1] == p(i)``.
- Composition is function composition with the right factor applied
  first: ``(p * q)(i) == p(q(i))``.
- The dense index ("rank") of a permutation is its position in the
  lexicographic enumeration of one-line words, computed through the
  Lehmer code / factorial number system.  ``rank(identity) == 0`` and
  ``rank == factorial(n) - 1`` for the order-reversing word.

Exhaustive enumeration is capped at n <= 10 by :func:`check_enumerable`,
the package's one size limit (see its docstring for the memory cost).
Scans that would otherwise make n!-row temporaries (ranking words, the
FFT's coset order among them, the CFMM and liquidation payoffs,
admissible and stabilizer sets, agreement profiles) take the rows
:data:`ROW_CHUNK` at a time (:func:`row_chunks`).  Their temporaries
then stay a few MB at any n, and each row goes through the same
operations in the same order as in one whole-array pass, so every value
comes out the same.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapacityError

MAX_ENUMERABLE_N = 10

# Rows per chunk of a scan over S_n: one float64 per entry of 65536
# ten-item words is 5 MB.
ROW_CHUNK = 65536


def row_chunks(rows: int):
    """Consecutive slices of at most ROW_CHUNK rows that cover range(rows)."""
    for start in range(0, rows, ROW_CHUNK):
        yield slice(start, min(start + ROW_CHUNK, rows))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in 1-based one-line notation."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if n == 0:
            raise ValueError("permutation must act on at least one point")
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.mapping!r}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """The permutation exchanging points i and j, fixing the rest."""
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"need two distinct points in 1..{n}, got {i}, {j}")
        word = list(range(1, n + 1))
        word[i - 1], word[j - 1] = j, i
        return cls(tuple(word))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"point {i} outside 1..{self.n}")
        return self.mapping[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self o other, with other applied first."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.mapping[v - 1] for v in other.mapping))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.mapping):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def rank(self) -> int:
        """Position in the lexicographic enumeration of S_n (0-based)."""
        return int(rank_of_word(self.mapping))


def rank_of_word(words) -> np.ndarray:
    """Lehmer ranks of 1-based one-line words along the last axis.

    Digit i counts the later entries smaller than entry i, and the digits
    are summed in Horner form.  A single word gives a 0-d array, a stack
    of words an owned array of ranks, ranked ROW_CHUNK words at a time.
    Only the length is checked: ranks past 20 letters overflow int64.
    """
    w = np.asarray(words)
    n = w.shape[-1]
    if n > 20:
        raise OverflowError(f"ranks of {n}-letter words do not fit in int64")
    stack = w.reshape(-1, n)
    ranks = np.zeros(w.shape[:-1], dtype=np.int64)
    flat = ranks.reshape(-1)
    for rows in row_chunks(len(stack)):
        # One contiguous row per slot: S_10 in 0.11 s, not 1.2 s as columns.
        slots = stack[rows].T.copy()
        rank = flat[rows]
        for i in range(n):
            rank *= n - i
            rank += (slots[i + 1 :] < slots[i]).sum(0, dtype=np.int8)
    return ranks


def lehmer_unrank(n: int, r: int) -> Permutation:
    """Inverse of Permutation.rank for the group S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= r < factorial(n):
        raise IndexError(f"rank {r} outside [0, {n}!)")
    available = list(range(1, n + 1))
    word = []
    for i in range(n):
        base = factorial(n - 1 - i)
        digit, r = divmod(r, base)
        word.append(available.pop(digit))
    return Permutation(tuple(word))


def enumerate_group(n: int):
    """Yield every element of S_n in lexicographic (rank) order."""
    check_enumerable(n)
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, a float, a string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_enumerable(n: int) -> None:
    """Reject group sizes that are not integers in 1..MAX_ENUMERABLE_N.

    The package's only size limit: payoffs, ordering sets and the group
    index check it before allocating anything of size n!.  At the cap,
    one transform and inverse of a dense n = 10 payoff peak at 345 MB
    resident (whole process, measured with getrusage on a 2-core Intel
    Xeon, numpy float64) and take about 2 s.  Whole ``snfair`` commands
    at n = 10 on that machine: ``simulate --latency adversarial_cycle``
    peaks at 99 MB, ``gen-payoff --model random`` at 90 MB, ``--model
    cfmm`` at 135 MB, ``--model liquidation`` at 120 MB, ``transform``
    at 290 MB, ``analyze`` of a CFMM payoff on all 3628800 orders at
    440 MB, and ``verify --suite claim1`` and ``--suite uncertainty`` at
    509 and 327 MB.
    """
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ENUMERABLE_N:
        raise CapacityError(
            f"exhaustive enumeration capped at n <= {MAX_ENUMERABLE_N}, got n = {n}"
        )


@lru_cache(maxsize=8)
def group_matrix(n: int) -> np.ndarray:
    """All of S_n as an int8 array of shape (n!, n), row r = word of rank r.

    Cached and marked read-only; shared freely across callers.
    """
    check_enumerable(n)
    mat = np.empty((factorial(n), n), dtype=np.int8)
    # The top k! rows of the last k columns hold S_k on 1..k.  S_{k+1} is
    # k + 1 blocks of k! rows: block a puts a in the new column and S_k
    # relabelled to skip a beside it.  Block 1 is the source itself,
    # relabelled in place once the others are written.  Every step writes
    # straight into the array, so the build makes no temporaries.
    mat[0, n - 1] = 1
    for k in range(1, n):
        size = factorial(k)
        src = mat[:size, n - k :]
        for a in range(k + 1, 1, -1):
            block = mat[(a - 1) * size : a * size]
            block[:, n - k - 1] = a
            dest = block[:, n - k :]
            np.greater_equal(src, a, out=dest)
            dest += src
        mat[:size, n - k - 1] = 1
        src += 1
    mat.setflags(write=False)
    return mat
