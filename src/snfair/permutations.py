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
Every scan over S_n reads its one-line words from one source,
:func:`words`.  Up to n = WORD_TABLE_N = 8 that is the cached table of
all of S_n (:func:`group_matrix`, 322 KB at n = 8).  Above, the ranks
fall into blocks of 8! that share their first n - 8 letters, and each
block's words are built on demand from the S_8 table, so no process
holds an n! x n array.  Scans that would otherwise make n!-row
temporaries (ranking words, the FFT's coset order among them, the CFMM
and liquidation payoffs, admissible and stabilizer sets, agreement
profiles) take the rows :data:`ROW_CHUNK` = 8! at a time
(:func:`row_chunks`), one block per chunk.  Their temporaries then stay
a few MB at any n, and each row goes through the same operations in the
same order as in one whole-array pass, so every value comes out the same.

Seeded values, for random payoffs, votes and the verify suites' cases,
all come from :func:`seeded`, and uniform floats from :func:`uniform`,
which also draws them ROW_CHUNK at a time.

:func:`lehmer_unrank` and :func:`enumerate_group` build one element at
a time, in pure Python, and no scan calls them.  They stay public as
reference oracles: the tests check :func:`rank_of_word`, :func:`words`
and :meth:`Permutation.rank` against them, and compare the payoff,
Fourier and Cayley layers with per-element computations over them.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapacityError

MAX_ENUMERABLE_N = 10

# Largest n whose whole word table group_matrix builds; words builds
# larger groups' words from this table.
WORD_TABLE_N = 8

# Rows per chunk of a scan over S_n.  Above WORD_TABLE_N, a block is the
# 8! ranks that share their first n - 8 letters, whose words are one
# relabelled copy of the S_8 table; a chunk of 8! rows is exactly one
# block.  One float64 per entry of 40320 ten-item words is 3.2 MB.
ROW_CHUNK = factorial(WORD_TABLE_N)


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
    if not (is_integer(n) and is_integer(r)):
        raise ValueError(f"n and r must be integers, got {n!r} and {r!r}")
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


def seeded(seed) -> random.Random:
    """The package's one source of seeded values: CPython's Mersenne Twister.

    `seed` must be a non-negative Python or numpy integer.  random.Random
    itself would take a float, a string or a bool, and would seed -1 and
    1 alike.  numpy's own generators are not used: importing them loads
    OpenSSL and nine extension modules, 6 MB of resident memory.
    """
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return random.Random(int(seed))


def uniform(rng: random.Random, size: int) -> np.ndarray:
    """`size` float64 values in [0, 1) from `rng`, each (w >> 11) * 2**-53
    for the next 64-bit word w of its stream.

    The words come ROW_CHUNK at a time from one getrandbits call, which
    fills 32-bit words in order from the least significant, so the values
    do not depend on the chunk size.
    """
    out = np.empty(size)
    for rows in row_chunks(size):
        count = rows.stop - rows.start
        raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        np.multiply(np.frombuffer(raw, dtype="<u8") >> 11, 2.0**-53, out=out[rows])
    return out


def check_enumerable(n: int) -> None:
    """Reject group sizes that are not integers in 1..MAX_ENUMERABLE_N.

    The package's only size limit: payoffs, ordering sets and the group
    index check it before allocating anything of size n!.  At the cap,
    one transform and inverse of a dense n = 10 payoff peak at 303 MB
    resident (whole process, measured with getrusage on a 2-core Intel
    Xeon, numpy float64) and take 2.2-2.3 s.  Whole ``snfair`` commands
    at n = 10 on that machine: ``simulate --latency adversarial_cycle``
    peaks at 65 MB, ``gen-payoff --model random`` at 60 MB, ``--model
    cfmm`` at 68 MB, ``--model liquidation`` at 59 MB, ``transform``
    at 251 MB, ``analyze`` of a CFMM payoff on all 3628800 orders at
    368 MB, and ``verify --suite claim1`` and ``--suite uncertainty`` at
    433 and 287 MB.
    """
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ENUMERABLE_N:
        raise CapacityError(
            f"exhaustive enumeration capped at n <= {MAX_ENUMERABLE_N}, got n = {n}"
        )


def words(n: int, ranks) -> np.ndarray:
    """One-line words of the given ranks of S_n as int8 rows, one per rank.

    `ranks` is a slice of step 1 or a 1-D integer array of nondecreasing
    ranks (an ordering set's members are sorted).  Up to WORD_TABLE_N the
    rows are :func:`group_matrix`'s, a read-only view for a slice.  Above,
    rank r = q * 8! + s is the q-th (n - 8)-letter prefix in lexicographic
    order followed by row s of the S_8 table, relabelled in order onto the
    8 letters the prefix leaves free: t += t >= a for each prefix letter a,
    smallest first.  Each block's rows are copied into one contiguous
    buffer, reused from block to block, relabelled there and written out:
    beyond the result, a call holds one block's buffer at most.
    """
    check_enumerable(n)
    size = factorial(n)
    if isinstance(ranks, slice):
        start, stop, step = ranks.indices(size)
        if step != 1:
            raise ValueError(f"a slice of ranks must have step 1, got {step}")
        stop = max(start, stop)
        count, first, last = stop - start, start, stop - 1
    else:
        ranks = np.asarray(ranks)
        if ranks.ndim != 1 or ranks.dtype.kind not in "iu":
            raise ValueError("ranks must be a slice or a 1-D integer array")
        count = len(ranks)
        if count and (ranks[0] < 0 or ranks[-1] >= size or np.any(ranks[1:] < ranks[:-1])):
            raise ValueError(f"ranks must be nondecreasing and in [0, {size})")
        first, last = (int(ranks[0]), int(ranks[-1])) if count else (0, -1)
    if n <= WORD_TABLE_N:
        return group_matrix(n)[ranks]
    table, head = group_matrix(WORD_TABLE_N), n - WORD_TABLE_N
    block = len(table)
    out = np.empty((count, n), dtype=np.int8)
    # Each row's last 8 letters as one unaligned 8-byte field, so that a
    # block is written one row per element rather than one letter.
    field = {"names": ["tail"], "formats": [f"V{WORD_TABLE_N}"], "offsets": [head], "itemsize": n}
    tails = out.view(np.dtype(field))["tail"][:, 0]
    buf = np.empty((min(count, block), WORD_TABLE_N), dtype=np.int8)
    above = np.empty(buf.shape, dtype=bool)
    q0, q1 = first // block, last // block
    prefixes = itertools.islice(itertools.permutations(range(1, n + 1), head), q0, q1 + 1)
    for q, prefix in enumerate(prefixes, q0):
        base = q * block
        if isinstance(ranks, slice):
            i0, i1 = max(start, base) - start, min(stop, base + block) - start
            tail = buf[: i1 - i0]
            np.copyto(tail, table[start + i0 - base : start + i1 - base])
        else:
            i0, i1 = np.searchsorted(ranks, (base, base + block))
            tail = buf[: i1 - i0]
            np.take(table, ranks[i0:i1] - base, axis=0, out=tail)
        mask = above[: i1 - i0]
        for letter in sorted(prefix):
            np.greater_equal(tail, letter, out=mask)
            tail += mask.view(np.int8)
        for slot, letter in enumerate(prefix):
            out[i0:i1, slot] = letter
        tails[i0:i1] = tail.view(tails.dtype)[:, 0]
    return out


@lru_cache(maxsize=WORD_TABLE_N)
def group_matrix(n: int) -> np.ndarray:
    """All of S_n for n <= WORD_TABLE_N as an int8 array of shape (n!, n),
    row r = word of rank r; larger groups' words come from :func:`words`.

    Cached and marked read-only; shared freely across callers.
    """
    check_enumerable(n)
    if n > WORD_TABLE_N:
        raise ValueError(
            f"the word table is built only up to n = {WORD_TABLE_N}, got n = {n}; "
            "read larger groups' words with words(n, ranks)"
        )
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
