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

This module alone knows how S_n is sized and walked.  Every n!-sized
array takes its length from :func:`group_order`, which caps exhaustive
enumeration at n <= 10, the package's one size limit (see its docstring
for the memory cost).  Every scan over S_n reads its one-line words from
one loop, :func:`word_blocks`, in blocks of at most ROW_CHUNK = 4096
rows.  The m! ranks that share their first n - m letters, for
m = min(n - 1, WORD_TABLE_N) = min(n - 1, 8) (1 at n = 1), take the rest
from the cached table of S_m (:func:`group_matrix`, 322 KB at m = 8),
relabelled, and each block's words are built on demand in buffers of
ROW_CHUNK rows, so no process holds a table of S_9 or S_10.  The same
loop builds the tables: the table of S_n is the walk of S_n gathered
by :func:`words`, so the tables of S_1 to S_8 form a chain, 363 KB in
all.  Scans that would otherwise make n!-row temporaries (ranking
words, the FFT's coset order among them, the CFMM and liquidation
payoffs, admissible and stabilizer sets, agreement profiles) thus hold
a few ROW_CHUNK x n arrays, about 1 MB at n = 10, and each row goes
through the same operations in the same order as in one whole-array
pass, so every value comes out the same.  :func:`words` gathers the
blocks into one array for the callers that need one.
Every input becomes a kept array here: :func:`typed_array` converts a
typed list once, :func:`owned_read_only` keeps or copies an array once,
and :func:`rank_array`, the one rank check, does both for ordering sets'
members and the ranks :func:`word_blocks` reads, keeping them as int32:
every rank array the package keeps is int32, since 10! < 2**31.  It
checks their order in slices of ROW_CHUNK ranks, so neither building a
set nor walking its members makes an m-sized temporary for m members.

Seeded values, for random payoffs, votes and the verify suites' cases,
all come from :func:`seeded`, and uniform floats from :func:`uniform`,
which draws them ROW_CHUNK at a time.  The command line's JSON writer
streams arrays in :func:`row_chunks` of the same size.

:func:`lehmer_unrank` and :func:`enumerate_group` build one element at
a time, in pure Python, and no scan calls them.  They stay public as
reference oracles: the tests check ranks and words against them, and
compare the payoff, Fourier and Cayley layers with per-element
computations over them.
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

# Largest n whose whole word table group_matrix caches; word_blocks
# builds each group's words from the table one size down, or this one.
WORD_TABLE_N = 8

# Rows per block of every loop over S_n or an n!-sized array: word_blocks,
# rank_array's order check, uniform, OrderingSet.from_mask and the CLI's
# JSON writer.  A scan's temporaries are a few ROW_CHUNK x n arrays at any n.
ROW_CHUNK = 4096


def row_chunks(start: int, stop: int | None = None):
    """Consecutive slices of at most ROW_CHUNK rows that cover range(start, stop),
    or range(start) when stop is None."""
    if stop is None:
        start, stop = 0, start
    for first in range(start, stop, ROW_CHUNK):
        yield slice(first, min(first + ROW_CHUNK, stop))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in 1-based one-line notation."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if n == 0:
            raise ValueError("permutation must act on at least one point")
        if not all(map(is_integer, self.mapping)):
            raise ValueError(f"entries must be integers, got {self.mapping!r}")
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.mapping!r}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if not is_integer(n):
            raise ValueError(f"n must be an integer, got {n!r}")
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
    of words an owned array of ranks, in one pass whose temporaries take
    about 2 * rows * n bytes for int8 words (70 MB for all of S_10; the
    scans pass one block of :func:`word_blocks`, 80 KB at n = 10).  Only
    the length is checked: ranks past 20 letters overflow int64.  The
    ranks stay int64, as :meth:`Permutation.rank` takes up to 20 letters;
    each caller that keeps ranks of S_n for n <= 10 casts a block to
    int32, the package's one rank dtype, as it stores it.
    """
    w = np.asarray(words)
    n = w.shape[-1]
    if n > 20:
        raise OverflowError(f"ranks of {n}-letter words do not fit in int64")
    ranks = np.zeros(w.shape[:-1], dtype=np.int64)
    rank = ranks.reshape(-1)
    # One contiguous row per slot: S_10 in 0.11 s, not 1.2 s as columns.
    slots = w.reshape(-1, n).T.copy()
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
    group_order(n)
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, a float, a string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def all_of(items, kinds) -> bool:
    """True when every item is an instance of `kinds` and none is a bool,
    checked once per distinct element type: numpy would take True for 1."""
    return all(issubclass(kind, kinds) and kind is not bool for kind in set(map(type, items)))


def typed_array(items, kinds, dtype, mistyped: str, past_range: str) -> np.ndarray:
    """A list or tuple as a read-only `dtype` array, converted once.  Raises
    ValueError(mistyped) unless each item is one of `kinds` and no bool (numpy
    reads True as 1), and ValueError(past_range) for an int `dtype` cannot hold."""
    if not all_of(items, kinds):
        raise ValueError(mistyped)
    try:
        out = np.array(items, dtype=dtype)
    except OverflowError:
        raise ValueError(past_range) from None
    out.setflags(write=False)
    return out


def owned_read_only(raw, dtype=None) -> np.ndarray:
    """`raw` as a read-only array, kept as given when it is one that owns
    its memory (and has the dtype), else converted or copied once."""
    owned = isinstance(raw, np.ndarray) and raw.base is None and not raw.flags.writeable
    out = np.asarray(raw, dtype=dtype) if owned else np.array(raw, dtype=dtype)
    out.setflags(write=False)
    return out


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

    The words come ROW_CHUNK at a time (32 KB) from one getrandbits call,
    which fills 32-bit words in order from the least significant, so the
    values do not depend on the chunk size.
    """
    out = np.empty(size)
    for rows in row_chunks(size):
        count = rows.stop - rows.start
        raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        np.multiply(np.frombuffer(raw, dtype="<u8") >> 11, 2.0**-53, out=out[rows])
    return out


def group_order(n: int) -> int:
    """n! for an integer n in 1..MAX_ENUMERABLE_N; any other n is rejected.

    The package's only size limit: every array of size n! takes its
    length from here, so the check runs before anything of that size is
    allocated.  At the cap, one transform and inverse of a dense n = 10
    payoff peak at 296 MB resident (whole process, measured with
    getrusage on a 2-core Intel Xeon, numpy float64, glibc's default
    allocator settings) and take about 2.4 s;
    the README lists what whole ``snfair`` commands peak at.
    """
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ENUMERABLE_N:
        raise CapacityError(
            f"exhaustive enumeration capped at n <= {MAX_ENUMERABLE_N}, got n = {n}"
        )
    return factorial(n)


def rank_array(n: int, raw, sort: bool = False) -> np.ndarray:
    """Strictly increasing ranks of S_n as a read-only int32 array (by
    :func:`typed_array` and :func:`owned_read_only`) from a list, tuple, 1-D
    integer or empty array; `sort` sorts and drops repeats before the check.

    int32 is the package's one rank dtype: 10! < 2**31, so every rank of
    S_n for n <= MAX_ENUMERABLE_N fits.  A list is converted straight to
    int32.  An array is checked in its own dtype and then converted, so no
    value is wrapped into range.  The order is checked in :func:`row_chunks`
    of the ranks, each slice against the ranks one position back, so the
    check's temporary is a ROW_CHUNK-byte mask, not one byte per rank
    (0.35 MiB for all of S_9, 3.5 MiB for S_10), and the re-check of a kept
    array on every :func:`word_blocks` walk allocates nothing m-sized.  With
    `sort`, the sort, its de-duplication mask and the compacted copy are
    each m-sized.
    """
    size = group_order(n)
    mistyped = "members must be a 1-D sequence of integer ranks"
    outside = f"members must be strictly increasing ranks in [0, {size})"
    if isinstance(raw, (list, tuple)):
        try:
            raw = typed_array(raw, (int, np.integer), np.int32, mistyped, outside)
        except ValueError as exc:
            # A rank past int32 is past every n!, and one past int64 is mistyped.
            if exc.args == (outside,):
                typed_array(raw, (int, np.integer), np.int64, mistyped, mistyped)
            raise
    raw = np.asarray(raw)
    if raw.ndim != 1 or raw.size and raw.dtype.kind not in "iu":
        raise ValueError(mistyped)
    if sort:  # not np.unique, whose first call imports numpy.ma (over 1 MB resident)
        raw = np.sort(raw)
        keep = np.ones(raw.shape, dtype=bool)
        keep[1:] = raw[1:] != raw[:-1]
        raw = raw[keep]
        raw.setflags(write=False)
    # Each slice against the ranks one position back, so a pair across a seam counts too.
    falls = (raw[rows] <= raw[rows.start - 1 : rows.stop - 1] for rows in row_chunks(1, raw.size))
    if raw.size and (raw[0] < 0 or raw[-1] >= size or any(fall.any() for fall in falls)):
        raise ValueError(outside)
    return owned_read_only(raw, np.int32)


def word_blocks(n: int, ranks=None):
    """Yield (rows, words) for the one-line words of S_n, at most ROW_CHUNK
    rows at a time.

    `ranks` are an ordering set's members, as :func:`rank_array` checks
    them, or None for all of S_n.  With m = min(n - 1, WORD_TABLE_N) (1 at
    n = 1), the m! ranks that share the q-th (n - m)-letter prefix form
    prefix block q: rank q * m! + s is that prefix, then row s of
    group_matrix(m) relabelled onto the letters the prefix leaves free
    (t += t >= a for each prefix letter a, smallest first).  `words` are the
    int8 rows of positions `rows`, a slice of `ranks` (of range(n!) for a
    full walk), taken ROW_CHUNK at a time from the start of each prefix
    block; prefix blocks that hold none of `ranks` are skipped.  Each
    block's words overwrite the last one's in buffers of ROW_CHUNK rows.
    """
    size = group_order(n)
    n = int(n)  # itertools.permutations takes only a Python int
    table = group_matrix(max(1, min(n - 1, WORD_TABLE_N)))
    stride, m = table.shape
    head = n - m
    if ranks is None:
        count, q0, q1 = size, 0, None
    else:
        ranks = rank_array(n, ranks)
        count = len(ranks)
        q0, q1 = (int(ranks[0]) // stride, int(ranks[-1]) // stride + 1) if count else (0, 0)
    out = np.empty((min(count, ROW_CHUNK), n), dtype=np.int8)
    # Each row's last m letters as one unaligned m-byte field, so that a
    # block is written one row per element rather than one letter.
    field = {"names": ["tail"], "formats": [f"V{m}"], "offsets": [head], "itemsize": n}
    tails = out.view(np.dtype(field))["tail"][:, 0]
    buf = np.empty((len(out), m), dtype=np.int8)
    above = np.empty(buf.shape, dtype=bool)
    prefixes = itertools.islice(itertools.permutations(range(1, n + 1), head), q0, q1)
    for q, prefix in enumerate(prefixes, q0):
        base = q * stride
        if ranks is None:
            span = (base, base + stride)
        else:
            # Keys in the ranks' dtype: int64 keys would copy the ranks to int64.
            span = np.searchsorted(ranks, np.array((base, base + stride), dtype=ranks.dtype))
        # Column by column: broadcasting the prefix tuple is 10x slower.
        for slot, letter in enumerate(prefix):
            out[:, slot] = letter
        letters = sorted(prefix)
        for rows in row_chunks(*span):
            k = rows.stop - rows.start
            tail, mask = buf[:k], above[:k]
            if ranks is None:
                np.copyto(tail, table[rows.start - base : rows.stop - base])
            else:
                # "clip" never clips (the span keeps every index in [0, stride))
                # but, unlike "raise", writes straight into `tail` unbuffered.
                np.take(table, ranks[rows] - base, axis=0, out=tail, mode="clip")
            for letter in letters:
                np.greater_equal(tail, letter, out=mask)
                tail += mask.view(np.int8)
            tails[:k] = tail.view(tails.dtype)[:, 0]
            yield rows, out[:k]


def words(n: int, ranks=None) -> np.ndarray:
    """int8 one-line words of strictly increasing ranks of S_n, or of all of
    S_n for None, from :func:`word_blocks`."""
    size = group_order(n)  # n sizes the array, so it is checked first
    out = np.empty((size if ranks is None else np.size(ranks), n), dtype=np.int8)
    for rows, block in word_blocks(n, ranks):
        out[rows] = block
    return out


@lru_cache(maxsize=WORD_TABLE_N)
def group_matrix(n: int) -> np.ndarray:
    """All of S_n for n <= WORD_TABLE_N as an int8 array of shape (n!, n),
    row r = word of rank r: ``[[1]]`` at n = 1, else ``words(n)``, the
    walk that reads the S_{n-1} table, so the tables build as a chain.
    Larger groups' words come from :func:`word_blocks`.

    Cached and marked read-only; shared freely across callers.
    """
    group_order(n)
    if n > WORD_TABLE_N:
        raise ValueError(
            f"the word table is built only up to n = {WORD_TABLE_N}, got n = {n}; "
            "read larger groups' words with word_blocks(n, ranks)"
        )
    mat = words(n) if n > 1 else np.ones((1, 1), dtype=np.int8)
    mat.setflags(write=False)
    return mat
