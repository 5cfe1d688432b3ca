"""Irreducible orthogonal representation matrices of S_n.

Young's orthogonal form over the standard-tableau basis in last-letter
order.  For the adjacent transposition (k, k+1) acting on a tableau T:

- k and k+1 in the same row    -> diagonal entry +1
- k and k+1 in the same column -> diagonal entry -1
- otherwise, with d = content(k+1) - content(k) (content = col - row):
  diagonal entry 1/d and off-diagonal sqrt(1 - 1/d^2) to the tableau
  with k and k+1 exchanged.

``adjacent_generator`` builds these matrices densely from
:class:`~snfair.partitions.StandardTableau` objects, and ``evaluate``
extends them to arbitrary permutations through an
adjacent-transposition factorization of the one-line word, so it is a
homomorphism for this package's composition convention:

    evaluate(shape, p * q) == evaluate(shape, p) @ evaluate(shape, q)

and every matrix is orthogonal with evaluate(shape, p).T equal to
evaluate(shape, p.inverse()).  The two are the independent oracle: the
transform below calls neither.

``fft`` computes F(shape) = sum_p f(p) * evaluate(shape, p) for every
shape by the coset recursion of M. Clausen (TCS 67, 1989) and D. Maslen
(Math. Comp. 67, 1998).  Each p in S_k is c_j * q with j = p(k), q fixing
k, and c_j = s_j s_{j+1} ... s_{k-1}.  Last-letter order makes the
restriction to S_{k-1} block diagonal (one block per shape mu left by
removing a corner, top row first), so

    F_k(shape) = sum_j evaluate(shape, c_j) @ (direct sum of F_{k-1,j}(mu))

with F_{k-1,j} the transform of q -> f(c_j * q).  Level k = 2..n builds
the S_k spectra of all n!/k! cosets at once, without ever forming the n!
representation matrices; a level holds its n! input and n! output floats
plus tensordot temporaries of at most n! each.  ``fft_adjoint`` is the
same recursion transposed, sum_shape <G(shape), evaluate(shape, p)>_F
for every p, which is the inverse transform for G = dim * F / n!.

The recursion's set-up uses no tableau objects and no dense generators:

- Generators.  A tableau is stored as its row word (entry v - 1 is the
  row of letter v), and a shape's words form a d x k int8 array built by
  the same corner recursion: the words of each corner shape mu, with the
  corner's row appended, one block per corner, top row first, which is
  last-letter order.  The same walk records each corner block's (mu,
  offset, dim), so ``_young`` is the one table of the blocks that the
  recursion contracts.  A generator has at most two nonzeros per row, so
  s_j is three (k - 1) x d arrays read at row j - 1: the diagonal, the
  partner tableau and the off-diagonal weight (0, partner = itself, when
  j and j + 1 share a row or column).  For j <= k - 2 the letters j and
  j + 1 lie inside mu, so these rows are the corner shapes' rows side by
  side, partners shifted by their block's offset.  Only s_{k-1} is
  computed, from the words, and its partners by one searchsorted on the
  words read as integers.
- Coset matrices.  evaluate(shape, c_j) is s_j applied to
  evaluate(shape, c_{j+1}) row by row, diag * M + weight * M[partner]:
  two products per entry where the dense product summed d of them.
- Coset order.  Digit k of rank r's position is #{i < k : w_i < w_k}
  for the word w of rank r, digit n - k of the reversed word's Lehmer
  code.  So the order is ``rank_of_word`` of the reversed words, ranked
  one block of ``word_blocks`` at a time into the one int32 order
  (13.8 MiB at n = 10, where int64 took 27.7 MiB), and it is an
  involution.  Both transforms index with it directly, never through
  ``np.take``, which would copy it to intp.

The per-shape row words and generators (O(k * d) numbers) and the per-n
rank-to-coset-digit index are cached read-only arrays, safe to share
across threads.  So are the coset matrices of shapes with at most
_CACHED_LEVEL boxes, k * d^2 floats per shape.  A larger shape's coset
matrices are built when a pass reaches its level and dropped after that
shape's contraction, so at most one such shape's are held at a time.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from .partitions import checked_cache, dimension, partitions_of, standard_tableaux
from .permutations import Permutation, group_order, is_integer, rank_of_word, word_blocks

# Shapes of at most this many boxes keep their coset matrices for the
# process.  Level k holds k * k! floats over all its shapes, so levels
# k <= 7 hold 0.31 MiB in all; level 8 would add 2.5 MiB, 9 adds 25 MiB
# and 10 adds 277 MiB.  Caching level 8 as well raised the peak RSS of
# `snfair analyze` at n = 8 from 37.9 to 40.5 MB (+6.9%; 7 interleaved
# runs, os.wait4, 2-core Xeon), so levels 8 and up are built per pass.
_CACHED_LEVEL = 7
_coset_cache: dict[tuple[int, ...], tuple[np.ndarray, tuple]] = {}


def _check_generator(shape: tuple[int, ...], k: int) -> None:
    dimension(shape)  # the shape's check
    if not is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")


@checked_cache(_check_generator, maxsize=4096)
def adjacent_generator(shape: tuple[int, ...], k: int) -> np.ndarray:
    """Matrix of the adjacent transposition (k, k+1) on the shape's module."""
    n = sum(shape)
    if not 1 <= k <= n - 1:
        raise IndexError(f"adjacent transposition index k={k} outside 1..{n - 1}")
    tabs = standard_tableaux(shape)
    index = {t: a for a, t in enumerate(tabs)}
    d = len(tabs)
    mat = np.zeros((d, d))
    for a, tab in enumerate(tabs):
        r1, c1 = tab.position(k)
        r2, c2 = tab.position(k + 1)
        if r1 == r2:
            mat[a, a] = 1.0
        elif c1 == c2:
            mat[a, a] = -1.0
        else:
            dist = (c2 - r2) - (c1 - r1)
            mat[a, a] = 1.0 / dist
            b = index[tab.swap(k)]
            mat[a, b] = sqrt(1.0 - 1.0 / dist**2)
    mat.setflags(write=False)
    return mat


def evaluate(shape: tuple[int, ...], p: Permutation) -> np.ndarray:
    """Representation matrix of an arbitrary permutation."""
    n = sum(shape)
    if p.n != n:
        raise ValueError(f"permutation acts on {p.n} points, shape sums to {n}")
    d = dimension(shape)
    mat = np.eye(d)
    word = list(p.mapping)
    # Bubble-sorting the word records a factorization of p into adjacent
    # transpositions; each recorded swap multiplies on the left.
    swapped = True
    while swapped:
        swapped = False
        for j in range(n - 1):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                mat = adjacent_generator(shape, j + 1) @ mat
                swapped = True
    return mat


@lru_cache(maxsize=256)
def _young(shape: tuple[int, ...]):
    """Row words of the shape's tableaux in last-letter order, d x k int8
    (words[t, v - 1] = row of letter v in tableau t), every generator s_j
    as (diagonal, partner, weight) rows j - 1 of (k - 1) x d arrays, and
    the (mu, offset, dim) of each block of the restriction to S_{k-1}, with
    mu the shape left by removing a corner, top row's corner first."""
    k = sum(shape)
    blocks = []
    for row, part in enumerate(shape):
        if k > 1 and (row + 1 == len(shape) or part > shape[row + 1]):
            mu = tuple(p for p in shape[:row] + (part - 1,) + shape[row + 1 :] if p)
            blocks.append((row, mu, _young(mu)))
    d = sum(len(sub[0]) for _, _, sub in blocks) if blocks else 1
    words = np.zeros((d, k), dtype=np.int8)
    diag, weight = np.empty((k - 1, d)), np.empty((k - 1, d))
    partner = np.empty((k - 1, d), dtype=np.intp)
    corners = []
    off = 0
    for row, mu, (sub_words, sub_diag, sub_partner, sub_weight, _) in blocks:
        e = len(sub_words)
        words[off : off + e, : k - 1] = sub_words
        words[off : off + e, k - 1] = row
        diag[: k - 2, off : off + e] = sub_diag
        partner[: k - 2, off : off + e] = sub_partner + off
        weight[: k - 2, off : off + e] = sub_weight
        corners.append((mu, off, e))
        off += e
    if blocks:
        # s_{k-1} exchanges k - 1 and k.  Letter k ends its row, and k - 1
        # ends its row once k is removed.  |dist| = 1 exactly when they
        # share a row (+1) or a column (-1); then the weight is 0 and the
        # partner is the tableau itself.
        r1, r2 = words[:, k - 2].astype(np.int64), words[:, k - 1].astype(np.int64)
        parts = np.array(shape)
        c1, c2 = parts[r1] - 1 - (r1 == r2), parts[r2] - 1
        dist = (c2 - r2) - (c1 - r1)
        diag[k - 2] = 1.0 / dist
        weight[k - 2] = np.sqrt(1.0 - 1.0 / dist**2)
        # Last-letter order sorts the words read as base-len(shape)
        # numbers with letter k most significant, so the index of the
        # word with k - 1 and k exchanged is one searchsorted away.
        place = len(shape) ** np.arange(k, dtype=np.int64)
        codes = words @ place
        swapped = codes + (r2 - r1) * (place[k - 2] - place[k - 1])
        partner[k - 2] = np.where(np.abs(dist) == 1, np.arange(d), np.searchsorted(codes, swapped))
    for arr in (words, diag, partner, weight):
        arr.setflags(write=False)
    return words, diag, partner, weight, tuple(corners)


def _coset_matrices(shape: tuple[int, ...]):
    """evaluate(shape, c_j) for j = 1..k stacked, and the shape's corner
    blocks from :func:`_young`.  Kept read-only for the process when
    k <= _CACHED_LEVEL, built afresh on every call otherwise."""
    if shape in _coset_cache:
        return _coset_cache[shape]
    _, diag, partner, weight, corners = _young(shape)
    k, d = sum(shape), diag.shape[1]
    mats = np.empty((k, d, d))
    mats[k - 1] = np.eye(d)
    for j in range(k - 1, 0, -1):
        # s_j @ M: row a is diag[a] * M[a] + weight[a] * M[partner[a]]
        m = mats[j]
        mats[j - 1] = diag[j - 1, :, None] * m + weight[j - 1, :, None] * m[partner[j - 1]]
    built = mats, corners
    if k <= _CACHED_LEVEL:
        mats.setflags(write=False)
        _coset_cache[shape] = built
    return built


@lru_cache(maxsize=3)
def _coset_order(n: int) -> np.ndarray:
    """Position of each rank in the recursion's order: the coset digits
    j_n, j_{n-1}, ..., j_1 in mixed radix, most significant first.

    Digit k is #{i < k : w_i < w_k}, one less than the letter at slot k
    once the letters after it are removed and the rest renumbered: digit
    n - k of the reversed word's Lehmer code, so the order is an involution."""
    order = np.empty(group_order(n), dtype=np.int32)
    for rows, block in word_blocks(n):
        order[rows] = rank_of_word(block[:, ::-1])
    order.setflags(write=False)
    return order


def fft(n: int, values: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """sum_p values[rank(p)] * evaluate(shape, p) for every shape of n, each
    block read-only and owning its memory."""
    # Stacked as (cosets * d) x d rows, so the last level's blocks own their
    # memory.  The order is its own inverse, so one gather puts it in place.
    level = {(1,): values[_coset_order(n)[:, None]]}
    size = group_order(n)
    for k in range(2, n + 1):
        cosets = size // factorial(k)
        built = {}
        for shape in partitions_of(k):
            mats, corners = _coset_matrices(shape)
            d = mats.shape[1]
            stack = np.empty((cosets * d, d))
            out = stack.reshape(cosets, d, d)
            for mu, off, e in corners:
                sub = level[mu].reshape(cosets, k, e, e)
                # out[o][:, mu cols] = sum_j mats[j][:, mu rows] @ sub[o, j]
                part = np.tensordot(sub, mats[:, :, off : off + e], ([1, 2], [0, 2]))
                out[:, :, off : off + e] = part.transpose(0, 2, 1)
            built[shape] = stack
            del mats  # before the next shape's are built
        level = built
    for block in level.values():
        block.setflags(write=False)
    return level


def fft_adjoint(n: int, blocks: dict[tuple[int, ...], np.ndarray]) -> np.ndarray:
    """sum_shape <blocks[shape], evaluate(shape, p)>_F for every rank; missing
    shapes count as zero blocks."""
    size = group_order(n)
    level = {s: np.asarray(m, dtype=float)[None] for s, m in blocks.items()}
    for k in range(n, 1, -1):
        cosets = size // factorial(k)
        spread = {}
        for shape, g in level.items():
            mats, corners = _coset_matrices(shape)
            for mu, off, e in corners:
                # sub[o, j] = mats[j][:, mu rows].T @ g[o][:, mu cols]
                cols = g[:, :, off : off + e]
                sub = np.tensordot(cols, mats[:, :, off : off + e], ([1], [1]))
                sub = sub.transpose(0, 2, 3, 1).reshape(cosets * k, e, e)
                spread[mu] = spread.get(mu, 0.0) + sub
            del mats
        level = spread
    if (1,) not in level:
        return np.zeros(size)
    return level[(1,)].reshape(-1)[_coset_order(n)]
