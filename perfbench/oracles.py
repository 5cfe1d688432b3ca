"""Reference computations made apart from the program under test.

Nothing here imports ``snfair``.  Every function recomputes a quantity
from its definition, by enumeration where that is affordable, so that
the benchmark can judge the program's outputs without trusting any of
its code paths:

- orderings are one-line words enumerated by ``itertools.permutations``;
  their lexicographic index is the rank;
- irreducible dimensions come from the hook length formula;
- the CFMM payoff is summed trade by trade along each ordering;
- majority graphs count strict majorities, strongly connected
  components come from a boolean transitive closure, and admissible
  sets are found by filtering every ordering;
- spectra are judged through characters: the trivial, sign and
  (n-1, 1) blocks have closed forms, and Parseval ties the rest to the
  payoff's energy.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod

import numpy as np


@lru_cache(maxsize=4)
def words(n: int) -> np.ndarray:
    """Every ordering of 1..n, one row per ordering, row index = rank."""
    mat = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=4)
def signs(n: int) -> np.ndarray:
    """Sign of every ordering, by the parity of its inversion count."""
    w = words(n)
    inversions = np.zeros(w.shape[0], dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            inversions += w[:, i] > w[:, j]
    return np.where(inversions % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=4)
def fixed_points(n: int) -> np.ndarray:
    return (words(n) == np.arange(1, n + 1, dtype=np.int8)).sum(axis=1)


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    out = []

    def extend(prefix, remaining, largest):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, largest), 0, -1):
            extend(prefix + [part], remaining - part, part)

    extend([], n, n)
    return out


def hook_dimension(shape: tuple[int, ...]) -> int:
    n = sum(shape)
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = [
        (row - j - 1) + (columns[j] - i - 1) + 1
        for i, row in enumerate(shape)
        for j in range(row)
    ]
    return factorial(n) // prod(hooks)


def cfmm_values(
    deltas: list[float], p0: float = 100.0, gamma: float = 0.001, beta: float = 1.0
) -> np.ndarray:
    """Total extraction along every ordering, trade by trade."""
    n = len(deltas)
    out = np.empty(factorial(n))
    for r, word in enumerate(itertools.permutations(range(1, n + 1))):
        price = p0
        total = 0.0
        for item in word:
            d = deltas[item - 1]
            total += beta * d * d * price
            price *= 1.0 + gamma * d
        out[r] = total
    return out


# ---------------------------------------------------------------- sequencing


def majority_edges(validators: list[list[int]], n: int) -> np.ndarray:
    """edge[i, j] is True when strictly more than half saw i + 1 before j + 1."""
    position = np.empty((len(validators), n), dtype=np.int64)
    for v, order in enumerate(validators):
        for slot, item in enumerate(order):
            position[v, item - 1] = slot
    before = (position[:, :, None] < position[:, None, :]).sum(axis=0)
    return 2 * before > len(validators)


def strong_components(edge: np.ndarray) -> list[tuple[int, ...]]:
    """SCCs (1-based, each sorted, ordered by smallest member) by closure."""
    n = edge.shape[0]
    reach = edge | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    mutual = reach & reach.T
    comps = {tuple(int(j) + 1 for j in np.nonzero(mutual[i])[0]) for i in range(n)}
    return sorted(comps, key=lambda c: c[0])


def admissible_ranks(edge: np.ndarray) -> np.ndarray:
    """Ranks of orderings that respect every edge between different SCCs."""
    n = edge.shape[0]
    comp_of = np.empty(n, dtype=np.int64)
    for c, comp in enumerate(strong_components(edge)):
        for tx in comp:
            comp_of[tx - 1] = c
    w = words(n)
    slot = np.empty(w.shape, dtype=np.int8)
    slot[np.arange(w.shape[0])[:, None], w.astype(np.int64) - 1] = np.arange(n, dtype=np.int8)
    keep = np.ones(w.shape[0], dtype=bool)
    for i, j in zip(*np.nonzero(edge)):
        if comp_of[i] != comp_of[j]:
            keep &= slot[:, i] < slot[:, j]
    return np.nonzero(keep)[0]


def agreement_profile(n: int, ranks) -> tuple[int, list[list[int]]]:
    """(t_max, common pairs) of a set of orderings.

    Every pair agrees on the slots all members share, so t_max is at
    least their number; a witness pair agreeing on nothing else proves
    equality.  When member 0 has no such partner the minimum is taken
    over all pairs by blocked one-hot products.
    """
    member_words = words(n)[np.asarray(ranks, dtype=np.int64)]
    m = member_words.shape[0]
    if m == 0:
        raise ValueError("empty set")
    shared = np.all(member_words == member_words[0], axis=0)
    common = [[int(i) + 1, int(member_words[0, i])] for i in np.nonzero(shared)[0]]
    if m == 1:
        return n, common
    floor = len(common)
    if int((member_words[1:] == member_words[0]).sum(axis=1).min()) == floor:
        return floor, common
    onehot = np.zeros((m, n * n), dtype=np.float32)
    cols = np.arange(n) * n + member_words.astype(np.int64) - 1
    onehot[np.arange(m)[:, None], cols] = 1.0
    best = n
    for start in range(0, m, 1024):
        agree = onehot[start : start + 1024] @ onehot.T
        for k in range(agree.shape[0]):
            agree[k, : start + k + 1] = n
        best = min(best, int(agree.min()))
    return best, common


# ---------------------------------------------------------------- spectra


def spectrum_problems(values: np.ndarray, n: int, blocks: list[dict]) -> list[str]:
    """Check a transform's blocks through characters and Parseval."""
    problems = []
    shapes = [tuple(b["lambda"]) for b in blocks]
    if shapes != partitions(n):
        return [f"block shapes {shapes} are not the partitions of {n}"]
    dims = [hook_dimension(s) for s in shapes]
    if sum(d * d for d in dims) != factorial(n):
        problems.append("sum of squared dimensions differs from n!")
    mats = {}
    for s, d, b in zip(shapes, dims, blocks):
        m = np.asarray(b["matrix"], dtype=float)
        if m.shape != (d, d):
            problems.append(f"block {s} has shape {m.shape}, expected {(d, d)}")
            return problems
        mats[s] = m
    scale = float(np.abs(values).sum()) + 1.0
    expected = {
        (n,): float(values.sum()),
        tuple([1] * n): float((signs(n) * values).sum()),
    }
    for s, want in expected.items():
        got = float(mats[s][0, 0])
        if abs(got - want) > 1e-9 * scale:
            problems.append(f"block {s} = {got!r}, character sum gives {want!r}")
    if n >= 2:
        s = (n - 1, 1)
        want = float(((fixed_points(n) - 1) * values).sum())
        got = float(np.trace(mats[s]))
        if abs(got - want) > 1e-9 * scale:
            problems.append(f"trace of block {s} = {got!r}, character sum gives {want!r}")
    energy = float((values**2).sum())
    spectral = sum(d * float((mats[s] ** 2).sum()) for s, d in zip(shapes, dims))
    spectral /= factorial(n)
    if abs(energy - spectral) > 1e-9 * max(energy, 1e-300):
        problems.append(f"Parseval: energy {energy!r} against spectral {spectral!r}")
    return problems


def spectrum_csv_problems(values: np.ndarray, n: int, rows: list[dict]) -> list[str]:
    """Check per-block statistics (dim, Frobenius, singular values) of a payoff."""
    problems = []
    shapes = [tuple(int(p) for p in r["lambda"].split("+")) for r in rows]
    if shapes != partitions(n):
        return [f"CSV shapes {shapes} are not the partitions of {n}"]
    dims = [int(r["dim"]) for r in rows]
    if dims != [hook_dimension(s) for s in shapes]:
        problems.append("CSV dimensions differ from the hook length formula")
    frob = np.array([float(r["frobenius"]) for r in rows])
    smax = np.array([float(r["sigma_max"]) for r in rows])
    ssum = np.array([float(r["sigma_sum"]) for r in rows])
    scale = float(np.abs(values).sum()) + 1.0
    tol = 1e-9 * scale
    if np.any(smax > frob + tol) or np.any(frob > ssum + tol):
        problems.append("CSV violates sigma_max <= frobenius <= sigma_sum")
    if np.any(frob > np.sqrt(dims) * smax + tol):
        problems.append("CSV violates frobenius <= sqrt(dim) * sigma_max")
    by_shape = dict(zip(shapes, frob))
    for s, want in (
        ((n,), abs(float(values.sum()))),
        (tuple([1] * n), abs(float((signs(n) * values).sum()))),
    ):
        if abs(by_shape[s] - want) > tol:
            problems.append(f"CSV frobenius of {s} = {by_shape[s]!r}, expected {want!r}")
    energy = float((values**2).sum())
    spectral = float((np.asarray(dims) * frob**2).sum()) / factorial(n)
    if abs(energy - spectral) > 1e-9 * max(energy, 1e-300):
        problems.append(f"CSV Parseval: energy {energy!r} against spectral {spectral!r}")
    return problems


def csv_degree(values: np.ndarray, n: int, rows: list[dict], tol: float = 1e-9) -> int:
    """Largest n - lambda_1 over blocks whose norm exceeds tol * ||f||_2."""
    norm = float(np.linalg.norm(values))
    deg = 0
    for r in rows:
        shape = [int(p) for p in r["lambda"].split("+")]
        if float(r["frobenius"]) > tol * norm:
            deg = max(deg, n - shape[0])
    return deg


def schatten_from_csv(rows: list[dict]) -> tuple[float, float]:
    s1 = sum(int(r["dim"]) * float(r["sigma_sum"]) for r in rows)
    sinf = max(float(r["sigma_max"]) for r in rows)
    return s1, sinf
