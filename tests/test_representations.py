"""Young's orthogonal form: generators, homomorphism property, characters.

The independent oracles here are structural identities that do not reuse
the implementation's factorization route: Schur orthogonality of
characters, the fixed-point character of the (n-1,1) module, and direct
matrix checks on generators.
"""
import gc
import sys
import tracemalloc
from functools import lru_cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfair.partitions import dimension, partitions_of, standard_tableaux
from snfair.permutations import Permutation, enumerate_group, group_matrix
import snfair.representations
from snfair.representations import (
    _coset_cache,
    _coset_order,
    _young,
    adjacent_generator,
    evaluate,
    fft,
    fft_adjoint,
)


def test_generator_2_1_is_traceless_involution():
    g = adjacent_generator((2, 1), 1)
    assert g.shape == (2, 2)
    np.testing.assert_allclose(g @ g, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(g @ g.T, np.eye(2), atol=1e-14)
    assert abs(np.trace(g)) < 1e-14


def test_generators_are_orthogonal_involutions():
    for n in (3, 4, 5):
        for shape in partitions_of(n):
            for k in range(1, n):
                g = adjacent_generator(shape, k)
                d = dimension(shape)
                np.testing.assert_allclose(g @ g, np.eye(d), atol=1e-12)
                np.testing.assert_allclose(g @ g.T, np.eye(d), atol=1e-12)


def test_generator_index_bounds():
    with pytest.raises(IndexError):
        adjacent_generator((2, 1), 3)
    with pytest.raises(IndexError):
        adjacent_generator((2, 1), 0)


def test_sparse_generators_rebuild_the_tableau_oracle():
    # The transform's row words, (diagonal, partner, weight) rows and corner
    # blocks, built by corner recursion, against the tableau objects and
    # dense matrices.
    for n in range(1, 8):
        for shape in partitions_of(n):
            words, diag, partner, weight, corners = _young(shape)
            tabs = standard_tableaux(shape)
            rows = [[t.position(v)[0] for v in range(1, n + 1)] for t in tabs]
            np.testing.assert_array_equal(words, rows)
            d = len(tabs)
            # block (mu, offset, dim) holds the tableaux with n in the row
            # whose corner mu lacks, in last-letter order
            ends = [0]
            for mu, offset, dim in corners:
                assert (offset, dim) == (ends[-1], dimension(mu))
                ends.append(offset + dim)
                row = next(i for i, part in enumerate(mu + (0,)) if part != shape[i])
                assert all(t.position(n)[0] == row for t in tabs[offset : offset + dim])
            assert ends[-1] == (d if n > 1 else 0)
            diagonal = np.arange(d)
            for j in range(1, n):
                dense = np.zeros((d, d))
                dense[diagonal, diagonal] = diag[j - 1]
                dense[diagonal, partner[j - 1]] += weight[j - 1]
                np.testing.assert_array_equal(dense, adjacent_generator(shape, j))


def _relabelled_coset_order(n):
    """The coset digits by relabelling: read slot k's letter, drop it and
    renumber the letters before it as a word on 1..k-1."""
    words = group_matrix(n).astype(np.int16)
    order = np.zeros(len(words), dtype=np.int64)
    for k in range(n, 0, -1):
        digit = words[:, k - 1 : k]
        order = order * k + (digit[:, 0] - 1)
        words[:, : k - 1] -= words[:, : k - 1] > digit
    return order


@pytest.mark.parametrize("n", range(1, 9))
def test_coset_order_matches_relabelling(n):
    order = _coset_order(n)
    np.testing.assert_array_equal(order, _relabelled_coset_order(n))
    # Reversing a word twice gives it back, so the order is its own inverse.
    np.testing.assert_array_equal(order[order], np.arange(factorial(n)))
    assert not order.flags.writeable and order.base is None


def test_fft_builds_no_dense_generator():
    for cached in (adjacent_generator, _young, _coset_order):
        cached.cache_clear()
    blocks = fft(6, np.arange(720.0))
    fft_adjoint(6, blocks)
    assert adjacent_generator.cache_info().currsize == 0


def test_finished_transform_keeps_only_caches_and_small_coset_matrices():
    # After an n = 8 transform and its adjoint, what stays allocated is the
    # cached word tables of S_1 to S_7 (the walk of S_8 reads S_7's, built
    # from S_6's, and so on), coset order and sparse generators, the coset
    # matrices of levels k <= 7 (8 * sum k * k! bytes, 0.31 MiB), and the
    # caches' own entries.  Level 8's coset matrices (2.5 MiB, the largest
    # shape's alone 0.5 MiB) live for one pass.
    f = np.random.default_rng(8).random(factorial(8))
    fft(8, f)  # fills the small partition caches outside the trace
    for cached in (group_matrix, _young, _coset_order):
        cached.cache_clear()
    _coset_cache.clear()
    gc.collect()
    tracemalloc.start()
    try:
        fft_adjoint(8, fft(8, f))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    young = [a for k in range(1, 9) for s in partitions_of(k) for a in _young(s)]
    tables = [group_matrix(k) for k in range(1, 8)]
    cached = sum(sys.getsizeof(a) for a in [*tables, _coset_order(8), *young])
    coset_bytes = 8 * sum(k * factorial(k) for k in range(2, 8))
    assert sum(mats.nbytes for mats, _ in _coset_cache.values()) == coset_bytes
    assert cached <= held <= cached + coset_bytes + 64 * 1024


def test_coset_matrices_of_levels_up_to_seven_are_cached_read_only(monkeypatch):
    _coset_cache.clear()
    f = np.random.default_rng(0).standard_normal(factorial(8))
    fft_adjoint(8, fft(8, f))
    small = {s for k in range(2, 8) for s in partitions_of(k)}
    assert set(_coset_cache) == small
    assert all(mats.flags.writeable is False for mats, _ in _coset_cache.values())
    held = {s: mats for s, (mats, _) in _coset_cache.items()}
    f7 = f[: factorial(7)]
    blocks = fft(7, f7)

    def build(shape):
        raise AssertionError(f"rebuilt the set-up of {shape}")

    # an n = 7 pass builds no set-up: every shape comes from the cache
    monkeypatch.setattr(snfair.representations, "_young", build)
    assert all(fft(7, f7)[s].tobytes() == m.tobytes() for s, m in blocks.items())
    fft_adjoint(7, blocks)
    assert all(_coset_cache[s][0] is mats for s, mats in held.items())
    assert set(_coset_cache) == small


@lru_cache(maxsize=8)
def _all_matrices(n):
    """evaluate(shape, p) for every p in rank order, as n! x d x d per shape."""
    group = list(enumerate_group(n))
    return {s: np.array([evaluate(s, p) for p in group]) for s in partitions_of(n)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_fft_and_adjoint_match_evaluate(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(factorial(n))
    grams = {s: rng.standard_normal((dimension(s), dimension(s))) for s in partitions_of(n)}
    blocks, adjoint = fft(n, f), fft_adjoint(n, grams)
    mats = _all_matrices(n)
    tol = 1e-12 * np.linalg.norm(f)
    for s, m in mats.items():
        assert blocks[s].shape == (dimension(s), dimension(s))
        assert np.abs(blocks[s] - np.tensordot(f, m, 1)).max() <= tol
    tol = 1e-12 * np.sqrt(sum(np.linalg.norm(g) ** 2 for g in grams.values()))
    oracle = sum(np.tensordot(m, grams[s], 2) for s, m in mats.items())
    assert adjoint.shape == f.shape
    assert np.abs(adjoint - oracle).max() <= tol


def test_evaluate_identity_is_identity_matrix():
    for shape in partitions_of(4):
        np.testing.assert_array_equal(
            evaluate(shape, Permutation.identity(4)), np.eye(dimension(shape))
        )


def test_evaluate_matches_generator_on_adjacent_transpositions():
    for n in (3, 4):
        for shape in partitions_of(n):
            for k in range(1, n):
                t = Permutation.transposition(n, k, k + 1)
                np.testing.assert_allclose(
                    evaluate(shape, t), adjacent_generator(shape, k), atol=1e-13
                )


_PAIRS = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.permutations(range(1, n + 1))] * 2)
)


@settings(max_examples=200, deadline=None)
@given(_PAIRS)
def test_homomorphism_random_triples(words):
    # rho(p * q) == rho(p) @ rho(q) for every shape of n <= 5
    p, q = (Permutation(tuple(w)) for w in words)
    for shape in partitions_of(p.n):
        lhs = evaluate(shape, p * q)
        rhs = evaluate(shape, p) @ evaluate(shape, q)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_orthogonality_and_inverse_transpose():
    rng = np.random.default_rng(5)
    for n in (4, 5):
        for _ in range(20):
            p = Permutation(tuple(int(x) for x in rng.permutation(n) + 1))
            for shape in partitions_of(n):
                m = evaluate(shape, p)
                np.testing.assert_allclose(
                    m @ m.T, np.eye(dimension(shape)), atol=1e-12
                )
                np.testing.assert_allclose(
                    evaluate(shape, p.inverse()), m.T, atol=1e-12
                )


def test_standard_module_character_counts_fixed_points():
    for n in (3, 4, 5):
        shape = (n - 1, 1)
        for p in enumerate_group(n):
            expect = sum(p(i) == i for i in range(1, n + 1)) - 1
            assert np.trace(evaluate(shape, p)) == pytest.approx(expect, abs=1e-11)


def test_characters_are_class_functions():
    for p in enumerate_group(4):
        for q in enumerate_group(4):
            conj = q * p * q.inverse()
            for shape in partitions_of(4):
                assert np.trace(evaluate(shape, conj)) == pytest.approx(
                    np.trace(evaluate(shape, p)), abs=1e-10
                )


def test_schur_orthogonality_of_characters():
    # <chi_l, chi_m> = delta_{lm} under the uniform inner product; this
    # pins irreducibility and mutual inequivalence of all blocks at once.
    n = 4
    shapes = partitions_of(n)
    table = {
        s: np.array([np.trace(evaluate(s, p)) for p in enumerate_group(n)]) for s in shapes
    }
    for a, s in enumerate(shapes):
        for t in shapes[a:]:
            inner = float(table[s] @ table[t]) / factorial(n)
            expect = 1.0 if s == t else 0.0
            assert inner == pytest.approx(expect, abs=1e-10)


def test_fft_matches_evaluate_sum():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        f = rng.standard_normal(factorial(n))
        blocks = fft(n, f)
        assert tuple(blocks) == partitions_of(n)
        group = list(enumerate_group(n))
        for shape in partitions_of(n):
            ref = sum(f[p.rank()] * evaluate(shape, p) for p in group)
            scale = np.abs(ref).max()
            assert np.abs(blocks[shape] - ref).max() <= 1e-12 * scale


def test_fft_adjoint_is_the_transpose():
    # <fft(f), G> == <f, fft_adjoint(G)>, and the adjoint of a single block
    # reads off that block against each representation matrix.
    rng = np.random.default_rng(43)
    n = 5
    f = rng.standard_normal(factorial(n))
    g = {s: rng.standard_normal((dimension(s), dimension(s))) for s in partitions_of(n)}
    lhs = sum(float(np.vdot(m, g[s])) for s, m in fft(n, f).items())
    assert lhs == pytest.approx(float(f @ fft_adjoint(n, g)), rel=1e-12)
    shape = (3, 2)
    one = fft_adjoint(n, {shape: g[shape]})
    for p in enumerate_group(n):
        assert one[p.rank()] == pytest.approx(
            float(np.vdot(g[shape], evaluate(shape, p))), abs=1e-12
        )
    assert not fft_adjoint(n, {}).any()


def test_evaluate_size_mismatch():
    with pytest.raises(ValueError):
        evaluate((2, 1), Permutation.identity(4))
