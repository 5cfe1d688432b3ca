"""Cayley averaging operators: block spectra versus the dense cross-check."""
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snfair.fourier
from snfair.cayley import BOUND_TOL, SymmetricSet, dense_operator, spectrum_report, symmetrize
from snfair.errors import EmptySetError
from snfair.fourier import transform
from snfair.partitions import dimension, partitions_of
from snfair.payoffs import PayoffFn, random_payoff
from snfair.permutations import Permutation, lehmer_unrank
from snfair.representations import evaluate, fft
from snfair.sets import OrderingSet


def all_transpositions(n):
    ranks = [
        Permutation.transposition(n, i, j).rank()
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return SymmetricSet(n, tuple(sorted(ranks)))


def test_symmetric_set_validation():
    SymmetricSet(3, (0,))  # identity alone is fine
    # a 3-cycle without its inverse, which ranks above every member (231
    # lacks 312) or below every member (312 lacks 231)
    with pytest.raises(ValueError, match="not closed under inversion: rank 3 lacks 4"):
        SymmetricSet(3, (3,))
    with pytest.raises(ValueError, match="not closed under inversion: rank 4 lacks 3"):
        SymmetricSet(3, (4,))
    with pytest.raises(EmptySetError):
        SymmetricSet(3, ())


def test_symmetrize_adds_inverses():
    # {(1 2 3)} in S_3 closes to both 3-cycles.
    cycle = Permutation((2, 3, 1))
    closed = symmetrize(OrderingSet.from_ranks(3, [cycle.rank()]))
    assert len(closed) == 2
    ranks = {cycle.rank(), cycle.inverse().rank()}
    assert set(closed.members) == ranks


def test_symmetrize_fixed_point_on_symmetric_input():
    conn = all_transpositions(4)
    again = symmetrize(conn)
    assert again == conn


@pytest.mark.parametrize("n", [5, 6])
def test_closure_and_symmetrize_match_per_element_inverses(n):
    def inverses(ranks):
        return {lehmer_unrank(n, r).inverse().rank() for r in ranks}

    rng = np.random.default_rng(n)
    for _ in range(4):
        picks = rng.choice(factorial(n), size=int(rng.integers(1, 40)), replace=False)
        ranks = set(picks.tolist())
        closed = set(symmetrize(OrderingSet.from_ranks(n, picks)).members.tolist())
        assert closed == ranks | inverses(ranks)
        # a member whose inverse is another member; dropping it breaks closure
        paired = next((r for r in sorted(closed) if inverses([r]) != {r}), None)
        for candidate in (ranks, closed, closed - {paired}):
            if inverses(candidate) == candidate:
                SymmetricSet(n, sorted(candidate))
            else:
                with pytest.raises(ValueError, match="not closed under inversion"):
                    SymmetricSet(n, sorted(candidate))


def test_identity_connection_gives_identity_blocks():
    blocks = SymmetricSet(4, (0,)).blocks
    for shape in partitions_of(4):
        np.testing.assert_array_equal(blocks[shape], np.eye(dimension(shape)))


def test_full_group_connection_annihilates_nontrivial_blocks():
    n = 4
    blocks = SymmetricSet(n, tuple(range(factorial(n)))).blocks
    np.testing.assert_allclose(blocks[(n,)], [[1.0]], atol=1e-12)
    for shape in partitions_of(n)[1:]:
        assert np.abs(blocks[shape]).max() < 1e-12


def test_frozen_two_element_example():
    # F = {id, (1 2)} in S_3 on the two-dimensional shape: gram eigenvalues
    # {0, 1}, reference bound 6 / (2 * 2) = 1.5.
    conn = SymmetricSet(3, tuple(sorted([0, Permutation((2, 1, 3)).rank()])))
    report = spectrum_report(conn)[(2, 1)]
    np.testing.assert_allclose(sorted(report.eigenvalues), [0.0, 1.0], atol=1e-12)
    assert report.bound == pytest.approx(1.5)
    assert report.within_bound


def test_dense_spectrum_equals_block_union():
    rng = np.random.default_rng(31)
    for n in (3, 4):
        sets = {
            "identity": SymmetricSet(n, (0,)),
            "transpositions": all_transpositions(n),
        }
        size = factorial(n)
        picks = rng.choice(size, size=3, replace=False)
        sets["random"] = symmetrize(OrderingSet.from_ranks(n, picks))
        for conn in sets.values():
            dense = np.sort(np.linalg.eigvalsh(dense_operator(conn)))
            blocks = np.sort(
                np.concatenate(
                    [
                        np.repeat(
                            np.linalg.eigvalsh(conn.blocks[s]),
                            dimension(s),
                        )
                        for s in partitions_of(n)
                    ]
                )
            )
            assert dense.shape == blocks.shape
            np.testing.assert_allclose(dense, blocks, atol=1e-8)


def test_dense_operator_row_structure():
    conn = all_transpositions(3)
    dense = dense_operator(conn)
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(dense, dense.T, atol=1e-12)
    # one weight 1/|F| per member in every row
    assert np.all((dense != 0.0).sum(axis=1) == len(conn))
    np.testing.assert_array_equal(dense[dense != 0.0], 1.0 / len(conn))


def test_averaging_acts_blockwise_on_transforms():
    # g(p) = (1/|F|) sum_t f(t p) must have spectrum B_shape @ f_hat.
    n = 4
    conn = all_transpositions(n)
    f = random_payoff(n, seed=5)
    g_vals = dense_operator(conn) @ f.values
    g_spec = transform(PayoffFn(n, g_vals))
    f_spec = transform(f)
    for shape in partitions_of(n):
        expect = conn.blocks[shape] @ f_spec.blocks[shape]
        np.testing.assert_allclose(g_spec.blocks[shape], expect, atol=1e-9)


def test_normalized_bound_holds_on_corpus():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        for trial in range(4):
            picks = rng.choice(factorial(n), size=3, replace=False)
            conn = symmetrize(OrderingSet.from_ranks(n, picks))
            assert all(spec.within_bound for spec in spectrum_report(conn).values())


def test_unnormalized_bound_can_fail_where_normalized_holds():
    report = spectrum_report(all_transpositions(4)).values()
    assert all(spec.within_bound for spec in report)
    assert not all(spec.raw_within_bound for spec in report)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_normalized_violations_are_raw_violations(n, data):
    # the raw sum's gram eigenvalues are the normalized ones times |F|^2 >= 1
    # against the same bound: its flag, read off the normalized eigenvalues,
    # matches the raw gram's own, and the raw scaling never passes where the
    # normalized one fails
    ranks = data.draw(st.lists(st.integers(0, factorial(n) - 1), min_size=1, max_size=12))
    conn = symmetrize(OrderingSet.from_ranks(n, ranks))
    perms = [lehmer_unrank(n, r) for r in conn.members]
    for shape, spec in spectrum_report(conn).items():
        raw = sum(evaluate(shape, p) for p in perms)
        top = np.linalg.eigvalsh(raw.T @ raw)[-1]
        assert spec.raw_within_bound == bool(top <= spec.bound + BOUND_TOL)
        assert spec.within_bound or not spec.raw_within_bound


def test_block_operator_matches_evaluate_sum_at_n7():
    n = 7
    rng = np.random.default_rng(17)
    picks = rng.choice(factorial(n), size=4, replace=False)
    for conn in (all_transpositions(n), symmetrize(OrderingSet.from_ranks(n, picks))):
        perms = [lehmer_unrank(n, r) for r in conn.members]
        for shape in partitions_of(n):
            raw = sum(evaluate(shape, p) for p in perms)
            np.testing.assert_allclose(len(conn) * conn.blocks[shape], raw, atol=1e-12)
            np.testing.assert_allclose(conn.blocks[shape], raw / len(conn), atol=1e-12)


def test_bound_violations_of_given_blocks_match_the_sets_own_transform(monkeypatch):
    # a set's kept blocks serve both scalings, and their verdicts match
    # those of blocks transformed afresh
    calls = []
    monkeypatch.setattr(snfair.fourier, "fft", lambda n, w: calls.append(n) or fft(n, w))
    flagged = set()
    for conn in (all_transpositions(5), symmetrize(OrderingSet.from_ranks(5, [3, 17, 40]))):
        report = spectrum_report(conn)
        indicator = np.zeros(factorial(5))
        indicator[conn.members] = 1.0
        fresh = fft(5, indicator)
        for normalized in (True, False):
            scale = len(conn) if normalized else 1.0
            bad = tuple(
                s
                for s, m in fresh.items()
                if np.linalg.eigvalsh((m / scale).T @ (m / scale))[-1]
                > factorial(5) / (len(conn) * dimension(s)) + BOUND_TOL
            )
            flag = "within_bound" if normalized else "raw_within_bound"
            assert tuple(s for s, spec in report.items() if not getattr(spec, flag)) == bad
            flagged.update(bad)
    assert len(calls) == 2  # one transform per set
    assert flagged  # some shape exceeds its bound, so the comparison can fail
