"""Forward/inverse transform, Parseval, degree, and the support-spread product."""
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfair.errors import CapacityError, DegenerateError
from snfair.fourier import (
    DEGREE_TOL,
    FourierSpectrum,
    degree,
    inverse,
    schatten_summary,
    transform,
    uncertainty_check,
)
from snfair.partitions import dimension, partitions_of
from snfair.payoffs import JuntaTerm, PayoffFn, indicator_payoff, junta_payoff, random_payoff
from snfair.intersecting import stabilizer_set
from snfair.permutations import enumerate_group, group_matrix, lehmer_unrank, rank_of_word
from snfair.representations import evaluate
from snfair.sets import OrderingSet


def brute_transform(f):
    """Reference transform: explicit sum over group elements."""
    blocks = {}
    for shape in partitions_of(f.n):
        d = dimension(shape)
        acc = np.zeros((d, d))
        for p in enumerate_group(f.n):
            acc += f.values[p.rank()] * evaluate(shape, p)
        blocks[shape] = acc
    return blocks


def band(f, keep):
    """Inverse of f's spectrum with every block whose shape fails keep zeroed."""
    blocks = {s: m if keep(s) else np.zeros_like(m) for s, m in transform(f).blocks.items()}
    return inverse(FourierSpectrum(f.n, blocks))


def stab_slot1_indicator(n):
    members = [p.rank() for p in enumerate_group(n) if p(1) == 1]
    return indicator_payoff(OrderingSet.from_ranks(n, members))


def test_transform_matches_bruteforce_sum():
    f = random_payoff(4, seed=2)
    spec = transform(f)
    ref = brute_transform(f)
    for shape in partitions_of(4):
        np.testing.assert_allclose(spec.blocks[shape], ref[shape], atol=1e-10)


def test_constant_function_concentrates_on_trivial_block():
    n = 4
    f = PayoffFn(n, np.ones(factorial(n)))
    spec = transform(f)
    np.testing.assert_allclose(spec.blocks[(4,)], [[24.0]], atol=1e-12)
    for shape in partitions_of(n)[1:]:
        assert np.abs(spec.blocks[shape]).max() < 1e-12


def test_point_mass_blocks_are_representation_matrices():
    n = 4
    r = 13
    f = PayoffFn(n, np.eye(factorial(n))[r])
    spec = transform(f)
    p = lehmer_unrank(n, r)
    for shape in partitions_of(n):
        np.testing.assert_allclose(spec.blocks[shape], evaluate(shape, p), atol=1e-12)
    np.testing.assert_allclose(inverse(spec).values, f.values, atol=1e-12)


def test_roundtrip_random_s5():
    for seed in range(4):
        f = random_payoff(5, seed=seed)
        back = inverse(transform(f))
        assert np.abs(back.values - f.values).max() <= 1e-9


@pytest.mark.parametrize("n", [8, 9])
def test_roundtrip_and_parseval_at_large_n(n):
    f = random_payoff(n, seed=n)
    spec = transform(f)
    back = inverse(spec)
    assert np.abs(back.values - f.values).max() <= 1e-12
    energy = float(f.values @ f.values)
    spectral = sum(
        dimension(s) * float(np.linalg.norm(m)) ** 2 for s, m in spec.blocks.items()
    ) / factorial(n)
    assert abs(energy - spectral) / energy <= 1e-12


def test_convolution_theorem():
    # (f * g)(p) = sum_q f(q) g(q^-1 p), built from the word table alone;
    # its transform must be the blockwise product F(f) @ F(g).
    n = 5
    words = group_matrix(n).astype(np.int64)
    code = words @ n ** np.arange(n)  # one integer per word
    rank_of = {int(c): r for r, c in enumerate(code)}
    f = random_payoff(n, seed=21).values
    g = random_payoff(n, seed=22).values - 0.5
    conv = np.zeros(factorial(n))
    for q, word in enumerate(words):
        inv = np.argsort(word) + 1
        ranks = [rank_of[int(c)] for c in inv[words - 1] @ n ** np.arange(n)]
        conv += f[q] * g[ranks]
    lhs = transform(PayoffFn(n, conv))
    fs, gs = transform(PayoffFn(n, f)), transform(PayoffFn(n, g))
    scale = np.abs(conv).sum()  # bounds every entry of every block
    for shape in partitions_of(n):
        expect = fs.blocks[shape] @ gs.blocks[shape]
        np.testing.assert_allclose(lhs.blocks[shape], expect, rtol=0, atol=1e-12 * scale)


def test_zero_spectrum_synthesizes_zero():
    n = 4
    blocks = {s: np.zeros((dimension(s), dimension(s))) for s in partitions_of(n)}
    out = inverse(FourierSpectrum(n, blocks))
    assert np.abs(out.values).max() == 0.0


def test_parseval():
    for seed in (0, 1):
        f = random_payoff(5, seed=seed)
        spec = transform(f)
        energy = float(f.values @ f.values)
        spectral = sum(
            dimension(s) * float(np.linalg.norm(m)) ** 2
            for s, m in spec.blocks.items()
        ) / factorial(5)
        assert abs(energy - spectral) / energy <= 1e-12


def test_isotypic_projections_sum_to_identity():
    f = random_payoff(4, seed=3)
    total = np.zeros_like(f.values)
    for shape in partitions_of(4):
        total = total + band(f, lambda s: s == shape).values
    assert np.abs(total - f.values).max() <= 1e-9


def test_isotypic_projections_mutually_orthogonal():
    f = random_payoff(4, seed=4)
    parts = {s: band(f, lambda t: t == s).values for s in partitions_of(4)}
    shapes = partitions_of(4)
    for i, s in enumerate(shapes):
        for t in shapes[i + 1:]:
            assert abs(float(parts[s] @ parts[t])) / factorial(4) <= 1e-9


def test_isotypic_projection_is_idempotent():
    f = random_payoff(4, seed=6)
    once = band(f, lambda s: s == (3, 1))
    twice = band(once, lambda s: s == (3, 1))
    np.testing.assert_allclose(twice.values, once.values, atol=1e-10)


def test_degree_frozen_cases():
    n = 4
    assert degree(PayoffFn(n, np.ones(factorial(n)))) == 0
    assert degree(stab_slot1_indicator(n)) == 1
    assert degree(PayoffFn(n, np.eye(factorial(n))[0])) == 3


@pytest.mark.parametrize(
    "build, deg",
    [
        (lambda: junta_payoff([JuntaTerm(((1, 1), (2, 2)))], 9), 2),
        (lambda: indicator_payoff(stabilizer_set(9, [(1, 1), (2, 2), (3, 3)])), 3),
    ],
    ids=["junta-k2", "stabilizer-t3"],
)
def test_degree_tol_margin_at_n9(build, deg):
    # Blocks above the degree are zero in exact arithmetic and the rest are
    # not; both sit many orders of magnitude from DEGREE_TOL * ||f||_2.
    f = build()
    norm = np.linalg.norm(f.values)
    blocks = {s: np.linalg.norm(m) / norm for s, m in transform(f).blocks.items()}
    zero = max(v for s, v in blocks.items() if 9 - s[0] > deg)
    true = min(v for s, v in blocks.items() if 9 - s[0] <= deg)
    assert zero <= 1e-12 < DEGREE_TOL < 1.0 <= true
    assert degree(f) == deg


def test_degree_of_zero_function_rejected():
    with pytest.raises(DegenerateError):
        degree(PayoffFn(3, np.zeros(6)))


@st.composite
def junta_or_sparse_payoffs(draw):
    """A nonzero junta with integer weights, or a sparse random payoff, on S_n."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(1, min(3, n)))
            slots = draw(st.permutations(range(1, n + 1)))[:k]
            items = draw(st.permutations(range(1, n + 1)))[:k]
            terms.append(JuntaTerm(tuple(zip(slots, items)), draw(st.integers(1, 5))))
        return junta_payoff(terms, n)
    nonzero = draw(st.integers(1, factorial(n)))
    return random_payoff(n, seed=draw(st.integers(0, 2**32 - 1)), dist="sparse", nonzero=nonzero)


@settings(max_examples=60, deadline=None)
@given(junta_or_sparse_payoffs(), st.data())
def test_degree_is_invariant_under_left_and_right_translation(f, data):
    words = group_matrix(f.n)
    sigma = np.array(data.draw(st.permutations(range(1, f.n + 1))))
    left = rank_of_word(sigma[words - 1])  # rank of sigma * p for every rank p
    right = rank_of_word(words[:, sigma - 1])  # rank of p * sigma
    d = degree(f)
    assert degree(PayoffFn(f.n, f.values[left])) == d
    assert degree(PayoffFn(f.n, f.values[right])) == d


def test_truncation_caps_degree_and_splits_exactly():
    f = random_payoff(5, seed=7)
    low = band(f, lambda s: 5 - s[0] <= 2)
    high = band(f, lambda s: 5 - s[0] > 2)
    assert degree(low) <= 2
    np.testing.assert_allclose(low.values + high.values, f.values, atol=1e-10)
    # The split is orthogonal: energies add.
    assert float(low.values @ high.values) == pytest.approx(0.0, abs=1e-8)


def test_schatten_sinf_bounded_by_s1():
    for seed in range(5):
        summary = schatten_summary(transform(random_payoff(4, seed=seed)))
        assert summary.sinf <= summary.s1 + 1e-12
        assert summary.sinf > 0.0


def test_uncertainty_holds_for_random_nonnegative_payoffs():
    for seed in range(100):
        check = uncertainty_check(random_payoff(4, seed=seed))
        assert check.holds
        assert check.product >= 24 * (1 - 1e-9)


def test_uncertainty_equality_cases():
    n = 4
    order = factorial(n)
    delta = uncertainty_check(PayoffFn(n, np.eye(order)[5]))
    const = uncertainty_check(PayoffFn(n, 0.7 * np.ones(order)))
    assert delta.product == pytest.approx(order, rel=1e-12)
    assert const.product == pytest.approx(order, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_roundtrip_and_plancherel_on_random_signed_payoffs(n, seed):
    f = PayoffFn(n, random_payoff(n, seed=seed).values - 0.5)
    spec = transform(f)
    assert np.abs(inverse(spec).values - f.values).max() <= 1e-12
    energy = float(f.values @ f.values)
    spectral = sum(
        dimension(s) * float(np.linalg.norm(m)) ** 2 for s, m in spec.blocks.items()
    ) / factorial(n)
    assert abs(energy - spectral) <= 1e-12 * energy


@settings(max_examples=60, deadline=None)
@given(junta_or_sparse_payoffs())
def test_support_spread_holds_on_juntas_and_sparse_payoffs(f):
    assert uncertainty_check(f).holds


def test_uncertainty_zero_function_rejected():
    with pytest.raises(DegenerateError):
        uncertainty_check(PayoffFn(3, np.zeros(6)))


def test_payoff_validation():
    with pytest.raises(ValueError):
        PayoffFn(3, np.zeros(7))
    with pytest.raises(ValueError):
        PayoffFn(3, np.array([np.nan] + [0.0] * 5))
    f = PayoffFn(3, np.zeros(6))
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # stored values are read-only


def test_spectrum_block_order_is_canonical():
    f = random_payoff(4, seed=11)
    spec = transform(f)
    reversed_blocks = dict(reversed(list(spec.blocks.items())))
    rebuilt = FourierSpectrum(4, reversed_blocks)
    assert tuple(rebuilt.blocks.keys()) == partitions_of(4)


def test_spectrum_keeps_owned_read_only_blocks_and_copies_the_rest():
    spec = transform(random_payoff(4, seed=3))
    # fft hands its blocks over, and a spectrum's blocks are kept as given
    assert all(m.base is None and not m.flags.writeable for m in spec.blocks.values())
    again = FourierSpectrum(4, spec.blocks)
    assert all(again.blocks[s] is m for s, m in spec.blocks.items())
    writable = {s: np.array(m) for s, m in spec.blocks.items()}
    copied = FourierSpectrum(4, writable)
    s1 = copied.schatten.s1
    for m in writable.values():
        m *= 2.0  # the caller's later writes reach neither blocks nor summary
    for s, m in spec.blocks.items():
        np.testing.assert_array_equal(copied.blocks[s], m)
    assert schatten_summary(copied).s1 == s1


def test_capacity_guard():
    # The one library limit, n <= 10, is checked before anything n!-sized.
    with pytest.raises(CapacityError):
        PayoffFn(11, np.zeros(1))
    with pytest.raises(CapacityError):
        OrderingSet(11, ())
    with pytest.raises(CapacityError):
        OrderingSet.full_group(11)
    with pytest.raises(ValueError):
        PayoffFn(0, np.zeros(1))
