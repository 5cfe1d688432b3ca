"""Payoff generators against slow per-ordering reference implementations."""
import itertools
import random
import tracemalloc
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfair import permutations
from snfair.errors import CapacityError, ModelValidityError
from snfair.payoffs import (
    CfmmModel,
    JuntaTerm,
    LiquidationModel,
    PayoffFn,
    cfmm_payoff,
    indicator_payoff,
    junta_payoff,
    liquidation_payoff,
    random_payoff,
)
from snfair.permutations import enumerate_group, group_matrix
from snfair.sets import OrderingSet


def cfmm_oracle(model, p):
    """One ordering, one trade at a time, bookkeeping price explicitly."""
    price = model.p0
    total = 0.0
    for slot in range(1, model.n + 1):
        size = model.deltas[p(slot) - 1]
        total += model.beta * size * size * price
        price *= 1.0 + model.gamma * size
    return total


def liquidation_oracle(model, p):
    level = 0
    for slot in range(1, model.n + 1):
        level += model.moves[p(slot) - 1]
        if level <= -model.c:
            return 1.0
    return 0.0


FROZEN_CFMM = CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0), p0=100.0, gamma=0.001, beta=1.0)


def test_cfmm_matches_per_ordering_oracle():
    f = cfmm_payoff(FROZEN_CFMM)
    for p in enumerate_group(4):
        assert f.values[p.rank()] == pytest.approx(cfmm_oracle(FROZEN_CFMM, p), rel=1e-14)


def test_cfmm_argmax_leads_with_positive_trades():
    f = cfmm_payoff(FROZEN_CFMM)
    best = list(enumerate_group(4))[int(np.argmax(f.values))]
    # Positive-size trades (labels 1 and 2) occupy the two leading slots:
    # early buys raise the price every later extraction is booked against.
    assert {best(1), best(2)} == {1, 2}
    assert f.values.max() == pytest.approx(
        max(cfmm_oracle(FROZEN_CFMM, p) for p in enumerate_group(4)), rel=1e-14
    )


def test_cfmm_zero_impact_is_constant():
    model = CfmmModel(deltas=(1.0, 2.0, -1.0), p0=100.0, gamma=0.0, beta=1.0)
    f = cfmm_payoff(model)
    np.testing.assert_allclose(f.values, 600.0, atol=1e-10)


def test_cfmm_zero_extraction_is_zero():
    model = CfmmModel(deltas=(1.0, -1.0, 2.0), beta=0.0)
    assert np.abs(cfmm_payoff(model).values).max() == 0.0


def test_cfmm_integer_and_float_trade_sizes_agree():
    ints = cfmm_payoff(CfmmModel((3, -1, 2)))
    floats = cfmm_payoff(CfmmModel((3.0, -1.0, 2.0)))
    assert np.array_equal(ints.values, floats.values)


def test_cfmm_rejects_price_crashing_trade():
    with pytest.raises(ModelValidityError):
        CfmmModel(deltas=(1.0, -1001.0), gamma=0.001)
    with pytest.raises(ModelValidityError):
        CfmmModel(deltas=(), p0=100.0)
    with pytest.raises(ModelValidityError):
        CfmmModel(deltas=(1.0,), p0=-5.0)
    with pytest.raises(ModelValidityError):
        CfmmModel(deltas=(1.0,), gamma=-0.1)


def test_liquidation_support_16_of_24():
    f = liquidation_payoff(LiquidationModel(k=2, c=1))
    assert set(np.unique(f.values)) <= {0.0, 1.0}
    assert int(f.values.sum()) == 16
    assert len(f.values) == 24


def test_liquidation_boundary_depth_4_of_24():
    # c = k: only orderings sending both down-moves first can reach -2.
    f = liquidation_payoff(LiquidationModel(k=2, c=2))
    assert int(f.values.sum()) == 4


def test_liquidation_matches_prefix_walk_oracle():
    for k, c in ((2, 1), (2, 2), (3, 2)):
        model = LiquidationModel(k=k, c=c)
        f = liquidation_payoff(model)
        for p in enumerate_group(2 * k):
            assert f.values[p.rank()] == liquidation_oracle(model, p)


def all_words(n):
    """Every word of S_n in rank order, from itertools rather than the package."""
    letters = itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)))
    return np.fromiter(letters, dtype=np.int8, count=factorial(n) * n).reshape(-1, n)


def cfmm_whole(model):
    """The generator's operations applied to all n! orderings at once."""
    sizes = np.asarray(model.deltas)[all_words(model.n) - 1]
    prior = model.gamma * sizes
    prior += 1.0
    np.cumprod(prior, axis=1, out=prior)
    prior *= model.p0
    prior = np.concatenate([np.full((len(prior), 1), model.p0), prior[:, :-1]], axis=1)
    return model.beta * (sizes * sizes * prior).sum(axis=1)


def liquidation_whole(model):
    steps = np.asarray(model.moves)[all_words(model.n) - 1]
    return (np.cumsum(steps, axis=1) <= -model.c).any(axis=1).astype(float)


def junta_whole(terms, n):
    perms = all_words(n)
    values = np.zeros(len(perms))
    for term in terms:
        hit = np.ones(len(perms), dtype=bool)
        for i, j in term.constraints:
            hit &= perms[:, i - 1] == j
        values += term.coefficient * hit
    return values


def test_chunked_payoffs_equal_the_whole_array_formulas(monkeypatch):
    # Above a table of S_2, S_3 or S_4, each block's words are relabelled
    # from it, as they are from the S_8 table above n = 8; n = 8 also
    # reaches the unrolled pairwise sum of eight or more slots.  11 divides
    # no m!, so blocks of 11 rows end inside a prefix block or the table.
    terms = [JuntaTerm(((1, 1), (4, 9)), -2.5), JuntaTerm(((7, 2),), 0.75)]
    whole9 = junta_whole(terms, 9)
    chunks, tables = (permutations.ROW_CHUNK, 11), (2, 3, 4, permutations.WORD_TABLE_N)
    for row_chunk in chunks:
        monkeypatch.setattr(permutations, "ROW_CHUNK", row_chunk)
        assert np.array_equal(junta_payoff(terms, 9).values, whole9)
    terms = [JuntaTerm(((1, 1), (4, 7)), -2.5), JuntaTerm(((7, 2),), 0.75)]
    rng = np.random.default_rng(31)
    for row_chunk, table_n in itertools.product(chunks, tables):
        monkeypatch.setattr(permutations, "ROW_CHUNK", row_chunk)
        monkeypatch.setattr(permutations, "WORD_TABLE_N", table_n)
        for n in range(1, 9):
            deltas = tuple(float(d) for d in rng.integers(-5, 6, n))
            model = CfmmModel(deltas, gamma=0.01, beta=1.5)
            assert np.array_equal(cfmm_payoff(model).values, cfmm_whole(model))
        for k in range(1, 4):
            for c in range(1, k + 1):
                model = LiquidationModel(k, c)
                assert np.array_equal(liquidation_payoff(model).values, liquidation_whole(model))
        assert np.array_equal(junta_payoff(terms, 7).values, junta_whole(terms, 7))


@pytest.mark.parametrize(
    "generate, model, slack",
    [(cfmm_payoff, CfmmModel((2.0, -5.0, 1.0, 3.0, -1.0, 4.0, -2.0, 1.0)), 2**20),
     (liquidation_payoff, LiquidationModel(4, 2), 2**18)],
    ids=["cfmm", "liquidation"],
)
def test_n8_payoff_scans_hold_a_few_blocks_of_rows(generate, model, slack):
    # The 8! values and the S_8 table take 315 KiB each.  Beside them a
    # scan holds a few arrays of ROW_CHUNK = 4096 rows.  CFMM's sizes and
    # prices, word buffers and row sums take 0.85 MiB, within four
    # 4096 x 8 float64 arrays (1 MiB); liquidation's int8 moves and
    # buffers take 0.16 MiB, within eight 4096 x 8 int8 arrays (256 KiB).
    # Temporaries of all 8! rows would take 5.2 and 0.68 MiB.
    group_matrix.cache_clear()
    tracemalloc.start()
    try:
        f = generate(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.nbytes == group_matrix(8).nbytes == factorial(8) * 8
    assert peak < 2 * f.values.nbytes + slack


def test_liquidation_depth_validation():
    with pytest.raises(ModelValidityError):
        LiquidationModel(k=2, c=3)
    with pytest.raises(ModelValidityError):
        LiquidationModel(k=2, c=0)
    with pytest.raises(ModelValidityError):
        LiquidationModel(k=0, c=1)
    LiquidationModel(k=2, c=2)  # boundary is reachable, hence allowed


def test_junta_single_constraint_support():
    f = junta_payoff([JuntaTerm(((1, 1),))], 4)
    assert int(f.values.sum()) == 6
    for p in enumerate_group(4):
        assert f.values[p.rank()] == (1.0 if p(1) == 1 else 0.0)


def test_junta_two_constraint_support():
    f = junta_payoff([JuntaTerm(((1, 1), (2, 2)))], 4)
    assert int(f.values.sum()) == 2


def test_junta_terms_add_with_coefficients():
    t1 = JuntaTerm(((1, 1),), coefficient=2.0)
    t2 = JuntaTerm(((2, 3),), coefficient=0.5)
    f = junta_payoff([t1, t2], 4)
    for p in enumerate_group(4):
        expect = 2.0 * (p(1) == 1) + 0.5 * (p(2) == 3)
        assert f.values[p.rank()] == pytest.approx(expect)


def test_payoff_sizes_must_be_exact_integers():
    for n in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="n must be an integer"):
            PayoffFn(n, [1.0, 2.0])
        with pytest.raises(ValueError, match="n must be an integer"):
            random_payoff(n, seed=0)
    with pytest.raises(ValueError, match="n must be an integer"):
        junta_payoff([JuntaTerm(((1, 1),))], 3.0)
    assert PayoffFn(np.int64(2), [1.0, 2.0]).values.tolist() == [1.0, 2.0]
    same = random_payoff(np.int32(3), seed=0).values == random_payoff(3, seed=0).values
    assert same.all()


def test_junta_validation():
    # a slot repeated, an item repeated, and pins outside 1..n
    for constraints in (((1, 1), (1, 2)), ((1, 2), (3, 2)), ((0, 1),), ((1, 5),)):
        with pytest.raises(ValueError):
            junta_payoff([JuntaTerm(constraints)], 4)


def test_payoff_keeps_owned_read_only_values_and_copies_the_rest():
    owned = np.arange(6.0)
    owned.setflags(write=False)
    assert PayoffFn(3, owned).values is owned
    writable = np.arange(6.0)
    f = PayoffFn(3, writable)
    writable[0] = 9.0  # the caller's later write does not reach the payoff
    assert f.values[0] == 0.0
    # a read-only view, another dtype and a list are converted or copied
    for given in (owned[:], np.arange(6), list(range(6))):
        kept = PayoffFn(3, given).values
        assert kept.base is None and kept.dtype == np.float64 and not kept.flags.writeable
        assert np.array_equal(kept, owned)
    # the generators hand their own arrays over
    built = cfmm_payoff(FROZEN_CFMM).values
    assert built.base is None and not built.flags.writeable


def test_indicator_payoff_edges():
    n = 3
    assert np.all(indicator_payoff(OrderingSet.full_group(n)).values == 1.0)
    assert np.all(indicator_payoff(OrderingSet(n, ())).values == 0.0)
    singleton = indicator_payoff(OrderingSet(n, (0,)))
    assert singleton.values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_random_uniform_range_and_determinism():
    f = random_payoff(4, seed=7)
    assert f.values.shape == (24,)
    assert np.all((f.values >= 0.0) & (f.values <= 1.0))
    again = random_payoff(4, seed=7)
    np.testing.assert_array_equal(f.values, again.values)
    other = random_payoff(4, seed=8)
    assert np.abs(f.values - other.values).max() > 0.0


def test_random_sparse_support():
    f = random_payoff(4, seed=1, dist="sparse", nonzero=5)
    support = f.values[f.values != 0.0]
    assert support.size == 5
    assert np.all((support > 0.0) & (support <= 1.0))
    single = random_payoff(3, seed=2, dist="sparse", nonzero=1)
    assert np.count_nonzero(single.values) == 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_values_lie_in_the_half_open_unit_interval_in_any_chunking(data):
    n = data.draw(st.integers(1, 5))
    nonzero = data.draw(st.integers(1, factorial(n)))
    seed = data.draw(st.integers(0, 2**64))
    f = random_payoff(n, seed=seed, dist="sparse", nonzero=nonzero)
    with mock.patch.object(permutations, "ROW_CHUNK", 11):
        chunked = random_payoff(n, seed=seed, dist="sparse", nonzero=nonzero)
    # distinct ranks first, then one 64-bit word per value
    rng = random.Random(seed)
    expected = np.zeros(factorial(n))
    for rank in rng.sample(range(factorial(n)), nonzero):
        expected[rank] = 1.0 - (rng.getrandbits(64) >> 11) * 2.0**-53
    assert f.values.tolist() == chunked.values.tolist() == expected.tolist()
    support = f.values[f.values != 0.0]
    assert support.size == nonzero
    assert np.all((support > 0.0) & (support <= 1.0))


@pytest.mark.parametrize("dist, nonzero", [("uniform01", None), ("sparse", 2)])
def test_random_payoff_takes_only_a_non_negative_integer_seed(dist, nonzero):
    for seed in (-1, True, 1.5, "3"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            random_payoff(3, seed=seed, dist=dist, nonzero=nonzero)
    given_numpy = random_payoff(3, seed=np.int64(2), dist=dist, nonzero=nonzero)
    given_int = random_payoff(3, seed=2, dist=dist, nonzero=nonzero)
    assert given_numpy.values.tolist() == given_int.values.tolist()


@pytest.mark.parametrize(
    "values",
    [["1", "2"], [True, False], np.array([1.0, 2.0], dtype=object), [1 + 0j, 2 + 0j],
     [1.0, True], (np.float64(1.0), np.bool_(True)), [None, 1.0], [[1.0], [2.0]], [1.0, "2"]],
    ids=["str", "bool", "object", "complex", "bool-among-floats", "numpy-bool",
         "none", "nested", "str-among-floats"],
)
def test_payoff_values_must_be_real_numbers(values):
    with pytest.raises(ValueError, match="payoff values must be real numbers"):
        PayoffFn(2, values)


def test_lists_of_numpy_numbers_give_the_same_values():
    python = PayoffFn(3, [0.5, 2, -1.25, 3, 0.0, 7])
    numpy = PayoffFn(3, [np.float64(0.5), np.int8(2), np.float32(-1.25), np.uint64(3),
                         np.float16(0.0), np.int64(7)])
    assert numpy.values.dtype == python.values.dtype == np.float64
    assert numpy.values.tolist() == python.values.tolist()


def test_a_list_is_converted_into_the_array_the_payoff_keeps():
    values = [float(r % 7) for r in range(factorial(9))]
    tracemalloc.start()
    try:
        f = PayoffFn(9, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.base is None and not f.values.flags.writeable
    assert f.values.tolist() == values
    assert peak < 1.5 * f.values.nbytes  # no second n!-sized copy


def test_list_ints_convert_to_floats_past_int64_but_not_past_the_float_range():
    assert PayoffFn(2, [2**70, 1]).values.tolist() == [float(2**70), 1.0]
    with pytest.raises(ValueError, match="payoff values must be finite"):
        PayoffFn(2, [10**400, 1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: CfmmModel(deltas=(1, True)),
        lambda: CfmmModel(deltas=(1, 2), p0=True),
        lambda: CfmmModel(deltas=(1.0, "2")),
        lambda: CfmmModel(deltas=(1.0, 2.0), gamma=None),
        lambda: LiquidationModel(k=True, c=True),
        lambda: LiquidationModel(k=1.5, c=1),
        lambda: LiquidationModel(k=2, c=1.0),
        lambda: JuntaTerm(((1, 1),), coefficient=True),
        lambda: JuntaTerm(((1, 1),), coefficient="2"),
    ],
    ids=["cfmm-bool-delta", "cfmm-bool-p0", "cfmm-str-delta", "cfmm-none-gamma",
         "liquidation-bools", "liquidation-float-k", "liquidation-float-c",
         "junta-bool-coefficient", "junta-str-coefficient"],
)
def test_model_arguments_must_be_numbers_of_their_kind(build):
    with pytest.raises(ValueError, match="must be"):
        build()


def test_random_sparse_validation():
    with pytest.raises(ValueError):
        random_payoff(3, seed=0, dist="sparse")
    with pytest.raises(ValueError):
        random_payoff(3, seed=0, dist="sparse", nonzero=7)
    with pytest.raises(ValueError):
        random_payoff(3, seed=0, dist="triangular")


def test_capacity_guards():
    # n = 9 is inside the library limit; n = 11 is past it.
    assert random_payoff(9, seed=0).values.shape == (362880,)
    with pytest.raises(CapacityError):
        random_payoff(11, seed=0)
    with pytest.raises(CapacityError):
        junta_payoff([JuntaTerm(((1, 1),))], 11)
