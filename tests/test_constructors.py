"""Every public constructor and generator rejects a mistyped argument.

Each call below is given valid arguments, then one argument or one list
element is replaced: by a bool, a string or None anywhere, and by a
float where an integer belongs.  The call must raise ValueError or
TypeError, never return.
"""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfair.cayley import SymmetricSet
from snfair.fairness import Analysis, nested_stabilizer_instance
from snfair.fourier import degree
from snfair.intersecting import stabilizer_set
from snfair.partitions import dimension, partitions_of, standard_tableaux
from snfair.payoffs import (
    CfmmModel,
    JuntaTerm,
    LiquidationModel,
    PayoffFn,
    junta_payoff,
    random_payoff,
)
from snfair.permutations import (
    Permutation,
    enumerate_group,
    group_order,
    lehmer_unrank,
    rank_array,
    seeded,
    typed_array,
    word_blocks,
    words,
)
from snfair.representations import adjacent_generator, evaluate
from snfair.sequencing import VoteProfile, simulate
from snfair.sets import OrderingSet

PAYOFF = PayoffFn(2, [1.0, 2.0])
MEMBERS = OrderingSet(2, [1])

# name: (call, valid arguments, paths to integer slots, paths to real slots)
CALLS = {
    "Permutation": (lambda word: Permutation(tuple(word)), [[2, 1, 3]],
                    [(0, 0), (0, 1), (0, 2)], []),
    "Permutation.identity": (Permutation.identity, [3], [(0,)], []),
    "Permutation.transposition": (Permutation.transposition, [3, 1, 2], [(0,), (1,), (2,)], []),
    "lehmer_unrank": (lehmer_unrank, [3, 4], [(0,), (1,)], []),
    "enumerate_group": (lambda n: list(enumerate_group(n)), [3], [(0,)], []),
    "group_order": (group_order, [3], [(0,)], []),
    "seeded": (seeded, [3], [(0,)], []),
    "rank_array": (rank_array, [3, [0, 4]], [(0,), (1, 0), (1, 1)], []),
    "typed_array": (lambda items: typed_array(items, (int, np.integer), np.int64, "type", "range"),
                    [[0, 4]], [(0, 0), (0, 1)], []),
    "words": (words, [3, [0, 4]], [(0,), (1, 0), (1, 1)], []),
    "word_blocks": (lambda n, ranks: list(word_blocks(n, ranks)), [3, [0, 4]],
                    [(0,), (1, 0), (1, 1)], []),
    # cached: each checks its arguments before the lookup, where (2, True)
    # would find the entry of (2, 1)
    "partitions_of": (partitions_of, [3], [(0,)], []),
    "dimension": (lambda shape: dimension(tuple(shape)), [[2, 1]], [(0, 0), (0, 1)], []),
    "standard_tableaux": (lambda shape: standard_tableaux(tuple(shape)), [[2, 1]],
                          [(0, 0), (0, 1)], []),
    "adjacent_generator": (lambda shape, k: adjacent_generator(tuple(shape), k), [[2, 1], 1],
                           [(0, 0), (0, 1), (1,)], []),
    "evaluate": (lambda shape: evaluate(tuple(shape), Permutation((2, 1, 3))), [[2, 1]],
                 [(0, 0), (0, 1)], []),
    "OrderingSet": (OrderingSet, [3, [0, 4]], [(0,), (1, 0), (1, 1)], []),
    "OrderingSet.from_ranks": (OrderingSet.from_ranks, [3, [4, 0, 4]],
                               [(0,), (1, 0), (1, 1), (1, 2)], []),
    "OrderingSet.full_group": (OrderingSet.full_group, [3], [(0,)], []),
    "SymmetricSet": (SymmetricSet, [3, [0, 1]], [(0,), (1, 0), (1, 1)], []),
    "PayoffFn": (PayoffFn, [2, [1.0, 2.0]], [(0,)], [(1, 0), (1, 1)]),
    "CfmmModel": (lambda deltas, *coefficients: CfmmModel(tuple(deltas), *coefficients),
                  [[1.0, -2.0], 100.0, 0.001, 1.0], [], [(0, 0), (0, 1), (1,), (2,), (3,)]),
    "LiquidationModel": (LiquidationModel, [2, 1], [(0,), (1,)], []),
    "junta_payoff": (
        lambda pins, coefficient, n: junta_payoff(
            [JuntaTerm(tuple(map(tuple, pins)), coefficient)], n
        ),
        [[[1, 1], [2, 3]], 1.0, 3], [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (2,)], [(1,)],
    ),
    "random_payoff": (random_payoff, [3, 1], [(0,), (1,)], []),
    "random_payoff-sparse": (lambda n, seed, nonzero: random_payoff(n, seed, "sparse", nonzero),
                             [3, 1, 2], [(0,), (1,), (2,)], []),
    "VoteProfile": (VoteProfile, [3, [[1, 2, 3], [2, 1, 3]]],
                    [(0,), (1, 0, 0), (1, 0, 2), (1, 1, 1)], []),
    "simulate": (lambda n_tx, n_validators, seed: simulate(n_tx, n_validators, seed=seed),
                 [3, 4, 1], [(0,), (1,), (2,)], []),
    "simulate-cycle": (lambda n_tx, count: simulate(n_tx, count, "adversarial_cycle"),
                       [3, 6], [(0,), (1,)], []),
    "stabilizer_set": (stabilizer_set, [3, [[1, 1]]], [(0,), (1, 0, 0), (1, 0, 1)], []),
    "nested_stabilizer_instance": (nested_stabilizer_instance, [4, 1, 2],
                                   [(0,), (1,), (2,)], []),
    "Analysis": (lambda tol: Analysis(PAYOFF, MEMBERS, tol), [1e-9], [], [(0,)]),
    "degree": (lambda tol: degree(PAYOFF, tol), [1e-9], [], [(0,)]),
}

NOT_A_NUMBER = st.one_of(st.booleans(), st.text(max_size=3), st.none())


def _replaced(args, path, value):
    args = copy.deepcopy(args)
    *outer, last = path
    target = args
    for i in outer:
        target = target[i]
    target[last] = value
    return args


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_call_returns_on_its_valid_arguments(name):
    call, args, _, _ = CALLS[name]
    call(*copy.deepcopy(args))


@pytest.mark.parametrize("name, path", [
    pytest.param(name, path, id=f"{name}-{'.'.join(map(str, path))}")
    for name in sorted(CALLS) for path in sum(CALLS[name][2:], [])
])
def test_true_in_any_slot_raises(name, path):
    # the one mistyped value that numpy and the caches read as a valid 1
    call, args, _, _ = CALLS[name]
    with pytest.raises((ValueError, TypeError)):
        call(*_replaced(args, path, True))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_mistyped_argument_or_element_raises(data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="call")
    call, args, int_paths, real_paths = CALLS[name]
    path = data.draw(st.sampled_from(int_paths + real_paths), label="path")
    bad = NOT_A_NUMBER | st.floats() if path in int_paths else NOT_A_NUMBER
    value = data.draw(bad, label="value")
    with pytest.raises((ValueError, TypeError)):
        call(*_replaced(args, path, value))
