"""Pairwise agreement levels and the indicator-degree link."""
import itertools
import tracemalloc
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfair import intersecting, permutations
from snfair.errors import EmptySetError
from snfair.fairness import verify_indicator_degree
from snfair.intersecting import TILE, intersection_profile, stabilizer_set
from snfair.permutations import Permutation, group_matrix
from snfair.sets import OrderingSet


def t_max_oracle(members):
    """Quadratic loop over unordered pairs, no vectorization."""
    words = [tuple(int(x) for x in row) for row in members.matrix()]
    if len(words) == 1:
        return members.n
    best = members.n
    for a, b in itertools.combinations(words, 2):
        best = min(best, sum(x == y for x, y in zip(a, b)))
    return best


def test_slot1_stabilizer_in_s3():
    members = stabilizer_set(3, [(1, 1)])
    profile = intersection_profile(members)
    assert profile.t_max == 1
    assert profile.common_pairs == ((1, 1),)
    assert profile.size_gate  # 2 >= (3-1)! is exactly met


def test_full_group_s3_agreement_zero():
    profile = intersection_profile(OrderingSet.full_group(3))
    assert profile.t_max == 0
    assert profile.common_pairs == ()


def test_singleton_convention():
    profile = intersection_profile(OrderingSet(4, (7,)))
    assert profile.t_max == 4
    assert len(profile.common_pairs) == 4
    assert profile.size_gate


def test_profile_matches_quadratic_oracle():
    rng = np.random.default_rng(17)
    for n in (3, 4, 5):
        for trial in range(12):
            size = int(rng.integers(1, min(9, factorial(n) + 1)))
            ranks = rng.choice(factorial(n), size=size, replace=False)
            members = OrderingSet.from_ranks(n, ranks)
            assert intersection_profile(members).t_max == t_max_oracle(members)


def two_of_first_three_fixed(n):
    """Ranks fixing at least two of slots 1-3: every pair agrees, no slot is shared."""
    words = group_matrix(n)
    return np.flatnonzero((words[:, :3] == np.arange(1, 4)).sum(axis=1) >= 2)


@st.composite
def ordering_sets(draw):
    n = draw(st.integers(1, 6))
    pool = range(factorial(n))
    if n >= 4 and draw(st.booleans()):
        pool = two_of_first_three_fixed(n).tolist()
    ranks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40, unique=True))
    return OrderingSet.from_ranks(n, ranks)


@settings(max_examples=300, deadline=None)
@given(
    ordering_sets(),
    st.sampled_from([permutations.WORD_TABLE_N, 2, 3, 4]),
    st.sampled_from([permutations.ROW_CHUNK, 7]),
)
def test_profile_matches_oracle_on_random_sets(members, table_n, row_chunk):
    # With a table of S_2, S_3 or S_4, or blocks of 7 rows, up to 40
    # members span many blocks
    n, words = members.n, members.matrix().tolist()
    t = t_max_oracle(members)
    shared = tuple(
        (i + 1, words[0][i]) for i in range(n) if all(w[i] == words[0][i] for w in words)
    )
    with mock.patch.multiple(permutations, WORD_TABLE_N=table_n, ROW_CHUNK=row_chunk):
        profile = intersection_profile(members)
    assert profile.t_max == t
    assert profile.common_pairs == shared
    assert profile.size_gate == (len(members) >= factorial(n - t))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_intersecting_family_sits_above_its_floor(monkeypatch, n):
    # no slot is shared, so the floor lies below t_max and the tiles run;
    # with a table of S_3, the member-0 scan and the tiles cross blocks,
    # and with tiles of 7 members, tile edges fall inside every family
    members = OrderingSet(n, two_of_first_three_fixed(n))
    monkeypatch.setattr(permutations, "WORD_TABLE_N", 3)
    t = t_max_oracle(members)
    for tile in (TILE, 7):
        monkeypatch.setattr(intersecting, "TILE", tile)
        profile = intersection_profile(members)
        assert profile.common_pairs == ()
        assert profile.t_max == t == 1


def test_only_low_pair_in_the_last_tile():
    # A fixes slots 1 and 2, so its pairs agree on at least 2 slots.  x
    # keeps slot 1 and y keeps slot 2, so each agrees with every member of A;
    # x and y agree nowhere, and their ranks put them last.
    stab = stabilizer_set(9, [(1, 1), (2, 2)])
    x = Permutation((1, 9, 2, 3, 4, 5, 6, 7, 8)).rank()
    y = Permutation((9, 2, 3, 4, 5, 6, 7, 8, 1)).rank()
    members = OrderingSet.from_ranks(9, [*stab.members.tolist(), x, y])
    m = len(members)
    assert m > TILE
    assert members.members[-2:].tolist() == [x, y]
    words = members.matrix()
    assert np.flatnonzero((words == words[-1]).sum(axis=1) == 0).tolist() == [m - 2]

    tracemalloc.start()
    try:
        profile = intersection_profile(members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.t_max == 0 and profile.common_pairs == ()
    assert peak < m * m  # a quarter of an m x m float32 agreement matrix

    assert intersection_profile(OrderingSet(9, members.members[:-1])).t_max == 1
    assert intersection_profile(stab).t_max == 2


def test_common_pairs_require_unanimity():
    # {id, (3 4)-swap} share slots 1 and 2 only.
    members = OrderingSet.from_ranks(4, [0, 1])
    profile = intersection_profile(members)
    assert profile.common_pairs == ((1, 1), (2, 2))
    assert profile.t_max == 2


def test_empty_set_rejected():
    with pytest.raises(EmptySetError):
        intersection_profile(OrderingSet(3, ()))


def test_size_gate_boundary():
    # Two orderings agreeing on 2 of 4 slots: gate needs (4-2)! = 2 members.
    members = OrderingSet.from_ranks(4, [0, 1])
    assert intersection_profile(members).size_gate
    # A lone pair agreeing nowhere still beats (4-0)! = 24? No: gate off.
    spread = OrderingSet.from_ranks(4, [0, 23])
    profile = intersection_profile(spread)
    assert profile.t_max == 0
    assert not profile.size_gate


def test_indicator_degree_two_pin_stabilizer():
    members = stabilizer_set(4, [(1, 1), (2, 2)])
    assert len(members) == 2
    report = verify_indicator_degree(members)
    assert members.profile.t_max == 2
    assert report.deg_indicator == 2
    assert report.claim_holds


def test_indicator_degree_one_pin_s5():
    members = stabilizer_set(5, [(1, 1)])
    report = verify_indicator_degree(members)
    assert members.profile.t_max == 1
    assert report.deg_indicator == 1
    assert report.claim_holds


def test_indicator_degree_full_group_vacuous():
    members = OrderingSet.full_group(4)
    report = verify_indicator_degree(members)
    assert members.profile.t_max == 0
    assert report.deg_indicator == 0
    assert report.claim_holds


def test_indicator_degree_singleton_clamps_to_max_degree():
    members = OrderingSet(4, (11,))
    report = verify_indicator_degree(members)
    assert members.profile.t_max == 4
    assert report.deg_indicator == 3  # point masses carry every shape
    assert report.claim_holds


def test_stabilizer_sizes():
    assert len(stabilizer_set(4, [(1, 1)])) == 6
    assert len(stabilizer_set(4, [(1, 2), (2, 1)])) == 2
    assert len(stabilizer_set(5, [(3, 3)])) == 24


def test_stabilizer_members_satisfy_pins(monkeypatch):
    words = group_matrix(7)
    monkeypatch.setattr(permutations, "WORD_TABLE_N", 2)  # blocks of two ranks
    members = stabilizer_set(4, [(2, 3), (4, 1)])
    for word in members.matrix():
        assert word[1] == 3 and word[3] == 1
    assert len(members) == 2
    members = stabilizer_set(7, [(3, 1), (1, 2)])
    pinned = (words[:, 0] == 2) & (words[:, 2] == 1)
    assert members.members.tolist() == np.flatnonzero(pinned).tolist()
    assert members.profile.common_pairs == ((1, 2), (3, 1))


def test_stabilizer_no_pairs_is_full_group():
    assert stabilizer_set(4, []) == OrderingSet.full_group(4)


def test_stabilizer_pins_must_be_exact_integers():
    # int() would turn each of these into a pin at slot 1 or 2.
    for pair in ((1.7, 2.2), (True, 2), (1, 2.0), ("1", 2)):
        with pytest.raises(ValueError, match=r"pair .* must hold two integers"):
            stabilizer_set(4, [pair])
    pinned = stabilizer_set(4, [(np.int64(1), np.uint8(2))])
    assert pinned == stabilizer_set(4, [(1, 2)])
    assert len(pinned) == 6


def test_stabilizer_validation():
    with pytest.raises(ValueError):
        stabilizer_set(4, [(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        stabilizer_set(4, [(1, 1), (2, 1)])
    with pytest.raises(ValueError):
        stabilizer_set(4, [(5, 1)])
    with pytest.raises(ValueError):
        stabilizer_set(4, [(1, 0)])


def unstopped_profile(members):
    """The profile from member 0's pass over every member, then the tiles."""
    n, words = members.n, members.matrix()
    agree = words == words[0]
    shared = agree.all(axis=0)
    t_max, floor = int(agree.sum(axis=1).min()), int(shared.sum())
    if t_max > floor:
        t_max = intersecting._tiled_minimum(n, members.members, t_max, floor)
    pairs = tuple((int(i) + 1, int(words[0][i])) for i in np.flatnonzero(shared))
    return intersecting.IntersectionProfile(
        t_max=t_max, common_pairs=pairs, size_gate=len(members) >= factorial(n - t_max)
    )


@st.composite
def sets_with_a_derangement_of_member_0(draw):
    """n in 2..7 and a set whose smallest rank has a derangement among the
    others (a member agreeing with it at no slot), plus random members."""
    n = draw(st.integers(2, 7))
    size = factorial(n)
    first = draw(st.integers(0, size - 2))
    table = group_matrix(n)
    later = np.flatnonzero((table != table[first]).all(axis=1))
    later = later[later > first].tolist()
    if not later:  # only the largest ranks lack a later derangement
        first, later = 0, np.flatnonzero((table != table[0]).all(axis=1)).tolist()
    derangement = draw(st.sampled_from(later))
    others = draw(st.lists(st.integers(first + 1, size - 1), max_size=40))
    return OrderingSet.from_ranks(n, [first, derangement, *others])


@settings(max_examples=150, deadline=None)
@given(sets_with_a_derangement_of_member_0(), st.sampled_from([permutations.ROW_CHUNK, 3]))
def test_a_pass_stopped_at_level_0_gives_the_unstopped_profile(members, row_chunk):
    with mock.patch.object(permutations, "ROW_CHUNK", row_chunk):
        profile = intersection_profile(members)
    assert profile == unstopped_profile(members)
    assert profile.t_max == 0 and profile.common_pairs == ()


@pytest.mark.parametrize("n", range(3, 8))
def test_full_groups_and_cycle_sets_stop_with_the_unstopped_profile(n):
    from snfair.sequencing import majority_graph, simulate, valid_orderings

    cycle = valid_orderings(majority_graph(simulate(n, n, "adversarial_cycle")))
    for members in (OrderingSet.full_group(n), cycle):
        assert intersection_profile(members) == unstopped_profile(members)
    # Read one row at a time, the pass ends at the identity's first derangement.
    read = []

    def counted(n, ranks):
        for rows, block in permutations.word_blocks(n, ranks):
            read.append(rows.stop - rows.start)
            yield rows, block

    with mock.patch.object(intersecting, "word_blocks", counted), \
            mock.patch.object(permutations, "ROW_CHUNK", 1):
        intersection_profile(OrderingSet.full_group(n))
    table = group_matrix(n)
    assert sum(read) == np.flatnonzero((table != table[0]).all(axis=1))[0] + 1
