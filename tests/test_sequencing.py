"""Vote profiles, majority graphs, and admissible-ordering enumeration."""
import itertools
import tracemalloc
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfair import permutations
from snfair.errors import CapacityError
from snfair.permutations import group_matrix
from snfair.sequencing import VoteProfile, majority_graph, simulate, valid_orderings

CYCLE_3 = VoteProfile(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))


def admissible_oracle(votes):
    """Brute force: re-derive edges by counting, then filter orderings."""
    n = votes.n_tx
    m = len(votes.validators)
    edges = set()
    for i, j in itertools.permutations(range(1, n + 1), 2):
        before = sum(
            order.index(i) < order.index(j) for order in votes.validators
        )
        if before * 2 > m:
            edges.add((i, j))

    # Strongly connected components by double reachability.
    def reach(src):
        seen = {src}
        frontier = [src]
        while frontier:
            x = frontier.pop()
            for (a, b) in edges:
                if a == x and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return seen

    fwd = {v: reach(v) for v in range(1, n + 1)}
    comp = {}
    for v in range(1, n + 1):
        comp[v] = frozenset(w for w in fwd[v] if v in fwd[w])

    keep = []
    for word in itertools.permutations(range(1, n + 1)):
        slot = {tx: s for s, tx in enumerate(word)}
        ok = all(
            slot[i] < slot[j]
            for (i, j) in edges
            if comp[i] != comp[j]
        )
        if ok:
            keep.append(word)
    return set(keep)


def test_condorcet_cycle_builds_one_big_scc():
    graph = majority_graph(CYCLE_3)
    assert graph.edges == frozenset({(1, 2), (2, 3), (3, 1)})
    assert graph.sccs == ((1, 2, 3),)
    assert graph.has_cycle


def test_condorcet_cycle_admits_all_orderings():
    members = valid_orderings(majority_graph(CYCLE_3))
    assert len(members) == 6
    assert members.profile.t_max == 0


def test_unanimity_pins_single_ordering():
    n = 4
    votes = VoteProfile(n, ((2, 4, 1, 3),) * 5)
    graph = majority_graph(votes)
    assert graph.sccs == tuple((tx,) for tx in range(1, n + 1))
    assert not graph.has_cycle
    members = valid_orderings(graph)
    assert len(members) == 1
    assert members.matrix()[0].tolist() == [2, 4, 1, 3]
    assert members.profile.t_max == n


def test_single_unanimous_edge_leaves_half():
    # Three validators agree only that 1 precedes 2; everything else ties.
    votes = VoteProfile(
        4,
        (
            (1, 2, 3, 4),
            (3, 1, 2, 4),
            (4, 1, 2, 3),
            (1, 2, 4, 3),
        ),
    )
    graph = majority_graph(votes)
    assert (1, 2) in graph.edges
    members = valid_orderings(graph)
    oracle = admissible_oracle(votes)
    assert {tuple(w) for w in members.matrix().tolist()} == oracle


def test_exact_tie_produces_no_edge():
    votes = VoteProfile(2, ((1, 2), (2, 1)))
    graph = majority_graph(votes)
    assert graph.edges == frozenset()
    assert len(valid_orderings(graph)) == 2


def test_admissible_set_matches_oracle_on_random_profiles():
    rng = np.random.default_rng(13)
    for trial in range(15):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        votes = VoteProfile(
            n,
            tuple(
                tuple(int(x) for x in rng.permutation(n) + 1) for _ in range(m)
            ),
        )
        members = valid_orderings(majority_graph(votes))
        assert {tuple(w) for w in members.matrix().tolist()} == admissible_oracle(votes)


def argsort_orderings(graph):
    """Admissible ranks through the full int64 argsort of the group matrix."""
    n = graph.n_tx
    component = {tx: c for c, comp in enumerate(graph.sccs) for tx in comp}
    slot_of = np.argsort(group_matrix(n), axis=1)
    keep = np.ones(factorial(n), dtype=bool)
    for i, j in graph.edges:
        if component[i] != component[j]:
            keep &= slot_of[:, i - 1] < slot_of[:, j - 1]
    return np.nonzero(keep)[0]


@st.composite
def vote_profiles(draw):
    n = draw(st.integers(1, 7))
    orders = st.permutations(range(1, n + 1)).map(tuple)
    return VoteProfile(n, tuple(draw(st.lists(orders, min_size=1, max_size=9))))


@settings(max_examples=80, deadline=None)
@given(
    vote_profiles(),
    st.sampled_from([permutations.WORD_TABLE_N, 2, 3, 4]),
    st.sampled_from([permutations.ROW_CHUNK, 7]),
)
def test_valid_orderings_matches_argsort_formulation(votes, table_n, row_chunk):
    # Above table_n, the scan reads blocks relabelled from the S_table_n
    # table, and blocks of 7 rows end inside prefix blocks and the table
    graph = majority_graph(votes)
    with mock.patch.multiple(permutations, WORD_TABLE_N=table_n, ROW_CHUNK=row_chunk):
        members = valid_orderings(graph)
    assert np.array_equal(members.members, argsort_orderings(graph))
    assert {tuple(w) for w in members.matrix().tolist()} == admissible_oracle(votes)


def cycle_scan_peak(n):
    """Traced peak of the admissible-set scan and agreement profile of an
    n-cycle, word source included: the word table cache starts empty."""
    graph = majority_graph(simulate(n, n, "adversarial_cycle"))
    group_matrix.cache_clear()
    tracemalloc.start()
    try:
        members = valid_orderings(graph)
        profile = members.profile
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == factorial(n) and profile.t_max == 0
    return peak


def test_n9_cycle_scans_hold_no_copy_of_the_group():
    # The set's 9! ranks take 2.8 MiB and the S_8 table 0.3 MiB.  Scans in
    # blocks of ROW_CHUNK rows add 0.7 MiB more; a table of S_9 would add
    # 3.3 MiB and whole-array scans n! x n compares (3.3 MiB each) and
    # rank copies.
    assert cycle_scan_peak(9) < 10 * 2**20


def test_n9_admissible_set_is_built_without_a_wide_rank_array():
    # The mask (0.35 MiB), the set's 9! int32 ranks (1.38 MiB) and the
    # rank check's comparison (0.35 MiB); int64 ranks, or an int64 copy of
    # int32 ones, would add 1.38 MiB or more.
    graph = majority_graph(simulate(9, 9, "adversarial_cycle"))
    group_matrix(8)  # the word table is cached outside the trace
    tracemalloc.start()
    try:
        members = valid_orderings(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == factorial(9) and members.members.dtype == np.int32
    assert peak <= 2.5 * 2**20


def test_n10_cycle_scans_hold_no_copy_of_the_group():
    # The set's 10! ranks take 27.7 MiB; a table of S_10 would add 34.6 MiB.
    assert cycle_scan_peak(10) < 40 * 2**20


def test_mixed_profile_two_components():
    # Everyone sees tx 1 first; the rest rotate and form a cycle.
    votes = VoteProfile(
        4,
        (
            (1, 2, 3, 4),
            (1, 3, 4, 2),
            (1, 4, 2, 3),
        ),
    )
    graph = majority_graph(votes)
    assert graph.sccs == ((1,), (2, 3, 4))
    members = valid_orderings(graph)
    assert len(members) == 6  # tx 1 pinned first, cycle block free
    assert (members.matrix()[:, 0] == 1).all()


def test_two_separate_cycles():
    # {2, 3, 6} and {1, 4, 5} each rotate; every validator sees the first
    # group before the second.
    votes = VoteProfile(
        6,
        (
            (2, 3, 6, 1, 4, 5),
            (3, 6, 2, 4, 5, 1),
            (6, 2, 3, 5, 1, 4),
        ),
    )
    graph = majority_graph(votes)
    assert graph.sccs == ((1, 4, 5), (2, 3, 6))
    assert graph.has_cycle
    members = valid_orderings(graph)
    assert len(members) == 36
    assert {tuple(w) for w in members.matrix().tolist()} == admissible_oracle(votes)


def test_valid_orderings_never_empty():
    # Cross-component edges are acyclic by construction, so at least one
    # topological order always survives.
    rng = np.random.default_rng(29)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        votes = VoteProfile(
            n, tuple(tuple(int(x) for x in rng.permutation(n) + 1) for _ in range(5))
        )
        assert len(valid_orderings(majority_graph(votes))) >= 1


def test_simulate_iid_shuffle_seeded():
    votes = simulate(4, 6, "iid_shuffle", seed=42)
    assert votes.n_tx == 4
    assert len(votes.validators) == 6
    again = simulate(4, 6, "iid_shuffle", seed=42)
    assert votes == again
    assert simulate(4, 6, "iid_shuffle", seed=43) != votes


def test_simulate_adversarial_cycle_matches_rotation_profile():
    votes = simulate(3, 3, "adversarial_cycle")
    assert set(votes.validators) == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    graph = majority_graph(votes)
    assert graph.sccs == ((1, 2, 3),)
    assert len(valid_orderings(graph)) == 6


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate(2, 2, "adversarial_cycle")
    with pytest.raises(ValueError):
        simulate(3, 4, "adversarial_cycle")
    with pytest.raises(ValueError):
        simulate(3, 3, "quantum")
    with pytest.raises(ValueError):
        simulate(0, 3)
    # True would pass as one validator, and 2.0 would reach range()
    for n_tx, n_validators in ((3, True), (True, 3), (3, 2.0), (3.0, 2)):
        with pytest.raises(ValueError, match="counts must be integers"):
            simulate(n_tx, n_validators)


def test_vote_profile_validation():
    with pytest.raises(ValueError):
        VoteProfile(3, ((1, 2),))
    with pytest.raises(ValueError):
        VoteProfile(3, ((1, 2, 2),))
    with pytest.raises(ValueError):
        VoteProfile(3, ())
    # sorted() would take each of these as a permutation of 1..n_tx
    for n_tx, validators in ((3, ((1.0, 2.0, 3.0),)), (2, ((True, 2),)), (3, 5), (3, (7,))):
        with pytest.raises(ValueError, match="must be a list of lists of integer labels"):
            VoteProfile(n_tx, validators)
    with pytest.raises(ValueError, match="n_tx must be an integer"):
        VoteProfile(True, ((True,),))
    listed = VoteProfile(np.int64(3), [[1, 2, 3], [3, 2, 1]])
    assert listed == VoteProfile(3, ((1, 2, 3), (3, 2, 1)))
    assert listed.validators == ((1, 2, 3), (3, 2, 1))


def test_capacity_guard_on_enumeration():
    votes = VoteProfile(9, (tuple(range(1, 10)),))
    assert len(valid_orderings(majority_graph(votes))) == 1
    votes = VoteProfile(11, (tuple(range(1, 12)),))
    with pytest.raises(CapacityError):
        valid_orderings(majority_graph(votes))
