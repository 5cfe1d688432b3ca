import tracemalloc
from math import factorial

import numpy as np
import pytest

from snfair import permutations
from snfair.cayley import _inverse_ranks
from snfair.permutations import MAX_ENUMERABLE_N, lehmer_unrank, rank_of_word
from snfair.representations import _coset_order
from snfair.sets import OrderingSet


def test_members_must_be_increasing_in_range():
    OrderingSet(3, (0, 2, 5))
    with pytest.raises(ValueError):
        OrderingSet(3, (2, 0))
    with pytest.raises(ValueError):
        OrderingSet(3, (0, 0))
    with pytest.raises(ValueError):
        OrderingSet(3, (6,))
    with pytest.raises(ValueError):
        OrderingSet(3, (-1,))


def test_size_must_be_an_exact_integer():
    for n in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="n must be an integer"):
            OrderingSet(n, [0])
    assert OrderingSet(np.int64(3), [0, 5]).members.tolist() == [0, 5]


@pytest.mark.parametrize(
    "members",
    [[0, True], [0, 1.0], [0, None], [[0], [1]], [0, "1"], (0, np.bool_(True))],
    ids=["bool", "float", "none", "nested", "str", "numpy-bool"],
)
def test_list_members_must_be_integers(members):
    # numpy would read [0, True] as the ranks 0 and 1
    with pytest.raises(ValueError, match="members must be a 1-D sequence of integer ranks"):
        OrderingSet(3, members)
    with pytest.raises(ValueError, match="members must be a 1-D sequence of integer ranks"):
        OrderingSet.from_ranks(3, members)


def test_lists_of_numpy_integers_give_the_same_members():
    python = OrderingSet(4, [0, 3, 17])
    for members in ([np.int64(0), np.uint8(3), np.int32(17)], (np.int16(0), 3, np.uint64(17))):
        numpy = OrderingSet(4, members)
        assert numpy.members.dtype == python.members.dtype == np.int32
        assert numpy.members.tolist() == python.members.tolist()
        assert OrderingSet.from_ranks(4, members[::-1]) == python


def test_a_list_is_converted_into_the_array_the_set_keeps():
    members = list(range(0, factorial(9), 2))
    tracemalloc.start()
    try:
        s = OrderingSet(9, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.members.base is None and not s.members.flags.writeable
    assert s.members.tolist() == members
    # one n!/2-sized int64 array and small temporaries, not a second copy
    assert peak < 1.5 * s.members.nbytes


def test_from_ranks_sorts_and_dedups():
    s = OrderingSet.from_ranks(3, [5, 1, 5, 0])
    assert s.members.tolist() == [0, 1, 5]


def test_full_group_and_len():
    s = OrderingSet.full_group(4)
    assert len(s) == 24
    assert s.members.tolist() == list(range(24))


def test_contains():
    s = OrderingSet(4, (0, 7, 23))
    assert 7 in s
    assert 8 not in s
    assert 23 in s


def test_matrix_rows_are_member_words():
    s = OrderingSet(3, (0, 3, 5))
    mat = s.matrix()
    for row, r in zip(mat, s.members):
        assert tuple(int(x) for x in row) == lehmer_unrank(3, r).mapping


def test_permutations_roundtrip():
    s = OrderingSet(4, (2, 9, 17))
    again = OrderingSet.from_ranks(4, rank_of_word(s.matrix()))
    assert again == s


def test_members_are_a_read_only_int32_array():
    s = OrderingSet(4, (0, 5, 11))
    assert isinstance(s.members, np.ndarray)
    assert s.members.dtype == np.int32 and s.members.ndim == 1
    with pytest.raises(ValueError):
        s.members[0] = 3
    with pytest.raises(ValueError):
        OrderingSet(3, np.array([0.0, 2.0]))  # float ranks
    with pytest.raises(ValueError):
        OrderingSet(3, np.array([[0, 1]]))  # not 1-D


def test_no_array_the_caller_holds_can_write_the_members():
    # A writable array, and a read-only view of one, are copied: the
    # caller's later writes through either do not reach the set.
    ranks = np.array([0, 5, 11])
    view = ranks.view()
    view.setflags(write=False)
    for given in (ranks, view):
        s = OrderingSet(4, given)
        ranks[0] = 3
        assert s.members.tolist() == [0, 5, 11]
        ranks[0] = 0
    # A read-only int32 array that owns its memory is kept as given, as is
    # what the constructors build for themselves.  Nothing writes to such an
    # array unless its read-only flag is cleared first, as for any copy.
    frozen = np.array([0, 5, 11], dtype=np.int32)
    frozen.setflags(write=False)
    assert OrderingSet(4, frozen).members is frozen
    # One of another dtype is converted once, into an int32 array the set owns.
    wide = np.array([0, 5, 11], dtype=np.int64)
    wide.setflags(write=False)
    kept = OrderingSet(4, wide).members
    assert kept.dtype == np.int32 and kept.base is None and not kept.flags.writeable
    assert kept.tolist() == [0, 5, 11]
    keep = np.zeros(24, dtype=bool)
    keep[[0, 5, 11]] = True
    sets = (
        OrderingSet.from_mask(4, keep),
        OrderingSet.from_ranks(4, ranks[::-1]),
        OrderingSet.full_group(4),
    )
    keep[:] = True
    ranks[:] = 1
    for s in sets:
        assert s.members.base is None and not s.members.flags.writeable
        with pytest.raises(ValueError):
            s.members[0] = 1
    assert sets[0].members.tolist() == sets[1].members.tolist() == [0, 5, 11]
    again = np.zeros(24, dtype=bool)
    again[sets[0].members] = True
    assert OrderingSet.from_mask(4, again) == sets[0]
    assert sets[2].members.tolist() == list(range(24))


def test_from_mask_gathers_across_chunks(monkeypatch):
    # 11 divides no n!, so the gather's chunks end at uneven ranks
    keep = np.random.default_rng(5).random(720) < 0.3
    monkeypatch.setattr(permutations, "ROW_CHUNK", 11)
    assert OrderingSet.from_mask(6, keep).members.tolist() == np.flatnonzero(keep).tolist()


@pytest.mark.parametrize("keep", [
    pytest.param(np.ones(5, dtype=bool), id="short"),
    pytest.param(np.ones(7, dtype=bool), id="long"),
    pytest.param(np.ones(6), id="float"),
    pytest.param(np.ones(6, dtype=np.int8), id="int8"),
    pytest.param(np.ones((2, 3), dtype=bool), id="2-d"),
    pytest.param([True] * 6, id="list"),
])
def test_from_mask_takes_only_a_bool_array_of_length_n_factorial(keep):
    with pytest.raises(ValueError, match="1-D bool array of length 6"):
        OrderingSet.from_mask(3, keep)


def test_from_ranks_takes_unsorted_numpy_input_with_duplicates():
    ranks = np.array([23, 4, 4, 0, 23, 7, 0], dtype=np.int32)
    s = OrderingSet.from_ranks(4, ranks)
    assert s.members.tolist() == [0, 4, 7, 23]
    assert OrderingSet.from_ranks(4, np.array([], dtype=np.int64)).members.size == 0


def test_equal_sets_hash_alike_and_subclasses_stay_distinct():
    from snfair.cayley import symmetrize

    a, b = OrderingSet(4, (0, 5, 11)), OrderingSet.from_ranks(4, [11, 0, 5, 5])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert {a: 1}[b] == 1
    closed = symmetrize(OrderingSet(4, (0, 1)))  # identity and a transposition
    plain = OrderingSet(4, closed.members)
    assert closed != plain and plain != closed
    assert hash(closed) == hash(symmetrize(plain))


def test_every_rank_array_is_int32():
    # int32 holds every rank of the largest group the package enumerates.
    assert factorial(MAX_ENUMERABLE_N) < 2**31
    for n in (1, 4, 9):
        assert _coset_order(n).dtype == np.int32
    s = OrderingSet(9, [0, 1, 362879])
    assert _inverse_ranks(s).dtype == np.int32
    assert _inverse_ranks(s).tolist() == [0, 1, 362879]


@pytest.mark.parametrize("big", [2**31, 2**32 + 1])
@pytest.mark.parametrize("kind", ["list", "int64 array"])
def test_ranks_past_int32_are_rejected_not_wrapped(big, kind):
    # 2**32 + 1 would wrap to the rank 1 in an int32 cast.
    message = r"members must be strictly increasing ranks in \[0, 6\)"
    members = [0, big] if kind == "list" else np.array([0, big], dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        OrderingSet(3, members)
    with pytest.raises(ValueError, match=message):
        OrderingSet.from_ranks(3, members[::-1])
    # past int64 a listed rank is mistyped, as it always was
    with pytest.raises(ValueError, match="members must be a 1-D sequence of integer ranks"):
        OrderingSet(3, [0, big, 2**63])
    assert 2**32 + 1 not in OrderingSet(3, [1])


def test_membership_keys_do_not_copy_the_members():
    s = OrderingSet.full_group(9)
    tracemalloc.start()
    try:
        found = [r in s for r in (0, 362879, 362880, -1, 2**40, True, 1.0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [True, True, False, False, False, False, False]
    assert peak < 64 * 1024  # an int64 copy of the members takes 2.8 MiB
