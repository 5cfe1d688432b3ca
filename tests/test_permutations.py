"""Permutation arithmetic against hand oracles and brute-force enumeration."""
import ast
import itertools
import random
import re
import tracemalloc
from math import factorial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfair import permutations, sets
from snfair.errors import CapacityError
from snfair.intersecting import stabilizer_set
from snfair.payoffs import JuntaTerm, junta_payoff
from snfair.permutations import (
    Permutation,
    enumerate_group,
    group_matrix,
    lehmer_unrank,
    rank_of_word,
    seeded,
    uniform,
    word_blocks,
    words,
)
from snfair.sets import OrderingSet


def compose_oracle(p, q):
    # (p o q)(i) = p(q(i)): apply q first, pointwise.
    return tuple(p.mapping[q.mapping[i] - 1] for i in range(len(p.mapping)))


def test_compose_frozen_example():
    p = Permutation((2, 1, 3))
    q = Permutation((1, 3, 2))
    assert (p * q).mapping == (2, 3, 1)
    assert (p * q).mapping == compose_oracle(p, q)


def test_compose_matches_pointwise_oracle_everywhere():
    for p in enumerate_group(4):
        for q in enumerate_group(4):
            assert (p * q).mapping == compose_oracle(p, q)


def test_identity_and_inverse():
    e = Permutation.identity(5)
    assert e.mapping == (1, 2, 3, 4, 5)
    for p in enumerate_group(4):
        assert (p * p.inverse()).mapping == (1, 2, 3, 4)
        assert (p.inverse() * p).mapping == (1, 2, 3, 4)


def test_call_applies_to_points():
    p = Permutation((3, 1, 2))
    assert [p(i) for i in (1, 2, 3)] == [3, 1, 2]
    with pytest.raises(IndexError):
        p(4)


def test_transposition_constructor():
    t = Permutation.transposition(4, 2, 4)
    assert t.mapping == (1, 4, 3, 2)
    assert (t * t).mapping == (1, 2, 3, 4)


def test_rank_frozen_example():
    # [2,1,3] is the third word in lexicographic order on S_3.
    assert Permutation((2, 1, 3)).rank() == 2


def test_rank_matches_lexicographic_enumeration():
    for n in (1, 2, 3, 4, 5):
        for expect, word in enumerate(itertools.permutations(range(1, n + 1))):
            assert Permutation(word).rank() == expect


def test_unrank_is_inverse_of_rank():
    for n in (3, 4, 5):
        for r in range(factorial(n)):
            assert lehmer_unrank(n, r).rank() == r
    with pytest.raises(IndexError):
        lehmer_unrank(3, 6)
    with pytest.raises(IndexError):
        lehmer_unrank(3, -1)
    assert lehmer_unrank(np.int64(3), np.uint8(5)).mapping == (3, 2, 1)


@pytest.mark.parametrize("n, r", [(True, 0), (3, True), (3, False), (3.0, 0), (3, 1.0), ("3", 0)])
def test_unrank_rejects_bools_and_non_integers(n, r):
    with pytest.raises(ValueError, match="must be integers"):
        lehmer_unrank(n, r)


def test_rank_of_word_agrees_with_permutation_rank():
    rng = np.random.default_rng(11)
    for _ in range(50):
        word = tuple(int(x) for x in rng.permutation(6) + 1)
        assert rank_of_word(word) == Permutation(word).rank()
    assert Permutation(tuple(range(20, 0, -1))).rank() == factorial(20) - 1
    with pytest.raises(OverflowError):
        Permutation(tuple(range(21, 0, -1))).rank()


def test_rank_of_word_ranks_a_stack_of_words():
    words = group_matrix(5)
    ranks = rank_of_word(words)
    assert ranks.tolist() == list(range(120))
    assert ranks.tolist() == [p.rank() for p in enumerate_group(5)]
    assert rank_of_word(words.reshape(12, 10, 5)).tolist() == ranks.reshape(12, 10).tolist()
    for n in range(1, 9):
        assert rank_of_word(group_matrix(n)).tolist() == list(range(factorial(n)))
    # Non-contiguous stacks: the reversed words, and every other word of
    # every other block read through a strided 3-D view.
    for stack in (group_matrix(6)[:, ::-1], group_matrix(6).reshape(24, 30, 6)[::2, ::3]):
        words = [tuple(map(int, w)) for w in stack.reshape(-1, 6)]
        got = rank_of_word(stack)
        assert got.shape == stack.shape[:-1] and got.base is None
        assert got.reshape(-1).tolist() == [Permutation(w).rank() for w in words]
        assert [lehmer_unrank(6, int(r)).mapping for r in got.reshape(-1)] == words


def test_enumeration_count_and_uniqueness():
    group = list(enumerate_group(4))
    assert len(group) == 24
    assert len({p.mapping for p in group}) == 24


def test_enumeration_guard():
    with pytest.raises(CapacityError):
        list(enumerate_group(11))


def test_group_size_must_be_an_exact_integer():
    for n in (True, False, 2.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            group_matrix(n)
        with pytest.raises(ValueError, match="n must be an integer"):
            list(enumerate_group(n))
    assert group_matrix(np.int64(3)).tobytes() == group_matrix(3).tobytes()
    assert len(list(enumerate_group(np.uint8(3)))) == 6


@pytest.mark.parametrize("n", [3, 8, 9])
@pytest.mark.parametrize("kind", [np.int32, np.int64])
def test_a_numpy_integer_n_walks_as_its_python_int(kind, n):
    # Every walk at n >= 2 has a prefix, whose length itertools.permutations
    # takes only as a Python int.
    ranks = [0, 1, factorial(n) - 1]
    assert words(kind(n)).tobytes() == words(n).tobytes()
    assert words(kind(n), ranks).tobytes() == words(n, ranks).tobytes()
    assert OrderingSet(kind(n), ranks).matrix().tobytes() == words(n, ranks).tobytes()
    pins = [(1, 1), (n, 2)]
    got, expect = stabilizer_set(kind(n), pins), stabilizer_set(n, pins)
    assert got.members.tobytes() == expect.members.tobytes()
    terms = [JuntaTerm(((1, 1),)), JuntaTerm(((2, 3),), 0.5)]
    assert junta_payoff(terms, kind(n)).values.tobytes() == junta_payoff(terms, n).values.tobytes()


def test_group_matrix_rows_are_rank_ordered():
    mat = group_matrix(4)
    assert mat.shape == (24, 4)
    assert mat.dtype == np.int8
    for r in (0, 7, 23):
        assert tuple(int(x) for x in mat[r]) == lehmer_unrank(4, r).mapping
    with pytest.raises(ValueError):
        mat[0, 0] = 9  # cached array must stay read-only
    for n in range(1, 9):
        words = list(itertools.permutations(range(1, n + 1)))
        assert group_matrix(n).tobytes() == np.array(words, dtype=np.int8).tobytes()


@st.composite
def rank_requests(draw):
    """A table size, n above it, and strictly increasing ranks of S_n:
    random ones, or a run across a boundary between blocks of table_n!
    ranks.  The S_8 table serves n = 9 and 10, and tables of S_2, S_3 and
    S_4 serve n up to 8."""
    table_n = draw(st.sampled_from([permutations.WORD_TABLE_N, 2, 3, 4]))
    n = draw(st.integers(table_n + 1, 10 if table_n == permutations.WORD_TABLE_N else 8))
    size, block = factorial(n), factorial(table_n)
    if draw(st.booleans()):
        ranks = draw(st.lists(st.integers(0, size - 1), max_size=60, unique=True))
        return table_n, n, np.array(sorted(ranks), dtype=np.int64)
    edge = block * draw(st.integers(1, size // block - 1))
    start = max(0, edge - draw(st.integers(1, 90)))
    return table_n, n, np.arange(start, min(size, edge + draw(st.integers(1, 90))))


@settings(max_examples=120, deadline=None)
@given(rank_requests(), st.sampled_from([permutations.ROW_CHUNK, 7, 11]))
def test_words_above_the_table_match_unranking(request, row_chunk):
    table_n, n, ranks = request
    with mock.patch.multiple(permutations, WORD_TABLE_N=table_n, ROW_CHUNK=row_chunk):
        got = words(n, ranks)
        blocks = [(rows, block.copy()) for rows, block in word_blocks(n, ranks)]
    assert got.dtype == np.int8 and got.shape == (len(ranks), n)
    assert [tuple(w) for w in got.tolist()] == [lehmer_unrank(n, int(r)).mapping for r in ranks]
    assert rank_of_word(got).tolist() == ranks.tolist()
    # each table_n!-rank prefix that holds any of the ranks, in order, in
    # blocks of at most ROW_CHUNK of them
    prefix_starts = np.flatnonzero(np.diff(ranks // factorial(table_n), prepend=-1)).tolist()
    starts = [
        r
        for first, stop in zip(prefix_starts, prefix_starts[1:] + [len(ranks)])
        for r in range(first, stop, row_chunk)
    ]
    assert [rows.start for rows, _ in blocks] == starts
    assert all(0 < len(block) <= row_chunk for _, block in blocks)
    assert b"".join(block.tobytes() for _, block in blocks) == got.tobytes()


def all_words(n):
    """Every word of S_n as an int8 array, in the order enumerate_group yields them."""
    return np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)


def prefix_slices(n, span, row_chunk):
    """The rows of a full walk of S_n: each prefix block of `span` ranks in
    slices of at most `row_chunk`."""
    return [
        slice(r, min(r + row_chunk, q + span))
        for q in range(0, factorial(n), span)
        for r in range(q, q + span, row_chunk)
    ]


@pytest.mark.parametrize("table_n", [2, 3, 4])
def test_full_walk_above_the_table_matches_the_table(table_n):
    for row_chunk, n in itertools.product([permutations.ROW_CHUNK, 7], range(table_n + 1, 9)):
        with mock.patch.multiple(permutations, WORD_TABLE_N=table_n, ROW_CHUNK=row_chunk):
            walked = [(rows, block.copy()) for rows, block in word_blocks(n)]
        assert [rows for rows, _ in walked] == prefix_slices(n, factorial(table_n), row_chunk)
        assert b"".join(b.tobytes() for _, b in walked) == all_words(n).tobytes()


def test_words_up_to_the_table_are_its_rows():
    # Each walk up to the table reads the table one size down (S_1 at n = 1),
    # and each table is that walk gathered.
    for row_chunk, n in itertools.product([permutations.ROW_CHUNK, 7], range(1, 9)):
        expect = all_words(n)
        with mock.patch.object(permutations, "ROW_CHUNK", row_chunk):
            walked = [(rows, block.copy()) for rows, block in word_blocks(n)]
        assert [rows for rows, _ in walked] == prefix_slices(n, factorial(max(1, n - 1)), row_chunk)
        assert b"".join(b.tobytes() for _, b in walked) == expect.tobytes()
        assert group_matrix(n).tobytes() == words(n).tobytes() == expect.tobytes()
    ranks = np.array([0, 5, 6, 719])
    np.testing.assert_array_equal(words(6, ranks), all_words(6)[ranks])
    assert words(9, np.array([], dtype=np.int64)).shape == (0, 9)
    assert list(word_blocks(9, np.array([], dtype=np.int64))) == []


def test_a_walk_over_int32_ranks_makes_no_wide_copy_of_them():
    # Buffers of ROW_CHUNK rows and one block's intp indices only (0.15 MiB).
    # np.take's default mode="raise" would buffer each block's words too
    # (0.18 MiB), a whole-array rank check would add a 9!-byte mask
    # (0.35 MiB), and int64 keys to searchsorted would copy the 9! ranks
    # to int64 (2.8 MiB) once per prefix block.
    s = OrderingSet.full_group(9)
    assert s.members.dtype == np.int32
    group_matrix(8)
    tracemalloc.start()
    try:
        rows = sum(block.shape[0] for _, block in word_blocks(9, s.members))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == factorial(9)
    assert peak < 0.17 * 2**20


def test_words_reject_what_they_cannot_read_in_blocks():
    for n in (6, 9):
        size = factorial(n)
        for bad in ([3, 2], [5, 5], [-1, 0], [0, size], np.array([[0, 1]]),
                    np.array([0.0, 1.0]), slice(0, 10)):
            with pytest.raises(ValueError):
                words(n, bad)
            with pytest.raises(ValueError):
                next(word_blocks(n, bad))
    with pytest.raises(CapacityError):
        words(11, [0])
    with pytest.raises(CapacityError):
        next(word_blocks(11))
    with pytest.raises(ValueError, match="only up to n = 8"):
        group_matrix(9)


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("step", [0, 1], ids=["equal", "decreasing"])
def test_an_order_fault_across_a_row_chunk_seam_is_rejected(n, step):
    # The only non-increasing pair sits at positions (ROW_CHUNK - 1, ROW_CHUNK),
    # on either side of the seam between two slices of ROW_CHUNK ranks.
    seam = permutations.ROW_CHUNK
    ranks = np.arange(0, 6 * seam, 3, dtype=np.int32)
    ranks[seam] = ranks[seam - 1] - step
    assert np.flatnonzero(ranks[1:] <= ranks[:-1]).tolist() == [seam - 1]
    outside = re.escape(f"members must be strictly increasing ranks in [0, {factorial(n)})")
    with pytest.raises(ValueError, match=outside):
        OrderingSet(n, ranks)
    with pytest.raises(ValueError, match=outside):
        next(word_blocks(n, ranks))
    with pytest.raises(ValueError, match=outside):
        words(n, ranks)


@st.composite
def ranks_with_one_fault(draw):
    """Strictly increasing ranks of S_6, then one of them overwritten: by its
    neighbour's rank (the one before it, or after the first), one less, one
    more, or any rank of S_6."""
    ranks = np.array(sorted(draw(st.sets(st.integers(0, 719), min_size=2, max_size=40))))
    at = draw(st.integers(0, len(ranks) - 1))
    neighbour = int(ranks[at - 1] if at else ranks[1])
    near = st.sampled_from([neighbour, max(neighbour - 1, 0), min(neighbour + 1, 719)])
    ranks[at] = draw(near | st.integers(0, 719))
    return ranks


@settings(max_examples=200, deadline=None)
@given(ranks_with_one_fault(), st.sampled_from([np.int32, np.int64, np.uint16]))
def test_the_order_check_in_slices_matches_a_whole_array_check(ranks, dtype):
    ranks = ranks.astype(dtype)
    with mock.patch.object(permutations, "ROW_CHUNK", 3):
        try:
            permutations.rank_array(6, ranks)
            accepted = True
        except ValueError:
            accepted = False
    assert accepted == bool(np.all(ranks[1:] > ranks[:-1]))


@st.composite
def rank_inputs(draw):
    """n in 1..7 and what a caller may pass as its ranks: a list, tuple or
    array of ranks inside and outside [0, n!), sorted, as drawn or with a
    repeat, an empty float array, or a list or tuple holding one mistyped
    item (a bool, a float, None or a nested list)."""
    n = draw(st.integers(1, 7))
    ranks = draw(st.lists(st.integers(-2, factorial(n) + 1) | st.just(2**63), max_size=8))
    order = draw(st.sampled_from(["sorted", "as drawn", "repeated"]))
    if order == "sorted":
        ranks = sorted(set(ranks))
    elif order == "repeated":
        ranks = sorted(ranks + ranks[:1])
    kind = draw(st.sampled_from(["list", "tuple", "array", "empty float array"]))
    if kind == "empty float array":
        return n, np.array([])
    if kind == "array":
        return n, np.array([r for r in ranks if r < 2**63], dtype=np.int64)
    odd = draw(st.sampled_from([[], [True], [1.0], [None], [[0]]]))
    at = draw(st.integers(0, len(ranks)))
    items = ranks[:at] + odd + ranks[at:]
    return n, items if kind == "list" else tuple(items)


@settings(max_examples=300, deadline=None)
@given(rank_inputs())
def test_words_take_exactly_the_ranks_an_ordering_set_takes(case):
    n, raw = case
    try:
        expect = OrderingSet(n, raw).matrix()
    except ValueError:
        with pytest.raises(ValueError):
            words(n, raw)
        with pytest.raises(ValueError):
            list(word_blocks(n, raw))
        return
    got = words(n, raw)
    assert got.dtype == np.int8 and got.shape == (len(expect), n)
    np.testing.assert_array_equal(got, expect)
    assert b"".join(block.tobytes() for _, block in word_blocks(n, raw)) == got.tobytes()


def test_no_ranks_give_no_words():
    # an ordering set may be empty, whatever the dtype of its empty array
    for empty in ([], (), np.array([]), np.array([], dtype=np.int64)):
        got = words(3, empty)
        assert got.dtype == np.int8 and got.shape == (0, 3)
        assert list(word_blocks(3, empty)) == []
        assert len(OrderingSet(3, empty)) == 0


def test_every_group_sized_array_takes_its_length_from_group_order():
    # group_order checks n before returning n!, so no array of that size
    # can be allocated for an n the package does not enumerate.
    sized = re.compile(r"np\.(empty|zeros|ones|full|arange)\(\(?\s*factorial\(")
    sources = sorted(Path(permutations.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sources
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if sized.search(line)
    ]
    assert found == []
    # Outside the modules that define group_order and the dimension formula,
    # factorial only scales or divides: every length comes from group_order.
    scalar_uses = {
        "cayley.py": ["bound = factorial(conn.n) / (len(conn) * dimension(shape))"],
        "fairness.py": [
            "mean = float(self.on_set.sum() / factorial(f.n))",
            "trivial = (1.0 - 1.0 / factorial(f.n)) * top",
            "coeff = (s - t - 1) / factorial(n - t)",
            "implied = (1.0 - gap / self.linf) * factorial(n - t) / (s - t - 1)",
        ],
        "fourier.py": [
            "values /= factorial(spec.n)",
            "holds=product >= factorial(f.n) * (1.0 - SUPPORT_SPREAD_TOL),",
        ],
        "intersecting.py": ["gate = m >= factorial(n - t_max)"],
        "representations.py": ["cosets = size // factorial(k)"] * 2,
    }
    uses = {}
    for path in sources:
        if path.name in ("permutations.py", "partitions.py"):
            continue
        for line in path.read_text().splitlines():
            if "factorial(" in line:
                uses.setdefault(path.name, []).append(line.strip())
    assert uses == scalar_uses


def _functions_with(pattern):
    """(module, innermost enclosing function) of each package source line
    that matches `pattern`."""
    found = []
    for path in sorted(Path(permutations.__file__).parent.glob("*.py")):
        text = path.read_text()
        defs = [d for d in ast.walk(ast.parse(text)) if isinstance(d, ast.FunctionDef)]
        for i, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                around = [d for d in defs if d.lineno <= i <= d.end_lineno]
                owner = max(around, key=lambda d: d.lineno).name if around else None
                found.append((path.name, owner))
    return found


def test_each_input_rule_is_written_once():
    # A typed list is converted only by typed_array, and a rank array is
    # checked only by rank_array, which ordering sets and word_blocks share.
    assert _functions_with(r"except OverflowError") == [("permutations.py", "typed_array")]
    assert _functions_with(r"strictly increasing.* in \[0, ") == [
        ("permutations.py", "rank_array")
    ]
    assert "_rank_array" not in vars(sets)


def test_word_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    # sorted() would take each of these as 1..n, and 1.0, 2.0, 3.0 ranked as 0
    for mapping in ((True, 2), (1.0, 2.0, 3.0), (1, 2.0), ("1",)):
        with pytest.raises(ValueError, match="entries must be integers"):
            Permutation(mapping)
    assert Permutation((np.int64(2), np.uint8(1))).rank() == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**70), st.integers(0, 100))
def test_uniform_is_the_top_53_bits_of_each_64_bit_word_in_any_chunking(seed, size):
    values = uniform(seeded(seed), size)
    with mock.patch.object(permutations, "ROW_CHUNK", 11):
        chunked = uniform(seeded(seed), size)
    # one getrandbits(64) per value draws the same two 32-bit words in turn
    rng = random.Random(seed)
    expected = [(rng.getrandbits(64) >> 11) * 2.0**-53 for _ in range(size)]
    assert values.dtype == np.float64 and values.shape == (size,)
    assert values.tolist() == chunked.tolist() == expected
    assert np.all((values >= 0.0) & (values < 1.0))


def test_uniform_stays_below_one_at_the_largest_word():
    class Stream:
        def __init__(self, word):
            self.word = word

        def getrandbits(self, bits):
            return int.from_bytes(self.word.to_bytes(8, "little") * (bits // 64), "little")

    assert uniform(Stream(2**64 - 1), 3).tolist() == [1.0 - 2.0**-53] * 3
    assert uniform(Stream(2**11), 2).tolist() == [2.0**-53] * 2
    assert uniform(Stream(2**11 - 1), 2).tolist() == [0.0] * 2


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
def test_seeded_takes_only_a_non_negative_integer(seed):
    # random.Random would take each of these, and seed -1 as it seeds 1
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        seeded(seed)


def test_seeded_takes_a_numpy_integer_as_its_value():
    assert seeded(np.int64(2)).random() == seeded(2).random() == random.Random(2).random()
