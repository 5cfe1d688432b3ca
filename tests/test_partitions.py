"""Partition enumeration, hook-length dimensions, and standard tableaux."""
from math import factorial

import pytest

from snfair.partitions import (
    StandardTableau,
    dimension,
    partitions_of,
    standard_tableaux,
)


def partitions_oracle(n):
    """All partitions by exhaustive composition filtering; order-free."""
    found = set()

    def rec(remaining, cap, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return found


@pytest.mark.parametrize("n,count", [(1, 1), (4, 5), (6, 11), (8, 22)])
def test_partition_counts(n, count):
    assert len(partitions_of(n)) == count


def test_partitions_of_4_exact_order():
    assert partitions_of(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )


def test_partitions_complete_and_descending_lex():
    for n in range(1, 9):
        got = partitions_of(n)
        assert set(got) == partitions_oracle(n)
        assert list(got) == sorted(got, reverse=True)
        for shape in got:
            assert sum(shape) == n
            assert all(a >= b for a, b in zip(shape, shape[1:]))


def test_dimension_by_tableau_count():
    # Hook lengths must agree with counting standard fillings directly.
    for n in range(1, 8):
        for shape in partitions_of(n):
            assert dimension(shape) == len(standard_tableaux(shape))


def test_dimension_frozen_values():
    assert dimension((2, 1)) == 2
    assert dimension((3, 1)) == 3
    assert dimension((2, 2)) == 2
    assert dimension((1, 1, 1, 1)) == 1


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 11):
        assert sum(dimension(s) ** 2 for s in partitions_of(n)) == factorial(n)


@pytest.mark.parametrize("shape,count", [((2, 1), 2), ((2, 2), 2), ((3,), 1), ((1, 1, 1), 1)])
def test_tableau_counts(shape, count):
    assert len(standard_tableaux(shape)) == count


def test_tableaux_are_standard():
    for shape in partitions_of(6):
        for tab in standard_tableaux(shape):
            flat = sorted(x for row in tab.rows for x in row)
            assert flat == list(range(1, 7))
            for row in tab.rows:
                assert list(row) == sorted(row)
            for i in range(1, len(tab.rows)):
                upper, lower = tab.rows[i - 1], tab.rows[i]
                assert all(upper[j] < lower[j] for j in range(len(lower)))


def test_tableaux_last_letter_order():
    for shape in partitions_of(5):
        tabs = standard_tableaux(shape)
        keys = [t.last_letter_key() for t in tabs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_tableau_swap_changes_rows_of_adjacent_entries():
    tab = StandardTableau(((1, 2), (3,)))
    swapped = tab.swap(2)
    assert swapped.rows == ((1, 3), (2,))


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        dimension((1, 2))
    with pytest.raises(ValueError):
        dimension((0,))
