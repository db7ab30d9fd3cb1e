import itertools
import random

import pytest

from lajoin.arrays import (
    ArrayError,
    MagicArray,
    _row_candidates,
    array_to_csv,
    drop_column_and_rotate,
    magic_rectangle,
    nearly_magic_rectangle,
    resummed,
    siamese_magic_square,
    verify_magic_array,
)


def test_siamese_order_3():
    m = siamese_magic_square(3)
    middle = [row[1] for row in m.entries]
    assert middle == [1, 5, 9]
    assert m.col_constant == 15


def test_siamese_order_7_constant():
    assert siamese_magic_square(7).col_constant == 175


def test_siamese_order_5_sums():
    m = siamese_magic_square(5)
    rows, cols = resummed(m.entries)
    assert rows == [65] * 5 and cols == [65] * 5


@pytest.mark.parametrize("order", range(3, 23, 2))
def test_siamese_middle_column_progression(order):
    m = siamese_magic_square(order)
    n = (order - 1) // 2
    for i in range(order):
        assert m.entries[i][n] == 1 + 2 * (n + 1) * i


def test_siamese_rejects_even():
    with pytest.raises(ArrayError):
        siamese_magic_square(4)


def test_rectangle_2x4():
    m = magic_rectangle(2, 4)
    assert m.row_constants == (18, 18)
    assert m.col_constant == 9
    rows, cols = resummed(m.entries)
    assert rows == [18, 18] and cols == [9] * 4


def test_rectangle_3x5():
    m = magic_rectangle(3, 5)
    assert m.row_constants[0] == 40 and m.col_constant == 24
    rows, cols = resummed(m.entries)
    assert set(rows) == {40} and set(cols) == {24}


def test_rectangle_2x2_rejected():
    with pytest.raises(ArrayError):
        magic_rectangle(2, 2)


def test_rectangle_parity_mismatch_rejected():
    with pytest.raises(ArrayError):
        magic_rectangle(2, 3)


def test_rectangle_transpose_is_valid():
    m = magic_rectangle(4, 6)
    t = MagicArray(
        6, 4,
        tuple(tuple(m.entries[r][c] for r in range(4)) for c in range(6)),
        "rectangle", (m.col_constant,) * 6, m.row_constants[0],
    )
    verify_magic_array(t)


def test_nearly_rectangle_2x3():
    m = nearly_magic_rectangle(2, 3)
    assert m.row_constants == (10, 11)
    assert m.col_constant == 7
    rows, cols = resummed(m.entries)
    assert rows == [10, 11] and cols == [7, 7, 7]


def test_nearly_rectangle_2x3_exhaustive_targets():
    # Independent brute force over all arrangements of 1..6 with constant
    # column sums: perfectly equal rows are impossible, and the tightest
    # achievable row pair is exactly {10, 11}.
    seen = set()
    for perm in itertools.permutations(range(1, 7)):
        grid = [perm[:3], perm[3:]]
        _, cols = resummed(grid)
        if len(set(cols)) == 1:
            seen.add(tuple(sorted(sum(r) for r in grid)))
    assert (10, 11) in seen
    assert all(hi - lo >= 1 for lo, hi in seen)
    assert [pair for pair in seen if pair[1] - pair[0] == 1] == [(10, 11)]


def test_nearly_rectangle_2x5():
    m = nearly_magic_rectangle(2, 5)
    assert m.row_constants == (27, 28)
    assert m.col_constant == 11


def test_nearly_rectangle_rejects_odd_rows():
    with pytest.raises(ArrayError):
        nearly_magic_rectangle(3, 3)
    with pytest.raises(ArrayError):
        nearly_magic_rectangle(4, 4)


@pytest.mark.parametrize("rows", range(2, 16))
@pytest.mark.parametrize("cols", range(2, 16))
def test_rectangle_resummation_sweep(rows, cols):
    if rows % 2 != cols % 2 or (rows, cols) == (2, 2):
        return
    m = magic_rectangle(rows, cols)
    row_sums, col_sums = resummed(m.entries)
    assert tuple(row_sums) == m.row_constants
    assert set(col_sums) == {m.col_constant}
    assert sorted(x for row in m.entries for x in row) == list(range(1, rows * cols + 1))


@pytest.mark.parametrize("rows", range(2, 16, 2))
@pytest.mark.parametrize("cols", range(3, 16, 2))
def test_nearly_rectangle_resummation_sweep(rows, cols):
    m = nearly_magic_rectangle(rows, cols)
    row_sums, col_sums = resummed(m.entries)
    assert tuple(row_sums) == m.row_constants
    assert set(col_sums) == {m.col_constant}
    lo = min(m.row_constants)
    assert all(s == (lo if i % 2 == 0 else lo + 1) for i, s in enumerate(row_sums))


def test_drop_column_and_rotate_order_3():
    rows = drop_column_and_rotate(siamese_magic_square(3))
    assert rows == ((4, 2), (3, 7), (8, 6))  # the last row first; the middle column gone
    assert [sum(r) for r in rows] == [6, 10, 14]


def test_drop_column_and_rotate_order_7():
    sums = [sum(r) for r in drop_column_and_rotate(siamese_magic_square(7))]
    assert sums == [126, 166, 174, 150, 158, 134, 142]
    k = 175
    expected = [k - 1 - 4 * 3 * 4]
    for i in range(1, 4):
        expected += [k - 1 - 8 * (2 * i - 1), k - 1 - 8 * (2 * i - 2)]
    assert sums == expected


def test_drop_column_wrong_index_rejected():
    # The column dropped is always the middle one; a square whose middle
    # column is not the siamese progression is refused, as is a rectangle.
    sq = siamese_magic_square(7)
    flipped = sq._replace(entries=sq.entries[::-1])
    verify_magic_array(flipped)
    with pytest.raises(ArrayError, match="^middle column does not follow the siamese progression$"):
        drop_column_and_rotate(flipped)
    with pytest.raises(ArrayError):
        drop_column_and_rotate(magic_rectangle(4, 6))


def test_csv_export_round_trip():
    m = magic_rectangle(2, 4)
    text = array_to_csv(m)
    parsed = [[int(x) for x in line.split(",")] for line in text.strip().splitlines()]
    assert tuple(tuple(r) for r in parsed) == m.entries


def recursive_row_candidates(pools, target, prefer_large):
    """The recursive form of _row_candidates, one call level per pool."""
    pools = [sorted(p, reverse=prefer_large) for p in pools]
    suffix = [1]
    for pool in reversed(pools):
        mask = 0
        for v in pool:
            mask |= suffix[-1] << v
        suffix.append(mask)
    suffix.reverse()
    n = len(pools)
    picks = []

    def rec(i, remaining):
        if i == n:
            if remaining == 0:
                yield list(picks)
            return
        for v in pools[i]:
            left = remaining - v
            if left >= 0 and (suffix[i + 1] >> left) & 1:
                picks.append(v)
                yield from rec(i + 1, left)
                picks.pop()

    yield from rec(0, target)


def test_row_candidates_match_the_recursive_reference():
    rng = random.Random(20261018)
    for _ in range(300):
        n_pools = rng.randint(0, 5)
        pools = [rng.sample(range(1, 16), rng.randint(0, 4)) for _ in range(n_pools)]
        picks = [rng.choice(p) for p in pools if p]
        target = sum(picks) + rng.choice((0, 0, 1, -1))
        for prefer_large in (True, False):
            expected = list(recursive_row_candidates(pools, target, prefer_large))
            assert list(_row_candidates(pools, target, prefer_large)) == expected, (pools, target)


@pytest.mark.parametrize("build,cols", [(magic_rectangle, 1000), (nearly_magic_rectangle, 1001)])
def test_two_row_arrays_past_the_recursion_limit(build, cols):
    # one pool per column: a recursive row search would nest 1000 deep
    arr = build(2, cols)
    assert arr.rows == 2 and arr.cols == cols
    assert sorted(v for row in arr.entries for v in row) == list(range(1, 2 * cols + 1))
    assert [sum(row) for row in arr.entries] == list(arr.row_constants)
    assert {sum(col) for col in zip(*arr.entries)} == {arr.col_constant}


def test_repeated_calls_share_one_array():
    for build, args in ((siamese_magic_square, (5,)), (magic_rectangle, (3, 5)),
                        (magic_rectangle, (5, 3)), (nearly_magic_rectangle, (4, 7))):
        assert build(*args) is build(*args)


@pytest.mark.parametrize("build,args", [
    (magic_rectangle, (2, 2)),
    (magic_rectangle, (2, 3)),
    (magic_rectangle, (4, 7)),
    (nearly_magic_rectangle, (3, 5)),
    (nearly_magic_rectangle, (4, 4)),
    (siamese_magic_square, (4,)),
])
def test_shapes_without_an_array_raise_on_every_call(build, args):
    for _ in range(3):
        with pytest.raises(ArrayError):
            build(*args)


@pytest.mark.parametrize("build,sides", [
    (magic_rectangle, (4, 6)),
    (magic_rectangle, (6, 4)),
    (nearly_magic_rectangle, (4, 5)),
    (siamese_magic_square, (5,)),
])
def test_non_int_sides_raise_whether_or_not_the_shape_is_cached(build, sides):
    # As a cache key (4.0, 6) equals (4, 6): a float side must be refused
    # before the cache, or it would get the array of an earlier int call.
    odd = (float(sides[0]), *sides[1:])
    outcomes = []
    for call in (odd, sides, odd):
        try:
            outcomes.append(build(*call).entries)
        except ArrayError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[2] == f"array dimensions must be integers, got {odd}"
    assert outcomes[1] == build.__wrapped__(*sides).entries


def test_cached_arrays_equal_fresh_builds_over_the_sweep(budget_400_sweep):
    # Every array shape the budget-400 sweep asks for, rebuilt uncached. A
    # tall shape is carved from its own transpose's pools, not built through
    # its wide twin, so only shapes the sweep asks for count.
    asked = budget_400_sweep.arrays_asked
    shapes = {build: sum(b is build for b, _ in asked) for build, _ in asked}
    assert shapes == {magic_rectangle: 379, nearly_magic_rectangle: 208, siamese_magic_square: 9}
    for build, args in asked:
        assert build(*args) == build.__wrapped__(*args), (build.__name__, args)
