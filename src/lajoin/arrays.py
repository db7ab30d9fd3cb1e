"""Magic squares, magic rectangles, and nearly magic rectangles.

All generators share one scheme: the values [1..rows*cols] are dealt into
pools whose sums are forced by construction, then rows are carved out of
the pools one at a time with a subset-sum sweep so every row hits its
exact target. Outputs are re-summed independently before they are
returned; a construction bug raises instead of emitting a bad array.

Dealing: values go out in passes of consecutive blocks, one value per
pool. A forward pass followed by a reversed pass contributes the same
amount to every pool. An odd number of passes leaves three passes to
balance by hand, which is done with permutation trios: for an odd number
of pools, three permutations with constant pointwise sum; for an even
number of pools, three permutations whose pointwise sums alternate
between two adjacent values (this is what makes the nearly magic row sums
come out as the two adjacent targets).

Tall shapes (more rows than columns), magic or nearly magic, are carved
as their wide transpose, where the dealing has more freedom, and flipped.

Each array is built once per shape per process: ``siamese_magic_square``,
``magic_rectangle`` and ``nearly_magic_rectangle`` are cached on their
arguments, and every later call returns the same ``MagicArray``. Sharing it
is safe because the result depends on the shape alone and cannot be
changed: ``MagicArray`` is a NamedTuple and its entries are tuples of ints. A
shape with no array raises ``ArrayError`` on every call, since exceptions
are not cached, and so does a side that is not an int, refused before the
cache is read, where ``(4.0, 6)`` would find ``(4, 6)``. The cache is
unbounded: every array built stays in memory until the process ends (the
596 shapes of a budget-400 sweep hold about 1.3 MB).
"""

from __future__ import annotations

import functools
from typing import NamedTuple


class ArrayError(ValueError):
    """An array request is out of range or a generated array failed checks."""


class MagicArray(NamedTuple):
    """A rows x cols arrangement of [1..rows*cols] with prescribed sums.

    ``row_constants`` holds the expected sum of each row in order; for a
    magic square or rectangle all entries coincide, for a nearly magic
    rectangle they alternate between two adjacent values (odd rows lower).
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    kind: str  # square | rectangle | nearly-rectangle
    row_constants: tuple[int, ...]
    col_constant: int


def resummed(entries) -> tuple[list[int], list[int]]:
    """Recompute row and column sums directly from the entries."""
    row_sums = [sum(row) for row in entries]
    col_sums = [sum(row[c] for row in entries) for c in range(len(entries[0]))]
    return row_sums, col_sums


def verify_magic_array(m: MagicArray) -> None:
    """Independent re-summation check; raises ArrayError on any mismatch."""
    flat = [x for row in m.entries for x in row]
    if sorted(flat) != list(range(1, m.rows * m.cols + 1)):
        raise ArrayError("entries are not a permutation of 1..rows*cols")
    row_sums, col_sums = resummed(m.entries)
    if tuple(row_sums) != m.row_constants:
        raise ArrayError(f"row sums {row_sums} != declared {m.row_constants}")
    if any(c != m.col_constant for c in col_sums):
        raise ArrayError(f"column sums {col_sums} != declared {m.col_constant}")
    if m.kind == "nearly-rectangle":
        lo, hi = min(m.row_constants), max(m.row_constants)
        if hi - lo != 1:
            raise ArrayError("nearly magic row sums must take two adjacent values")
        for i, s in enumerate(m.row_constants):
            if s != (lo if i % 2 == 0 else hi):
                raise ArrayError("odd rows must carry the smaller row sum")
    elif len(set(m.row_constants)) != 1:
        raise ArrayError("magic square/rectangle rows must share one constant")


def _balanced_trio(n: int) -> tuple[list[int], ...]:
    # Three permutations of [0..n-1] with pointwise sum 3(n-1)/2; needs n odd.
    t = (n - 1) // 2
    alpha = list(range(n))
    beta = [(r + t) % n for r in range(n)]
    gamma = [(2 * t - 2 * r) % n for r in range(n)]
    return alpha, beta, gamma


def _alternating_trio(n: int) -> tuple[list[int], ...]:
    # Three permutations of [0..n-1] whose pointwise sums alternate between
    # (3n-4)/2 on even positions and (3n-2)/2 on odd ones; needs n even.
    h = n // 2
    s1 = list(range(n))
    s2 = [0] * n
    s3 = [0] * n
    for k in range(h):
        s2[2 * k], s2[2 * k + 1] = h - 1 - k, 2 * h - 1 - k
        s3[2 * k], s3[2 * k + 1] = 2 * h - 1 - k, h - 1 - k
    return s1, s2, s3


def _pools(n_passes: int, n_pools: int) -> list[list[int]]:
    """Deal [1..n_passes*n_pools] into pools of n_passes values each.

    Pool sums are all equal when homogeneous dealing is possible, and
    alternate +0/+1 (even pools lower) when n_passes is odd and n_pools is
    even.
    """
    passes: list[list[int]] = []
    start = 0
    if n_passes % 2 == 1:
        if n_passes < 3:
            raise ArrayError("at least three passes needed when the count is odd")
        trio = _balanced_trio(n_pools) if n_pools % 2 == 1 else _alternating_trio(n_pools)
        for perm in trio:
            passes.append([start * n_pools + perm[c] + 1 for c in range(n_pools)])
            start += 1
    while start < n_passes:
        passes.append([start * n_pools + c + 1 for c in range(n_pools)])
        passes.append([(start + 2) * n_pools - c for c in range(n_pools)])
        start += 2
    return [[p[c] for p in passes] for c in range(n_pools)]


def _row_candidates(pools: list[list[int]], target: int, prefer_large: bool):
    """Yield every way to pick one value per pool summing to target.

    Pools are snapshotted, so the caller may keep mutating its own copies
    while the generator is alive. Suffix reachability masks prune dead
    branches early. Depth-first in pool order, as a loop over per-pool
    positions, so the depth is not bounded by the recursion limit.
    """
    pools = [sorted(p, reverse=prefer_large) for p in pools]
    suffix = [1]
    for pool in reversed(pools):
        mask = 0
        for v in pool:
            mask |= suffix[-1] << v
        suffix.append(mask)
    suffix.reverse()
    n = len(pools)
    picks = [0] * n
    left = [target] * (n + 1)  # left[i]: what pools i.. must still sum to
    pos = [0] * (n + 1)  # pos[i]: next index of pools[i] to try
    i = 0
    while i >= 0:
        if i == n:
            if left[n] == 0:
                yield list(picks)
            i -= 1
            continue
        pool = pools[i]
        while pos[i] < len(pool):
            v = pool[pos[i]]
            pos[i] += 1
            rest = left[i] - v
            if rest >= 0 and (suffix[i + 1] >> rest) & 1:
                picks[i] = v
                left[i + 1] = rest
                pos[i + 1] = 0
                i += 1
                break
        else:
            i -= 1


def _carve_table(pools: list[list[int]], targets: list[int]) -> tuple[tuple[int, ...], ...]:
    """Fill a table row by row, one value per pool, hitting every target.

    Depth-first over rows with backtracking; the first descent matches the
    plain greedy fill, extra nodes are only explored on dead ends.
    """
    n_rows = len(targets)
    work = [list(p) for p in pools]
    rows_out: list[list[int]] = []
    gens = [_row_candidates(work, targets[0], True)]
    budget = 2_000_000
    while gens:
        budget -= 1
        if budget < 0:
            raise ArrayError(f"search budget exhausted for targets {targets}")
        row = next(gens[-1], None)
        if row is None:
            gens.pop()
            if rows_out:
                undo = rows_out.pop()
                for c, v in enumerate(undo):
                    work[c].append(v)
            continue
        for c, v in enumerate(row):
            work[c].remove(v)
        rows_out.append(row)
        if len(rows_out) == n_rows - 1:
            # The targets add up to every value dealt, so the one value left in each pool hits the last.
            rows_out.append([p[0] for p in work])
            return tuple(tuple(r) for r in rows_out)
        gens.append(_row_candidates(work, targets[len(rows_out)], len(rows_out) % 2 == 0))
    raise ArrayError(f"no arrangement found for targets {targets}")


def _carved(rows: int, cols: int, row_targets: list[int], col_target: int) -> tuple[tuple[int, ...], ...]:
    # Rows summing to row_targets, columns to col_target. A tall table's pools
    # are its rows (for nearly magic ones alternating low/low+1 by the trio
    # dealing), and the rows carved from them its columns.
    if rows <= cols:
        return _carve_table(_pools(rows, cols), row_targets)
    return tuple(zip(*_carve_table(_pools(cols, rows), [col_target] * cols)))


def _cached_per_shape(build):
    # ``build`` cached on its arguments, which must be ints (see the module
    # docstring); ``__wrapped__`` is the uncached ``build``.
    cached = functools.cache(build)

    @functools.wraps(build)
    def checked(*sides):
        if any(type(side) is not int for side in sides):
            raise ArrayError(f"array dimensions must be integers, got {sides}")
        return cached(*sides)

    return checked


@_cached_per_shape
def siamese_magic_square(order: int) -> MagicArray:
    """Odd-order magic square by the up-and-right rule.

    Start in the middle of the top row; each next value goes one cell up
    and right (wrapping), dropping one cell down from the previous position
    on collision. The middle column is the arithmetic progression
    1 + 2(n+1)(i-1) down the rows, where order = 2n+1.
    """
    if order < 3 or order % 2 == 0:
        raise ArrayError(f"siamese method needs an odd order >= 3, got {order}")
    grid = [[0] * order for _ in range(order)]
    i, j = 0, order // 2
    for v in range(1, order * order + 1):
        grid[i][j] = v
        ni, nj = (i - 1) % order, (j + 1) % order
        if grid[ni][nj]:
            ni, nj = (i + 1) % order, j
        i, j = ni, nj
    k = order * (order * order + 1) // 2
    m = MagicArray(order, order, tuple(tuple(r) for r in grid), "square", (k,) * order, k)
    verify_magic_array(m)
    return m


@_cached_per_shape
def magic_rectangle(rows: int, cols: int) -> MagicArray:
    """Magic rectangle on [1..rows*cols]: constant row and column sums.

    Exists exactly for rows, cols >= 2 of equal parity other than 2x2;
    anything else is rejected. Row constant cols*(rows*cols+1)/2, column
    constant rows*(rows*cols+1)/2.
    """
    if rows < 2 or cols < 2:
        raise ArrayError(f"magic rectangle needs both sides >= 2, got ({rows},{cols})")
    if rows % 2 != cols % 2:
        raise ArrayError(f"magic rectangle needs sides of equal parity, got ({rows},{cols})")
    if rows == 2 and cols == 2:
        raise ArrayError("no 2x2 magic rectangle exists")
    row_c = cols * (rows * cols + 1) // 2
    col_c = rows * (rows * cols + 1) // 2
    if rows == cols and rows % 2 == 1:
        entries = siamese_magic_square(rows).entries
    else:
        entries = _carved(rows, cols, [row_c] * rows, col_c)
    kind = "square" if rows == cols else "rectangle"
    m = MagicArray(rows, cols, entries, kind, (row_c,) * rows, col_c)
    verify_magic_array(m)
    return m


@_cached_per_shape
def nearly_magic_rectangle(rows: int, cols: int) -> MagicArray:
    """Even x odd rectangle: constant column sums, row sums two adjacent values.

    Rows in odd positions (first, third, ...) carry the smaller sum. With
    rows = 2n and cols = 2m-1 the row sums are n(2m-1)^2 + m - 1 and + m,
    and every column sums to n(1 + 4mn - 2n).
    """
    if rows < 2 or rows % 2 == 1:
        raise ArrayError(f"nearly magic rectangle needs an even number of rows, got {rows}")
    if cols < 3 or cols % 2 == 0:
        raise ArrayError(f"nearly magic rectangle needs an odd number of columns >= 3, got {cols}")
    total = rows * cols
    low = (cols * (total + 1) - 1) // 2
    col_c = rows * (total + 1) // 2
    targets = [low if r % 2 == 0 else low + 1 for r in range(rows)]
    m = MagicArray(rows, cols, _carved(rows, cols, targets, col_c), "nearly-rectangle", tuple(targets), col_c)
    verify_magic_array(m)
    return m


def drop_column_and_rotate(square: MagicArray) -> tuple[tuple[int, ...], ...]:
    """Delete the middle column of an odd magic square and reorder rows.

    The middle column, index n for order 2n+1, must hold the progression
    1 + 2(n+1)(i-1). Rows are reordered so the last row comes first, even
    rows stay put, and odd rows slide down two places. The resulting row
    sums are, in order, K-1-4n(n+1) for row 1, then K-1-2(n+1)(2i-1) for
    row 2i and K-1-2(n+1)(2i-2) for row 2i+1, with K the magic constant;
    other sums raise ArrayError. Returns the rotated rows; their values
    are not an interval [1..k], so they form no ``MagicArray``.
    """
    if square.kind != "square" or square.rows % 2 == 0:
        raise ArrayError("input must be an odd-order magic square")
    order = square.rows
    n = (order - 1) // 2
    step = 2 * (n + 1)
    for i in range(order):
        if square.entries[i][n] != 1 + step * i:
            raise ArrayError("middle column does not follow the siamese progression")
    dropped = [[x for c, x in enumerate(row) if c != n] for row in square.entries]
    rotated: list[list[int]] = [[]] * order
    rotated[0] = dropped[order - 1]
    for i in range(1, n + 1):
        rotated[2 * i - 1] = dropped[2 * i - 1]
        rotated[2 * i] = dropped[2 * i - 2]
    row_sums = tuple(sum(r) for r in rotated)
    k = square.col_constant
    expected = [k - 1 - 4 * n * (n + 1)]
    for i in range(1, n + 1):
        expected.append(k - 1 - step * (2 * i - 1))
        expected.append(k - 1 - step * (2 * i - 2))
    if list(row_sums) != expected:
        raise ArrayError(f"rotated row sums {row_sums} do not match expected {expected}")
    return tuple(tuple(r) for r in rotated)


def array_to_csv(m: MagicArray) -> str:
    lines = [",".join(str(x) for x in row) for row in m.entries]
    return "\n".join(lines) + "\n"


def array_to_json(m: MagicArray) -> dict:
    return {
        "schema": "v1",
        "kind": m.kind,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [list(r) for r in m.entries],
        "row_constants": list(m.row_constants),
        "col_constant": m.col_constant,
    }
