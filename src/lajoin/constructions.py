"""Deterministic labeling generators for the join-graph families.

Each generator builds its graph, writes down the closed-form edge
labeling, and returns it together with the color values and color count
the scheme is designed to achieve. A join generator writes each part's
own labels as a sequence in that part's edge order and the join labels
as a grid, as the paper's tables do; ``_assemble`` chains them in
``join``'s edge order. Verification is deliberately left to
the caller (``verify_local_antimagic`` or the solver harness) so claimed
and recomputed data stay independent.

``FAMILIES`` is the registry: one record per family states its parameters,
generator, closed-form edge count, the parts of each point's graph, sweep
domain, excluded points and the points left to cited work, and
``build_construction``, ``family_graph``, ``sweep_points`` and the CLI
flags are read from it. The cited points (fans, wheels, double-apex
joins) are refused by their generators; ``build_construction`` raises
CitedCaseError there, carrying the graph and the cited value, and callers
may route those to the exact solver.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Sequence

from .arrays import drop_column_and_rotate, magic_rectangle, nearly_magic_rectangle, siamese_magic_square
from .graphs import Edge, Graph, ParameterError, build_family, delete_edge, edge, join
from .labelings import (
    EdgeLabeling,
    check_complement_sums,
    check_deletion_sums,
    complement_labeling,
    complement_sums,
    delete_labeled_edge,
    induced_sums,
    verify_local_antimagic,
)


class CitedCaseError(ParameterError):
    """Parameter point covered by cited results, not by a construction here.

    Carries the graph and the cited color count so callers can confirm the
    value with the exact solver when the graph is small enough.
    """

    def __init__(self, message: str, graph: Graph, cited_chi_la: int):
        super().__init__(message)
        self.graph = graph
        self.cited_chi_la = cited_chi_la


class ConstructionResult(NamedTuple):
    """A generated labeling plus the color data its scheme claims."""

    graph: Graph
    labeling: EdgeLabeling
    claimed_colors: frozenset[int]
    claimed_chi_la: int


def _result(g: Graph, f: EdgeLabeling, colors, count: int) -> ConstructionResult:
    # The closed forms of a scheme can collide at isolated parameter points;
    # refuse rather than return a labeling that cannot meet its claim.
    colors = frozenset(colors)
    if len(colors) != count:
        raise ParameterError(
            "the scheme's color values collide at this point; "
            "no labeling with the claimed color count is available"
        )
    return ConstructionResult(g, f, colors, count)


# The one point of each scheme below whose closed-form colors collide, as
# (m, n); the generator refuses it and the sweep skips it.
CYCLE_CYCLE_COLLISION = (3, 6)  # C_2m v C_{2n-1}, with or without its label-1 edge
JOIN_EDGE_COLLISION = (4, 3)  # (C_2m v O_{2n-1}) minus the join edge


# ---------------------------------------------------------------------------
# shared label schemes


# The own-part schemes give a part's labels in its ``build_family`` edge
# order: edge i of a path or cycle is (u_i, u_{i+1}), the closing edge last.


def _path_labels(m: int) -> list[int]:
    # P_2m edge i: even i -> i/2, odd i -> 2m - (i+1)/2
    return [i // 2 if i % 2 == 0 else 2 * m - (i + 1) // 2 for i in range(1, 2 * m)]


def _even_cycle_labels(m: int) -> list[int]:
    # C_2m edge i: odd i -> m - (i-1)/2, even i -> m + 1 + i/2, closing edge
    # m + 1. Puts label 1 on (u_{2m-1}, u_{2m}).
    return [m - (i - 1) // 2 if i % 2 == 1 else m + 1 + i // 2 for i in range(1, 2 * m)] + [m + 1]


def _wrapped_cycle_labels(count: int, base: int) -> list[int]:
    # Odd cycle v_1..v_count: edge j (closing at j = count) gets
    # base + j/2 for even j and base + count - (j-1)/2 for odd j,
    # a bijection onto [base+1, base+count].
    return [base + j // 2 if j % 2 == 0 else base + count - (j - 1) // 2 for j in range(1, count + 1)]


def _wrapped_cycle_colors(join_sum: int, base: int, count: int) -> set[int]:
    # The three colors of _wrapped_cycle_labels(count, base) when each cycle
    # vertex also carries ``join_sum`` from the join: its own labels add
    # 2*base plus count, count + 1 or (3*count + 1)/2. three_color_odd_cycle
    # is that labeling at base 0.
    return {join_sum + 2 * base + c for c in (count, count + 1, (3 * count + 1) // 2)}


def _even_null_join(m: int, n: int) -> list[list[int]]:
    # Join labels of P_2m v O_2n for m, n >= 2; row a - 1 is (u_a, v_1), ..., (u_a, v_2n).
    J = []
    for i in range(1, m + 1):
        J.append([  # u_{2i-1}
            4 * m - i, 3 * m - i, 4 * m * n - m + i - 1, 5 * m - 1 + i,
            *[x for j in range(3, n + 1) for x in ((4 * n + 4 - 2 * j) * m - i, (2 * j + 1) * m - 1 + i)],
        ])
        J.append([  # u_{2i}
            4 * m * n + m - 1 - i, 4 * m * n + m - 2 + i, 4 * m + i, (4 * n - 1) * m - i,
            *[x for j in range(3, n + 1) for x in (2 * j * m - 1 + i, (4 * n + 3 - 2 * j) * m - i)],
        ])
    # u_{2m-1} and u_2m break the pattern at v_1, v_2 and v_3.
    J[-2][0], J[-2][1] = 2 * m, 3 * m
    J[-1][0], J[-1][2] = 4 * m * n + 2 * m - 1, 4 * m
    return J


def _odd_null_join(m: int, n: int, s: int = 0) -> list[list[int]]:
    # Join labels of P_2m v O_{2n-1} for m, n >= 2, plus s, laid out as in _even_null_join.
    J = []
    for i in range(1, m + 1):
        J.append([  # u_{2i-1}
            4 * m - i + s, 3 * m - i + s,
            *[x for j in range(2, n) for x in ((4 * n + 2 - 2 * j) * m - i + s, (2 * j + 1) * m + i - 1 + s)],
            2 * m * n + 2 * (i - 1) + s,
        ])
        J.append([  # u_{2i}
            4 * m * n - 2 * m + i - 1 + s, 4 * m * n - m - 2 + i + s,
            *[x for j in range(2, n) for x in (2 * j * m + i - 1 + s, (4 * n + 1 - 2 * j) * m - i + s)],
            2 * m * n + 2 * m + 1 - 2 * i + s,
        ])
    # u_{2m-1} and u_2m break the pattern at v_1 and v_2.
    J[-2][0], J[-2][1] = 2 * m + s, 3 * m + s
    J[-1][0] = 4 * m * n - 1 + s
    return J


def _null2_join(m: int) -> list[list[int]]:
    # Join labels of P_2m v O_2 for m >= 2: rows u_{2k-1} and u_2k, k = 1..m.
    J = [row for k in range(1, m + 1)
         for row in ([2 * m + k - 1, 5 * m - k], [6 * m - k - 1, 3 * m + k - 1])]
    J[-1][0] = 6 * m - 1
    return J


def _path_null_join(m: int, N: int) -> tuple[list[list[int]], set[int], int]:
    # P_2m v O_N for m, N >= 2: the join labels, the two path-side colors
    # under _path_labels(m), and the sum every null vertex gets from the join.
    if N == 2:
        return _null2_join(m), {9 * m - 2, 11 * m - 2}, 8 * m * m - m
    n = (N + 1) // 2
    if N % 2 == 0:
        u_colors = {m * (4 * n * n + n + 3) - n - 1, m * (4 * n * n + 7 * n + 1) - n - 1}
        return _even_null_join(m, n), u_colors, m * (4 * m * n + 4 * m - 1)
    u_colors = {m * (4 * n * n - 3 * n + 3) - n - 1, m * (4 * n * n + 3 * n - 1) - n}
    return _odd_null_join(m, n), u_colors, m * (4 * m * n + 2 * m - 1)


def _in_edge_order(g: Graph) -> EdgeLabeling:
    # The labels 1..q in g's edge order. On K_r that order is lexicographic,
    # and the vertex sums strictly increase with the vertex index.
    return EdgeLabeling.from_values(g, range(1, g.q + 1))


def _assemble(
    first: Graph, second: Graph, u_labels: Sequence[int], grid: Sequence[Sequence[int]],
    v_labels: Sequence[int] = (),
) -> tuple[Graph, EdgeLabeling]:
    # join(first, second) lays out first's edges, second's, then the join
    # block row by row (see ``join``). Each part's labels come in its own
    # edge order and the grid row by row, so chaining them labels the join
    # in its edge order, and only the counts and the grid's shape need checking.
    if (len(u_labels), len(v_labels), len(grid)) != (first.q, second.q, first.n) or any(
        len(row) != second.n or None in row for row in grid
    ):
        raise RuntimeError("the assembled labels do not cover exactly the graph's edges")
    g = join(first, second)
    return g, EdgeLabeling.from_values(g, itertools.chain(u_labels, v_labels, *grid))


def antimagic_complete(r: int) -> EdgeLabeling:
    """Labeling of K_r with pairwise distinct vertex sums (r >= 3)."""
    if r < 3:
        raise ParameterError(f"complete graph labeling needs order >= 3, got {r}")
    f = _in_edge_order(build_family("complete", r))
    if len(set(f.sums.values())) != r:
        raise RuntimeError("complete graph labeling produced equal sums")
    return f


def three_color_odd_cycle(length: int) -> EdgeLabeling:
    """Odd cycle labeling with sums 3m-1 at u_1, 2m-1 on other odd, 2m on even.

    length = 2m-1; the edge (u_{2j-1}, u_{2j}) gets 2m-j (the closing edge
    at j = m) and (u_{2j}, u_{2j+1}) gets j. This is the wrapped cycle
    labeling at base 0.
    """
    if length < 3 or length % 2 == 0:
        raise ParameterError(f"needs an odd cycle length >= 3, got {length}")
    return EdgeLabeling.from_values(build_family("cycle", length), _wrapped_cycle_labels(length, 0))


# ---------------------------------------------------------------------------
# concrete families


def label_path_join_null(m: int, null_order: int) -> ConstructionResult:
    """Even path joined with a null graph: P_2m v O_N, three colors.

    Covered for m >= 2 and N >= 2. With N = 1 the join is a fan and m = 1
    gives a double-apex null join; both are cited results (see ``FAMILIES``).
    """
    if m < 1 or null_order < 1:
        raise ParameterError("need m >= 1 and a null part of order >= 1")
    if m == 1 or null_order == 1:
        raise ParameterError("this scheme needs m >= 2 and a null part of order >= 2")
    grid, u_colors, v_sum = _path_null_join(m, null_order)
    g, f = _assemble(build_family("path", 2 * m), build_family("null", null_order), _path_labels(m), grid)
    return _result(g, f, u_colors | {v_sum}, 3)


def label_p7_o3() -> ConstructionResult:
    """The stored one-off labeling of P_7 v O_3 with colors 51, 65, 119."""
    grid = [
        [12, 14, 21],
        [27, 11, 22],
        [15, 10, 20],
        [9, 26, 23],
        [19, 16, 8],
        [24, 25, 7],
        [13, 17, 18],
    ]
    g, f = _assemble(build_family("path", 7), build_family("null", 3), [4, 1, 5, 2, 6, 3], grid)
    return _result(g, f, {51, 65, 119}, 3)


def label_path_join_cycle(m: int, n: int) -> ConstructionResult:
    """Even path joined with an odd cycle: P_2m v C_{2n-1}, five colors."""
    if m < 1 or n < 2:
        raise ParameterError("need m >= 1 and n >= 2")
    count = 2 * n - 1
    first, second = build_family("path", 2 * m), build_family("cycle", count)
    if m == 1:
        # The path edge contributes to both endpoints, so the first-side
        # sums, by direct summation, are 2n^2+3n-1 and 6n^2-n.
        u_labels = [4 * n - 1]
        grid = [list(range(1, count + 1)), [4 * n - 1 - j for j in range(1, count + 1)]]
        u_colors, v_sum = {2 * n * n + 3 * n - 1, 6 * n * n - n}, 4 * n - 1
    else:
        u_labels = _path_labels(m)
        grid, u_colors, v_sum = _path_null_join(m, count)
    base = 4 * m * n - 1
    g, f = _assemble(first, second, u_labels, grid, _wrapped_cycle_labels(count, base))
    colors = u_colors | _wrapped_cycle_colors(v_sum, base, count)
    return _result(g, f, colors, 5)


def label_path_join_complete(m: int, r: int) -> ConstructionResult:
    """Even path joined with a complete graph: P_2m v K_r, r + 2 colors."""
    if m < 1 or r < 1:
        raise ParameterError("need m >= 1 and r >= 1")
    if m == 1:
        # P_2 v K_r is K_{r+2}, labeled 1..q in lexicographic order: 1 on the
        # path edge, the next 2r on u_1's and u_2's join rows, the rest on K_r.
        first, second = build_family("path", 2), build_family("complete", r)
        grid = [range(2, r + 2), range(r + 2, 2 * r + 2)]
        g, f = _assemble(first, second, [1], grid, range(2 * r + 2, 2 * r + 2 + second.q))
        return _result(g, f, f.sums.values(), r + 2)
    if r == 1:
        raise ParameterError("this scheme needs r >= 2 when m >= 2")
    if r == 3:
        # K_3 is the 3-cycle; reuse the path-cycle scheme.
        return label_path_join_cycle(m, 2)
    # The P_2m v O_r labels, then K_r's lexicographic labels above them.
    first, second = build_family("path", 2 * m), build_family("complete", r)
    grid, u_colors, v_sum = _path_null_join(m, r)
    q0 = 2 * m - 1 + 2 * m * r
    if r == 2:
        # Both K_2 ends would get one sum; swapping u_2m's two join labels
        # moves them 2m apart.
        grid[-1].reverse()
        v_colors = {v_sum + q0 + 1 - 2 * m, v_sum + q0 + 1 + 2 * m}
    else:
        v_colors = {s + v_sum + (r - 1) * q0 for s in _in_edge_order(second).sums.values()}
    g, f = _assemble(first, second, _path_labels(m), grid, range(q0 + 1, q0 + second.q + 1))
    return _result(g, f, u_colors | v_colors, r + 2)


def _cycle_join(m: int, n: int, second: Graph, v_labels: Sequence[int] = ()) -> tuple[Graph, EdgeLabeling]:
    # C_2m v second for m, n >= 2, second having 2n - 1 vertices: the
    # P_2m v O_{2n-1} join labels shifted by one, the cycle labels that put
    # 1 on (u_{2m-1}, u_{2m}), and ``v_labels`` on second's own edges.
    grid = _odd_null_join(m, n, 1)
    return _assemble(build_family("cycle", 2 * m), second, _even_cycle_labels(m), grid, v_labels)


def _cycle_null_colors(m: int, n: int) -> tuple[set[int], int]:
    # _cycle_join's two cycle-side colors and the sum every second-side
    # vertex gets from the join.
    u_colors = {m * (4 * n * n - 3 * n + 3) + n, m * (4 * n * n + 3 * n - 1) + n + 1}
    return u_colors, m * (4 * m * n + 2 * m + 1)


def _deleted_edge(m: int, which: str, join_edge: bool = True) -> Edge:
    # The edge ``which`` deletes from C_2m v H: "cycle-edge" is the cycle
    # edge (u_{2m-1}, u_2m), "join-edge", where ``join_edge``, the join edge
    # (u_2m, v_1).
    if which == "cycle-edge":
        return (2 * m - 1, 2 * m)
    if not join_edge:
        raise ParameterError(
            f"only even-cycle edges can be deleted here; {which!r} deletion is an "
            "open problem with no claimed color count"
        )
    if which != "join-edge":
        raise ParameterError(f"which must be cycle-edge or join-edge, got {which!r}")
    return (2 * m, 2 * m + 1)


def _minus_label_one(
    g: Graph, f: EdgeLabeling, sums: dict, e: Edge, classes: list[tuple[set[int], int]], count: int
) -> ConstructionResult:
    # Deletes e, which carries label 1 under f, whose sums on g are ``sums``.
    # ``classes`` pairs each set of claimed colors with the degree in g of
    # the vertices that carry them: with e gone and every other label
    # lowered by one, each such sum drops by that degree.
    if not check_deletion_sums(g, sums):
        raise RuntimeError(f"deletion certificate failed for {e}")
    h, f2 = delete_labeled_edge(g, f, e)  # refuses an e without label 1
    return _result(h, f2, {c - d for colors, d in classes for c in colors}, count)


def label_cycle_join_null(m: int, n: int) -> ConstructionResult:
    """Even cycle joined with an odd null graph: C_2m v O_{2n-1}, three colors."""
    if m < 2:
        raise ParameterError("need m >= 2")
    if n < 1:
        raise ParameterError("need n >= 1")
    if n == 1:
        raise ParameterError("this scheme needs n >= 2")
    g, f = _cycle_join(m, n, build_family("null", 2 * n - 1))
    u_colors, v_sum = _cycle_null_colors(m, n)
    return _result(g, f, u_colors | {v_sum}, 3)


def label_odd_cycle_join_even_null(n: int) -> ConstructionResult:
    """Odd cycle joined with the even null graph one smaller, four colors.

    Join labels come from the middle-column-deleted, row-rotated odd magic
    square; the deleted column becomes the cycle labels.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    order = 2 * n + 1
    square = siamese_magic_square(order)
    # Cycle edge k: (u_{2i-1}, u_{2i}) and the closing edge, k = 2i - 1,
    # get 1 + 2(n+1)(i-1); (u_{2i}, u_{2i+1}) gets 1 + 2(n+1)(n+i).
    cyc = [1 + (n + 1) * (k - 1 if k % 2 == 1 else 2 * n + k) for k in range(1, order + 1)]
    grid = drop_column_and_rotate(square, n).entries
    g, f = _assemble(build_family("cycle", order), build_family("null", 2 * n), cyc, grid)
    k = square.col_constant
    colors = {
        k,
        k + 1 - 2 * n * (n + 1),
        k + 1 + 2 * n * (n + 1),
        k + 1 + (4 + 2 * n) * (n + 1),
    }
    return _result(g, f, colors, 4)


def label_cycle_join_null_minus_edge(m: int, n: int, which: str = "cycle-edge") -> ConstructionResult:
    """C_2m v O_{2n-1} with one edge removed, still three colors.

    ``which`` picks the canonical deleted edge: "cycle-edge" removes the
    cycle edge carrying label 1; "join-edge" first reflects the labeling
    (valid by the complement conditions) so the join edge (u_2m, v_1)
    carries label 1, then removes it.
    """
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    e = _deleted_edge(m, which)
    g, f = _cycle_join(m, n, build_family("null", 2 * n - 1))
    sums = induced_sums(g, f)
    u_colors, v_sum = _cycle_null_colors(m, n)
    classes = [(u_colors, 2 * n + 1), ({v_sum}, 2 * m)]
    if which == "join-edge":
        if (m, n) == JOIN_EDGE_COLLISION:
            # After reflecting and deleting, the even-cycle class and the
            # null-side class land on the same sum (4mn(n-m)+mn+2m^2+2m-n-1
            # = 0 exactly here), so this scheme cannot certify the point.
            raise ParameterError(
                f"join-edge deletion at m={m}, n={n} merges two color classes; "
                "no certificate is available for this point"
            )
        comp = complement_sums(g, sums)
        ok, witness = check_complement_sums(sums, comp)
        if not ok:
            raise RuntimeError(f"complement conditions failed at {witness}")
        f, sums = complement_labeling(g, f), comp
        classes = [({d * (g.q + 1) - c for c in colors}, d) for colors, d in classes]
    return _minus_label_one(g, f, sums, e, classes, 3)


def label_cycle_join_cycle(m: int, n: int) -> ConstructionResult:
    """Even cycle joined with an odd cycle: C_2m v C_{2n-1}, five colors."""
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    if (m, n) == CYCLE_CYCLE_COLLISION:
        # The odd-cycle-side even class equals the first-side odd class
        # (both 393), so the scheme does not produce five colors here.
        raise ParameterError(
            f"the two-cycle join scheme merges two color classes at m={m}, n={n}; "
            "no five-color labeling is available from this construction"
        )
    count = 2 * n - 1
    g, f = _cycle_join(m, n, build_family("cycle", count), _wrapped_cycle_labels(count, 4 * m * n))
    u_colors, v_sum = _cycle_null_colors(m, n)
    colors = u_colors | _wrapped_cycle_colors(v_sum, 4 * m * n, count)
    return _result(g, f, colors, 5)


def label_cycle_join_cycle_minus_edge(m: int, n: int, which: str = "cycle-edge") -> ConstructionResult:
    """C_2m v C_{2n-1} minus the label-1 cycle edge, still five colors.

    Only edges of the even cycle are supported; removing odd-cycle or join
    edges is an open problem with no claimed value.
    """
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    e = _deleted_edge(m, which, join_edge=False)
    base = label_cycle_join_cycle(m, n)
    u_colors, _ = _cycle_null_colors(m, n)
    # The five claimed colors are distinct, so the odd-cycle side holds the
    # three that are not the even cycle's.
    classes = [(u_colors, 2 * n + 1), (base.claimed_colors - u_colors, 2 * m + 2)]
    g, f = base.graph, base.labeling
    return _minus_label_one(g, f, f.sums, e, classes, 5)


def label_cycle_join_complete(m: int, r: int) -> ConstructionResult:
    """Even cycle joined with an odd complete graph: C_2m v K_r, r + 2 colors."""
    if m < 2 or r < 1:
        raise ParameterError("need m >= 2 and r >= 1")
    if r % 2 == 0:
        raise ParameterError("only odd complete parts are supported here")
    if r == 1:
        raise ParameterError("this scheme needs r >= 3")
    if r == 3:
        # K_3 is the 3-cycle; reuse the two-cycle scheme.
        return label_cycle_join_cycle(m, 2)
    n = (r + 1) // 2
    second, shift = build_family("complete", r), 4 * m * n
    g, f = _cycle_join(m, n, second, range(shift + 1, shift + second.q + 1))
    u_colors, v_sum = _cycle_null_colors(m, n)
    v_colors = {s + v_sum + (r - 1) * shift for s in _in_edge_order(second).sums.values()}
    return _result(g, f, u_colors | v_colors, r + 2)


def label_complete_join_odd_cycle(n: int, m: int) -> ConstructionResult:
    """Even complete graph joined with an odd cycle: K_2n v C_{2m-1}, 2n+3 colors.

    Assembles the three-color odd-cycle labeling, a (2n, 2m-1) nearly magic
    rectangle for the join edges, and a shifted complete-graph labeling
    whose vertices are renamed so the sums interleave odd positions below
    even ones.
    """
    if n < 1 or m < 2:
        raise ParameterError("need n >= 1 and m >= 2")
    count = 2 * m - 1
    first, second = build_family("complete", 2 * n), build_family("cycle", count)
    grid = [[x + count for x in row] for row in nearly_magic_rectangle(2 * n, count).entries]
    # Lexicographic K_2n sums increase with the vertex, so renaming v to
    # 2v - 1 (v <= n) or 2(v - n) (v > n) puts the n smallest sums on the
    # odd positions in order. The renamed edges, sorted, are K_2n's edge order.
    renamed = [0, *range(1, 2 * n + 1, 2), *range(2, 2 * n + 1, 2)]
    shift = (2 * n + 1) * count
    u_labels = [lab for _, lab in sorted(
        (edge(renamed[a], renamed[b]), lab) for lab, (a, b) in enumerate(first.edges, shift + 1)
    )]
    g, f = _assemble(first, second, u_labels, grid, _wrapped_cycle_labels(count, 0))
    sorted_sums = list(_in_edge_order(first).sums.values())  # in vertex order
    join_part = count * count + n * count * count
    k_shift_part = (2 * n - 1) * shift
    u_colors = set()
    for i in range(1, n + 1):
        u_colors.add(sorted_sums[i - 1] + k_shift_part + join_part + m - 1)
        u_colors.add(sorted_sums[n + i - 1] + k_shift_part + join_part + m)
    v_colors = _wrapped_cycle_colors(2 * n * count + 2 * n * n * count + n, 0, count)
    return _result(g, f, u_colors | v_colors, 2 * n + 3)


# ---------------------------------------------------------------------------
# generic join schemes (caller supplies the already-labeled first part)


def _clash(sums: dict[int, int], u_shift: int, new_colors: set[int]) -> int | None:
    """First vertex of the labeled first part whose shifted sum is a new color.

    Each generic scheme shifts every first-part sum by ``u_shift`` and adds
    ``new_colors``; it assumes no shifted sum lands on a new color. The
    generators refuse a point where one does, and the sweep skips it.
    """
    return next((u for u, s in sums.items() if s + u_shift in new_colors), None)


def _null_colors(g: Graph, n: int) -> tuple[int, set[int]]:
    # G v O_n: the first-part shift and the one color of the null side.
    p, e = g.n, g.q
    return n * e + n * (p * n + 1) // 2, {p * e + p * (p * n + 1) // 2}


def _bipartite_parts_ok(m: int, n: int) -> bool:
    return m != n and m >= 2 and n >= 2 and m % 2 == n % 2


def _bipartite_colors(g: Graph, m: int, n: int) -> tuple[int, set[int]]:
    # G v K_{m,n}: G v O_{m+n}'s shift and the colors of the m- and n-sides,
    # which add a row or a column of K_{m,n}'s magic rectangle above ``top``.
    shift, (join_sum,) = _null_colors(g, m + n)
    top = g.q + g.n * (m + n)
    return shift, {join_sum + n * top + n * (m * n + 1) // 2, join_sum + m * top + m * (m * n + 1) // 2}


def _cycle_colors(g: Graph, m: int) -> tuple[int, set[int]]:
    # G v C_m: G v O_m's shift and the colors of the wrapped cycle.
    shift, (join_sum,) = _null_colors(g, m)
    return shift, _wrapped_cycle_colors(join_sum, g.q + g.n * m, m)


def _generic_join(
    g: Graph, f: EdgeLabeling, second: Graph, u_shift: int, new_colors: set[int],
    v_labels: Sequence[int] = (),
) -> ConstructionResult:
    # G v second: join edges take a magic (|V(G)|, |V(second)|)-rectangle
    # shifted by |E(G)|, second's own edges take ``v_labels``. Every sum of
    # G shifts by ``u_shift`` and second adds ``new_colors``.
    cert = verify_local_antimagic(g, f)
    if not cert.ok:
        raise ParameterError("the supplied labeling must be a proper local antimagic labeling")
    # the classes cover g's vertices: f.graph may have fewer
    sums = {v: s for s, vs in cert.color_classes.items() for v in vs}
    u = _clash(sums, u_shift, new_colors)
    if u is not None:
        raise ParameterError(f"vertex {u} carries the forbidden sum {sums[u]}")
    e = g.q
    grid = [[x + e for x in row] for row in magic_rectangle(g.n, second.n).entries]
    joined, lab = _assemble(g, second, f.values, grid, v_labels)
    colors = {s + u_shift for s in cert.color_classes} | new_colors
    return _result(joined, lab, colors, cert.color_count + len(new_colors))


def label_generic_join_null(g: Graph, f: EdgeLabeling, n: int) -> ConstructionResult:
    """Join any labeled graph with a null part via a magic rectangle.

    Join edges carry a magic (|V(G)|, n)-rectangle shifted by |E(G)|, so
    every added vertex gets one shared new color while the original colors
    shift uniformly. Requires order >= 3, n >= 2, equal parities, and that
    no original sum equals the forbidden crossing value.
    """
    if g.n < 3 or n < 2:
        raise ParameterError("need |V(G)| >= 3 and n >= 2")
    if g.n % 2 != n % 2:
        raise ParameterError("the part orders must share parity")
    return _generic_join(g, f, build_family("null", n), *_null_colors(g, n))


def label_generic_join_complete_bipartite(
    g: Graph, f: EdgeLabeling, m: int, n: int
) -> ConstructionResult:
    """Join a labeled even-order graph with K_{m,n}; adds two colors.

    Join edges take a magic (p, m+n)-rectangle shifted by |E(G)|; the
    bipartite part's own edges take a magic (m, n)-rectangle on top of the
    used range. Requires m != n >= 2 of equal parity and original sums
    avoiding the two crossing values.
    """
    p, e = g.n, g.q
    if p < 3 or p % 2 == 1:
        raise ParameterError("need an even first-part order >= 4")
    if not _bipartite_parts_ok(m, n):
        raise ParameterError("need m != n, both >= 2, of equal parity")
    # K_{m,n}'s edges (j, m+k) run row by row, as the rectangle's cells do
    v_labels = [e + p * (m + n) + x for row in magic_rectangle(m, n).entries for x in row]
    return _generic_join(
        g, f, build_family("complete-bipartite", m, n), *_bipartite_colors(g, m, n), v_labels
    )


def label_generic_join_cycle(g: Graph, f: EdgeLabeling, m: int) -> ConstructionResult:
    """Join a labeled odd-order graph with an odd cycle; adds three colors.

    Join edges take a magic (p, m)-rectangle shifted by |E(G)|; the cycle
    edges take the wrapped top range. The three new colors are the cycle
    base plus m, m+1, and (3m+1)/2.
    """
    if g.n < 3 or g.n % 2 == 0:
        raise ParameterError("need an odd first-part order >= 3")
    if m < 3 or m % 2 == 0:
        raise ParameterError("the cycle order must be odd and >= 3 for this scheme")
    return _generic_join(
        g, f, build_family("cycle", m), *_cycle_colors(g, m), _wrapped_cycle_labels(m, g.q + g.n * m)
    )


# ---------------------------------------------------------------------------
# the family registry


def _cycle_cycle_collision(seed, m: int, n: int) -> bool:
    return (m, n) == CYCLE_CYCLE_COLLISION


def _complete_part(r: int) -> tuple[str, int]:
    # K_r as the schemes with a longer first part take it: K_1 is the O_1 of
    # a fan or wheel, and K_3 is labeled as the 3-cycle.
    return ("null", 1) if r == 1 else ("cycle", 3) if r == 3 else ("complete", r)


def _fan(m: int, N: int) -> tuple[str, int] | None:
    # P_2m v O_1, also path-join-complete's P_2m v K_1
    return ("fan joins P_2m v O_1", 4 if m == 2 else 3) if m >= 2 and N == 1 else None


def _wheel(m: int, n: int) -> tuple[str, int] | None:
    # C_2m v O_1, also cycle-join-complete's C_2m v K_1
    return ("wheels C_2m v O_1", 3) if m >= 2 and n == 1 else None


class Family(NamedTuple):
    """What lajoin knows about one family, and the one place it says so.

    ``params`` name the generator's parameters in its order; a ``which``
    among them is last, optional, and defaults to ``cycle-edge``. ``q``
    is the closed-form edge count of the built graph. The sweep walks
    ``which`` over ``which_values``, outermost, then each ``(parameter,
    start, step)`` axis in turn; the axes follow ``params`` in order, and
    ``q(*values)`` and ``excluded(seed, *values)`` take a point's values in
    that order. ``excluded``, when set, names the points the sweep skips.
    Generic families label a caller's graph; ``seed`` is their default
    one, ``(kind, order)`` of a base family with edges labeled 1..q in
    order, and it is also the graph the sweep and ``q`` assume.

    ``parts`` and ``cited`` take the generator's arguments, a generic
    family's labeled graph left out and ``which`` only when given.
    ``parts`` gives the ``build_family`` arguments of the two parts that
    the point's graph joins, first then second (a generic family gives
    only the second; its first is ``seed``), then, for a minus-edge
    family, the edge deleted from that join. ``cited``, when set, gives
    ``(what, chi_la)`` at a point left to cited work and None elsewhere;
    no sweep point is cited.
    """

    name: str
    params: tuple[str, ...]
    build: Callable[..., ConstructionResult]
    q: Callable[..., int]
    parts: Callable[..., tuple]
    axes: tuple[tuple[str, int, int], ...] = ()
    which_values: tuple[str, ...] = ()
    excluded: Callable[..., bool] | None = None
    seed: tuple[str, int] | None = None
    cited: Callable[..., tuple[str, int] | None] | None = None


# In FAMILIES.md order.
FAMILIES = (
    Family("path-join-null", ("m", "N"), label_path_join_null,
           q=lambda m, N: 2 * m - 1 + 2 * m * N, parts=lambda m, N: (("path", 2 * m), ("null", N)),
           axes=(("m", 2, 1), ("N", 2, 1)),
           cited=lambda m, N: ("P_2 v O_N joins", 3) if m == 1 and N >= 1 else _fan(m, N)),
    Family("p7-o3", (), label_p7_o3, q=lambda: 27, parts=lambda: (("path", 7), ("null", 3))),
    Family("path-join-cycle", ("m", "n"), label_path_join_cycle,
           q=lambda m, n: 4 * m * n + 2 * n - 2, parts=lambda m, n: (("path", 2 * m), ("cycle", 2 * n - 1)),
           axes=(("m", 1, 1), ("n", 2, 1))),
    Family("path-join-complete", ("m", "r"), label_path_join_complete,
           q=lambda m, r: 2 * m - 1 + 2 * m * r + r * (r - 1) // 2,
           # at m = 1 the whole graph is K_{r+2}, labeled as one
           parts=lambda m, r: (("path", 2 * m), ("complete", r) if m == 1 else _complete_part(r)),
           axes=(("m", 2, 1), ("r", 2, 1)), cited=_fan),
    Family("cycle-join-null", ("m", "n"), label_cycle_join_null,
           q=lambda m, n: 4 * m * n, parts=lambda m, n: (("cycle", 2 * m), ("null", 2 * n - 1)),
           axes=(("m", 2, 1), ("n", 2, 1)), cited=_wheel),
    Family("odd-cycle-join-even-null", ("n",), label_odd_cycle_join_even_null,
           q=lambda n: (2 * n + 1) ** 2, parts=lambda n: (("cycle", 2 * n + 1), ("null", 2 * n)),
           axes=(("n", 1, 1),)),
    Family("cycle-join-null-minus-edge", ("m", "n", "which"), label_cycle_join_null_minus_edge,
           q=lambda m, n, which: 4 * m * n - 1,
           parts=lambda m, n, which="cycle-edge": (
               ("cycle", 2 * m), ("null", 2 * n - 1), _deleted_edge(m, which)),
           axes=(("m", 2, 1), ("n", 2, 1)), which_values=("cycle-edge", "join-edge"),
           excluded=lambda seed, m, n, which: which == "join-edge" and (m, n) == JOIN_EDGE_COLLISION),
    Family("cycle-join-cycle", ("m", "n"), label_cycle_join_cycle,
           q=lambda m, n: 4 * m * n + 2 * n - 1, parts=lambda m, n: (("cycle", 2 * m), ("cycle", 2 * n - 1)),
           axes=(("m", 2, 1), ("n", 2, 1)), excluded=_cycle_cycle_collision),
    Family("cycle-join-cycle-minus-edge", ("m", "n", "which"), label_cycle_join_cycle_minus_edge,
           q=lambda m, n: 4 * m * n + 2 * n - 2,
           parts=lambda m, n, which="cycle-edge": (
               ("cycle", 2 * m), ("cycle", 2 * n - 1), _deleted_edge(m, which, join_edge=False)),
           axes=(("m", 2, 1), ("n", 2, 1)), excluded=_cycle_cycle_collision),
    Family("cycle-join-complete", ("m", "r"), label_cycle_join_complete,
           q=lambda m, r: 2 * m * (r + 1) + r * (r - 1) // 2,
           parts=lambda m, r: (("cycle", 2 * m), _complete_part(r)),
           axes=(("m", 2, 1), ("r", 5, 2)), cited=_wheel),
    Family("complete-join-odd-cycle", ("n", "m"), label_complete_join_odd_cycle,
           q=lambda n, m: (2 * n + 1) * (2 * m - 1) + n * (2 * n - 1),
           parts=lambda n, m: (("complete", 2 * n), ("cycle", 2 * m - 1)), axes=(("n", 1, 1), ("m", 2, 1))),
    Family("generic-join-null", ("n",), label_generic_join_null,
           q=lambda n: 4 + 4 * n, parts=lambda n: (("null", n),), axes=(("n", 2, 2),), seed=("cycle", 4),
           excluded=lambda seed, n: _clash(seed.sums, *_null_colors(seed.graph, n)) is not None),
    Family("generic-join-complete-bipartite", ("m", "n"), label_generic_join_complete_bipartite,
           q=lambda m, n: 3 + 4 * (m + n) + m * n, parts=lambda m, n: (("complete-bipartite", m, n),),
           axes=(("m", 2, 1), ("n", 2, 1)), seed=("path", 4),
           excluded=lambda seed, m, n: not _bipartite_parts_ok(m, n)
           or _clash(seed.sums, *_bipartite_colors(seed.graph, m, n)) is not None),
    Family("generic-join-cycle", ("m",), label_generic_join_cycle,
           q=lambda m: 3 + 4 * m, parts=lambda m: (("cycle", m),), axes=(("m", 3, 2),), seed=("complete", 3),
           excluded=lambda seed, m: _clash(seed.sums, *_cycle_colors(seed.graph, m)) is not None),
)

_BY_NAME = {fam.name: fam for fam in FAMILIES}
ALL_FAMILIES = tuple(_BY_NAME)
GENERIC_FAMILIES = tuple(fam.name for fam in FAMILIES if fam.seed)


def _family(name: str) -> Family:
    if name not in _BY_NAME:
        raise ParameterError(f"unknown family {name!r}")
    return _BY_NAME[name]


def generic_seed(family: str) -> tuple[Graph, EdgeLabeling]:
    """Default labeled first part of a generic family, used by the CLI and sweeps."""
    fam = _BY_NAME.get(family)
    if fam is None or fam.seed is None:
        raise ParameterError(f"no generic seed for {family!r}")
    g = build_family(*fam.seed)
    return g, _in_edge_order(g)


def check_params(family: str, params: dict) -> Family:
    """The family's record; raises ParameterError on an unknown family, a
    parameter the family does not take, or a missing one other than ``which``."""
    fam = _family(family)
    for key in params:
        if key not in fam.params:
            raise ParameterError(f"{family} does not take parameter {key}")
    for key in fam.params:
        if key not in params and key != "which":
            raise ParameterError(f"{family} needs parameter {key}")
    return fam


def edge_count(family: str, params: dict) -> int:
    """The closed-form edge count ``q`` at parameters ``check_params`` accepts."""
    fam = check_params(family, params)
    values = [params[key] for key, _, _ in fam.axes]
    if fam.which_values:
        values.append(params.get("which", fam.which_values[0]))
    return fam.q(*values)


def _args(fam: Family, params: dict) -> list:
    # The generator's arguments, a generic family's labeled graph left out.
    return [params[key] for key in fam.params if key in params]


def family_graph(family: str, params: dict) -> Graph:
    """The graph of a family point, built from the registry's ``parts``
    with no labeling, at parameters ``check_params`` accepts.

    It is the graph ``build_construction`` labels or cites, and it exists
    also at points the generator refuses; ParameterError where no such
    graph exists.
    """
    fam = check_params(family, params)
    parts = fam.parts(*_args(fam, params))
    first, second, *deleted = (fam.seed, *parts) if fam.seed else parts
    g = join(build_family(*first), build_family(*second))
    return delete_edge(g, *deleted) if deleted else g


def build_construction(family: str, params: dict) -> ConstructionResult:
    """Run the named family generator on parameters ``check_params`` accepts.

    Generic families label their seed joined with the requested second part.
    A point the registry leaves to cited work raises CitedCaseError, with
    its ``family_graph`` and cited value; nothing else raises it.
    """
    fam = check_params(family, params)
    args = _args(fam, params)
    cited = fam.cited and fam.cited(*args)
    if cited:
        what, chi_la = cited
        raise CitedCaseError(
            f"{what} are covered by cited work; use the exact solver", family_graph(family, params), chi_la
        )
    if fam.seed is None:
        return fam.build(*args)
    return fam.build(*generic_seed(family), *args)


def sweep_points(family: str, max_edges: int = 400) -> list[dict]:
    """All formula-backed parameter points of a family within the edge budget.

    Walks the family's axes outermost first. An axis stops at the first
    value whose edge count, with every later axis at its start, exceeds
    ``max_edges``; excluded points are skipped.
    """
    fam = _family(family)
    seed = generic_seed(family)[1] if fam.seed else None
    names = [key for key, _, _ in fam.axes] + ["which"]
    points: list[dict] = []

    def walk(depth: int, values: list) -> None:
        # ``values``: the axes before ``depth`` as chosen, the later ones at
        # their start, then ``which`` when the family sweeps it.
        key, start, step = fam.axes[depth]
        innermost = depth == len(fam.axes) - 1
        point = dict(zip(names, values))  # copied per point: cheaper than a new dict
        for value in itertools.count(start, step):
            values[depth] = value
            if fam.q(*values) > max_edges:
                break
            if not innermost:
                walk(depth + 1, values)
            elif fam.excluded is None or not fam.excluded(seed, *values):
                point[key] = value  # an existing key keeps its place
                points.append(point.copy())
        values[depth] = start

    for which in fam.which_values or (None,):
        values = [start for _, start, _ in fam.axes] + ([] if which is None else [which])
        if fam.q(*values) > max_edges:
            continue
        if fam.axes:
            walk(0, values)
        else:
            points.append({})
    return points
