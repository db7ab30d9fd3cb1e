"""Deterministic labeling generators for the join-graph families.

Each generator builds its graph, writes down the closed-form edge
labeling, and returns it together with the color values and color count
the scheme is designed to achieve. Verification is deliberately left to
the caller (``verify_local_antimagic`` or the solver harness) so claimed
and recomputed data stay independent.

Families whose small parameter points are only settled by citation in the
literature (half-wheels, fans, wheels, the K_{1,1,n} joins) raise
CitedCaseError carrying the graph and the cited value; callers may route
those to the exact solver.

``FAMILIES`` is the registry: one record per family states its parameters,
generator, closed-form edge count, sweep domain and excluded points, and
``build_construction``, ``sweep_points`` and the CLI flags are read from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn

from .arrays import drop_column_and_rotate, magic_rectangle, nearly_magic_rectangle, siamese_magic_square
from .graphs import Edge, Graph, ParameterError, build_family, edge, join
from .labelings import (
    EdgeLabeling,
    check_complement_valid,
    check_deletion_certificate,
    complement_labeling,
    delete_labeled_edge,
    verify_local_antimagic,
    vertex_sums,
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


def _cited(what: str, graph: Graph, cited_chi_la: int) -> NoReturn:
    # Every cited point leaves its generator through here, in one message form.
    raise CitedCaseError(f"{what} are covered by cited work; use the exact solver", graph, cited_chi_la)


@dataclass(frozen=True)
class ConstructionResult:
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


def _path_labels(m: int) -> dict[Edge, int]:
    # P_2m edge (u_i, u_{i+1}): even i -> i/2, odd i -> 2m - (i+1)/2
    return {(i, i + 1): (i // 2 if i % 2 == 0 else 2 * m - (i + 1) // 2) for i in range(1, 2 * m)}


def _even_cycle_labels(m: int) -> dict[Edge, int]:
    # C_2m: odd i -> m - (i-1)/2, even i -> m + 1 + i/2, closing edge m + 1.
    # Puts label 1 on (u_{2m-1}, u_{2m}).
    lab = {}
    for i in range(1, 2 * m):
        lab[(i, i + 1)] = m - (i - 1) // 2 if i % 2 == 1 else m + 1 + i // 2
    lab[(1, 2 * m)] = m + 1
    return lab


def _wrapped_cycle_labels(count: int, base: int) -> dict[Edge, int]:
    # Odd cycle v_1..v_count: edge j (closing at j = count) gets
    # base + j/2 for even j and base + count - (j-1)/2 for odd j,
    # a bijection onto [base+1, base+count].
    lab = {}
    for j in range(1, count + 1):
        a, b = (j, j + 1) if j < count else (1, count)
        lab[(a, b)] = base + j // 2 if j % 2 == 0 else base + count - (j - 1) // 2
    return lab


def _wrapped_cycle_colors(join_sum: int, base: int, count: int) -> set[int]:
    # The three colors of _wrapped_cycle_labels(count, base) when each cycle
    # vertex also carries ``join_sum`` from the join: its own labels add
    # 2*base plus count, count + 1 or (3*count + 1)/2. three_color_odd_cycle
    # is that labeling at base 0.
    return {join_sum + 2 * base + c for c in (count, count + 1, (3 * count + 1) // 2)}


def _even_null_join(m: int, n: int) -> dict[tuple[int, int], int]:
    # Join labels of P_2m v O_2n for m, n >= 2, keyed (path index, null index).
    J: dict[tuple[int, int], int] = {}
    q = 4 * m * n + 2 * m - 1
    J[(2 * m - 1, 1)] = 2 * m
    J[(2 * m, 1)] = q
    J[(2 * m - 1, 2)] = 3 * m
    J[(2 * m, 3)] = 4 * m
    for i in range(1, m):
        J[(2 * i - 1, 1)] = 4 * m - i
        J[(2 * i, 1)] = 4 * m * n + m - 1 - i
        J[(2 * i - 1, 2)] = 3 * m - i
        J[(2 * i, 3)] = 4 * m + i
    for i in range(1, m + 1):
        J[(2 * i, 2)] = 4 * m * n + m - 2 + i
        J[(2 * i - 1, 3)] = 4 * m * n - m + i - 1
    for j in range(2, n + 1):
        for i in range(1, m + 1):
            J[(2 * i - 1, 2 * j)] = (2 * j + 1) * m - 1 + i
            J[(2 * i, 2 * j)] = (4 * n + 3 - 2 * j) * m - i
    for j in range(3, n + 1):
        for i in range(1, m + 1):
            J[(2 * i - 1, 2 * j - 1)] = (4 * n + 4 - 2 * j) * m - i
            J[(2 * i, 2 * j - 1)] = 2 * j * m - 1 + i
    return J


def _odd_null_join(m: int, n: int) -> dict[tuple[int, int], int]:
    # Join labels of P_2m v O_{2n-1} for m, n >= 2.
    J: dict[tuple[int, int], int] = {}
    J[(2 * m - 1, 1)] = 2 * m
    J[(2 * m, 1)] = 4 * m * n - 1
    J[(2 * m - 1, 2)] = 3 * m
    for i in range(1, m):
        J[(2 * i - 1, 1)] = 4 * m - i
        J[(2 * i, 1)] = 4 * m * n - 2 * m + i - 1
        J[(2 * i - 1, 2)] = 3 * m - i
    for i in range(1, m + 1):
        J[(2 * i, 2)] = 4 * m * n - m - 2 + i
        J[(2 * i - 1, 2 * n - 1)] = 2 * m * n + 2 * (i - 1)
        J[(2 * i, 2 * n - 1)] = 2 * m * n + 2 * m + 1 - 2 * i
    for j in range(2, n):
        for i in range(1, m + 1):
            J[(2 * i - 1, 2 * j - 1)] = 4 * m * n + 2 * m - 2 * j * m - i
            J[(2 * i, 2 * j - 1)] = 2 * j * m + i - 1
            J[(2 * i - 1, 2 * j)] = (2 * j + 1) * m + i - 1
            J[(2 * i, 2 * j)] = 4 * m * n + m - 2 * j * m - i
    return J


def _null2_join(m: int) -> dict[tuple[int, int], int]:
    # Join labels of P_2m v O_2 for m >= 2.
    J: dict[tuple[int, int], int] = {}
    for i in range(1, 2 * m + 1):
        if i % 2 == 1:
            J[(i, 1)] = 2 * m + (i - 1) // 2
            J[(i, 2)] = 5 * m - (i + 1) // 2
        else:
            J[(i, 1)] = 6 * m - 1 if i == 2 * m else 6 * m - (i + 2) // 2
            J[(i, 2)] = 3 * m + (i - 2) // 2
    return J


def _path_null_join(m: int, N: int) -> tuple[dict[tuple[int, int], int], set[int], int]:
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


def _complete_labels(r: int) -> dict[Edge, int]:
    # Lexicographic labeling of K_r; vertex sums strictly increase with the
    # vertex index, so all r sums are distinct.
    lab = {}
    k = 1
    for a in range(1, r + 1):
        for b in range(a + 1, r + 1):
            lab[(a, b)] = k
            k += 1
    return lab


def _assemble(
    graph: Graph,
    first_n: int,
    u_labels: dict[Edge, int],
    join_labels: dict[tuple[int, int], int],
    v_labels: dict[Edge, int] | None = None,
) -> EdgeLabeling:
    # Every scheme writes normalized keys, (a, b) with a < b, and shifting
    # both ends keeps them so; one check of the whole key set stands in for
    # normalizing each key.
    labels = dict(u_labels)
    for (i, j), lab in join_labels.items():
        labels[(i, first_n + j)] = lab
    if v_labels:
        for (a, b), lab in v_labels.items():
            labels[(first_n + a, first_n + b)] = lab
    if labels.keys() != graph._edge_set:
        raise RuntimeError("the assembled labels do not cover exactly the graph's edges")
    return EdgeLabeling(graph, labels)


def antimagic_complete(r: int) -> EdgeLabeling:
    """Labeling of K_r with pairwise distinct vertex sums (r >= 3)."""
    if r < 3:
        raise ParameterError(f"complete graph labeling needs order >= 3, got {r}")
    g = build_family("complete", r)
    f = EdgeLabeling(g, _complete_labels(r))
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
    return EdgeLabeling(build_family("cycle", length), _wrapped_cycle_labels(length, 0))


# ---------------------------------------------------------------------------
# concrete families


def label_path_join_null(m: int, null_order: int) -> ConstructionResult:
    """Even path joined with a null graph: P_2m v O_N, three colors.

    Covered directly for m >= 2 and N >= 2 (with N = 1 the join is a fan
    and m = 1 gives a double-apex null join; both are cited results routed
    to the solver). The sole exception is N = 1, m = 2 with four colors.
    """
    if m < 1 or null_order < 1:
        raise ParameterError("need m >= 1 and a null part of order >= 1")
    g = join(build_family("path", 2 * m), build_family("null", null_order))
    if m == 1:
        _cited("P_2 v O_N joins", g, 3)
    if null_order == 1:
        _cited("fan joins P_2m v O_1", g, 4 if m == 2 else 3)
    joins, u_colors, v_sum = _path_null_join(m, null_order)
    f = _assemble(g, 2 * m, _path_labels(m), joins)
    return _result(g, f, u_colors | {v_sum}, 3)


def label_p7_o3() -> ConstructionResult:
    """The stored one-off labeling of P_7 v O_3 with colors 51, 65, 119."""
    g = join(build_family("path", 7), build_family("null", 3))
    path_labels = dict(zip([(i, i + 1) for i in range(1, 7)], [4, 1, 5, 2, 6, 3]))
    grid = {
        1: (12, 14, 21),
        2: (27, 11, 22),
        3: (15, 10, 20),
        4: (9, 26, 23),
        5: (19, 16, 8),
        6: (24, 25, 7),
        7: (13, 17, 18),
    }
    join_labels = {(i, j + 1): grid[i][j] for i in grid for j in range(3)}
    f = _assemble(g, 7, path_labels, join_labels)
    return _result(g, f, {51, 65, 119}, 3)


def label_path_join_cycle(m: int, n: int) -> ConstructionResult:
    """Even path joined with an odd cycle: P_2m v C_{2n-1}, five colors."""
    if m < 1 or n < 2:
        raise ParameterError("need m >= 1 and n >= 2")
    count = 2 * n - 1
    g = join(build_family("path", 2 * m), build_family("cycle", count))
    if m == 1:
        # The path edge contributes to both endpoints, so the first-side
        # sums, by direct summation, are 2n^2+3n-1 and 6n^2-n.
        u_labels = {(1, 2): 4 * n - 1}
        joins = {(1, j): j for j in range(1, count + 1)}
        joins.update({(2, j): 4 * n - 1 - j for j in range(1, count + 1)})
        u_colors, v_sum = {2 * n * n + 3 * n - 1, 6 * n * n - n}, 4 * n - 1
    else:
        u_labels = _path_labels(m)
        joins, u_colors, v_sum = _path_null_join(m, count)
    base = 4 * m * n - 1
    f = _assemble(g, 2 * m, u_labels, joins, _wrapped_cycle_labels(count, base))
    colors = u_colors | _wrapped_cycle_colors(v_sum, base, count)
    return _result(g, f, colors, 5)


def label_path_join_complete(m: int, r: int) -> ConstructionResult:
    """Even path joined with a complete graph: P_2m v K_r, r + 2 colors."""
    if m < 1 or r < 1:
        raise ParameterError("need m >= 1 and r >= 1")
    if m == 1:
        # P_2 v K_r is the complete graph on r + 2 vertices.
        g = join(build_family("path", 2), build_family("complete", r))
        f = EdgeLabeling(g, _complete_labels(g.n))
        return _result(g, f, f.sums.values(), r + 2)
    if r == 1:
        # K_1 is O_1, which makes P_2m v K_1 a fan.
        return label_path_join_null(m, 1)
    if r == 3:
        # K_3 is the 3-cycle; reuse the path-cycle scheme.
        return label_path_join_cycle(m, 2)
    # The P_2m v O_r labels, then K_r's lexicographic labels above them.
    g = join(build_family("path", 2 * m), build_family("complete", r))
    joins, u_colors, v_sum = _path_null_join(m, r)
    q0 = 2 * m - 1 + 2 * m * r
    h = _complete_labels(r)
    h_sums = vertex_sums(h, r)
    v_colors = {h_sums[v] + v_sum + (r - 1) * q0 for v in range(1, r + 1)}
    if r == 2:
        # Both K_2 ends would get one sum; swapping u_2m's two join labels
        # moves them 2m apart.
        joins[(2 * m, 1)], joins[(2 * m, 2)] = joins[(2 * m, 2)], joins[(2 * m, 1)]
        v_colors = {v_sum + q0 + 1 - 2 * m, v_sum + q0 + 1 + 2 * m}
    f = _assemble(g, 2 * m, _path_labels(m), joins, {e: lab + q0 for e, lab in h.items()})
    return _result(g, f, u_colors | v_colors, r + 2)


def _cycle_join(
    m: int, n: int, second: Graph, v_labels: dict[Edge, int] | None = None
) -> tuple[Graph, EdgeLabeling]:
    # C_2m v second for m, n >= 2, second having 2n - 1 vertices: the
    # P_2m v O_{2n-1} join labels shifted by one, the cycle labels that put
    # 1 on (u_{2m-1}, u_{2m}), and ``v_labels`` on second's own edges.
    g = join(build_family("cycle", 2 * m), second)
    joins = {k: lab + 1 for k, lab in _odd_null_join(m, n).items()}
    return g, _assemble(g, 2 * m, _even_cycle_labels(m), joins, v_labels)


def _cycle_null_colors(m: int, n: int) -> tuple[set[int], int]:
    # _cycle_join's two cycle-side colors and the sum every second-side
    # vertex gets from the join.
    u_colors = {m * (4 * n * n - 3 * n + 3) + n, m * (4 * n * n + 3 * n - 1) + n + 1}
    return u_colors, m * (4 * m * n + 2 * m + 1)


def _minus_label_one(
    g: Graph, f: EdgeLabeling, e: Edge, classes: list[tuple[set[int], int]], count: int
) -> ConstructionResult:
    # Deletes e, which carries label 1. ``classes`` pairs each set of claimed
    # colors with the degree in g of the vertices that carry them: with e
    # gone and every other label lowered by one, each such sum drops by
    # that degree.
    if not check_deletion_certificate(g, f, e):
        raise RuntimeError(f"deletion certificate failed for {e}")
    h, f2 = delete_labeled_edge(g, f, e)
    return _result(h, f2, {c - d for colors, d in classes for c in colors}, count)


def label_cycle_join_null(m: int, n: int) -> ConstructionResult:
    """Even cycle joined with an odd null graph: C_2m v O_{2n-1}, three colors."""
    if m < 2:
        raise ParameterError("need m >= 2")
    if n < 1:
        raise ParameterError("need n >= 1")
    if n == 1:
        _cited("wheels C_2m v O_1", join(build_family("cycle", 2 * m), build_family("null", 1)), 3)
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
    g = join(build_family("cycle", order), build_family("null", 2 * n))
    square = siamese_magic_square(order)
    grid = drop_column_and_rotate(square, n)
    joins = {(i + 1, j + 1): grid.entries[i][j] for i in range(order) for j in range(order - 1)}
    cyc: dict[Edge, int] = {}
    for i in range(1, n + 2):
        a = 2 * i - 1
        b = 2 * i if i <= n else 1
        cyc[edge(a, b)] = 1 + 2 * (n + 1) * (i - 1)
    for i in range(1, n + 1):
        cyc[edge(2 * i, 2 * i + 1)] = 1 + 2 * (n + 1) * (n + i)
    f = _assemble(g, order, cyc, joins)
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
    if which not in ("cycle-edge", "join-edge"):
        raise ParameterError(f"which must be cycle-edge or join-edge, got {which!r}")
    g, f = _cycle_join(m, n, build_family("null", 2 * n - 1))
    u_colors, v_sum = _cycle_null_colors(m, n)
    classes = [(u_colors, 2 * n + 1), ({v_sum}, 2 * m)]
    e = edge(2 * m - 1, 2 * m)
    if which == "join-edge":
        if (m, n) == JOIN_EDGE_COLLISION:
            # After reflecting and deleting, the even-cycle class and the
            # null-side class land on the same sum (4mn(n-m)+mn+2m^2+2m-n-1
            # = 0 exactly here), so this scheme cannot certify the point.
            raise ParameterError(
                f"join-edge deletion at m={m}, n={n} merges two color classes; "
                "no certificate is available for this point"
            )
        ok, witness = check_complement_valid(g, f)
        if not ok:
            raise RuntimeError(f"complement conditions failed at {witness}")
        f = complement_labeling(g, f)
        classes = [({d * (g.q + 1) - c for c in colors}, d) for colors, d in classes]
        e = edge(2 * m, 2 * m + 1)
    return _minus_label_one(g, f, e, classes, 3)


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
    if which != "cycle-edge":
        raise ParameterError(
            f"only even-cycle edges can be deleted here; {which!r} deletion is an "
            "open problem with no claimed color count"
        )
    base = label_cycle_join_cycle(m, n)
    u_colors, _ = _cycle_null_colors(m, n)
    # The five claimed colors are distinct, so the odd-cycle side holds the
    # three that are not the even cycle's.
    classes = [(u_colors, 2 * n + 1), (base.claimed_colors - u_colors, 2 * m + 2)]
    return _minus_label_one(base.graph, base.labeling, edge(2 * m - 1, 2 * m), classes, 5)


def label_cycle_join_complete(m: int, r: int) -> ConstructionResult:
    """Even cycle joined with an odd complete graph: C_2m v K_r, r + 2 colors."""
    if m < 2 or r < 1:
        raise ParameterError("need m >= 2 and r >= 1")
    if r % 2 == 0:
        raise ParameterError("only odd complete parts are supported here")
    if r == 1:
        # K_1 is O_1, which makes C_2m v K_1 a wheel.
        return label_cycle_join_null(m, 1)
    if r == 3:
        return label_cycle_join_cycle(m, 2)
    n = (r + 1) // 2
    h = _complete_labels(r)
    h_sums = vertex_sums(h, r)
    shifted = {e: lab + 4 * m * n for e, lab in h.items()}
    g, f = _cycle_join(m, n, build_family("complete", r), shifted)
    u_colors, v_sum = _cycle_null_colors(m, n)
    v_colors = {h_sums[v] + v_sum + (r - 1) * 4 * m * n for v in range(1, r + 1)}
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
    g = join(build_family("complete", 2 * n), build_family("cycle", count))
    rect = nearly_magic_rectangle(2 * n, count)
    joins = {(i + 1, j + 1): rect.entries[i][j] + count for i in range(2 * n) for j in range(count)}
    k_labels = _complete_labels(2 * n)
    k_sums = vertex_sums(k_labels, 2 * n)
    # Rename so odd positions carry the n smallest sums in order.
    ranked = sorted(range(1, 2 * n + 1), key=lambda v: (k_sums[v], v))
    positions = list(range(1, 2 * n + 1, 2)) + list(range(2, 2 * n + 1, 2))
    renamed = {old: positions[k] for k, old in enumerate(ranked)}
    shift = (2 * n + 1) * count
    u_labels = {
        edge(renamed[a], renamed[b]): lab + shift for (a, b), lab in k_labels.items()
    }
    f = _assemble(g, 2 * n, u_labels, joins, _wrapped_cycle_labels(count, 0))
    sorted_sums = sorted(k_sums.values())
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


def _clash(f: EdgeLabeling, u_shift: int, new_colors: set[int]) -> int | None:
    """First vertex of the labeled first part whose shifted sum is a new color.

    Each generic scheme shifts every first-part sum by ``u_shift`` and adds
    ``new_colors``; it assumes no shifted sum lands on a new color. The
    generators refuse a point where one does, and the sweep skips it.
    """
    return next((u for u, s in f.sums.items() if s + u_shift in new_colors), None)


def _null_colors(g: Graph, n: int) -> tuple[int, set[int]]:
    # G v O_n: the first-part shift and the one color of the null side.
    p, e = g.n, g.q
    return n * e + n * (p * n + 1) // 2, {p * e + p * (p * n + 1) // 2}


def _bipartite_parts_ok(m: int, n: int) -> bool:
    return m != n and m >= 2 and n >= 2 and m % 2 == n % 2


def _bipartite_colors(g: Graph, m: int, n: int) -> tuple[int, set[int]]:
    # G v K_{m,n}: the first-part shift and the colors of the m- and n-sides.
    p, e = g.n, g.q
    t_rect = p * (m + n) + 1
    x_color = p * e + p * t_rect // 2 + n * e + n * p * (m + n) + n * (m * n + 1) // 2
    y_color = p * e + p * t_rect // 2 + m * e + m * p * (m + n) + m * (m * n + 1) // 2
    return (m + n) * e + (m + n) * t_rect // 2, {x_color, y_color}


def _cycle_colors(g: Graph, m: int) -> tuple[int, set[int]]:
    # G v C_m: the first-part shift and the colors of the wrapped cycle.
    p, e = g.n, g.q
    join_sum = p * e + p * (p * m + 1) // 2
    return m * e + m * (p * m + 1) // 2, _wrapped_cycle_colors(join_sum, e + p * m, m)


def _generic_join(
    g: Graph, f: EdgeLabeling, second: Graph, u_shift: int, new_colors: set[int],
    v_labels: dict[Edge, int] | None = None,
) -> ConstructionResult:
    # G v second: join edges take a magic (|V(G)|, |V(second)|)-rectangle
    # shifted by |E(G)|, second's own edges take ``v_labels``. Every sum of
    # G shifts by ``u_shift`` and second adds ``new_colors``.
    if not verify_local_antimagic(g, f).ok:
        raise ParameterError("the supplied labeling must be a proper local antimagic labeling")
    sums = f.sums
    u = _clash(f, u_shift, new_colors)
    if u is not None:
        raise ParameterError(f"vertex {u} carries the forbidden sum {sums[u]}")
    p, e, cols = g.n, g.q, second.n
    joined = join(g, second)
    rect = magic_rectangle(p, cols)
    joins = {
        (i, j): rect.entries[i - 1][j - 1] + e for i in range(1, p + 1) for j in range(1, cols + 1)
    }
    lab = _assemble(joined, p, f.labels, joins, v_labels)
    colors = {s + u_shift for s in sums.values()} | new_colors
    return _result(joined, lab, colors, len(set(sums.values())) + len(new_colors))


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
    small = magic_rectangle(m, n)
    v_labels = {
        (j, m + k): e + p * (m + n) + small.entries[j - 1][k - 1]
        for j in range(1, m + 1)
        for k in range(1, n + 1)
    }
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


# A NamedTuple rather than a frozen dataclass: the class is built at every
# import, and a dataclass takes about 1 ms longer to build.
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
    """

    name: str
    params: tuple[str, ...]
    build: Callable[..., ConstructionResult]
    q: Callable[..., int]
    axes: tuple[tuple[str, int, int], ...] = ()
    which_values: tuple[str, ...] = ()
    excluded: Callable[..., bool] | None = None
    seed: tuple[str, int] | None = None


# In FAMILIES.md order. Cited points (fans, wheels, double-apex joins) and
# the K_1 and K_3 reroutes lie outside the axes.
FAMILIES = (
    Family("path-join-null", ("m", "N"), label_path_join_null,
           q=lambda m, N: 2 * m - 1 + 2 * m * N, axes=(("m", 2, 1), ("N", 2, 1))),
    Family("p7-o3", (), label_p7_o3, q=lambda: 27),
    Family("path-join-cycle", ("m", "n"), label_path_join_cycle,
           q=lambda m, n: 4 * m * n + 2 * n - 2, axes=(("m", 1, 1), ("n", 2, 1))),
    Family("path-join-complete", ("m", "r"), label_path_join_complete,
           q=lambda m, r: 2 * m - 1 + 2 * m * r + r * (r - 1) // 2, axes=(("m", 2, 1), ("r", 2, 1))),
    Family("cycle-join-null", ("m", "n"), label_cycle_join_null,
           q=lambda m, n: 4 * m * n, axes=(("m", 2, 1), ("n", 2, 1))),
    Family("odd-cycle-join-even-null", ("n",), label_odd_cycle_join_even_null,
           q=lambda n: (2 * n + 1) ** 2, axes=(("n", 1, 1),)),
    Family("cycle-join-null-minus-edge", ("m", "n", "which"), label_cycle_join_null_minus_edge,
           q=lambda m, n, which: 4 * m * n - 1, axes=(("m", 2, 1), ("n", 2, 1)),
           which_values=("cycle-edge", "join-edge"),
           excluded=lambda seed, m, n, which: which == "join-edge" and (m, n) == JOIN_EDGE_COLLISION),
    Family("cycle-join-cycle", ("m", "n"), label_cycle_join_cycle,
           q=lambda m, n: 4 * m * n + 2 * n - 1, axes=(("m", 2, 1), ("n", 2, 1)),
           excluded=_cycle_cycle_collision),
    Family("cycle-join-cycle-minus-edge", ("m", "n", "which"), label_cycle_join_cycle_minus_edge,
           q=lambda m, n: 4 * m * n + 2 * n - 2, axes=(("m", 2, 1), ("n", 2, 1)),
           excluded=_cycle_cycle_collision),
    Family("cycle-join-complete", ("m", "r"), label_cycle_join_complete,
           q=lambda m, r: 2 * m * (r + 1) + r * (r - 1) // 2, axes=(("m", 2, 1), ("r", 5, 2))),
    Family("complete-join-odd-cycle", ("n", "m"), label_complete_join_odd_cycle,
           q=lambda n, m: (2 * n + 1) * (2 * m - 1) + n * (2 * n - 1), axes=(("n", 1, 1), ("m", 2, 1))),
    Family("generic-join-null", ("n",), label_generic_join_null,
           q=lambda n: 4 + 4 * n, axes=(("n", 2, 2),), seed=("cycle", 4),
           excluded=lambda seed, n: _clash(seed, *_null_colors(seed.graph, n)) is not None),
    Family("generic-join-complete-bipartite", ("m", "n"), label_generic_join_complete_bipartite,
           q=lambda m, n: 3 + 4 * (m + n) + m * n, axes=(("m", 2, 1), ("n", 2, 1)), seed=("path", 4),
           excluded=lambda seed, m, n: not _bipartite_parts_ok(m, n)
           or _clash(seed, *_bipartite_colors(seed.graph, m, n)) is not None),
    Family("generic-join-cycle", ("m",), label_generic_join_cycle,
           q=lambda m: 3 + 4 * m, axes=(("m", 3, 2),), seed=("complete", 3),
           excluded=lambda seed, m: _clash(seed, *_cycle_colors(seed.graph, m)) is not None),
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
    return g, EdgeLabeling(g, dict(zip(g.edges, range(1, g.q + 1))))


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


def build_construction(family: str, params: dict) -> ConstructionResult:
    """Run the named family generator on parameters ``check_params`` accepts.

    Generic families label their seed joined with the requested second part.
    """
    fam = check_params(family, params)
    args = [params[key] for key in fam.params if key in params]
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
