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
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrays import drop_column_and_rotate, magic_rectangle, nearly_magic_rectangle, siamese_magic_square
from .graphs import Edge, Graph, ParameterError, build_family, edge, join
from .labelings import (
    EdgeLabeling,
    check_complement_valid,
    check_deletion_certificate,
    complement_labeling,
    delete_labeled_edge,
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


@dataclass(frozen=True)
class ConstructionResult:
    """A generated labeling plus the color data its scheme claims."""

    family: str
    params: dict
    graph: Graph
    labeling: EdgeLabeling
    claimed_colors: frozenset[int]
    claimed_chi_la: int
    notes: tuple[str, ...] = ()


def _claimed(colors, count: int, family: str, params) -> frozenset[int]:
    # The closed forms of a scheme can collide at isolated parameter points
    # (the schemes here have exactly one such point each); refuse rather
    # than return a labeling that cannot meet its claim.
    colors = frozenset(colors)
    if len(colors) != count:
        raise ParameterError(
            f"{family} {params}: the scheme's color values collide at this point; "
            "no labeling with the claimed color count is available"
        )
    return colors


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


def _vertex_sums(labels: dict[Edge, int], n: int) -> dict[int, int]:
    sums = {v: 0 for v in range(1, n + 1)}
    for (a, b), lab in labels.items():
        sums[a] += lab
        sums[b] += lab
    return sums


def _assemble(
    graph: Graph,
    first_n: int,
    u_labels: dict[Edge, int],
    join_labels: dict[tuple[int, int], int],
    v_labels: dict[Edge, int] | None = None,
) -> EdgeLabeling:
    labels: dict[Edge, int] = {}
    for (a, b), lab in u_labels.items():
        labels[edge(a, b)] = lab
    for (i, j), lab in join_labels.items():
        labels[edge(i, first_n + j)] = lab
    if v_labels:
        for (a, b), lab in v_labels.items():
            labels[edge(first_n + a, first_n + b)] = lab
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
    at j = m) and (u_{2j}, u_{2j+1}) gets j.
    """
    if length < 3 or length % 2 == 0:
        raise ParameterError(f"needs an odd cycle length >= 3, got {length}")
    m = (length + 1) // 2
    g = build_family("cycle", length)
    labels: dict[Edge, int] = {}
    for j in range(1, m + 1):
        a = 2 * j - 1
        b = 2 * j if j < m else 1
        labels[edge(a, b)] = 2 * m - j
    for j in range(1, m):
        labels[edge(2 * j, 2 * j + 1)] = j
    return EdgeLabeling(g, labels)


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
    params = {"m": m, "N": null_order}
    if m == 1:
        g = join(build_family("path", 2), build_family("null", null_order))
        raise CitedCaseError(
            "P_2 v O_N joins are covered by cited work; use the exact solver", g, 3
        )
    if null_order == 1:
        g = join(build_family("path", 2 * m), build_family("null", 1))
        raise CitedCaseError(
            "fan joins P_2m v O_1 are covered by cited work; use the exact solver",
            g,
            4 if m == 2 else 3,
        )
    g = join(build_family("path", 2 * m), build_family("null", null_order))
    path = _path_labels(m)
    if null_order == 2:
        f = _assemble(g, 2 * m, path, _null2_join(m))
        colors = {9 * m - 2, 11 * m - 2, 8 * m * m - m}
    elif null_order % 2 == 0:
        n = null_order // 2
        f = _assemble(g, 2 * m, path, _even_null_join(m, n))
        colors = {
            m * (4 * n * n + n + 3) - n - 1,
            m * (4 * n * n + 7 * n + 1) - n - 1,
            m * (4 * m * n + 4 * m - 1),
        }
    else:
        n = (null_order + 1) // 2
        f = _assemble(g, 2 * m, path, _odd_null_join(m, n))
        colors = {
            m * (4 * n * n - 3 * n + 3) - n - 1,
            m * (4 * n * n + 3 * n - 1) - n,
            m * (4 * m * n + 2 * m - 1),
        }
    return ConstructionResult(
        "path-join-null", params, g, f, _claimed(colors, 3, "path-join-null", params), 3
    )


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
    return ConstructionResult("p7-o3", {}, g, f, frozenset({51, 65, 119}), 3)


def label_path_join_cycle(m: int, n: int) -> ConstructionResult:
    """Even path joined with an odd cycle: P_2m v C_{2n-1}, five colors."""
    if m < 1 or n < 2:
        raise ParameterError("need m >= 1 and n >= 2")
    params = {"m": m, "n": n}
    count = 2 * n - 1
    g = join(build_family("path", 2 * m), build_family("cycle", count))
    if m == 1:
        joins = {(1, j): j for j in range(1, count + 1)}
        joins.update({(2, j): 4 * n - 1 - j for j in range(1, count + 1)})
        f = _assemble(g, 2, {(1, 2): 4 * n - 1}, joins, _wrapped_cycle_labels(count, 4 * n - 1))
        # First-side sums by direct summation: the path edge contributes to
        # both endpoints, so they are 2n^2+3n-1 and 6n^2-n.
        colors = {
            2 * n * n + 3 * n - 1,
            6 * n * n - n,
            15 * n - 4,
            14 * n - 4,
            14 * n - 3,
        }
        return ConstructionResult(
            "path-join-cycle", params, g, f, _claimed(colors, 5, "path-join-cycle", params), 5,
            notes=("first-side sums recomputed by direct summation",),
        )
    f = _assemble(
        g,
        2 * m,
        _path_labels(m),
        _odd_null_join(m, n),
        _wrapped_cycle_labels(count, 4 * m * n - 1),
    )
    v_base = m * (4 * m * n + 2 * m + 8 * n - 1)
    colors = {
        m * (4 * n * n - 3 * n + 3) - n - 1,
        m * (4 * n * n + 3 * n - 1) - n,
        v_base + 3 * n - 3,
        v_base + 2 * n - 3,
        v_base + 2 * n - 2,
    }
    return ConstructionResult(
        "path-join-cycle", params, g, f, _claimed(colors, 5, "path-join-cycle", params), 5
    )


def label_path_join_complete(m: int, r: int) -> ConstructionResult:
    """Even path joined with a complete graph: P_2m v K_r, r + 2 colors."""
    if m < 1 or r < 1:
        raise ParameterError("need m >= 1 and r >= 1")
    params = {"m": m, "r": r}
    if m == 1:
        # P_2 v K_r is the complete graph on r + 2 vertices.
        g = join(build_family("path", 2), build_family("complete", r))
        f = EdgeLabeling(g, _complete_labels(g.n))
        sums = f.sums
        return ConstructionResult(
            "path-join-complete",
            params,
            g,
            f,
            _claimed(sums.values(), r + 2, "path-join-complete", params),
            r + 2,
        )
    if r == 1:
        g = join(build_family("path", 2 * m), build_family("null", 1))
        raise CitedCaseError(
            "fan joins P_2m v K_1 are covered by cited work; use the exact solver",
            g,
            4 if m == 2 else 3,
        )
    if r == 3:
        # K_3 is the 3-cycle; reuse the path-cycle scheme.
        routed = label_path_join_cycle(m, 2)
        return ConstructionResult(
            "path-join-complete",
            params,
            routed.graph,
            routed.labeling,
            routed.claimed_colors,
            routed.claimed_chi_la,
            notes=("K_3 handled as the 3-cycle",),
        )
    g = join(build_family("path", 2 * m), build_family("complete", r))
    if r == 2:
        joins: dict[tuple[int, int], int] = {}
        for i in range(1, 2 * m + 1):
            if i % 2 == 1:
                joins[(i, 1)] = 2 * m + (i - 1) // 2
                joins[(i, 2)] = 5 * m - (i + 1) // 2
            elif i != 2 * m:
                joins[(i, 1)] = 6 * m - (i + 2) // 2
                joins[(i, 2)] = 3 * m + (i - 2) // 2
        joins[(2 * m, 1)] = 4 * m - 1
        joins[(2 * m, 2)] = 6 * m - 1
        f = _assemble(g, 2 * m, _path_labels(m), joins, {(1, 2): 6 * m})
        colors = {9 * m - 2, 11 * m - 2, 8 * m * m + 3 * m, 8 * m * m + 7 * m}
        return ConstructionResult(
            "path-join-complete", params, g, f, _claimed(colors, 4, "path-join-complete", params), 4
        )
    h = _complete_labels(r)
    h_sums = _vertex_sums(h, r)
    if r % 2 == 0:
        n = r // 2
        q0 = 4 * m * n + 2 * m - 1
        joins = _even_null_join(m, n)
        u_colors = {
            m * (4 * n * n + n + 3) - n - 1,
            m * (4 * n * n + 7 * n + 1) - n - 1,
        }
        v_join_sum = m * (4 * m * n + 4 * m - 1)
    else:
        n = (r + 1) // 2
        q0 = 4 * m * n - 1
        joins = _odd_null_join(m, n)
        u_colors = {
            m * (4 * n * n - 3 * n + 3) - n - 1,
            m * (4 * n * n + 3 * n - 1) - n,
        }
        v_join_sum = m * (4 * m * n + 2 * m - 1)
    shifted = {e: lab + q0 for e, lab in h.items()}
    f = _assemble(g, 2 * m, _path_labels(m), joins, shifted)
    v_colors = {h_sums[v] + v_join_sum + (r - 1) * q0 for v in range(1, r + 1)}
    return ConstructionResult(
        "path-join-complete",
        params,
        g,
        f,
        _claimed(u_colors | v_colors, r + 2, "path-join-complete", params),
        r + 2,
    )


def _cycle_null_labeling(m: int, n: int) -> tuple[Graph, EdgeLabeling]:
    # C_2m v O_{2n-1} for m, n >= 2: path-null join labels shifted by one
    # plus the cycle labels that put 1 on (u_{2m-1}, u_{2m}).
    g = join(build_family("cycle", 2 * m), build_family("null", 2 * n - 1))
    joins = {k: lab + 1 for k, lab in _odd_null_join(m, n).items()}
    return g, _assemble(g, 2 * m, _even_cycle_labels(m), joins)


def _cycle_null_colors(m: int, n: int) -> dict[str, int]:
    return {
        "u_odd": m * (4 * n * n - 3 * n + 3) + n,
        "u_even": m * (4 * n * n + 3 * n - 1) + n + 1,
        "v": m * (4 * m * n + 2 * m + 1),
    }


def label_cycle_join_null(m: int, n: int) -> ConstructionResult:
    """Even cycle joined with an odd null graph: C_2m v O_{2n-1}, three colors."""
    if m < 2:
        raise ParameterError("need m >= 2")
    if n < 1:
        raise ParameterError("need n >= 1")
    params = {"m": m, "n": n}
    if n == 1:
        g = join(build_family("cycle", 2 * m), build_family("null", 1))
        raise CitedCaseError(
            "wheels C_2m v O_1 are covered by cited work; use the exact solver", g, 3
        )
    g, f = _cycle_null_labeling(m, n)
    return ConstructionResult(
        "cycle-join-null",
        params,
        g,
        f,
        _claimed(_cycle_null_colors(m, n).values(), 3, "cycle-join-null", params),
        3,
    )


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
    return ConstructionResult(
        "odd-cycle-join-even-null",
        {"n": n},
        g,
        f,
        _claimed(colors, 4, "odd-cycle-join-even-null", {"n": n}),
        4,
    )


def label_cycle_join_null_minus_edge(m: int, n: int, which: str) -> ConstructionResult:
    """C_2m v O_{2n-1} with one edge removed, still three colors.

    ``which`` picks the canonical deleted edge: "cycle-edge" removes the
    cycle edge carrying label 1; "join-edge" first reflects the labeling
    (valid by the complement conditions) so the join edge (u_2m, v_1)
    carries label 1, then removes it.
    """
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    params = {"m": m, "n": n, "which": which}
    g, f = _cycle_null_labeling(m, n)
    base = _cycle_null_colors(m, n)
    deg_u, deg_v = 2 * n + 1, 2 * m
    if which == "cycle-edge":
        e = edge(2 * m - 1, 2 * m)
        lab = f
    elif which == "join-edge":
        if (m, n) == (4, 3):
            # Unique exceptional point: after reflecting and deleting, the
            # even-cycle class and the null-side class land on the same sum
            # (4mn(n-m)+mn+2m^2+2m-n-1 = 0 exactly at m=4, n=3), so this
            # scheme cannot certify it.
            raise ParameterError(
                "join-edge deletion at m=4, n=3 merges two color classes; "
                "no certificate is available for this point"
            )
        ok, witness = check_complement_valid(g, f)
        if not ok:
            raise RuntimeError(f"complement conditions failed at {witness}")
        lab = complement_labeling(g, f)
        base = {
            "u_odd": deg_u * (4 * m * n + 1) - base["u_odd"],
            "u_even": deg_u * (4 * m * n + 1) - base["u_even"],
            "v": deg_v * (4 * m * n + 1) - base["v"],
        }
        e = edge(2 * m, 2 * m + 1)
    else:
        raise ParameterError(f"which must be cycle-edge or join-edge, got {which!r}")
    if not check_deletion_certificate(g, lab, e):
        raise RuntimeError(f"deletion certificate failed for {e}")
    h, f2 = delete_labeled_edge(g, lab, e)
    colors = {base["u_odd"] - deg_u, base["u_even"] - deg_u, base["v"] - deg_v}
    return ConstructionResult(
        "cycle-join-null-minus-edge",
        params,
        h,
        f2,
        _claimed(colors, 3, "cycle-join-null-minus-edge", params),
        3,
    )


def label_cycle_join_cycle(m: int, n: int) -> ConstructionResult:
    """Even cycle joined with an odd cycle: C_2m v C_{2n-1}, five colors."""
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    if (m, n) == (3, 6):
        # Unique collision point of the closed forms: the odd-cycle-side
        # even class equals the first-side odd class (both 393), so the
        # scheme does not produce five colors here.
        raise ParameterError(
            "the two-cycle join scheme merges two color classes at m=3, n=6; "
            "no five-color labeling is available from this construction"
        )
    params = {"m": m, "n": n}
    count = 2 * n - 1
    g = join(build_family("cycle", 2 * m), build_family("cycle", count))
    joins = {k: lab + 1 for k, lab in _odd_null_join(m, n).items()}
    f = _assemble(
        g, 2 * m, _even_cycle_labels(m), joins, _wrapped_cycle_labels(count, 4 * m * n)
    )
    base = _cycle_null_colors(m, n)
    v_base = m * (4 * m * n + 2 * m + 8 * n + 1)
    colors = {
        base["u_odd"],
        base["u_even"],
        v_base + 3 * n - 1,
        v_base + 2 * n - 1,
        v_base + 2 * n,
    }
    return ConstructionResult(
        "cycle-join-cycle", params, g, f, _claimed(colors, 5, "cycle-join-cycle", params), 5
    )


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
    g, f = base.graph, base.labeling
    e = edge(2 * m - 1, 2 * m)
    if not check_deletion_certificate(g, f, e):
        raise RuntimeError(f"deletion certificate failed for {e}")
    h, f2 = delete_labeled_edge(g, f, e)
    deg_u, deg_v = 2 * n + 1, 2 * m + 2
    parts = _cycle_null_colors(m, n)
    v_base = m * (4 * m * n + 2 * m + 8 * n + 1)
    colors = {
        parts["u_odd"] - deg_u,
        parts["u_even"] - deg_u,
        v_base + 3 * n - 1 - deg_v,
        v_base + 2 * n - 1 - deg_v,
        v_base + 2 * n - deg_v,
    }
    return ConstructionResult(
        "cycle-join-cycle-minus-edge",
        {"m": m, "n": n},
        h,
        f2,
        _claimed(colors, 5, "cycle-join-cycle-minus-edge", {"m": m, "n": n}),
        5,
    )


def label_cycle_join_complete(m: int, r: int) -> ConstructionResult:
    """Even cycle joined with an odd complete graph: C_2m v K_r, r + 2 colors."""
    if m < 2 or r < 1:
        raise ParameterError("need m >= 2 and r >= 1")
    if r % 2 == 0:
        raise ParameterError("only odd complete parts are supported here")
    params = {"m": m, "r": r}
    if r == 1:
        g = join(build_family("cycle", 2 * m), build_family("null", 1))
        raise CitedCaseError(
            "wheels C_2m v K_1 are covered by cited work; use the exact solver", g, 3
        )
    if r == 3:
        routed = label_cycle_join_cycle(m, 2)
        return ConstructionResult(
            "cycle-join-complete",
            params,
            routed.graph,
            routed.labeling,
            routed.claimed_colors,
            routed.claimed_chi_la,
            notes=("K_3 handled as the 3-cycle",),
        )
    n = (r + 1) // 2
    g = join(build_family("cycle", 2 * m), build_family("complete", r))
    joins = {k: lab + 1 for k, lab in _odd_null_join(m, n).items()}
    h = _complete_labels(r)
    h_sums = _vertex_sums(h, r)
    shifted = {e: lab + 4 * m * n for e, lab in h.items()}
    f = _assemble(g, 2 * m, _even_cycle_labels(m), joins, shifted)
    base = _cycle_null_colors(m, n)
    v_colors = {h_sums[v] + base["v"] + (r - 1) * 4 * m * n for v in range(1, r + 1)}
    colors = {base["u_odd"], base["u_even"]} | v_colors
    return ConstructionResult(
        "cycle-join-complete", params, g, f, _claimed(colors, r + 2, "cycle-join-complete", params), r + 2
    )


def label_complete_join_odd_cycle(n: int, m: int) -> ConstructionResult:
    """Even complete graph joined with an odd cycle: K_2n v C_{2m-1}, 2n+3 colors.

    Assembles the three-color odd-cycle labeling, a (2n, 2m-1) nearly magic
    rectangle for the join edges, and a shifted complete-graph labeling
    whose vertices are renamed so the sums interleave odd positions below
    even ones.
    """
    if n < 1 or m < 2:
        raise ParameterError("need n >= 1 and m >= 2")
    params = {"n": n, "m": m}
    count = 2 * m - 1
    g = join(build_family("complete", 2 * n), build_family("cycle", count))
    cycle = three_color_odd_cycle(count)
    v_labels = dict(cycle.labels)
    rect = nearly_magic_rectangle(2 * n, count)
    joins = {(i + 1, j + 1): rect.entries[i][j] + count for i in range(2 * n) for j in range(count)}
    if n == 1:
        k_labels = {(1, 2): 1}
    else:
        k_labels = _complete_labels(2 * n)
    k_sums = _vertex_sums(k_labels, 2 * n)
    # Rename so odd positions carry the n smallest sums in order.
    ranked = sorted(range(1, 2 * n + 1), key=lambda v: (k_sums[v], v))
    positions = list(range(1, 2 * n + 1, 2)) + list(range(2, 2 * n + 1, 2))
    renamed = {old: positions[k] for k, old in enumerate(ranked)}
    shift = (2 * n + 1) * count
    u_labels = {
        edge(renamed[a], renamed[b]): lab + shift for (a, b), lab in k_labels.items()
    }
    f = _assemble(g, 2 * n, u_labels, joins, v_labels)
    sorted_sums = sorted(k_sums.values())
    join_part = count * count + n * count * count
    k_shift_part = (2 * n - 1) * shift
    u_colors = set()
    for i in range(1, n + 1):
        u_colors.add(sorted_sums[i - 1] + k_shift_part + join_part + m - 1)
        u_colors.add(sorted_sums[n + i - 1] + k_shift_part + join_part + m)
    tail = 2 * n * count + 2 * n * n * count + n
    v_colors = {3 * m - 1 + tail, 2 * m - 1 + tail, 2 * m + tail}
    return ConstructionResult(
        "complete-join-odd-cycle",
        params,
        g,
        f,
        _claimed(u_colors | v_colors, 2 * n + 3, "complete-join-odd-cycle", params),
        2 * n + 3,
    )


# ---------------------------------------------------------------------------
# generic join schemes (caller supplies the already-labeled first part)


def _require_proper(g: Graph, f: EdgeLabeling) -> dict[int, int]:
    from .labelings import verify_local_antimagic

    cert = verify_local_antimagic(g, f)
    if not cert.ok:
        raise ParameterError("the supplied labeling must be a proper local antimagic labeling")
    return f.sums


def label_generic_join_null(g: Graph, f: EdgeLabeling, n: int) -> ConstructionResult:
    """Join any labeled graph with a null part via a magic rectangle.

    Join edges carry a magic (|V(G)|, n)-rectangle shifted by |E(G)|, so
    every added vertex gets one shared new color while the original colors
    shift uniformly. Requires order >= 3, n >= 2, equal parities, and that
    no original sum equals the forbidden crossing value.
    """
    p, e = g.n, g.q
    if p < 3 or n < 2:
        raise ParameterError("need |V(G)| >= 3 and n >= 2")
    if p % 2 != n % 2:
        raise ParameterError("the part orders must share parity")
    sums = _require_proper(g, f)
    forbidden = (p - n) * (2 * e + p * n + 1) // 2
    for u in g.vertices:
        if sums[u] == forbidden:
            raise ParameterError(f"vertex {u} carries the forbidden sum {forbidden}")
    joined = join(g, build_family("null", n))
    rect = magic_rectangle(p, n)
    joins = {(i, j): rect.entries[i - 1][j - 1] + e for i in range(1, p + 1) for j in range(1, n + 1)}
    lab = _assemble(joined, p, dict(f.labels), joins)
    u_shift = n * e + n * (p * n + 1) // 2
    colors = {s + u_shift for s in sums.values()} | {p * e + p * (p * n + 1) // 2}
    t = len(set(sums.values()))
    return ConstructionResult(
        "generic-join-null",
        {"n": n},
        joined,
        lab,
        _claimed(colors, t + 1, "generic-join-null", {"n": n}),
        t + 1,
    )


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
    if m == n or m < 2 or n < 2 or m % 2 != n % 2:
        raise ParameterError("need m != n, both >= 2, of equal parity")
    sums = _require_proper(g, f)
    t_rect = p * (m + n) + 1
    x_color = p * e + p * t_rect // 2 + n * e + n * p * (m + n) + n * (m * n + 1) // 2
    y_color = p * e + p * t_rect // 2 + m * e + m * p * (m + n) + m * (m * n + 1) // 2
    u_shift = (m + n) * e + (m + n) * t_rect // 2
    for u in g.vertices:
        if sums[u] + u_shift in (x_color, y_color):
            raise ParameterError(f"vertex {u} carries a forbidden sum")
    joined = join(g, build_family("complete-bipartite", m, n))
    big = magic_rectangle(p, m + n)
    small = magic_rectangle(m, n)
    joins = {
        (i, j): big.entries[i - 1][j - 1] + e for i in range(1, p + 1) for j in range(1, m + n + 1)
    }
    v_labels = {
        (j, m + k): e + p * (m + n) + small.entries[j - 1][k - 1]
        for j in range(1, m + 1)
        for k in range(1, n + 1)
    }
    lab = _assemble(joined, p, dict(f.labels), joins, v_labels)
    colors = {s + u_shift for s in sums.values()} | {x_color, y_color}
    t = len(set(sums.values()))
    return ConstructionResult(
        "generic-join-complete-bipartite",
        {"m": m, "n": n},
        joined,
        lab,
        _claimed(colors, t + 2, "generic-join-complete-bipartite", {"m": m, "n": n}),
        t + 2,
    )


def label_generic_join_cycle(g: Graph, f: EdgeLabeling, m: int) -> ConstructionResult:
    """Join a labeled odd-order graph with an odd cycle; adds three colors.

    Join edges take a magic (p, m)-rectangle shifted by |E(G)|; the cycle
    edges take the wrapped top range. The three new colors are the cycle
    base plus m, m+1, and (3m+1)/2.
    """
    p, e = g.n, g.q
    if p < 3 or p % 2 == 0:
        raise ParameterError("need an odd first-part order >= 3")
    if m < 3 or m % 2 == 0:
        raise ParameterError("the cycle order must be odd and >= 3 for this scheme")
    sums = _require_proper(g, f)
    base = p * e + p * (p * m + 1) // 2 + 2 * (e + p * m)
    new_colors = {base + m, base + m + 1, base + (3 * m + 1) // 2}
    u_shift = m * e + m * (p * m + 1) // 2
    for u in g.vertices:
        if sums[u] + u_shift in new_colors:
            raise ParameterError(f"vertex {u} carries a forbidden sum")
    joined = join(g, build_family("cycle", m))
    rect = magic_rectangle(p, m)
    joins = {(i, j): rect.entries[i - 1][j - 1] + e for i in range(1, p + 1) for j in range(1, m + 1)}
    lab = _assemble(joined, p, dict(f.labels), joins, _wrapped_cycle_labels(m, e + p * m))
    colors = {s + u_shift for s in sums.values()} | new_colors
    t = len(set(sums.values()))
    return ConstructionResult(
        "generic-join-cycle",
        {"m": m},
        joined,
        lab,
        _claimed(colors, t + 3, "generic-join-cycle", {"m": m}),
        t + 3,
    )


# ---------------------------------------------------------------------------
# dispatch table and parameter sweeps


def _generic_exclusion_ok(family: str, g: Graph, f: EdgeLabeling, params: dict) -> bool:
    # The generic schemes hypothesize that no first-part sum hits the new
    # colors; points violating that are out of range, not failures.
    p, e = g.n, g.q
    sums = set(f.sums.values())
    if family == "generic-join-null":
        n = params["n"]
        return (p - n) * (2 * e + p * n + 1) // 2 not in sums
    if family == "generic-join-complete-bipartite":
        m, n = params["m"], params["n"]
        t_rect = p * (m + n) + 1
        x_color = p * e + p * t_rect // 2 + n * e + n * p * (m + n) + n * (m * n + 1) // 2
        y_color = p * e + p * t_rect // 2 + m * e + m * p * (m + n) + m * (m * n + 1) // 2
        u_shift = (m + n) * e + (m + n) * t_rect // 2
        return all(s + u_shift not in (x_color, y_color) for s in sums)
    if family == "generic-join-cycle":
        m = params["m"]
        base = p * e + p * (p * m + 1) // 2 + 2 * (e + p * m)
        new = {base + m, base + m + 1, base + (3 * m + 1) // 2}
        u_shift = m * e + m * (p * m + 1) // 2
        return all(s + u_shift not in new for s in sums)
    return True


def generic_seed(family: str) -> tuple[Graph, EdgeLabeling]:
    """Default labeled first parts used by the CLI and sweeps for generic families."""
    if family == "generic-join-null":
        g = build_family("cycle", 4)
        return g, EdgeLabeling(g, {(1, 2): 1, (2, 3): 2, (3, 4): 3, (1, 4): 4})
    if family == "generic-join-complete-bipartite":
        g = build_family("path", 4)
        return g, EdgeLabeling(g, {(1, 2): 1, (2, 3): 2, (3, 4): 3})
    if family == "generic-join-cycle":
        g = build_family("complete", 3)
        return g, EdgeLabeling(g, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
    raise ParameterError(f"no generic seed for {family!r}")


CONCRETE_FAMILIES = (
    "path-join-null",
    "p7-o3",
    "path-join-cycle",
    "path-join-complete",
    "cycle-join-null",
    "odd-cycle-join-even-null",
    "cycle-join-null-minus-edge",
    "cycle-join-cycle",
    "cycle-join-cycle-minus-edge",
    "cycle-join-complete",
    "complete-join-odd-cycle",
)

GENERIC_FAMILIES = (
    "generic-join-null",
    "generic-join-complete-bipartite",
    "generic-join-cycle",
)

ALL_FAMILIES = CONCRETE_FAMILIES + GENERIC_FAMILIES


class _Params(dict):
    """A family's keyword parameters; a missing one is a ParameterError."""

    def __init__(self, family: str, params: dict):
        super().__init__(params)
        self.family = family

    def __missing__(self, key):
        raise ParameterError(f"{self.family} needs parameter {key}")


def build_construction(
    family: str, params: dict, base: EdgeLabeling | None = None
) -> ConstructionResult:
    """Run the named family generator with keyword parameters.

    Generic families label ``base`` (or the built-in seed) joined with the
    requested second part.
    """
    p = _Params(family, params)
    if family == "path-join-null":
        return label_path_join_null(p["m"], p["N"])
    if family == "p7-o3":
        return label_p7_o3()
    if family == "path-join-cycle":
        return label_path_join_cycle(p["m"], p["n"])
    if family == "path-join-complete":
        return label_path_join_complete(p["m"], p["r"])
    if family == "cycle-join-null":
        return label_cycle_join_null(p["m"], p["n"])
    if family == "odd-cycle-join-even-null":
        return label_odd_cycle_join_even_null(p["n"])
    if family == "cycle-join-null-minus-edge":
        return label_cycle_join_null_minus_edge(p["m"], p["n"], p.get("which", "cycle-edge"))
    if family == "cycle-join-cycle":
        return label_cycle_join_cycle(p["m"], p["n"])
    if family == "cycle-join-cycle-minus-edge":
        return label_cycle_join_cycle_minus_edge(p["m"], p["n"], p.get("which", "cycle-edge"))
    if family == "cycle-join-complete":
        return label_cycle_join_complete(p["m"], p["r"])
    if family == "complete-join-odd-cycle":
        return label_complete_join_odd_cycle(p["n"], p["m"])
    if family in GENERIC_FAMILIES:
        if base is None:
            g, f = generic_seed(family)
        else:
            g, f = base.graph, base
        if family == "generic-join-null":
            return label_generic_join_null(g, f, p["n"])
        if family == "generic-join-complete-bipartite":
            return label_generic_join_complete_bipartite(g, f, p["m"], p["n"])
        return label_generic_join_cycle(g, f, p["m"])
    raise ParameterError(f"unknown family {family!r}")


def sweep_points(family: str, max_edges: int = 400) -> list[dict]:
    """All formula-backed parameter points of a family within the edge budget.

    Cited cases (fans, wheels, double-apex joins) are excluded; they have
    no construction here and are handled by the solver route.
    """
    pts: list[dict] = []
    if family == "path-join-null":
        for m in range(2, max_edges):
            if 6 * m - 1 > max_edges:
                break
            for nn in range(2, max_edges):
                if 2 * m - 1 + 2 * m * nn > max_edges:
                    break
                pts.append({"m": m, "N": nn})
    elif family == "p7-o3":
        pts.append({})
    elif family == "path-join-cycle":
        for n in range(2, max_edges):
            if 6 * n - 2 <= max_edges:
                pts.append({"m": 1, "n": n})
        for m in range(2, max_edges):
            if 4 * m * 2 + 2 * 2 - 2 > max_edges:
                break
            for n in range(2, max_edges):
                if 4 * m * n + 2 * n - 2 > max_edges:
                    break
                pts.append({"m": m, "n": n})
    elif family == "path-join-complete":
        for m in range(2, max_edges):
            if 6 * m > max_edges:
                break
            for r in range(2, max_edges):
                if 2 * m - 1 + 2 * m * r + r * (r - 1) // 2 > max_edges:
                    break
                pts.append({"m": m, "r": r})
    elif family == "cycle-join-null":
        for m in range(2, max_edges):
            if 8 * m > max_edges:
                break
            for n in range(2, max_edges):
                if 4 * m * n > max_edges:
                    break
                pts.append({"m": m, "n": n})
    elif family == "odd-cycle-join-even-null":
        n = 1
        while (2 * n + 1) ** 2 <= max_edges:
            pts.append({"n": n})
            n += 1
    elif family == "cycle-join-null-minus-edge":
        for which in ("cycle-edge", "join-edge"):
            for m in range(2, max_edges):
                if 8 * m - 1 > max_edges:
                    break
                for n in range(2, max_edges):
                    if 4 * m * n - 1 > max_edges:
                        break
                    if which == "join-edge" and (m, n) == (4, 3):
                        continue  # the one point the deletion scheme cannot certify
                    pts.append({"m": m, "n": n, "which": which})
    elif family in ("cycle-join-cycle", "cycle-join-cycle-minus-edge"):
        extra = 0 if family == "cycle-join-cycle" else -1
        for m in range(2, max_edges):
            if 8 * m + 3 + extra > max_edges:
                break
            for n in range(2, max_edges):
                if 4 * m * n + 2 * n - 1 + extra > max_edges:
                    break
                if (m, n) == (3, 6):
                    continue  # the one point where the scheme's colors collide
                pts.append({"m": m, "n": n})
    elif family == "cycle-join-complete":
        for m in range(2, max_edges):
            if 2 * m * 6 + 10 > max_edges:
                break
            for r in range(5, max_edges, 2):
                n = (r + 1) // 2
                if 4 * m * n + (n - 1) * r > max_edges:
                    break
                pts.append({"m": m, "r": r})
    elif family == "complete-join-odd-cycle":
        for n in range(1, max_edges):
            if (2 * n + 1) * 3 + n * (2 * n - 1) > max_edges:
                break
            for m in range(2, max_edges):
                if (2 * n + 1) * (2 * m - 1) + n * (2 * n - 1) > max_edges:
                    break
                pts.append({"n": n, "m": m})
    elif family == "generic-join-null":
        g, f = generic_seed(family)
        for n in range(2, max_edges, 2):
            if g.q + g.n * n > max_edges:
                break
            if _generic_exclusion_ok(family, g, f, {"n": n}):
                pts.append({"n": n})
    elif family == "generic-join-complete-bipartite":
        g, f = generic_seed(family)
        for m in range(2, max_edges):
            if g.q + g.n * (m + 2) + 2 * m > max_edges and m > 2:
                break
            for n in range(2, max_edges):
                if m == n or m % 2 != n % 2:
                    continue
                if g.q + g.n * (m + n) + m * n > max_edges:
                    break
                if _generic_exclusion_ok(family, g, f, {"m": m, "n": n}):
                    pts.append({"m": m, "n": n})
    elif family == "generic-join-cycle":
        g, f = generic_seed(family)
        for m in range(3, max_edges, 2):
            if g.q + g.n * m + m > max_edges:
                break
            if _generic_exclusion_ok(family, g, f, {"m": m}):
                pts.append({"m": m})
    else:
        raise ParameterError(f"unknown family {family!r}")
    return pts
