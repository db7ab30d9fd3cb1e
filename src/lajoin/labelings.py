"""Edge labelings, induced vertex sums, and the certificate machinery.

An edge labeling assigns the labels 1..q bijectively to the q edges of a
graph; the induced sum of a vertex is the total of its incident labels. A
labeling is locally antimagic when adjacent vertices always get distinct
sums, and the induced sums then color the graph.

Verification never raises on mathematical failure: a certificate records
what broke (bijection, adjacency) so callers can surface the reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Edge, Graph, ParameterError, edge, is_int_pair


class LabelingError(ValueError):
    """A labeling is structurally unusable (wrong domain or label set)."""


@dataclass(frozen=True)
class EdgeLabeling:
    """A map from the edges of ``graph`` onto [1..q], treated as immutable."""

    graph: Graph
    labels: dict[Edge, int]

    @property
    def q(self) -> int:
        return self.graph.q

    @cached_property
    def sums(self) -> dict[int, int]:
        return induced_sums(self.graph, self.labels)

    def edge_with_label(self, value: int) -> Edge:
        for e, lab in self.labels.items():
            if lab == value:
                return e
        raise LabelingError(f"no edge carries label {value}")

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "graph": self.graph.to_json(),
            "labels": [
                {"edge": list(e), "label": self.labels[e]} for e in sorted(self.labels)
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "EdgeLabeling":
        """Parse a v1 labeling; raises LabelingError on a malformed one.

        Labels and edge endpoints must be JSON integers: ``true`` and ``2.0``
        compare equal to 1 and 2 in Python and would otherwise pass the
        bijection check. A malformed ``graph`` is reported as a LabelingError
        too, and so is a labeling whose edges are not exactly the graph's.
        """
        if not isinstance(data, dict) or data.get("schema") != "v1":
            raise LabelingError('a labeling must be a JSON object with "schema": "v1"')
        try:
            g = Graph.from_json(data["graph"])
            if not isinstance(data["labels"], list):
                raise LabelingError('"labels" must be a list of {"edge", "label"} objects')
            labels = {}
            for item in data["labels"]:
                e, lab = item["edge"], item["label"]
                if not is_int_pair(e):
                    raise LabelingError(f"edge {e!r} is not a pair of integers")
                if type(lab) is not int:
                    raise LabelingError(f"label {lab!r} on edge {e} is not an integer")
                if edge(*e) in labels:
                    raise LabelingError(f"edge {e} is labeled twice")
                labels[edge(*e)] = lab
        except (KeyError, TypeError) as exc:
            raise LabelingError(f"malformed labeling JSON: {exc!r}") from None
        except ParameterError as exc:
            raise LabelingError(f"malformed labeling: {exc}") from None
        _check_edge_set(g, labels)
        return EdgeLabeling(g, labels)

    def __repr__(self):
        return f"EdgeLabeling(q={self.q}, graph={self.graph!r})"


@dataclass(frozen=True)
class LabelingCertificate:
    """Outcome of checking a labeling for the local antimagic property."""

    bijection_ok: bool
    proper: bool
    color_classes: dict[int, tuple[int, ...]]  # induced sum -> vertices
    color_count: int
    lower_bound: int | None = None
    verdict: str | None = None  # tight | above-lower-bound | below-lower-bound
    failure: tuple[int, int] | None = None  # adjacent pair with equal sums

    @property
    def ok(self) -> bool:
        return self.bijection_ok and self.proper

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "bijection_ok": self.bijection_ok,
            "proper": self.proper,
            "color_count": self.color_count,
            "color_classes": {str(s): list(vs) for s, vs in sorted(self.color_classes.items())},
            "lower_bound": self.lower_bound,
            "verdict": self.verdict,
            "failure": list(self.failure) if self.failure else None,
        }


def vertex_sums(labels: dict[Edge, int], n: int) -> dict[int, int]:
    """Sum of the incident labels at each of the vertices 1..n; no checks."""
    sums = {v: 0 for v in range(1, n + 1)}
    for (a, b), lab in labels.items():
        sums[a] += lab
        sums[b] += lab
    return sums


def _check_edge_set(g: Graph, labels: dict[Edge, int]) -> None:
    if labels.keys() != g._edge_set:
        raise LabelingError("labels must be defined on exactly the edge set")


def induced_sums(g: Graph, labels: dict[Edge, int] | EdgeLabeling) -> dict[int, int]:
    """Vertex sums of incident labels; rejects non-bijective labelings."""
    if isinstance(labels, EdgeLabeling):
        labels = labels.labels
    _check_edge_set(g, labels)
    if sorted(labels.values()) != list(range(1, g.q + 1)):
        raise LabelingError("labels must be a bijection onto 1..q")
    return vertex_sums(labels, g.n)


def verify_local_antimagic(
    g: Graph, f: EdgeLabeling, lower_bound: int | None = None
) -> LabelingCertificate:
    """Check bijection, adjacent-sum distinctness, and count the colors.

    Failures are reported in the certificate, never raised; the first
    offending adjacent pair is recorded when the labeling is not proper.
    """
    labels = f.labels
    if labels.keys() != g._edge_set:
        return LabelingCertificate(False, False, {}, 0, lower_bound, None, None)
    bijection_ok = sorted(labels.values()) == list(range(1, g.q + 1))
    sums = vertex_sums(labels, g.n)
    failure = None
    for a, b in g.edges:
        if sums[a] == sums[b]:
            failure = (a, b)
            break
    proper = failure is None
    classes: dict[int, list[int]] = {}
    for v in g.vertices:
        classes.setdefault(sums[v], []).append(v)
    color_classes = {s: tuple(vs) for s, vs in classes.items()}
    count = len(color_classes)
    verdict = None
    if lower_bound is not None:
        if count == lower_bound:
            verdict = "tight"
        elif count > lower_bound:
            verdict = "above-lower-bound"
        else:
            verdict = "below-lower-bound"
    return LabelingCertificate(bijection_ok, proper, color_classes, count, lower_bound, verdict, failure)


def complement_labeling(g: Graph, f: EdgeLabeling) -> EdgeLabeling:
    """The reflected labeling e -> q+1-f(e); sums become deg(v)(q+1)-f+(v)."""
    q = g.q
    return EdgeLabeling(g, {e: q + 1 - lab for e, lab in f.labels.items()})


def check_complement_valid(g: Graph, f: EdgeLabeling) -> tuple[bool, tuple[int, int] | None]:
    """Test the two vertex-pair conditions under which the complement stays proper.

    For every pair x, y: equal sums must force equal degrees, and unequal
    sums must avoid (q+1)(deg x - deg y) = f+(x) - f+(y). With the
    complement sum c(v) = deg(v)(q+1) - f+(v), both hold exactly when
    f+(x) = f+(y) <=> c(x) = c(y), so one pass compares each vertex with
    the first vertex of its sum class and of its complement class.
    Returns the flag plus a violating pair when one exists. On regular
    graphs this always holds for proper labelings.
    """
    sums = f.sums
    q = g.q
    first_with_sum: dict[int, int] = {}
    first_with_comp: dict[int, int] = {}
    for v in g.vertices:
        s, c = sums[v], g.degree(v) * (q + 1) - sums[v]
        x = first_with_sum.setdefault(s, v)
        y = first_with_comp.setdefault(c, v)
        if x != y:
            # v shares one class with an earlier vertex but not the other
            return False, (min(x, y), v)
    return True, None


def two_color_infeasible(q: int, part_sizes: tuple[int, int]) -> bool:
    """Arithmetic certificate that no labeling can induce only two colors.

    A two-color labeling of a size-q graph forces a bipartition with part
    sizes X > Y and colors x < y satisfying xX = yY = q(q+1)/2. True means
    those equations have no solution for the given part sizes, so at least
    three colors are needed for that bipartite shape.
    """
    x_count, y_count = part_sizes
    if not (x_count >= y_count >= 1):
        raise ParameterError(f"part sizes must satisfy X >= Y >= 1, got {part_sizes}")
    if x_count == y_count:
        return True
    half = q * (q + 1) // 2
    return half % x_count != 0 or half % y_count != 0


def check_deletion_certificate(g: Graph, f: EdgeLabeling, e: Edge) -> bool:
    """Certify that deleting ``e`` keeps the coloring size of ``f``.

    Requires f(e) = 1, color classes whose members share a degree, and the
    shifted class values c_k - d_k and c_k + d_k to each stay pairwise
    distinct. Under these conditions the relabeling f-1 of the deleted
    graph is proper with the same number of colors.
    """
    e = edge(*e)
    if f.labels.get(e) != 1:
        return False
    sums = f.sums
    classes: dict[int, list[int]] = {}
    for v in g.vertices:
        classes.setdefault(sums[v], []).append(v)
    degs = {}
    for s, vs in classes.items():
        class_degs = {g.degree(v) for v in vs}
        if len(class_degs) != 1:
            return False
        degs[s] = class_degs.pop()
    minus = {s - degs[s] for s in classes}
    plus = {s + degs[s] for s in classes}
    return len(minus) == len(classes) and len(plus) == len(classes)


def delete_labeled_edge(g: Graph, f: EdgeLabeling, e: Edge) -> tuple[Graph, EdgeLabeling]:
    """Remove the label-1 edge and shift every remaining label down by one.

    Every vertex sum drops by exactly its degree in the parent graph, so a
    labeling passing the deletion certificate stays proper with the same
    color count.
    """
    from .graphs import delete_edge

    e = edge(*e)
    if f.labels.get(e) != 1:
        raise ParameterError("only the edge carrying label 1 can be deleted with a relabel")
    h = delete_edge(g, e)
    labels = {x: lab - 1 for x, lab in f.labels.items() if x != e}
    return h, EdgeLabeling(h, labels)


@dataclass(frozen=True)
class LabelingMatrix:
    """The tabular view of a join labeling.

    One row per first-side vertex u_i, one column per second-side vertex
    v_j. Cells hold the join-edge labels (None where a join edge was
    deleted), ``u_side`` holds each row's sum of own-side edge labels
    (path/cycle/clique edges within the first part), and the margins are
    the induced sums. When the second side has own edges their per-column
    contributions appear in ``v_side`` as a footer.
    """

    u_names: tuple[str, ...]
    v_names: tuple[str, ...]
    grid: tuple[tuple[int | None, ...], ...]
    u_side: tuple[int, ...]
    u_margins: tuple[int, ...]
    v_side: tuple[int, ...] | None
    v_margins: tuple[int, ...]

    def validate(self) -> None:
        for i in range(len(self.u_names)):
            row_total = sum(x for x in self.grid[i] if x is not None) + self.u_side[i]
            if row_total != self.u_margins[i]:
                raise LabelingError(f"row {self.u_names[i]} margin mismatch")
        for j in range(len(self.v_names)):
            col_total = sum(row[j] for row in self.grid if row[j] is not None)
            if self.v_side is not None:
                col_total += self.v_side[j]
            if col_total != self.v_margins[j]:
                raise LabelingError(f"column {self.v_names[j]} margin mismatch")

    def _rows(self, own: str, total: str, blank: str) -> list[list[str]]:
        """Header, one row per u_i, then the footer(s), as text cells.

        ``own`` and ``total`` name the own-edge and induced-sum margins,
        and ``blank`` stands in a deleted join edge's cell.
        """
        rows = [[""] + list(self.v_names) + [own, total]]
        for i, name in enumerate(self.u_names):
            cells = [blank if x is None else str(x) for x in self.grid[i]]
            rows.append([name] + cells + [str(self.u_side[i]), str(self.u_margins[i])])
        if self.v_side is not None:
            rows.append([own] + [str(x) for x in self.v_side] + ["", ""])
        rows.append([total] + [str(x) for x in self.v_margins] + ["", ""])
        return rows

    def to_csv(self) -> str:
        rows = self._rows("from_own_edges", "induced_sum", "")
        return "\n".join(",".join(row) for row in rows) + "\n"

    def to_pretty(self) -> str:
        rows = self._rows("own", "sum", ".")
        widths = [max(len(cell) for cell in col) for col in zip(*rows)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows) + "\n"


def export_matrix(g: Graph, f: EdgeLabeling) -> LabelingMatrix:
    """Build the join-labeling matrix; margins reproduce the induced sums."""
    us, vs = g.u_vertices, g.v_vertices
    if not us or not vs:
        raise ParameterError("matrix export needs a two-sided join graph")
    sums = f.sums
    u_set, v_set = set(us), set(vs)
    grid = []
    for u in us:
        row = []
        for v in vs:
            e = edge(u, v)
            row.append(f.labels.get(e))
        grid.append(tuple(row))
    u_own = {u: 0 for u in us}
    v_own = {v: 0 for v in vs}
    has_v_edges = False
    for (a, b), lab in f.labels.items():
        if a in u_set and b in u_set:
            u_own[a] += lab
            u_own[b] += lab
        elif a in v_set and b in v_set:
            has_v_edges = True
            v_own[a] += lab
            v_own[b] += lab
    matrix = LabelingMatrix(
        u_names=tuple(g.role_of(u) for u in us),
        v_names=tuple(g.role_of(v) for v in vs),
        grid=tuple(grid),
        u_side=tuple(u_own[u] for u in us),
        u_margins=tuple(sums[u] for u in us),
        v_side=tuple(v_own[v] for v in vs) if has_v_edges else None,
        v_margins=tuple(sums[v] for v in vs),
    )
    matrix.validate()
    return matrix
