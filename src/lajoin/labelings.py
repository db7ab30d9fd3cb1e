"""Edge labelings, induced vertex sums, and the certificate machinery.

An edge labeling assigns the labels 1..q bijectively to the q edges of a
graph; the induced sum of a vertex is the total of its incident labels. A
labeling is locally antimagic when adjacent vertices always get distinct
sums, and the induced sums then color the graph.

Verification never raises on mathematical failure: a certificate records
what broke (bijection, adjacency) so callers can surface the reason.

Each certificate wraps a core that takes f's sums on the graph
(``check_complement_sums``, ``check_deletion_sums``), and
``complement_sums`` derives the reflected labeling's sums from f's. So a
caller that already holds the sums, such as a minus-edge construction or
a generic join reading its seed's sums from the verifier's color classes,
runs the vertex-sum kernel once.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple

from .graphs import Edge, Graph, ParameterError, _delete_edge_at, _refuse_assignment, edge


class LabelingError(ValueError):
    """A labeling is structurally unusable (wrong domain or label set)."""


class _LabelingFields(NamedTuple):
    graph: Graph
    values: tuple[int, ...]


class EdgeLabeling(_LabelingFields):
    """A labeling of the edges of ``graph``, treated as immutable.

    ``values[i]`` is the label of ``graph.edges[i]``, so ``values`` is always
    a tuple of q labels; the verifier checks that they are a bijection onto
    [1..q]. ``EdgeLabeling(graph, labels)`` aligns a mapping from edges to
    labels with one lookup per edge and raises LabelingError unless its
    keys are exactly the graph's edges, as ``from_values``, which takes the
    labels in edge order, does for a count other than q. ``labels`` is the
    same labeling as a dict, built on first read.
    """

    def __new__(cls, graph: Graph, labels: Mapping[Edge, int]):
        if len(labels) != graph.q:
            raise LabelingError(_OFF_EDGES)
        try:
            values = tuple(map(labels.__getitem__, graph.edges))
        except KeyError:
            raise LabelingError(_OFF_EDGES) from None
        return tuple.__new__(cls, (graph, values))

    @classmethod
    def from_values(cls, graph: Graph, values) -> "EdgeLabeling":
        """The labeling whose ``values[i]`` labels ``graph.edges[i]``."""
        values = tuple(values)
        if len(values) != graph.q:
            raise LabelingError(f"{len(values)} labels for the {graph.q} edges")
        return tuple.__new__(cls, (graph, values))

    __setattr__ = _refuse_assignment

    def __getnewargs__(self):
        # a copy or unpickling calls ``EdgeLabeling(graph, labels)``
        return self.graph, self.labels

    @cached_property
    def labels(self) -> dict[Edge, int]:
        """Edge -> label, in the graph's edge order."""
        return dict(zip(self.graph.edges, self.values))

    @property
    def q(self) -> int:
        return self.graph.q

    @cached_property
    def sums(self) -> dict[int, int]:
        return induced_sums(self.graph, self)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "graph": self.graph.to_json(),
            "labels": [
                {"edge": list(e), "label": lab} for e, lab in sorted(zip(self.graph.edges, self.values))
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "EdgeLabeling":
        """Parse a v1 labeling; raises LabelingError on a malformed one.

        Labels and edge endpoints must be JSON integers: ``true`` and ``2.0``
        compare equal to 1 and 2 in Python and would otherwise pass the
        bijection check. A malformed ``graph`` is reported as a LabelingError
        too, and so is a labeling whose edges are not exactly the graph's.

        The label items are checked in one pass, each inline (a list of two
        ints, an int label, no self-loop, not a repeat once reversed pairs
        are ordered), and the first bad item is named.
        """
        if not isinstance(data, dict) or data.get("schema") != "v1":
            raise LabelingError('a labeling must be a JSON object with "schema": "v1"')
        try:
            g = Graph.from_json(data["graph"])
            items = data["labels"]
            if not isinstance(items, list):
                raise LabelingError('"labels" must be a list of {"edge", "label"} objects')
            labels = {}
            for item in items:
                e, lab = item["edge"], item["label"]
                if not isinstance(e, list) or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
                    raise LabelingError(f"edge {e!r} is not a pair of integers")
                if type(lab) is not int:
                    raise LabelingError(f"label {lab!r} on edge {e} is not an integer")
                a, b = e
                if a == b:
                    raise LabelingError(f"malformed labeling: self-loop at vertex {a}")
                key = (a, b) if a < b else (b, a)  # errors name ``e`` as given
                if key in labels:
                    raise LabelingError(f"edge {e} is labeled twice")
                labels[key] = lab
        except (KeyError, TypeError) as exc:
            raise LabelingError(f"malformed labeling JSON: {exc!r}") from None
        except ParameterError as exc:
            raise LabelingError(f"malformed labeling: {exc}") from None
        return EdgeLabeling(g, labels)

    def __repr__(self):
        return f"EdgeLabeling(q={self.q}, graph={self.graph!r})"


class LabelingCertificate(NamedTuple):
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


def _sum_list(pairs, n: int) -> list[int]:
    """The vertex-sum kernel over (edge, label) pairs: entry v is the total
    of v's incident labels. Only ``induced_sums`` (and so
    ``EdgeLabeling.sums`` and both certificates), ``verify_local_antimagic``
    and ``export_matrix`` run it.

    Entry 0 is unused. Endpoints are not checked: the caller ensures they
    lie in 1..n, since a list would take 0 and wrap a negative one.
    """
    sums = [0] * (n + 1)
    for (a, b), lab in pairs:
        sums[a] += lab
        sums[b] += lab
    return sums


def _is_bijection(values, q: int) -> bool:
    """Whether the q labels ``values`` are 1..q, each once.

    Equal values count alike: ``True`` is 1 and ``2.0`` is 2, as in a sort.
    """
    return set(values).issuperset(range(1, q + 1))


_OFF_EDGES = "labels must be defined on exactly the edge set"


def _values_on(g: Graph, f: EdgeLabeling) -> tuple | None:
    """f's labels in g's edge order; None unless f's graph has g's edge tuple
    (the same object, or an equal tuple)."""
    edges = f.graph.edges
    return f.values if edges is g.edges or edges == g.edges else None


def _aligned(g: Graph, f: EdgeLabeling) -> tuple:
    values = _values_on(g, f)
    if values is None:
        raise LabelingError(_OFF_EDGES)
    return values


def _bijective_values(g: Graph, f: EdgeLabeling) -> tuple:
    """f's labels in g's edge order; LabelingError unless they lie on
    exactly g's edges and are a bijection onto 1..q."""
    values = _aligned(g, f)
    if not _is_bijection(values, g.q):
        raise LabelingError("labels must be a bijection onto 1..q")
    return values


def induced_sums(g: Graph, labels: Mapping[Edge, int] | EdgeLabeling) -> dict[int, int]:
    """Vertex sums of incident labels; rejects non-bijective labelings."""
    if not isinstance(labels, EdgeLabeling):
        labels = EdgeLabeling(g, labels)
    values = _bijective_values(g, labels)
    return dict(enumerate(_sum_list(zip(g.edges, values), g.n)[1:], 1))


def verify_local_antimagic(
    g: Graph, f: EdgeLabeling, lower_bound: int | None = None
) -> LabelingCertificate:
    """Check bijection, adjacent-sum distinctness, and count the colors.

    Failures are reported in the certificate, never raised; the first
    offending adjacent pair is recorded when the labeling is not proper. A
    labeling whose graph lacks g's edge tuple gets a failed certificate.
    """
    values = _values_on(g, f)
    if values is None:
        return LabelingCertificate(False, False, {}, 0, lower_bound, None, None)
    bijection_ok = _is_bijection(values, g.q)
    sums = _sum_list(zip(g.edges, values), g.n)
    failure = _equal_sum_edge(g, sums)
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


def _equal_sum_edge(g: Graph, sums) -> Edge | None:
    """The first edge of g, in edge order, whose ends have equal sums.

    ``sums[v]`` is v's sum, entry 0 unused. The own edges are scanned one
    by one. A join block (see ``Graph._join_block``) joins every vertex of
    1..p to every one of p+1..n, so one of its edges has equal ends exactly
    when the two sides share a sum; only then are its edges walked, to name
    the first.
    """
    block = g._join_block
    p, own = block or (0, g.q)
    for a, b in g.edges[:own]:
        if sums[a] == sums[b]:
            return a, b
    if block and not set(sums[1:p + 1]).isdisjoint(sums[p + 1:]):
        for a, b in g.edges[own:]:
            if sums[a] == sums[b]:
                return a, b
    return None


def complement_labeling(g: Graph, f: EdgeLabeling) -> EdgeLabeling:
    """The reflected labeling e -> q+1-f(e); sums become deg(v)(q+1)-f+(v)."""
    q = g.q
    return EdgeLabeling.from_values(g, [q + 1 - lab for lab in _aligned(g, f)])


def complement_sums(g: Graph, sums: Mapping[int, int]) -> dict[int, int]:
    """The sums of ``complement_labeling(g, f)`` from f's sums on g: deg(v)(q+1) - f+(v)."""
    q1 = g.q + 1
    return {v: d * q1 - sums[v] for v, d in g._degrees.items()}


def check_complement_valid(g: Graph, f: EdgeLabeling) -> tuple[bool, tuple[int, int] | None]:
    """Test the two vertex-pair conditions under which the complement stays proper.

    For every pair x, y: equal sums must force equal degrees, and unequal
    sums must avoid (q+1)(deg x - deg y) = f+(x) - f+(y). With the
    complement sum c(v) = deg(v)(q+1) - f+(v), both hold exactly when
    f+(x) = f+(y) <=> c(x) = c(y), so ``check_complement_sums`` compares
    each vertex with the first vertex of its sum class and of its
    complement class. Returns the flag plus a violating pair when one
    exists. On regular graphs this always holds for proper labelings.
    Raises LabelingError unless f labels exactly g's edges with 1..q.
    """
    sums = induced_sums(g, f)
    return check_complement_sums(sums, complement_sums(g, sums))


def check_complement_sums(sums: Mapping, comp: Mapping) -> tuple[bool, tuple[int, int] | None]:
    """``check_complement_valid`` on f's sums on g, in vertex order, and their ``complement_sums``."""
    first_with_sum: dict[int, int] = {}
    first_with_comp: dict[int, int] = {}
    for v, s in sums.items():
        x = first_with_sum.setdefault(s, v)
        y = first_with_comp.setdefault(comp[v], v)
        if x != y:
            # v shares one class with an earlier vertex but not the other
            return False, (min(x, y), v)
    return True, None


def check_deletion_certificate(g: Graph, f: EdgeLabeling, e: Edge) -> bool:
    """Certify that deleting ``e`` keeps the coloring size of ``f``.

    Requires f(e) = 1, f proper, color classes whose members share a degree,
    and the shifted class values c_k - d_k and c_k + d_k to each stay
    pairwise distinct. Under these conditions the relabeling f-1 of the
    deleted graph, which lowers each sum by its degree in g, is proper with
    the same number of colors.
    """
    if _label_one_index(g, _values_on(g, f), e) is None:
        return False
    return check_deletion_sums(g, induced_sums(g, f))  # on g's vertices: f.graph may have fewer


def check_deletion_sums(g: Graph, sums: Mapping[int, int]) -> bool:
    """``check_deletion_certificate`` after its f(e) = 1 test, on f's sums on g."""
    table = [0, *map(sums.__getitem__, g.vertices)]
    if _equal_sum_edge(g, table) is not None:
        return False
    # one (sum, degree) pair per class, unless a class holds two degrees
    classes = set(zip(table[1:], g._degrees.values()))
    if len(dict(classes)) != len(classes):
        return False
    minus = {s - d for s, d in classes}
    plus = {s + d for s, d in classes}
    return len(minus) == len(plus) == len(classes)


def delete_labeled_edge(g: Graph, f: EdgeLabeling, e: Edge) -> tuple[Graph, EdgeLabeling]:
    """Remove the label-1 edge and shift every remaining label down by one.

    Every vertex sum drops by exactly its degree in the parent graph, so a
    labeling passing the deletion certificate stays proper with the same
    color count.
    """
    values = _values_on(g, f)
    i = _label_one_index(g, values, e)
    if i is None:
        raise ParameterError("only the edge carrying label 1 can be deleted with a relabel")
    h = _delete_edge_at(g, i)
    return h, EdgeLabeling.from_values(h, [lab - 1 for lab in values[:i] + values[i + 1:]])


def _label_one_index(g: Graph, values: tuple | None, e: Edge) -> int | None:
    """Where edge ``e`` sits in ``g.edges`` when ``values`` gives it label 1, else None."""
    e = edge(*e)
    if type(e[0]) is not int or type(e[1]) is not int:
        return None  # 1.0 would find the edge at 1, and True too
    try:
        i = g.edges.index(e)
    except ValueError:
        return None
    return i if values is not None and values[i] == 1 else None


class LabelingMatrix(NamedTuple):
    """The tabular view of a join labeling.

    One row per first-side vertex u_i, one column per second-side vertex
    v_j. Cells hold the join-edge labels (None where a join edge was
    deleted), ``u_side`` holds each row's sum of own-side edge labels
    (path/cycle/clique edges within the first part), and the margins are
    the induced sums: a row's cells plus its ``u_side`` total its margin.
    When the second side has own edges their per-column contributions
    appear in ``v_side`` as a footer, and each column adds up the same way.
    """

    u_names: tuple[str, ...]
    v_names: tuple[str, ...]
    grid: tuple[tuple[int | None, ...], ...]
    u_side: tuple[int, ...]
    u_margins: tuple[int, ...]
    v_side: tuple[int, ...] | None
    v_margins: tuple[int, ...]

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
    """Build the join-labeling matrix; margins reproduce the induced sums.

    Every vertex needs a ``u`` or ``v`` role (ParameterError otherwise), so
    that each edge lands in a cell or an own-side sum of the margins."""
    us, vs = g.u_vertices, g.v_vertices
    if not us or not vs:
        raise ParameterError("matrix export needs a two-sided join graph")
    if len(us) + len(vs) != g.n:
        raise ParameterError("matrix export needs a u or v role on every vertex")
    values = _bijective_values(g, f)
    sums = _sum_list(zip(g.edges, values), g.n)
    row = {u: i for i, u in enumerate(us)}
    col = {v: j for j, v in enumerate(vs)}
    grid = [[None] * len(vs) for _ in us]
    u_own = dict.fromkeys(us, 0)
    v_own = dict.fromkeys(vs, 0)
    for (a, b), lab in zip(g.edges, values):
        # a join edge is (v, u) when the second side has the smaller ids
        if a in row:
            if b in col:
                grid[row[a]][col[b]] = lab
            else:
                u_own[a] += lab
                u_own[b] += lab
        elif b in row:
            grid[row[b]][col[a]] = lab
        else:
            v_own[a] += lab
            v_own[b] += lab
    return LabelingMatrix(
        u_names=tuple(g.role_of(u) for u in us),
        v_names=tuple(g.role_of(v) for v in vs),
        grid=tuple(map(tuple, grid)),
        u_side=tuple(u_own[u] for u in us),
        u_margins=tuple(sums[u] for u in us),
        v_side=tuple(v_own[v] for v in vs) if any(v_own.values()) else None,  # labels are >= 1
        v_margins=tuple(sums[v] for v in vs),
    )
