"""Graph families, the join operation, and exact chromatic numbers.

Graphs are small, immutable, and use 1-based vertex ids. Every vertex
carries a role tag: ``u<i>`` for the first (path/cycle/clique) side of a
join and ``v<j>`` for the second side. Role tags let labeling code and
matrix exports address "the i-th path vertex" without tracking index
offsets, and they survive joins and edge deletions.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Collection, Mapping, NamedTuple

Edge = tuple[int, int]

# [0-9], not \d: \d also matches non-ASCII digits, so "u1" and "u\u0661"
# (Arabic-Indic one) would both pass as index 1. At most nine digits, so
# that ``int`` can always convert the index: Python refuses strings of more
# than 4300 digits.
_ROLE = re.compile(r"[uv][1-9][0-9]{0,8}")
# Library descriptors nest at most three lists deep; a deeper one read from
# a file would only exhaust the recursion limit.
_MAX_FAMILY_DEPTH = 32
# side -> its role names "u1", "u2", ... so far; see _role_names.
_ROLE_NAMES = {"u": (), "v": ()}
# build_family kind -> how many parameters it takes
_FAMILY_ARITY = {"path": 1, "cycle": 1, "null": 1, "complete": 1, "complete-bipartite": 2}


class ParameterError(ValueError):
    """A routine was called outside its documented parameter range."""


def is_int_pair(x) -> bool:
    """True for a JSON edge: a list of two integers (``true`` is no integer)."""
    return isinstance(x, list) and len(x) == 2 and type(x[0]) is int and type(x[1]) is int


def _refuse_assignment(self, name, value):
    # Fields are read-only already; this also keeps a cached property from
    # being overwritten, which would leave it out of step with the fields.
    raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")


def edge(a: int, b: int) -> Edge:
    """Normalized undirected edge: smaller endpoint first."""
    if a == b:
        raise ParameterError(f"self-loop at vertex {a}")
    return (a, b) if a < b else (b, a)


class _GraphFields(NamedTuple):
    n: int
    edges: tuple[Edge, ...]
    roles: tuple[str, ...]
    family: tuple | None = None


class Graph(_GraphFields):
    """An immutable simple graph with role-tagged, 1-based vertices.

    ``family`` is a structural descriptor such as ``("path", 6)``,
    ``("join", A, B)`` or ``("minus-edge", parent, e)``. It labels output
    and is never used as evidence: every property, the chromatic lower
    bound included, is computed from ``n`` and ``edges``.

    Data from a caller or a file is checked: ``Graph(...)`` refuses a graph
    whose ``n`` is not an int of at least 1, a role count other than ``n``,
    or an edge whose endpoints are not both of type ``int`` (``True`` and
    ``1.0`` are refused), that is repeated, or that is not
    ``1 <= a < b <= n``, the first bad edge reported. ``from_json`` builds
    through ``Graph(...)``, so a file gets the same check.
    Graphs from ``build_family``, ``join`` and ``delete_edge`` are valid by
    construction and are not checked again (see ``_unchecked``).
    """

    def __new__(cls, *fields, **named):
        self = super().__new__(cls, *fields, **named)
        if type(self.n) is not int:
            raise ParameterError(f"graph order must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ParameterError("graph needs at least one vertex")
        if len(self.roles) != self.n:
            raise ParameterError("one role tag required per vertex")
        self._check_edges()
        return self

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[Edge, ...], roles: tuple[str, ...], family) -> "Graph":
        """A graph whose fields are valid by construction, built without the checks."""
        return tuple.__new__(cls, (n, edges, roles, family))

    __setattr__ = _refuse_assignment

    def _check_edges(self) -> None:
        # Raises on the first bad edge in order.
        seen = set()
        for a, b in self.edges:
            if type(a) is not int or type(b) is not int:
                raise ParameterError(f"edge endpoints must be integers, got {(a, b)!r}")
            if not (1 <= a < b <= self.n):
                raise ParameterError(f"edge ({a},{b}) not normalized or out of range")
            if (a, b) in seen:
                raise ParameterError(f"duplicate edge ({a},{b})")
            seen.add((a, b))

    @property
    def q(self) -> int:
        """Number of edges (the labeling range is [1..q])."""
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @cached_property
    def _degrees(self) -> dict[int, int]:
        # a list counts faster; the dict makes ``degree`` refuse ids outside 1..n
        degs = [0] * (self.n + 1)
        for a, b in self.edges:
            degs[a] += 1
            degs[b] += 1
        return dict(enumerate(degs[1:], 1))

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def role_of(self, v: int) -> str:
        return self.roles[v - 1]

    @cached_property
    def u_vertices(self) -> tuple[int, ...]:
        """First-side vertices, ordered by their role index."""
        us = [v for v in self.vertices if self.roles[v - 1].startswith("u")]
        return tuple(sorted(us, key=lambda v: int(self.roles[v - 1][1:])))

    @cached_property
    def v_vertices(self) -> tuple[int, ...]:
        """Second-side vertices, ordered by their role index."""
        vs = [v for v in self.vertices if self.roles[v - 1].startswith("v")]
        return tuple(sorted(vs, key=lambda v: int(self.roles[v - 1][1:])))

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "vertices": [{"id": v, "role": self.roles[v - 1]} for v in self.vertices],
            "edges": [list(e) for e in self.edges],
            "family": _family_to_json(self.family),
        }

    @staticmethod
    def from_json(data: dict) -> "Graph":
        """Parse a v1 graph; raises ParameterError on a malformed one.

        The document must be an object with a ``vertices`` list of
        ``{"id", "role"}`` objects, checked one vertex at a time, and an
        ``edges`` list of integer pairs. Roles must be unique and match
        ``u<i>`` or ``v<j>`` with 1 <= i, j < 10**9, the form of every role
        the library builds; matrix export sorts by their index. The role
        check is made here and not in ``Graph.__new__``, which also runs for
        graphs built in code with ``Graph(...)``, where roles are valid by
        construction.
        ``family``, when present, is null or a list nested at most 32 deep.
        """
        if not isinstance(data, dict):
            raise ParameterError("a graph must be a JSON object")
        verts, pairs = data.get("vertices"), data.get("edges")
        if not isinstance(verts, list) or not all(
            isinstance(v, dict) and type(v.get("id")) is int and isinstance(v.get("role"), str) for v in verts
        ):
            raise ParameterError('graph "vertices" must be a list of {"id": int, "role": str} objects')
        if not isinstance(pairs, list) or not all(map(is_int_pair, pairs)):
            raise ParameterError('graph "edges" must be a list of integer pairs')
        ids = [v["id"] for v in verts]
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise ParameterError("vertex ids must be exactly 1..n")
        roles = [""] * len(ids)
        for v in verts:
            role = v["role"]
            if not _ROLE.fullmatch(role):
                raise ParameterError(f"vertex role {role!r} is not u<i> or v<j> with i, j >= 1")
            roles[v["id"] - 1] = role
        if len(set(roles)) != len(roles):
            raise ParameterError("vertex roles must be unique")
        edges = tuple(edge(a, b) for a, b in pairs)
        return Graph(len(ids), edges, tuple(roles), _family_from_json(data.get("family")))

    def __repr__(self):
        return f"Graph(n={self.n}, q={self.q}, family={self.family!r})"


def _family_to_json(family):
    if family is None:
        return None
    return [_family_to_json(x) if isinstance(x, tuple) else x for x in family]


def _family_from_json(data, depth=1):
    if data is None:
        return None
    if not isinstance(data, list) or not all(
        x is None or type(x) in (str, int, list) for x in data
    ):
        raise ParameterError('graph "family" must be null or a list of strings, integers and lists')
    if depth > _MAX_FAMILY_DEPTH:
        raise ParameterError(f'graph "family" nests more than {_MAX_FAMILY_DEPTH} lists deep')
    return tuple(_family_from_json(x, depth + 1) if isinstance(x, list) else x for x in data)


def _role_names(side: str, count: int) -> tuple[str, ...]:
    """The roles ``<side>1`` .. ``<side><count>``, shared by every graph.

    A side's tuple only grows, and it grows by rebinding to a longer one,
    never in place, so a tuple that a graph or another thread holds never
    changes.
    """
    names = _ROLE_NAMES[side]
    if len(names) < count:
        names += tuple(f"{side}{i}" for i in range(len(names) + 1, count + 1))
        _ROLE_NAMES[side] = names
    return names[:count]


def build_family(kind: str, *params: int) -> Graph:
    """Build one of the base families: path, cycle, null, complete, complete-bipartite.

    Vertices are u_1..u_m for path/cycle/complete, v_1..v_n for null, and
    u_1..u_m / v_1..v_n for the two sides of a complete bipartite graph.
    The parameters are checked here, so the graph needs no check of its own.
    """
    if any(type(p) is not int for p in params):
        raise ParameterError(f"{kind} parameters must be integers, got {params}")
    arity = _FAMILY_ARITY.get(kind) if isinstance(kind, str) else None
    if arity is None:
        raise ParameterError(f"unknown family kind {kind!r}")
    if len(params) != arity:
        raise ParameterError(f"{kind} takes {arity} parameter{'' if arity == 1 else 's'}, got {params}")
    if kind in ("path", "cycle"):
        (m,) = params
        least = 2 if kind == "path" else 3
        if m < least:
            raise ParameterError(f"{kind} needs order >= {least}, got {m}")
        edges = tuple((i, i + 1) for i in range(1, m))
        if kind == "cycle":
            edges += ((1, m),)
        return Graph._unchecked(m, edges, _role_names("u", m), (kind, m))
    if kind == "null":
        (n,) = params
        if n < 1:
            raise ParameterError(f"null graph needs order >= 1, got {n}")
        return Graph._unchecked(n, (), _role_names("v", n), ("null", n))
    if kind == "complete":
        (r,) = params
        if r < 1:
            raise ParameterError(f"complete graph needs order >= 1, got {r}")
        edges = tuple((i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1))
        return Graph._unchecked(r, edges, _role_names("u", r), ("complete", r))
    m, n = params  # complete-bipartite, the one kind left
    if m < 1 or n < 1:
        raise ParameterError(f"complete bipartite parts must be >= 1, got ({m},{n})")
    edges = tuple((i, m + j) for i in range(1, m + 1) for j in range(1, n + 1))
    roles = _role_names("u", m) + _role_names("v", n)
    return Graph._unchecked(m + n, edges, roles, ("complete-bipartite", m, n))


def join(a: Graph, b: Graph) -> Graph:
    """Join of two graphs: disjoint union plus all edges between the parts.

    The first part keeps u-roles (re-indexed u_1..u_|A|), the second part
    gets v-roles. Ids of ``b`` are shifted past ``a``'s.

    The edge order is a contract that the generators' ``_assemble`` relies
    on: ``a``'s edges, then ``b``'s (shifted), each in their own order, then
    the join edges row by row: (u_1, v_1), (u_1, v_2), ..., (u_|A|, v_|B|).
    The join of two valid graphs is valid, so it is not checked again:
    ``b``'s edges are shifted into ``|A|+1..|A|+|B|``, apart from ``a``'s, and
    each join edge has one endpoint ``<= |A|`` and one ``> |A|``.
    """
    off = a.n
    edges = list(a.edges)
    edges.extend((x + off, y + off) for x, y in b.edges)
    edges.extend(itertools.product(a.vertices, range(off + 1, off + b.n + 1)))
    roles = _role_names("u", a.n) + _role_names("v", b.n)
    return Graph._unchecked(a.n + b.n, tuple(edges), roles, ("join", a.family, b.family))


def delete_edge(g: Graph, e: Edge) -> Graph:
    """Remove one edge; the family descriptor records parent and deleted edge.

    The endpoints must be ints; what is left of a valid graph is valid.
    """
    try:
        a, b = e
    except (TypeError, ValueError):
        raise ParameterError(f"an edge is a pair of endpoints, got {e!r}") from None
    if type(a) is not int or type(b) is not int:
        raise ParameterError(f"edge endpoints must be integers, got {e}")
    e = edge(a, b)
    try:
        i = g.edges.index(e)
    except ValueError:
        raise ParameterError(f"edge {e} not present") from None
    return _delete_edge_at(g, i)


def _delete_edge_at(g: Graph, i: int) -> Graph:
    """``g`` without ``g.edges[i]``, for a caller that has found the index."""
    edges = g.edges[:i] + g.edges[i + 1:]
    return Graph._unchecked(g.n, edges, g.roles, ("minus-edge", g.family, g.edges[i]))


# The largest graph chromatic_number_exact accepts.
CHROMATIC_MAX_VERTICES = 16


def chromatic_number_exact(g: Graph) -> int:
    """Exact chromatic number, for graphs of at most ``CHROMATIC_MAX_VERTICES``.

    The count is ``_fewest_colors`` over all of ``g``. Larger graphs are
    rejected; ``chromatic_lower_bound`` splits a join into its parts instead.
    """
    if g.n > CHROMATIC_MAX_VERTICES:
        raise ParameterError(
            f"graph has {g.n} > {CHROMATIC_MAX_VERTICES} vertices; for join graphs use "
            "chi(A v B) = chi(A) + chi(B) via chromatic_lower_bound instead"
        )
    return _fewest_colors(list(g.vertices), g.adjacency)


def _fewest_colors(part: list[int], adj: Mapping[int, Collection[int]]) -> int:
    """The fewest colors that properly color the graph ``adj`` induces on ``part``.

    A backtracking search tries k = 1, 2, ... and returns the first k that
    colors ``part``, taking its vertices by decreasing degree in ``adj``.
    A vertex may take only a color none of its colored neighbours holds,
    and opens a new color only as the next unused one, so each coloring is
    tried once up to renaming. Only vertices of ``part`` are colored, so a
    neighbour outside it never blocks a color. A co-component's vertices
    all see every vertex outside it, so ``adj`` orders it by its own degrees.
    """
    order = sorted(part, key=lambda v: -len(adj[v]))
    color: dict[int, int] = {}

    def extend(i: int, opened: int, k: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        taken = {color[u] for u in adj[v] if u in color}
        for c in range(min(opened + 1, k)):
            if c not in taken:
                color[v] = c
                if extend(i + 1, max(opened, c + 1), k):
                    return True
                del color[v]
        return False

    k = 1
    while not extend(0, 0, k):
        k += 1
    return k


def chromatic_lower_bound(g: Graph) -> int:
    """A lower bound on chi(g), read from ``g.n`` and ``g.edges`` alone.

    Every graph is the join of its co-components, the connected components
    of its complement, so chi(g) is the sum of their chromatic numbers
    (chi(A v B) = chi(A) + chi(B)). A co-component adds 1 if it is
    edgeless, 2 if bipartite, and otherwise, having an odd cycle, 3 if it
    has more than ``CHROMATIC_MAX_VERTICES`` vertices; a smaller odd one
    adds its exact chromatic number, counted by ``_fewest_colors`` on
    ``g``'s own adjacency. The bound is chi(g) itself unless some
    co-component is both large and not bipartite.
    """
    adj = {v: set(nbrs) for v, nbrs in g.adjacency.items()}
    unvisited = set(g.vertices)
    total = 0
    while unvisited:
        # BFS in the complement, stepping to the unvisited non-neighbours.
        part = [unvisited.pop()]
        for v in part:
            found = unvisited - adj[v]
            unvisited -= found
            part.extend(found)
        total += _co_component_chromatic(adj, sorted(part))
    return total


def _co_component_chromatic(adj: dict[int, set[int]], part: list[int]) -> int:
    """chi of the graph induced on ``part``, or 3 when that is only a bound."""
    inside = set(part)
    side: dict[int, bool] = {}
    has_edge = odd = False
    for root in part:
        if root in side:
            continue
        side[root] = False
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v] & inside:
                has_edge = True
                if u not in side:
                    side[u] = not side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    odd = True
    if not odd:
        return 2 if has_edge else 1
    if len(part) > CHROMATIC_MAX_VERTICES:
        return 3
    return _fewest_colors(part, adj)
