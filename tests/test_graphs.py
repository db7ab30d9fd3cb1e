import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lajoin.graphs import (
    Graph,
    ParameterError,
    build_family,
    chromatic_lower_bound,
    chromatic_number_exact,
    delete_edge,
    edge,
    join,
)


def test_path_build():
    g = build_family("path", 4)
    assert g.n == 4
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert [g.degree(v) for v in g.vertices] == [1, 2, 2, 1]


def test_cycle_build():
    g = build_family("cycle", 3)
    assert g.q == 3
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_null_build():
    g = build_family("null", 5)
    assert g.n == 5 and g.q == 0
    assert g.roles == ("v1", "v2", "v3", "v4", "v5")


def test_family_minimums_rejected():
    for kind, params in [("path", (1,)), ("cycle", (2,)), ("null", (0,)), ("complete", (0,))]:
        with pytest.raises(ParameterError):
            build_family(kind, *params)


def test_join_sizes_match_part_data():
    g = join(build_family("path", 6), build_family("null", 8))
    assert g.n == 14 and g.q == 5 + 0 + 48

    g = join(build_family("path", 2), build_family("null", 1))
    assert g.q == 3

    g = join(build_family("cycle", 6), build_family("cycle", 5))
    assert g.n == 11 and g.q == 6 + 5 + 30


def test_join_roles_and_descriptor():
    g = join(build_family("cycle", 4), build_family("null", 3))
    assert g.u_vertices == (1, 2, 3, 4)
    assert g.v_vertices == (5, 6, 7)
    assert g.family == ("join", ("cycle", 4), ("null", 3))


@pytest.mark.parametrize("na", range(2, 9))
@pytest.mark.parametrize("nb", range(2, 9))
def test_join_size_exhaustive(na, nb):
    # size identity |E(A v B)| = |E(A)| + |E(B)| + |V(A)||V(B)|
    kinds_a = [("path", na), ("cycle", na) if na >= 3 else ("path", na), ("null", na)]
    kinds_b = [("null", nb), ("complete", nb)]
    for ka, kb in itertools.product(kinds_a, kinds_b):
        a, b = build_family(*ka), build_family(*kb)
        assert join(a, b).q == a.q + b.q + a.n * b.n


@pytest.mark.parametrize(
    "kind,params",
    [("path", (7,)), ("cycle", (8,)), ("complete", (5,)), ("complete-bipartite", (3, 4))],
)
def test_handshake(kind, params):
    g = build_family(kind, *params)
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.q


def test_delete_edge():
    g = join(build_family("cycle", 6), build_family("null", 5))
    h = delete_edge(g, (5, 6))
    assert h.q == 35
    h2 = delete_edge(g, (6, 7))  # u6 to v1
    assert h2.degree(6) == g.degree(6) - 1
    assert h2.degree(7) == g.degree(7) - 1
    with pytest.raises(ParameterError):
        delete_edge(h, (5, 6))


def test_delete_edge_descriptor():
    g = build_family("cycle", 4)
    h = delete_edge(g, (1, 2))
    assert h.family == ("minus-edge", ("cycle", 4), (1, 2))


def test_duplicate_and_self_loop_rejected():
    with pytest.raises(ParameterError):
        Graph(3, ((1, 2), (1, 2)), ("u1", "u2", "u3"))
    with pytest.raises(ParameterError):
        edge(2, 2)


def per_edge_check(n: int, edges) -> None:
    # Reference: Graph's edge validation one edge at a time, where the
    # first bad edge decides the exception and its message.
    seen = set()
    for a, b in edges:
        if not (1 <= a < b <= n):
            raise ParameterError(f"edge ({a},{b}) not normalized or out of range")
        if (a, b) in seen:
            raise ParameterError(f"duplicate edge ({a},{b})")
        seen.add((a, b))


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


@st.composite
def edge_lists(draw):
    """Mostly valid edges, each possibly replaced by a reversed, 0, n+1,
    repeated or non-pair one, in any order."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = list(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    bad = st.one_of(
        st.sampled_from(pairs).map(lambda e: (e[1], e[0])) if pairs else st.just((1, 1)),
        st.integers(1, n).map(lambda v: (0, v)),
        st.integers(1, n).map(lambda v: (v, n + 1)),
        st.sampled_from(edges) if edges else st.just((1, 1)),
        st.tuples(st.integers(0, n + 1)),
        st.tuples(st.integers(0, n + 1), st.integers(0, n + 1), st.integers(0, n + 1)),
        st.just(()),
    )
    for _ in range(draw(st.integers(0, 3))):
        edges.insert(draw(st.integers(0, len(edges))), draw(bad))
    return n, tuple(edges)


@given(edge_lists())
def test_graph_rejects_what_the_per_edge_check_rejects(case):
    n, edges = case
    roles = tuple(f"u{i}" for i in range(1, n + 1))
    expected = _outcome(per_edge_check, n, edges)
    assert _outcome(Graph, n, edges, roles) == expected
    if expected is None:
        g = Graph(n, edges, roles)
        assert g._edge_set == frozenset(edges)
        pairs = itertools.combinations(range(0, n + 2), 2)
        assert all(g.has_edge(e) == (e in edges) for e in pairs)


def test_edge_set_matches_the_edges():
    for g in (build_family("path", 5), join(build_family("cycle", 5), build_family("null", 4)),
              build_family("null", 3), delete_edge(build_family("complete", 5), (2, 4))):
        assert g._edge_set == frozenset(g.edges) and len(g._edge_set) == g.q
        assert all(g.has_edge(e) for e in g.edges)
        assert not any(g.has_edge((b, a)) for a, b in g.edges)


def test_chromatic_small():
    assert chromatic_number_exact(build_family("path", 4)) == 2
    assert chromatic_number_exact(build_family("cycle", 5)) == 3
    assert chromatic_number_exact(build_family("complete", 5)) == 5
    g = join(build_family("path", 6), build_family("null", 5))
    assert chromatic_number_exact(g) == 3
    g = join(build_family("cycle", 6), build_family("cycle", 5))
    assert chromatic_number_exact(g) == 5


def test_chromatic_rejects_large():
    g = join(build_family("path", 10), build_family("null", 10))
    with pytest.raises(ParameterError, match="chromatic_lower_bound"):
        chromatic_number_exact(g)


def test_chromatic_join_additivity():
    # exact search and the co-component bound agree with chi(A v B) = chi(A) + chi(B)
    parts = [("path", 2), ("path", 3), ("path", 4), ("cycle", 3), ("cycle", 4),
             ("cycle", 5), ("null", 1), ("null", 3), ("complete", 3), ("complete-bipartite", 2, 2)]
    for pa, pb in itertools.combinations(parts, 2):
        a, b = build_family(*pa), build_family(*pb)
        if a.n + b.n > 12:
            continue
        g = join(a, b)
        expected = chromatic_number_exact(a) + chromatic_number_exact(b)
        assert chromatic_number_exact(g) == chromatic_lower_bound(g) == expected


def _dense_random_graph(rng: random.Random, n: int) -> Graph:
    """G(n, p) with p drawn per graph, so dense graphs whose complements
    split into several co-components come up as often as sparse ones."""
    p = rng.random()
    edges = tuple(
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < p
    )
    return Graph(n, edges, tuple(f"u{i}" for i in range(1, n + 1)))


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    """``g`` with its vertex ids permuted, so a join's parts interleave."""
    perm = list(g.vertices)
    rng.shuffle(perm)
    edges = tuple(sorted(edge(perm[a - 1], perm[b - 1]) for a, b in g.edges))
    return Graph(g.n, edges, g.roles)


def test_chromatic_lower_bound_is_exact_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(3000):
        g = _dense_random_graph(rng, rng.randint(1, 12))
        assert chromatic_lower_bound(g) == chromatic_number_exact(g), g.edges


def test_chromatic_lower_bound_is_exact_on_random_joins():
    rng = random.Random(2112)
    for _ in range(1000):
        k = rng.choice((2, 3))
        sizes = [rng.randint(1, 16 // k) for _ in range(k)]
        parts = [_dense_random_graph(rng, n) for n in sizes]
        g = parts[0]
        for part in parts[1:]:
            g = join(g, part)
        g = _shuffled(g, rng)
        expected = sum(chromatic_number_exact(part) for part in parts)
        assert chromatic_lower_bound(g) == chromatic_number_exact(g) == expected, g.edges


@pytest.mark.parametrize("m,n", [(3, 11), (3, 14), (5, 7), (9, 1)])
def test_chromatic_lower_bound_on_a_large_odd_co_component(m, n):
    # Deleting a join edge from C_2m v O_n leaves one co-component with a
    # triangle and more than 16 vertices, too many for the exact count.
    g = delete_edge(join(build_family("cycle", 2 * m), build_family("null", n)), (1, 2 * m + 1))
    assert g.n > 16
    assert chromatic_lower_bound(g) == 3


def test_chromatic_lower_bound_ignores_the_descriptor():
    # The bound reads only n and edges, so a wrong descriptor cannot raise it.
    big = join(build_family("cycle", 5), build_family("null", 14))  # 19 vertices
    small = join(build_family("cycle", 5), build_family("null", 2))
    minus = delete_edge(small, (1, 2))  # P_5 v O_2
    for family in (None, ("cycle", "x"), (), ("complete", 9), ("path", 17)):
        assert chromatic_lower_bound(replace(big, family=family)) == 4
        assert chromatic_lower_bound(replace(small, family=family)) == 4
        assert chromatic_lower_bound(replace(minus, family=family)) == 3


def test_json_round_trip():
    g = join(build_family("path", 4), build_family("null", 3))
    g2 = Graph.from_json(g.to_json())
    assert g2 == g
    assert g2.family == g.family


def _graph_doc():
    return join(build_family("path", 2), build_family("null", 2)).to_json()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("vertices"),
        lambda d: d.pop("edges"),
        lambda d: d.update(vertices={}),
        lambda d: d["vertices"].__setitem__(0, 1),
        lambda d: d["vertices"][0].update(id=True),
        lambda d: d["vertices"][0].pop("role"),
        lambda d: d["vertices"][0].update(role="ux"),
        lambda d: d["vertices"][0].update(role="u0"),
        lambda d: d["vertices"][0].update(role="u\u0661"),  # Arabic-Indic digit one
        lambda d: d["vertices"][0].update(role="v1"),
        lambda d: d["vertices"][0].update(role="u1" + "0" * 9),
        lambda d: d["vertices"][0].update(role="u1" + "0" * 4400),
        lambda d: d["edges"][0].__setitem__(1, 2.0),
        lambda d: d["edges"].__setitem__(0, [1, 2, 3]),
        lambda d: d.update(family=5),
        lambda d: d.update(family=["join", {}]),
        lambda d: d.update(family=json.loads("[" * 33 + "]" * 33)),
    ],
    ids=["no-vertices", "no-edges", "vertices-dict", "vertex-int", "bool-id",
         "no-role", "role-ux", "role-u0", "role-unicode-digit", "duplicate-role",
         "role-10-digits", "role-4401-digits", "float-endpoint", "edge-triple",
         "family-int", "family-dict-item", "family-33-deep"],
)
def test_graph_from_json_rejects_malformed(mutate):
    data = _graph_doc()
    mutate(data)
    with pytest.raises(ParameterError):
        Graph.from_json(data)


def test_graph_from_json_role_and_family_limits():
    data = _graph_doc()
    for v, role in zip(data["vertices"], ["u999999999", "u10", "v1", "v2"]):
        v["role"] = role
    data["family"] = json.loads("[" * 32 + "]" * 32)
    g = Graph.from_json(data)
    assert [g.role_of(v) for v in g.u_vertices] == ["u10", "u999999999"]


@pytest.mark.parametrize("data", [[_graph_doc()], None, "graph", 3])
def test_graph_from_json_rejects_non_object(data):
    with pytest.raises(ParameterError):
        Graph.from_json(data)
