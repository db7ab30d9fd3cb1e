import itertools
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SMALLEST_ORDER, built_graphs, random_graph
from lajoin.graphs import (
    Graph,
    ParameterError,
    build_family,
    chromatic_lower_bound,
    chromatic_number_exact,
    delete_edge,
    edge,
    is_int_pair,
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
    assert delete_edge(g, (2, 1)) == h
    assert Graph.from_json(h.to_json()) == h


@pytest.mark.parametrize("e", [(1, 3), (0, 1), (4, 5), (2, 9)])
def test_delete_edge_names_a_missing_edge(e):
    with pytest.raises(ParameterError, match=rf"^edge \({e[0]}, {e[1]}\) not present$"):
        delete_edge(build_family("path", 4), e)


@pytest.mark.parametrize("e", [(1.0, 2), (True, 2), (2, 1.0), (1, 2.0), (1, "2")])
def test_delete_edge_refuses_non_int_endpoints(e):
    # (1.0, 2) and (True, 2) are equal to the edge (1, 2) and would
    # delete it, with a descriptor that from_json refuses.
    with pytest.raises(ParameterError, match="endpoints must be integers"):
        delete_edge(build_family("path", 4), e)


@pytest.mark.parametrize(
    "kind,params",
    [("null", (True,)), ("path", (4.0,)), ("cycle", ("5",)), ("complete", (None,)),
     ("complete-bipartite", (2, 3.0)), ("complete-bipartite", (False, 3))],
)
def test_build_family_refuses_non_int_parameters(kind, params):
    with pytest.raises(ParameterError, match="parameters must be integers"):
        build_family(kind, *params)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: build_family("path"), "path takes 1 parameter, got ()"),
        (lambda: build_family("path", 3, 4), "path takes 1 parameter, got (3, 4)"),
        (lambda: build_family("null", 1, 1), "null takes 1 parameter, got (1, 1)"),
        (lambda: build_family("complete-bipartite", 3), "complete-bipartite takes 2 parameters, got (3,)"),
        (lambda: build_family("complete-bipartite", 1, 2, 3),
         "complete-bipartite takes 2 parameters, got (1, 2, 3)"),
        (lambda: delete_edge(build_family("path", 4), (1, 2, 3)), "an edge is a pair of endpoints, got (1, 2, 3)"),
        (lambda: delete_edge(build_family("path", 4), (1,)), "an edge is a pair of endpoints, got (1,)"),
        (lambda: delete_edge(build_family("path", 4), 2), "an edge is a pair of endpoints, got 2"),
    ],
    ids=["path-none", "path-two", "null-two", "bipartite-one", "bipartite-three", "edge-three", "edge-one",
         "edge-int"],
)
def test_wrong_argument_counts_name_the_input(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("n", [True, 2.0, "2", None])
def test_graph_refuses_an_order_that_is_not_an_int(n):
    with pytest.raises(ParameterError, match="graph order must be an integer"):
        Graph(n, (), ("u1", "u2"))


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
        if type(a) is not int or type(b) is not int:
            raise ParameterError(f"edge endpoints must be integers, got {(a, b)!r}")
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
    1.0, True, repeated or non-pair one, in any order."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = list(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    bad = st.one_of(
        st.sampled_from(pairs).map(lambda e: (e[1], e[0])) if pairs else st.just((1, 1)),
        st.integers(1, n).map(lambda v: (0, v)),
        st.integers(1, n).map(lambda v: (v, n + 1)),
        st.integers(1, n).map(lambda v: (1.0, v)),
        st.integers(1, n).map(lambda v: (True, v)),
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


@given(edge_lists())
def test_graph_from_json_checks_as_graph_does(case):
    # from_json refuses edges that are not JSON integer pairs, normalizes
    # reversed ones and leaves the range and repeats to Graph(...); it must
    # accept and refuse what Graph(...) does, with the same message.
    n, edges = case
    roles = tuple(f"u{i}" for i in range(1, n + 1))
    doc = {"schema": "v1", "vertices": [{"id": v, "role": r} for v, r in enumerate(roles, 1)],
           "edges": [list(e) for e in edges], "family": None}

    def reference():
        if not all(is_int_pair(list(e)) for e in edges):
            raise ParameterError('graph "edges" must be a list of integer pairs')
        return Graph(n, tuple(edge(a, b) for a, b in edges), roles)

    expected = _outcome(reference)
    assert _outcome(Graph.from_json, doc) == expected
    if expected is None:
        g = Graph.from_json(doc)
        assert g == reference()


@settings(max_examples=200)
@given(built_graphs)
def test_graphs_built_without_the_check_pass_it(g):
    assert Graph(g.n, g.edges, g.roles, g.family) == g
    degrees = Counter(v for e in g.edges for v in e)
    assert all(g.degree(v) == degrees[v] for v in g.vertices)


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
        assert chromatic_lower_bound(big._replace(family=family)) == 4
        assert chromatic_lower_bound(small._replace(family=family)) == 4
        assert chromatic_lower_bound(minus._replace(family=family)) == 3


def _brute_force_chromatic(g: Graph) -> int:
    """The smallest k for which some k-coloring with vertex 1 fixed at color 0
    is proper: an oracle that shares nothing with the search it checks."""
    for k in range(1, g.n + 1):
        for rest in itertools.product(range(k), repeat=g.n - 1):
            color = (0, *rest)
            if all(color[a - 1] != color[b - 1] for a, b in g.edges):
                return k


def test_chromatic_number_matches_a_brute_force_oracle():
    # Every labeled graph on at most 5 vertices, then seeded random ones on 6 and 7.
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            graphs.append(Graph(n, edges, tuple(f"u{i}" for i in range(1, n + 1))))
    assert len(graphs) == 1099
    rng = random.Random(1979)
    graphs.extend(_dense_random_graph(rng, rng.randint(6, 7)) for _ in range(200))
    for g in graphs:
        assert chromatic_number_exact(g) == chromatic_lower_bound(g) == _brute_force_chromatic(g), g.edges


def _graph(n: int, pairs) -> Graph:
    return Graph(n, tuple(sorted(edge(a, b) for a, b in pairs)), tuple(f"u{i}" for i in range(1, n + 1)))


@pytest.mark.parametrize("g,chi", [
    # Grötzsch: C_5, a twin 5+i of each cycle vertex i joined to i's
    # neighbours, and a hub 11 joined to the twins. Triangle-free.
    (_graph(11, [(i, i % 5 + 1) for i in range(1, 6)]
            + [(i + 5, j) for i in range(1, 6) for j in (i % 5 + 1, (i - 2) % 5 + 1)]
            + [(i, 11) for i in range(6, 11)]), 4),
    # The complement of C_7: largest clique 3.
    (_graph(7, [(a, b) for a, b in itertools.combinations(range(1, 8), 2) if b - a not in (1, 6)]), 4),
    # Petersen: outer C_5, spokes, inner pentagram. Triangle-free.
    (_graph(10, [(i, i % 5 + 1) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]
            + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]), 3),
], ids=["grotzsch", "complement-of-c7", "petersen"])
def test_chromatic_number_where_the_clique_bound_is_not_tight(g, chi):
    assert chromatic_number_exact(g) == chromatic_lower_bound(g) == _brute_force_chromatic(g) == chi


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


def _per_vertex_roles(verts):
    """The roles in id order, checked one vertex at a time: the reference
    for Graph.from_json, which raises these messages in this order."""
    if not isinstance(verts, list) or not all(
        isinstance(v, dict) and type(v.get("id")) is int and isinstance(v.get("role"), str)
        for v in verts
    ):
        raise ParameterError('graph "vertices" must be a list of {"id": int, "role": str} objects')
    ids = [v["id"] for v in verts]
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise ParameterError("vertex ids must be exactly 1..n")
    roles = [""] * len(ids)
    for v in verts:
        role = v["role"]
        if not re.fullmatch(r"[uv][1-9][0-9]{0,8}", role):
            raise ParameterError(f"vertex role {role!r} is not u<i> or v<j> with i, j >= 1")
        roles[v["id"] - 1] = role
    if len(set(roles)) != len(roles):
        raise ParameterError("vertex roles must be unique")
    return tuple(roles)


@st.composite
def vertex_lists(draw):
    """Vertex lists of 1..6 items in any id order, some items faulty: an id
    or role that is missing, of the wrong type, repeated or out of range, a
    malformed role, or an item that is not a dict."""
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(1, n + 1)))
    verts = [{"id": v, "role": f"{draw(st.sampled_from('uv'))}{v}"} for v in ids]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(["id", "role", "no-id", "no-role", "not-dict", "role-copy"]))
        if not isinstance(verts[i], dict):
            continue
        if fault == "id":
            verts[i]["id"] = draw(st.sampled_from([0, n + 1, 1, True, 1.0, "1", None]))
        elif fault == "role":
            verts[i]["role"] = draw(st.sampled_from(["ux", "u0", "w1", "u01", "", 1, None, "u1" + "0" * 9]))
        elif fault in ("no-id", "no-role"):
            verts[i].pop(fault[3:], None)
        elif fault == "not-dict":
            verts[i] = draw(st.sampled_from([1, "u1", [1, "u1"], None]))
        else:
            verts[i]["role"] = verts[0].get("role", "u1") if isinstance(verts[0], dict) else "u1"
    return verts


@settings(max_examples=300)
@given(verts=vertex_lists())
# two bad roles, listed against id order: the first listed is named
@example(verts=[{"id": 2, "role": "ux"}, {"id": 1, "role": "w1"}])
@example(verts=[{"id": 2, "role": "u1"}, {"id": 1, "role": "v1"}])
def test_graph_from_json_checks_vertices_as_the_per_vertex_loop_did(verts):
    # same outcome, message included, as the one-vertex-at-a-time check;
    # an edgeless graph, so that only the vertices can fail
    expected = _outcome(_per_vertex_roles, verts)
    doc = {"schema": "v1", "vertices": verts, "edges": []}
    assert _outcome(Graph.from_json, doc) == expected
    if expected is None:
        assert Graph.from_json(doc).roles == _per_vertex_roles(verts)


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


@settings(max_examples=80)
@given(st.integers(0, 10**6))
def test_degree_table_matches_the_neighbours(seed):
    rng = random.Random(seed)
    a, b = random_graph(rng), random_graph(rng, 2, 5)
    joined = join(a, b)
    for g in (a, b, joined, delete_edge(joined, rng.choice(joined.edges))):
        assert all(g.degree(v) == len(g.neighbors(v)) for v in g.vertices)
        for v in (0, -1, g.n + 1):
            with pytest.raises(KeyError):
                g.degree(v)


def _names(side, count):
    return tuple(f"{side}{i}" for i in range(1, count + 1))


@given(st.sampled_from(sorted(SMALLEST_ORDER)), st.integers(0, 40),
       st.sampled_from(sorted(SMALLEST_ORDER)), st.integers(0, 40), st.integers(1, 40))
def test_roles_are_the_indexed_names(kind_a, extra_a, kind_b, extra_b, k):
    a = build_family(kind_a, SMALLEST_ORDER[kind_a] + extra_a)
    b = build_family(kind_b, SMALLEST_ORDER[kind_b] + extra_b)
    assert a.roles == _names("v" if kind_a == "null" else "u", a.n)
    assert b.roles == _names("v" if kind_b == "null" else "u", b.n)
    assert join(a, b).roles == _names("u", a.n) + _names("v", b.n)
    assert build_family("complete-bipartite", a.n, k).roles == _names("u", a.n) + _names("v", k)


def test_a_larger_graph_leaves_earlier_roles_unchanged():
    from lajoin.graphs import _ROLE_NAMES

    # larger than any graph built so far, so each side's names must grow
    m, n = len(_ROLE_NAMES["u"]) + 3, len(_ROLE_NAMES["v"]) + 3
    small = join(build_family("path", m), build_family("null", n))
    large = join(build_family("path", m + 40), build_family("null", n + 40))
    assert small.roles == _names("u", m) + _names("v", n)
    assert large.roles == _names("u", m + 40) + _names("v", n + 40)


def test_graphs_share_their_role_strings():
    a = build_family("path", 9)
    b = join(build_family("cycle", 12), build_family("null", 4))
    assert all(x is y for x, y in zip(a.roles, b.roles))
    assert build_family("null", 4).roles[-1] is b.roles[-1]
